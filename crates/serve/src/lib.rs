//! `alicoco-serve` — the network boundary of the workspace: a
//! dependency-free HTTP/1.1 service over `std::net` exposing the four
//! serving engines (`/search`, `/qa`, `/recommend`, `/relevance`) plus
//! `/healthz` and `/metrics` on a shared immutable `Arc`-swapped net
//! loaded from any snapshot format.
//!
//! Layering (DESIGN.md §11):
//! - [`http`] — incremental request parsing with strict limits, typed
//!   protocol errors, deterministic response encoding;
//! - [`router`] — one engine call and one sorted-key JSON body per
//!   request ([`json`] renders it);
//! - [`state`] — the engine pack over one shared retriever and the swap slot;
//! - [`server`] — accept loop, bounded dispatch queue, worker pool,
//!   deadlines, and graceful drain.
//!
//! The whole crate sits inside the workspace lint's serving scope: no
//! panic is reachable from the connection path (AL001/AL007), all
//! timing flows through `alicoco_obs` (AL009), and every response body
//! renders with a fixed key order (AL005 discipline).

pub mod http;
pub mod json;
pub mod router;
pub mod server;
pub mod state;

pub use http::{HttpError, Limits, Method, Request, RequestParser, Response};
pub use router::RouteKey;
pub use server::{ServeConfig, Server, ShutdownReport};
pub use state::{EngineConfig, PackSlot, ServingPack};
