#![warn(missing_docs)]
//! # alicoco-obs
//!
//! Dependency-free observability for the AliCoCo serving and training
//! stack. The paper's system (§8) lives or dies by online latency, and a
//! reproduction that aims at production scale needs the same feedback
//! loop: every hot path records into this crate, the `suite` binary can
//! export a metrics snapshot per run, and CI gates on the numbers.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** Recording is a handful of `Relaxed` atomic
//!    operations — no locks, no allocation, no formatting. Handles
//!    ([`Counter`], [`Gauge`], [`Histogram`]) are pre-registered
//!    `Arc`s so the name lookup happens once at construction, never per
//!    request. The serving bench enforces an end-to-end overhead budget
//!    (instrumented search within 5% of uninstrumented).
//! 2. **Thread safety.** Every metric is shared freely across
//!    `std::thread::scope` workers; increments are never lost (hammer
//!    tests assert exact totals).
//! 3. **Determinism.** [`Registry::export_json`] iterates `BTreeMap`s, so
//!    two exports of the same state are byte-identical and key order never
//!    depends on hash iteration (the same AL005 discipline the snapshot
//!    format follows).
//!
//! The pieces:
//!
//! - [`Counter`] — monotone `u64` event count,
//! - [`Gauge`] — last-written `f64` level,
//! - [`Histogram`] — fixed log2-bucket value distribution with
//!   min/max-bounded p50/p90/p99 estimation,
//! - [`Registry`] — `Arc`-shared, thread-safe name → metric table with
//!   deterministic sorted JSON export,
//! - [`SpanTimer`] — RAII wall-clock guard that records elapsed
//!   nanoseconds into a histogram,
//! - [`Stopwatch`] — raw elapsed-ns reader for call sites that aggregate
//!   timings themselves or split one request into stages
//!   ([`Stopwatch::lap_ns`] into [`Histogram::record`]); the only
//!   sanctioned clock access outside this crate (enforced by the AL009
//!   lint),
//! - [`json`] — the workspace's one JSON string escaper and a small
//!   reader for the documents the export and the benches emit.

mod histogram;
pub mod json;
mod metric;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use span::{SpanTimer, Stopwatch};
