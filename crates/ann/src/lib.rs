#![warn(missing_docs)]
//! # alicoco-ann
//!
//! Hybrid-retrieval substrate: a dependency-free, **deterministic** HNSW
//! vector index over the embeddings the workspace already trains, plus
//! the serving-side bundle that fuses vector candidates into the lexical
//! engines (closing the zero-token-overlap gap of PAPER.md's semantic
//! matching task).
//!
//! - [`hnsw`] — the index itself: seeded level assignment, `rank`-total-
//!   order neighbor selection, byte-reproducible builds, `knn` search and
//!   the exact `scan_knn` oracle it is recall-gated against.
//! - [`bundle`] — [`bundle::AnnBundle`]: token → embedding table for
//!   query encoding plus one index over concepts and one over items,
//!   serialized as the three opaque payloads the `ALCC` snapshot codec
//!   carries as checksummed `AVOC`/`ACON`/`AITM` sections.
//! - [`embed`] — training the bundle from a concept net: a cross-layer
//!   corpus (concept surfaces ⊕ primitive names ⊕ item titles) through
//!   seeded word2vec, so item-title-only tokens still reach concepts.

pub mod bundle;
pub mod embed;
pub mod hnsw;
pub mod io;

pub use bundle::{AnnBundle, TokenTable};
pub use embed::{build_bundle, build_default_bundle, EmbedConfig};
pub use hnsw::{Hnsw, HnswConfig};
pub use io::{
    load_file_with_bundle, load_snapshot_with_bundle, save_snapshot_with_bundle, FileLoadError,
};
