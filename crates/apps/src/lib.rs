#![warn(missing_docs)]
//! # alicoco-apps
//!
//! Downstream applications of the AliCoCo concept net, as described in §8
//! of the paper — the pieces that turn the knowledge graph into product
//! features:
//!
//! - [`search`] — semantic search: keyword queries trigger concept cards
//!   with the items a scenario needs (§8.1, Figure 2a),
//! - [`recommend`] — cognitive recommendation: infer user needs from
//!   browsing history and recommend concept cards with novelty, plus
//!   human-readable recommendation reasons (§8.2, Figure 2b/c),
//! - [`qa`] — scenario question answering: "what should I prepare for
//!   hosting next week's barbecue?" → a shopping checklist (§8.1.2),
//! - [`relevance`] — search relevance with isA expansion: "jacket is a kind
//!   of top" closes query–title vocabulary gaps (§8.1.1).
//!
//! Everything here operates on a read-only [`alicoco::AliCoCo`] — these are
//! serving-side features, independent of the construction pipeline.
//!
//! The four engines are views over **one** [`retrieve::Retriever`]: the
//! net's single `QueryIndex`, its optional ANN bundle, and the one hybrid
//! fusion (lexical ∪ HNSW proposals → exact rescoring → top-`k`). Search
//! and QA also share its one lexical scorer, [`Retriever::rank_concepts`]:
//! two weight sets over the integer match counts the index's posting merge
//! yields, so no concept or primitive name is read while a request is
//! scored (the string scans survive as the oracles `search_scan` and
//! `resolve_scan`). Each engine has one constructor,
//! `Engine::new(retriever, cfg-if-any, &Registry)`; its fusion weights are
//! constants beside its scoring formula, and its metric handles are always
//! registered — a caller that does not read them passes `&Registry::new()`.

pub mod qa;
pub mod recommend;
pub mod relevance;
pub mod retrieve;
pub mod search;

pub use qa::{Answer, ScenarioQa};
pub use recommend::{CognitiveRecommender, RecommendConfig, Recommendation};
pub use relevance::RelevanceScorer;
pub use retrieve::Retriever;
pub use search::{ConceptCard, SearchConfig, SemanticSearch};
