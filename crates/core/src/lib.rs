#![warn(missing_docs)]
//! # alicoco
//!
//! An open reimplementation of **AliCoCo: Alibaba E-commerce Cognitive
//! Concept Net** (Luo et al., SIGMOD 2020): a four-layer knowledge graph
//! that represents user needs as *e-commerce concepts* ("outdoor barbecue",
//! "christmas gifts for grandpa") and grounds them in typed *primitive
//! concepts*, a class *taxonomy*, and *items*.
//!
//! This crate is the graph itself:
//!
//! - [`graph::AliCoCo`] — node arenas for the four layers, typed relations
//!   (isA within the primitive and concept layers, interpretation links from
//!   concepts to primitives, weighted suggestion links from concepts to
//!   items), a relation schema over classes, and name indices with surface
//!   disambiguation,
//! - [`stats::Stats`] — the Table 2 statistics of a built net,
//! - [`coverage`] — the §7.1 user-needs coverage evaluator, with the
//!   CPV-only baseline vocabulary,
//! - [`snapshot`] — persistence codecs: the line-oriented TSV oracle and a
//!   compact sectioned binary format with zero-copy reads,
//! - [`store`] — the pluggable [`store::Store`] trait over both codecs,
//!   with format auto-detection,
//! - [`rank`] — the shared `(score desc, id asc)` ranking order and a
//!   bounded top-k heap used by every serving surface.
//!
//! Construction models (mining, hypernym discovery, concept classification,
//! tagging, item association) live in the `alicoco-mining` crate; this crate
//! stays a pure data structure so downstream applications can depend on it
//! without pulling in training code.
//!
//! # Example
//!
//! ```
//! use alicoco::AliCoCo;
//!
//! let mut kg = AliCoCo::new();
//! // Taxonomy (§3): first-level domains under a virtual root.
//! let root = kg.add_class("concept", None);
//! let location = kg.add_class("Location", Some(root));
//! let event = kg.add_class("Event", Some(root));
//!
//! // Primitive concepts (§4), typed by class.
//! let outdoor = kg.add_primitive("outdoor", location);
//! let barbecue = kg.add_primitive("barbecue", event);
//!
//! // An e-commerce concept (§5) interpreted by primitives.
//! let need = kg.add_concept("outdoor barbecue");
//! kg.link_concept_primitive(need, outdoor);
//! kg.link_concept_primitive(need, barbecue);
//!
//! // Items (§6), suggested for the scenario with a probability.
//! let grill = kg.add_item(&["bbq".into(), "grill".into()]);
//! kg.link_concept_item(need, grill, 0.92);
//!
//! assert_eq!(kg.items_for_concept(need), vec![(grill, 0.92)]);
//! assert_eq!(kg.concepts_for_item(grill), &[need]);
//!
//! // Surfaces disambiguate: the same name can exist in several domains.
//! let ip = kg.add_class("IP", Some(root));
//! let movie = kg.add_primitive("barbecue", ip);
//! assert_ne!(movie, barbecue);
//! assert_eq!(kg.primitives_by_name("barbecue").len(), 2);
//!
//! // Nets round-trip through the TSV snapshot format.
//! let mut buf = Vec::new();
//! alicoco::snapshot::save(&kg, &mut buf).unwrap();
//! let loaded = alicoco::snapshot::load(&mut buf.as_slice()).unwrap();
//! assert_eq!(loaded.num_concepts(), 1);
//! assert!(alicoco::validate::validate(&loaded).is_empty());
//! ```

mod columns;
pub mod coverage;
pub mod graph;
pub mod ids;
pub mod par;
pub mod query;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod validate;

/// Shared ranking primitives, re-exported from the base `alicoco-nn` crate
/// so every layer (including `nn` and `text`, which cannot depend on this
/// crate) ranks under the same total order.
pub use alicoco_nn::rank;

pub use graph::{AliCoCo, ClassNode, ConceptRef, ItemRef, PrimitiveNode};
pub use ids::{ClassId, ConceptId, ItemId, PrimitiveId};
pub use stats::Stats;
