//! Consistency validation of a concept net.
//!
//! The arena builders make dangling references impossible, but snapshots
//! can come from other tools and hand-edited files; edge *semantics* (acyclic
//! isA, weight ranges, reciprocal links) are invariants worth checking
//! before serving a net. `validate` returns every violation found rather
//! than failing fast, so a damaged snapshot can be triaged in one pass.

use alicoco_nn::util::FxHashSet;

use crate::graph::AliCoCo;
use crate::ids::{ConceptId, PrimitiveId};

/// A single consistency violation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Primitive isA graph has a cycle through this node.
    PrimitiveIsACycle(PrimitiveId),
    /// Concept isA graph has a cycle through this node.
    ConceptIsACycle(ConceptId),
    /// A concept→item weight outside `[0, 1]` or non-finite.
    BadWeight {
        /// Offending concept.
        concept: ConceptId,
        /// The out-of-range weight.
        weight: f32,
    },
    /// An item→concept back-link without the forward edge.
    DanglingBackLink {
        /// Item carrying the back-link.
        item: crate::ids::ItemId,
        /// Concept the back-link points to.
        concept: ConceptId,
    },
    /// A forward concept→item edge without the reciprocal back-link.
    MissingBackLink {
        /// Concept with the forward edge.
        concept: ConceptId,
        /// Item missing the back-link.
        item: crate::ids::ItemId,
    },
    /// A hyponym/hypernym pair recorded on one side only.
    AsymmetricIsA {
        /// The hyponym side of the one-sided edge.
        hyponym: PrimitiveId,
        /// The hypernym side.
        hypernym: PrimitiveId,
    },
    /// An empty class, concept, or primitive name.
    EmptyName(&'static str),
}

/// Check every invariant; returns all violations (empty = consistent).
pub fn validate(kg: &AliCoCo) -> Vec<Violation> {
    let mut out = Vec::new();

    // Names non-empty.
    for c in kg.class_ids() {
        if kg.class(c).name.is_empty() {
            out.push(Violation::EmptyName("class"));
        }
    }
    for p in kg.primitive_ids() {
        if kg.primitive(p).name.is_empty() {
            out.push(Violation::EmptyName("primitive"));
        }
    }
    for c in kg.concept_ids() {
        if kg.concept(c).name.is_empty() {
            out.push(Violation::EmptyName("concept"));
        }
    }

    // Primitive isA: cycle detection (iterative three-color DFS) and edge
    // symmetry.
    {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let n = kg.num_primitives();
        let mut color = vec![Color::White; n];
        for start in kg.primitive_ids() {
            if color[start.index()] != Color::White {
                continue;
            }
            // (node, next-child-index) stack.
            let mut stack: Vec<(PrimitiveId, usize)> = vec![(start, 0)];
            color[start.index()] = Color::Grey;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let hypernyms = &kg.primitive(node).hypernyms;
                if let Some(&child) = hypernyms.get(*next) {
                    *next += 1;
                    match color[child.index()] {
                        Color::White => {
                            color[child.index()] = Color::Grey;
                            stack.push((child, 0));
                        }
                        Color::Grey => out.push(Violation::PrimitiveIsACycle(child)),
                        Color::Black => {}
                    }
                } else {
                    color[node.index()] = Color::Black;
                    stack.pop();
                }
            }
        }
        for p in kg.primitive_ids() {
            for &h in &kg.primitive(p).hypernyms {
                if !kg.primitive(h).hyponyms.contains(&p) {
                    out.push(Violation::AsymmetricIsA {
                        hyponym: p,
                        hypernym: h,
                    });
                }
            }
        }
    }

    // Concept isA cycles (concept layer stores hypernyms only).
    {
        let n = kg.num_concepts();
        let mut state = vec![0u8; n]; // 0 white, 1 grey, 2 black
        for start in kg.concept_ids() {
            if state[start.index()] != 0 {
                continue;
            }
            let mut stack: Vec<(ConceptId, usize)> = vec![(start, 0)];
            state[start.index()] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let hypernyms = kg.concept(node).hypernyms;
                if let Some(&child) = hypernyms.get(*next) {
                    *next += 1;
                    match state[child.index()] {
                        0 => {
                            state[child.index()] = 1;
                            stack.push((child, 0));
                        }
                        1 => out.push(Violation::ConceptIsACycle(child)),
                        _ => {}
                    }
                } else {
                    state[node.index()] = 2;
                    stack.pop();
                }
            }
        }
    }

    // Weights and reciprocal concept<->item links.
    for c in kg.concept_ids() {
        for &(item, w) in kg.concept(c).items {
            if !w.is_finite() || !(0.0..=1.0).contains(&w) {
                out.push(Violation::BadWeight {
                    concept: c,
                    weight: w,
                });
            }
            if !kg.concepts_for_item(item).contains(&c) {
                out.push(Violation::MissingBackLink { concept: c, item });
            }
        }
    }
    for i in kg.item_ids() {
        for &c in kg.concepts_for_item(i) {
            let forward: FxHashSet<crate::ids::ItemId> =
                kg.concept(c).items.iter().map(|&(it, _)| it).collect();
            if !forward.contains(&i) {
                out.push(Violation::DanglingBackLink {
                    item: i,
                    concept: c,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_kg() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("root", None);
        let cat = kg.add_class("Category", Some(root));
        let a = kg.add_primitive("grill", cat);
        let b = kg.add_primitive("cookware", cat);
        kg.add_primitive_is_a(a, b);
        let c1 = kg.add_concept("outdoor barbecue");
        let c2 = kg.add_concept("barbecue");
        kg.add_concept_is_a(c1, c2);
        let i = kg.add_item(&["grill".into()]);
        kg.link_concept_item(c1, i, 0.9);
        kg
    }

    #[test]
    fn well_formed_graph_validates_clean() {
        assert!(validate(&valid_kg()).is_empty());
    }

    #[test]
    fn primitive_cycle_is_detected() {
        let mut kg = valid_kg();
        let a = kg.primitives_by_name("grill")[0];
        let b = kg.primitives_by_name("cookware")[0];
        // Manually close the cycle b -> a (a -> b already exists).
        kg.add_primitive_is_a(b, a);
        let v = validate(&kg);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::PrimitiveIsACycle(_))),
            "cycle not flagged: {v:?}"
        );
    }

    #[test]
    fn concept_cycle_is_detected() {
        let mut kg = valid_kg();
        let c1 = kg.concept_by_name("outdoor barbecue").unwrap();
        let c2 = kg.concept_by_name("barbecue").unwrap();
        kg.add_concept_is_a(c2, c1);
        let v = validate(&kg);
        assert!(v.iter().any(|x| matches!(x, Violation::ConceptIsACycle(_))));
    }

    #[test]
    fn self_loops_rejected_at_insertion_so_only_longer_cycles_reach_validate() {
        // add_primitive_is_a panics on self-loops; validate exists for
        // 2+-node cycles that insertion cannot see.
        let kg = valid_kg();
        assert!(validate(&kg).is_empty());
    }

    #[test]
    fn loaded_snapshot_of_valid_graph_stays_valid() {
        let kg = valid_kg();
        let mut buf = Vec::new();
        crate::snapshot::save(&kg, &mut buf).unwrap();
        let loaded = crate::snapshot::load(&mut buf.as_slice()).unwrap();
        assert!(validate(&loaded).is_empty());
    }
}
