//! Format-agnostic model ↔ record mapping.
//!
//! Every snapshot codec works in terms of the same flat [`Record`] stream:
//! [`stream`] walks a net in the canonical order (nodes by arena id, then
//! edges grouped by source, then relations — exactly the TSV line order),
//! and [`GraphBuilder`] reassembles a net from records while validating
//! every id reference, name, and weight, so malformed input of any format
//! becomes a typed [`LoadError`] instead of a panic inside the graph.

use crate::graph::AliCoCo;
use crate::ids::{ClassId, ConceptId, ItemId, PrimitiveId};
use crate::snapshot::LoadError;

/// One logical snapshot record. Numeric fields are raw `u32` arena indices
/// (the width ids are stored at), so records are meaningful before a graph
/// exists to type them against.
#[derive(Clone, Debug, PartialEq)]
pub enum Record<'a> {
    /// Taxonomy class (`C`): id, name, optional parent.
    Class {
        /// Arena index.
        id: u32,
        /// Class name.
        name: &'a str,
        /// Parent class index.
        parent: Option<u32>,
    },
    /// Primitive concept (`P`): id, surface, class.
    Primitive {
        /// Arena index.
        id: u32,
        /// Surface form.
        name: &'a str,
        /// Class index.
        class: u32,
    },
    /// E-commerce concept (`E`): id, surface.
    Concept {
        /// Arena index.
        id: u32,
        /// Surface form.
        name: &'a str,
    },
    /// Item (`I`): id plus title tokens joined by single spaces.
    Item {
        /// Arena index.
        id: u32,
        /// Space-joined title tokens.
        title: String,
    },
    /// Primitive isA edge (`pp`).
    PrimitiveIsA {
        /// Hyponym.
        hypo: u32,
        /// Hypernym.
        hyper: u32,
    },
    /// Concept isA edge (`ee`).
    ConceptIsA {
        /// Hyponym.
        hypo: u32,
        /// Hypernym.
        hyper: u32,
    },
    /// Concept → interpreting primitive edge (`ep`).
    ConceptPrimitive {
        /// Concept.
        concept: u32,
        /// Primitive.
        primitive: u32,
    },
    /// Concept → item suggestion edge (`ei`) with probability weight.
    ConceptItem {
        /// Concept.
        concept: u32,
        /// Item.
        item: u32,
        /// Suggestion probability in `[0, 1]`.
        weight: f32,
    },
    /// Item → primitive property edge (`ip`).
    ItemPrimitive {
        /// Item.
        item: u32,
        /// Primitive.
        primitive: u32,
    },
    /// Schema relation between classes (`S`).
    Schema {
        /// Relation name.
        name: &'a str,
        /// Source class.
        from: u32,
        /// Target class.
        to: u32,
    },
    /// Instance relation between primitives (`R`).
    Relation {
        /// Relation name.
        name: &'a str,
        /// Source primitive.
        from: u32,
        /// Target primitive.
        to: u32,
    },
}

/// The canonical record stream of a net: classes, primitives, concepts,
/// items, primitive isA edges, then per concept its isA / primitive / item
/// edges, item-primitive edges, schema relations, instance relations —
/// all in ascending arena order. Every codec serializes exactly this
/// stream, which is what makes cross-format re-saves byte-identical.
pub fn stream(kg: &AliCoCo) -> impl Iterator<Item = Record<'_>> + '_ {
    let classes = kg.class_ids().map(move |id| Record::Class {
        id: id.index() as u32,
        name: &kg.class(id).name,
        parent: kg.class(id).parent.map(|p| p.index() as u32),
    });
    let primitives = kg.primitive_ids().map(move |id| Record::Primitive {
        id: id.index() as u32,
        name: &kg.primitive(id).name,
        class: kg.primitive(id).class.index() as u32,
    });
    let concepts = kg.concept_ids().map(move |id| Record::Concept {
        id: id.index() as u32,
        name: kg.concept(id).name,
    });
    let items = kg.item_ids().map(move |id| Record::Item {
        id: id.index() as u32,
        title: kg.item(id).title.join(" "),
    });
    let prim_is_a = kg.primitive_ids().flat_map(move |id| {
        kg.primitive(id)
            .hypernyms
            .iter()
            .map(move |h| Record::PrimitiveIsA {
                hypo: id.index() as u32,
                hyper: h.index() as u32,
            })
    });
    let concept_edges = kg.concept_ids().flat_map(move |id| {
        let c = kg.concept(id);
        let cid = id.index() as u32;
        let is_a = c.hypernyms.iter().map(move |h| Record::ConceptIsA {
            hypo: cid,
            hyper: h.index() as u32,
        });
        let prims = c.primitives.iter().map(move |p| Record::ConceptPrimitive {
            concept: cid,
            primitive: p.index() as u32,
        });
        let items = c
            .items
            .iter()
            .map(move |&(item, weight)| Record::ConceptItem {
                concept: cid,
                item: item.index() as u32,
                weight,
            });
        is_a.chain(prims).chain(items)
    });
    let item_edges = kg.item_ids().flat_map(move |id| {
        kg.item(id)
            .primitives
            .iter()
            .map(move |p| Record::ItemPrimitive {
                item: id.index() as u32,
                primitive: p.index() as u32,
            })
    });
    let schema = kg.schema().iter().map(|s| Record::Schema {
        name: &s.name,
        from: s.from.index() as u32,
        to: s.to.index() as u32,
    });
    let relations = kg.primitive_relations().iter().map(|r| Record::Relation {
        name: &r.name,
        from: r.from.index() as u32,
        to: r.to.index() as u32,
    });
    classes
        .chain(primitives)
        .chain(concepts)
        .chain(items)
        .chain(prim_is_a)
        .chain(concept_edges)
        .chain(item_edges)
        .chain(schema)
        .chain(relations)
}

/// Reassembles a net from a record stream, validating as it goes: node ids
/// must arrive in arena order, every referenced id must already exist,
/// names must be unique where the graph requires it, isA edges must not be
/// self-loops, and weights must be finite probabilities. Violations become
/// [`LoadError::Parse`] carrying the offending record's position.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    kg: AliCoCo,
}

impl GraphBuilder {
    /// Start with an empty net.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one record; `pos` (the TSV line or binary record ordinal) is
    /// reported in errors.
    pub fn apply(&mut self, pos: usize, rec: &Record<'_>) -> Result<(), LoadError> {
        let err = |msg: &str| LoadError::Parse(pos, msg.to_string());
        let kg = &mut self.kg;
        match *rec {
            Record::Class { id, name, parent } => {
                if kg.class_by_name(name).is_some() {
                    return Err(err("duplicate class name"));
                }
                let parent = match parent {
                    Some(p) if (p as usize) < kg.num_classes() => {
                        Some(ClassId::from_index(p as usize))
                    }
                    Some(_) => return Err(err("class parent out of range")),
                    None => None,
                };
                if kg.add_class(name, parent).index() != id as usize {
                    return Err(err("class ids out of order"));
                }
            }
            Record::Primitive { id, name, class } => {
                if (class as usize) >= kg.num_classes() {
                    return Err(err("primitive class out of range"));
                }
                let got = kg.add_primitive(name, ClassId::from_index(class as usize));
                if got.index() != id as usize {
                    return Err(err("primitive ids out of order"));
                }
            }
            Record::Concept { id, name } => {
                if kg.add_concept(name).index() != id as usize {
                    return Err(err("concept ids out of order"));
                }
            }
            Record::Item { id, ref title } => {
                let tokens: Vec<String> = if title.is_empty() {
                    Vec::new()
                } else {
                    title.split(' ').map(String::from).collect()
                };
                if kg.add_item(&tokens).index() != id as usize {
                    return Err(err("item ids out of order"));
                }
            }
            Record::PrimitiveIsA { hypo, hyper } => {
                let n = kg.num_primitives();
                if (hypo as usize) >= n || (hyper as usize) >= n {
                    return Err(err("primitive isA endpoint out of range"));
                }
                if hypo == hyper {
                    return Err(err("primitive isA self-loop"));
                }
                kg.add_primitive_is_a(
                    PrimitiveId::from_index(hypo as usize),
                    PrimitiveId::from_index(hyper as usize),
                );
            }
            Record::ConceptIsA { hypo, hyper } => {
                let n = kg.num_concepts();
                if (hypo as usize) >= n || (hyper as usize) >= n {
                    return Err(err("concept isA endpoint out of range"));
                }
                if hypo == hyper {
                    return Err(err("concept isA self-loop"));
                }
                kg.add_concept_is_a(
                    ConceptId::from_index(hypo as usize),
                    ConceptId::from_index(hyper as usize),
                );
            }
            Record::ConceptPrimitive { concept, primitive } => {
                if (concept as usize) >= kg.num_concepts()
                    || (primitive as usize) >= kg.num_primitives()
                {
                    return Err(err("concept-primitive endpoint out of range"));
                }
                kg.link_concept_primitive(
                    ConceptId::from_index(concept as usize),
                    PrimitiveId::from_index(primitive as usize),
                );
            }
            Record::ConceptItem {
                concept,
                item,
                weight,
            } => {
                if (concept as usize) >= kg.num_concepts() || (item as usize) >= kg.num_items() {
                    return Err(err("concept-item endpoint out of range"));
                }
                if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
                    return Err(err("weight must be a probability"));
                }
                kg.link_concept_item(
                    ConceptId::from_index(concept as usize),
                    ItemId::from_index(item as usize),
                    weight,
                );
            }
            Record::ItemPrimitive { item, primitive } => {
                if (item as usize) >= kg.num_items() || (primitive as usize) >= kg.num_primitives()
                {
                    return Err(err("item-primitive endpoint out of range"));
                }
                kg.link_item_primitive(
                    ItemId::from_index(item as usize),
                    PrimitiveId::from_index(primitive as usize),
                );
            }
            Record::Schema { name, from, to } => {
                let n = kg.num_classes();
                if (from as usize) >= n || (to as usize) >= n {
                    return Err(err("schema relation class out of range"));
                }
                kg.add_schema_relation(
                    name,
                    ClassId::from_index(from as usize),
                    ClassId::from_index(to as usize),
                );
            }
            Record::Relation { name, from, to } => {
                let n = kg.num_primitives();
                if (from as usize) >= n || (to as usize) >= n {
                    return Err(err("primitive relation endpoint out of range"));
                }
                kg.add_primitive_relation(
                    name,
                    PrimitiveId::from_index(from as usize),
                    PrimitiveId::from_index(to as usize),
                );
            }
        }
        Ok(())
    }

    /// The assembled net.
    pub fn finish(self) -> AliCoCo {
        self.kg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::test_support::build_sample;

    #[test]
    fn stream_applied_through_builder_reproduces_the_net() {
        let kg = build_sample();
        let mut b = GraphBuilder::new();
        for (i, rec) in stream(&kg).enumerate() {
            b.apply(i, &rec).unwrap();
        }
        assert_eq!(b.finish(), kg);
    }

    #[test]
    fn stream_order_matches_tsv_line_order() {
        let kg = build_sample();
        let mut tsv = Vec::new();
        crate::snapshot::save(&kg, &mut tsv).unwrap();
        let lines = tsv.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(stream(&kg).count(), lines, "one record per TSV line");
        // First records are the classes, in arena order.
        let first = stream(&kg).next().unwrap();
        assert!(matches!(first, Record::Class { id: 0, .. }));
    }

    #[test]
    fn builder_rejects_dangling_references() {
        let mut b = GraphBuilder::new();
        let e = b
            .apply(
                3,
                &Record::ConceptPrimitive {
                    concept: 0,
                    primitive: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(e, LoadError::Parse(3, _)));
    }
}
