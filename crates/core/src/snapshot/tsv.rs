//! The line-oriented TSV codec — the canonical-bytes oracle every other
//! snapshot format is verified against.
//!
//! The format is a single text stream of typed records, one per line:
//!
//! ```text
//! C\t<id>\t<name>\t<parent|->            taxonomy class
//! P\t<id>\t<name>\t<class>               primitive concept
//! E\t<id>\t<name>                        e-commerce concept
//! I\t<id>\t<title tokens space-joined>   item
//! pp\t<hypo>\t<hyper>                    primitive isA
//! ee\t<hypo>\t<hyper>                    concept isA
//! ep\t<concept>\t<primitive>             concept -> primitive
//! ip\t<item>\t<primitive>                item -> primitive
//! ei\t<concept>\t<item>\t<weight>        concept -> item
//! S\t<name>\t<from>\t<to>                schema relation
//! R\t<name>\t<from>\t<to>                primitive instance relation
//! ```
//!
//! Lines come in one canonical order: classes, primitives, concepts and
//! items by arena id, then primitive isA edges, then per concept its isA,
//! primitive and item edges, then item-primitive edges, schema relations
//! and instance relations. Ids are written in arena order, so loading
//! reproduces identical ids and re-saving a loaded net reproduces its
//! bytes. Tabs and newlines are forbidden in names (a typed
//! [`SaveError`]).

use std::io::{BufRead, Write};

use super::{check_name, LoadError, SaveError};
use crate::graph::AliCoCo;
use crate::ids::{ClassId, ConceptId, ItemId, PrimitiveId};

/// The record types in canonical stream order, with the byte that tags
/// them on the wire. Used by [`crate::store`] to group a TSV snapshot into
/// inspectable pseudo-sections.
pub const RECORD_KINDS: &[&str] = &["C", "P", "E", "I", "pp", "ee", "ep", "ip", "ei", "S", "R"];

/// Write the net as TSV lines in the canonical order.
pub fn save<W: Write>(kg: &AliCoCo, w: &mut W) -> Result<(), SaveError> {
    for id in kg.class_ids() {
        let c = kg.class(id);
        let name = check_name("class", &c.name)?;
        match c.parent {
            Some(p) => writeln!(w, "C\t{}\t{name}\t{}", id.index(), p.index())?,
            None => writeln!(w, "C\t{}\t{name}\t-", id.index())?,
        }
    }
    for id in kg.primitive_ids() {
        let p = kg.primitive(id);
        let name = check_name("primitive", &p.name)?;
        writeln!(w, "P\t{}\t{name}\t{}", id.index(), p.class.index())?;
    }
    for id in kg.concept_ids() {
        let name = check_name("concept", kg.concept(id).name)?;
        writeln!(w, "E\t{}\t{name}", id.index())?;
    }
    for id in kg.item_ids() {
        let title = kg.item(id).title.join(" ");
        writeln!(
            w,
            "I\t{}\t{}",
            id.index(),
            check_name("item title", &title)?
        )?;
    }
    for id in kg.primitive_ids() {
        for h in &kg.primitive(id).hypernyms {
            writeln!(w, "pp\t{}\t{}", id.index(), h.index())?;
        }
    }
    for id in kg.concept_ids() {
        let c = kg.concept(id);
        let cid = id.index();
        for h in c.hypernyms {
            writeln!(w, "ee\t{cid}\t{}", h.index())?;
        }
        for p in c.primitives {
            writeln!(w, "ep\t{cid}\t{}", p.index())?;
        }
        for &(item, weight) in c.items {
            writeln!(w, "ei\t{cid}\t{}\t{weight}", item.index())?;
        }
    }
    for id in kg.item_ids() {
        for p in kg.item(id).primitives {
            writeln!(w, "ip\t{}\t{}", id.index(), p.index())?;
        }
    }
    for s in kg.schema() {
        let name = check_name("schema relation", &s.name)?;
        writeln!(w, "S\t{name}\t{}\t{}", s.from.index(), s.to.index())?;
    }
    for r in kg.primitive_relations() {
        let name = check_name("primitive relation", &r.name)?;
        writeln!(w, "R\t{name}\t{}\t{}", r.from.index(), r.to.index())?;
    }
    Ok(())
}

/// Deserialize a graph from a TSV reader, checking and applying each line
/// as it is parsed: node ids must arrive in arena order, every referenced
/// id must already exist, class names must be unique, isA edges must not
/// be self-loops, and weights must be finite probabilities. Malformed
/// input of any shape is a [`LoadError::Parse`] carrying the offending
/// line's index, never a panic inside the graph.
pub fn load<R: BufRead>(r: &mut R) -> Result<AliCoCo, LoadError> {
    let mut kg = AliCoCo::new();
    for (ln, line) in r.lines().enumerate() {
        let line = line?;
        if !line.is_empty() {
            apply_line(&mut kg, ln, &line)?;
        }
    }
    Ok(kg)
}

/// Parse line `ln` and add what it declares to `kg`. Every field access
/// is bounds-checked, and every field is parsed before any reference is
/// checked.
fn apply_line(kg: &mut AliCoCo, ln: usize, line: &str) -> Result<(), LoadError> {
    let err = |msg: &str| LoadError::Parse(ln, msg.to_string());
    let parts: Vec<&str> = line.split('\t').collect();
    let field = |i: usize| parts.get(i).copied().ok_or_else(|| err("truncated record"));
    // Ids are stored as `u32`, so parse at that width: an out-of-range id
    // is a parse error, not an overflow panic inside `from_index`.
    let id = |i: usize| {
        field(i)?
            .parse::<u32>()
            .map(|v| v as usize)
            .map_err(|_| err("bad id"))
    };
    let arity = |n: usize, msg: &str| {
        if parts.len() == n {
            Ok(())
        } else {
            Err(err(msg))
        }
    };
    match field(0)? {
        "C" => {
            arity(4, "class record needs 4 fields")?;
            let parent = match field(3)? {
                "-" => None,
                _ => Some(id(3)?),
            };
            let (cid, name) = (id(1)?, field(2)?);
            if kg.class_by_name(name).is_some() {
                return Err(err("duplicate class name"));
            }
            let parent = match parent {
                Some(p) if p < kg.num_classes() => Some(ClassId::from_index(p)),
                Some(_) => return Err(err("class parent out of range")),
                None => None,
            };
            if kg.add_class(name, parent).index() != cid {
                return Err(err("class ids out of order"));
            }
        }
        "P" => {
            arity(4, "primitive record needs 4 fields")?;
            let (pid, name, class) = (id(1)?, field(2)?, id(3)?);
            if class >= kg.num_classes() {
                return Err(err("primitive class out of range"));
            }
            if kg.add_primitive(name, ClassId::from_index(class)).index() != pid {
                return Err(err("primitive ids out of order"));
            }
        }
        "E" => {
            arity(3, "concept record needs 3 fields")?;
            let (cid, name) = (id(1)?, field(2)?);
            if kg.add_concept(name).index() != cid {
                return Err(err("concept ids out of order"));
            }
        }
        "I" => {
            arity(3, "item record needs 3 fields")?;
            let (iid, title) = (id(1)?, field(2)?);
            let tokens: Vec<String> = if title.is_empty() {
                Vec::new()
            } else {
                title.split(' ').map(String::from).collect()
            };
            if kg.add_item(&tokens).index() != iid {
                return Err(err("item ids out of order"));
            }
        }
        "pp" => {
            let (hypo, hyper) = (id(1)?, id(2)?);
            let n = kg.num_primitives();
            if hypo >= n || hyper >= n {
                return Err(err("primitive isA endpoint out of range"));
            }
            if hypo == hyper {
                return Err(err("primitive isA self-loop"));
            }
            kg.add_primitive_is_a(
                PrimitiveId::from_index(hypo),
                PrimitiveId::from_index(hyper),
            );
        }
        "ee" => {
            let (hypo, hyper) = (id(1)?, id(2)?);
            let n = kg.num_concepts();
            if hypo >= n || hyper >= n {
                return Err(err("concept isA endpoint out of range"));
            }
            if hypo == hyper {
                return Err(err("concept isA self-loop"));
            }
            kg.add_concept_is_a(ConceptId::from_index(hypo), ConceptId::from_index(hyper));
        }
        "ep" => {
            let (concept, primitive) = (id(1)?, id(2)?);
            if concept >= kg.num_concepts() || primitive >= kg.num_primitives() {
                return Err(err("concept-primitive endpoint out of range"));
            }
            kg.link_concept_primitive(
                ConceptId::from_index(concept),
                PrimitiveId::from_index(primitive),
            );
        }
        "ip" => {
            let (item, primitive) = (id(1)?, id(2)?);
            if item >= kg.num_items() || primitive >= kg.num_primitives() {
                return Err(err("item-primitive endpoint out of range"));
            }
            kg.link_item_primitive(ItemId::from_index(item), PrimitiveId::from_index(primitive));
        }
        "ei" => {
            arity(4, "concept-item record needs 4 fields")?;
            let (concept, item) = (id(1)?, id(2)?);
            let weight: f32 = field(3)?.parse().map_err(|_| err("bad weight"))?;
            if concept >= kg.num_concepts() || item >= kg.num_items() {
                return Err(err("concept-item endpoint out of range"));
            }
            if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
                return Err(err("weight must be a probability"));
            }
            kg.link_concept_item(
                ConceptId::from_index(concept),
                ItemId::from_index(item),
                weight,
            );
        }
        "S" => {
            let (name, from, to) = (field(1)?, id(2)?, id(3)?);
            let n = kg.num_classes();
            if from >= n || to >= n {
                return Err(err("schema relation class out of range"));
            }
            kg.add_schema_relation(name, ClassId::from_index(from), ClassId::from_index(to));
        }
        "R" => {
            let (name, from, to) = (field(1)?, id(2)?, id(3)?);
            let n = kg.num_primitives();
            if from >= n || to >= n {
                return Err(err("primitive relation endpoint out of range"));
            }
            kg.add_primitive_relation(
                name,
                PrimitiveId::from_index(from),
                PrimitiveId::from_index(to),
            );
        }
        other => return Err(err(&format!("unknown record type {other:?}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::test_support::build_sample;

    #[test]
    fn resave_is_byte_identical() {
        let kg = build_sample();
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice()).unwrap();
        let mut again = Vec::new();
        save(&loaded, &mut again).unwrap();
        assert_eq!(buf, again);
    }

    #[test]
    fn extra_fields_on_edge_records_are_tolerated() {
        // Historical behavior: edge/relation records read their fields
        // positionally and ignore trailing extras.
        let text = b"P\t0\tx\t0\npp\t0\t0\t9\n";
        // Self-loop — rejected by the builder, proving the record parsed.
        let kg = b"C\t0\troot\t-\nP\t0\tx\t0\nP\t1\ty\t0\npp\t0\t1\textra\n";
        assert!(load(&mut kg.as_slice()).is_ok());
        assert!(load(&mut text.as_slice()).is_err(), "missing class");
    }

    #[test]
    fn dangling_references_are_rejected_on_their_line() {
        let text = b"C\t0\troot\t-\nP\t0\tx\t0\nE\t0\tc\nep\t0\t1\n";
        let e = load(&mut text.as_slice()).unwrap_err();
        assert!(matches!(e, LoadError::Parse(3, _)), "{e:?}");
    }
}
