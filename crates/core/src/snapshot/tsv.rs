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
//! Ids are written in arena order, so loading reproduces identical ids.
//! Tabs and newlines are forbidden in names (a typed [`SaveError`]).

use std::io::{BufRead, Write};

use super::records::{stream, GraphBuilder, Record};
use super::{check_name, LoadError, SaveError};
use crate::graph::AliCoCo;

/// The record types in canonical stream order, with the byte that tags
/// them on the wire. Used by [`crate::store`] to group a TSV snapshot into
/// inspectable pseudo-sections.
pub const RECORD_KINDS: &[&str] = &["C", "P", "E", "I", "pp", "ee", "ep", "ip", "ei", "S", "R"];

/// Serialize the canonical record stream as TSV lines.
pub fn save<W: Write>(kg: &AliCoCo, w: &mut W) -> Result<(), SaveError> {
    for rec in stream(kg) {
        write_record(w, &rec)?;
    }
    Ok(())
}

fn write_record<W: Write>(w: &mut W, rec: &Record<'_>) -> Result<(), SaveError> {
    match *rec {
        Record::Class { id, name, parent } => {
            let name = check_name("class", name)?;
            match parent {
                Some(p) => writeln!(w, "C\t{id}\t{name}\t{p}")?,
                None => writeln!(w, "C\t{id}\t{name}\t-")?,
            }
        }
        Record::Primitive { id, name, class } => {
            writeln!(w, "P\t{id}\t{}\t{class}", check_name("primitive", name)?)?;
        }
        Record::Concept { id, name } => {
            writeln!(w, "E\t{id}\t{}", check_name("concept", name)?)?;
        }
        Record::Item { id, ref title } => {
            writeln!(w, "I\t{id}\t{}", check_name("item title", title)?)?;
        }
        Record::PrimitiveIsA { hypo, hyper } => writeln!(w, "pp\t{hypo}\t{hyper}")?,
        Record::ConceptIsA { hypo, hyper } => writeln!(w, "ee\t{hypo}\t{hyper}")?,
        Record::ConceptPrimitive { concept, primitive } => {
            writeln!(w, "ep\t{concept}\t{primitive}")?;
        }
        Record::ConceptItem {
            concept,
            item,
            weight,
        } => {
            writeln!(w, "ei\t{concept}\t{item}\t{weight}")?;
        }
        Record::ItemPrimitive { item, primitive } => writeln!(w, "ip\t{item}\t{primitive}")?,
        Record::Schema { name, from, to } => {
            writeln!(
                w,
                "S\t{}\t{from}\t{to}",
                check_name("schema relation", name)?
            )?;
        }
        Record::Relation { name, from, to } => {
            writeln!(
                w,
                "R\t{}\t{from}\t{to}",
                check_name("primitive relation", name)?
            )?;
        }
    }
    Ok(())
}

/// Parse one TSV line into a [`Record`] borrowing from it. Every field
/// access is bounds-checked; `ln` is reported in errors.
pub fn parse_line<'a>(ln: usize, line: &'a str) -> Result<Record<'a>, LoadError> {
    let err = |msg: &str| LoadError::Parse(ln, msg.to_string());
    // Ids are stored as `u32` internally, so parse at that width: an
    // out-of-range id in the stream is a parse error, not an overflow panic
    // inside `from_index`.
    let parse_idx = |s: &str| -> Result<u32, LoadError> {
        s.parse::<u32>()
            .map_err(|_| LoadError::Parse(ln, "bad id".to_string()))
    };
    fn field<'b>(ln: usize, parts: &[&'b str], i: usize) -> Result<&'b str, LoadError> {
        parts
            .get(i)
            .copied()
            .ok_or_else(|| LoadError::Parse(ln, "truncated record".to_string()))
    }
    let parts: Vec<&'a str> = line.split('\t').collect();
    let parts = parts.as_slice();
    Ok(match field(ln, parts, 0)? {
        "C" => {
            if parts.len() != 4 {
                return Err(err("class record needs 4 fields"));
            }
            let parent = if field(ln, parts, 3)? == "-" {
                None
            } else {
                Some(parse_idx(field(ln, parts, 3)?)?)
            };
            Record::Class {
                id: parse_idx(field(ln, parts, 1)?)?,
                name: field(ln, parts, 2)?,
                parent,
            }
        }
        "P" => {
            if parts.len() != 4 {
                return Err(err("primitive record needs 4 fields"));
            }
            Record::Primitive {
                id: parse_idx(field(ln, parts, 1)?)?,
                name: field(ln, parts, 2)?,
                class: parse_idx(field(ln, parts, 3)?)?,
            }
        }
        "E" => {
            if parts.len() != 3 {
                return Err(err("concept record needs 3 fields"));
            }
            Record::Concept {
                id: parse_idx(field(ln, parts, 1)?)?,
                name: field(ln, parts, 2)?,
            }
        }
        "I" => {
            if parts.len() != 3 {
                return Err(err("item record needs 3 fields"));
            }
            Record::Item {
                id: parse_idx(field(ln, parts, 1)?)?,
                title: field(ln, parts, 2)?.to_string(),
            }
        }
        "pp" => Record::PrimitiveIsA {
            hypo: parse_idx(field(ln, parts, 1)?)?,
            hyper: parse_idx(field(ln, parts, 2)?)?,
        },
        "ee" => Record::ConceptIsA {
            hypo: parse_idx(field(ln, parts, 1)?)?,
            hyper: parse_idx(field(ln, parts, 2)?)?,
        },
        "ep" => Record::ConceptPrimitive {
            concept: parse_idx(field(ln, parts, 1)?)?,
            primitive: parse_idx(field(ln, parts, 2)?)?,
        },
        "ip" => Record::ItemPrimitive {
            item: parse_idx(field(ln, parts, 1)?)?,
            primitive: parse_idx(field(ln, parts, 2)?)?,
        },
        "ei" => {
            if parts.len() != 4 {
                return Err(err("concept-item record needs 4 fields"));
            }
            Record::ConceptItem {
                concept: parse_idx(field(ln, parts, 1)?)?,
                item: parse_idx(field(ln, parts, 2)?)?,
                weight: field(ln, parts, 3)?
                    .parse()
                    .map_err(|_| err("bad weight"))?,
            }
        }
        "S" => Record::Schema {
            name: field(ln, parts, 1)?,
            from: parse_idx(field(ln, parts, 2)?)?,
            to: parse_idx(field(ln, parts, 3)?)?,
        },
        "R" => Record::Relation {
            name: field(ln, parts, 1)?,
            from: parse_idx(field(ln, parts, 2)?)?,
            to: parse_idx(field(ln, parts, 3)?)?,
        },
        other => return Err(err(&format!("unknown record type {other:?}"))),
    })
}

/// Deserialize a graph from a TSV reader.
pub fn load<R: BufRead>(r: &mut R) -> Result<AliCoCo, LoadError> {
    let mut builder = GraphBuilder::new();
    for (ln, line) in r.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let rec = parse_line(ln, &line)?;
        builder.apply(ln, &rec)?;
    }
    Ok(builder.finish())
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
}
