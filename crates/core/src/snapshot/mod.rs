//! Snapshot persistence: one codec module per format.
//!
//! [`tsv`] is the line-oriented text codec — the canonical-bytes oracle
//! every other format is tested against. It writes each line straight
//! from the net and checks and applies each line as it parses it.
//! [`binary`] is a compact sectioned format whose reader borrows
//! zero-copy views out of one loaded byte buffer and decodes straight
//! into the net's columns; its bounded [`binary::Cursor`] reads the
//! varint edge sections and, in `alicoco-ann`, the ANN trailer's
//! payloads. The [`crate::store`] module wraps both codecs behind a
//! common `Store` trait with format auto-detection.
//!
//! The free functions here ([`save`], [`load`]) keep the historical
//! TSV-snapshot API: ids are written in arena order, so loading reproduces
//! identical ids, and re-saving a loaded net reproduces the input byte for
//! byte. Timed variants live in [`crate::store`], one family for both
//! codecs.

pub mod binary;
pub mod tsv;

use std::io::{self, BufRead, Write};

use crate::graph::AliCoCo;

/// Error kind for snapshot saving.
#[derive(Debug)]
pub enum SaveError {
    /// Io.
    Io(io::Error),
    /// A name contains a record separator (tab or newline), which no
    /// snapshot format can persist losslessly against the TSV oracle.
    InvalidName {
        /// What carried the name ("class", "primitive", "item title", …).
        kind: &'static str,
        /// The offending name.
        name: String,
    },
}

impl std::fmt::Display for SaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaveError::Io(e) => write!(f, "io error: {e}"),
            SaveError::InvalidName { kind, name } => {
                write!(
                    f,
                    "{kind} name contains a separator (tab/newline): {name:?}"
                )
            }
        }
    }
}

impl std::error::Error for SaveError {}

impl From<io::Error> for SaveError {
    fn from(e: io::Error) -> Self {
        SaveError::Io(e)
    }
}

/// Error kind for snapshot loading.
#[derive(Debug)]
pub enum LoadError {
    /// Io.
    Io(io::Error),
    /// Malformed record with line (TSV) or record ordinal and description.
    Parse(usize, String),
    /// Structurally corrupt binary snapshot: the section (or header) that
    /// failed validation plus a description. Truncation, bit flips and
    /// oversized length fields all surface here — never as a panic.
    Corrupt(&'static str, String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse(line, msg) => write!(f, "parse error at line {line}: {msg}"),
            LoadError::Corrupt(section, msg) => {
                write!(f, "corrupt binary snapshot ({section}): {msg}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Reject names no snapshot format can represent. Both codecs call this on
/// every name they persist, so the error surfaces identically through
/// either backend.
pub(crate) fn check_name<'a>(kind: &'static str, s: &'a str) -> Result<&'a str, SaveError> {
    if s.contains('\t') || s.contains('\n') {
        return Err(SaveError::InvalidName {
            kind,
            name: s.to_string(),
        });
    }
    Ok(s)
}

/// Serialize the graph to a writer in the canonical TSV format.
pub fn save<W: Write>(kg: &AliCoCo, w: &mut W) -> Result<(), SaveError> {
    tsv::save(kg, w)
}

/// Deserialize a graph from a TSV reader. Every field access is
/// bounds-checked, so truncated or malformed records of any type yield a
/// [`LoadError::Parse`] rather than a panic.
pub fn load<R: BufRead>(r: &mut R) -> Result<AliCoCo, LoadError> {
    tsv::load(r)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    pub fn build_sample() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("root", None);
        let cat = kg.add_class("Category", Some(root));
        let event = kg.add_class("Event", Some(root));
        let time = kg.add_class("Time", Some(root));
        let grill = kg.add_primitive("grill", cat);
        let cookware = kg.add_primitive("cookware", cat);
        let bbq = kg.add_primitive("barbecue", event);
        let winter = kg.add_primitive("winter", time);
        kg.add_primitive_is_a(grill, cookware);
        kg.add_primitive_relation("suitable_when", grill, winter);
        kg.add_schema_relation("suitable_when", cat, time);
        let c1 = kg.add_concept("outdoor barbecue");
        let c2 = kg.add_concept("barbecue");
        kg.add_concept_is_a(c1, c2);
        kg.link_concept_primitive(c1, bbq);
        let i = kg.add_item(&["brand".to_string(), "grill".to_string()]);
        kg.link_item_primitive(i, grill);
        kg.link_concept_item(c1, i, 0.75);
        kg
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::build_sample;
    use super::*;
    use crate::stats::Stats;

    #[test]
    fn roundtrip_preserves_everything() {
        let kg = build_sample();
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice()).unwrap();
        let a = Stats::compute(&kg);
        let b = Stats::compute(&loaded);
        assert_eq!(a.num_classes, b.num_classes);
        assert_eq!(a.num_primitives, b.num_primitives);
        assert_eq!(a.num_concepts, b.num_concepts);
        assert_eq!(a.num_items, b.num_items);
        assert_eq!(a.total_relations(), b.total_relations());
        assert_eq!(a.schema_relations, b.schema_relations);
        // Weighted edge survives.
        let c1 = loaded.concept_by_name("outdoor barbecue").unwrap();
        let items = loaded.items_for_concept(c1);
        assert_eq!(items.len(), 1);
        assert!((items[0].1 - 0.75).abs() < 1e-6);
        // Disambiguation index rebuilt.
        assert_eq!(loaded.primitives_by_name("grill").len(), 1);
        // Full structural equality, not just statistics.
        assert_eq!(loaded, kg);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let mut buf = Vec::new();
        save(&AliCoCo::new(), &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.num_classes(), 0);
    }

    #[test]
    fn malformed_input_is_rejected() {
        let bad = b"X\t0\tfoo\n";
        let e = load(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(e, LoadError::Parse(0, _)));
        let bad2 = b"C\t0\tfoo\n"; // missing parent field
        assert!(load(&mut bad2.as_slice()).is_err());
        let bad3 = b"C\t5\tfoo\t-\n"; // id out of order
        assert!(load(&mut bad3.as_slice()).is_err());
    }

    #[test]
    fn truncated_records_error_instead_of_panicking() {
        // Relation records used to index `parts[1..3]` unchecked; every one
        // of these must now surface as a parse error.
        for bad in [
            &b"pp\t0\n"[..],
            b"ee\t0\n",
            b"ep\n",
            b"ip\t1\n",
            b"S\tname\t0\n",
            b"R\tname\n",
        ] {
            let e = load(&mut &bad[..]).unwrap_err();
            assert!(matches!(e, LoadError::Parse(0, _)), "input {bad:?}");
        }
        // An id beyond u32 range is a parse error, not an overflow panic.
        let huge = b"C\t99999999999999999999\tfoo\t-\n";
        assert!(matches!(
            load(&mut &huge[..]).unwrap_err(),
            LoadError::Parse(0, _)
        ));
    }

    #[test]
    fn out_of_range_edge_ids_error_instead_of_panicking() {
        // Edge endpoints used to be trusted and indexed the arena directly;
        // a snapshot referencing a node that was never declared must now be
        // a typed parse error on that record's line.
        for bad in [
            &b"pp\t0\t1\n"[..],
            b"ee\t7\t8\n",
            b"ep\t0\t0\n",
            b"ip\t0\t0\n",
            b"ei\t0\t0\t0.5\n",
            b"S\tr\t0\t1\n",
            b"R\tr\t0\t1\n",
            b"P\t0\tname\t3\n",
            b"C\t0\tname\t9\n",
        ] {
            let e = load(&mut &bad[..]).unwrap_err();
            assert!(matches!(e, LoadError::Parse(0, _)), "input {bad:?}");
        }
        // Out-of-probability or non-finite weights are parse errors, not
        // assertion panics inside the graph.
        let mut kg = AliCoCo::new();
        kg.add_concept("c");
        kg.add_item(&[]);
        let mut buf = Vec::new();
        save(&kg, &mut buf).unwrap();
        for weight in ["1.5", "-0.1", "NaN", "inf"] {
            let mut bytes = buf.clone();
            bytes.extend_from_slice(format!("ei\t0\t0\t{weight}\n").as_bytes());
            assert!(
                matches!(
                    load(&mut bytes.as_slice()).unwrap_err(),
                    LoadError::Parse(_, _)
                ),
                "weight {weight}"
            );
        }
    }

    #[test]
    fn duplicate_class_names_error_instead_of_panicking() {
        let bad = b"C\t0\tdup\t-\nC\t1\tdup\t-\n";
        assert!(matches!(
            load(&mut bad.as_slice()).unwrap_err(),
            LoadError::Parse(1, _)
        ));
        // Self-loop isA edges likewise.
        let bad = b"E\t0\tc\nee\t0\t0\n";
        assert!(matches!(
            load(&mut bad.as_slice()).unwrap_err(),
            LoadError::Parse(1, _)
        ));
    }

    #[test]
    fn names_with_separators_are_a_typed_save_error() {
        // Used to be an assert (process abort); now a `SaveError` returned
        // through both backends.
        let mut kg = AliCoCo::new();
        kg.add_class("bad\tname", None);
        let mut buf = Vec::new();
        let err = save(&kg, &mut buf).unwrap_err();
        assert!(
            matches!(&err, SaveError::InvalidName { kind, name }
                if *kind == "class" && name == "bad\tname"),
            "{err:?}"
        );
        let mut bin = Vec::new();
        assert!(matches!(
            binary::save(&kg, &mut bin).unwrap_err(),
            SaveError::InvalidName { .. }
        ));

        let mut kg = AliCoCo::new();
        kg.add_item(&["tok".to_string(), "has\nnewline".to_string()]);
        assert!(matches!(
            save(&kg, &mut Vec::new()).unwrap_err(),
            SaveError::InvalidName {
                kind: "item title",
                ..
            }
        ));
    }
}
