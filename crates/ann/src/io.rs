//! Snapshot file I/O: [`load_file_with_bundle`] is the one file loader
//! (the CLI, `alicoco-serve` and `ann-gate` all load through it), and
//! [`save_snapshot_with_bundle`] writes a net with its
//! `AVOC`/`ACON`/`AITM` trailer sections.
//!
//! These sit in this crate (not `core::store`) because core treats the
//! ANN payloads as opaque bytes — only this crate knows how to decode
//! them into an [`AnnBundle`].

use std::path::Path;

use alicoco::snapshot::binary::{self, AnnPayload, SnapshotView};
use alicoco::snapshot::{LoadError, SaveError};
use alicoco::store::{self, Format};
use alicoco::AliCoCo;
use alicoco_obs::Registry;

use crate::bundle::AnnBundle;

/// Failure of [`load_file_with_bundle`]: either the filesystem or the
/// codec.
#[derive(Debug)]
pub enum FileLoadError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The bytes did not decode.
    Load(LoadError),
}

impl std::fmt::Display for FileLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileLoadError::Io(e) => write!(f, "read: {e}"),
            FileLoadError::Load(e) => write!(f, "load: {e}"),
        }
    }
}

impl std::error::Error for FileLoadError {}

impl From<LoadError> for FileLoadError {
    fn from(e: LoadError) -> Self {
        FileLoadError::Load(e)
    }
}

/// Serialize a net plus its retrieval bundle as one binary snapshot
/// with the three ANN trailer sections.
pub fn save_snapshot_with_bundle(
    kg: &AliCoCo,
    bundle: &AnnBundle,
    out: &mut Vec<u8>,
) -> Result<(), SaveError> {
    let (vocab, concepts, items) = bundle.encode();
    binary::save_with_ann(
        kg,
        Some(AnnPayload {
            vocab: &vocab,
            concepts: &concepts,
            items: &items,
        }),
        out,
    )
}

/// Decode a snapshot buffer into the net plus its bundle, if the
/// snapshot carries one. TSV snapshots (and binary snapshots without
/// the trailer) load with `None`.
///
/// Every section is checksummed on its own, so a trailer built over a
/// different net decodes cleanly; it is rejected here unless it holds
/// exactly one vector per concept and per item, because the engines turn
/// a proposed vector id straight into a concept or item id.
pub fn load_snapshot_with_bundle(bytes: &[u8]) -> Result<(AliCoCo, Option<AnnBundle>), LoadError> {
    if Format::detect(bytes) != Format::Binary {
        return Ok((store::store_for(Format::Tsv).load(bytes)?, None));
    }
    let view = SnapshotView::open(bytes)?;
    let kg = view.to_graph()?;
    let bundle = match view.ann() {
        Some((v, c, i)) => Some(AnnBundle::decode(v, c, i)?),
        None => None,
    };
    if let Some(bundle) = &bundle {
        for (section, vectors, nodes) in [
            ("ACON", bundle.concepts().len(), kg.num_concepts()),
            ("AITM", bundle.items().len(), kg.num_items()),
        ] {
            if vectors != nodes {
                return Err(LoadError::Corrupt(
                    section,
                    format!("{vectors} vectors for a net of {nodes}"),
                ));
            }
        }
    }
    Ok((kg, bundle))
}

/// Read `path`, sniff the codec from its magic bytes, and load the net
/// plus its bundle if it carries one, recording the per-backend
/// `snapshot.<fmt>.load_ns` and `snapshot.<fmt>.loaded_bytes` metrics.
pub fn load_file_with_bundle(
    path: &Path,
    metrics: &Registry,
) -> Result<(AliCoCo, Option<AnnBundle>), FileLoadError> {
    let bytes = std::fs::read(path).map_err(FileLoadError::Io)?;
    let format = Format::detect(&bytes);
    Ok(store::timed_load(
        format,
        &bytes,
        metrics,
        load_snapshot_with_bundle,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::build_default_bundle;

    fn sample_kg() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("root", None);
        let event = kg.add_class("Event", Some(root));
        let bbq = kg.add_primitive("barbecue", event);
        let c = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c, bbq);
        let i = kg.add_item(&["charcoal".into(), "grill".into()]);
        kg.link_concept_item(c, i, 0.75);
        kg
    }

    #[test]
    fn snapshot_with_bundle_roundtrips() {
        let kg = sample_kg();
        let bundle = build_default_bundle(&kg);
        let mut bytes = Vec::new();
        save_snapshot_with_bundle(&kg, &bundle, &mut bytes).unwrap();
        let (kg2, bundle2) = load_snapshot_with_bundle(&bytes).unwrap();
        assert_eq!(kg2, kg);
        assert_eq!(bundle2.as_ref(), Some(&bundle));
        // Saving again from the reloaded pair is byte-identical.
        let mut again = Vec::new();
        save_snapshot_with_bundle(&kg2, &bundle2.unwrap(), &mut again).unwrap();
        assert_eq!(bytes, again);
        // A bare binary snapshot loads with no bundle.
        let mut bare = Vec::new();
        binary::save(&kg, &mut bare).unwrap();
        let (kg3, none) = load_snapshot_with_bundle(&bare).unwrap();
        assert_eq!(kg3, kg);
        assert!(none.is_none());
    }

    /// A trailer built over a different net passes every checksum; the
    /// vector counts are what give it away, in both directions.
    #[test]
    fn mismatched_trailer_is_rejected_not_served() {
        let small = sample_kg();
        let mut big = sample_kg();
        big.add_concept("indoor yoga");
        big.add_item(&["yoga".into(), "mat".into()]);
        let mut concepts_only = sample_kg();
        concepts_only.add_concept("indoor yoga");
        for (kg, trailer_of, section) in [
            (&small, &big, "ACON"),
            (&big, &small, "ACON"),
            (&concepts_only, &big, "AITM"),
        ] {
            let mut bytes = Vec::new();
            save_snapshot_with_bundle(kg, &build_default_bundle(trailer_of), &mut bytes).unwrap();
            match load_snapshot_with_bundle(&bytes) {
                Err(LoadError::Corrupt(got, _)) => assert_eq!(got, section),
                other => panic!("mismatched trailer loaded: {other:?}"),
            }
        }
        let dir = std::env::temp_dir().join(format!("alicoco-ann-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.alcc");
        let mut bytes = Vec::new();
        save_snapshot_with_bundle(&small, &build_default_bundle(&big), &mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_file_with_bundle(&path, &Registry::new()),
            Err(FileLoadError::Load(LoadError::Corrupt("ACON", _)))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A trailer does not change how the header is read: a snapshot of
    /// another version is refused before anything is decoded.
    #[test]
    fn other_versions_are_refused_by_number() {
        let kg = sample_kg();
        let mut bytes = Vec::new();
        save_snapshot_with_bundle(&kg, &build_default_bundle(&kg), &mut bytes).unwrap();
        for version in [0, 1, binary::VERSION + 1, u32::MAX] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match load_snapshot_with_bundle(&bytes) {
                Err(LoadError::Corrupt("header", msg)) => {
                    assert_eq!(msg, format!("unsupported version {version}"));
                }
                other => panic!("version {version} loaded: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn file_loader_records_metrics_and_types_errors() {
        let dir = std::env::temp_dir().join(format!("alicoco-ann-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kg = sample_kg();
        let bundle = build_default_bundle(&kg);
        let mut bytes = Vec::new();
        save_snapshot_with_bundle(&kg, &bundle, &mut bytes).unwrap();
        let path = dir.join("net.alcc");
        std::fs::write(&path, &bytes).unwrap();
        let reg = Registry::new();
        let (kg2, loaded) = load_file_with_bundle(&path, &reg).unwrap();
        assert_eq!(kg2, kg);
        assert_eq!(loaded, Some(bundle));
        assert_eq!(
            reg.counter("snapshot.binary.loaded_bytes").get(),
            bytes.len() as u64
        );
        // A TSV snapshot is sniffed as such and loads without a bundle.
        let tsv = dir.join("net.tsv");
        let mut text = Vec::new();
        alicoco::snapshot::save(&kg, &mut text).unwrap();
        std::fs::write(&tsv, &text).unwrap();
        let (kg3, none) = load_file_with_bundle(&tsv, &reg).unwrap();
        assert_eq!(kg3, kg);
        assert!(none.is_none());
        assert_eq!(
            reg.counter("snapshot.tsv.loaded_bytes").get(),
            text.len() as u64
        );
        assert!(matches!(
            load_file_with_bundle(&dir.join("absent"), &reg),
            Err(FileLoadError::Io(_))
        ));
        let truncated = dir.join("trunc.alcc");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            load_file_with_bundle(&truncated, &reg),
            Err(FileLoadError::Load(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
