//! Storage: the two snapshot codecs behind one [`Store`] trait with
//! format auto-detection, so callers pick a backend by value instead of
//! by call site.
//!
//! The two built-in backends are [`TsvStore`] (the line-oriented
//! canonical-bytes oracle) and [`BinaryStore`] (the compact sectioned
//! format of [`crate::snapshot::binary`]). [`Format::detect`] sniffs the
//! magic bytes, [`store_for`]/[`detect`] hand back a `&'static dyn Store`,
//! and the `*_instrumented` helpers record per-backend
//! `snapshot.{tsv,binary}.*` timings and byte counts into a metrics
//! [`Registry`]. Reading a snapshot *file* is `alicoco-ann`'s
//! `load_file_with_bundle`, the one file loader: only that crate can
//! decode the ANN trailer a binary snapshot may carry. It records its
//! loads through [`timed_load`], as [`load_instrumented`] does, so the
//! load metrics are spelled once.

use alicoco_obs::{Registry, Stopwatch};

use crate::graph::AliCoCo;
use crate::snapshot::{self, binary, tsv, LoadError, SaveError};

/// The snapshot formats the storage layer knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Line-oriented TSV — the canonical-bytes oracle.
    Tsv,
    /// Compact sectioned binary with zero-copy reads.
    Binary,
}

impl Format {
    /// Sniff the format from leading bytes: binary snapshots always start
    /// with the magic; anything else is treated as TSV (whose strict
    /// parser then reports real errors with line numbers).
    pub fn detect(bytes: &[u8]) -> Format {
        if bytes.starts_with(&binary::MAGIC) {
            Format::Binary
        } else {
            Format::Tsv
        }
    }

    /// Short lowercase name, used in metric names and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Format::Tsv => "tsv",
            Format::Binary => "binary",
        }
    }

    /// The other format — what `snapshot convert` converts *to*.
    pub fn other(self) -> Format {
        match self {
            Format::Tsv => Format::Binary,
            Format::Binary => Format::Tsv,
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One section (or TSV record group) of an opened snapshot.
#[derive(Clone, Debug)]
pub struct SectionInfo {
    /// Human-readable section name.
    pub name: String,
    /// Payload bytes.
    pub bytes: u64,
    /// Record count (0 for blob sections like the string arena).
    pub records: u64,
}

/// What [`Store::open`] reports without materializing a graph.
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// Which codec produced the snapshot.
    pub format: Format,
    /// Total snapshot size in bytes.
    pub total_bytes: u64,
    /// Per-section breakdown.
    pub sections: Vec<SectionInfo>,
}

/// A snapshot backend. All methods work on in-memory byte buffers — the
/// caller owns file IO, which keeps backends trivially testable and lets
/// the binary reader stay zero-copy over whatever buffer (read, mmap)
/// the caller produced.
pub trait Store {
    /// The format this backend reads and writes.
    fn format(&self) -> Format;

    /// Serialize a net. Deterministic: equal nets produce equal bytes.
    fn save(&self, kg: &AliCoCo, out: &mut Vec<u8>) -> Result<(), SaveError>;

    /// Deserialize a net, validating everything; malformed input of any
    /// shape is a typed [`LoadError`], never a panic.
    fn load(&self, bytes: &[u8]) -> Result<AliCoCo, LoadError>;

    /// Inspect a snapshot's structure without building the graph.
    fn open(&self, bytes: &[u8]) -> Result<SnapshotInfo, LoadError>;
}

/// The TSV backend.
pub struct TsvStore;

impl Store for TsvStore {
    fn format(&self) -> Format {
        Format::Tsv
    }

    fn save(&self, kg: &AliCoCo, out: &mut Vec<u8>) -> Result<(), SaveError> {
        snapshot::save(kg, out)
    }

    fn load(&self, bytes: &[u8]) -> Result<AliCoCo, LoadError> {
        let mut r = bytes;
        snapshot::load(&mut r)
    }

    fn open(&self, bytes: &[u8]) -> Result<SnapshotInfo, LoadError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| LoadError::Parse(0, "snapshot is not valid UTF-8".to_string()))?;
        // Group lines into pseudo-sections by record type, in canonical
        // stream order, so TSV and binary inspect output line up.
        let mut bytes_by_kind = vec![0u64; tsv::RECORD_KINDS.len()];
        let mut records_by_kind = vec![0u64; tsv::RECORD_KINDS.len()];
        for (ln, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let tag = line.split('\t').next().unwrap_or("");
            let slot = tsv::RECORD_KINDS
                .iter()
                .position(|&k| k == tag)
                .ok_or_else(|| LoadError::Parse(ln, format!("unknown record type {tag:?}")))?;
            if let (Some(b), Some(r)) = (bytes_by_kind.get_mut(slot), records_by_kind.get_mut(slot))
            {
                *b += line.len() as u64 + 1;
                *r += 1;
            }
        }
        let sections = tsv::RECORD_KINDS
            .iter()
            .zip(bytes_by_kind.iter().zip(records_by_kind.iter()))
            .map(|(&name, (&bytes, &records))| SectionInfo {
                name: name.to_string(),
                bytes,
                records,
            })
            .collect();
        Ok(SnapshotInfo {
            format: Format::Tsv,
            total_bytes: bytes.len() as u64,
            sections,
        })
    }
}

/// The binary backend.
pub struct BinaryStore;

impl Store for BinaryStore {
    fn format(&self) -> Format {
        Format::Binary
    }

    fn save(&self, kg: &AliCoCo, out: &mut Vec<u8>) -> Result<(), SaveError> {
        binary::save(kg, out)
    }

    fn load(&self, bytes: &[u8]) -> Result<AliCoCo, LoadError> {
        binary::load(bytes)
    }

    fn open(&self, bytes: &[u8]) -> Result<SnapshotInfo, LoadError> {
        let view = binary::SnapshotView::open(bytes)?;
        let sections = view
            .section_info()?
            .into_iter()
            .map(|(name, bytes, records)| SectionInfo {
                name: name.to_string(),
                bytes,
                records,
            })
            .collect();
        Ok(SnapshotInfo {
            format: Format::Binary,
            total_bytes: bytes.len() as u64,
            sections,
        })
    }
}

/// The backend for a format.
pub fn store_for(format: Format) -> &'static dyn Store {
    match format {
        Format::Tsv => &TsvStore,
        Format::Binary => &BinaryStore,
    }
}

/// The backend for a byte buffer, by magic sniffing.
pub fn detect(bytes: &[u8]) -> &'static dyn Store {
    store_for(Format::detect(bytes))
}

/// [`Store::save`] plus per-backend metrics: `snapshot.<fmt>.save_ns` and
/// `snapshot.<fmt>.saved_bytes`.
pub fn save_instrumented(
    store: &dyn Store,
    kg: &AliCoCo,
    out: &mut Vec<u8>,
    metrics: &Registry,
) -> Result<(), SaveError> {
    let watch = Stopwatch::start();
    let before = out.len();
    store.save(kg, out)?;
    let fmt = store.format().name();
    metrics
        .histogram(&format!("snapshot.{fmt}.save_ns"))
        .record_duration(watch.elapsed());
    metrics
        .counter(&format!("snapshot.{fmt}.saved_bytes"))
        .add((out.len() - before) as u64);
    Ok(())
}

/// [`Store::load`] plus per-backend metrics: `snapshot.<fmt>.load_ns` and
/// `snapshot.<fmt>.loaded_bytes`.
pub fn load_instrumented(
    store: &dyn Store,
    bytes: &[u8],
    metrics: &Registry,
) -> Result<AliCoCo, LoadError> {
    timed_load(store.format(), bytes, metrics, |bytes| store.load(bytes))
}

/// Run `load` over `bytes`, a `format` snapshot, and once it succeeds
/// record `snapshot.<fmt>.load_ns` and `snapshot.<fmt>.loaded_bytes`: the
/// one writer of that family, whichever loader decodes the bytes.
pub fn timed_load<T, E>(
    format: Format,
    bytes: &[u8],
    metrics: &Registry,
    load: impl FnOnce(&[u8]) -> Result<T, E>,
) -> Result<T, E> {
    let watch = Stopwatch::start();
    let loaded = load(bytes)?;
    let fmt = format.name();
    metrics
        .histogram(&format!("snapshot.{fmt}.load_ns"))
        .record_duration(watch.elapsed());
    metrics
        .counter(&format!("snapshot.{fmt}.loaded_bytes"))
        .add(bytes.len() as u64);
    Ok(loaded)
}

/// [`Store::open`] plus metrics: `snapshot.<fmt>.open_ns`.
pub fn open_instrumented(
    store: &dyn Store,
    bytes: &[u8],
    metrics: &Registry,
) -> Result<SnapshotInfo, LoadError> {
    let watch = Stopwatch::start();
    let info = store.open(bytes)?;
    metrics
        .histogram(&format!("snapshot.{}.open_ns", store.format().name()))
        .record_duration(watch.elapsed());
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::test_support::build_sample;
    use crate::stats::Stats;

    fn both() -> [&'static dyn Store; 2] {
        [&TsvStore, &BinaryStore]
    }

    /// The core half of loading a snapshot file: bytes read back from
    /// disk are sniffed to their backend, loaded with per-backend
    /// metrics, and a torn binary file is a typed [`LoadError`]. The
    /// filesystem half (`FileLoadError::Io`) is `alicoco-ann`'s
    /// `load_file_with_bundle` test.
    #[test]
    fn load_file_sniffs_both_formats_and_types_its_errors() {
        let dir = std::env::temp_dir().join(format!("alicoco-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kg = build_sample();
        for store in both() {
            let mut bytes = Vec::new();
            store.save(&kg, &mut bytes).unwrap();
            let path = dir.join(format!("net.{}", store.format().name()));
            std::fs::write(&path, &bytes).unwrap();
            let read = std::fs::read(&path).unwrap();
            let reg = Registry::new();
            let loaded = load_instrumented(detect(&read), &read, &reg).unwrap();
            assert_eq!(loaded, kg);
            assert_eq!(
                reg.counter(&format!("snapshot.{}.loaded_bytes", store.format().name()))
                    .get(),
                bytes.len() as u64
            );
        }
        let garbled = dir.join("garbled");
        std::fs::write(&garbled, {
            let mut b = Vec::new();
            BinaryStore.save(&kg, &mut b).unwrap();
            b.truncate(b.len() / 2);
            b
        })
        .unwrap();
        let read = std::fs::read(&garbled).unwrap();
        assert_eq!(detect(&read).format(), Format::Binary);
        assert!(load_instrumented(detect(&read), &read, &Registry::new()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detection_routes_to_the_right_backend() {
        let kg = build_sample();
        for store in both() {
            let mut bytes = Vec::new();
            store.save(&kg, &mut bytes).unwrap();
            assert_eq!(Format::detect(&bytes), store.format());
            assert_eq!(detect(&bytes).format(), store.format());
        }
        assert_eq!(Format::detect(b""), Format::Tsv);
        assert_eq!(Format::Tsv.other(), Format::Binary);
        assert_eq!(Format::Binary.other(), Format::Tsv);
    }

    #[test]
    fn backends_agree_through_stats() {
        let kg = build_sample();
        let expect = Stats::compute(&kg);
        for store in both() {
            let mut bytes = Vec::new();
            store.save(&kg, &mut bytes).unwrap();
            let loaded = store.load(&bytes).unwrap();
            assert_eq!(Stats::compute(&loaded), expect, "{}", store.format());
        }
    }

    #[test]
    fn backends_agree_on_the_loaded_graph() {
        let kg = build_sample();
        let mut tsv_bytes = Vec::new();
        TsvStore.save(&kg, &mut tsv_bytes).unwrap();
        let mut bin_bytes = Vec::new();
        BinaryStore.save(&kg, &mut bin_bytes).unwrap();
        let from_tsv = TsvStore.load(&tsv_bytes).unwrap();
        let from_bin = BinaryStore.load(&bin_bytes).unwrap();
        assert_eq!(from_tsv, from_bin);
        assert_eq!(from_bin, kg);
    }

    #[test]
    fn open_reports_sections_without_loading() {
        let kg = build_sample();
        for store in both() {
            let mut bytes = Vec::new();
            store.save(&kg, &mut bytes).unwrap();
            let info = store.open(&bytes).unwrap();
            assert_eq!(info.format, store.format());
            assert_eq!(info.total_bytes, bytes.len() as u64);
            assert!(!info.sections.is_empty());
            let records: u64 = info.sections.iter().map(|s| s.records).sum();
            assert!(records > 0, "{}", store.format());
        }
        // TSV open groups by record kind and counts each line once.
        let mut bytes = Vec::new();
        TsvStore.save(&kg, &mut bytes).unwrap();
        let info = TsvStore.open(&bytes).unwrap();
        let lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(info.sections.iter().map(|s| s.records).sum::<u64>(), lines);
        assert_eq!(
            info.sections.iter().map(|s| s.bytes).sum::<u64>(),
            bytes.len() as u64
        );
    }

    #[test]
    fn instrumented_helpers_record_per_backend_metrics() {
        let kg = build_sample();
        let reg = Registry::new();
        for store in both() {
            let mut bytes = Vec::new();
            save_instrumented(store, &kg, &mut bytes, &reg).unwrap();
            let loaded = load_instrumented(store, &bytes, &reg).unwrap();
            assert_eq!(loaded, kg);
            open_instrumented(store, &bytes, &reg).unwrap();
            let fmt = store.format().name();
            assert_eq!(reg.histogram(&format!("snapshot.{fmt}.save_ns")).count(), 1);
            assert_eq!(reg.histogram(&format!("snapshot.{fmt}.load_ns")).count(), 1);
            assert_eq!(reg.histogram(&format!("snapshot.{fmt}.open_ns")).count(), 1);
            assert_eq!(
                reg.counter(&format!("snapshot.{fmt}.saved_bytes")).get(),
                bytes.len() as u64
            );
            assert_eq!(
                reg.counter(&format!("snapshot.{fmt}.loaded_bytes")).get(),
                bytes.len() as u64
            );
        }
    }
}
