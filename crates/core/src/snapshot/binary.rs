//! The compact binary snapshot codec: a sectioned, checksummed container
//! whose reader borrows every string and record slice straight out of one
//! loaded byte buffer (mmap-style), so a cold process reaches "serving"
//! without re-parsing and re-allocating per record.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   magic "ALCC" · version u32 · section_count u32        (12 B)
//! table    per section: tag [u8;4] · offset u64 · len u64
//!          · FNV-1a-64 checksum u64                              (28 B each)
//! payload  the sections themselves, contiguous, in table order,
//!          last one ending exactly at EOF
//! ```
//!
//! Sections, in their fixed order:
//!
//! | tag    | content                                                      |
//! |--------|--------------------------------------------------------------|
//! | `STRA` | string arena: every name/title/token, UTF-8, deduplicated    |
//! | `CLAS` | count u32, then per class `off u32 · len u32 · parent u32`   |
//! | `PRIM` | count u32, then per primitive `off · len · class`            |
//! | `CONC` | count u32, then per concept `off · len`                      |
//! | `ITEM` | count u32, then per item `off · len` (space-joined title)    |
//! | `PPIA` | per primitive: varint degree, zigzag-varint id deltas        |
//! | `CCIA` | per concept: hypernym list, same coding                      |
//! | `CPRI` | per concept: interpreting-primitive list                     |
//! | `CITM` | per concept: varint degree, then per edge zigzag item delta  |
//! |        | followed by the f32 weight bits                              |
//! | `IPRI` | per item: property-primitive list                            |
//! | `SCHM` | count u32, then per relation `off · len · from u32 · to u32` |
//! | `PREL` | same, between primitives                                     |
//!
//! `parent` uses `u32::MAX` as "none". String references are
//! `offset/len` pairs into the arena. Every section is integrity-checked
//! at [`SnapshotView::open`]; varint-coded sections are additionally
//! validated (id ranges, weight domain, buffer-capped degrees) as they
//! are decoded, so corrupt input of any shape yields a typed
//! [`LoadError`] instead of a panic or an unbounded allocation.

use std::io;

use super::{check_name, LoadError, SaveError};
use crate::columns::{str_hash, ConceptColumns, IdTable, ItemColumns};
use crate::graph::{AliCoCo, ClassNode, PrimitiveNode, PrimitiveRelation, SchemaRelation};
use crate::ids::{ClassId, ConceptId, ItemId, PrimitiveId};
use crate::par;

/// First four bytes of every binary snapshot — what format auto-detection
/// keys on.
pub const MAGIC: [u8; 4] = *b"ALCC";
/// Format version the codec reads and writes. Version 1 also stored token
/// postings; no reader loads them, so version 2 dropped them.
pub const VERSION: u32 = 2;

const HEADER_LEN: usize = 12;
const TABLE_ENTRY_LEN: usize = 28;

/// `(tag, human name)` of every section, in their one fixed file order.
const SECTIONS: &[(&[u8; 4], &str)] = &[
    (b"STRA", "string arena"),
    (b"CLAS", "classes"),
    (b"PRIM", "primitives"),
    (b"CONC", "concepts"),
    (b"ITEM", "items"),
    (b"PPIA", "primitive-isA"),
    (b"CCIA", "concept-isA"),
    (b"CPRI", "concept-primitive"),
    (b"CITM", "concept-item"),
    (b"IPRI", "item-primitive"),
    (b"SCHM", "schema relations"),
    (b"PREL", "primitive relations"),
];

/// `(tag, human name)` of the optional ANN trailer sections, in order.
/// A snapshot carries either none of them (the bare 12-section layout,
/// bytes unchanged from before ANN existed) or all three. Their payloads
/// are opaque to this codec — the `alicoco-ann` crate defines and
/// validates the formats — but they get the same table/checksum/bounds
/// treatment as every other section, so truncation and bitflips are
/// detected at [`SnapshotView::open`] without core knowing the contents.
const ANN_SECTIONS: &[(&[u8; 4], &str)] = &[
    (b"AVOC", "ann vocab"),
    (b"ACON", "ann concepts"),
    (b"AITM", "ann items"),
];

/// The three opaque ANN payloads a snapshot can carry as trailer
/// sections: the query-embedding vocab and the two vector indexes.
#[derive(Clone, Copy, Debug)]
pub struct AnnPayload<'a> {
    /// `AVOC` — token → embedding table bytes.
    pub vocab: &'a [u8],
    /// `ACON` — concept vector index bytes.
    pub concepts: &'a [u8],
    /// `AITM` — item vector index bytes.
    pub items: &'a [u8],
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum of every payload, in order, computed on two cores: the
/// payloads are split where their bytes are most nearly halved (a
/// checksum is a chain through its section, so no finer split exists).
fn checksums(payloads: &[&[u8]]) -> Vec<u64> {
    let total: usize = payloads.iter().map(|p| p.len()).sum();
    let mut split = 0;
    let mut before = 0;
    for p in payloads {
        // Past this payload the first group would hold more than the
        // second: the split goes before or after it, whichever is closer.
        if 2 * (before + p.len()) > total {
            if total - 2 * before > 2 * (before + p.len()) - total {
                split += 1;
            }
            break;
        }
        before += p.len();
        split += 1;
    }
    let (first, second) = payloads.split_at(split.min(payloads.len()));
    let sums = |group: &[&[u8]]| group.iter().map(|p| fnv1a64(p)).collect::<Vec<_>>();
    let (mut first, second) = par::join(|| sums(first), || sums(second));
    first.extend(second);
    first
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn corrupt(section: &'static str, msg: impl Into<String>) -> LoadError {
    LoadError::Corrupt(section, msg.into())
}

// ---- writer ----------------------------------------------------------------

/// Deduplicating string arena builder. Interning order is deterministic
/// (first use wins), which is part of what makes re-saves byte-identical.
/// The dedup table keys on the arena's own bytes, so interning allocates
/// nothing per string: a new string is appended, looked up as the arena's
/// tail, and either kept or cut off again.
#[derive(Default)]
struct Arena {
    bytes: Vec<u8>,
    /// `(offset, len)` of every distinct string in the dedup table, in
    /// interning order.
    refs: Vec<(u32, u32)>,
    /// Indices into `refs`, keyed by content.
    seen: IdTable,
}

/// Where a string that is not in the arena's dedup table may already be:
/// the reference of an earlier copy of the given bytes, if there is one.
type Known<'a> = &'a dyn Fn(&[u8]) -> Option<(u32, u32)>;

/// [`Known`] for a section interned before any concept: nothing.
fn nothing(_: &[u8]) -> Option<(u32, u32)> {
    None
}

impl Arena {
    /// Intern `s`. With `register` false, a new string is appended but not
    /// entered into the dedup table: the caller promises no later string
    /// that is not resolved by a [`Known`] repeats it.
    fn intern(
        &mut self,
        s: &str,
        known: Known<'_>,
        register: bool,
    ) -> Result<(u32, u32), SaveError> {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(s.as_bytes());
        self.keep_tail(start, known, register)
    }

    /// Intern tokens joined by single spaces (an item title) without
    /// building the joined string.
    fn intern_joined(
        &mut self,
        tokens: &[String],
        known: Known<'_>,
    ) -> Result<(u32, u32), SaveError> {
        let start = self.bytes.len();
        for (i, tok) in tokens.iter().enumerate() {
            if i > 0 {
                self.bytes.push(b' ');
            }
            self.bytes.extend_from_slice(tok.as_bytes());
        }
        self.keep_tail(start, known, true)
    }

    /// The bytes from `start` to the end were just appended: return the
    /// reference of an earlier copy (dropping the new one) found in the
    /// dedup table or by `known`, or keep them as a new string.
    fn keep_tail(
        &mut self,
        start: usize,
        known: Known<'_>,
        register: bool,
    ) -> Result<(u32, u32), SaveError> {
        let Arena { bytes, refs, seen } = self;
        let text = |(off, len): (u32, u32)| {
            bytes
                .get(off as usize..off as usize + len as usize)
                .unwrap_or(&[])
        };
        let tail = bytes.get(start..).unwrap_or(&[]);
        let hash = str_hash(tail);
        let same = |i: u32| refs.get(i as usize).is_some_and(|&r| text(r) == tail);
        let earlier = seen
            .find(hash, same)
            .and_then(|i| refs.get(i as usize).copied())
            .or_else(|| known(tail));
        if let Some(r) = earlier {
            bytes.truncate(start);
            return Ok(r);
        }
        if bytes.len() > u32::MAX as usize {
            return Err(SaveError::Io(io::Error::other(
                "string arena exceeds 4 GiB",
            )));
        }
        let r = (start as u32, (bytes.len() - start) as u32);
        if register {
            let id = count_u32(refs.len(), "string")?;
            refs.push(r);
            seen.insert(
                hash,
                id,
                |_| false,
                |i| str_hash(refs.get(i as usize).map_or(&[], |&r| text(r))),
            );
        }
        Ok(r)
    }
}

fn count_u32(n: usize, what: &str) -> Result<u32, SaveError> {
    u32::try_from(n)
        .map_err(|_| SaveError::Io(io::Error::other(format!("{what} count exceeds u32"))))
}

/// A fixed-stride section with room for `n` records of `stride` bytes,
/// its count already written.
fn fixed_section(n: usize, stride: usize, what: &str) -> Result<Vec<u8>, SaveError> {
    let count = count_u32(n, what)?;
    let mut sec = Vec::with_capacity(4 + n * stride);
    sec.extend_from_slice(&count.to_le_bytes());
    Ok(sec)
}

fn push_str_ref(sec: &mut Vec<u8>, (off, len): (u32, u32)) {
    sec.extend_from_slice(&off.to_le_bytes());
    sec.extend_from_slice(&len.to_le_bytes());
}

fn encode_deltas(sec: &mut Vec<u8>, ids: &mut dyn ExactSizeIterator<Item = usize>) {
    write_varint(sec, ids.len() as u64);
    let mut prev = 0i64;
    for id in ids {
        let v = id as i64;
        write_varint(sec, zigzag(v - prev));
        prev = v;
    }
}

/// The sections interned before the item layer: the arena so far and the
/// `CLAS`, `PRIM` and `CONC` records that point into it.
struct Head {
    arena: Arena,
    clas: Vec<u8>,
    prim: Vec<u8>,
    conc: Vec<u8>,
}

/// Intern class, primitive and concept names. With `distinct` the caller
/// vouches that no two concepts share a name, so a concept name is looked
/// up among class and primitive names only — a table that stays in cache
/// — and is not entered into it; later strings find concept names through
/// the net's own name index instead (see [`intern_tail`]). The arena is
/// the same either way.
fn intern_head(kg: &AliCoCo, distinct: bool) -> Result<Head, SaveError> {
    let mut arena = Arena::default();
    let mut clas = fixed_section(kg.num_classes(), 12, "class")?;
    for id in kg.class_ids() {
        let c = kg.class(id);
        let name = check_name("class", &c.name)?;
        push_str_ref(&mut clas, arena.intern(name, &nothing, true)?);
        let parent = c.parent.map_or(u32::MAX, |p| p.index() as u32);
        clas.extend_from_slice(&parent.to_le_bytes());
    }
    let mut prim = fixed_section(kg.num_primitives(), 12, "primitive")?;
    for id in kg.primitive_ids() {
        let p = kg.primitive(id);
        let name = check_name("primitive", &p.name)?;
        push_str_ref(&mut prim, arena.intern(name, &nothing, true)?);
        prim.extend_from_slice(&(p.class.index() as u32).to_le_bytes());
    }
    let mut conc = fixed_section(kg.num_concepts(), 8, "concept")?;
    for id in kg.concept_ids() {
        let name = check_name("concept", kg.concept(id).name)?;
        push_str_ref(&mut conc, arena.intern(name, &nothing, !distinct)?);
    }
    Ok(Head {
        arena,
        clas,
        prim,
        conc,
    })
}

/// Intern item titles, schema and relation names after `head`: the
/// `ITEM`, `SCHM` and `PREL` sections. `concepts` holds the concept layer
/// when [`intern_head`] left concept names out of the dedup table, so a
/// string equal to a concept name takes that concept's `CONC` record.
fn intern_tail(
    head: &mut Head,
    kg: &AliCoCo,
    concepts: Option<&ConceptColumns>,
) -> Result<[Vec<u8>; 3], SaveError> {
    let Head { arena, conc, .. } = head;
    let concept_ref = |name: &[u8]| {
        let c = concepts?.find_bytes(name)?.index();
        let entry = conc.get(4 + 8 * c..)?;
        Some((u32_at(entry, 0), u32_at(entry, 4)))
    };
    let mut item = fixed_section(kg.num_items(), 8, "item")?;
    for id in kg.item_ids() {
        let title = &kg.item(id).title;
        if title.iter().any(|t| check_name("item title", t).is_err()) {
            check_name("item title", &title.join(" "))?;
        }
        push_str_ref(&mut item, arena.intern_joined(title, &concept_ref)?);
    }
    let mut schm = fixed_section(kg.schema().len(), 16, "schema relation")?;
    for s in kg.schema() {
        let name = check_name("schema relation", &s.name)?;
        push_str_ref(&mut schm, arena.intern(name, &concept_ref, true)?);
        schm.extend_from_slice(&(s.from.index() as u32).to_le_bytes());
        schm.extend_from_slice(&(s.to.index() as u32).to_le_bytes());
    }
    let relations = kg.primitive_relations();
    let mut prel = fixed_section(relations.len(), 16, "primitive relation")?;
    for r in relations {
        let name = check_name("primitive relation", &r.name)?;
        push_str_ref(&mut prel, arena.intern(name, &concept_ref, true)?);
        prel.extend_from_slice(&(r.from.index() as u32).to_le_bytes());
        prel.extend_from_slice(&(r.to.index() as u32).to_le_bytes());
    }
    Ok([item, schm, prel])
}

/// The five varint edge sections, in file order: `PPIA`, `CCIA`, `CPRI`,
/// `CITM`, `IPRI`. They hold no strings, so they encode beside the arena.
fn encode_edges(kg: &AliCoCo) -> [Vec<u8>; 5] {
    let mut ppia = Vec::new();
    for id in kg.primitive_ids() {
        let hypernyms = &kg.primitive(id).hypernyms;
        encode_deltas(&mut ppia, &mut hypernyms.iter().map(|h| h.index()));
    }
    let mut ccia = Vec::new();
    let mut cpri = Vec::new();
    let mut citm = Vec::new();
    for id in kg.concept_ids() {
        let c = kg.concept(id);
        encode_deltas(&mut ccia, &mut c.hypernyms.iter().map(|h| h.index()));
        encode_deltas(&mut cpri, &mut c.primitives.iter().map(|p| p.index()));
        write_varint(&mut citm, c.items.len() as u64);
        let mut prev = 0i64;
        for &(i, w) in c.items {
            let v = i.index() as i64;
            write_varint(&mut citm, zigzag(v - prev));
            prev = v;
            citm.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut ipri = Vec::new();
    for id in kg.item_ids() {
        let primitives = &kg.item(id).primitives;
        encode_deltas(&mut ipri, &mut primitives.iter().map(|p| p.index()));
    }
    [ppia, ccia, cpri, citm, ipri]
}

/// Serialize a net into `out` as one binary snapshot. Output is deterministic: the same net
/// always produces the same bytes.
pub fn save(kg: &AliCoCo, out: &mut Vec<u8>) -> Result<(), SaveError> {
    save_with_ann(kg, None, out)
}

/// [`save`], optionally appending the three ANN trailer sections.
/// `save_with_ann(kg, None, out)` is byte-identical to the pre-ANN
/// format, so bare snapshots round-trip unchanged.
///
/// Two cores share the work: one interns the strings while the other
/// encodes the edge sections and learns whether concept names are
/// distinct, then both compute checksums. A net whose concept names
/// repeat (only a crafted snapshot decodes to one) is interned again with
/// every concept name in the dedup table, so its bytes do not change
/// either.
pub fn save_with_ann(
    kg: &AliCoCo,
    ann: Option<AnnPayload<'_>>,
    out: &mut Vec<u8>,
) -> Result<(), SaveError> {
    let (head, (distinct, edges)) = par::join(
        || intern_head(kg, true),
        || (kg.concept_layer().names_distinct(), encode_edges(kg)),
    );
    let mut head = if distinct {
        head?
    } else {
        intern_head(kg, false)?
    };
    let [item, schm, prel] = intern_tail(&mut head, kg, distinct.then(|| kg.concept_layer()))?;
    let [ppia, ccia, cpri, citm, ipri] = edges;
    let Head {
        arena,
        clas,
        prim,
        conc,
    } = head;
    let sections: [Vec<u8>; 12] = [
        arena.bytes,
        clas,
        prim,
        conc,
        item,
        ppia,
        ccia,
        cpri,
        citm,
        ipri,
        schm,
        prel,
    ];
    let mut table: Vec<(&[u8; 4], &[u8])> = SECTIONS
        .iter()
        .zip(&sections)
        .map(|((tag, _), payload)| (*tag, payload.as_slice()))
        .collect();
    if let Some(a) = ann {
        table.push((b"AVOC", a.vocab));
        table.push((b"ACON", a.concepts));
        table.push((b"AITM", a.items));
    }
    let payloads: Vec<&[u8]> = table.iter().map(|&(_, payload)| payload).collect();
    let sums = checksums(&payloads);
    let head_len = HEADER_LEN + table.len() * TABLE_ENTRY_LEN;
    out.reserve(head_len + payloads.iter().map(|p| p.len()).sum::<usize>());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    let mut offset = head_len as u64;
    for ((tag, payload), sum) in table.iter().zip(&sums) {
        out.extend_from_slice(*tag);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
        offset += payload.len() as u64;
    }
    for payload in payloads {
        out.extend_from_slice(payload);
    }
    Ok(())
}

// ---- reader ----------------------------------------------------------------

/// Total little-endian u32 read for post-validation accessors: entries were
/// bounds-checked at [`SnapshotView::open`], so the fallback is unreachable.
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    bytes
        .get(off..off + 4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map(u32::from_le_bytes)
        .unwrap_or(0)
}

fn u64_at(bytes: &[u8], off: usize, section: &'static str) -> Result<u64, LoadError> {
    bytes
        .get(off..off + 8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| corrupt(section, "truncated integer"))
}

/// A fixed-stride node section: a u32 count followed by `count` equal-size
/// entries.
#[derive(Clone, Copy)]
struct FixedSection<'a> {
    entries: &'a [u8],
    stride: usize,
    count: usize,
}

impl<'a> FixedSection<'a> {
    fn parse(sec: &'a [u8], stride: usize, name: &'static str) -> Result<Self, LoadError> {
        let count = sec
            .get(..4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes)
            .ok_or_else(|| corrupt(name, "section shorter than its count"))?
            as usize;
        let entries = sec.get(4..).unwrap_or(&[]);
        // The count is validated against the actual section length before
        // anything is allocated from it.
        if count.checked_mul(stride) != Some(entries.len()) {
            return Err(corrupt(name, "count does not match section length"));
        }
        Ok(Self {
            entries,
            stride,
            count,
        })
    }

    fn entry(&self, i: usize) -> &'a [u8] {
        self.entries
            .get(i * self.stride..(i + 1) * self.stride)
            .unwrap_or(&[])
    }
}

/// The one sequential bounded reader over a snapshot payload: the varint
/// edge sections here and the fixed-width little-endian ANN payloads
/// (`alicoco-ann`'s `Hnsw::decode` and `AnnBundle::decode`). Every read is
/// checked against the bytes left, and every failure is a
/// [`LoadError::Corrupt`] naming the reader's section.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`, reporting errors as `section`'s.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    /// A [`LoadError::Corrupt`] for this reader's section.
    pub fn corrupt(&self, msg: impl Into<String>) -> LoadError {
        corrupt(self.section, msg)
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], LoadError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + N)
            .and_then(|b| <[u8; N]>::try_from(b).ok())
            .ok_or_else(|| self.corrupt("truncated integer"))?;
        self.pos += N;
        Ok(bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// A little-endian `f32`.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, LoadError> {
        Ok(f32::from_le_bytes(self.take()?))
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let out = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| self.corrupt("truncated payload"))?;
        self.pos += n;
        Ok(out)
    }

    fn varint(&mut self) -> Result<u64, LoadError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| corrupt(self.section, "truncated varint"))?;
            self.pos += 1;
            if shift == 63 && (b & 0x7e) != 0 {
                return Err(corrupt(self.section, "varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(corrupt(self.section, "varint overflows u64"));
            }
        }
    }

    /// A varint degree, capped against the bytes actually left in the
    /// section (every encoded entry takes at least one byte), so a
    /// corrupted length can never drive an oversized allocation.
    fn degree(&mut self) -> Result<usize, LoadError> {
        let deg = self.varint()?;
        if deg > self.remaining() as u64 {
            return Err(corrupt(self.section, "degree exceeds section size"));
        }
        Ok(deg as usize)
    }

    /// One zigzag-delta-coded id list, every id checked against `n`,
    /// appended to `out` as `id(index)`.
    fn ids_into<T>(
        &mut self,
        n: usize,
        out: &mut Vec<T>,
        id: impl Fn(usize) -> T,
    ) -> Result<(), LoadError> {
        let deg = self.degree()?;
        out.reserve(deg);
        let mut prev = 0i64;
        for _ in 0..deg {
            prev = self.next_id(prev, n)?;
            out.push(id(prev as usize));
        }
        Ok(())
    }

    /// The id after `prev` in a zigzag-delta-coded list, checked against `n`.
    fn next_id(&mut self, prev: i64, n: usize) -> Result<i64, LoadError> {
        let delta = unzigzag(self.varint()?);
        let id = prev
            .checked_add(delta)
            .ok_or_else(|| corrupt(self.section, "id delta overflows"))?;
        if id < 0 || id >= n as i64 {
            return Err(corrupt(self.section, "id out of range"));
        }
        Ok(id)
    }

    /// One id list with an f32 weight per entry (the `CITM` coding),
    /// appended to `out`; weights must be finite probabilities.
    fn weighted_into(&mut self, n: usize, out: &mut Vec<(ItemId, f32)>) -> Result<(), LoadError> {
        let deg = self.degree()?;
        out.reserve(deg);
        let mut prev = 0i64;
        for _ in 0..deg {
            prev = self.next_id(prev, n)?;
            let bytes = self
                .buf
                .get(self.pos..self.pos + 4)
                .and_then(|b| <[u8; 4]>::try_from(b).ok())
                .ok_or_else(|| corrupt(self.section, "truncated weight"))?;
            self.pos += 4;
            let w = f32::from_le_bytes(bytes);
            if !w.is_finite() || !(0.0..=1.0).contains(&w) {
                return Err(corrupt(self.section, "weight must be a probability"));
            }
            out.push((ItemId::from_index(prev as usize), w));
        }
        Ok(())
    }

    /// Skip one list, returning its degree (used for record counting).
    fn skip_list(&mut self, weighted: bool) -> Result<u64, LoadError> {
        let deg = self.degree()?;
        for _ in 0..deg {
            self.varint()?;
            if weighted {
                if self.remaining() < 4 {
                    return Err(corrupt(self.section, "truncated weight"));
                }
                self.pos += 4;
            }
        }
        Ok(deg as u64)
    }

    /// Fail unless every byte has been read.
    pub fn expect_end(&self) -> Result<(), LoadError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(self.section, "trailing bytes in section"));
        }
        Ok(())
    }
}

/// A zero-copy view over a binary snapshot buffer: all strings are `&str`
/// borrows into the file's string arena. [`open`](Self::open) verifies the
/// header, the section table (tags, contiguity, bounds), every section
/// checksum, arena UTF-8 validity, and every fixed-stride record, so the
/// accessors after it are total.
pub struct SnapshotView<'a> {
    arena: &'a str,
    classes: FixedSection<'a>,
    primitives: FixedSection<'a>,
    concepts: FixedSection<'a>,
    items: FixedSection<'a>,
    ppia: &'a [u8],
    ccia: &'a [u8],
    cpri: &'a [u8],
    citm: &'a [u8],
    ipri: &'a [u8],
    schema: FixedSection<'a>,
    relations: FixedSection<'a>,
    /// The three opaque ANN trailer payloads, when the snapshot carries
    /// them (checksummed and bounds-checked like every other section).
    ann: Option<[&'a [u8]; 3]>,
}

impl<'a> SnapshotView<'a> {
    /// Open and integrity-check a snapshot buffer without materializing a
    /// graph.
    pub fn open(bytes: &'a [u8]) -> Result<Self, LoadError> {
        let header = bytes
            .get(..HEADER_LEN)
            .ok_or_else(|| corrupt("header", "file shorter than header"))?;
        if header.get(..4) != Some(&MAGIC[..]) {
            return Err(corrupt("header", "bad magic"));
        }
        let version = u32_at(header, 4);
        if version != VERSION {
            return Err(corrupt("header", format!("unsupported version {version}")));
        }
        let section_count = u32_at(header, 8) as usize;
        let with_ann = section_count == SECTIONS.len() + ANN_SECTIONS.len();
        if section_count != SECTIONS.len() && !with_ann {
            return Err(corrupt("header", "wrong section count"));
        }
        let expected_tags = SECTIONS
            .iter()
            .chain(if with_ann { ANN_SECTIONS } else { &[] })
            .copied();
        let mut payloads: Vec<&'a [u8]> = Vec::with_capacity(section_count);
        let mut sums = Vec::with_capacity(section_count);
        let mut expected = HEADER_LEN + section_count * TABLE_ENTRY_LEN;
        let mut table_fault = None;
        for (i, (tag, name)) in expected_tags.enumerate() {
            match table_entry(bytes, i, tag, name, expected) {
                Ok((payload, sum)) => {
                    payloads.push(payload);
                    sums.push(sum);
                    expected += payload.len();
                }
                Err(e) => {
                    table_fault = Some(e);
                    break;
                }
            }
        }
        // Every section framed before the first table fault is checked
        // first, so the fault reported is the first in file order.
        let actual = checksums(&payloads);
        if let Some(i) = (0..sums.len()).find(|&i| actual.get(i) != sums.get(i)) {
            return Err(corrupt(name_of(i), "checksum mismatch"));
        }
        if let Some(e) = table_fault {
            return Err(e);
        }
        if expected != bytes.len() {
            return Err(corrupt(
                "section table",
                "trailing bytes after last section",
            ));
        }
        let ann: Option<[&'a [u8]; 3]> = if with_ann {
            let mut tail = payloads.split_off(SECTIONS.len());
            let items = tail.pop().unwrap_or(&[]);
            let concepts = tail.pop().unwrap_or(&[]);
            let vocab = tail.pop().unwrap_or(&[]);
            Some([vocab, concepts, items])
        } else {
            None
        };
        let [stra, clas, prim, conc, item, ppia, ccia, cpri, citm, ipri, schm, prel]: [&'a [u8];
            12] = payloads
            .try_into()
            .map_err(|_| corrupt("section table", "wrong section count"))?;
        let arena =
            std::str::from_utf8(stra).map_err(|_| corrupt("string arena", "invalid UTF-8"))?;
        let view = SnapshotView {
            arena,
            classes: FixedSection::parse(clas, 12, "classes")?,
            primitives: FixedSection::parse(prim, 12, "primitives")?,
            concepts: FixedSection::parse(conc, 8, "concepts")?,
            items: FixedSection::parse(item, 8, "items")?,
            ppia,
            ccia,
            cpri,
            citm,
            ipri,
            schema: FixedSection::parse(schm, 16, "schema relations")?,
            relations: FixedSection::parse(prel, 16, "primitive relations")?,
            ann,
        };
        view.validate_fixed()?;
        Ok(view)
    }

    /// Range- and boundary-check every fixed-stride record so the plain
    /// accessors are total afterwards.
    fn validate_fixed(&self) -> Result<(), LoadError> {
        let check_str = |entry: &[u8], section: &'static str| -> Result<(), LoadError> {
            let off = u32_at(entry, 0) as usize;
            let len = u32_at(entry, 4) as usize;
            if self.arena.get(off..off + len).is_none() {
                return Err(corrupt(
                    section,
                    "string ref out of bounds or splits a UTF-8 character",
                ));
            }
            Ok(())
        };
        for i in 0..self.classes.count {
            let e = self.classes.entry(i);
            check_str(e, "classes")?;
            let parent = u32_at(e, 8);
            if parent != u32::MAX && parent as usize >= self.classes.count {
                return Err(corrupt("classes", "parent out of range"));
            }
        }
        for i in 0..self.primitives.count {
            let e = self.primitives.entry(i);
            check_str(e, "primitives")?;
            if u32_at(e, 8) as usize >= self.classes.count {
                return Err(corrupt("primitives", "class out of range"));
            }
        }
        for i in 0..self.concepts.count {
            check_str(self.concepts.entry(i), "concepts")?;
        }
        for i in 0..self.items.count {
            check_str(self.items.entry(i), "items")?;
        }
        for i in 0..self.schema.count {
            let e = self.schema.entry(i);
            check_str(e, "schema relations")?;
            if u32_at(e, 8) as usize >= self.classes.count
                || u32_at(e, 12) as usize >= self.classes.count
            {
                return Err(corrupt("schema relations", "class out of range"));
            }
        }
        for i in 0..self.relations.count {
            let e = self.relations.entry(i);
            check_str(e, "primitive relations")?;
            if u32_at(e, 8) as usize >= self.primitives.count
                || u32_at(e, 12) as usize >= self.primitives.count
            {
                return Err(corrupt("primitive relations", "primitive out of range"));
            }
        }
        Ok(())
    }

    fn str_at(&self, entry: &[u8]) -> &'a str {
        let off = u32_at(entry, 0) as usize;
        let len = u32_at(entry, 4) as usize;
        self.arena.get(off..off + len).unwrap_or("")
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.count
    }

    /// Number of primitives.
    pub fn num_primitives(&self) -> usize {
        self.primitives.count
    }

    /// Number of concepts.
    pub fn num_concepts(&self) -> usize {
        self.concepts.count
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.items.count
    }

    /// Class name, borrowed from the arena.
    pub fn class_name(&self, i: usize) -> &'a str {
        self.str_at(self.classes.entry(i))
    }

    /// Class parent, if any.
    pub fn class_parent(&self, i: usize) -> Option<usize> {
        match u32_at(self.classes.entry(i), 8) {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }

    /// Primitive surface form, borrowed from the arena.
    pub fn primitive_name(&self, i: usize) -> &'a str {
        self.str_at(self.primitives.entry(i))
    }

    /// Primitive class index.
    pub fn primitive_class(&self, i: usize) -> usize {
        u32_at(self.primitives.entry(i), 8) as usize
    }

    /// Concept surface form, borrowed from the arena.
    pub fn concept_name(&self, i: usize) -> &'a str {
        self.str_at(self.concepts.entry(i))
    }

    /// Space-joined item title, borrowed from the arena.
    pub fn item_title(&self, i: usize) -> &'a str {
        self.str_at(self.items.entry(i))
    }

    /// The three opaque ANN trailer payloads `(vocab, concepts, items)`,
    /// borrowed zero-copy from the buffer, when the snapshot carries
    /// them. Checksums and bounds were verified at [`open`](Self::open);
    /// the payload *contents* are decoded and validated by the
    /// `alicoco-ann` crate, which owns their format.
    pub fn ann(&self) -> Option<(&'a [u8], &'a [u8], &'a [u8])> {
        self.ann.map(|[v, c, i]| (v, c, i))
    }

    /// Materialize the full owned graph via the bulk constructor. Varint
    /// sections are validated here (id ranges, weight domain, exact
    /// section consumption).
    ///
    /// The concept and item layers decode from disjoint sections, one on
    /// each of two cores. Of several corrupt sections, the one reported is
    /// the one a single-threaded decode meets first: primitives, then the
    /// concept layer, then the item layer.
    pub fn to_graph(&self) -> Result<AliCoCo, LoadError> {
        let n_class = self.classes.count;
        let n_prim = self.primitives.count;
        let mut classes = Vec::with_capacity(n_class);
        for i in 0..n_class {
            classes.push(ClassNode {
                name: self.class_name(i).to_string(),
                parent: self.class_parent(i).map(ClassId::from_index),
                children: Vec::new(),
            });
        }
        let mut prim_isa = Cursor::new(self.ppia, "primitive-isA");
        let mut primitives = Vec::with_capacity(n_prim);
        for i in 0..n_prim {
            let mut hypernyms = Vec::new();
            prim_isa.ids_into(n_prim, &mut hypernyms, PrimitiveId::from_index)?;
            primitives.push(PrimitiveNode {
                name: self.primitive_name(i).to_string(),
                class: ClassId::from_index(self.primitive_class(i)),
                hypernyms,
                hyponyms: Vec::new(),
            });
        }
        prim_isa.expect_end()?;
        let (concepts, items) = par::join(|| self.concept_layer(), || self.item_layer());
        let (concepts, items) = (concepts?, items?);
        let schema = (0..self.schema.count)
            .map(|i| {
                let e = self.schema.entry(i);
                SchemaRelation {
                    name: self.str_at(e).to_string(),
                    from: ClassId::from_index(u32_at(e, 8) as usize),
                    to: ClassId::from_index(u32_at(e, 12) as usize),
                }
            })
            .collect();
        let relations = (0..self.relations.count)
            .map(|i| {
                let e = self.relations.entry(i);
                PrimitiveRelation {
                    name: self.str_at(e).to_string(),
                    from: PrimitiveId::from_index(u32_at(e, 8) as usize),
                    to: PrimitiveId::from_index(u32_at(e, 12) as usize),
                }
            })
            .collect();
        Ok(AliCoCo::from_parts(
            classes, primitives, concepts, items, schema, relations,
        ))
    }

    /// Decode the concept layer: `CONC`, `CCIA`, `CPRI` and `CITM`.
    fn concept_layer(&self) -> Result<ConceptColumns, LoadError> {
        let n_prim = self.primitives.count;
        let n_conc = self.concepts.count;
        let n_item = self.items.count;
        // The concept layer is columns: names into one string, each edge
        // kind into one buffer — nothing allocated per concept.
        let name_bytes = (0..n_conc).map(|i| self.concept_name(i).len()).sum();
        let mut concepts = ConceptColumns::with_capacity(n_conc, name_bytes);
        let mut isa = Cursor::new(self.ccia, "concept-isA");
        let mut interp = Cursor::new(self.cpri, "concept-primitive");
        let mut sugg = Cursor::new(self.citm, "concept-item");
        for i in 0..n_conc {
            concepts.push_name(self.concept_name(i));
            concepts
                .hypernyms
                .push_list(|out| isa.ids_into(n_conc, out, ConceptId::from_index))?;
            concepts
                .primitives
                .push_list(|out| interp.ids_into(n_prim, out, PrimitiveId::from_index))?;
            concepts
                .items
                .push_list(|out| sugg.weighted_into(n_item, out))?;
        }
        isa.expect_end()?;
        interp.expect_end()?;
        sugg.expect_end()?;
        Ok(concepts)
    }

    /// Decode the item layer: `ITEM` and `IPRI`. Items keep an owned title
    /// each; their property lists go into one buffer like the concept
    /// layer's.
    fn item_layer(&self) -> Result<ItemColumns, LoadError> {
        let n_prim = self.primitives.count;
        let n_item = self.items.count;
        let mut props = Cursor::new(self.ipri, "item-primitive");
        let mut items = ItemColumns::with_capacity(n_item);
        for i in 0..n_item {
            let joined = self.item_title(i);
            let title = if joined.is_empty() {
                Vec::new()
            } else {
                let mut title = Vec::with_capacity(joined.split(' ').count());
                title.extend(joined.split(' ').map(String::from));
                title
            };
            items.push_title(title);
            items
                .primitives
                .push_list(|out| props.ids_into(n_prim, out, PrimitiveId::from_index))?;
        }
        props.expect_end()?;
        Ok(items)
    }

    /// Per-section `(name, payload bytes, record count)` — what
    /// `snapshot inspect` prints. Walks the varint sections to count
    /// records, so it also fully validates their framing.
    pub fn section_info(&self) -> Result<Vec<(&'static str, u64, u64)>, LoadError> {
        let fixed = |s: &FixedSection<'_>| (4 + s.entries.len()) as u64;
        let mut out = Vec::with_capacity(SECTIONS.len());
        out.push(("string arena", self.arena.len() as u64, 0));
        out.push(("classes", fixed(&self.classes), self.classes.count as u64));
        out.push((
            "primitives",
            fixed(&self.primitives),
            self.primitives.count as u64,
        ));
        out.push((
            "concepts",
            fixed(&self.concepts),
            self.concepts.count as u64,
        ));
        out.push(("items", fixed(&self.items), self.items.count as u64));
        let count_lists = |sec: &'a [u8],
                           lists: usize,
                           weighted: bool,
                           name: &'static str|
         -> Result<u64, LoadError> {
            let mut cur = Cursor::new(sec, name);
            let mut total = 0u64;
            for _ in 0..lists {
                total += cur.skip_list(weighted)?;
            }
            cur.expect_end()?;
            Ok(total)
        };
        out.push((
            "primitive-isA",
            self.ppia.len() as u64,
            count_lists(self.ppia, self.primitives.count, false, "primitive-isA")?,
        ));
        out.push((
            "concept-isA",
            self.ccia.len() as u64,
            count_lists(self.ccia, self.concepts.count, false, "concept-isA")?,
        ));
        out.push((
            "concept-primitive",
            self.cpri.len() as u64,
            count_lists(self.cpri, self.concepts.count, false, "concept-primitive")?,
        ));
        out.push((
            "concept-item",
            self.citm.len() as u64,
            count_lists(self.citm, self.concepts.count, true, "concept-item")?,
        ));
        out.push((
            "item-primitive",
            self.ipri.len() as u64,
            count_lists(self.ipri, self.items.count, false, "item-primitive")?,
        ));
        out.push((
            "schema relations",
            fixed(&self.schema),
            self.schema.count as u64,
        ));
        out.push((
            "primitive relations",
            fixed(&self.relations),
            self.relations.count as u64,
        ));
        if let Some(payloads) = self.ann {
            for ((_, name), payload) in ANN_SECTIONS.iter().zip(payloads) {
                // Opaque to this codec: byte length only, no record count.
                out.push((name, payload.len() as u64, 0));
            }
        }
        Ok(out)
    }
}

/// Section `i`'s table entry, checked against the tag it must carry and
/// the offset it must start at: its payload and its recorded checksum.
fn table_entry<'a>(
    bytes: &'a [u8],
    i: usize,
    tag: &[u8; 4],
    name: &str,
    expected: usize,
) -> Result<(&'a [u8], u64), LoadError> {
    let base = HEADER_LEN + i * TABLE_ENTRY_LEN;
    let entry = bytes
        .get(base..base + TABLE_ENTRY_LEN)
        .ok_or_else(|| corrupt("section table", "truncated table"))?;
    if entry.get(..4) != Some(&tag[..]) {
        return Err(corrupt("section table", format!("expected section {name}")));
    }
    let off = usize::try_from(u64_at(entry, 4, "section table")?)
        .map_err(|_| corrupt("section table", "offset overflow"))?;
    let len = usize::try_from(u64_at(entry, 12, "section table")?)
        .map_err(|_| corrupt("section table", "length overflow"))?;
    if off != expected {
        return Err(corrupt("section table", "sections must be contiguous"));
    }
    // The length is capped against the remaining buffer before any use —
    // an oversized-length attack fails here, allocation-free.
    let payload = off
        .checked_add(len)
        .and_then(|end| bytes.get(off..end))
        .ok_or_else(|| corrupt("section table", "section length exceeds file"))?;
    Ok((payload, u64_at(entry, 20, "section table")?))
}

fn name_of(i: usize) -> &'static str {
    SECTIONS
        .get(i)
        .or_else(|| ANN_SECTIONS.get(i.wrapping_sub(SECTIONS.len())))
        .map(|(_, name)| *name)
        .unwrap_or("section")
}

/// Open + materialize in one call — the cold-load entry point stores use.
pub fn load(bytes: &[u8]) -> Result<AliCoCo, LoadError> {
    SnapshotView::open(bytes)?.to_graph()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::test_support::build_sample;

    fn sample_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        save(&build_sample(), &mut out).unwrap();
        out
    }

    /// Recompute section checksums after a test deliberately patches a
    /// payload (so corruption *past* the checksum layer can be exercised).
    fn fix_checksums(bytes: &mut [u8]) {
        for i in 0..SECTIONS.len() {
            let base = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let off = u64::from_le_bytes(bytes[base + 4..base + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[base + 12..base + 20].try_into().unwrap()) as usize;
            let sum = fnv1a64(&bytes[off..off + len]);
            bytes[base + 20..base + 28].copy_from_slice(&sum.to_le_bytes());
        }
    }

    #[test]
    fn roundtrip_reproduces_the_net_and_is_deterministic() {
        let kg = build_sample();
        let bytes = sample_bytes();
        let loaded = load(&bytes).unwrap();
        assert_eq!(loaded, kg);
        let mut again = Vec::new();
        save(&loaded, &mut again).unwrap();
        assert_eq!(bytes, again, "re-save must be byte-identical");
    }

    #[test]
    fn binary_to_model_to_tsv_matches_the_oracle() {
        let kg = build_sample();
        let mut oracle = Vec::new();
        crate::snapshot::save(&kg, &mut oracle).unwrap();
        let mut tsv = Vec::new();
        crate::snapshot::save(&load(&sample_bytes()).unwrap(), &mut tsv).unwrap();
        assert_eq!(oracle, tsv);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let mut bytes = Vec::new();
        save(&AliCoCo::new(), &mut bytes).unwrap();
        let loaded = load(&bytes).unwrap();
        assert_eq!(loaded, AliCoCo::new());
    }

    /// The header's version is the first thing checked after the magic:
    /// a file of any other version — an older layout included — is
    /// refused with a typed error naming it.
    #[test]
    fn other_versions_are_refused_by_number() {
        let bytes = sample_bytes();
        for version in [0, 1, VERSION + 1, u32::MAX] {
            let mut b = bytes.clone();
            b[4..8].copy_from_slice(&version.to_le_bytes());
            match SnapshotView::open(&b) {
                Err(LoadError::Corrupt("header", msg)) => {
                    assert_eq!(msg, format!("unsupported version {version}"));
                }
                other => panic!("version {version} opened: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn zero_copy_accessors_borrow_from_the_buffer() {
        let kg = build_sample();
        let bytes = sample_bytes();
        let view = SnapshotView::open(&bytes).unwrap();
        assert_eq!(view.num_concepts(), kg.num_concepts());
        for i in 0..view.num_concepts() {
            assert_eq!(
                view.concept_name(i),
                kg.concept(crate::ids::ConceptId::from_index(i)).name
            );
        }
        for i in 0..view.num_items() {
            assert_eq!(
                view.item_title(i),
                kg.item(crate::ids::ItemId::from_index(i)).title.join(" ")
            );
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_bytes();
        for len in 0..bytes.len() {
            let r = SnapshotView::open(&bytes[..len]).and_then(|v| v.to_graph());
            assert!(r.is_err(), "truncation at {len} must fail");
        }
    }

    #[test]
    fn every_bitflip_is_detected_at_open() {
        let bytes = sample_bytes();
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(
                SnapshotView::open(&b).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn oversized_section_length_is_rejected_without_allocating() {
        let mut bytes = sample_bytes();
        // Patch the string arena's table length to an absurd value.
        let base = HEADER_LEN;
        bytes[base + 12..base + 20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotView::open(&bytes),
            Err(LoadError::Corrupt("section table", _))
        ));
    }

    #[test]
    fn corrupt_varint_degree_is_capped() {
        let mut bytes = sample_bytes();
        // PPIA is section index 5; its first byte is the degree of
        // primitive 0's hypernym list. Blow it up and re-checksum.
        let base = HEADER_LEN + 5 * TABLE_ENTRY_LEN;
        let off = u64::from_le_bytes(bytes[base + 4..base + 12].try_into().unwrap()) as usize;
        bytes[off] = 0xff; // continuation bit set: large degree follows
        bytes[off + 1] = 0x7f;
        fix_checksums(&mut bytes);
        let view = SnapshotView::open(&bytes).unwrap();
        let err = view.to_graph().unwrap_err();
        assert!(matches!(err, LoadError::Corrupt("primitive-isA", _)));
    }

    /// Section `i`'s payload range in a saved buffer.
    fn payload_range(bytes: &[u8], i: usize) -> std::ops::Range<usize> {
        let base = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let off = u64::from_le_bytes(bytes[base + 4..base + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[base + 12..base + 20].try_into().unwrap()) as usize;
        off..off + len
    }

    /// Blow up the first list degree of varint section `i`.
    fn blow_up_first_degree(bytes: &mut [u8], i: usize) {
        let range = payload_range(bytes, i);
        assert!(range.len() >= 2, "section {i} too short to corrupt");
        bytes[range.start] = 0xff;
        bytes[range.start + 1] = 0x7f;
    }

    fn corrupt_error(r: Result<AliCoCo, LoadError>) -> (&'static str, String) {
        match r {
            Err(LoadError::Corrupt(section, msg)) => (section, msg),
            other => panic!(
                "expected a corrupt-section error, got {:?}",
                other.map(|_| ())
            ),
        }
    }

    /// The concept and item layers decode on two threads; with both
    /// corrupt, the error is the concept layer's — the one a decoder
    /// walking the sections in order meets first — however the threads
    /// are scheduled.
    #[test]
    fn with_both_layers_corrupt_the_concept_layer_error_wins() {
        let mut bytes = sample_bytes();
        // CCIA is section 6 (concept layer), IPRI section 9 (item layer).
        blow_up_first_degree(&mut bytes, 6);
        let mut item_only = sample_bytes();
        blow_up_first_degree(&mut item_only, 9);
        blow_up_first_degree(&mut bytes, 9);
        fix_checksums(&mut bytes);
        fix_checksums(&mut item_only);
        let concept_error = ("concept-isA", "degree exceeds section size".to_string());
        for _ in 0..20 {
            let view = SnapshotView::open(&bytes).unwrap();
            assert_eq!(corrupt_error(view.to_graph()), concept_error);
        }
        let view = SnapshotView::open(&item_only).unwrap();
        assert_eq!(
            corrupt_error(view.to_graph()),
            ("item-primitive", "degree exceeds section size".to_string())
        );
    }

    /// Checksums are verified on two threads, the string arena alone on
    /// one of them; of several bad sections, the first in file order is
    /// named.
    #[test]
    fn of_several_bad_checksums_the_first_section_is_named() {
        let clean = sample_bytes();
        let flip = |bytes: &mut Vec<u8>, i: usize| {
            let range = payload_range(bytes, i);
            bytes[range.start] ^= 0x40;
        };
        let open_error = |bytes: &[u8]| match SnapshotView::open(bytes) {
            Err(LoadError::Corrupt(section, msg)) => (section, msg),
            other => panic!(
                "expected a corrupt-section error, got {:?}",
                other.map(|_| ())
            ),
        };
        let mismatch = |section| (section, "checksum mismatch".to_string());
        for later in [3, 8, SECTIONS.len() - 1] {
            let mut bytes = clean.clone();
            flip(&mut bytes, later);
            flip(&mut bytes, 0);
            assert_eq!(open_error(&bytes), mismatch("string arena"));
        }
        let mut bytes = clean.clone();
        flip(&mut bytes, 8);
        flip(&mut bytes, 4);
        assert_eq!(open_error(&bytes), mismatch("items"));
        // A bad checksum before a section-table fault is reported first; a
        // bad checksum after one is never reached.
        let mut bytes = clean.clone();
        flip(&mut bytes, 0);
        bytes[HEADER_LEN + 5 * TABLE_ENTRY_LEN] ^= 0x01;
        assert_eq!(open_error(&bytes), mismatch("string arena"));
        let mut bytes = clean.clone();
        flip(&mut bytes, 9);
        bytes[HEADER_LEN + 5 * TABLE_ENTRY_LEN] ^= 0x01;
        assert_eq!(
            open_error(&bytes),
            (
                "section table",
                "expected section primitive-isA".to_string()
            )
        );
    }

    /// The arena and every string reference of a net as a plain
    /// first-use interner lays them out: each distinct string once, where
    /// it is first met — classes, primitives, concepts, item titles,
    /// schema relations, primitive relations.
    fn reference_strings(kg: &AliCoCo) -> (Vec<u8>, Vec<(u32, u32)>) {
        let mut arena = Vec::new();
        let mut seen = std::collections::HashMap::new();
        let mut refs = Vec::new();
        let names = kg
            .class_ids()
            .map(|id| kg.class(id).name.clone())
            .chain(kg.primitive_ids().map(|id| kg.primitive(id).name.clone()))
            .chain(kg.concept_ids().map(|id| kg.concept(id).name.to_string()))
            .chain(kg.item_ids().map(|id| kg.item(id).title.join(" ")))
            .chain(kg.schema().iter().map(|s| s.name.clone()))
            .chain(kg.primitive_relations().iter().map(|r| r.name.clone()));
        for name in names {
            let r = *seen.entry(name.clone()).or_insert_with(|| {
                let r = (arena.len() as u32, name.len() as u32);
                arena.extend_from_slice(name.as_bytes());
                r
            });
            refs.push(r);
        }
        (arena, refs)
    }

    /// The arena and every string reference a saved snapshot holds, in
    /// the order of [`reference_strings`].
    fn saved_strings(bytes: &[u8]) -> (Vec<u8>, Vec<(u32, u32)>) {
        let view = SnapshotView::open(bytes).unwrap();
        let mut refs = Vec::new();
        for sec in [
            &view.classes,
            &view.primitives,
            &view.concepts,
            &view.items,
            &view.schema,
            &view.relations,
        ] {
            for i in 0..sec.count {
                let e = sec.entry(i);
                refs.push((u32_at(e, 0), u32_at(e, 4)));
            }
        }
        (view.arena.as_bytes().to_vec(), refs)
    }

    /// A net whose strings repeat across every layer: a concept named like
    /// a primitive, item titles equal to concept names, to a class name
    /// and to each other, relations named like a concept and a title.
    fn crossing_names() -> AliCoCo {
        let mut kg = build_sample();
        let event = kg.class_by_name("Event").unwrap();
        let cookware = kg.primitives_by_name("cookware")[0];
        let winter = kg.primitives_by_name("winter")[0];
        kg.add_concept("winter");
        kg.add_concept("camping grill");
        for title in [
            &["outdoor", "barbecue"][..],
            &["Event"],
            &["camping", "grill"],
            &["brand", "grill"],
            &["outdoor", "barbecue"],
        ] {
            let title: Vec<String> = title.iter().map(|t| t.to_string()).collect();
            kg.add_item(&title);
        }
        kg.add_schema_relation("camping grill", event, event);
        kg.add_primitive_relation("brand grill", cookware, winter);
        kg.add_primitive_relation("fresh name", cookware, winter);
        kg
    }

    /// Concept names are interned against class and primitive names only,
    /// and later strings find them through the net's name index; the
    /// bytes are those of a plain first-use interner, whether the index
    /// was built while the net grew or is built by the save itself.
    #[test]
    fn interning_lays_out_the_arena_of_a_plain_first_use_interner() {
        for kg in [build_sample(), crossing_names()] {
            let mut bytes = Vec::new();
            save(&kg, &mut bytes).unwrap();
            assert_eq!(saved_strings(&bytes), reference_strings(&kg));
            let loaded = load(&bytes).unwrap();
            let mut again = Vec::new();
            save(&loaded, &mut again).unwrap();
            assert_eq!(bytes, again, "a loaded net re-saves to the same bytes");
        }
    }

    /// Only a crafted snapshot decodes to concepts that share a name; such
    /// a net is interned with every concept name deduplicated, exactly as
    /// a plain first-use interner lays it out.
    #[test]
    fn a_net_with_repeated_concept_names_saves_like_a_plain_interner() {
        let mut bytes = Vec::new();
        save(&crossing_names(), &mut bytes).unwrap();
        // CONC is section 3: point every concept's name at concept 0's.
        let conc = payload_range(&bytes, 3);
        let first: [u8; 8] = bytes[conc.start + 4..conc.start + 12].try_into().unwrap();
        for entry in (conc.start + 12..conc.end).step_by(8) {
            bytes[entry..entry + 8].copy_from_slice(&first);
        }
        fix_checksums(&mut bytes);
        let crafted = load(&bytes).unwrap();
        assert!(crafted.num_concepts() > 2);
        let name = crafted.concept(ConceptId::from_index(0)).name;
        assert!(crafted
            .concept_ids()
            .all(|c| crafted.concept(c).name == name));
        let mut saved = Vec::new();
        save(&crafted, &mut saved).unwrap();
        assert_eq!(saved_strings(&saved), reference_strings(&crafted));
        assert_eq!(load(&saved).unwrap(), crafted);
    }

    #[test]
    fn corrupt_weight_is_rejected() {
        let kg = build_sample();
        let mut bytes = Vec::new();
        save(&kg, &mut bytes).unwrap();
        // CITM is section index 8. The first concept with items starts
        // with varint degree, zigzag delta, then the weight's 4 bytes.
        let base = HEADER_LEN + 8 * TABLE_ENTRY_LEN;
        let off = u64::from_le_bytes(bytes[base + 4..base + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[base + 12..base + 20].try_into().unwrap()) as usize;
        // Find the first weight: scan for a decodable position is fragile;
        // instead overwrite the last 4 bytes of the section (a weight,
        // since every CITM entry ends with one) with NaN bits.
        assert!(len >= 4, "sample has concept-item edges");
        bytes[off + len - 4..off + len].copy_from_slice(&f32::NAN.to_le_bytes());
        fix_checksums(&mut bytes);
        let view = SnapshotView::open(&bytes).unwrap();
        let err = view.to_graph().unwrap_err();
        assert!(matches!(err, LoadError::Corrupt("concept-item", _)));
    }

    #[test]
    fn section_info_counts_records() {
        let kg = build_sample();
        let bytes = sample_bytes();
        let view = SnapshotView::open(&bytes).unwrap();
        let info = view.section_info().unwrap();
        assert_eq!(info.len(), SECTIONS.len());
        let get = |name: &str| {
            info.iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, _, recs)| recs)
                .unwrap()
        };
        assert_eq!(get("classes"), kg.num_classes() as u64);
        assert_eq!(get("concepts"), kg.num_concepts() as u64);
        assert_eq!(get("primitive-isA"), kg.num_primitive_is_a() as u64);
        assert_eq!(get("concept-item"), kg.num_concept_item_links() as u64);
        let total: u64 = info.iter().map(|&(_, bytes, _)| bytes).sum();
        assert_eq!(
            total as usize + HEADER_LEN + SECTIONS.len() * TABLE_ENTRY_LEN,
            bytes.len()
        );
    }

    fn sample_ann_bytes() -> Vec<u8> {
        let ann = AnnPayload {
            vocab: b"fake vocab payload",
            concepts: b"fake concept index",
            items: b"fake item index bytes",
        };
        let mut out = Vec::new();
        save_with_ann(&build_sample(), Some(ann), &mut out).unwrap();
        out
    }

    #[test]
    fn ann_trailer_roundtrips_and_leaves_the_graph_untouched() {
        let kg = build_sample();
        let bytes = sample_ann_bytes();
        let view = SnapshotView::open(&bytes).unwrap();
        let (vocab, concepts, items) = view.ann().expect("ann sections present");
        assert_eq!(vocab, b"fake vocab payload");
        assert_eq!(concepts, b"fake concept index");
        assert_eq!(items, b"fake item index bytes");
        // Zero-copy: the payloads borrow from the buffer.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&vocab.as_ptr()) && range.contains(&items.as_ptr()));
        // The graph is exactly the one a bare snapshot produces.
        assert_eq!(view.to_graph().unwrap(), kg);
        // A bare snapshot reports no ann and stays byte-identical to the
        // pre-ANN `save` output.
        let bare = sample_bytes();
        assert!(SnapshotView::open(&bare).unwrap().ann().is_none());
        let mut via_with_ann = Vec::new();
        save_with_ann(&kg, None, &mut via_with_ann).unwrap();
        assert_eq!(bare, via_with_ann);
    }

    #[test]
    fn ann_trailer_corruption_is_detected_at_open() {
        let bytes = sample_ann_bytes();
        for len in 0..bytes.len() {
            assert!(
                SnapshotView::open(&bytes[..len]).is_err(),
                "truncation at {len} must fail"
            );
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(
                SnapshotView::open(&b).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn ann_section_info_lists_the_trailer() {
        let bytes = sample_ann_bytes();
        let view = SnapshotView::open(&bytes).unwrap();
        let info = view.section_info().unwrap();
        assert_eq!(info.len(), SECTIONS.len() + ANN_SECTIONS.len());
        let vocab = info.iter().find(|(n, _, _)| *n == "ann vocab").unwrap();
        assert_eq!(vocab.1, b"fake vocab payload".len() as u64);
        let total: u64 = info.iter().map(|&(_, bytes, _)| bytes).sum();
        assert_eq!(
            total as usize + HEADER_LEN + info.len() * TABLE_ENTRY_LEN,
            bytes.len()
        );
    }

    #[test]
    fn varint_roundtrip_and_overflow() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf, "test");
            assert_eq!(cur.varint().unwrap(), v);
            cur.expect_end().unwrap();
        }
        // 11-byte varint overflows.
        let buf = [0x80u8; 11];
        let mut cur = Cursor::new(&buf, "test");
        assert!(cur.varint().is_err());
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
