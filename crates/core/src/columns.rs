//! The e-commerce concept and item layers, stored in columns (DESIGN.md
//! §9).
//!
//! A net holds millions of concepts and items, each with a handful of
//! edges: a struct per node would cost a heap allocation per edge list
//! (and, for a concept, a name plus a second copy of it as a map key).
//! The layers are a few large buffers instead:
//!
//! - every concept name in one `String`, found through its end offset;
//! - every list of one edge kind (a concept's interpreting primitives, isA
//!   hypernyms and weighted items; an item's property primitives and the
//!   concepts that suggest it) in one shared buffer, with an 8-byte
//!   `(start, len)` [`Span`] per node;
//! - the name index an open-addressed table of `u32` ids ([`IdTable`]),
//!   keyed by the name's hash and resolved against the name column, and
//!   built the first time a name is looked up: serving never asks for a
//!   concept by name, so a loaded net does not pay for it (DESIGN.md §9).
//!
//! Mutators keep working in any order: a list with spare capacity grows in
//! its slot, a full list that ends the buffer grows in place, and any
//! other full list moves to the end with power-of-two capacity (its old
//! slot becomes dead space). A net decoded from a snapshot fills every
//! buffer in node order, so its lists sit back to back with no slack at
//! all.

use std::fmt;
use std::hash::Hasher;
use std::marker::PhantomData;
use std::sync::OnceLock;

use alicoco_nn::util::FxHasher;

use crate::graph::{ConceptRef, ItemRef};
use crate::ids::{ConceptId, ItemId, PrimitiveId};

/// Capacity a list gets the first time it has to move.
const MIN_MOVED_CAP: usize = 2;

/// Top bit of [`Span::len`]: the list has moved, and its capacity is
/// [`moved_cap`] of its length. A list without it is packed: its
/// capacity is its length.
const MOVED: u32 = 1 << 31;

/// Where one list lives inside an [`EdgeLists`] buffer. Its capacity is
/// not stored: it follows from the length and the [`MOVED`] bit.
#[derive(Clone, Copy, Default)]
struct Span {
    start: u32,
    /// Length, with [`MOVED`] as its top bit.
    len: u32,
}

impl Span {
    fn len(self) -> usize {
        (self.len & !MOVED) as usize
    }

    fn cap(self) -> usize {
        if self.len & MOVED == 0 {
            self.len()
        } else {
            moved_cap(self.len())
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len()
    }
}

/// Capacity of a moved list holding `len` entries: the next power of two,
/// so a full moved list doubles when it moves again.
fn moved_cap(len: usize) -> usize {
    len.next_power_of_two().max(MIN_MOVED_CAP)
}

/// A node id that keys one list per node.
pub(crate) trait ListKey: Copy {
    /// The node's position among the lists.
    fn index(self) -> usize;
}

impl ListKey for ConceptId {
    fn index(self) -> usize {
        ConceptId::index(self)
    }
}

impl ListKey for ItemId {
    fn index(self) -> usize {
        ItemId::index(self)
    }
}

/// One list of `T` per node of key type `K`, all in one shared buffer.
pub(crate) struct EdgeLists<K, T> {
    data: Vec<T>,
    spans: Vec<Span>,
    key: PhantomData<K>,
}

impl<K, T> Default for EdgeLists<K, T> {
    fn default() -> Self {
        Self {
            data: Vec::new(),
            spans: Vec::new(),
            key: PhantomData,
        }
    }
}

/// Narrow a buffer position or node id to the `u32` the columns store it
/// in (`u32::MAX` itself is the [`IdTable`]'s empty-slot marker).
fn to_u32(n: usize) -> u32 {
    assert!(n < u32::MAX as usize, "node layer exceeds u32 range");
    n as u32
}

/// Narrow a list length to the 31 bits a [`Span`] keeps for it.
fn to_len(n: usize) -> u32 {
    assert!(n < MOVED as usize, "edge list exceeds u31 range");
    n as u32
}

impl<K: ListKey, T: Copy> EdgeLists<K, T> {
    /// Room for `lists` lists without reallocating the span column.
    fn with_capacity(lists: usize) -> Self {
        Self {
            spans: Vec::with_capacity(lists),
            ..Self::default()
        }
    }

    /// Open an empty list at the end of the buffer.
    fn add_list(&mut self) {
        self.spans.push(Span {
            start: to_u32(self.data.len()),
            len: 0,
        });
    }

    /// Append a list holding exactly the entries `fill` pushes onto the
    /// buffer — the bulk path snapshot decoding takes, one list after
    /// another with no slack between them.
    pub(crate) fn push_list<E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<T>) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.data.len();
        fill(&mut self.data)?;
        self.spans.push(Span {
            start: to_u32(start),
            len: to_len(self.data.len() - start),
        });
        Ok(())
    }

    /// `lists` packed lists, list `k` holding the values of the `(k, v)`
    /// pairs `pairs` yields, in the order it yields them. `pairs` is
    /// called twice — once to count, once to fill — and must yield the
    /// same pairs both times, every key below `lists`.
    pub(crate) fn grouped<I>(lists: usize, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (K, T)>,
    {
        let mut spans = vec![Span::default(); lists];
        for (k, _) in pairs() {
            if let Some(span) = spans.get_mut(k.index()) {
                span.len = to_len(span.len() + 1);
            }
        }
        // Each list's region begins where the previous one ends; its
        // length counts back up from zero as it is filled.
        let mut end = 0usize;
        for span in &mut spans {
            span.start = to_u32(end);
            end += span.len();
            span.len = 0;
        }
        let mut lists = Self {
            data: Vec::new(),
            spans,
            key: PhantomData,
        };
        if let Some((_, first)) = pairs().next() {
            lists.data = vec![first; end];
        }
        for (k, v) in pairs() {
            if let Some(span) = lists.spans.get_mut(k.index()) {
                if let Some(slot) = lists.data.get_mut(span.start as usize + span.len()) {
                    *slot = v;
                }
                span.len += 1;
            }
        }
        lists
    }

    /// Release the growth slack of the buffers after a bulk fill.
    fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
        self.spans.shrink_to_fit();
    }

    /// The list of node `k`.
    fn get(&self, k: K) -> &[T] {
        let span = self.spans[k.index()];
        self.data.get(span.range()).unwrap_or(&[])
    }

    /// The list of node `k`, mutably (for in-place updates only).
    fn get_mut(&mut self, k: K) -> &mut [T] {
        let span = self.spans[k.index()];
        self.data.get_mut(span.range()).unwrap_or(&mut [])
    }

    /// Append `v` to the list of node `k`.
    fn push(&mut self, k: K, v: T) {
        let Self { data, spans, .. } = self;
        let span = &mut spans[k.index()];
        let (start, len, cap) = (span.start as usize, span.len(), span.cap());
        assert!(len + 1 < MOVED as usize, "edge list exceeds u31 range");
        if len < cap {
            if let Some(slot) = data.get_mut(start + len) {
                *slot = v;
            }
        } else if start + cap == data.len() {
            if span.len & MOVED == 0 {
                data.push(v);
            } else {
                // `v` doubles as the filler of the spare capacity.
                data.resize(start + moved_cap(len + 1), v);
            }
        } else {
            let moved = data.len();
            data.extend_from_within(start..start + len);
            data.resize(moved + moved_cap(len + 1), v);
            span.start = to_u32(moved);
            span.len |= MOVED;
        }
        span.len += 1;
    }

    /// Total entries over every list.
    fn total_len(&self) -> usize {
        self.spans.iter().map(|s| s.len()).sum()
    }
}

/// The FxHash of a string's bytes — the key [`IdTable`] users probe with.
pub(crate) fn str_hash(s: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(s);
    h.finish()
}

/// Slot marker for "no id here".
const EMPTY: u32 = u32::MAX;

/// An open-addressed hash table of `u32` ids whose keys live elsewhere
/// (a name column, a string arena): callers hash the key, and the table
/// asks them whether the id in a slot has that key. Linear probing, load
/// factor at most one half, no deletion.
#[derive(Default)]
pub(crate) struct IdTable {
    slots: Vec<u32>,
    len: usize,
}

impl IdTable {
    /// A table that holds `n` ids without growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut t = Self::default();
        if n > 0 {
            t.slots = vec![EMPTY; (2 * n).next_power_of_two()];
        }
        t
    }

    /// Home slot of `hash`: its top bits, which multiplicative hashes mix
    /// best.
    fn home(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        if bits == 0 {
            return 0;
        }
        (hash >> (64 - bits)) as usize
    }

    /// The slot holding an id whose key `is_key` accepts, or else the
    /// empty slot that ends the probe. `None` only for an empty table.
    fn probe(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<(usize, bool)> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = self.home(hash);
        loop {
            match self.slots.get(at) {
                Some(&EMPTY) | None => return Some((at, false)),
                Some(&id) if is_key(id) => return Some((at, true)),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// The id whose key hashes to `hash` and is accepted by `is_key`.
    pub(crate) fn find(&self, hash: u64, is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        match self.probe(hash, is_key)? {
            (at, true) => self.slots.get(at).copied(),
            _ => None,
        }
    }

    /// Insert `id` under `hash`, replacing the id whose key `is_key`
    /// accepts if there is one; returns whether there was none. `hash_of`
    /// rehashes the stored ids when the table grows.
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        id: u32,
        is_key: impl FnMut(u32) -> bool,
        hash_of: impl Fn(u32) -> u64,
    ) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(hash_of);
        }
        let Some((at, found)) = self.probe(hash, is_key) else {
            return false;
        };
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = id;
        }
        if !found {
            self.len += 1;
        }
        !found
    }

    /// Double the slot count and re-place every id.
    fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![EMPTY; (2 * old.len()).max(8)];
        for id in old.into_iter().filter(|&id| id != EMPTY) {
            // Ids in the old table are distinct, so nothing matches.
            if let Some((at, _)) = self.probe(hash_of(id), |_| false) {
                if let Some(slot) = self.slots.get_mut(at) {
                    *slot = id;
                }
            }
        }
    }
}

/// A concept layer's name → id table.
struct NameIndex {
    table: IdTable,
    /// No two concepts share a name. [`ConceptColumns::add`] keeps it so;
    /// only a layer decoded from a crafted snapshot can break it.
    distinct: bool,
}

impl NameIndex {
    /// Index every name of a column; when a name repeats, the last concept
    /// carrying it wins.
    fn build(text: &str, ends: &[u32]) -> Self {
        let mut table = IdTable::with_capacity(ends.len());
        let mut distinct = true;
        for i in 0..ends.len() {
            let name = name_in(text, ends, i);
            distinct &= table.insert(
                str_hash(name.as_bytes()),
                to_u32(i),
                |id| name_in(text, ends, id as usize) == name,
                |id| str_hash(name_in(text, ends, id as usize).as_bytes()),
            );
        }
        NameIndex { table, distinct }
    }
}

/// The concept layer of a net, in columns (see the module docs).
#[derive(Default)]
pub(crate) struct ConceptColumns {
    /// Every name, back to back.
    text: String,
    /// End offset of each concept's name in `text`.
    ends: Vec<u32>,
    /// Name → id, built on first use.
    by_name: OnceLock<NameIndex>,
    pub(crate) primitives: EdgeLists<ConceptId, PrimitiveId>,
    pub(crate) hypernyms: EdgeLists<ConceptId, ConceptId>,
    pub(crate) items: EdgeLists<ConceptId, (ItemId, f32)>,
}

impl ConceptColumns {
    /// Room for `n` concepts whose names take `name_bytes` bytes; the name
    /// index is built on first use.
    pub(crate) fn with_capacity(n: usize, name_bytes: usize) -> Self {
        Self {
            text: String::with_capacity(name_bytes),
            ends: Vec::with_capacity(n),
            by_name: OnceLock::new(),
            primitives: EdgeLists::with_capacity(n),
            hypernyms: EdgeLists::with_capacity(n),
            items: EdgeLists::with_capacity(n),
        }
    }

    /// Number of concepts.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Name of concept `i` (`""` outside the layer).
    fn name_at(&self, i: usize) -> &str {
        name_in(&self.text, &self.ends, i)
    }

    /// The view of concept `c`; panics on an id from another net, like
    /// every typed-id lookup.
    pub(crate) fn get(&self, c: ConceptId) -> ConceptRef<'_> {
        ConceptRef {
            name: self.name_at(c.index()),
            primitives: self.primitives.get(c),
            hypernyms: self.hypernyms.get(c),
            items: self.items.get(c),
        }
    }

    /// Every concept, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ConceptRef<'_>> {
        (0..self.len()).map(|i| self.get(ConceptId::from_index(i)))
    }

    /// The name index, built now if this is its first use.
    fn names(&self) -> &NameIndex {
        self.by_name
            .get_or_init(|| NameIndex::build(&self.text, &self.ends))
    }

    /// The concept named `name`.
    pub(crate) fn find(&self, name: &str) -> Option<ConceptId> {
        self.find_bytes(name.as_bytes())
    }

    /// The concept whose name has the bytes `name`.
    pub(crate) fn find_bytes(&self, name: &[u8]) -> Option<ConceptId> {
        self.names()
            .table
            .find(str_hash(name), |id| {
                self.name_at(id as usize).as_bytes() == name
            })
            .map(|id| ConceptId::from_index(id as usize))
    }

    /// Whether no two concepts share a name (builds the name index if
    /// nothing has yet).
    pub(crate) fn names_distinct(&self) -> bool {
        self.names().distinct
    }

    /// Append a concept named `name` with empty lists: the bulk path, on
    /// a layer whose name index has not been built.
    pub(crate) fn push_name(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(to_u32(self.text.len()));
    }

    /// Finish a layer filled by [`push_name`](Self::push_name) and
    /// [`EdgeLists::push_list`]: release growth slack. The name index is
    /// left to its first use; when a name repeats, the last concept
    /// carrying it wins there.
    pub(crate) fn finish_bulk(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.primitives.shrink_to_fit();
        self.hypernyms.shrink_to_fit();
        self.items.shrink_to_fit();
    }

    /// The concept named `name`, added with empty lists if there is none.
    pub(crate) fn add(&mut self, name: &str) -> ConceptId {
        // The lookup builds the name index, so it is there to extend.
        if let Some(id) = self.find(name) {
            return id;
        }
        let id = self.len();
        self.push_name(name);
        self.primitives.add_list();
        self.hypernyms.add_list();
        self.items.add_list();
        let Self {
            text,
            ends,
            by_name,
            ..
        } = self;
        if let Some(index) = by_name.get_mut() {
            let name_of = |id: u32| name_in(text, ends, id as usize);
            index.table.insert(
                str_hash(name.as_bytes()),
                to_u32(id),
                |_| false,
                |id| str_hash(name_of(id).as_bytes()),
            );
        }
        ConceptId::from_index(id)
    }

    /// Link `c` to primitive `p` unless it already is.
    pub(crate) fn link_primitive(&mut self, c: ConceptId, p: PrimitiveId) {
        if !self.primitives.get(c).contains(&p) {
            self.primitives.push(c, p);
        }
    }

    /// Add hypernym `h` to `c` unless it is already there.
    pub(crate) fn add_hypernym(&mut self, c: ConceptId, h: ConceptId) {
        if !self.hypernyms.get(c).contains(&h) {
            self.hypernyms.push(c, h);
        }
    }

    /// Set the weight of the `c → item` edge, adding the edge if it is
    /// new; returns whether it was.
    pub(crate) fn link_item(&mut self, c: ConceptId, item: ItemId, weight: f32) -> bool {
        if let Some(e) = self.items.get_mut(c).iter_mut().find(|(i, _)| *i == item) {
            e.1 = weight;
            return false;
        }
        self.items.push(c, (item, weight));
        true
    }

    /// Total isA edges between concepts.
    pub(crate) fn num_hypernym_edges(&self) -> usize {
        self.hypernyms.total_len()
    }

    /// Total concept–primitive edges.
    pub(crate) fn num_primitive_edges(&self) -> usize {
        self.primitives.total_len()
    }

    /// Total concept–item edges.
    pub(crate) fn num_item_edges(&self) -> usize {
        self.items.total_len()
    }
}

/// The item layer of a net: an owned title per item, both edge lists in
/// columns (see the module docs).
#[derive(Default)]
pub(crate) struct ItemColumns {
    titles: Vec<Vec<String>>,
    /// Property links into the primitive layer.
    pub(crate) primitives: EdgeLists<ItemId, PrimitiveId>,
    /// Reverse links to the concepts that suggest each item.
    concepts: EdgeLists<ItemId, ConceptId>,
}

impl ItemColumns {
    /// Room for `n` titles and property lists; the reverse links are
    /// left for the bulk fill to replace.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            titles: Vec::with_capacity(n),
            primitives: EdgeLists::with_capacity(n),
            concepts: EdgeLists::default(),
        }
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.titles.len()
    }

    /// The view of item `i`; panics on an id from another net, like every
    /// typed-id lookup.
    pub(crate) fn get(&self, i: ItemId) -> ItemRef<'_> {
        ItemRef {
            title: &self.titles[i.index()],
            primitives: self.primitives.get(i),
            concepts: self.concepts.get(i),
        }
    }

    /// Every item, in id order.
    fn iter(&self) -> impl Iterator<Item = ItemRef<'_>> {
        (0..self.len()).map(|i| self.get(ItemId::from_index(i)))
    }

    /// Append an item with empty lists.
    pub(crate) fn add(&mut self, title: Vec<String>) -> ItemId {
        let id = ItemId::from_index(self.len());
        self.titles.push(title);
        self.primitives.add_list();
        self.concepts.add_list();
        id
    }

    /// Append the title of the next item, leaving its lists to the bulk
    /// fill: [`EdgeLists::push_list`] for its properties, then
    /// [`finish_bulk`](Self::finish_bulk).
    pub(crate) fn push_title(&mut self, title: Vec<String>) {
        self.titles.push(title);
    }

    /// Finish a layer filled by [`push_title`](Self::push_title) and
    /// [`EdgeLists::push_list`]: derive every item's reverse links from
    /// the concept layer — packed, each in concept order — and release
    /// growth slack. Every item id in `concepts` must be in range.
    pub(crate) fn finish_bulk(&mut self, concepts: &ConceptColumns) {
        self.concepts = EdgeLists::grouped(self.len(), || {
            concepts.iter().enumerate().flat_map(|(i, c)| {
                let id = ConceptId::from_index(i);
                c.items.iter().map(move |&(item, _)| (item, id))
            })
        });
        self.titles.shrink_to_fit();
        self.primitives.shrink_to_fit();
    }

    /// Link `i` to primitive `p` unless it already is.
    pub(crate) fn link_primitive(&mut self, i: ItemId, p: PrimitiveId) {
        if !self.primitives.get(i).contains(&p) {
            self.primitives.push(i, p);
        }
    }

    /// Record that concept `c` suggests item `i`.
    pub(crate) fn add_concept(&mut self, i: ItemId, c: ConceptId) {
        self.concepts.push(i, c);
    }

    /// Total item–primitive edges.
    pub(crate) fn num_primitive_edges(&self) -> usize {
        self.primitives.total_len()
    }
}

/// Content equality, as for [`ConceptColumns`].
impl PartialEq for ItemColumns {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for ItemColumns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Name `i` of a name column given as its parts (for closures that must
/// not borrow the whole layer).
fn name_in<'a>(text: &'a str, ends: &[u32], i: usize) -> &'a str {
    let start = i
        .checked_sub(1)
        .and_then(|p| ends.get(p))
        .map_or(0, |&e| e as usize);
    let end = ends.get(i).map_or(start, |&e| e as usize);
    text.get(start..end).unwrap_or("")
}

/// Content equality: the same concepts with the same names and lists in
/// the same order, however the buffers happen to be laid out.
impl PartialEq for ConceptColumns {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for ConceptColumns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
