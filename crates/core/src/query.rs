//! Read-side query helpers over a built concept net: inverted lookups and
//! degree statistics — the serving-layer API downstream applications
//! compose.
//!
//! Keyword retrieval scores on ids, not strings. Beside each concept
//! posting entry the index keeps one byte — is the token a *surface word*
//! of that concept, and how many of the concept's primitives are *named*
//! the token — and beside each concept its distinct surface-word count and
//! whether it is stocked. [`QueryIndex::concept_matches`] merges the query
//! tokens' id-sorted posting lists and sums those bytes per concept, so a
//! lexical scorer needs nothing but integers (DESIGN.md §13).
//!
//! Each list is also summarised in blocks of [`BLOCK`] entries — the most
//! any entry of the block can contribute — and again in runs of [`RUN`]
//! blocks, so a merge told the page's current k-th score steps over runs
//! of blocks whose best possible score is strictly below it, reading none
//! of their facts (DESIGN.md §13.6).

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use std::ops::Range;

use alicoco_nn::util::FxHashMap;

use crate::graph::{AliCoCo, ConceptRef};
use crate::ids::{ConceptId, PrimitiveId};
use crate::par;

/// Bit 0 of a posting-entry fact byte: the token is a surface word of the
/// concept. The other seven bits count the concept's primitives whose full
/// name is the token, saturating at [`MAX_PRIMITIVE_HITS`].
const SURFACE: u8 = 1;
/// One primitive named the token, in fact-byte units.
const ONE_PRIMITIVE: u8 = 2;
/// Most same-named primitives one entry records (a name is carried by one
/// primitive per class, so real nets stay far below it).
const MAX_PRIMITIVE_HITS: u8 = u8::MAX >> 1;
/// Bit 0 of a per-concept fact byte: the concept has items. The other
/// seven bits hold its distinct surface-word count, saturating at
/// [`MAX_SURFACE_LEN`] (a concept name is a phrase, not a document; the
/// exact count of a longer one is kept aside).
const STOCKED: u8 = 1;
const MAX_SURFACE_LEN: usize = (u8::MAX >> 1) as usize;

/// Entries per posting block: the unit a pruning merge proves cannot reach
/// the page. A block's summary is 8 bytes beside its 256 bytes of ids, and
/// a block skipped spares up to 64 merge steps and their fact and
/// concept-byte reads.
const BLOCK: usize = 64;

/// Blocks per *run*, the second summary level: a run's summary folds its
/// blocks' summaries as theirs fold their entries, so one bound covers up
/// to `RUN · BLOCK` = 1 024 entries of a list.
const RUN: usize = 16;
const RUN_ENTRIES: usize = RUN * BLOCK;

/// Fewest posting entries a merge under a vector bonus is pruned from
/// (see [`ConceptMatches::worth_pruning`]); a lexical merge is pruned
/// whenever it can fill its page. The 20k hybrid world's two-word queries
/// merge at most ~900 entries: pruning them too cost `mix_hybrid` 1.055×
/// the CPU a request, 5 of 6 pairs higher (DESIGN.md §13.6).
const MIN_PRUNED_POSTINGS: usize = 16 * BLOCK;

/// One token's concept posting list, borrowed from the index's arenas:
/// strictly ascending ids and, aligned with them, the fact byte of each
/// `(token, concept)` entry. `blocks` summarises each [`BLOCK`] entries,
/// then each [`RUN`] of those blocks.
#[derive(Clone, Copy)]
struct ConceptPostings<'a> {
    ids: &'a [ConceptId],
    facts: &'a [u8],
    blocks: &'a [BlockMax],
}

/// The most one posting block can contribute to any concept on it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BlockMax {
    /// The block's last id.
    last: ConceptId,
    /// A fact byte of maxima: the surface bit if any entry has it, and the
    /// largest primitive count.
    fact: u8,
    /// A concept byte of extremes: stocked if any concept of the block
    /// is, and the smallest surface-word count.
    concept: u8,
}

impl BlockMax {
    /// A placeholder for an arena slot not yet filled.
    const EMPTY: BlockMax = BlockMax {
        last: ConceptId(0),
        fact: 0,
        concept: 0,
    };

    /// The summary of one block: its ids and their fact bytes, read
    /// against the per-concept bytes. `None` for an empty block.
    fn of(ids: &[ConceptId], facts: &[u8], concept_facts: &ConceptFacts) -> Option<Self> {
        let (mut surface, mut primitives) = (0, 0);
        for f in facts {
            surface |= f & SURFACE;
            primitives = primitives.max(f >> 1);
        }
        let (mut stocked, mut shortest) = (0, u8::MAX);
        for &c in ids {
            let byte = concept_facts.byte(c);
            stocked |= byte & STOCKED;
            shortest = shortest.min(byte >> 1);
        }
        Some(BlockMax {
            last: *ids.last()?,
            fact: (primitives << 1) | surface,
            concept: (shortest << 1) | stocked,
        })
    }

    /// The summary of this block and `next`, the one after it: every
    /// maximum and extreme of either, so it bounds each entry of both.
    fn fold(self, next: BlockMax) -> BlockMax {
        let primitives = (self.fact >> 1).max(next.fact >> 1);
        let shortest = (self.concept >> 1).min(next.concept >> 1);
        BlockMax {
            last: next.last,
            fact: (primitives << 1) | ((self.fact | next.fact) & SURFACE),
            concept: (shortest << 1) | ((self.concept | next.concept) & STOCKED),
        }
    }

    /// The most the summarised entries can give one concept.
    fn ceiling(&self) -> Ceiling {
        Ceiling {
            surface_hits: u32::from(self.fact & SURFACE),
            primitive_hits: u32::from(self.fact >> 1),
            surface_len: usize::from(self.concept >> 1),
            stocked: self.concept & STOCKED != 0,
        }
    }
}

/// Lists laid out back to back in one arena: list `k` is
/// `values[offsets[k]..offsets[k + 1]]`.
#[derive(Debug, PartialEq)]
struct Csr<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Lists of the lengths `counts`, every entry `filler` until
    /// [`fill`](Self::fill) writes it, and a write cursor per list.
    fn sized(counts: &[u32], filler: T) -> (Self, Vec<u32>) {
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut end = 0usize;
        offsets.push(0);
        for &n in counts {
            end += n as usize;
            offsets.push(to_u32(end));
        }
        let next = offsets.get(..counts.len()).unwrap_or(&[]).to_vec();
        let values = vec![filler; end];
        (Csr { offsets, values }, next)
    }

    /// Write `v` at list `k`'s cursor in `next` and advance it; returns
    /// where it went. The lengths were counted from the same entries, so
    /// no cursor runs past its list.
    fn fill(&mut self, next: &mut [u32], k: usize, v: T) -> Option<usize> {
        let at = next.get_mut(k)?;
        let pos = *at as usize;
        *self.values.get_mut(pos)? = v;
        *at += 1;
        Some(pos)
    }

    /// Where list `k` lies in the arena; empty past the last list.
    fn range(&self, k: usize) -> std::ops::Range<usize> {
        match (self.offsets.get(k), self.offsets.get(k + 1)) {
            (Some(&start), Some(&end)) => start as usize..end as usize,
            _ => 0..0,
        }
    }

    /// List `k`; empty past the last list.
    fn get(&self, k: usize) -> &[T] {
        self.values.get(self.range(k)).unwrap_or(&[])
    }
}

/// Narrow an arena position to the `u32` an offsets table stores.
fn to_u32(n: usize) -> u32 {
    assert!(n <= u32::MAX as usize, "index arena exceeds u32 range");
    n as u32
}

/// Count one more entry for list `k`, growing the counts to reach it.
fn count(counts: &mut Vec<u32>, k: usize) {
    if counts.len() <= k {
        counts.resize(k + 1, 0);
    }
    if let Some(n) = counts.get_mut(k) {
        *n += 1;
    }
}

/// Per concept: one byte holding the distinct surface-word count and the
/// stocked bit, and — for the rare name with more distinct words than the
/// byte holds — the exact count kept aside, ascending by id.
#[derive(Debug, Default, PartialEq)]
struct ConceptFacts {
    bytes: Vec<u8>,
    long_names: Vec<(ConceptId, usize)>,
}

impl ConceptFacts {
    fn with_capacity(concepts: usize) -> Self {
        ConceptFacts {
            bytes: Vec::with_capacity(concepts),
            long_names: Vec::new(),
        }
    }

    /// Record the next concept, `c`, in id order.
    fn push(&mut self, c: ConceptId, surface_len: usize, stocked: bool) {
        if surface_len >= MAX_SURFACE_LEN {
            self.long_names.push((c, surface_len));
        }
        let len = surface_len.min(MAX_SURFACE_LEN) as u8;
        self.bytes.push((len << 1) | u8::from(stocked));
    }

    /// Append the facts of the concepts after these, in id order.
    fn append(&mut self, next: ConceptFacts) {
        self.bytes.extend(next.bytes);
        self.long_names.extend(next.long_names);
    }

    /// The byte of `c`; zero for an id outside the net.
    fn byte(&self, c: ConceptId) -> u8 {
        self.bytes.get(c.index()).copied().unwrap_or(0)
    }

    /// The distinct surface-word count of `c`; zero for an id outside the
    /// net.
    fn surface_len(&self, c: ConceptId) -> usize {
        let len = usize::from(self.byte(c) >> 1);
        if len < MAX_SURFACE_LEN {
            return len;
        }
        self.long_names
            .binary_search_by_key(&c, |&(id, _)| id)
            .map_or(len, |at| self.long_names.get(at).map_or(len, |&(_, n)| n))
    }
}

/// Inverted indices built once over a net for fast serving-side queries.
///
/// Besides the primitive → concepts lookup, the index carries
/// *token-level* postings so keyword retrieval never scans a layer:
/// [`concepts_by_token`](Self::concepts_by_token) maps every
/// concept-surface token **and** every interpreting-primitive surface to
/// the concepts it evidences (which is exactly the set of concepts a
/// query word can give a non-zero retrieval score to, preserving
/// order-free matching). It owns everything it holds: the net it was
/// built from is the caller's to keep.
///
/// Every list kind lives in one arena with an offsets table ([`Csr`]),
/// built to size: the build counts each list's entries first, then fills
/// the arena once.
pub struct QueryIndex {
    /// Every concept-surface and primitive-name token, to its slot in the
    /// per-token lists below.
    slots: FxHashMap<String, u32>,
    concepts_by_token: Csr<ConceptId>,
    /// The fact byte of each `concepts_by_token` entry, at its offset.
    entry_facts: Vec<u8>,
    /// Per token, the summaries of its concept list's blocks, then of its
    /// runs of blocks.
    blocks: Csr<BlockMax>,
    /// Indexed by primitive id.
    concepts_by_primitive: Csr<ConceptId>,
    concept_facts: ConceptFacts,
}

/// Marks a primitive whose name has no slot yet.
const NO_SLOT: u32 = u32::MAX;

/// Token → slot during a build: every token in a hash map, slots numbered
/// in first-seen order, and each primitive name's slot cached by
/// primitive id so a concept's primitive entries cost no hashing. Tokens
/// are borrowed from the net until the finished index copies them.
struct SlotTable<'a> {
    kg: &'a AliCoCo,
    by_token: FxHashMap<&'a str, u32>,
    /// Every token, at its slot.
    words: Vec<&'a str>,
    by_primitive: Vec<u32>,
}

impl<'a> SlotTable<'a> {
    fn new(kg: &'a AliCoCo) -> Self {
        SlotTable {
            kg,
            by_token: FxHashMap::default(),
            words: Vec::new(),
            by_primitive: vec![NO_SLOT; kg.num_primitives()],
        }
    }

    /// The slot of `tok`, numbered now if it has none.
    fn word(&mut self, tok: &'a str) -> u32 {
        if let Some(&slot) = self.by_token.get(tok) {
            return slot;
        }
        let slot = to_u32(self.words.len());
        self.by_token.insert(tok, slot);
        self.words.push(tok);
        slot
    }

    /// The slot of primitive `p`'s full name.
    fn primitive(&mut self, p: PrimitiveId) -> u32 {
        match self.by_primitive.get(p.index()) {
            Some(&slot) if slot != NO_SLOT => slot,
            _ => {
                let slot = self.word(&self.kg.primitive(p).name);
                if let Some(cached) = self.by_primitive.get_mut(p.index()) {
                    *cached = slot;
                }
                slot
            }
        }
    }

    /// The distinct tokens that evidence concept `node`, as `(slot, fact
    /// byte)` pairs into `out`; returns how many are surface words.
    /// Sorting groups a word that is a surface word and a primitive name,
    /// or names several primitives.
    fn concept_entries(&mut self, node: ConceptRef<'a>, out: &mut Vec<(u32, u8)>) -> usize {
        out.clear();
        for_each_word(node.name, |w| out.push((self.word(w), SURFACE)));
        for &p in node.primitives {
            out.push((self.primitive(p), ONE_PRIMITIVE));
        }
        out.sort_unstable();
        // Equal tokens are now adjacent, surface entries first: a repeated
        // surface word collapses, primitive names add up.
        out.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same && later.1 == ONE_PRIMITIVE && kept.1 >> 1 < MAX_PRIMITIVE_HITS {
                kept.1 += ONE_PRIMITIVE;
            }
            same
        });
        out.iter().filter(|(_, f)| f & SURFACE != 0).count()
    }
}

/// Call `f` on each word of `name` — exactly what `name.split(' ')`
/// yields, empty words included — found by a plain byte scan, which
/// costs a short name a fraction of what the general pattern search does.
fn for_each_word<'a>(name: &'a str, mut f: impl FnMut(&'a str)) {
    let mut start = 0;
    for (i, &b) in name.as_bytes().iter().enumerate() {
        if b == b' ' {
            f(name.get(start..i).unwrap_or_default());
            start = i + 1;
        }
    }
    f(name.get(start..).unwrap_or_default());
}

/// One id range of the concept layer, indexed on a core of its own. Its
/// table numbers the tokens it meets in its own first-seen order;
/// `index_slot` maps that numbering to the index's.
struct Half<'a> {
    concepts: Range<usize>,
    table: SlotTable<'a>,
    /// Posting entries per token, by the index's slot once merged.
    per_token: Vec<u32>,
    per_primitive: Vec<u32>,
    facts: ConceptFacts,
    /// The index's slot of each of `table`'s.
    index_slot: Vec<u32>,
}

impl<'a> Half<'a> {
    /// Number the tokens of `concepts` and count their posting entries.
    fn count(kg: &'a AliCoCo, concepts: Range<usize>) -> Self {
        let mut table = SlotTable::new(kg);
        let mut facts = ConceptFacts::with_capacity(concepts.len());
        let mut per_token = Vec::new();
        let mut per_primitive = vec![0; kg.num_primitives()];
        let mut entries = Vec::new();
        for c in concepts.clone().map(ConceptId::from_index) {
            let node = kg.concept(c);
            // One posting entry per distinct token: surface words plus the
            // full surface of every interpreting primitive (a primitive
            // match is what makes retrieval order-free, §8.1).
            let surface_len = table.concept_entries(node, &mut entries);
            facts.push(c, surface_len, !node.items.is_empty());
            for &(slot, _) in &entries {
                count(&mut per_token, slot as usize);
            }
            for &p in node.primitives {
                count(&mut per_primitive, p.index());
            }
        }
        Half {
            concepts,
            table,
            per_token,
            per_primitive,
            facts,
            index_slot: Vec::new(),
        }
    }

    /// Number this half's tokens in `index`, after those it already has,
    /// and re-key the counts by those slots.
    fn merge_into(&mut self, index: &mut SlotTable<'a>) {
        self.index_slot = self.table.words.iter().map(|w| index.word(w)).collect();
        let mut per_token = vec![0; index.words.len()];
        for (&slot, &n) in self.index_slot.iter().zip(&self.per_token) {
            if let Some(total) = per_token.get_mut(slot as usize) {
                *total = n;
            }
        }
        self.per_token = per_token;
    }

    /// Write this half's entries into its share of every list: `ids` and
    /// `facts` by the index's slot, `by_primitive` by primitive id.
    fn fill(
        &mut self,
        mut ids: Vec<&mut [ConceptId]>,
        mut facts: Vec<&mut [u8]>,
        mut by_primitive: Vec<&mut [ConceptId]>,
    ) {
        let kg = self.table.kg;
        let mut entries = Vec::new();
        for c in self.concepts.clone().map(ConceptId::from_index) {
            let node = kg.concept(c);
            self.table.concept_entries(node, &mut entries);
            for &(local, fact) in &entries {
                let slot = self
                    .index_slot
                    .get(local as usize)
                    .map_or(0, |&s| s as usize);
                put(ids.get_mut(slot), c);
                put(facts.get_mut(slot), fact);
            }
            for &p in node.primitives {
                put(by_primitive.get_mut(p.index()), c);
            }
        }
    }
}

/// Write `v` at the front of a list's unwritten rest and step past it.
fn put<T>(rest: Option<&mut &mut [T]>, v: T) {
    if let Some(rest) = rest {
        if let Some((first, tail)) = std::mem::take(rest).split_first_mut() {
            *first = v;
            *rest = tail;
        }
    }
}

/// Cut an arena of lists, list `k` of length `first[k] + second[k]`, into
/// each list's first `first[k]` entries and its last `second[k]`. The
/// arena was sized from the same counts, so every cut is in bounds.
fn split_lists<'v, T>(
    mut values: &'v mut [T],
    first: &[u32],
    second: &[u32],
) -> (Vec<&'v mut [T]>, Vec<&'v mut [T]>) {
    let mut heads = Vec::with_capacity(first.len());
    let mut tails = Vec::with_capacity(second.len());
    for (&a, &b) in first.iter().zip(second) {
        let cut =
            |rest: &'v mut [T], n: u32| rest.split_at_mut_checked(n as usize).unwrap_or_default();
        let (head, rest) = cut(std::mem::take(&mut values), a);
        let (tail, rest) = cut(rest, b);
        heads.push(head);
        tails.push(tail);
        values = rest;
    }
    (heads, tails)
}

impl QueryIndex {
    /// Build all inverted indices: one pass over each layer counts every
    /// list's entries, a second fills the arenas sized by the counts.
    ///
    /// The concept layer is counted and filled in two id halves, one on
    /// each of two cores. The second half's new tokens are numbered after
    /// all of the first half's, in the order it met them — first-seen
    /// order over the whole layer — and each half writes the entries of
    /// its ids into its own share of every list: the first half's ids
    /// lead each list, so lists stay ascending. The index is the one a
    /// single pass builds.
    pub fn build(kg: &AliCoCo) -> Self {
        let n = kg.num_concepts();
        let (mut first, mut second) =
            par::join(|| Half::count(kg, 0..n / 2), || Half::count(kg, n / 2..n));
        let mut table = SlotTable::new(kg);
        first.merge_into(&mut table);
        second.merge_into(&mut table);
        first.per_token.resize(table.words.len(), 0);

        // Every token has its slot now: the second pass only looks up.
        let per_token: Vec<u32> = first
            .per_token
            .iter()
            .zip(&second.per_token)
            .map(|(a, b)| a + b)
            .collect();
        let per_primitive: Vec<u32> = first
            .per_primitive
            .iter()
            .zip(&second.per_primitive)
            .map(|(a, b)| a + b)
            .collect();
        let (mut concepts_by_token, _) = Csr::sized(&per_token, ConceptId(0));
        let mut entry_facts = vec![0; concepts_by_token.values.len()];
        let (mut concepts_by_primitive, _) = Csr::sized(&per_primitive, ConceptId(0));
        let (ids_a, ids_b) = split_lists(
            &mut concepts_by_token.values,
            &first.per_token,
            &second.per_token,
        );
        let (facts_a, facts_b) = split_lists(&mut entry_facts, &first.per_token, &second.per_token);
        let (prims_a, prims_b) = split_lists(
            &mut concepts_by_primitive.values,
            &first.per_primitive,
            &second.per_primitive,
        );
        par::join(
            || first.fill(ids_a, facts_a, prims_a),
            || second.fill(ids_b, facts_b, prims_b),
        );
        let mut concept_facts = first.facts;
        concept_facts.append(second.facts);

        let per_list: Vec<u32> = per_token
            .iter()
            .map(|&n| {
                let blocks = n.div_ceil(BLOCK as u32);
                blocks + blocks.div_ceil(RUN as u32)
            })
            .collect();
        let (mut blocks, mut next) = Csr::sized(&per_list, BlockMax::EMPTY);
        for slot in 0..per_token.len() {
            let range = concepts_by_token.range(slot);
            let ids = concepts_by_token.values.get(range.clone()).unwrap_or(&[]);
            let facts = entry_facts.get(range).unwrap_or(&[]);
            for (ids, facts) in ids.chunks(BLOCK).zip(facts.chunks(BLOCK)) {
                if let Some(block) = BlockMax::of(ids, facts, &concept_facts) {
                    blocks.fill(&mut next, slot, block);
                }
            }
            // The list's block summaries are in place: fold each run of them.
            let start = blocks.range(slot).start;
            let end = start + ids.len().div_ceil(BLOCK);
            for run in (start..end).step_by(RUN) {
                let run = blocks.values.get(run..end.min(run + RUN)).unwrap_or(&[]);
                if let Some(run) = run.iter().copied().reduce(BlockMax::fold) {
                    blocks.fill(&mut next, slot, run);
                }
            }
        }
        let slots = table
            .words
            .iter()
            .enumerate()
            .map(|(slot, w)| (w.to_string(), to_u32(slot)))
            .collect();
        QueryIndex {
            slots,
            concepts_by_token,
            entry_facts,
            blocks,
            concepts_by_primitive,
            concept_facts,
        }
    }

    /// Concepts interpreted by a primitive ("which needs involve
    /// *barbecue*?").
    pub fn concepts_by_primitive(&self, p: PrimitiveId) -> &[ConceptId] {
        self.concepts_by_primitive.get(p.index())
    }

    /// The concept posting list of `token`, if it has a slot.
    fn concept_list(&self, token: &str) -> Option<ConceptPostings<'_>> {
        let slot = *self.slots.get(token)? as usize;
        let range = self.concepts_by_token.range(slot);
        Some(ConceptPostings {
            ids: self.concepts_by_token.values.get(range.clone())?,
            facts: self.entry_facts.get(range)?,
            blocks: self.blocks.get(slot),
        })
    }

    /// Concepts a query token can evidence: every concept whose surface
    /// contains the token as a word, or that is interpreted by a primitive
    /// whose full surface equals the token. Ascending id order, no dups.
    pub fn concepts_by_token(&self, token: &str) -> &[ConceptId] {
        self.concept_list(token).map_or(&[], |list| list.ids)
    }

    /// Merge the posting lists of `words` (repeats count once) into one
    /// ascending stream of the distinct concepts they evidence, each with
    /// how many of the words are surface words of it and how many of its
    /// primitives they name — all a token-overlap scorer needs, so scoring
    /// the stream is equivalent to a string scan of the concept layer.
    /// Nothing is allocated until a word has a non-empty posting list.
    pub fn concept_matches<'a, 'w>(
        &'a self,
        words: impl IntoIterator<Item = &'w str>,
    ) -> ConceptMatches<'a> {
        let mut lists: Vec<(&'w str, ConceptPostings<'a>)> = Vec::new();
        for w in words {
            match self.concept_list(w) {
                Some(list) if !list.ids.is_empty() => lists.push((w, list)),
                _ => {}
            }
        }
        lists.sort_unstable_by_key(|&(w, _)| w);
        lists.dedup_by_key(|&mut (w, _)| w);
        let mut rest: BinaryHeap<Cursor<'a>> =
            lists.iter().map(|&(_, list)| Cursor::new(list)).collect();
        ConceptMatches {
            postings: lists.iter().map(|(_, list)| list.ids.len()).sum(),
            front: rest.pop().unwrap_or_default(),
            rest,
        }
    }

    /// The distinct candidate concepts of a set of query words, ascending,
    /// plus the number of posting entries walked to find them — the
    /// retrieval-side work measure the serving metrics report (deduped
    /// candidates alone hide how much posting traffic a hot token causes).
    pub fn concept_candidates_counted<'w>(
        &self,
        words: impl IntoIterator<Item = &'w str>,
    ) -> (Vec<ConceptId>, usize) {
        let matches = self.concept_matches(words);
        let postings = matches.postings();
        (matches.map(|m| m.concept).collect(), postings)
    }

    /// Distinct surface words of a concept's name — the denominator of
    /// search's surface-coverage score. `0` for an id outside the net.
    pub fn surface_len(&self, c: ConceptId) -> usize {
        self.concept_facts.surface_len(c)
    }

    /// Whether a concept has items to show.
    pub fn is_stocked(&self, c: ConceptId) -> bool {
        self.concept_facts.byte(c) & STOCKED != 0
    }
}

/// One concept on the posting lists of a query, with its integer evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConceptMatch {
    /// The concept.
    pub concept: ConceptId,
    /// Distinct query words that are surface words of the concept.
    pub surface_hits: u32,
    /// The concept's primitives named by a query word.
    pub primitive_hits: u32,
}

/// The most a run of posting blocks can give any one concept on it: the
/// ceilings of [`ConceptMatch`]'s counts summed over the lists, the
/// smallest surface-word count and whether any of its concepts is stocked.
/// A scorer that never falls as counts or stock rise, nor rises as the
/// surface length does, bounds every concept of the run by scoring this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ceiling {
    /// Most query words that can be surface words of one concept.
    pub surface_hits: u32,
    /// Most primitives of one concept the query words can name.
    pub primitive_hits: u32,
    /// Fewest distinct surface words of a concept in the run.
    pub surface_len: usize,
    /// Whether any concept in the run is stocked.
    pub stocked: bool,
}

impl Ceiling {
    /// Nothing yet: the sum's identity.
    const NONE: Ceiling = Ceiling {
        surface_hits: 0,
        primitive_hits: 0,
        surface_len: usize::MAX,
        stocked: false,
    };

    /// The ceiling of a run covered by the blocks of both.
    fn plus(self, other: Ceiling) -> Ceiling {
        Ceiling {
            surface_hits: self.surface_hits + other.surface_hits,
            primitive_hits: self.primitive_hits + other.primitive_hits,
            surface_len: self.surface_len.min(other.surface_len),
            stocked: self.stocked || other.stocked,
        }
    }
}

/// What is left of one posting list during a merge: ids and, aligned with
/// them, their fact bytes, with the block summaries and length of the list
/// they are the tail of. Ordered by head id, *smallest greatest* (so a
/// max-heap pops the smallest head), an exhausted list smallest of all.
#[derive(Clone, Copy, Default)]
struct Cursor<'a> {
    ids: &'a [ConceptId],
    facts: &'a [u8],
    blocks: &'a [BlockMax],
    len: usize,
}

impl<'a> Cursor<'a> {
    fn new(list: ConceptPostings<'a>) -> Self {
        Cursor {
            ids: list.ids,
            facts: list.facts,
            blocks: list.blocks,
            len: list.ids.len(),
        }
    }

    /// The head id, if any entry is left.
    fn first(&self) -> Option<ConceptId> {
        self.ids.first().copied()
    }

    fn is_done(&self) -> bool {
        self.ids.is_empty()
    }

    /// The head id as a sort key; an exhausted list sorts after every id.
    fn head(&self) -> usize {
        self.ids.first().map_or(usize::MAX, |c| c.index())
    }

    /// Drop the head entry, adding its fact to `found`.
    fn take_head(&mut self, found: &mut ConceptMatch) {
        if let Some((&fact, rest)) = self.facts.split_first() {
            found.surface_hits += u32::from(fact & SURFACE);
            found.primitive_hits += u32::from(fact >> 1);
            self.facts = rest;
        }
        self.ids = self.ids.get(1..).unwrap_or(&[]);
    }

    /// Index of the head entry in its list.
    fn at(&self) -> usize {
        self.len - self.ids.len()
    }

    /// Step over what is left of the head block.
    fn skip_block(&mut self) {
        self.advance(BLOCK - self.at() % BLOCK);
    }

    /// Step over what is left of the head run.
    fn skip_run(&mut self) {
        self.advance(RUN_ENTRIES - self.at() % RUN_ENTRIES);
    }

    /// Step over `n` entries.
    fn advance(&mut self, n: usize) {
        self.ids = self.ids.get(n..).unwrap_or(&[]);
        self.facts = self.facts.get(n..).unwrap_or(&[]);
    }

    /// The summary of the head's block; `None` once exhausted.
    fn block(&self) -> Option<&'a BlockMax> {
        if self.is_done() {
            return None;
        }
        self.blocks.get(self.at() / BLOCK)
    }

    /// The summary of the head's run, kept after the list's blocks; `None`
    /// once exhausted.
    fn run(&self) -> Option<&'a BlockMax> {
        if self.is_done() {
            return None;
        }
        self.blocks
            .get(self.len.div_ceil(BLOCK) + self.at() / RUN_ENTRIES)
    }

    /// Move to the first entry whose id is not below `id`, reading no fact
    /// byte (see [`gallop`]). Returns whether the cursor moved.
    fn seek(&mut self, id: usize) -> bool {
        let step = gallop(self.ids, 0, id);
        self.advance(step);
        step > 0
    }
}

impl Ord for Cursor<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.head().cmp(&self.head())
    }
}

impl PartialOrd for Cursor<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Cursor<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.head() == other.head()
    }
}

impl Eq for Cursor<'_> {}

/// The k-way merge behind [`QueryIndex::concept_matches`]. The list with
/// the smallest head stays out of the heap, so a run of ids only it holds
/// costs two comparisons an id and no sift; a step is `O(log lists)` at
/// worst whatever the query length, and no scratch is sized by the concept
/// layer.
pub struct ConceptMatches<'a> {
    /// The list whose head is the smallest id not yet yielded.
    front: Cursor<'a>,
    /// The other lists not yet exhausted, smallest head on top.
    rest: BinaryHeap<Cursor<'a>>,
    postings: usize,
}

impl<'a> ConceptMatches<'a> {
    /// Total length of the merged posting lists.
    pub fn postings(&self) -> usize {
        self.postings
    }

    /// Whether the merge is long enough, 16 blocks, to be
    /// [`pruned`](Self::pruned) under a vector bonus: a shorter one stays
    /// the plain merge there.
    pub fn worth_pruning(&self) -> bool {
        self.postings >= MIN_PRUNED_POSTINGS
    }

    /// The same merge yielding only what can still reach the page: the
    /// caller raises `floor` to the least score a concept it has not seen
    /// needs to enter the page as it consumes the stream, and `ceiling` is
    /// its score applied to a [`Ceiling`]. A concept is left out only when
    /// its best possible score is strictly below the floor, so with a
    /// scorer monotone in the way [`Ceiling`] asks, every concept whose
    /// score reaches the floor — a tie included — is yielded, with all its
    /// evidence.
    pub fn pruned(
        mut self,
        floor: &'a Floor,
        ceiling: &'a dyn Fn(Ceiling) -> Option<f64>,
    ) -> PrunedMatches<'a> {
        let mut lists = Vec::with_capacity(1 + self.rest.len());
        lists.push(std::mem::take(&mut self.front));
        lists.extend(std::iter::from_fn(|| self.rest.pop()));
        PrunedMatches {
            front: Cursor::default(),
            rest: self.rest,
            bypass: 0,
            windows: Windows {
                end: 0,
                lists,
                probed: 0,
                drop_unprobed: false,
                floor,
                ceiling,
            },
        }
    }
}

impl Iterator for ConceptMatches<'_> {
    type Item = ConceptMatch;

    // Forced: left to the heuristic the serving binary calls this per
    // candidate with the cursors in memory, which doubles the merge's cost.
    #[inline(always)]
    fn next(&mut self) -> Option<ConceptMatch> {
        merge_step(&mut self.front, &mut self.rest)
    }
}

/// What a pruning merge and the ranking consuming it share: the least
/// score a concept not yet yielded needs to enter the page, which the
/// ranking raises as the page fills, and what the merge did about it — the
/// windows it evaluated and how many times a list stepped over part of a
/// block unread.
#[derive(Debug)]
pub struct Floor {
    kth: Cell<f64>,
    windows: Cell<usize>,
    blocks_skipped: Cell<usize>,
}

impl Default for Floor {
    fn default() -> Self {
        Floor {
            kth: Cell::new(f64::NEG_INFINITY),
            windows: Cell::new(0),
            blocks_skipped: Cell::new(0),
        }
    }
}

impl Floor {
    /// Record a score that a concept not yet yielded needs to reach the
    /// page: nothing strictly below the highest so far is yielded from then
    /// on. `-inf` until the page is full; a lower score than the last
    /// leaves it.
    pub fn raise(&self, kth: f64) {
        if kth > self.kth.get() {
            self.kth.set(kth);
        }
    }

    /// Windows evaluated so far, whether stepped over or opened.
    pub fn windows(&self) -> usize {
        self.windows.get()
    }

    /// Block runs stepped over so far.
    pub fn blocks_skipped(&self) -> usize {
        self.blocks_skipped.get()
    }

    fn skipped(&self, runs: usize) {
        self.blocks_skipped.set(self.blocks_skipped.get() + runs);
    }
}

/// [`ConceptMatches::pruned`]: the merge walking the id space in
/// *windows*. Inside a window every list is one block or one run of
/// blocks, so their summed [`Ceiling`] bounds every concept in it. When
/// that bound is strictly below the page's k-th score the window is
/// stepped over unread. Otherwise the lists whose bounds together still
/// cannot reach it are only *probed* — looked up at the ids the others
/// yield — and a concept they alone hold is never yielded (MaxScore, per
/// window). When the merged lists' blocks alone cannot reach the floor
/// either, only an id both kinds hold can, and the window intersects them
/// instead ([`Windows::intersect`]).
pub struct PrunedMatches<'a> {
    /// The merged list whose head is the smallest id not yet yielded.
    front: Cursor<'a>,
    /// The other merged lists of the window, smallest head on top.
    rest: BinaryHeap<Cursor<'a>>,
    /// The plain merge yields heads below this: past the window's end, or
    /// none at all while lists are probed.
    bypass: usize,
    windows: Windows<'a>,
}

/// The window state of a pruning merge, apart from the cursors it merges:
/// calls into it never see the front cursor, which stays in registers.
struct Windows<'a> {
    /// Last id of the open window: a head past it opens the next one.
    end: usize,
    /// Every unexhausted list the open window does not merge, its probed
    /// lists first. Its capacity holds every list of the query, so no
    /// window allocates.
    lists: Vec<Cursor<'a>>,
    /// How many of `lists` are probed.
    probed: usize,
    /// Whether a concept none of the probed lists holds falls short of the
    /// floor: the merged lists' blocks together cannot reach it, so the
    /// window is walked by [`intersect`](Self::intersect).
    drop_unprobed: bool,
    floor: &'a Floor,
    /// The best score a [`Ceiling`] allows, `None` when not positive.
    ceiling: &'a dyn Fn(Ceiling) -> Option<f64>,
}

/// A summary level of a posting list: its head's block or its head's run.
type Level<'a> = fn(&Cursor<'a>) -> Option<&'a BlockMax>;

/// The last id of the first `level` summary of any of `lists` to end.
fn first_end<'a>(lists: &[Cursor<'a>], level: Level<'a>) -> Option<usize> {
    let ends = lists.iter().filter_map(level);
    ends.map(|b| b.last.index()).min()
}

/// The lists a window probes, being chosen: `lists[..probed]`, whose
/// summaries sum to `left_out`.
struct Probed {
    probed: usize,
    left_out: Ceiling,
}

impl Probed {
    /// Offer each list after the probed ones with entries up to `end`, in
    /// order, to be probed on its `level` summary: it is — moved up beside
    /// the others — when with them it still falls short (`below`). Returns
    /// how many were not.
    fn offer<'a>(
        &mut self,
        lists: &mut [Cursor<'a>],
        end: usize,
        level: Level<'a>,
        below: impl Fn(Ceiling) -> bool,
    ) -> usize {
        let mut merged = 0;
        for i in self.probed..lists.len() {
            let Some(c) = lists.get(i).filter(|c| c.head() <= end) else {
                continue;
            };
            let with = self
                .left_out
                .plus(level(c).map_or(Ceiling::NONE, BlockMax::ceiling));
            if below(with) {
                self.left_out = with;
                lists.swap(i, self.probed);
                self.probed += 1;
            } else {
                merged += 1;
            }
        }
        merged
    }
}

impl<'a> Windows<'a> {
    /// Close the window — `front` and `rest` are past it — and open the
    /// next one that can hold a candidate, returning its front cursor with
    /// its other merged lists in `rest` and the id the plain merge may run
    /// up to; `None` when the lists are exhausted.
    ///
    /// A window is decided in one pass over the lists per summary level,
    /// densest first. Runs first: up to the first run end of any list,
    /// each list in it is probed for its run if the lists probed with it
    /// still cannot reach the floor. Then blocks: the window ends at the
    /// first block end of a list not probed, and each of those in it is
    /// probed on its block the same way. A window whose lists are all
    /// probed is stepped over.
    fn open(
        &mut self,
        front: Cursor<'a>,
        rest: &mut BinaryHeap<Cursor<'a>>,
    ) -> Option<(Cursor<'a>, usize)> {
        let lists = &mut self.lists;
        // The probed lists step over what is left of the window unread.
        for c in lists.iter_mut().take(self.probed) {
            if c.seek(self.end.saturating_add(1)) {
                self.floor.skipped(1);
            }
        }
        lists.push(front);
        lists.extend(std::iter::from_fn(|| rest.pop()));
        loop {
            if lists.iter().any(Cursor::is_done) {
                lists.retain(|c| !c.is_done());
            }
            let run_end = first_end(lists, Cursor::run)?;
            // Densest first, taken as the list whose block ends first. The
            // order is mostly the last window's, which one pass confirms.
            lists.sort_unstable_by_key(|c| c.block().map_or(usize::MAX, |b| b.last.index()));
            self.floor.windows.set(self.floor.windows.get() + 1);
            let floor = self.floor.kth.get();
            let below = |bound: Ceiling| (self.ceiling)(bound).is_none_or(|best| best < floor);
            let mut chosen = Probed {
                probed: 0,
                left_out: Ceiling::NONE,
            };
            let mut end = run_end;
            if chosen.offer(lists, end, Cursor::run, below) > 0 {
                let unprobed = lists.get(chosen.probed..).unwrap_or(&[]);
                end = first_end(unprobed, Cursor::block).map_or(end, |e| e.min(end));
                // A probed list whose block reaches the window's end is
                // bounded there by the block.
                let probed = lists.iter().take(chosen.probed).map(|c| {
                    let block = c.block().filter(|b| b.last.index() >= end);
                    block
                        .or_else(|| c.run())
                        .map_or(Ceiling::NONE, BlockMax::ceiling)
                });
                chosen.left_out = probed.fold(Ceiling::NONE, Ceiling::plus);
                if chosen.offer(lists, end, Cursor::block, below) > 0 {
                    self.end = end;
                    self.probed = chosen.probed;
                    let mut merged = Ceiling::NONE;
                    for at in (chosen.probed..lists.len()).rev() {
                        if lists.get(at).is_some_and(|c| c.head() <= end) {
                            let c = lists.swap_remove(at);
                            merged =
                                merged.plus(c.block().map_or(Ceiling::NONE, BlockMax::ceiling));
                            rest.push(c);
                        }
                    }
                    self.drop_unprobed = below(merged);
                    let bypass = if chosen.probed == 0 { end + 1 } else { 0 };
                    return rest.pop().map(|front| (front, bypass));
                }
            }
            // Nothing up to `end` can reach the floor.
            let (mut stepped, mut lone) = (0, 0);
            for (at, c) in lists.iter_mut().enumerate() {
                if c.head() <= end {
                    c.seek(end.saturating_add(1));
                    (stepped, lone) = (stepped + 1, at);
                }
            }
            self.floor.skipped(stepped);
            if stepped == 1 {
                // A lone list goes on stepping over whole runs and blocks
                // that end before any other list's head, while each alone
                // falls short.
                let others = lists.iter().enumerate().filter(|&(at, _)| at != lone);
                let others = others.map(|(_, c)| c.head()).min().unwrap_or(usize::MAX);
                let short = |b: &BlockMax| b.last.index() < others && below(b.ceiling());
                if let Some(c) = lists.get_mut(lone) {
                    loop {
                        if c.run().is_some_and(short) {
                            c.skip_run();
                        } else if c.block().is_some_and(short) {
                            c.skip_block();
                        } else {
                            break;
                        }
                        self.floor.skipped(1);
                    }
                }
            }
        }
    }

    /// The next candidate at or past the end of the open window, or in a
    /// window with probed lists, with the front cursor after it and the id
    /// the plain merge may run up to. Not `#[cold]`: at 1 M concepts most
    /// candidates come through here.
    #[inline(never)]
    fn step(
        &mut self,
        mut front: Cursor<'a>,
        rest: &mut BinaryHeap<Cursor<'a>>,
        mut bypass: usize,
    ) -> (Cursor<'a>, usize, Option<ConceptMatch>) {
        loop {
            if front.head() > self.end {
                match self.open(front, rest) {
                    Some(opened) => (front, bypass) = opened,
                    None => return (Cursor::default(), usize::MAX, None),
                }
            }
            if self.drop_unprobed && !self.intersect(&mut front, rest) {
                continue;
            }
            let block = front.block();
            let Some(mut found) = merge_step(&mut front, rest) else {
                return (front, bypass, None);
            };
            self.probe(&mut found);
            if self.reaches(&found, block) {
                return (front, bypass, Some(found));
            }
        }
    }

    /// Whether `found`, with all its evidence, can still reach the floor:
    /// its own counts, scored with the shortest name and any stock of
    /// `block`, a block that holds it.
    fn reaches(&self, found: &ConceptMatch, block: Option<&BlockMax>) -> bool {
        let floor = self.floor.kth.get();
        if floor == f64::NEG_INFINITY {
            return true;
        }
        let Some(block) = block else {
            return true;
        };
        let bound = Ceiling {
            surface_hits: found.surface_hits,
            primitive_hits: found.primitive_hits,
            ..block.ceiling()
        };
        (self.ceiling)(bound).is_some_and(|best| best >= floor)
    }

    /// Add the probed lists' evidence to `found`.
    fn probe(&mut self, found: &mut ConceptMatch) {
        let head = found.concept.index();
        for c in self.lists.iter_mut().take(self.probed) {
            c.seek(head);
            if c.head() == head {
                c.take_head(found);
            }
        }
    }

    /// In a window where only a concept that a merged list and a probed
    /// list both hold can reach the floor, move every list to the first
    /// such id up to the window's end, reading no fact byte; whether there
    /// is one. A leapfrog of galloping seeks: the probed lists to the
    /// smallest merged head, the merged lists to the smallest probed head.
    /// One merged list against one probed list, the window of a two-word
    /// query, is [`intersect_two`], which moves no cursor until it stops
    /// (DESIGN.md §13.6 has the numbers for keeping both).
    fn intersect(&mut self, front: &mut Cursor<'a>, rest: &mut BinaryHeap<Cursor<'a>>) -> bool {
        // The merged lists stop at the window's end: what lies past it is
        // the next window's to judge.
        let stop = self.end.saturating_add(1);
        if let (Some([probed]), true) = (self.lists.get_mut(..self.probed), rest.is_empty()) {
            return intersect_two(front, probed, stop);
        }
        loop {
            let head = front.head();
            if head >= stop {
                return false;
            }
            let mut next = usize::MAX;
            for c in self.lists.iter_mut().take(self.probed) {
                c.seek(head);
                next = next.min(c.head());
            }
            if next == head {
                return true;
            }
            leap(front, rest, next.min(stop));
        }
    }
}

impl Iterator for PrunedMatches<'_> {
    type Item = ConceptMatch;

    // Inline as the plain merge is; the window work is out of line and
    // takes the front cursor by value, so nothing on the plain path can
    // see it.
    #[inline(always)]
    fn next(&mut self) -> Option<ConceptMatch> {
        if self.front.head() >= self.bypass {
            let front = std::mem::take(&mut self.front);
            let (front, bypass, found) = self.windows.step(front, &mut self.rest, self.bypass);
            (self.front, self.bypass) = (front, bypass);
            return found;
        }
        merge_step(&mut self.front, &mut self.rest)
    }
}

/// [`Windows::intersect`] of one merged and one probed list, on their raw
/// id slices: each side gallops to the other's head, and the cursors move
/// once, when it stops.
fn intersect_two(merged: &mut Cursor<'_>, probed: &mut Cursor<'_>, stop: usize) -> bool {
    let (a, b) = (merged.ids, probed.ids);
    let (mut i, mut j) = (0, 0);
    let found = loop {
        let Some(x) = a.get(i).map(|c| c.index()).filter(|&x| x < stop) else {
            break false;
        };
        j = gallop(b, j, x);
        let y = b.get(j).map_or(usize::MAX, |c| c.index());
        if y == x {
            break true;
        }
        i = gallop(a, i + 1, y.min(stop));
    };
    merged.advance(i);
    probed.advance(j);
    found
}

/// The first index from `at` on whose id is not below `id`: the common
/// moves of none or one entry settled from `at`, then a gallop and a
/// binary search over the span it brackets.
#[inline(always)]
fn gallop(ids: &[ConceptId], at: usize, id: usize) -> usize {
    let below = |i: usize| ids.get(i).is_some_and(|c| c.index() < id);
    if !below(at) {
        return at;
    }
    if !below(at + 1) {
        return at + 1;
    }
    let (mut lo, mut step) = (at + 1, 2);
    while below(lo + step) {
        lo += step;
        step *= 2;
    }
    let span = ids.get(lo + 1..(lo + step).min(ids.len())).unwrap_or(&[]);
    lo + 1 + span.partition_point(|c| c.index() < id)
}

/// Move every list of `front` and `rest` to its first id not below `id`,
/// keeping the smallest head in `front`.
fn leap<'a>(front: &mut Cursor<'a>, rest: &mut BinaryHeap<Cursor<'a>>, id: usize) {
    while front.head() < id {
        front.seek(id);
        if let Some(mut other) = rest.peek_mut() {
            if other.head() < front.head() {
                std::mem::swap(front, &mut *other);
                if other.is_done() {
                    PeekMut::pop(other);
                }
            }
        }
    }
}

/// Yield the smallest head of `front` and `rest` with the evidence of every
/// list holding it, keeping the smallest remaining head in `front`.
#[inline(always)]
fn merge_step<'a>(
    front: &mut Cursor<'a>,
    rest: &mut BinaryHeap<Cursor<'a>>,
) -> Option<ConceptMatch> {
    let mut found = ConceptMatch {
        concept: front.first()?,
        surface_hits: 0,
        primitive_hits: 0,
    };
    let head = front.head();
    front.take_head(&mut found);
    while let Some(mut other) = rest.peek_mut() {
        if other.head() != head {
            // Ids ascend, so this one is larger: hand over when the front
            // list has moved past it (or ended).
            if other.head() < front.head() {
                std::mem::swap(front, &mut *other);
                if other.is_done() {
                    PeekMut::pop(other);
                }
            }
            break;
        }
        other.take_head(&mut found);
        if other.is_done() {
            PeekMut::pop(other);
        }
    }
    Some(found)
}

/// Degree statistics of a layer's out-edges.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DegreeStats {
    /// Min.
    pub min: usize,
    /// Max.
    pub max: usize,
    /// Mean.
    pub mean: f64,
    /// Nodes with zero out-edges.
    pub isolated: usize,
}

fn degree_stats(degrees: impl Iterator<Item = usize>) -> DegreeStats {
    let mut n = 0usize;
    let mut sum = 0usize;
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut isolated = 0usize;
    for d in degrees {
        n += 1;
        sum += d;
        min = min.min(d);
        max = max.max(d);
        if d == 0 {
            isolated += 1;
        }
    }
    if n == 0 {
        return DegreeStats::default();
    }
    DegreeStats {
        min,
        max,
        mean: sum as f64 / n as f64,
        isolated,
    }
}

/// Degree statistics of concept→item edges.
pub fn concept_item_degrees(kg: &AliCoCo) -> DegreeStats {
    degree_stats(kg.concept_ids().map(|c| kg.concept(c).items.len()))
}

/// Degree statistics of item→primitive edges.
pub fn item_primitive_degrees(kg: &AliCoCo) -> DegreeStats {
    degree_stats(kg.item_ids().map(|i| kg.item(i).primitives.len()))
}

#[cfg(test)]
mod build_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemId;

    fn sample() -> (AliCoCo, ConceptId, ItemId, PrimitiveId) {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let event = kg.add_class("Event", Some(root));
        let loc = kg.add_class("Location", Some(root));
        let bbq = kg.add_primitive("barbecue", event);
        let outdoor = kg.add_primitive("outdoor", loc);
        let c = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c, bbq);
        kg.link_concept_primitive(c, outdoor);
        let hyper = kg.add_concept("barbecue");
        kg.add_concept_is_a(c, hyper);
        let grill = kg.add_item(&["grill".into()]);
        kg.link_concept_item(c, grill, 0.9);
        kg.link_item_primitive(grill, bbq);
        (kg, c, grill, bbq)
    }

    #[test]
    fn inverted_indices_answer_reverse_lookups() {
        let (kg, c, _, bbq) = sample();
        let q = QueryIndex::build(&kg);
        assert_eq!(q.concepts_by_primitive(bbq), &[c]);
        let missing = PrimitiveId::from_index(999);
        assert!(q.concepts_by_primitive(missing).is_empty());
    }

    #[test]
    fn token_postings_cover_surfaces_and_primitive_names() {
        let (kg, c, _, _) = sample();
        let q = QueryIndex::build(&kg);
        let hyper = kg.concept_by_name("barbecue").unwrap();
        // "barbecue" evidences both the compound concept (surface token +
        // interpreting primitive) and its hypernym — each exactly once.
        assert_eq!(q.concepts_by_token("barbecue"), &[c, hyper]);
        assert_eq!(q.concepts_by_token("outdoor"), &[c]);
        assert!(q.concepts_by_token("nonexistent").is_empty());
    }

    #[test]
    fn concept_candidates_union_is_deduped() {
        let (kg, c, _, _) = sample();
        let q = QueryIndex::build(&kg);
        let hyper = kg.concept_by_name("barbecue").unwrap();
        let (cands, postings) =
            q.concept_candidates_counted(["barbecue", "outdoor", "missing", "barbecue"]);
        assert_eq!(cands, vec![c, hyper]);
        assert_eq!(postings, 3, "a repeated word is walked once");
    }

    #[test]
    fn degree_stats_account_isolated_nodes() {
        let (mut kg, _, _, _) = sample();
        kg.add_concept("lonely concept");
        let d = concept_item_degrees(&kg);
        assert_eq!(d.max, 1);
        assert_eq!(d.min, 0);
        assert_eq!(d.isolated, 2); // "barbecue" hypernym + "lonely concept"
        let i = item_primitive_degrees(&kg);
        assert_eq!(i.mean, 1.0);
    }

    #[test]
    fn degree_stats_empty_graph() {
        let kg = AliCoCo::new();
        assert_eq!(concept_item_degrees(&kg), DegreeStats::default());
    }

    fn matches(q: &QueryIndex, words: &[&str]) -> (Vec<ConceptMatch>, usize) {
        let merged = q.concept_matches(words.iter().copied());
        let postings = merged.postings();
        (merged.collect(), postings)
    }

    #[test]
    fn matches_count_surface_words_and_named_primitives() {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let brand = kg.add_class("Brand", Some(root));
        let category = kg.add_class("Category", Some(root));
        let apple_brand = kg.add_primitive("apple", brand);
        let apple_fruit = kg.add_primitive("apple", category);
        // Both apples interpret the pie; the word is also on its surface.
        let pie = kg.add_concept("apple pie");
        kg.link_concept_primitive(pie, apple_brand);
        kg.link_concept_primitive(pie, apple_fruit);
        // Evidenced by the primitive name only, and stocked.
        let cider = kg.add_concept("cider");
        kg.link_concept_primitive(cider, apple_fruit);
        let jug = kg.add_item(&["jug".into()]);
        kg.link_concept_item(cider, jug, 0.5);
        // A repeated surface word is one distinct word.
        let twice = kg.add_concept("pie pie");
        let q = QueryIndex::build(&kg);
        let hit = |concept, surface_hits, primitive_hits| ConceptMatch {
            concept,
            surface_hits,
            primitive_hits,
        };
        assert_eq!(
            matches(&q, &["apple"]),
            (vec![hit(pie, 1, 2), hit(cider, 0, 1)], 2)
        );
        assert_eq!(
            matches(&q, &["pie", "apple", "missing"]),
            (vec![hit(pie, 2, 2), hit(cider, 0, 1), hit(twice, 1, 0)], 4)
        );
        assert_eq!(
            [pie, cider, twice].map(|c| (q.surface_len(c), q.is_stocked(c))),
            [(2, false), (1, true), (1, false)]
        );
        assert_eq!(matches(&q, &[]), (vec![], 0));
        assert_eq!(matches(&q, &["missing"]), (vec![], 0));
    }

    /// A net whose word lists run to many blocks: 6 000 one- to
    /// three-word names over six words (plus one word of their own), half
    /// of them interpreted by a primitive named one of the first three
    /// words, every fourth stocked.
    fn long_lists() -> AliCoCo {
        long_lists_of(6_000)
    }

    /// [`long_lists`] with `n` concepts: the first `n` of the same stream.
    fn long_lists_of(n: usize) -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let class = kg.add_class("Event", Some(root));
        let words = ["w0", "w1", "w2", "w3", "w4", "w5"];
        let prims: Vec<PrimitiveId> = words.iter().map(|w| kg.add_primitive(w, class)).collect();
        let item = kg.add_item(&["thing".into()]);
        let mut x: u64 = 7;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 33) % n) as usize
        };
        for i in 0..n {
            let len = 1 + next(3);
            let name: Vec<&str> = (0..len).map(|_| words[next(6)]).collect();
            let c = kg.add_concept(&format!("{} c{i}", name.join(" ")));
            if next(2) == 0 {
                kg.link_concept_primitive(c, prims[next(3)]);
            }
            if i % 4 == 0 {
                kg.link_concept_item(c, item, 0.5);
            }
        }
        kg
    }

    /// The pruned merge yields every concept whose score can still reach
    /// the floor — a tie included — with the plain merge's exact counts,
    /// and nothing the plain merge does not.
    #[test]
    fn pruned_merge_keeps_everything_that_can_reach_the_floor() {
        let kg = long_lists();
        let q = QueryIndex::build(&kg);
        let score = |hits: u32, prims: u32, len: usize, stocked: bool| {
            let mut s = f64::from(hits) / len.max(1) as f64 + 0.3 * f64::from(prims);
            if s > 0.0 && stocked {
                s += 0.1;
            }
            (s > 0.0).then_some(s)
        };
        let ceiling =
            |c: Ceiling| score(c.surface_hits, c.primitive_hits, c.surface_len, c.stocked);
        let mut skipped = 0;
        for words in [
            &["w0"][..],
            &["w1", "w4"],
            &["w0", "w3", "w5"],
            &["w4", "w4"],
            // Short merges: a word with no list, a list shorter than one
            // block, and two words under one run.
            &["nowhere"],
            &["c17"],
            &["c17", "c4242"],
        ] {
            let plain: Vec<ConceptMatch> = q.concept_matches(words.iter().copied()).collect();
            let exact = |m: &ConceptMatch| {
                let c = m.concept;
                score(
                    m.surface_hits,
                    m.primitive_hits,
                    q.surface_len(c),
                    q.is_stocked(c),
                )
            };
            // Fixed floors, and one that rises as the stream is read.
            for floor_at in [0.3, 0.45, 0.6, 0.75, 0.9, 1.1, 1.4, f64::NAN] {
                let floor = Floor::default();
                let mut pruned = Vec::new();
                for m in q
                    .concept_matches(words.iter().copied())
                    .pruned(&floor, &ceiling)
                {
                    pruned.push(m);
                    let kth = if floor_at.is_nan() {
                        pruned.len() as f64 / 400.0
                    } else {
                        floor_at
                    };
                    floor.raise(kth);
                }
                let last = floor.kth.get();
                assert!(
                    pruned.iter().all(|m| plain.contains(m)),
                    "{words:?} {floor_at}"
                );
                let reach = plain.iter().filter(|m| exact(m).is_some_and(|s| s >= last));
                for m in reach {
                    assert!(pruned.contains(m), "{words:?} {floor_at}: {m:?} dropped");
                }
                skipped += floor.blocks_skipped();
            }
        }
        assert!(skipped > 0, "no block was ever skipped");
    }

    /// The score the pruning tests rank by: surface coverage, 0.3 a named
    /// primitive, 0.1 for stock on a positive score.
    fn coverage(c: Ceiling) -> Option<f64> {
        let mut s = f64::from(c.surface_hits) / c.surface_len.max(1) as f64
            + 0.3 * f64::from(c.primitive_hits);
        if s > 0.0 && c.stocked {
            s += 0.1;
        }
        (s > 0.0).then_some(s)
    }

    /// Lists of ~15 runs of blocks each: fixed floors, floors that tie a
    /// concept's exact score, and a rising floor all keep every concept
    /// that can reach the last floor, with the plain merge's exact counts
    /// and nothing it does not yield.
    #[test]
    fn runs_of_blocks_keep_everything_that_can_reach_the_floor() {
        let kg = long_lists_of(48_000);
        let q = QueryIndex::build(&kg);
        assert!(q.concepts_by_token("w0").len() > 10 * RUN_ENTRIES);
        let exact = |m: &ConceptMatch| {
            coverage(Ceiling {
                surface_hits: m.surface_hits,
                primitive_hits: m.primitive_hits,
                surface_len: q.surface_len(m.concept),
                stocked: q.is_stocked(m.concept),
            })
        };
        for words in [
            &["w0"][..],
            &["w1", "w4"],
            &["w0", "w3", "w5"],
            &["w2", "w2"],
        ] {
            let plain: Vec<ConceptMatch> = q.concept_matches(words.iter().copied()).collect();
            let mut scores: Vec<f64> = plain.iter().filter_map(exact).collect();
            scores.sort_by(f64::total_cmp);
            // Ties: floors that equal exact scores near the top.
            let ties = [0.9, 0.99].map(|p| scores[(p * (scores.len() - 1) as f64) as usize]);
            for floor_at in [0.3, 0.6, 0.9, 1.2, 1.5, 2.5, ties[0], ties[1], f64::NAN] {
                let floor = Floor::default();
                let mut pruned = Vec::new();
                for m in q
                    .concept_matches(words.iter().copied())
                    .pruned(&floor, &coverage)
                {
                    pruned.push(m);
                    let kth = if floor_at.is_nan() {
                        pruned.len() as f64 / 4_000.0
                    } else {
                        floor_at
                    };
                    floor.raise(kth);
                }
                let last = floor.kth.get();
                assert!(
                    pruned.windows(2).all(|w| w[0].concept < w[1].concept),
                    "{words:?} {floor_at}: not ascending"
                );
                for m in &pruned {
                    let at = plain.binary_search_by_key(&m.concept, |p| p.concept);
                    assert_eq!(at.map(|at| plain[at]), Ok(*m), "{words:?} {floor_at}");
                }
                let reach = plain.iter().filter(|m| exact(m).is_some_and(|s| s >= last));
                for m in reach {
                    let kept = pruned.binary_search_by_key(&m.concept, |p| p.concept);
                    assert!(kept.is_ok(), "{words:?} {floor_at}: {m:?} dropped");
                }
            }
        }
    }

    /// Above every bound, the lists step over their runs of blocks whole:
    /// at most a window per run and a skip per list and run, where blocks
    /// would take sixteen of each.
    #[test]
    fn a_floor_above_every_bound_steps_over_whole_runs() {
        let kg = long_lists_of(48_000);
        let q = QueryIndex::build(&kg);
        for words in [&["w0"][..], &["w1", "w4"]] {
            let floor = Floor::default();
            floor.raise(100.0);
            let matches = q.concept_matches(words.iter().copied());
            assert_eq!(matches.pruned(&floor, &coverage).count(), 0);
            let runs: usize = words
                .iter()
                .map(|w| q.concepts_by_token(w).len().div_ceil(RUN_ENTRIES))
                .sum();
            assert!(runs >= 10 * words.len(), "{words:?}: {runs} runs");
            assert!(floor.windows() <= runs, "{words:?}: {floor:?}");
            let skips = words.len() * runs;
            assert!(floor.blocks_skipped() <= skips, "{words:?}: {floor:?}");
        }
    }

    /// A run is as strong as its strongest block: 48 000 five-word names
    /// on "w0", with a two-word one, stocked, every 2 000 — mid-run. A
    /// floor between their scores keeps every short name and steps over
    /// every block that holds none.
    #[test]
    fn a_strong_block_inside_a_run_keeps_the_run_open() {
        let mut kg = AliCoCo::new();
        let item = kg.add_item(&["thing".into()]);
        let mut short = Vec::new();
        for i in 0..48_000 {
            let c = if i % 2_000 == 700 {
                let c = kg.add_concept(&format!("w0 c{i}"));
                kg.link_concept_item(c, item, 0.5);
                short.push(c);
                c
            } else {
                kg.add_concept(&format!("w0 w1 w2 w3 c{i}"))
            };
            assert_eq!(c.index(), i);
        }
        let q = QueryIndex::build(&kg);
        let floor = Floor::default();
        floor.raise(0.4);
        let kept: Vec<ConceptId> = q
            .concept_matches(["w0"])
            .pruned(&floor, &coverage)
            .map(|m| m.concept)
            .collect();
        assert!(short.iter().all(|c| kept.contains(c)), "{kept:?}");
        assert!(kept.len() <= BLOCK * short.len(), "{}", kept.len());
        assert!(floor.blocks_skipped() > 0, "{floor:?}");
    }

    /// An intersection stops at its window's end. "a" has a block of
    /// five-word names, then one of two-word names; "p" and "q" hold
    /// five-word names before and after both. In the first block's window
    /// "a" is merged and only what it shares with "p" (or "q") can reach
    /// the floor, and their next ids lie past the strong block, which the
    /// next window keeps whole.
    #[test]
    fn an_intersection_stops_at_the_window_end() {
        let mut kg = AliCoCo::new();
        for i in 0..4 * BLOCK {
            let name = match i / BLOCK {
                1 => format!("a x1 x2 x3 c{i}"),
                2 => format!("a c{i}"),
                _ => format!("p q x1 x2 c{i}"),
            };
            kg.add_concept(&name);
        }
        let q = QueryIndex::build(&kg);
        let strong: Vec<usize> = (2 * BLOCK..3 * BLOCK).collect();
        for (words, floor_at) in [(&["a", "p"][..], 0.35), (&["a", "p", "q"], 0.45)] {
            let floor = Floor::default();
            floor.raise(floor_at);
            let kept: Vec<usize> = q
                .concept_matches(words.iter().copied())
                .pruned(&floor, &coverage)
                .map(|m| m.concept.index())
                .collect();
            assert!(
                strong.iter().all(|c| kept.contains(c)),
                "{words:?}: {kept:?}"
            );
        }
    }

    #[test]
    fn the_floor_never_falls() {
        let floor = Floor::default();
        for (raise, kth) in [(0.5, 0.5), (0.2, 0.5), (f64::NAN, 0.5), (0.7, 0.7)] {
            floor.raise(raise);
            assert_eq!(floor.kth.get(), kth);
        }
    }
}
