//! Read-side query helpers over a built concept net: inverted lookups,
//! degree statistics, and path explanations — the serving-layer API
//! downstream applications compose.
//!
//! Keyword retrieval scores on ids, not strings. Beside each concept
//! posting entry the index keeps one byte — is the token a *surface word*
//! of that concept, and how many of the concept's primitives are *named*
//! the token — and beside each concept its distinct surface-word count and
//! whether it is stocked. [`QueryIndex::concept_matches`] merges the query
//! tokens' id-sorted posting lists and sums those bytes per concept, so a
//! lexical scorer needs nothing but integers (DESIGN.md §13).

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use alicoco_nn::util::{FxHashMap, FxHashSet};

use crate::graph::AliCoCo;
use crate::ids::{ClassId, ConceptId, ItemId, PrimitiveId};

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
/// seven bits hold its distinct surface-word count, saturating (a concept
/// name is a phrase, not a document).
const STOCKED: u8 = 1;
const MAX_SURFACE_LEN: usize = (u8::MAX >> 1) as usize;

/// One token's concept posting list: strictly ascending ids and, aligned
/// with them, the fact byte of each `(token, concept)` entry. `facts` may
/// stop short of `ids` — only for postings handed to
/// [`QueryIndex::from_postings`] whose tail lists concepts that do not
/// carry the token — and a missing fact reads as no evidence.
#[derive(Default)]
struct ConceptPostings {
    ids: Vec<ConceptId>,
    facts: Vec<u8>,
}

/// Inverted indices built once over a net for fast serving-side queries.
///
/// Besides the id-level lookups (`concepts_by_primitive`, …), the index
/// carries *token-level* postings so keyword retrieval never scans a
/// layer: [`concepts_by_token`](Self::concepts_by_token) maps every
/// concept-surface token **and** every interpreting-primitive surface to
/// the concepts it evidences (which is exactly the set of concepts a
/// query word can give a non-zero retrieval score to, preserving
/// order-free matching), and [`items_by_token`](Self::items_by_token)
/// maps title tokens to items.
pub struct QueryIndex<'kg> {
    kg: &'kg AliCoCo,
    concepts_by_primitive: FxHashMap<PrimitiveId, Vec<ConceptId>>,
    items_by_primitive: FxHashMap<PrimitiveId, Vec<ItemId>>,
    primitives_by_domain: FxHashMap<ClassId, Vec<PrimitiveId>>,
    concepts_by_token: FxHashMap<String, ConceptPostings>,
    items_by_token: FxHashMap<String, Vec<ItemId>>,
    /// Per concept: distinct surface-word count and the stocked bit.
    concept_facts: Vec<u8>,
}

/// The distinct tokens that evidence concept `c`, each with its fact byte,
/// into `out`; returns the concept's own fact. Sorting groups a word that
/// is a surface word and a primitive name, or names several primitives.
fn concept_tokens<'kg>(kg: &'kg AliCoCo, c: ConceptId, out: &mut Vec<(&'kg str, u8)>) -> u8 {
    let node = kg.concept(c);
    out.clear();
    out.extend(node.name.split(' ').map(|w| (w, SURFACE)));
    out.extend(
        node.primitives
            .iter()
            .map(|&p| (kg.primitive(p).name.as_str(), ONE_PRIMITIVE)),
    );
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
    let surface_len = out.iter().filter(|(_, f)| f & SURFACE != 0).count();
    ((surface_len.min(MAX_SURFACE_LEN) as u8) << 1) | u8::from(!node.items.is_empty())
}

/// Run `f` on the posting list of `tok`, allocating the key only the first
/// time the token is seen (one `String` per token, not per entry).
fn with_posting<V: Default>(map: &mut FxHashMap<String, V>, tok: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(tok) {
        Some(list) => f(list),
        None => {
            let mut list = V::default();
            f(&mut list);
            map.insert(tok.to_string(), list);
        }
    }
}

/// Sort and dedup a posting list unless it is already strictly ascending
/// (the merge in [`QueryIndex::concept_matches`] assumes it is).
fn normalize<I: Ord + Copy>(ids: &mut Vec<I>) {
    if !ids.is_sorted_by(|a, b| a < b) {
        ids.sort_unstable();
        ids.dedup();
    }
}

impl<'kg> QueryIndex<'kg> {
    /// Build all inverted indices (one pass over each layer).
    pub fn build(kg: &'kg AliCoCo) -> Self {
        let mut concepts_by_token: FxHashMap<String, ConceptPostings> = FxHashMap::default();
        let mut concept_facts = Vec::with_capacity(kg.num_concepts());
        let mut tokens = Vec::new();
        for c in kg.concept_ids() {
            // One posting entry per distinct token: surface words plus the
            // full surface of every interpreting primitive (a primitive
            // match is what makes retrieval order-free, §8.1).
            concept_facts.push(concept_tokens(kg, c, &mut tokens));
            for &(tok, fact) in &tokens {
                with_posting(&mut concepts_by_token, tok, |list| {
                    list.ids.push(c);
                    list.facts.push(fact);
                });
            }
        }
        let mut items_by_token: FxHashMap<String, Vec<ItemId>> = FxHashMap::default();
        let mut title: Vec<&str> = Vec::new();
        for i in kg.item_ids() {
            title.clear();
            title.extend(kg.item(i).title.iter().map(String::as_str));
            title.sort_unstable();
            title.dedup();
            for &tok in &title {
                with_posting(&mut items_by_token, tok, |list| list.push(i));
            }
        }
        Self::with_postings(kg, concepts_by_token, items_by_token, concept_facts)
    }

    /// Build the index from precomputed token postings — the fast-start
    /// path for binary snapshots, which persist exactly the postings
    /// [`build`](Self::build) would tokenize. Lists that are not strictly
    /// ascending are sorted and deduplicated. The per-entry and
    /// per-concept facts are not persisted: one id-order pass over the
    /// concept layer fills them, each list's `facts.len()` serving as the
    /// cursor into its ids (an id whose concept does not carry the token
    /// gets a zero fact: it evidences nothing). The id-level inverted
    /// indices are cheap single scans over edge lists and are always
    /// rebuilt here.
    pub fn from_postings(
        kg: &'kg AliCoCo,
        concept_postings: impl IntoIterator<Item = (String, Vec<ConceptId>)>,
        item_postings: impl IntoIterator<Item = (String, Vec<ItemId>)>,
    ) -> Self {
        let mut concepts_by_token: FxHashMap<String, ConceptPostings> = FxHashMap::default();
        for (tok, mut ids) in concept_postings {
            normalize(&mut ids);
            let facts = Vec::with_capacity(ids.len());
            concepts_by_token.insert(tok, ConceptPostings { ids, facts });
        }
        let mut concept_facts = Vec::with_capacity(kg.num_concepts());
        let mut tokens = Vec::new();
        for c in kg.concept_ids() {
            concept_facts.push(concept_tokens(kg, c, &mut tokens));
            for &(tok, fact) in &tokens {
                let Some(list) = concepts_by_token.get_mut(tok) else {
                    continue;
                };
                let behind = list.ids.get(list.facts.len()..).unwrap_or(&[]);
                let skip = behind.iter().take_while(|&&id| id < c).count();
                list.facts.resize(list.facts.len() + skip, 0);
                if behind.get(skip) == Some(&c) {
                    list.facts.push(fact);
                }
            }
        }
        let mut items_by_token: FxHashMap<String, Vec<ItemId>> = FxHashMap::default();
        for (tok, mut ids) in item_postings {
            normalize(&mut ids);
            items_by_token.insert(tok, ids);
        }
        Self::with_postings(kg, concepts_by_token, items_by_token, concept_facts)
    }

    fn with_postings(
        kg: &'kg AliCoCo,
        mut concepts_by_token: FxHashMap<String, ConceptPostings>,
        mut items_by_token: FxHashMap<String, Vec<ItemId>>,
        concept_facts: Vec<u8>,
    ) -> Self {
        // Every list here grew by doubling. Giving the slack back — each
        // map's before the next one allocates — is what pays for the fact
        // bytes: resident memory stays where it was without them.
        for list in concepts_by_token.values_mut() {
            list.ids.shrink_to_fit();
            list.facts.shrink_to_fit();
        }
        items_by_token.values_mut().for_each(Vec::shrink_to_fit);
        let mut concepts_by_primitive: FxHashMap<PrimitiveId, Vec<ConceptId>> =
            FxHashMap::default();
        for c in kg.concept_ids() {
            for &p in kg.concept(c).primitives {
                concepts_by_primitive.entry(p).or_default().push(c);
            }
        }
        concepts_by_primitive
            .values_mut()
            .for_each(Vec::shrink_to_fit);
        let mut items_by_primitive: FxHashMap<PrimitiveId, Vec<ItemId>> = FxHashMap::default();
        for i in kg.item_ids() {
            for &p in &kg.item(i).primitives {
                items_by_primitive.entry(p).or_default().push(i);
            }
        }
        items_by_primitive.values_mut().for_each(Vec::shrink_to_fit);
        let mut primitives_by_domain: FxHashMap<ClassId, Vec<PrimitiveId>> = FxHashMap::default();
        for p in kg.primitive_ids() {
            let d = kg.class_domain(kg.primitive(p).class);
            primitives_by_domain.entry(d).or_default().push(p);
        }
        QueryIndex {
            kg,
            concepts_by_primitive,
            items_by_primitive,
            primitives_by_domain,
            concepts_by_token,
            items_by_token,
            concept_facts,
        }
    }

    /// Concept postings in lexicographic token order — the deterministic
    /// view the binary snapshot codec serializes (AL005: hash-map postings
    /// must be sorted before they touch a wire format).
    pub fn sorted_concept_postings(&self) -> Vec<(&str, &[ConceptId])> {
        let mut v: Vec<(&str, &[ConceptId])> = self
            .concepts_by_token
            .iter()
            .map(|(t, list)| (t.as_str(), list.ids.as_slice()))
            .collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Item postings in lexicographic token order (see
    /// [`sorted_concept_postings`](Self::sorted_concept_postings)).
    pub fn sorted_item_postings(&self) -> Vec<(&str, &[ItemId])> {
        let mut v: Vec<(&str, &[ItemId])> = self
            .items_by_token
            .iter()
            .map(|(t, ids)| (t.as_str(), ids.as_slice()))
            .collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Concepts interpreted by a primitive ("which needs involve
    /// *barbecue*?").
    pub fn concepts_by_primitive(&self, p: PrimitiveId) -> &[ConceptId] {
        self.concepts_by_primitive
            .get(&p)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Items carrying a primitive property.
    pub fn items_by_primitive(&self, p: PrimitiveId) -> &[ItemId] {
        self.items_by_primitive
            .get(&p)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All primitives under a first-level domain class.
    pub fn primitives_in_domain(&self, domain: ClassId) -> &[PrimitiveId] {
        self.primitives_by_domain
            .get(&domain)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Concepts a query token can evidence: every concept whose surface
    /// contains the token as a word, or that is interpreted by a primitive
    /// whose full surface equals the token. Ascending id order, no dups.
    pub fn concepts_by_token(&self, token: &str) -> &[ConceptId] {
        self.concepts_by_token
            .get(token)
            .map_or(&[], |list| list.ids.as_slice())
    }

    /// Items whose title contains the token. Ascending id order, no dups.
    pub fn items_by_token(&self, token: &str) -> &[ItemId] {
        self.items_by_token
            .get(token)
            .map(Vec::as_slice)
            .unwrap_or(&[])
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
        let mut lists: Vec<(&'w str, &'a ConceptPostings)> = Vec::new();
        for w in words {
            match self.concepts_by_token.get(w) {
                Some(list) if !list.ids.is_empty() => lists.push((w, list)),
                _ => {}
            }
        }
        lists.sort_unstable_by_key(|&(w, _)| w);
        lists.dedup_by_key(|&mut (w, _)| w);
        let mut rest: BinaryHeap<Cursor<'a>> = lists
            .iter()
            .map(|&(_, list)| Cursor {
                ids: &list.ids,
                facts: &list.facts,
            })
            .collect();
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
        usize::from(self.concept_facts.get(c.index()).map_or(0, |f| f >> 1))
    }

    /// Whether a concept has items to show.
    pub fn is_stocked(&self, c: ConceptId) -> bool {
        self.concept_facts
            .get(c.index())
            .is_some_and(|f| f & STOCKED != 0)
    }

    /// The net this index serves.
    pub fn kg(&self) -> &'kg AliCoCo {
        self.kg
    }

    /// Explain why an item is suggested for a concept: the direct edge
    /// weight plus any primitives they share.
    pub fn explain_suggestion(&self, concept: ConceptId, item: ItemId) -> Explanation {
        let direct = self
            .kg
            .concept(concept)
            .items
            .iter()
            .find(|&&(i, _)| i == item)
            .map(|&(_, w)| w);
        let cp: FxHashSet<PrimitiveId> = self
            .kg
            .concept(concept)
            .primitives
            .iter()
            .copied()
            .collect();
        let shared: Vec<PrimitiveId> = self
            .kg
            .item(item)
            .primitives
            .iter()
            .copied()
            .filter(|p| cp.contains(p))
            .collect();
        Explanation {
            direct_weight: direct,
            shared_primitives: shared,
        }
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

/// What is left of one posting list during a merge: ids and, aligned with
/// them, their fact bytes. Ordered by head id, *smallest greatest* (so a
/// max-heap pops the smallest head), an exhausted list smallest of all.
#[derive(Clone, Copy, Default)]
struct Cursor<'a> {
    ids: &'a [ConceptId],
    facts: &'a [u8],
}

impl Cursor<'_> {
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

impl ConceptMatches<'_> {
    /// Total length of the merged posting lists.
    pub fn postings(&self) -> usize {
        self.postings
    }
}

impl Iterator for ConceptMatches<'_> {
    type Item = ConceptMatch;

    // Forced: left to the heuristic the serving binary calls this per
    // candidate with the cursors in memory, which doubles the merge's cost.
    #[inline(always)]
    fn next(&mut self) -> Option<ConceptMatch> {
        let mut found = ConceptMatch {
            concept: *self.front.ids.first()?,
            surface_hits: 0,
            primitive_hits: 0,
        };
        let head = self.front.head();
        self.front.take_head(&mut found);
        while let Some(mut other) = self.rest.peek_mut() {
            if other.head() != head {
                // Ids ascend, so this one is larger: hand over when the
                // front list has moved past it (or ended).
                if other.head() < self.front.head() {
                    std::mem::swap(&mut self.front, &mut *other);
                    if other.ids.is_empty() {
                        PeekMut::pop(other);
                    }
                }
                break;
            }
            other.take_head(&mut found);
            if other.ids.is_empty() {
                PeekMut::pop(other);
            }
        }
        Some(found)
    }
}

/// Why an item relates to a concept.
#[derive(Clone, Debug, PartialEq)]
pub struct Explanation {
    /// Weight of the direct suggestion edge, if present.
    pub direct_weight: Option<f32>,
    /// Primitive concepts on both the concept's interpretation and the
    /// item's properties.
    pub shared_primitives: Vec<PrimitiveId>,
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
mod tests {
    use super::*;

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
        let (kg, c, grill, bbq) = sample();
        let q = QueryIndex::build(&kg);
        assert_eq!(q.concepts_by_primitive(bbq), &[c]);
        assert_eq!(q.items_by_primitive(bbq), &[grill]);
        let event = kg.class_by_name("Event").unwrap();
        assert_eq!(q.primitives_in_domain(event), &[bbq]);
        let missing = PrimitiveId::from_index(999);
        assert!(q.concepts_by_primitive(missing).is_empty());
    }

    #[test]
    fn token_postings_cover_surfaces_and_primitive_names() {
        let (kg, c, grill, _) = sample();
        let q = QueryIndex::build(&kg);
        let hyper = kg.concept_by_name("barbecue").unwrap();
        // "barbecue" evidences both the compound concept (surface token +
        // interpreting primitive) and its hypernym — each exactly once.
        assert_eq!(q.concepts_by_token("barbecue"), &[c, hyper]);
        assert_eq!(q.concepts_by_token("outdoor"), &[c]);
        assert!(q.concepts_by_token("nonexistent").is_empty());
        assert_eq!(q.items_by_token("grill"), &[grill]);
        assert!(q.items_by_token("barbecue").is_empty());
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
    fn explanation_combines_direct_and_shared_evidence() {
        let (kg, c, grill, bbq) = sample();
        let q = QueryIndex::build(&kg);
        let e = q.explain_suggestion(c, grill);
        assert_eq!(e.direct_weight, Some(0.9));
        assert_eq!(e.shared_primitives, vec![bbq]);
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

    #[test]
    fn from_postings_matches_a_fresh_build() {
        let (kg, _, _, bbq) = sample();
        let built = QueryIndex::build(&kg);
        let concept_postings: Vec<(String, Vec<ConceptId>)> = built
            .sorted_concept_postings()
            .into_iter()
            .map(|(t, ids)| (t.to_string(), ids.to_vec()))
            .collect();
        let item_postings: Vec<(String, Vec<ItemId>)> = built
            .sorted_item_postings()
            .into_iter()
            .map(|(t, ids)| (t.to_string(), ids.to_vec()))
            .collect();
        let restored = QueryIndex::from_postings(&kg, concept_postings, item_postings);
        assert_eq!(
            built.sorted_concept_postings(),
            restored.sorted_concept_postings()
        );
        assert_eq!(
            built.sorted_item_postings(),
            restored.sorted_item_postings()
        );
        // Id-level indices are rebuilt, not restored — check one.
        assert_eq!(
            built.concepts_by_primitive(bbq),
            restored.concepts_by_primitive(bbq)
        );
        assert_eq!(
            built.items_by_primitive(bbq),
            restored.items_by_primitive(bbq)
        );
    }

    fn matches(q: &QueryIndex<'_>, words: &[&str]) -> (Vec<ConceptMatch>, usize) {
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

    /// The merge needs strictly ascending lists; `from_postings` takes any
    /// iterator, so it must normalise what it is given.
    #[test]
    fn from_postings_sorts_and_dedups_what_it_is_given() {
        let (mut kg, _, _, _) = sample();
        for i in 0..40 {
            kg.add_concept(&format!("barbecue idea{}", i % 7));
            kg.add_concept(&format!("outdoor idea{i}"));
        }
        let built = QueryIndex::build(&kg);
        // Reversed, rotated and with every id repeated.
        let scramble = |ids: &[ConceptId]| {
            let mut out: Vec<ConceptId> = ids.iter().rev().flat_map(|&c| [c, c]).collect();
            let mid = out.len() / 3;
            out.rotate_left(mid);
            out
        };
        let concept_postings: Vec<(String, Vec<ConceptId>)> = built
            .sorted_concept_postings()
            .into_iter()
            .map(|(t, ids)| (t.to_string(), scramble(ids)))
            .collect();
        let item_postings: Vec<(String, Vec<ItemId>)> = built
            .sorted_item_postings()
            .into_iter()
            .map(|(t, ids)| {
                (
                    t.to_string(),
                    ids.iter().rev().flat_map(|&i| [i, i]).collect(),
                )
            })
            .collect();
        let restored = QueryIndex::from_postings(&kg, concept_postings, item_postings);
        assert_eq!(
            built.sorted_concept_postings(),
            restored.sorted_concept_postings()
        );
        assert_eq!(
            built.sorted_item_postings(),
            restored.sorted_item_postings()
        );
        for words in [
            &["barbecue"][..],
            &["outdoor", "barbecue"],
            &["idea3", "barbecue", "outdoor", "idea39"],
            &["missing"],
        ] {
            assert_eq!(
                matches(&built, words),
                matches(&restored, words),
                "{words:?}"
            );
        }
        // An id whose concept does not carry the token, mid-list or at the
        // tail, is a candidate with no evidence.
        let [c, hyper, outdoor_idea, barbecue_idea] = [0, 1, 3, 4].map(ConceptId::from_index);
        let padded = vec![(
            "outdoor".to_string(),
            vec![c, hyper, outdoor_idea, barbecue_idea],
        )];
        let padded = QueryIndex::from_postings(&kg, padded, []);
        let hit = |concept, surface_hits, primitive_hits| ConceptMatch {
            concept,
            surface_hits,
            primitive_hits,
        };
        assert_eq!(
            matches(&padded, &["outdoor"]),
            (
                vec![
                    hit(c, 1, 1),
                    hit(hyper, 0, 0),
                    hit(outdoor_idea, 1, 0),
                    hit(barbecue_idea, 0, 0)
                ],
                4
            )
        );
    }

    #[test]
    fn sorted_postings_are_lexicographic_and_ascending() {
        let (kg, _, _, _) = sample();
        let q = QueryIndex::build(&kg);
        let postings = q.sorted_concept_postings();
        assert!(postings.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(postings
            .iter()
            .all(|(_, ids)| ids.windows(2).all(|w| w[0] < w[1])));
    }
}
