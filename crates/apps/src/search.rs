//! Semantic search over the concept net (§8.1): map a keyword query to
//! e-commerce concept cards — "items you will need for outdoor barbecue" —
//! rather than bare keyword item matching.
//!
//! Retrieval is index-driven: the shared [`Retriever`]'s `QueryIndex` maps
//! every concept-surface token and interpreting-primitive surface to its
//! concepts, so a query only scores the union of its words' posting lists
//! (the exact set of concepts that can score above zero) and keeps the
//! best `k` in a bounded heap. Scoring reads integers only: the lists are
//! merged by id and each entry already says whether its token is a surface
//! word and how many primitives it names ([`Retriever::rank_concepts`]).
//! [`SemanticSearch::search_scan`] retains the original string-based
//! full-scan ranking as the reference implementation; property tests
//! assert the two agree card-for-card, score bits included.
//!
//! ## Hybrid retrieval
//!
//! When the retriever carries an `AnnBundle` the candidate set becomes the
//! *union* of the lexical posting lists and the HNSW nearest concepts of
//! the embedded query, and every candidate is scored
//! `lexical + FUSION.vector_weight · max(0, cos)` using the exact stored
//! vector (see [`crate::retrieve`]). This closes the zero-token-overlap
//! gap: "charcoal" has no surface or primitive in common with "outdoor
//! barbecue", but its embedding (trained over item titles too) does.
//! Without a bundle the engine is byte-for-byte the lexical engine it
//! always was.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use alicoco::rank::TopK;
use alicoco::{AliCoCo, ConceptId, ItemId, PrimitiveId};
use alicoco_ann::AnnBundle;
use alicoco_nn::util::FxHashSet;
use alicoco_obs::{Counter, Histogram, Registry, Stopwatch};

use crate::retrieve::{Fusion, LexicalWeights, Proposals, Retriever};

/// Search's fusion constants: vectors weigh 0.6 of a full surface match,
/// and the index proposes 16 concepts per query.
pub const FUSION: Fusion = Fusion {
    vector_weight: 0.6,
    ann_k: 16,
};

/// Search's weights over a concept's match counts: surface coverage plus
/// 0.3 per named primitive, then `+0.1` for a stocked concept on a
/// positive lexical score, then vectors.
const WEIGHTS: LexicalWeights = LexicalWeights {
    surface_coverage: true,
    primitive_weight: 0.3,
    stocked_bonus: 0.1,
    stock_before_vectors: true,
};

/// Pre-registered `search.*` metric handles: registered once at engine
/// construction so the query path never takes the registry lock.
#[derive(Clone, Debug)]
struct SearchMetrics {
    requests: Arc<Counter>,
    candidates_examined: Arc<Counter>,
    postings_hit: Arc<Counter>,
    windows: Arc<Counter>,
    blocks_skipped: Arc<Counter>,
    ann_candidates: Arc<Counter>,
    ann_skipped: Arc<Counter>,
    retrieve_ns: Arc<Histogram>,
    score_ns: Arc<Histogram>,
    rank_ns: Arc<Histogram>,
}

impl SearchMetrics {
    fn register(reg: &Registry) -> Self {
        SearchMetrics {
            requests: reg.counter("search.requests"),
            candidates_examined: reg.counter("search.candidates_examined"),
            postings_hit: reg.counter("search.postings_hit"),
            windows: reg.counter("search.windows"),
            blocks_skipped: reg.counter("search.blocks_skipped"),
            ann_candidates: reg.counter("search.ann_candidates"),
            ann_skipped: reg.counter("search.ann_skipped"),
            retrieve_ns: reg.histogram("search.retrieve_ns"),
            score_ns: reg.histogram("search.score_ns"),
            rank_ns: reg.histogram("search.rank_ns"),
        }
    }
}

/// A concept card (Figure 2a/b): the concept, its interpretation, and
/// suggested items. The name and the interpretation borrow from the net,
/// and so do the items — the concept's best `items_per_card`
/// ([`AliCoCo::top_items`]) — unless they had to be selected.
#[derive(Clone)]
pub struct ConceptCard<'a> {
    /// Concept.
    pub concept: ConceptId,
    /// Concept surface form.
    pub name: &'a str,
    /// The interpreting primitives, resolved by
    /// [`interpretation`](Self::interpretation).
    pub primitives: &'a [PrimitiveId],
    /// Suggested items with edge probabilities, best first.
    pub items: Cow<'a, [(ItemId, f32)]>,
    /// Query-match score.
    pub score: f64,
    kg: &'a AliCoCo,
}

impl<'a> ConceptCard<'a> {
    /// `(domain, primitive surface)` interpretation pairs, in the
    /// concept's primitive order.
    pub fn interpretation(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let kg = self.kg;
        self.primitives.iter().map(move |&p| {
            let prim = kg.primitive(p);
            let domain = kg.class(kg.class_domain(prim.class)).name.as_str();
            (domain, prim.name.as_str())
        })
    }
}

/// The same information the owned card compared: the interpretation by
/// its pairs, the score by its bits.
impl PartialEq for ConceptCard<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.concept == other.concept
            && self.name == other.name
            && self.interpretation().eq(other.interpretation())
            && self.items == other.items
            && self.score.to_bits() == other.score.to_bits()
    }
}

impl fmt::Debug for ConceptCard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConceptCard")
            .field("concept", &self.concept)
            .field("name", &self.name)
            .field("interpretation", &self.interpretation().collect::<Vec<_>>())
            .field("items", &self.items)
            .field("score", &self.score)
            .finish()
    }
}

/// Configuration for concept retrieval.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Max cards returned.
    pub k: usize,
    /// Items shown per card.
    pub items_per_card: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            k: 3,
            items_per_card: 10,
        }
    }
}

/// The semantic-search engine: retrieval is order-free over concept surfaces
/// and their interpreting primitives, which is what makes the query
/// "barbecue outdoor" trigger the concept "outdoor barbecue" (Figure 2a).
pub struct SemanticSearch {
    retriever: Arc<Retriever>,
    cfg: SearchConfig,
    metrics: SearchMetrics,
}

impl SemanticSearch {
    /// Build the engine over the pack's shared retriever, recording
    /// `search.*` metrics into `metrics`. Handles are registered here,
    /// once; per-query instrumentation is a handful of relaxed atomics and
    /// three clock reads (DESIGN.md §8).
    pub fn new(retriever: Arc<Retriever>, cfg: SearchConfig, metrics: &Registry) -> Self {
        SemanticSearch {
            retriever,
            cfg,
            metrics: SearchMetrics::register(metrics),
        }
    }

    /// The retriever the engine shares with the pack's other engines.
    pub fn retriever(&self) -> &Arc<Retriever> {
        &self.retriever
    }

    fn kg(&self) -> &AliCoCo {
        self.retriever.kg()
    }

    /// The weights over a concept's match counts: surface coverage plus
    /// 0.3 per named primitive, then the stocked bonus on a positive
    /// lexical score, then vectors.
    pub fn weights(&self) -> LexicalWeights {
        WEIGHTS
    }

    /// Retrieve concept cards for a keyword query.
    ///
    /// Only concepts on the posting lists of the query's words are scored
    /// — any other concept has zero surface overlap and zero primitive
    /// hits, so it cannot score above zero — and the best `k` are kept in
    /// a bounded heap (`O(c log k)` over `c` candidates).
    pub fn search(&self, query: &str) -> Vec<ConceptCard<'_>> {
        self.search_top(query, self.cfg.k)
    }

    /// [`search`](Self::search) with a per-call result cap instead of the
    /// configured `cfg.k` — the HTTP layer maps its `k=` query parameter
    /// here so one shared engine serves callers with different page
    /// sizes. `search_top(q, cfg.k)` is exactly `search(q)`.
    pub fn search_top(&self, query: &str, k: usize) -> Vec<ConceptCard<'_>> {
        let m = &self.metrics;
        let mut clock = Stopwatch::start();
        let qvec = self.retriever.embed(query);
        m.retrieve_ns.record(clock.lap_ns());
        let (fused, walked) = self.retriever.rank_concepts(
            query.split_whitespace(),
            qvec.as_deref(),
            &WEIGHTS,
            FUSION,
            k,
        );
        m.requests.inc();
        m.postings_hit.add(walked.postings as u64);
        m.windows.add(walked.windows as u64);
        m.blocks_skipped.add(walked.blocks_skipped as u64);
        m.ann_candidates.add(fused.proposed as u64);
        if fused.proposals == Proposals::Skipped {
            m.ann_skipped.inc();
        }
        m.candidates_examined.add(fused.examined as u64);
        m.score_ns.record(clock.lap_ns());
        let cards = fused
            .top
            .into_sorted_vec()
            .into_iter()
            .map(|(slot, score)| self.card(ConceptId::from_index(slot as usize), score))
            .collect();
        m.rank_ns.record(clock.lap_ns());
        cards
    }

    /// The oracle's lexical score of one concept: the formula of
    /// [`weights`](Self::weights), computed from the concept's name and its
    /// primitives' names instead of posting facts.
    fn score_concept(&self, cid: ConceptId, words: &FxHashSet<&str>) -> f64 {
        let kg = self.kg();
        let c = kg.concept(cid);
        let concept_words: FxHashSet<&str> = c.name.split(' ').collect();
        let overlap = words.intersection(&concept_words).count() as f64;
        let mut score = overlap / concept_words.len().max(1) as f64;
        let prim_hits = c
            .primitives
            .iter()
            .filter(|&&p| words.contains(kg.primitive(p).name.as_str()))
            .count() as f64;
        score += WEIGHTS.primitive_weight * prim_hits;
        if score > 0.0 && !c.items.is_empty() {
            score += WEIGHTS.stocked_bonus;
        }
        score
    }

    /// Reference ranking: score every concept in the net with the **full
    /// fused score** (lexical + vector bonus when a bundle is attached),
    /// sort, truncate. This is the exact oracle the hybrid
    /// [`search`](Self::search) is recall-gated against: the only way the
    /// two can disagree is the HNSW index failing to propose a concept
    /// whose fused score makes the top `k`. It shares nothing with the
    /// request path but the formula — it reads names, not postings — so a
    /// wrong posting fact cannot hide from it.
    pub fn search_scan(&self, query: &str) -> Vec<ConceptCard<'_>> {
        self.search_scan_top(query, self.cfg.k)
    }

    /// [`search_scan`](Self::search_scan) at a per-call page size: the
    /// oracle of [`search_top`](Self::search_top).
    pub fn search_scan_top(&self, query: &str, k: usize) -> Vec<ConceptCard<'_>> {
        let words: FxHashSet<&str> = query.split_whitespace().collect();
        if words.is_empty() {
            return Vec::new();
        }
        let qvec = self.retriever.embed(query);
        let mut scored: Vec<(ConceptId, f64)> = self
            .kg()
            .concept_ids()
            .map(|cid| {
                let bonus = self.retriever.bonus(
                    AnnBundle::concepts,
                    cid.index() as u32,
                    qvec.as_deref(),
                    FUSION.vector_weight,
                );
                (cid, self.score_concept(cid, &words) + bonus)
            })
            .filter(|&(_, s)| s > 0.0)
            .collect();
        scored.sort_by(alicoco::rank::by_score_then_id);
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(cid, score)| self.card(cid, score))
            .collect()
    }

    /// The card for a concept.
    pub fn card(&self, cid: ConceptId, score: f64) -> ConceptCard<'_> {
        let kg = self.kg();
        let c = kg.concept(cid);
        ConceptCard {
            concept: cid,
            name: c.name,
            primitives: c.primitives,
            items: kg.top_items(cid, self.cfg.items_per_card),
            score,
            kg,
        }
    }

    /// Keyword fallback (the pre-AliCoCo experience): items ranked by how
    /// many distinct query words their title contains (ties broken by
    /// ascending item id), found by a scan of the item layer.
    pub fn keyword_items(&self, query: &str, k: usize) -> Vec<ItemId> {
        let mut terms: Vec<&str> = query.split_whitespace().collect();
        terms.sort_unstable();
        terms.dedup();
        let kg = self.kg();
        let mut top = TopK::new(k);
        for i in kg.item_ids() {
            let title = &kg.item(i).title;
            let hits = terms
                .iter()
                .filter(|w| title.iter().any(|t| t == *w))
                .count();
            if hits > 0 {
                top.push(i, hits as f64);
            }
        }
        top.into_sorted_vec().into_iter().map(|(i, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lexical engine over a fresh index, metrics into `reg`.
    fn engine_in(kg: &Arc<AliCoCo>, cfg: SearchConfig, reg: &Registry) -> SemanticSearch {
        SemanticSearch::new(Retriever::new(Arc::clone(kg), None), cfg, reg)
    }

    fn engine(kg: &Arc<AliCoCo>, cfg: SearchConfig) -> SemanticSearch {
        engine_in(kg, cfg, &Registry::new())
    }

    fn hybrid(kg: &Arc<AliCoCo>, reg: &Registry) -> SemanticSearch {
        let bundle = Arc::new(alicoco_ann::build_default_bundle(kg));
        let retriever = Retriever::new(Arc::clone(kg), Some(bundle));
        SemanticSearch::new(retriever, SearchConfig::default(), reg)
    }

    fn sample_kg() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let loc = kg.add_class("Location", Some(root));
        let event = kg.add_class("Event", Some(root));
        let outdoor = kg.add_primitive("outdoor", loc);
        let bbq = kg.add_primitive("barbecue", event);
        let c1 = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c1, outdoor);
        kg.link_concept_primitive(c1, bbq);
        let c2 = kg.add_concept("indoor yoga");
        let _ = c2;
        let grill = kg.add_item(&["brand".into(), "grill".into()]);
        let charcoal = kg.add_item(&["best".into(), "charcoal".into()]);
        kg.link_concept_item(c1, grill, 0.9);
        kg.link_concept_item(c1, charcoal, 0.8);
        kg
    }

    #[test]
    fn order_free_query_triggers_concept_card() {
        let kg = Arc::new(sample_kg());
        let s = engine(&kg, SearchConfig::default());
        let cards = s.search("barbecue outdoor");
        assert_eq!(cards.len(), 1);
        let card = &cards[0];
        assert_eq!(card.name, "outdoor barbecue");
        assert_eq!(card.items.len(), 2);
        assert!(card.items[0].1 >= card.items[1].1);
        assert!(card
            .interpretation()
            .any(|pair| pair == ("Event", "barbecue")));
    }

    #[test]
    fn search_top_with_cfg_k_is_search() {
        let kg = Arc::new(sample_kg());
        let cfg = SearchConfig::default();
        let s = engine(&kg, cfg);
        assert_eq!(
            s.search("barbecue outdoor"),
            s.search_top("barbecue outdoor", cfg.k)
        );
        // A tighter per-call cap truncates without reordering.
        let one = s.search_top("barbecue outdoor", 1);
        assert!(one.len() <= 1);
        assert_eq!(one, s.search("barbecue outdoor")[..one.len()].to_vec());
    }

    #[test]
    fn partial_match_still_scores() {
        let kg = Arc::new(sample_kg());
        let s = engine(&kg, SearchConfig::default());
        let cards = s.search("barbecue");
        assert_eq!(cards.len(), 1);
        assert!(cards[0].score > 0.0);
    }

    #[test]
    fn unrelated_query_returns_nothing() {
        let kg = Arc::new(sample_kg());
        let s = engine(&kg, SearchConfig::default());
        assert!(s.search("quantum physics").is_empty());
        assert!(s.search("").is_empty());
    }

    #[test]
    fn indexed_search_matches_reference_scan() {
        let kg = Arc::new(sample_kg());
        let s = engine(&kg, SearchConfig::default());
        for q in [
            "barbecue outdoor",
            "barbecue",
            "indoor",
            "outdoor grill",
            "nothing here",
        ] {
            assert_eq!(s.search(q), s.search_scan(q), "query {q:?}");
        }
    }

    #[test]
    fn keyword_fallback_matches_titles() {
        let kg = Arc::new(sample_kg());
        let s = engine(&kg, SearchConfig::default());
        let items = s.keyword_items("charcoal", 10);
        assert_eq!(items.len(), 1);
        assert_eq!(
            *kg.item(items[0]).title,
            vec!["best".to_string(), "charcoal".to_string()]
        );
    }

    /// Regression: items covering more query words must outrank earlier-id
    /// items that merely contain one word (the old implementation returned
    /// the first `k` matches in arena order).
    #[test]
    fn keyword_items_rank_by_title_overlap_not_arena_order() {
        let mut kg = sample_kg();
        // Earlier-arena items each match one word; this one matches both.
        let both = kg.add_item(&["best".into(), "grill".into()]);
        let kg = Arc::new(kg);
        let items = engine(&kg, SearchConfig::default()).keyword_items("best grill", 2);
        assert_eq!(items[0], both, "two-word match must rank first");
        assert_eq!(items.len(), 2);
        // Tie on one word each: lower item id wins.
        let tied = engine(&kg, SearchConfig::default()).keyword_items("brand charcoal", 10);
        assert_eq!(tied.len(), 2);
        assert!(
            tied[0] < tied[1],
            "equal overlap breaks ties by ascending id"
        );
    }

    #[test]
    fn k_truncates_results() {
        let mut kg = sample_kg();
        for i in 0..10 {
            kg.add_concept(&format!("barbecue idea {i}"));
        }
        let kg = Arc::new(kg);
        let s = engine(
            &kg,
            SearchConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert_eq!(s.search("barbecue").len(), 2);
    }

    #[test]
    fn instrumented_search_returns_identical_cards() {
        let kg = Arc::new(sample_kg());
        let reg = Registry::new();
        let wired = engine_in(&kg, SearchConfig::default(), &reg);
        for q in ["barbecue outdoor", "indoor", "", " \t", "nothing here"] {
            assert_eq!(wired.search(q), wired.search_scan(q), "query {q:?}");
        }
        // Regression: the empty and the whitespace-only query used to return
        // before the counter and the stage laps, so `search.requests` fell
        // behind the served `/search` count.
        assert_eq!(reg.counter("search.requests").get(), 5);
        assert!(reg.counter("search.candidates_examined").get() > 0);
        assert!(reg.counter("search.postings_hit").get() > 0);
        assert_eq!(reg.histogram("search.retrieve_ns").count(), 5);
        assert_eq!(reg.histogram("search.score_ns").count(), 5);
        assert_eq!(reg.histogram("search.rank_ns").count(), 5);
    }

    #[test]
    fn repeated_query_word_scores_and_counts_once() {
        let kg = Arc::new(sample_kg());
        let (once, twice) = (Registry::new(), Registry::new());
        let (one, two) = (
            engine_in(&kg, SearchConfig::default(), &once),
            engine_in(&kg, SearchConfig::default(), &twice),
        );
        let a = one.search("barbecue");
        let b = two.search("barbecue  barbecue");
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for counter in ["search.postings_hit", "search.candidates_examined"] {
            assert_eq!(once.counter(counter).get(), twice.counter(counter).get());
        }
    }

    /// The merge holds one cursor per distinct query word; a query as long
    /// as the HTTP target limit admits must still rank as the scan does.
    #[test]
    fn three_hundred_word_query_matches_the_scan() {
        let mut kg = sample_kg();
        let words: Vec<String> = (0..300).map(|i| format!("w{i}")).collect();
        for (i, w) in words.iter().enumerate() {
            kg.add_concept(&format!("{w} barbecue"));
            kg.add_concept(&format!("{w} {}", words[(i * 7 + 1) % words.len()]));
        }
        let kg = Arc::new(kg);
        let s = engine(&kg, SearchConfig::default());
        let query = words.join(" ");
        let cards = s.search_top(&query, 50);
        assert_eq!(cards.len(), 50);
        assert_eq!(cards, s.search_scan_top(&query, 50));
        // The two-query-word names cover fully and lead the page.
        assert!(cards.iter().all(|c| c.score == 1.0), "{cards:?}");
    }

    /// A name with more distinct words than the per-concept fact byte
    /// counts (127) is covered by its true length, as the scan covers it.
    #[test]
    fn a_name_longer_than_the_fact_byte_scores_as_the_scan_does() {
        let mut kg = sample_kg();
        let words: Vec<String> = (0..130).map(|i| format!("w{i}")).collect();
        let long = kg.add_concept(&words.join(" "));
        let kg = Arc::new(kg);
        let s = engine(&kg, SearchConfig::default());
        assert_eq!(s.retriever().index().surface_len(long), 130);
        for q in ["w0", "w7 w129", "w3 barbecue"] {
            let cards = s.search_top(q, 5);
            assert_eq!(cards, s.search_scan_top(q, 5), "query {q:?}");
        }
        assert_eq!(s.search("w0")[0].score, 1.0 / 130.0);
    }

    /// The tentpole acceptance property: a query with **zero** token
    /// overlap with every concept surface and primitive still resolves to
    /// the right concept through the vector half of the hybrid union.
    #[test]
    fn lexical_miss_query_reaches_concept_via_vectors() {
        let mut kg = sample_kg();
        // Stock "indoor yoga" so the training corpus separates the two
        // concepts' item vocabularies.
        let c2 = kg.concept_by_name("indoor yoga").unwrap();
        let mat = kg.add_item(&["yoga".into(), "mat".into()]);
        kg.link_concept_item(c2, mat, 0.7);
        // "charcoal" appears only in an item title: the lexical engine is
        // structurally blind to it…
        let kg = Arc::new(kg);
        let lexical = engine(&kg, SearchConfig::default());
        assert!(lexical.search("charcoal").is_empty());
        // …but the fused union proposes the barbecue concept.
        let s = hybrid(&kg, &Registry::new());
        let cards = s.search("charcoal");
        assert!(!cards.is_empty(), "fused path must propose a concept");
        assert_eq!(cards[0].name, "outdoor barbecue");
        // The hybrid ranking agrees with the fused exact-scan oracle.
        for q in ["charcoal", "barbecue outdoor", "yoga", "nothing here", ""] {
            assert_eq!(s.search(q), s.search_scan(q), "query {q:?}");
        }
        // Vector evidence is additive: a lexically-matching query keeps
        // its card, and the fused score is at least the lexical one.
        let fused = s.search("barbecue outdoor");
        let plain = lexical.search("barbecue outdoor");
        assert_eq!(fused[0].name, plain[0].name);
        assert!(fused[0].score >= plain[0].score);
    }

    #[test]
    fn hybrid_search_counts_ann_candidates() {
        let kg = Arc::new(sample_kg());
        let reg = Registry::new();
        let wired = hybrid(&kg, &reg);
        let _ = wired.search("charcoal");
        assert!(reg.counter("search.ann_candidates").get() > 0);
        // Unknown-token queries embed to nothing and propose nothing.
        let before = reg.counter("search.ann_candidates").get();
        assert!(wired.search("zzz unknown").is_empty());
        assert_eq!(reg.counter("search.ann_candidates").get(), before);
    }

    /// Counts of `search.ann_skipped` and `search.ann_candidates` in `reg`.
    fn ann_counts(reg: &Registry) -> (u64, u64) {
        let count = |name| reg.counter(name).get();
        (count("search.ann_skipped"), count("search.ann_candidates"))
    }

    #[test]
    fn a_full_page_above_any_proposal_skips_hnsw() {
        let kg = Arc::new(sample_kg());
        let reg = Registry::new();
        let s = hybrid(&kg, &reg);
        let query = "barbecue outdoor";
        assert!(s.retriever().embed(query).is_some(), "the query embeds");
        // One full-coverage card scores above 0.6 · COS_CEIL, the best a
        // pure proposal can reach: the page is final without HNSW.
        let cards = s.search_top(query, 1);
        assert_eq!(ann_counts(&reg), (1, 0));
        assert_eq!(cards, s.search_scan_top(query, 1));
        assert!(cards[0].score > FUSION.vector_weight * 1.001);
    }

    #[test]
    fn a_lexical_miss_or_a_page_with_room_still_asks() {
        let kg = Arc::new(sample_kg());
        let reg = Registry::new();
        let s = hybrid(&kg, &reg);
        // Nothing lexical: the page is empty.
        let _ = s.search_top("charcoal", 1);
        let (skipped, proposed) = ann_counts(&reg);
        assert_eq!(skipped, 0);
        assert!(proposed > 0);
        // One lexical card on a page of three leaves room for a proposal.
        let cards = s.search_top("barbecue outdoor", 3);
        assert_eq!(ann_counts(&reg).0, 0);
        assert!(ann_counts(&reg).1 > proposed);
        assert_eq!(cards, s.search_scan_top("barbecue outdoor", 3));
    }

    #[test]
    fn a_negative_vector_weight_always_asks() {
        let kg = Arc::new(sample_kg());
        let s = hybrid(&kg, &Registry::new());
        let retriever = s.retriever();
        let side = AnnBundle::concepts;
        assert_eq!(retriever.bonus_ceiling(side, -0.5), None);
        assert!(retriever.bonus_ceiling(side, 0.5).is_some());
        let query = "barbecue outdoor";
        let qvec = retriever.embed(query);
        let fusion = Fusion {
            vector_weight: -0.5,
            ann_k: 16,
        };
        let (fused, _) =
            retriever.rank_concepts(query.split(' '), qvec.as_deref(), &s.weights(), fusion, 1);
        assert_eq!(fused.proposals, Proposals::Asked);
        assert!(fused.proposed > 0);
        // The same query at the engine's weight skips.
        let (fused, _) =
            retriever.rank_concepts(query.split(' '), qvec.as_deref(), &s.weights(), FUSION, 1);
        assert_eq!(fused.proposals, Proposals::Skipped);
        assert_eq!(fused.proposed, 0);
    }
}
