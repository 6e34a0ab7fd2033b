//! Property tests for the serving layer: on random worlds, the inverted-
//! index retrieval path must return exactly the cards (content and order)
//! of the reference full-scan ranking, and the one hybrid fusion must rank
//! exactly as a brute-force scan of its formula.
//! On worlds a few hundred concepts wide — the size at which a page of ten
//! is a real cut — search and QA, which score on posting-list integers,
//! must agree score bit for score bit with their string-scan oracles; and
//! on a 120k-concept scale world, where query lists span many posting
//! blocks and the page's k-th score prunes, they must still agree.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use alicoco::query::ConceptMatch;
use alicoco::rank::by_score_then_id;
use alicoco::{AliCoCo, ConceptId, ItemId, PrimitiveId};
use alicoco_ann::{AnnBundle, Hnsw, HnswConfig, TokenTable};
use alicoco_apps::qa::ScenarioQa;
use alicoco_apps::recommend::{
    CognitiveRecommender, Reason, RecommendConfig, Recommendation, DIRECT_WEIGHT, SHARED_WEIGHT,
};
use alicoco_apps::relevance::RelevanceScorer;
use alicoco_apps::retrieve::{Fusion, Proposals, Retriever, ANN_EF};
use alicoco_apps::search::{self, SearchConfig, SemanticSearch};
use alicoco_corpus::scale::{scale_vocab, scale_world};
use alicoco_obs::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shared vocabulary so random queries actually collide with random
/// concept surfaces, primitive names, and item titles.
const VOCAB: &[&str] = &[
    "outdoor", "barbecue", "summer", "beach", "grill", "party", "yoga", "indoor", "camping",
    "picnic", "winter", "gift",
];

fn word(i: u8) -> &'static str {
    VOCAB[i as usize % VOCAB.len()]
}

#[derive(Clone, Debug)]
struct WorldSpec {
    primitives: Vec<(u8, u8)>,        // (vocab word, class index)
    concepts: Vec<(u8, u8)>,          // two-word surface
    items: Vec<(u8, u8)>,             // two-word title
    concept_prims: Vec<(u8, u8)>,     // concept idx, primitive idx
    concept_items: Vec<(u8, u8, u8)>, // concept idx, item idx, weight 0..=100
}

fn world_strategy() -> impl Strategy<Value = WorldSpec> {
    (
        prop::collection::vec((0u8..12, 0u8..3), 1..10),
        prop::collection::vec((0u8..12, 0u8..12), 1..14),
        prop::collection::vec((0u8..12, 0u8..12), 1..10),
        prop::collection::vec((0u8..14, 0u8..10), 0..16),
        prop::collection::vec((0u8..14, 0u8..10, 0u8..=100), 0..16),
    )
        .prop_map(
            |(primitives, concepts, items, concept_prims, concept_items)| WorldSpec {
                primitives,
                concepts,
                items,
                concept_prims,
                concept_items,
            },
        )
}

fn build_world(spec: &WorldSpec) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let classes: Vec<_> = (0..3)
        .map(|i| kg.add_class(&format!("domain{i}"), Some(root)))
        .collect();
    let prims: Vec<_> = spec
        .primitives
        .iter()
        .map(|&(w, c)| kg.add_primitive(word(w), classes[c as usize % classes.len()]))
        .collect();
    let concepts: Vec<_> = spec
        .concepts
        .iter()
        .map(|&(a, b)| kg.add_concept(&format!("{} {}", word(a), word(b))))
        .collect();
    let items: Vec<_> = spec
        .items
        .iter()
        .map(|&(a, b)| kg.add_item(&[word(a).to_string(), word(b).to_string()]))
        .collect();
    for &(c, p) in &spec.concept_prims {
        kg.link_concept_primitive(
            concepts[c as usize % concepts.len()],
            prims[p as usize % prims.len()],
        );
    }
    for &(c, i, w) in &spec.concept_items {
        kg.link_concept_item(
            concepts[c as usize % concepts.len()],
            items[i as usize % items.len()],
            w as f32 / 100.0,
        );
    }
    kg
}

/// A lexical engine over a fresh index of `kg`.
fn engine(kg: &Arc<AliCoCo>, cfg: SearchConfig) -> SemanticSearch {
    SemanticSearch::new(Retriever::new(Arc::clone(kg), None), cfg, &Registry::new())
}

fn query_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..16, 1..4) // indices past VOCAB give miss words
}

fn render_query(q: &[u8]) -> String {
    q.iter()
        .map(|&i| {
            if (i as usize) < VOCAB.len() {
                VOCAB[i as usize]
            } else {
                "unrelated"
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Vocabulary of the wide worlds: enough words for a few hundred distinct
/// one- to three-word names, few enough that a query word's posting list
/// runs to dozens of concepts. None is a QA question word.
const WIDE_VOCAB: &[&str] = &[
    "outdoor", "barbecue", "summer", "beach", "grill", "party", "yoga", "indoor", "camping",
    "picnic", "winter", "gift", "garden", "brunch", "kids", "office", "travel", "retro", "vegan",
    "rainy", "wedding", "school", "fishing", "hiking",
];

#[derive(Clone, Debug)]
struct WideWorldSpec {
    /// `(word, class)`: one name can be a primitive in several classes.
    primitives: Vec<(u8, u8)>,
    /// Name words (a word may repeat: "grill grill"), primitive indices,
    /// and whether the concept has an item.
    concepts: Vec<(Vec<u8>, Vec<u8>, bool)>,
}

fn wide_world_strategy() -> impl Strategy<Value = WideWorldSpec> {
    (
        prop::collection::vec((0u8..24, 0u8..4), 8..40),
        prop::collection::vec(
            (
                prop::collection::vec(0u8..24, 1..4),
                prop::collection::vec(0u8..40, 0..4),
                any::<bool>(),
            ),
            260..700,
        ),
    )
        .prop_map(|(primitives, concepts)| WideWorldSpec {
            primitives,
            concepts,
        })
}

/// Names that collide collapse into one concept (with the union of their
/// links), so a world ends up a little under its spec's length.
fn build_wide_world(spec: &WideWorldSpec) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let classes: Vec<_> = (0..4)
        .map(|i| kg.add_class(&format!("domain{i}"), Some(root)))
        .collect();
    let prims: Vec<_> = spec
        .primitives
        .iter()
        .map(|&(w, c)| kg.add_primitive(WIDE_VOCAB[w as usize], classes[c as usize]))
        .collect();
    let items: Vec<_> = (0..8)
        .map(|i| kg.add_item(&[WIDE_VOCAB[i].to_string(), WIDE_VOCAB[i + 8].to_string()]))
        .collect();
    for (i, (name, links, stocked)) in spec.concepts.iter().enumerate() {
        let name: Vec<&str> = name.iter().map(|&w| WIDE_VOCAB[w as usize]).collect();
        let c = kg.add_concept(&name.join(" "));
        for &p in links {
            kg.link_concept_primitive(c, prims[p as usize % prims.len()]);
        }
        if *stocked {
            kg.link_concept_item(c, items[i % items.len()], 0.5 + (i % 50) as f32 / 100.0);
        }
    }
    kg
}

/// One to five query words, repeats likely; indices past the vocabulary
/// are words no concept knows.
fn wide_query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..27, 1..6).prop_map(|q| {
        let words: Vec<&str> = q
            .iter()
            .map(|&i| WIDE_VOCAB.get(i as usize).copied().unwrap_or("unrelated"))
            .collect();
        words.join(" ")
    })
}

/// A bundle of seeded random 4-d vectors: one per vocabulary word, one per
/// concept, no items.
fn random_bundle(kg: &AliCoCo, seed: u64) -> AnnBundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vector = || -> Vec<f32> { (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let tokens = TokenTable::new(4, WIDE_VOCAB.iter().map(|w| (w.to_string(), vector())));
    let mut concepts = Hnsw::new(4, HnswConfig::default());
    for _ in 0..kg.num_concepts() {
        concepts.insert(&vector());
    }
    AnnBundle::new(tokens, concepts, Hnsw::new(4, HnswConfig::default()))
}

/// A bundle of seeded random 4-d vectors over a wide world — one per
/// vocabulary word, concept and item — in graphs too sparse to find most
/// true neighbours: an HNSW answer that matters shows as a page the scan
/// oracle does not give.
fn sparse_bundle(kg: &AliCoCo, seed: u64) -> AnnBundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vector = || -> Vec<f32> { (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let tokens = TokenTable::new(4, WIDE_VOCAB.iter().map(|w| (w.to_string(), vector())));
    let cfg = HnswConfig {
        m: 2,
        ef_construction: 1,
        seed,
    };
    let mut concepts = Hnsw::new(4, cfg);
    for _ in 0..kg.num_concepts() {
        concepts.insert(&vector());
    }
    let mut items = Hnsw::new(4, cfg);
    for _ in 0..kg.num_items() {
        items.insert(&vector());
    }
    AnnBundle::new(tokens, concepts, items)
}

/// Weight of `max(0, cos)` in a fused relevance score (the relevance
/// engine's fusion constant).
const RELEVANCE_VECTOR_WEIGHT: f64 = 0.5;

/// A bundle of seeded random 4-d vectors: one per vocabulary word, one per
/// item, no concepts.
fn item_bundle(kg: &AliCoCo, seed: u64) -> AnnBundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vector = || -> Vec<f32> { (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let tokens = TokenTable::new(4, VOCAB.iter().map(|w| (w.to_string(), vector())));
    let mut items = Hnsw::new(4, HnswConfig::default());
    for _ in 0..kg.num_items() {
        items.insert(&vector());
    }
    AnnBundle::new(tokens, Hnsw::new(4, HnswConfig::default()), items)
}

/// The relevance scan oracle: every item scored `bm25` (from `bm25_of`,
/// a per-item scorer) plus the vector bonus of `query_words` on the
/// scorer's retriever, positive scores only, ranked score descending and
/// id ascending, cut at `k`.
fn relevance_scan(
    scorer: &RelevanceScorer,
    query_words: &[String],
    bm25_of: impl Fn(ItemId) -> f64,
    k: usize,
) -> Vec<(ItemId, f64)> {
    let retriever = scorer.retriever();
    let qvec = retriever.embed(&query_words.join(" "));
    let mut all: Vec<(ItemId, f64)> = retriever
        .kg()
        .item_ids()
        .map(|i| {
            let slot = i.index() as u32;
            let bonus = retriever.bonus(
                AnnBundle::items,
                slot,
                qvec.as_deref(),
                RELEVANCE_VECTOR_WEIGHT,
            );
            (i, bm25_of(i) + bonus)
        })
        .filter(|&(_, score)| score > 0.0)
        .collect();
    all.sort_by(by_score_then_id);
    all.truncate(k);
    all
}

/// The recommender's vector-vote constants (its `FUSION`): weight of
/// `max(0, cos)` and neighbours asked per viewed item.
const RECOMMEND_VECTOR_WEIGHT: f64 = 0.1;
const RECOMMEND_ANN_K: usize = 8;

/// A small world for the recommender: `spec`'s, plus item–primitive
/// links, plus concept 0 reached from item 0 by a direct link and by a
/// shared primitive.
fn build_recommend_world(spec: &WorldSpec, item_prims: &[(u8, u8)]) -> AliCoCo {
    let mut kg = build_world(spec);
    let (n_items, n_prims) = (kg.num_items(), kg.num_primitives());
    for &(i, p) in item_prims {
        kg.link_item_primitive(
            ItemId::from_index(i as usize % n_items),
            PrimitiveId::from_index(p as usize % n_prims),
        );
    }
    let (c0, i0, p0) = (
        ConceptId::from_index(0),
        ItemId::from_index(0),
        PrimitiveId::from_index(0),
    );
    kg.link_concept_item(c0, i0, 0.5);
    kg.link_concept_primitive(c0, p0);
    kg.link_item_primitive(i0, p0);
    kg
}

/// Seeded random 4-d vectors for every concept and item, item 0's a copy
/// of concept 0's, so item 0's nearest concept is concept 0.
fn recommend_bundle(kg: &AliCoCo, seed: u64) -> AnnBundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vector = || -> Vec<f32> { (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let tokens = TokenTable::new(4, VOCAB.iter().map(|w| (w.to_string(), vector())));
    let concept_vectors: Vec<Vec<f32>> = (0..kg.num_concepts()).map(|_| vector()).collect();
    let mut concepts = Hnsw::new(4, HnswConfig::default());
    for v in &concept_vectors {
        concepts.insert(v);
    }
    let mut items = Hnsw::new(4, HnswConfig::default());
    items.insert(&concept_vectors[0]);
    for _ in 1..kg.num_items() {
        items.insert(&vector());
    }
    AnnBundle::new(tokens, concepts, items)
}

/// Recommend's scan oracle, the voting the engine replaced: one map per
/// kind of evidence (a vote sum, a first direct-trigger item, the set of
/// shared primitives, a first vector-trigger item) filled as the history
/// is read, then every touched concept sorted. Returns the cards, the
/// number of touched concepts, and the concepts each kind reached.
fn recommend_scan<'a>(
    retriever: &'a Retriever,
    cfg: RecommendConfig,
    history: &[ItemId],
) -> (Vec<Recommendation<'a>>, usize, [BTreeSet<ConceptId>; 3]) {
    let kg = retriever.kg();
    let mut votes: BTreeMap<ConceptId, f64> = BTreeMap::new();
    let mut direct: BTreeMap<ConceptId, ItemId> = BTreeMap::new();
    let mut shared: BTreeMap<ConceptId, BTreeSet<PrimitiveId>> = BTreeMap::new();
    let mut vector: BTreeMap<ConceptId, ItemId> = BTreeMap::new();
    for &item in history {
        for &c in kg.concepts_for_item(item) {
            *votes.entry(c).or_insert(0.0) += DIRECT_WEIGHT;
            direct.entry(c).or_insert(item);
        }
        for &p in kg.item(item).primitives {
            for &c in retriever.index().concepts_by_primitive(p) {
                *votes.entry(c).or_insert(0.0) += SHARED_WEIGHT;
                shared.entry(c).or_default().insert(p);
            }
        }
        if let Some(bundle) = retriever.ann() {
            let qv = bundle.items().vector(item.index() as u32);
            for (id, cos) in bundle.concepts().knn(qv, RECOMMEND_ANN_K, ANN_EF) {
                if cos > 0.0 {
                    let c = ConceptId::from_index(id as usize);
                    *votes.entry(c).or_insert(0.0) += RECOMMEND_VECTOR_WEIGHT * f64::from(cos);
                    vector.entry(c).or_insert(item);
                }
            }
        }
    }
    let mut ranked: Vec<(ConceptId, f64)> = votes.iter().map(|(&c, &v)| (c, v)).collect();
    ranked.sort_by(by_score_then_id);
    ranked.truncate(cfg.k);
    let cards = ranked
        .into_iter()
        .map(|(c, affinity)| {
            let reason = match (direct.get(&c), shared.get(&c), vector.get(&c)) {
                (Some(&item), _, _) => Reason::ViewedItem { item },
                (None, Some(s), _) => Reason::SharedNeed {
                    primitives: s.iter().copied().collect(),
                },
                (None, None, Some(&item)) => Reason::SimilarIntent { item },
                (None, None, None) => Reason::SharedNeed {
                    primitives: Vec::new(),
                },
            };
            let items = kg
                .items_for_concept(c)
                .into_iter()
                .filter(|(i, _)| !history.contains(i))
                .take(cfg.items_per_card)
                .collect();
            Recommendation {
                concept: c,
                name: kg.concept(c).name,
                affinity,
                reason,
                items,
            }
        })
        .collect();
    let [direct, vector] = [direct, vector].map(|m| m.into_keys().collect());
    let shared = shared.into_keys().collect();
    (cards, votes.len(), [direct, shared, vector])
}

/// The 120k-concept scale world and engines over it, built once per test
/// binary: its query words' posting lists run to dozens of blocks, so a
/// full page's k-th score skips blocks (DESIGN.md §13.6).
struct ScaleWorld {
    lexical: SemanticSearch,
    lexical_metrics: Registry,
    qa: ScenarioQa,
    hybrid: SemanticSearch,
    hybrid_metrics: Registry,
    hybrid_retriever: Arc<Retriever>,
    vocab: Vec<String>,
}

fn scale() -> &'static ScaleWorld {
    static WORLD: OnceLock<ScaleWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let kg = Arc::new(scale_world(120_000));
        let vocab = scale_vocab();
        let lexical_metrics = Registry::new();
        let retriever = Retriever::new(Arc::clone(&kg), None);
        let lexical = SemanticSearch::new(
            Arc::clone(&retriever),
            SearchConfig::default(),
            &lexical_metrics,
        );
        let qa = ScenarioQa::new(retriever, &Registry::new());
        // Seeded random 4-d vectors; a sparse graph is enough, since the
        // oracle fuses exactly the proposals the engine gets.
        let mut rng = StdRng::seed_from_u64(120);
        let mut vector = || -> Vec<f32> { (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
        let tokens = TokenTable::new(4, vocab.iter().map(|w| (w.clone(), vector())));
        let cfg = HnswConfig {
            m: 4,
            ef_construction: 8,
            ..HnswConfig::default()
        };
        let mut concepts = Hnsw::new(4, cfg);
        for _ in 0..kg.num_concepts() {
            concepts.insert(&vector());
        }
        let bundle = AnnBundle::new(tokens, concepts, Hnsw::new(4, cfg));
        let hybrid_retriever = Retriever::new(kg, Some(Arc::new(bundle)));
        let hybrid_metrics = Registry::new();
        let hybrid = SemanticSearch::new(
            Arc::clone(&hybrid_retriever),
            SearchConfig::default(),
            &hybrid_metrics,
        );
        ScaleWorld {
            lexical,
            lexical_metrics,
            qa,
            hybrid,
            hybrid_metrics,
            hybrid_retriever,
            vocab,
        }
    })
}

impl ScaleWorld {
    /// A query of two distinct words of the vocabulary: the `a`-th and the
    /// one `step` further on. The two lists hold ~3.9 k entries together
    /// here, about two runs of blocks each, and a full page skips blocks
    /// of both.
    fn query(&self, (a, step): (usize, usize)) -> String {
        let b = (a + step) % self.vocab.len();
        format!("{} {}", self.vocab[a], self.vocab[b])
    }
}

fn scale_query_strategy() -> impl Strategy<Value = (usize, usize)> {
    (0usize..240, 1usize..240)
}

fn blocks_skipped(metrics: &Registry) -> u64 {
    metrics.counter("search.blocks_skipped").get()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Search at the page sizes traffic uses: the posting-merge ranking is
    /// the string scan's, card for card and score bit for score bit. The
    /// hybrid engine is asked for a page as long as the layer, which makes
    /// the index propose every stored vector — the one setting in which
    /// fused search and the fused scan must agree exactly.
    #[test]
    fn search_top_equals_scan_top_at_every_page_size(
        spec in wide_world_strategy(),
        query in wide_query_strategy(),
        seed in any::<u64>(),
        scale_query in scale_query_strategy(),
    ) {
        let kg = Arc::new(build_wide_world(&spec));
        prop_assert!(kg.num_concepts() >= 200, "{} concepts", kg.num_concepts());
        let lexical = engine(&kg, SearchConfig::default());
        for k in [1, 3, 10, 50] {
            let (got, want) = (lexical.search_top(&query, k), lexical.search_scan_top(&query, k));
            prop_assert_eq!(got, want, "lexical, k {}, query {:?}", k, query);
        }
        let bundle = Arc::new(random_bundle(&kg, seed));
        let hybrid = SemanticSearch::new(
            Retriever::new(Arc::clone(&kg), Some(bundle)),
            SearchConfig::default(),
            &Registry::new(),
        );
        let all = kg.num_concepts();
        let (got, want) = (hybrid.search_top(&query, all), hybrid.search_scan_top(&query, all));
        prop_assert_eq!(got, want, "hybrid, query {:?}", query);

        // At scale, where the page's k-th score skips posting blocks.
        let world = scale();
        let query = world.query(scale_query);
        let before = blocks_skipped(&world.lexical_metrics);
        for k in [1, 3, 10] {
            let lexical = &world.lexical;
            let (got, want) = (lexical.search_top(&query, k), lexical.search_scan_top(&query, k));
            prop_assert_eq!(got, want, "scale lexical, k {}, query {:?}", k, query);
        }
        let skipped = blocks_skipped(&world.lexical_metrics) > before;
        prop_assert!(skipped, "scale lexical, {:?} skipped nothing", query);
        // Hybrid pages are cut by what HNSW proposes, so the oracle is the
        // same fusion over the unpruned merge, under the engine's weights.
        let before = blocks_skipped(&world.hybrid_metrics);
        let (retriever, index) = (&world.hybrid_retriever, world.hybrid_retriever.index());
        let weights = world.hybrid.weights();
        let qvec = retriever.embed(&query);
        for k in [1, 10] {
            let unpruned = retriever.fuse(
                index.concept_matches(query.split_whitespace()).map(|m| (m.concept.index() as u32, m)),
                AnnBundle::concepts,
                qvec.as_deref(),
                search::FUSION,
                k,
                None,
                |slot, m: Option<ConceptMatch>, bonus| {
                    let c = ConceptId::from_index(slot as usize);
                    let (hits, prims) = m.map_or((0, 0), |m| (m.surface_hits, m.primitive_hits));
                    weights.score(hits, prims, index.surface_len(c), index.is_stocked(c), bonus)
                },
            );
            let want: Vec<_> = unpruned
                .top
                .into_sorted_vec()
                .into_iter()
                .map(|(slot, score)| world.hybrid.card(ConceptId::from_index(slot as usize), score))
                .collect();
            prop_assert_eq!(world.hybrid.search_top(&query, k), want, "scale hybrid, k {}, query {:?}", k, query);
        }
        let skipped = blocks_skipped(&world.hybrid_metrics) > before;
        prop_assert!(skipped, "scale hybrid, {:?} skipped nothing", query);
    }

    /// QA resolves to the concept a string scan of the layer resolves to:
    /// the first missing oracle of the serving layer.
    #[test]
    fn qa_resolves_to_the_scan_oracles_concept(
        spec in wide_world_strategy(),
        query in wide_query_strategy(),
        scale_query in scale_query_strategy(),
    ) {
        let kg = Arc::new(build_wide_world(&spec));
        let qa = ScenarioQa::new(Retriever::new(Arc::clone(&kg), None), &Registry::new());
        let world = scale();
        let scale_question = format!("what do i need for {}?", world.query(scale_query));
        let question = format!("what do i need for a {query}?");
        for (qa, question) in [(&qa, question), (&world.qa, scale_question)] {
            let kg = qa.retriever().kg();
            match (qa.answer(&question), qa.resolve_scan(&question)) {
                (Some(answer), scan) => prop_assert_eq!(Some(answer.concept), scan, "{:?}", question),
                // No checklist: nothing resolved, or an unstocked concept did
                // and no sibling could lend it items.
                (None, Some(c)) => prop_assert!(kg.concept(c).items.is_empty(), "{:?}", question),
                (None, None) => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// When HNSW is not asked, every page equals its scan oracle bit for
    /// bit, whatever the graph would have proposed: the lexical candidates
    /// filled it above the best a pure proposal can score. And the
    /// ceiling never changes a page: the fusion that always asks gives the
    /// one the engine gives. Extra items all titled "outdoor" give that
    /// word BM25 scores a vector bonus can beat.
    #[test]
    fn a_skipped_proposal_is_exact(
        spec in wide_world_strategy(),
        outdoor_items in prop::collection::vec(0u8..6, 0..40),
        query in wide_query_strategy(),
        seed in any::<u64>(),
    ) {
        let mut kg = build_wide_world(&spec);
        for &w in &outdoor_items {
            kg.add_item(&["outdoor".to_string(), WIDE_VOCAB[w as usize].to_string()]);
        }
        let kg = Arc::new(kg);
        let retriever = Retriever::new(Arc::clone(&kg), Some(Arc::new(sparse_bundle(&kg, seed))));
        let reg = Registry::new();
        let search = SemanticSearch::new(Arc::clone(&retriever), SearchConfig::default(), &reg);
        let qa = ScenarioQa::new(Arc::clone(&retriever), &reg);
        let relevance = RelevanceScorer::new(Arc::clone(&retriever), &reg);
        let skipped = |engine: &str| reg.counter(&format!("{engine}.ann_skipped")).get();
        let (index, weights) = (retriever.index(), search.weights());
        let qvec = retriever.embed(&query);
        let words: Vec<String> = format!("outdoor {query}").split(' ').map(String::from).collect();
        for k in [1, 3, 10] {
            let before = skipped("search");
            let got = search.search_top(&query, k);
            if skipped("search") > before {
                prop_assert_eq!(&got, &search.search_scan_top(&query, k), "k {}, {:?}", k, query);
            }
            // The same ranking with and without the ceiling, and the engine's.
            let bonus = retriever.bonus_ceiling(AnnBundle::concepts, search::FUSION.vector_weight);
            let ceiling = bonus.and_then(|bonus| weights.score(0, 0, 1, true, bonus));
            let pages = [None, ceiling].map(|ceiling| {
                let fused = retriever.fuse(
                    index.concept_matches(query.split_whitespace()).map(|m| (m.concept.index() as u32, m)),
                    AnnBundle::concepts,
                    qvec.as_deref(),
                    search::FUSION,
                    k,
                    ceiling,
                    |slot, m: Option<ConceptMatch>, bonus| {
                        let c = ConceptId::from_index(slot as usize);
                        let (hits, prims) = m.map_or((0, 0), |m| (m.surface_hits, m.primitive_hits));
                        weights.score(hits, prims, index.surface_len(c), index.is_stocked(c), bonus)
                    },
                );
                fused
                    .top
                    .into_sorted_vec()
                    .into_iter()
                    .map(|(slot, score)| search.card(ConceptId::from_index(slot as usize), score))
                    .collect::<Vec<_>>()
            });
            prop_assert_eq!(&pages[0], &pages[1], "k {}, {:?}", k, query);
            prop_assert_eq!(&got, &pages[0], "k {}, {:?}", k, query);

            let before = skipped("relevance");
            let items = relevance.top_items(&words, k);
            if skipped("relevance") > before {
                let scan = relevance_scan(&relevance, &words, |i| relevance.score_plain(&words, i), k);
                prop_assert_eq!(items, scan, "k {}, {:?}", k, query);
            }
        }
        let question = format!("what do i need for a {query}?");
        let before = skipped("qa");
        let answer = qa.answer(&question);
        if skipped("qa") > before {
            match (answer, qa.resolve_scan(&question)) {
                (Some(answer), scan) => prop_assert_eq!(Some(answer.concept), scan, "{:?}", question),
                (None, Some(c)) => prop_assert!(kg.concept(c).items.is_empty(), "{:?}", question),
                (None, None) => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole equivalence: posting-list retrieval + bounded heap
    /// returns exactly the cards of the full-scan sort, in order.
    #[test]
    fn indexed_search_equals_reference_scan(
        spec in world_strategy(),
        query in query_strategy(),
        k in 1usize..6,
    ) {
        let kg = Arc::new(build_world(&spec));
        let s = engine(&kg, SearchConfig { k, ..Default::default() });
        let q = render_query(&query);
        prop_assert_eq!(s.search(&q), s.search_scan(&q), "query {:?}", q);
    }

    /// The keyword fallback ranks by distinct-word title overlap with the
    /// id tie-break, never exceeds k, and only returns real matches.
    #[test]
    fn keyword_items_ranking_invariants(
        spec in world_strategy(),
        query in query_strategy(),
        k in 1usize..6,
    ) {
        let kg = Arc::new(build_world(&spec));
        let s = engine(&kg, SearchConfig::default());
        let q = render_query(&query);
        let hits = s.keyword_items(&q, k);
        prop_assert!(hits.len() <= k);
        let words: std::collections::HashSet<&str> = q.split_whitespace().collect();
        let overlap = |i: alicoco::ItemId| {
            words.iter().filter(|w| kg.item(i).title.iter().any(|t| t == *w)).count()
        };
        for w in hits.windows(2) {
            let (a, b) = (overlap(w[0]), overlap(w[1]));
            prop_assert!(a > b || (a == b && w[0] < w[1]), "not ranked: {:?}", hits);
        }
        for &i in &hits {
            prop_assert!(overlap(i) > 0);
        }
    }

    /// The one oracle for the one fusion: with every stored vector
    /// proposed (`ann_k ≥ n`), the fused top-`k` is the brute-force
    /// ranking of `lexical + w·max(0, cos)` over all ids, an id that is
    /// both lexical and proposed is scored once, and without a bundle the
    /// ranking is the lexical one.
    #[test]
    fn fused_top_k_equals_brute_force_ranking(
        vectors in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 4), 1..24),
        query in prop::collection::vec(-1.0f32..1.0, 4),
        lexical in prop::collection::vec((0u32..24, 1u32..300), 0..24),
        weight in 0.0f64..1.0,
        k in 1usize..8,
    ) {
        let n = vectors.len();
        let mut stored = Hnsw::new(4, HnswConfig::default());
        for v in &vectors {
            stored.insert(v);
        }
        let lexical: BTreeMap<u32, f64> = lexical
            .into_iter()
            .map(|(slot, score)| (slot % n as u32, f64::from(score) / 100.0))
            .collect();
        let fusion = Fusion { vector_weight: weight, ann_k: n };
        let cos = |slot: u32| {
            let dot: f32 = stored.vector(slot).iter().zip(&query).map(|(a, b)| a * b).sum();
            f64::from(dot.max(0.0))
        };
        let brute_force = |bonus: &dyn Fn(u32) -> f64| {
            let mut all: Vec<(u32, f64)> = (0..n as u32)
                .map(|slot| (slot, lexical.get(&slot).copied().unwrap_or(0.0) + bonus(slot)))
                .filter(|&(_, score)| score > 0.0)
                .collect();
            all.sort_by(by_score_then_id);
            all.truncate(k);
            all
        };
        let keep_positive = |lex: Option<f64>, bonus: f64| {
            let score = lex.unwrap_or(0.0) + bonus;
            (score > 0.0).then_some(score)
        };

        let kg = Arc::new(AliCoCo::new());
        let no_items = Hnsw::new(4, HnswConfig::default());
        let bundle = AnnBundle::new(TokenTable::default(), stored.clone(), no_items);
        let hybrid = Retriever::new(Arc::clone(&kg), Some(Arc::new(bundle)));
        let scored = RefCell::new(vec![0usize; n]);
        let fused = hybrid.fuse(
            lexical.iter().map(|(&slot, &score)| (slot, score)),
            AnnBundle::concepts,
            Some(&query),
            fusion,
            k,
            None,
            |slot, lex, bonus| {
                scored.borrow_mut()[slot as usize] += 1;
                keep_positive(lex, bonus)
            },
        );
        prop_assert_eq!((fused.proposed, fused.examined), (n, n));
        prop_assert_eq!(fused.top.into_sorted_vec(), brute_force(&|slot| weight * cos(slot)));
        prop_assert!(scored.borrow().iter().all(|&times| times == 1));

        // With the ceiling, HNSW is asked only while a proposal can still
        // make the page, and the page is the same.
        let scored = RefCell::new(vec![0usize; n]);
        let fused = hybrid.fuse(
            lexical.iter().map(|(&slot, &score)| (slot, score)),
            AnnBundle::concepts,
            Some(&query),
            fusion,
            k,
            hybrid.bonus_ceiling(AnnBundle::concepts, weight),
            |slot, lex, bonus| {
                scored.borrow_mut()[slot as usize] += 1;
                keep_positive(lex, bonus)
            },
        );
        let asked = fused.proposals == Proposals::Asked;
        let expected = if asked { (n, n) } else { (0, lexical.len()) };
        prop_assert_eq!((fused.proposed, fused.examined), expected);
        prop_assert_eq!(fused.top.into_sorted_vec(), brute_force(&|slot| weight * cos(slot)));
        prop_assert!(scored.borrow().iter().all(|&times| times <= 1));

        let plain = Retriever::new(Arc::clone(&kg), None);
        let fused = plain.fuse(
            lexical.iter().map(|(&slot, &score)| (slot, score)),
            AnnBundle::concepts,
            Some(&query),
            fusion,
            k,
            None,
            |_, lex, bonus| keep_positive(lex, bonus),
        );
        prop_assert_eq!((fused.proposed, fused.examined), (0, lexical.len()));
        prop_assert_eq!(fused.top.into_sorted_vec(), brute_force(&|_| 0.0));
    }

    /// The relevance engine's indexed retrieval is its per-item scan:
    /// `top_items` ranks exactly as `score_plain` plus the vector bonus
    /// over every item, and `top_items_expanded` as `score_expanded` plus
    /// the bonus of the expanded query — lexically, and on a hybrid
    /// retriever whose item index proposes every stored vector (worlds
    /// hold fewer items than the engine's 16 proposals).
    #[test]
    fn relevance_top_items_equal_the_per_item_scan(
        spec in world_strategy(),
        is_a in prop::collection::vec((0u8..10, 0u8..10), 0..8),
        query in query_strategy(),
        k in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut kg = build_world(&spec);
        let n_prims = kg.num_primitives();
        for &(a, b) in &is_a {
            let hypo = PrimitiveId::from_index(a as usize % n_prims);
            let hyper = PrimitiveId::from_index(b as usize % n_prims);
            kg.try_add_primitive_is_a(hypo, hyper);
        }
        let kg = Arc::new(kg);
        let words: Vec<String> = render_query(&query)
            .split(' ')
            .map(String::from)
            .collect();
        let bundle = Arc::new(item_bundle(&kg, seed));
        for ann in [None, Some(bundle)] {
            let hybrid = ann.is_some();
            let retriever = Retriever::new(Arc::clone(&kg), ann);
            let scorer = RelevanceScorer::new(retriever, &Registry::new());
            let plain = relevance_scan(&scorer, &words, |i| scorer.score_plain(&words, i), k);
            prop_assert_eq!(scorer.top_items(&words, k), plain, "hybrid {}", hybrid);
            let expanded = scorer.expand_query(&words);
            let scan = relevance_scan(&scorer, &expanded, |i| scorer.score_expanded(&words, i), k);
            prop_assert_eq!(scorer.top_items_expanded(&words, k), scan, "hybrid {}", hybrid);
        }
    }

    /// The recommender's one accumulator and page-only reasons give the
    /// cards of the map-of-sets scan — concept, affinity bit for bit,
    /// reason and items — and count the same touched concepts, lexically
    /// and on a hybrid retriever. Each world is asked with an empty
    /// history, a random one, that one twice over (every item repeated),
    /// and one that reaches concept 0 by a direct link, a shared primitive
    /// and (hybrid) its vector. Each history is asked twice of a fresh
    /// engine: cold, when the hybrid one walks HNSW once per distinct item,
    /// and warm, when it reads every item's votes from its memo.
    #[test]
    fn recommend_equals_the_map_of_sets_scan(
        spec in world_strategy(),
        item_prims in prop::collection::vec((0u8..10, 0u8..10), 0..16),
        history in prop::collection::vec(0u8..10, 0..6),
        k in 1usize..16,
        items_per_card in 0usize..4,
        seed in any::<u64>(),
    ) {
        let kg = Arc::new(build_recommend_world(&spec, &item_prims));
        let history: Vec<ItemId> = history
            .iter()
            .map(|&i| ItemId::from_index(i as usize % kg.num_items()))
            .collect();
        let twice = [history.clone(), history.clone()].concat();
        let with_item_0 = [vec![ItemId::from_index(0)], history.clone()].concat();
        let cfg = RecommendConfig { k, items_per_card };
        let bundle = Arc::new(recommend_bundle(&kg, seed));
        for ann in [None, Some(bundle)] {
            let hybrid = ann.is_some();
            let retriever = Retriever::new(Arc::clone(&kg), ann);
            for history in [&[][..], &history, &twice, &with_item_0] {
                let reg = Registry::new();
                let engine = CognitiveRecommender::new(Arc::clone(&retriever), cfg, &reg);
                let (want, candidates, reached) = recommend_scan(&retriever, cfg, history);
                for pass in ["cold", "warm"] {
                    let at = format!("hybrid {hybrid} {pass} {history:?}");
                    let before = reg.counter("recommend.candidates").get();
                    let got = engine.recommend(history);
                    let touched = reg.counter("recommend.candidates").get() - before;
                    prop_assert_eq!(touched, candidates as u64, "{}", at);
                    prop_assert_eq!(got.len(), want.len(), "{}", at);
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(g.concept, w.concept, "{}", at);
                        prop_assert_eq!(g.affinity.to_bits(), w.affinity.to_bits(), "{}", at);
                        prop_assert_eq!(&g.reason, &w.reason, "{}", at);
                        prop_assert_eq!(&g.items, &w.items, "{}", at);
                        prop_assert_eq!(&g.name, &w.name);
                    }
                }
                let distinct = history.iter().collect::<BTreeSet<_>>().len() as u64;
                let walks = reg.counter("recommend.knn_walks").get();
                prop_assert_eq!(walks, if hybrid { distinct } else { 0 }, "{:?}", history);
                if history == with_item_0.as_slice() {
                    let c0 = ConceptId::from_index(0);
                    let by = reached.iter().filter(|r| r.contains(&c0)).count();
                    prop_assert_eq!(by, if hybrid { 3 } else { 2 }, "{:?}", history);
                }
            }
        }
    }
}

/// Two threads recommending overlapping histories on one hybrid engine
/// fill its memo at the same time; each item is walked once, and every
/// answer they get equals a fresh engine's for the same history, bit for
/// bit.
#[test]
fn concurrent_recommends_equal_a_fresh_engines() {
    let mut rng = StdRng::seed_from_u64(37);
    let mut pairs = |n: usize, hi: u8| -> Vec<(u8, u8)> {
        (0..n)
            .map(|_| (rng.gen_range(0..hi), rng.gen_range(0..hi)))
            .collect()
    };
    let spec = WorldSpec {
        primitives: pairs(10, 12),
        concepts: pairs(200, 12),
        items: pairs(120, 12),
        concept_prims: pairs(300, 200),
        concept_items: pairs(300, 120)
            .into_iter()
            .map(|(c, i)| (c, i, c % 101))
            .collect(),
    };
    let item_prims = pairs(150, 120);
    let kg = Arc::new(build_recommend_world(&spec, &item_prims));
    let retriever = Retriever::new(Arc::clone(&kg), Some(Arc::new(recommend_bundle(&kg, 5))));
    let cfg = RecommendConfig::default();
    let reg = Registry::new();
    let shared = CognitiveRecommender::new(Arc::clone(&retriever), cfg, &reg);
    // Thread `t`'s `h`-th history: three items, overlapping the other
    // thread's and its own earlier ones.
    let history = |t: usize, h: usize| -> Vec<ItemId> {
        let start = h * 7 + t * 3;
        [start, start + 11, start + 29]
            .map(|i| ItemId::from_index(i % kg.num_items()))
            .to_vec()
    };
    // Both threads ask their `h`-th history at once.
    let step = std::sync::Barrier::new(2);
    let answers: Vec<Vec<(Vec<ItemId>, Vec<Recommendation>)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let (shared, history, step) = (&shared, &history, &step);
                s.spawn(move || {
                    (0..60)
                        .map(|h| {
                            let viewed = history(t, h);
                            step.wait();
                            let got = shared.recommend(&viewed);
                            (viewed, got)
                        })
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    // Each item walked once, whichever thread asked first.
    let distinct: BTreeSet<ItemId> = answers
        .iter()
        .flatten()
        .flat_map(|(v, _)| v.clone())
        .collect();
    assert_eq!(
        reg.counter("recommend.knn_walks").get(),
        distinct.len() as u64
    );
    for (viewed, got) in answers.iter().flatten() {
        let fresh = CognitiveRecommender::new(Arc::clone(&retriever), cfg, &Registry::new());
        let want = fresh.recommend(viewed);
        assert_eq!(got.len(), want.len(), "{viewed:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.concept, w.concept, "{viewed:?}");
            assert_eq!(g.affinity.to_bits(), w.affinity.to_bits(), "{viewed:?}");
            assert_eq!(g.reason, w.reason, "{viewed:?}");
            assert_eq!(g.items, w.items, "{viewed:?}");
        }
    }
}
