//! Cognitive recommendation (§8.2): trigger concept cards from a user's
//! browsing history — recommending *needs*, not lookalike items — plus
//! human-readable recommendation reasons (§8.2.2).

use std::sync::{Arc, OnceLock};

use alicoco::rank::TopK;
use alicoco::{AliCoCo, ConceptId, ItemId, PrimitiveId};
use alicoco_ann::AnnBundle;
use alicoco_nn::util::{FxHashMap, FxHashSet};
use alicoco_obs::{Counter, Histogram, Registry, SpanTimer, Stopwatch};

use crate::retrieve::{Fusion, Retriever, ANN_EF};

/// The recommender's vector-vote constants: each viewed item's stored
/// embedding votes `vector_weight · max(0, cos)` for its 8 nearest
/// concepts. The weight sits deliberately below `shared_weight`·votes so
/// vector evidence refines but never outranks graph evidence. (The
/// recommender votes per history item; it does not run the union fusion.)
const FUSION: Fusion = Fusion {
    vector_weight: 0.1,
    ann_k: 8,
};

/// Pre-registered `recommend.*` metric handles.
#[derive(Clone, Debug)]
struct RecommendMetrics {
    requests: Arc<Counter>,
    history_items: Arc<Counter>,
    candidates: Arc<Counter>,
    knn_walks: Arc<Counter>,
    total_ns: Arc<Histogram>,
    knn_ns: Arc<Histogram>,
}

impl RecommendMetrics {
    fn register(reg: &Registry) -> Self {
        RecommendMetrics {
            requests: reg.counter("recommend.requests"),
            history_items: reg.counter("recommend.history_items"),
            candidates: reg.counter("recommend.candidates"),
            knn_walks: reg.counter("recommend.knn_walks"),
            total_ns: reg.histogram("recommend.total_ns"),
            knn_ns: reg.histogram("recommend.knn_ns"),
        }
    }
}

/// A scored recommendation with its explanation. The name borrows from
/// the net.
#[derive(Clone, Debug)]
pub struct Recommendation<'a> {
    /// Concept.
    pub concept: ConceptId,
    /// Concept surface form.
    pub name: &'a str,
    /// Affinity.
    pub affinity: f64,
    /// Reason.
    pub reason: Reason,
    /// Items to display on the card, excluding already-viewed ones.
    pub items: Vec<(ItemId, f32)>,
}

/// Why this concept was recommended (§8.2.2: concepts are "perfect
/// recommendation reasons" because they are clear and brief).
#[derive(Clone, Debug, PartialEq)]
pub enum Reason {
    /// A viewed item is directly linked to the concept.
    ViewedItem {
        /// The viewed item that triggered the card.
        item: ItemId,
    },
    /// Viewed items share interpreting primitives with the concept.
    SharedNeed {
        /// The shared primitive concepts.
        primitives: Vec<PrimitiveId>,
    },
    /// A viewed item's embedding is close to the concept's — the hybrid
    /// trigger for concepts sharing neither links nor primitives with the
    /// history.
    SimilarIntent {
        /// The viewed item whose vector triggered the card.
        item: ItemId,
    },
}

impl Reason {
    /// Render the reason as user-facing text.
    pub fn text(&self, kg: &AliCoCo, concept: &str) -> String {
        let mut text = String::new();
        self.write_text(kg, concept, |piece| text.push_str(piece));
        text
    }

    /// Hand the pieces of [`text`](Self::text) to `push` in order, so a
    /// writer can escape them into its own buffer without the joined
    /// text ever being built.
    pub fn write_text(&self, kg: &AliCoCo, concept: &str, mut push: impl FnMut(&str)) {
        fn title(kg: &AliCoCo, item: ItemId, push: &mut impl FnMut(&str)) {
            for (i, token) in kg.item(item).title.iter().enumerate() {
                if i > 0 {
                    push(" ");
                }
                push(token);
            }
        }
        match self {
            Reason::ViewedItem { item } => {
                push("because you viewed \"");
                title(kg, *item, &mut push);
                push("\" — everything for ");
            }
            Reason::SharedNeed { primitives } => {
                push("matches your interest in ");
                for (i, &p) in primitives.iter().enumerate() {
                    if i > 0 {
                        push(", ");
                    }
                    push(&kg.primitive(p).name);
                }
                push(" — ");
            }
            Reason::SimilarIntent { item } => {
                push("close to what \"");
                title(kg, *item, &mut push);
                push("\" is for — ");
            }
        }
        push(concept);
    }
}

/// Tuning for the recommender.
#[derive(Clone, Copy, Debug)]
pub struct RecommendConfig {
    /// Max recommendations returned.
    pub k: usize,
    /// Items per card.
    pub items_per_card: usize,
    /// Vote weight of a direct item->concept link.
    pub direct_weight: f64,
    /// Vote weight of each shared primitive.
    pub shared_weight: f64,
}

impl Default for RecommendConfig {
    fn default() -> Self {
        RecommendConfig {
            k: 3,
            items_per_card: 8,
            direct_weight: 1.0,
            shared_weight: 0.2,
        }
    }
}

/// One viewed item's vector votes: the concepts the walk from its stored
/// embedding returns with a positive cosine, nearest first. Inline, so a
/// memo cell holds it without a heap allocation.
#[derive(Clone, Copy, Debug)]
struct Near {
    len: u8,
    hits: [(u32, f32); FUSION.ann_k],
}

impl Near {
    /// The walk a request runs for `item`; zero-or-negative cosines never
    /// vote, so a zero-vector item (all-unknown title) keeps nothing.
    fn walk(bundle: &AnnBundle, item: ItemId) -> Near {
        let qv = bundle.items().vector(item.index() as u32);
        let found = bundle.concepts().knn(qv, FUSION.ann_k, ANN_EF);
        let mut near = Near {
            len: 0,
            hits: [(0, 0.0); FUSION.ann_k],
        };
        let positive = found.into_iter().filter(|&(_, cos)| cos > 0.0);
        for (slot, hit) in near.hits.iter_mut().zip(positive) {
            *slot = hit;
            near.len += 1;
        }
        near
    }

    fn hits(&self) -> impl Iterator<Item = &(u32, f32)> {
        self.hits.iter().take(usize::from(self.len))
    }
}

/// The user-needs recommender.
pub struct CognitiveRecommender {
    retriever: Arc<Retriever>,
    cfg: RecommendConfig,
    metrics: RecommendMetrics,
    /// Each item's vector votes, filled on the item's first request: the
    /// walk's query is the item's stored vector, so its answer depends on
    /// the item alone. One cell per item of the bundle's item index; empty
    /// without a bundle.
    memo: Box<[OnceLock<Near>]>,
}

impl CognitiveRecommender {
    /// Build the engine over the pack's shared retriever (its primitive →
    /// concepts postings and, on a hybrid snapshot, its bundle), recording
    /// `recommend.*` metrics into `metrics`.
    pub fn new(retriever: Arc<Retriever>, cfg: RecommendConfig, metrics: &Registry) -> Self {
        let items = retriever.ann().map_or(0, |bundle| bundle.items().len());
        CognitiveRecommender {
            retriever,
            cfg,
            metrics: RecommendMetrics::register(metrics),
            memo: (0..items).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `item`'s vector votes, from the memo or, on its first request (or
    /// past the item index), from a walk.
    fn near(&self, bundle: &AnnBundle, item: ItemId) -> Near {
        let walk = || {
            self.metrics.knn_walks.inc();
            Near::walk(bundle, item)
        };
        match self.memo.get(item.index()) {
            Some(cell) => *cell.get_or_init(walk),
            None => walk(),
        }
    }

    /// The retriever the engine shares with the pack's other engines.
    pub fn retriever(&self) -> &Arc<Retriever> {
        &self.retriever
    }

    /// Recommend concept cards for a browsing history.
    pub fn recommend(&self, history: &[ItemId]) -> Vec<Recommendation<'_>> {
        let kg = self.retriever.kg();
        let index = self.retriever.index();
        let ann = self.retriever.ann();
        let _span = SpanTimer::new(Arc::clone(&self.metrics.total_ns));
        self.metrics.requests.inc();
        self.metrics.history_items.add(history.len() as u64);
        // Room for every vote the history can cast, so the map never grows.
        let linked = history.iter().map(|&i| kg.concepts_for_item(i).len());
        let shared = history.iter().flat_map(|&i| kg.item(i).primitives);
        let shared = shared.map(|&p| index.concepts_by_primitive(p).len());
        let reach = linked.sum::<usize>() + shared.sum::<usize>() + history.len() * FUSION.ann_k;
        let mut votes: FxHashMap<ConceptId, Vote> =
            FxHashMap::with_capacity_and_hasher(reach, Default::default());
        let mut knn_ns = 0;
        for &item in history {
            for &cid in kg.concepts_for_item(item) {
                let vote = votes.entry(cid).or_default();
                vote.affinity += self.cfg.direct_weight;
                vote.direct.get_or_insert(item);
            }
            for &p in kg.item(item).primitives {
                for &cid in index.concepts_by_primitive(p) {
                    let vote = votes.entry(cid).or_default();
                    vote.affinity += self.cfg.shared_weight;
                    vote.shared = true;
                }
            }
            if let Some(bundle) = ann {
                // The viewed item's stored embedding votes for its nearest
                // concepts.
                let watch = Stopwatch::start();
                let near = self.near(bundle, item);
                knn_ns += watch.elapsed_ns();
                for &(id, cos) in near.hits() {
                    let vote = votes.entry(ConceptId::from_index(id as usize)).or_default();
                    vote.affinity += FUSION.vector_weight * f64::from(cos);
                    vote.similar.get_or_insert(item);
                }
            }
        }
        self.metrics.candidates.add(votes.len() as u64);
        if ann.is_some() && !history.is_empty() {
            self.metrics.knn_ns.record(knn_ns);
        }
        let mut top = TopK::new(self.cfg.k);
        for (&cid, vote) in &votes {
            top.push(cid, vote.affinity);
        }
        let viewed: FxHashSet<ItemId> = history.iter().copied().collect();
        top.into_sorted_vec()
            .into_iter()
            .map(|(cid, affinity)| {
                // Reason preference mirrors evidence strength: a direct
                // link beats shared primitives beats vector proximity.
                let vote = votes.get(&cid).copied().unwrap_or_default();
                let reason = match (vote.direct, vote.shared, vote.similar) {
                    (Some(item), _, _) => Reason::ViewedItem { item },
                    (None, true, _) => {
                        // `c ∈ concepts_by_primitive(p)` ⇔ `p` is one of
                        // `c`'s primitives: these are the ones that voted.
                        let mut primitives = kg.concept(cid).primitives.to_vec();
                        primitives
                            .retain(|p| viewed.iter().any(|&i| kg.item(i).primitives.contains(p)));
                        primitives.sort_unstable();
                        primitives.dedup();
                        Reason::SharedNeed { primitives }
                    }
                    (None, false, Some(item)) => Reason::SimilarIntent { item },
                    (None, false, None) => Reason::SharedNeed { primitives: vec![] },
                };
                // Novelty (§8.2.1): never re-show viewed items. At most
                // `viewed.len()` of the best leave, so the card's items are
                // among that many more than it shows.
                let mut items = kg
                    .top_items(cid, self.cfg.items_per_card + viewed.len())
                    .into_owned();
                items.retain(|(i, _)| !viewed.contains(i));
                items.truncate(self.cfg.items_per_card);
                Recommendation {
                    concept: cid,
                    name: kg.concept(cid).name,
                    affinity,
                    reason,
                    items,
                }
            })
            .collect()
    }
}

/// One touched concept's evidence, folded as the history is read: its
/// affinity (the contributions added in history order — per viewed item,
/// direct links, then shared primitives, then vector votes), the first
/// viewed item linked to it, whether a viewed item shares a primitive
/// with it, and the first viewed item whose embedding voted for it.
#[derive(Clone, Copy, Debug, Default)]
struct Vote {
    affinity: f64,
    direct: Option<ItemId>,
    shared: bool,
    similar: Option<ItemId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(kg: &Arc<AliCoCo>) -> CognitiveRecommender {
        let retriever = Retriever::new(Arc::clone(kg), None);
        CognitiveRecommender::new(retriever, RecommendConfig::default(), &Registry::new())
    }

    fn sample_kg() -> (AliCoCo, ItemId, ItemId, ConceptId) {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let event = kg.add_class("Event", Some(root));
        let bbq = kg.add_primitive("barbecue", event);
        let c = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c, bbq);
        let grill = kg.add_item(&["grill".into()]);
        let charcoal = kg.add_item(&["charcoal".into()]);
        kg.link_concept_item(c, grill, 0.9);
        kg.link_concept_item(c, charcoal, 0.8);
        kg.link_item_primitive(grill, bbq);
        (kg, grill, charcoal, c)
    }

    #[test]
    fn direct_link_triggers_recommendation_with_reason() {
        let (kg, grill, charcoal, c) = sample_kg();
        let kg = Arc::new(kg);
        let rec = engine(&kg);
        let out = rec.recommend(&[grill]);
        assert_eq!(out.len(), 1);
        let r = &out[0];
        assert_eq!(r.concept, c);
        assert_eq!(r.reason, Reason::ViewedItem { item: grill });
        let text = r.reason.text(&kg, r.name);
        assert!(text.contains("grill"), "reason text: {text}");
        // Novelty: viewed grill is excluded; charcoal remains.
        assert_eq!(r.items.len(), 1);
        assert_eq!(r.items[0].0, charcoal);
    }

    #[test]
    fn shared_primitive_triggers_indirect_recommendation() {
        let (mut kg, _, _, c) = sample_kg();
        // A new item that shares the "barbecue" primitive but is not linked
        // to the concept.
        let bbq = kg.primitives_by_name("barbecue")[0];
        let skewers = kg.add_item(&["skewers".into()]);
        kg.link_item_primitive(skewers, bbq);
        let kg = Arc::new(kg);
        let rec = engine(&kg);
        let out = rec.recommend(&[skewers]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].concept, c);
        match &out[0].reason {
            Reason::SharedNeed { primitives } => assert_eq!(primitives, &vec![bbq]),
            other => panic!("expected shared-need reason, got {other:?}"),
        }
    }

    #[test]
    fn empty_history_yields_nothing() {
        let (kg, _, _, _) = sample_kg();
        let kg = Arc::new(kg);
        let rec = engine(&kg);
        assert!(rec.recommend(&[]).is_empty());
    }

    #[test]
    fn instrumented_recommendations_match_and_count() {
        let (kg, grill, _, c) = sample_kg();
        let reg = Registry::new();
        let kg = Arc::new(kg);
        let retriever = Retriever::new(Arc::clone(&kg), None);
        let rec = CognitiveRecommender::new(retriever, RecommendConfig::default(), &reg);
        let out = rec.recommend(&[grill]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].concept, c);
        let _ = rec.recommend(&[]);
        assert_eq!(reg.counter("recommend.requests").get(), 2);
        assert_eq!(reg.counter("recommend.history_items").get(), 1);
        assert_eq!(reg.counter("recommend.candidates").get(), 1);
        assert_eq!(reg.histogram("recommend.total_ns").count(), 2);
        // A lexical retriever never asks HNSW.
        assert_eq!(reg.histogram("recommend.knn_ns").count(), 0);
        assert_eq!(reg.counter("recommend.knn_walks").get(), 0);
    }

    /// A filled memo cell is inline: one per item, at most 72 bytes.
    #[test]
    fn a_memo_cell_holds_its_votes_inline() {
        assert!(std::mem::size_of::<OnceLock<Near>>() <= 72);
    }

    /// Hybrid retrieval: an item with no concept link and no primitive can
    /// still trigger the concept its embedding sits next to, with a
    /// vector-proximity reason — and graph evidence still outranks it.
    #[test]
    fn vector_proximity_triggers_unlinked_concepts() {
        let (mut kg, grill, _, c) = sample_kg();
        // "skewers" shares barbecue vocabulary through its concept-item
        // corpus co-occurrence only: no link, no primitive.
        let skewers = kg.add_item(&["charcoal".into(), "skewers".into()]);
        let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
        let kg = Arc::new(kg);
        let plain = engine(&kg);
        assert!(
            plain.recommend(&[skewers]).is_empty(),
            "graph-only recommender has no evidence for this history"
        );
        let reg = Registry::new();
        let rec = CognitiveRecommender::new(
            Retriever::new(Arc::clone(&kg), Some(bundle)),
            RecommendConfig::default(),
            &reg,
        );
        let out = rec.recommend(&[skewers]);
        assert!(!out.is_empty(), "vector votes must surface a concept");
        assert_eq!(out[0].concept, c);
        assert_eq!(out[0].reason, Reason::SimilarIntent { item: skewers });
        let text = out[0].reason.text(&kg, out[0].name);
        assert!(text.contains("skewers"), "reason text: {text}");
        // A direct link still outranks pure vector proximity.
        let fused = rec.recommend(&[grill]);
        assert_eq!(fused[0].concept, c);
        assert_eq!(fused[0].reason, Reason::ViewedItem { item: grill });
        // Each item walks once; asking again reads the memo.
        let again = rec.recommend(&[skewers, grill]);
        assert_eq!(again[0].concept, c);
        assert_eq!(reg.counter("recommend.knn_walks").get(), 2);
        assert_eq!(reg.histogram("recommend.knn_ns").count(), 3);
    }

    #[test]
    fn direct_links_outrank_shared_primitives() {
        let (mut kg, grill, _, c_direct) = sample_kg();
        let event = kg.class_by_name("Event").unwrap();
        let picnic = kg.add_primitive("picnic", event);
        let c_indirect = kg.add_concept("park picnic");
        kg.link_concept_primitive(c_indirect, picnic);
        kg.link_item_primitive(grill, picnic);
        let kg = Arc::new(kg);
        let rec = engine(&kg);
        let out = rec.recommend(&[grill]);
        assert!(out.len() >= 2);
        assert_eq!(out[0].concept, c_direct, "direct link must rank first");
    }
}
