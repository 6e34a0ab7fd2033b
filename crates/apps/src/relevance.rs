//! Search relevance with isA knowledge (§8.1.1): expanding a query (or the
//! matching vocabulary) with the concept net's hypernym relations closes
//! vocabulary gaps — "if a user searches for a top, items titled only
//! 'jacket' are relevant because jacket isA top".

use std::sync::Arc;

use alicoco::{AliCoCo, PrimitiveId};
use alicoco_ann::AnnBundle;
use alicoco_nn::util::FxHashSet;
use alicoco_obs::{Counter, Histogram, Registry, SpanTimer};
use alicoco_text::bm25::{Bm25Index, Bm25Metrics, Bm25Params};
use alicoco_text::vocab::{TokenId, Vocab};

use crate::retrieve::{Fusion, Proposals, Retriever};

/// Relevance's fusion constants: a full cosine adds 0.5 to an item's BM25
/// score, and the index proposes 16 items per query — so a query word
/// that titles no item can still retrieve the items of the concept it
/// embeds next to.
const FUSION: Fusion = Fusion {
    vector_weight: 0.5,
    ann_k: 16,
};

/// Pre-registered `relevance.*` metric handles.
#[derive(Clone, Debug)]
struct RelevanceMetrics {
    queries: Arc<Counter>,
    expanded_terms: Arc<Counter>,
    ann_skipped: Arc<Counter>,
    expand_ns: Arc<Histogram>,
    retrieve_ns: Arc<Histogram>,
}

impl RelevanceMetrics {
    fn register(reg: &Registry) -> Self {
        RelevanceMetrics {
            queries: reg.counter("relevance.queries"),
            expanded_terms: reg.counter("relevance.expanded_terms"),
            ann_skipped: reg.counter("relevance.ann_skipped"),
            expand_ns: reg.histogram("relevance.expand_ns"),
            retrieve_ns: reg.histogram("relevance.retrieve_ns"),
        }
    }
}

/// The BM25 index over every item title of a net and the vocabulary that
/// encodes words for it: the part of a [`RelevanceScorer`] that needs only
/// the net, so a serving pack builds it beside the retriever's index.
pub struct TitleIndex {
    vocab: Vocab,
    index: Bm25Index,
}

impl TitleIndex {
    /// Index the titles of every item of `kg`.
    pub fn build(kg: &AliCoCo) -> Self {
        // Every title token gets its id first, in item order; the index
        // then encodes one title at a time rather than holding them all.
        let mut vocab = Vocab::new();
        for iid in kg.item_ids() {
            for t in kg.item(iid).title {
                vocab.add(t);
            }
        }
        let title = |d: usize, out: &mut Vec<TokenId>| {
            let item = kg.item(alicoco::ItemId::from_index(d));
            out.extend(item.title.iter().map(|t| vocab.get_or_unk(t)));
        };
        let index = Bm25Index::build_from(kg.num_items(), title, Bm25Params::default());
        TitleIndex { vocab, index }
    }
}

/// A relevance scorer over item titles with optional isA expansion.
pub struct RelevanceScorer {
    retriever: Arc<Retriever>,
    titles: TitleIndex,
    metrics: RelevanceMetrics,
}

impl RelevanceScorer {
    /// Build the BM25 title index over all items in the retriever's net,
    /// recording `relevance.*` (and the underlying `bm25.*`) metrics into
    /// `metrics`.
    pub fn new(retriever: Arc<Retriever>, metrics: &Registry) -> Self {
        let titles = TitleIndex::build(retriever.kg());
        Self::with_titles(retriever, titles, metrics)
    }

    /// [`new`](Self::new) over a title index already built from the
    /// retriever's net.
    pub fn with_titles(
        retriever: Arc<Retriever>,
        mut titles: TitleIndex,
        metrics: &Registry,
    ) -> Self {
        titles.index.set_metrics(Bm25Metrics::register(metrics));
        RelevanceScorer {
            retriever,
            titles,
            metrics: RelevanceMetrics::register(metrics),
        }
    }

    /// The retriever the engine shares with the pack's other engines.
    pub fn retriever(&self) -> &Arc<Retriever> {
        &self.retriever
    }

    fn kg(&self) -> &AliCoCo {
        self.retriever.kg()
    }

    fn encode(&self, words: &[String]) -> Vec<TokenId> {
        words
            .iter()
            .map(|w| self.titles.vocab.get_or_unk(w))
            .collect()
    }

    /// The transitive hyponym closure of a primitive (all its descendants in
    /// the isA graph).
    fn hyponym_closure(&self, root: PrimitiveId) -> Vec<PrimitiveId> {
        let mut seen: FxHashSet<PrimitiveId> = FxHashSet::default();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(p) = stack.pop() {
            for &h in &self.kg().primitive(p).hyponyms {
                if seen.insert(h) {
                    out.push(h);
                    stack.push(h);
                }
            }
        }
        out
    }

    /// Expand query words with the names of hyponyms of any matching
    /// primitive concept.
    pub fn expand_query(&self, words: &[String]) -> Vec<String> {
        let _span = SpanTimer::new(Arc::clone(&self.metrics.expand_ns));
        let mut out: Vec<String> = words.to_vec();
        let mut seen: FxHashSet<String> = words.iter().cloned().collect();
        // Try single words and the full phrase as primitive surfaces.
        let mut surfaces: Vec<String> = words.to_vec();
        if words.len() > 1 {
            surfaces.push(words.join(" "));
        }
        for surface in surfaces {
            for &p in self.kg().primitives_by_name(&surface) {
                for h in self.hyponym_closure(p) {
                    for tok in self.kg().primitive(h).name.split(' ') {
                        if seen.insert(tok.to_string()) {
                            out.push(tok.to_string());
                        }
                    }
                }
            }
        }
        self.metrics
            .expanded_terms
            .add((out.len() - words.len()) as u64);
        out
    }

    /// BM25 score of an item for a query, keyword-only.
    pub fn score_plain(&self, words: &[String], item: alicoco::ItemId) -> f64 {
        self.titles.index.score(&self.encode(words), item.index())
    }

    /// BM25 score with isA query expansion.
    pub fn score_expanded(&self, words: &[String], item: alicoco::ItemId) -> f64 {
        let expanded = self.expand_query(words);
        self.titles
            .index
            .score(&self.encode(&expanded), item.index())
    }

    /// Top-`k` items for a query, without expansion: candidates come from
    /// the BM25 postings (items sharing no query term are never touched),
    /// joined on a hybrid snapshot by the HNSW nearest items of the
    /// embedded query and scored `bm25 + FUSION.vector_weight · max(0,
    /// cos)`. Only positive scores are returned, in the workspace ranking
    /// order (score descending, item id ascending). A pure proposal scores
    /// at most the largest bonus, so a page the BM25 hits fill above it
    /// is final without asking HNSW.
    pub fn top_items(&self, words: &[String], k: usize) -> Vec<(alicoco::ItemId, f64)> {
        self.metrics.queries.inc();
        let _span = SpanTimer::new(Arc::clone(&self.metrics.retrieve_ns));
        let lexical = self.titles.index.candidate_scores(&self.encode(words));
        let qvec = self.retriever.embed(&words.join(" "));
        let side = AnnBundle::items;
        let fused = self.retriever.fuse(
            lexical.iter().map(|&(doc, bm25)| (doc as u32, bm25)),
            side,
            qvec.as_deref(),
            FUSION,
            k,
            self.retriever.bonus_ceiling(side, FUSION.vector_weight),
            |_, bm25: Option<f64>, bonus| {
                let score = bm25.unwrap_or(0.0) + bonus;
                (score > 0.0).then_some(score)
            },
        );
        if fused.proposals == Proposals::Skipped {
            self.metrics.ann_skipped.inc();
        }
        fused
            .top
            .into_sorted_vec()
            .into_iter()
            .map(|(slot, score)| (alicoco::ItemId::from_index(slot as usize), score))
            .collect()
    }

    /// Top-`k` items with isA query expansion — the §8.1.1 serving path:
    /// expand, then retrieve from postings only.
    pub fn top_items_expanded(&self, words: &[String], k: usize) -> Vec<(alicoco::ItemId, f64)> {
        let expanded = self.expand_query(words);
        self.top_items(&expanded, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scorer_in(
        kg: &Arc<AliCoCo>,
        bundle: Option<Arc<AnnBundle>>,
        reg: &Registry,
    ) -> RelevanceScorer {
        RelevanceScorer::new(Retriever::new(Arc::clone(kg), bundle), reg)
    }

    fn scorer(kg: &Arc<AliCoCo>) -> RelevanceScorer {
        scorer_in(kg, None, &Registry::new())
    }

    /// "jacket isA top": a query for "top" must reach an item titled only
    /// "jacket" after expansion.
    fn sample_kg() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let cat = kg.add_class("Category", Some(root));
        let top = kg.add_primitive("top", cat);
        let jacket = kg.add_primitive("jacket", cat);
        let hoodie = kg.add_primitive("hoodie", cat);
        kg.add_primitive_is_a(jacket, top);
        kg.add_primitive_is_a(hoodie, top);
        kg.add_item(&["warm".into(), "jacket".into()]);
        kg.add_item(&["grey".into(), "hoodie".into()]);
        kg.add_item(&["ceramic".into(), "pot".into()]);
        kg
    }

    #[test]
    fn expansion_adds_hyponyms() {
        let kg = Arc::new(sample_kg());
        let scorer = scorer(&kg);
        let expanded = scorer.expand_query(&["top".to_string()]);
        assert!(expanded.contains(&"jacket".to_string()));
        assert!(expanded.contains(&"hoodie".to_string()));
        assert!(!expanded.contains(&"pot".to_string()));
    }

    #[test]
    fn expanded_query_reaches_hyponym_titled_items() {
        let kg = Arc::new(sample_kg());
        let scorer = scorer(&kg);
        let q = vec!["top".to_string()];
        let jacket_item = kg.item_ids().next().unwrap();
        assert_eq!(
            scorer.score_plain(&q, jacket_item),
            0.0,
            "keyword-only misses the jacket"
        );
        assert!(
            scorer.score_expanded(&q, jacket_item) > 0.0,
            "isA expansion must recover the jacket item"
        );
    }

    #[test]
    fn expansion_does_not_leak_to_unrelated_items() {
        let kg = Arc::new(sample_kg());
        let scorer = scorer(&kg);
        let q = vec!["top".to_string()];
        let pot_item = kg.item_ids().nth(2).unwrap();
        assert_eq!(scorer.score_expanded(&q, pot_item), 0.0);
    }

    #[test]
    fn top_items_retrieval_agrees_with_per_item_scores() {
        let kg = Arc::new(sample_kg());
        let scorer = scorer(&kg);
        let q = vec!["top".to_string()];
        // Keyword-only: no item titled "top" exists, nothing retrieved.
        assert!(scorer.top_items(&q, 5).is_empty());
        // Expanded: jacket and hoodie items surface; the pot never does.
        let hits = scorer.top_items_expanded(&q, 5);
        assert_eq!(hits.len(), 2);
        for &(item, score) in &hits {
            assert!((score - scorer.score_expanded(&q, item)).abs() < 1e-12);
            assert!(score > 0.0);
        }
        // Bounded k keeps only the best.
        assert_eq!(scorer.top_items_expanded(&q, 1).len(), 1);
    }

    #[test]
    fn instrumented_scorer_matches_and_counts() {
        let kg = Arc::new(sample_kg());
        let reg = Registry::new();
        let wired = scorer_in(&kg, None, &reg);
        assert_eq!(wired.top_items_expanded(&["top".to_string()], 5).len(), 2);
        assert_eq!(reg.counter("relevance.queries").get(), 1);
        // "top" expands to at least jacket + hoodie.
        assert!(reg.counter("relevance.expanded_terms").get() >= 2);
        assert_eq!(reg.histogram("relevance.expand_ns").count(), 1);
        assert_eq!(reg.histogram("relevance.retrieve_ns").count(), 1);
        // The underlying BM25 index records too.
        assert_eq!(reg.counter("bm25.queries").get(), 1);
        assert!(reg.counter("bm25.postings_scanned").get() > 0);
    }

    /// Hybrid retrieval: a query word titling no item retrieves the items
    /// whose embeddings sit next to it (trained over concept surfaces and
    /// item titles together).
    #[test]
    fn vector_candidates_recover_title_misses() {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let event = kg.add_class("Event", Some(root));
        let bbq = kg.add_primitive("barbecue", event);
        let c = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c, bbq);
        let grill = kg.add_item(&["charcoal".into(), "grill".into()]);
        kg.link_concept_item(c, grill, 0.9);
        let c2 = kg.add_concept("indoor yoga");
        let mat = kg.add_item(&["yoga".into(), "mat".into()]);
        kg.link_concept_item(c2, mat, 0.8);
        let q = vec!["barbecue".to_string()];
        // "barbecue" titles no item: keyword BM25 retrieves nothing.
        let kg = Arc::new(kg);
        let plain = scorer(&kg);
        assert!(plain.top_items(&q, 5).is_empty());
        let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
        let fused = scorer_in(&kg, Some(bundle), &Registry::new());
        let hits = fused.top_items(&q, 5);
        assert!(!hits.is_empty(), "vector candidates must surface items");
        assert_eq!(hits[0].0, grill, "the barbecue-linked item ranks first");
        // Lexical hits keep their BM25 evidence and gain the bonus.
        let direct = fused.top_items(&["charcoal".to_string()], 5);
        assert_eq!(direct[0].0, grill);
        let plain_direct = plain.top_items(&["charcoal".to_string()], 5);
        assert!(direct[0].1 >= plain_direct[0].1);
    }

    /// Regression: the hybrid path used to push every HNSW-proposed item,
    /// so a page wider than the real hits was padded with items scored
    /// exactly `0.0` — which the lexical path never returns.
    #[test]
    fn hybrid_top_items_returns_only_positive_scores() {
        let mut kg = AliCoCo::new();
        for title in [
            ["desk", "lamp"],
            ["floor", "lamp"],
            ["lamp", "shade"],
            ["yoga", "mat"],
            ["steel", "pan"],
            ["garden", "hose"],
            ["wool", "sock"],
            ["oak", "shelf"],
        ] {
            kg.add_item(&title.map(String::from));
        }
        let q = vec!["lamp".to_string()];
        let kg = Arc::new(kg);
        let plain = scorer(&kg);
        let lexical = plain.top_items(&q, 10);
        assert_eq!(lexical.len(), 3, "three titles contain the word");
        for &(item, score) in &lexical {
            assert_eq!(score, plain.score_plain(&q, item));
        }
        let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
        let hits = scorer_in(&kg, Some(bundle), &Registry::new()).top_items(&q, 10);
        assert!(hits.iter().all(|&(_, score)| score > 0.0), "{hits:?}");
        for (item, _) in &lexical {
            assert!(hits.iter().any(|(hit, _)| hit == item), "lost {item:?}");
        }
    }

    #[test]
    fn multiword_surfaces_expand() {
        let mut kg = sample_kg();
        let cat = kg.class_by_name("Category").unwrap();
        let coat = kg.add_primitive("trench coat", cat);
        let top = kg.primitives_by_name("top")[0];
        kg.add_primitive_is_a(coat, top);
        let kg = Arc::new(kg);
        let scorer = scorer(&kg);
        let expanded = scorer.expand_query(&["top".to_string()]);
        assert!(expanded.contains(&"trench".to_string()));
        assert!(expanded.contains(&"coat".to_string()));
    }
}
