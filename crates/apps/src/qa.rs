//! Scenario question answering (§8.1.2): "What should I prepare for hosting
//! next week's barbecue?" — parse the question, locate the scenario
//! concept, and answer with a shopping checklist.

use std::borrow::Cow;
use std::sync::Arc;

use alicoco::rank::by_score_then_id;
use alicoco::{ConceptId, ItemId};
use alicoco_ann::AnnBundle;
use alicoco_nn::util::FxHashSet;
use alicoco_obs::{Counter, Histogram, Registry, SpanTimer};

use crate::retrieve::{Fusion, LexicalWeights, Proposals, Retriever};

/// QA's fusion constants: a full cosine is worth half a surface word, and
/// the index proposes 8 concepts per question — resolution wants one
/// concept, not a page. With a bundle, a question whose content words
/// never appear in a concept surface ("what do I need for charcoal?") can
/// still resolve.
const FUSION: Fusion = Fusion {
    vector_weight: 0.5,
    ann_k: 8,
};

/// QA's weights over a concept's match counts: one per surface word, half
/// per named primitive, then vectors, then `+0.25` for a stocked concept
/// so it wins ties.
const WEIGHTS: LexicalWeights = LexicalWeights {
    surface_coverage: false,
    primitive_weight: 0.5,
    stocked_bonus: 0.25,
    stock_before_vectors: false,
};

/// Pre-registered `qa.*` metric handles.
#[derive(Clone, Debug)]
struct QaMetrics {
    requests: Arc<Counter>,
    answered: Arc<Counter>,
    sibling_fallbacks: Arc<Counter>,
    candidates: Arc<Counter>,
    ann_skipped: Arc<Counter>,
    answer_ns: Arc<Histogram>,
}

impl QaMetrics {
    fn register(reg: &Registry) -> Self {
        QaMetrics {
            requests: reg.counter("qa.requests"),
            answered: reg.counter("qa.answered"),
            sibling_fallbacks: reg.counter("qa.sibling_fallbacks"),
            candidates: reg.counter("qa.candidates"),
            ann_skipped: reg.counter("qa.ann_skipped"),
            answer_ns: reg.histogram("qa.answer_ns"),
        }
    }
}

/// A structured answer to a scenario question. The name and the titles
/// borrow from the net.
#[derive(Clone, Debug)]
pub struct Answer<'a> {
    /// The scenario concept the question resolved to.
    pub concept: ConceptId,
    /// Concept name.
    pub concept_name: &'a str,
    /// Checklist: distinct leading items grouped by their first primitive
    /// property when available.
    pub checklist: Vec<ChecklistEntry<'a>>,
}

#[derive(Clone, Debug)]
/// Checklist entry.
pub struct ChecklistEntry<'a> {
    /// Item.
    pub item: ItemId,
    /// Title tokens; the title is their space-joined text.
    pub title: &'a [String],
    /// Confidence.
    pub confidence: f32,
}

/// Items a checklist shows.
const CHECKLIST_LEN: usize = 8;

/// Question words stripped before resolution.
const QUESTION_WORDS: &[&str] = &[
    "what", "should", "i", "prepare", "for", "hosting", "next", "week", "weeks", "s", "a", "an",
    "the", "do", "need", "my", "to", "buy", "how", "get", "ready",
];

/// The QA engine: strips question scaffolding, resolves remaining content
/// words against the concept layer (via primitives, so "barbecue" resolves
/// even when the concept is "outdoor barbecue"). Resolution scores only
/// the concepts on the content words' posting lists, from the integer
/// facts the index keeps beside them ([`Retriever::rank_concepts`]) — the
/// full concept layer is never scanned and no name is read.
pub struct ScenarioQa {
    retriever: Arc<Retriever>,
    metrics: QaMetrics,
}

impl ScenarioQa {
    /// Build the engine over the pack's shared retriever, recording
    /// `qa.*` metrics into `metrics`.
    pub fn new(retriever: Arc<Retriever>, metrics: &Registry) -> Self {
        ScenarioQa {
            retriever,
            metrics: QaMetrics::register(metrics),
        }
    }

    /// The retriever the engine shares with the pack's other engines.
    pub fn retriever(&self) -> &Arc<Retriever> {
        &self.retriever
    }

    /// Extract content words from a natural question.
    pub fn content_words(question: &str) -> Vec<String> {
        question
            .to_lowercase()
            .split(|c: char| !c.is_alphanumeric() && c != '-')
            .filter(|w| !w.is_empty() && !QUESTION_WORDS.contains(w))
            .map(String::from)
            .collect()
    }

    /// Answer a scenario question, if a concept resolves.
    ///
    /// Resolution prefers concepts with suggested items; when the best match
    /// has none, the checklist falls back to items of *sibling* concepts —
    /// concepts sharing an interpreting primitive — so "barbecue" can still
    /// be answered through "garden barbecue".
    pub fn answer(&self, question: &str) -> Option<Answer<'_>> {
        let _span = SpanTimer::new(Arc::clone(&self.metrics.answer_ns));
        let out = self.answer_impl(question);
        self.metrics.requests.inc();
        if out.is_some() {
            self.metrics.answered.inc();
        }
        out
    }

    /// The scenario concept the content words resolve to.
    ///
    /// Only concepts on the content words' posting lists can have a
    /// positive lexical score; with a bundle attached the HNSW nearest
    /// concepts of the embedded question join the candidate union and
    /// everything is scored lexical + vector. The single best is kept
    /// (ties resolve to the lowest concept id, as a full in-order scan
    /// would).
    fn resolve(&self, words: &[String]) -> Option<ConceptId> {
        if words.is_empty() {
            return None;
        }
        let qvec = self.retriever.embed(&words.join(" "));
        let (best, _) = self.retriever.rank_concepts(
            words.iter().map(String::as_str),
            qvec.as_deref(),
            &WEIGHTS,
            FUSION,
            1,
        );
        self.metrics.candidates.add(best.examined as u64);
        if best.proposals == Proposals::Skipped {
            self.metrics.ann_skipped.inc();
        }
        let (slot, _) = best.top.into_sorted_vec().into_iter().next()?;
        Some(ConceptId::from_index(slot as usize))
    }

    /// The oracle's score of one concept, from its strings.
    fn match_score(&self, cid: ConceptId, word_set: &FxHashSet<&str>) -> f64 {
        let kg = self.retriever.kg();
        let c = kg.concept(cid);
        let surf: FxHashSet<&str> = c.name.split(' ').collect();
        let overlap = word_set.intersection(&surf).count() as f64;
        let prim = c
            .primitives
            .iter()
            .filter(|&&p| word_set.contains(kg.primitive(p).name.as_str()))
            .count() as f64;
        overlap + 0.5 * prim
    }

    /// Reference resolution: score every concept in the net from its name
    /// and primitive names, plus the exact vector bonus when a bundle is
    /// attached, and keep the best (lowest id on ties). The oracle of the
    /// concept [`answer`](Self::answer) resolves to; on a hybrid pack the
    /// two can differ only by an HNSW proposal miss.
    pub fn resolve_scan(&self, question: &str) -> Option<ConceptId> {
        let words = Self::content_words(question);
        let word_set: FxHashSet<&str> = words.iter().map(String::as_str).collect();
        if word_set.is_empty() {
            return None;
        }
        let kg = self.retriever.kg();
        let qvec = self.retriever.embed(&words.join(" "));
        let mut best: Option<(ConceptId, f64)> = None;
        for cid in kg.concept_ids() {
            let bonus = self.retriever.bonus(
                AnnBundle::concepts,
                cid.index() as u32,
                qvec.as_deref(),
                FUSION.vector_weight,
            );
            let base = self.match_score(cid, &word_set) + bonus;
            if base <= 0.0 {
                continue;
            }
            let stocked = !kg.concept(cid).items.is_empty();
            let score = base + if stocked { 0.25 } else { 0.0 };
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((cid, score));
            }
        }
        best.map(|(cid, _)| cid)
    }

    fn answer_impl(&self, question: &str) -> Option<Answer<'_>> {
        let words = Self::content_words(question);
        let kg = self.retriever.kg();
        let cid = self.resolve(&words)?;
        let mut items = kg.top_items(cid, CHECKLIST_LEN);
        if items.is_empty() {
            self.metrics.sibling_fallbacks.inc();
            items = Cow::Owned(self.sibling_items(cid, &words));
        }
        if items.is_empty() {
            return None;
        }
        let checklist = items
            .iter()
            .map(|&(item, confidence)| ChecklistEntry {
                item,
                title: kg.item(item).title,
                confidence,
            })
            .collect();
        Some(Answer {
            concept: cid,
            concept_name: kg.concept(cid).name,
            checklist,
        })
    }

    /// Sibling fallback for an unstocked concept: the best of the union
    /// of items from concepts sharing a primitive, discounted. Restricted
    /// to the primitives that matched the question ("barbecue"), not
    /// incidental ones ("beach") — otherwise a beach-barbecue question
    /// borrows swimsuits.
    fn sibling_items(&self, cid: ConceptId, words: &[String]) -> Vec<(ItemId, f32)> {
        let kg = self.retriever.kg();
        let primitives = kg.concept(cid).primitives;
        let mut prims: Vec<_> = primitives
            .iter()
            .copied()
            .filter(|&p| words.contains(&kg.primitive(p).name))
            .collect();
        if prims.is_empty() {
            prims = primitives.to_vec();
        }
        // Sibling concepts come straight off the primitive postings
        // (sorted so the borrowing order is concept-id deterministic).
        let index = self.retriever.index();
        let mut siblings: Vec<ConceptId> = prims
            .iter()
            .flat_map(|&p| index.concepts_by_primitive(p).iter().copied())
            .filter(|&other| other != cid)
            .collect();
        siblings.sort_unstable();
        siblings.dedup();
        // A concept's items are distinct, so an item's weight is the one
        // its first sibling gives it, in whatever order each sibling's
        // list is read; the sort below is total.
        let mut items = Vec::new();
        let mut seen: FxHashSet<ItemId> = FxHashSet::default();
        for other in siblings {
            for &(item, w) in kg.concept(other).items {
                if seen.insert(item) {
                    items.push((item, w * 0.8));
                }
            }
        }
        items.sort_by(by_score_then_id);
        items.truncate(CHECKLIST_LEN);
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alicoco::AliCoCo;

    fn engine_in(kg: &Arc<AliCoCo>, reg: &Registry) -> ScenarioQa {
        ScenarioQa::new(Retriever::new(Arc::clone(kg), None), reg)
    }

    fn engine(kg: &Arc<AliCoCo>) -> ScenarioQa {
        engine_in(kg, &Registry::new())
    }

    fn sample_kg() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let event = kg.add_class("Event", Some(root));
        let bbq = kg.add_primitive("barbecue", event);
        let c = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c, bbq);
        let grill = kg.add_item(&["pro".into(), "grill".into()]);
        let charcoal = kg.add_item(&["oak".into(), "charcoal".into()]);
        kg.link_concept_item(c, grill, 0.95);
        kg.link_concept_item(c, charcoal, 0.85);
        kg
    }

    #[test]
    fn content_word_extraction_strips_scaffolding() {
        let words =
            ScenarioQa::content_words("What should I prepare for hosting next week's barbecue?");
        assert_eq!(words, vec!["barbecue".to_string()]);
    }

    #[test]
    fn barbecue_question_yields_checklist() {
        let kg = Arc::new(sample_kg());
        let qa = engine(&kg);
        let a = qa
            .answer("What should I prepare for hosting next week's barbecue?")
            .expect("question resolves");
        assert_eq!(a.concept_name, "outdoor barbecue");
        assert_eq!(a.checklist.len(), 2);
        assert!(a.checklist[0].confidence >= a.checklist[1].confidence);
        assert!(a
            .checklist
            .iter()
            .any(|e| e.title.iter().any(|t| t == "grill")));
        assert!(a
            .checklist
            .iter()
            .any(|e| e.title.iter().any(|t| t == "charcoal")));
    }

    #[test]
    fn unresolvable_question_returns_none() {
        let kg = Arc::new(sample_kg());
        let qa = engine(&kg);
        assert!(qa
            .answer("what should i buy for quantum entanglement?")
            .is_none());
        assert!(qa.answer("what should i do?").is_none());
    }

    #[test]
    fn concepts_without_items_or_siblings_cannot_answer() {
        let mut kg = sample_kg();
        kg.add_concept("indoor knitting");
        let kg = Arc::new(kg);
        let qa = engine(&kg);
        assert!(qa.answer("what do i need for indoor knitting?").is_none());
    }

    #[test]
    fn instrumented_answers_match_and_count() {
        let mut kg = sample_kg();
        let bbq = kg.primitives_by_name("barbecue")[0];
        let beach = kg.add_concept("beach barbecue");
        kg.link_concept_primitive(beach, bbq);
        let reg = Registry::new();
        let kg = Arc::new(kg);
        let wired = engine_in(&kg, &reg);
        let answers = [
            "what should i prepare for a barbecue?",
            "what do i need for a beach barbecue?",
            "what should i buy for quantum entanglement?",
        ]
        .map(|q| wired.answer(q).map(|a| a.concept_name));
        assert_eq!(answers[0], Some("outdoor barbecue"));
        assert_eq!(answers[1], Some("beach barbecue"));
        assert_eq!(answers[2], None);
        assert_eq!(reg.counter("qa.requests").get(), 3);
        assert_eq!(reg.counter("qa.answered").get(), 2);
        assert_eq!(reg.counter("qa.sibling_fallbacks").get(), 1);
        assert!(reg.counter("qa.candidates").get() >= 2);
        assert_eq!(reg.histogram("qa.answer_ns").count(), 3);
    }

    /// Hybrid retrieval: a question whose only content word appears in an
    /// item title (never in a concept surface or primitive) resolves
    /// through the vector candidates.
    #[test]
    fn lexical_miss_question_resolves_via_vectors() {
        let kg = Arc::new(sample_kg());
        let plain = engine(&kg);
        assert!(
            plain.answer("what do i need for charcoal?").is_none(),
            "lexical-only QA is blind to item-title tokens"
        );
        let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
        let qa = ScenarioQa::new(
            Retriever::new(Arc::clone(&kg), Some(bundle)),
            &Registry::new(),
        );
        let a = qa
            .answer("what do i need for charcoal?")
            .expect("vector candidates must resolve the question");
        assert_eq!(a.concept_name, "outdoor barbecue");
        assert!(!a.checklist.is_empty());
        // Lexically resolvable questions still resolve identically.
        assert_eq!(
            qa.answer("what should i prepare for a barbecue?")
                .map(|a| a.concept),
            plain
                .answer("what should i prepare for a barbecue?")
                .map(|a| a.concept)
        );
        // Unknown vocabulary still fails closed.
        assert!(qa
            .answer("what should i buy for quantum entanglement?")
            .is_none());
    }

    #[test]
    fn unstocked_concept_borrows_sibling_items() {
        let mut kg = sample_kg();
        // "beach barbecue" shares the "barbecue" primitive with the stocked
        // "outdoor barbecue" but has no items of its own.
        let bbq = kg.primitives_by_name("barbecue")[0];
        let beach = kg.add_concept("beach barbecue");
        kg.link_concept_primitive(beach, bbq);
        let kg = Arc::new(kg);
        let qa = engine(&kg);
        let a = qa
            .answer("what do i need for a beach barbecue?")
            .expect("resolves");
        assert_eq!(a.concept_name, "beach barbecue");
        assert!(
            !a.checklist.is_empty(),
            "sibling fallback produced no items"
        );
        assert!(a
            .checklist
            .iter()
            .any(|e| e.title.iter().any(|t| t == "grill")));
    }
}
