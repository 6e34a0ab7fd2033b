//! The wire against a byte oracle: `router::handle`'s `/search`, `/qa`
//! and `/recommend` bodies equal, byte for byte, what the owned page types
//! and their writers produced before the pages borrowed from the net.
//! Those are kept verbatim in [`reference`]; the served path shares only
//! the ranking with them (which concepts, their scores, a recommendation's
//! reason), never the cards, the item selection or the writers.
//!
//! The worlds are built to reach every difference the borrowed path could
//! make: concept item lists longer than a card with tied weights and both
//! signed zeros, names, titles, primitives and domains that need JSON
//! escapes, unstocked concepts whose questions fall back to their
//! siblings' items, viewed items among a card's best, and lexical and
//! hybrid packs.

use std::sync::Arc;

use alicoco::{AliCoCo, ConceptId, ItemId, PrimitiveId};
use alicoco_apps::search;
use alicoco_apps::ScenarioQa;
use alicoco_obs::Registry;
use alicoco_serve::http::{Method, Request};
use alicoco_serve::{router, EngineConfig, ServingPack};
use proptest::prelude::*;

/// The owned page types, their builders and the JSON writers as they
/// stood before the pages borrowed from the net. The builders are the
/// engines' bodies after ranking, made free functions over the net; the
/// writers are unchanged.
mod reference {
    use std::collections::HashSet;
    use std::fmt::Write;

    use alicoco::query::QueryIndex;
    use alicoco::rank::by_score_then_id;
    use alicoco::{AliCoCo, ConceptId, ItemId};
    use alicoco_apps::recommend::Reason;
    use alicoco_obs::json::push_string;

    /// A rendered concept card (Figure 2a/b): the concept, its
    /// interpretation, and suggested items.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ConceptCard {
        /// Concept.
        pub concept: ConceptId,
        /// Concept surface form.
        pub name: String,
        /// `(domain, primitive surface)` interpretation pairs.
        pub interpretation: Vec<(String, String)>,
        /// Suggested items with edge probabilities, best first.
        pub items: Vec<(ItemId, f32)>,
        /// Query-match score.
        pub score: f64,
    }

    /// `SemanticSearch::card`.
    pub fn card(kg: &AliCoCo, items_per_card: usize, cid: ConceptId, score: f64) -> ConceptCard {
        let c = kg.concept(cid);
        let interpretation = c
            .primitives
            .iter()
            .map(|&p| {
                let prim = kg.primitive(p);
                let domain = kg.class(kg.class_domain(prim.class)).name.clone();
                (domain, prim.name.clone())
            })
            .collect();
        let mut items = kg.items_for_concept(cid);
        items.truncate(items_per_card);
        ConceptCard {
            concept: cid,
            name: c.name.to_string(),
            interpretation,
            items,
            score,
        }
    }

    /// A structured answer to a scenario question.
    #[derive(Clone, Debug)]
    pub struct Answer {
        /// The scenario concept the question resolved to.
        pub concept: ConceptId,
        /// Concept name.
        pub concept_name: String,
        /// Checklist.
        pub checklist: Vec<ChecklistEntry>,
    }

    /// Checklist entry.
    #[derive(Clone, Debug)]
    pub struct ChecklistEntry {
        /// Item.
        pub item: ItemId,
        /// Title.
        pub title: String,
        /// Confidence.
        pub confidence: f32,
    }

    /// `ScenarioQa::answer_impl` once `words` resolved to `cid`.
    pub fn answer(
        kg: &AliCoCo,
        index: &QueryIndex,
        words: &[String],
        cid: ConceptId,
    ) -> Option<Answer> {
        let mut items = kg.items_for_concept(cid);
        if items.is_empty() {
            let mut prims: HashSet<_> = kg
                .concept(cid)
                .primitives
                .iter()
                .copied()
                .filter(|&p| words.contains(&kg.primitive(p).name))
                .collect();
            if prims.is_empty() {
                prims = kg.concept(cid).primitives.iter().copied().collect();
            }
            let mut siblings: Vec<ConceptId> = {
                let mut set: HashSet<ConceptId> = HashSet::default();
                for &p in &prims {
                    set.extend(index.concepts_by_primitive(p).iter().copied());
                }
                set.remove(&cid);
                set.into_iter().collect()
            };
            siblings.sort();
            let mut seen: HashSet<ItemId> = HashSet::default();
            for other in siblings {
                for (item, w) in kg.items_for_concept(other) {
                    if seen.insert(item) {
                        items.push((item, w * 0.8));
                    }
                }
            }
            items.sort_by(by_score_then_id);
        }
        if items.is_empty() {
            return None;
        }
        let checklist = items
            .into_iter()
            .take(8)
            .map(|(item, confidence)| ChecklistEntry {
                item,
                title: kg.item(item).title.join(" "),
                confidence,
            })
            .collect();
        Some(Answer {
            concept: cid,
            concept_name: kg.concept(cid).name.to_string(),
            checklist,
        })
    }

    /// A scored recommendation with its explanation.
    #[derive(Clone, Debug)]
    pub struct Recommendation {
        /// Concept.
        pub concept: ConceptId,
        /// Concept surface form.
        pub name: String,
        /// Affinity.
        pub affinity: f64,
        /// Reason.
        pub reason: Reason,
        /// Items to display on the card, excluding already-viewed ones.
        pub items: Vec<(ItemId, f32)>,
    }

    /// `CognitiveRecommender::recommend`'s card for a ranked concept.
    pub fn recommendation(
        kg: &AliCoCo,
        history: &[ItemId],
        items_per_card: usize,
        (cid, affinity, reason): (ConceptId, f64, Reason),
    ) -> Recommendation {
        let viewed: HashSet<ItemId> = history.iter().copied().collect();
        let items: Vec<(ItemId, f32)> = kg
            .items_for_concept(cid)
            .into_iter()
            .filter(|(i, _)| !viewed.contains(i))
            .take(items_per_card)
            .collect();
        Recommendation {
            concept: cid,
            name: kg.concept(cid).name.to_string(),
            affinity,
            reason,
            items,
        }
    }

    /// `Reason::text`.
    pub fn reason_text(reason: &Reason, kg: &AliCoCo, concept: &str) -> String {
        match reason {
            Reason::ViewedItem { item } => format!(
                "because you viewed \"{}\" — everything for {}",
                kg.item(*item).title.join(" "),
                concept
            ),
            Reason::SharedNeed { primitives } => {
                let names: Vec<&str> = primitives
                    .iter()
                    .map(|&p| kg.primitive(p).name.as_str())
                    .collect();
                format!(
                    "matches your interest in {} — {}",
                    names.join(", "),
                    concept
                )
            }
            Reason::SimilarIntent { item } => format!(
                "close to what \"{}\" is for — {}",
                kg.item(*item).title.join(" "),
                concept
            ),
        }
    }

    fn push_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }

    pub fn render_search(cards: &[ConceptCard]) -> String {
        let mut o = String::from("{\"cards\":[");
        for (i, card) in cards.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"concept\":");
            let _ = write!(o, "{}", card.concept.index());
            o.push_str(",\"interpretation\":[");
            for (j, (domain, surface)) in card.interpretation.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push('[');
                push_string(&mut o, domain);
                o.push(',');
                push_string(&mut o, surface);
                o.push(']');
            }
            o.push_str("],\"items\":[");
            for (j, (item, w)) in card.items.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push('[');
                let _ = write!(o, "{}", item.index());
                o.push(',');
                push_f64(&mut o, f64::from(*w));
                o.push(']');
            }
            o.push_str("],\"name\":");
            push_string(&mut o, &card.name);
            o.push_str(",\"score\":");
            push_f64(&mut o, card.score);
            o.push('}');
        }
        o.push_str("]}");
        o
    }

    pub fn render_qa(answer: Option<&Answer>) -> String {
        let mut o = String::from("{\"answer\":");
        match answer {
            None => o.push_str("null"),
            Some(a) => {
                o.push_str("{\"checklist\":[");
                for (i, entry) in a.checklist.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    o.push_str("{\"confidence\":");
                    push_f64(&mut o, f64::from(entry.confidence));
                    o.push_str(",\"item\":");
                    let _ = write!(o, "{}", entry.item.index());
                    o.push_str(",\"title\":");
                    push_string(&mut o, &entry.title);
                    o.push('}');
                }
                o.push_str("],\"concept\":");
                let _ = write!(o, "{}", a.concept.index());
                o.push_str(",\"concept_name\":");
                push_string(&mut o, &a.concept_name);
                o.push('}');
            }
        }
        o.push('}');
        o
    }

    pub fn render_recommend(kg: &AliCoCo, recs: &[Recommendation]) -> String {
        let mut o = String::from("{\"recommendations\":[");
        for (i, rec) in recs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"affinity\":");
            push_f64(&mut o, rec.affinity);
            o.push_str(",\"concept\":");
            let _ = write!(o, "{}", rec.concept.index());
            o.push_str(",\"items\":[");
            for (j, (item, w)) in rec.items.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push('[');
                let _ = write!(o, "{}", item.index());
                o.push(',');
                push_f64(&mut o, f64::from(*w));
                o.push(']');
            }
            o.push_str("],\"name\":");
            push_string(&mut o, &rec.name);
            o.push_str(",\"reason\":");
            push_string(&mut o, &reason_text(&rec.reason, kg, &rec.name));
            o.push('}');
        }
        o.push_str("]}");
        o
    }
}

/// Query, name and title words. Of the last six, four need JSON escapes
/// (a quote, a backslash, a tab, a control byte) and two pass through
/// (`</b>` and multi-byte UTF-8); `content_words` splits all but the
/// last.
const WORDS: &[&str] = &[
    "outdoor",
    "barbecue",
    "summer",
    "beach",
    "grill",
    "party",
    "yoga",
    "camping",
    "quo\"te",
    "back\\slash",
    "tab\tin",
    "bell\u{7}",
    "</b>",
    "ünï-cödé",
];

/// Edge weights: repeats, both zeros and a weight that widens to a long
/// decimal.
const WEIGHTS: [f32; 8] = [0.5, 0.5, 0.0, -0.0, 1.0, 0.25, 0.3, 0.75];

/// The id `i` picks among `ids`, wrapping.
fn pick<T: Copy>(ids: &[T], i: u8) -> T {
    ids[usize::from(i) % ids.len()]
}

fn word(i: u8) -> &'static str {
    WORDS[usize::from(i) % WORDS.len()]
}

#[derive(Clone, Debug)]
struct WorldSpec {
    primitives: Vec<(u8, u8)>,
    concepts: Vec<(u8, u8)>,
    items: Vec<(u8, u8)>,
    concept_prims: Vec<(u8, u8)>,
    concept_items: Vec<(u8, u8, u8)>,
    item_prims: Vec<(u8, u8)>,
}

fn world_strategy() -> impl Strategy<Value = WorldSpec> {
    (
        prop::collection::vec((0u8..14, 0u8..3), 1..10),
        prop::collection::vec((0u8..14, 0u8..14), 1..14),
        prop::collection::vec((0u8..14, 0u8..14), 1..40),
        prop::collection::vec((0u8..16, 0u8..10), 0..24),
        // Up to 160 links over at most 14 concepts: several lists run
        // past a card's ten items.
        prop::collection::vec((0u8..6, 0u8..40, 0u8..8), 0..160),
        prop::collection::vec((0u8..40, 0u8..10), 0..30),
    )
        .prop_map(
            |(primitives, concepts, items, concept_prims, concept_items, item_prims)| WorldSpec {
                primitives,
                concepts,
                items,
                concept_prims,
                concept_items,
                item_prims,
            },
        )
}

/// A net whose class (domain) names, primitives, concept names and item
/// titles draw from [`WORDS`]. Links go to the first six concepts, so the
/// rest are unstocked and answer through their siblings.
fn build_world(spec: &WorldSpec) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let classes = ["Event", "dom\"ain\\", "Loc\u{1}ation"].map(|d| kg.add_class(d, Some(root)));
    let prims: Vec<PrimitiveId> = spec
        .primitives
        .iter()
        .map(|&(w, c)| kg.add_primitive(word(w), classes[usize::from(c) % classes.len()]))
        .collect();
    let concepts: Vec<ConceptId> = spec
        .concepts
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| kg.add_concept(&format!("{} {} {i}", word(a), word(b))))
        .collect();
    let items: Vec<ItemId> = spec
        .items
        .iter()
        .map(|&(a, b)| kg.add_item(&[word(a).to_string(), word(b).to_string()]))
        .collect();
    for &(c, p) in &spec.concept_prims {
        kg.link_concept_primitive(pick(&concepts, c), pick(&prims, p));
    }
    for &(c, i, w) in &spec.concept_items {
        kg.link_concept_item(
            pick(&concepts, c),
            pick(&items, i),
            WEIGHTS[usize::from(w) % WEIGHTS.len()],
        );
    }
    for &(i, p) in &spec.item_prims {
        kg.link_item_primitive(pick(&items, i), pick(&prims, p));
    }
    kg
}

/// `text` percent-encoded for a query string, every byte but ASCII
/// alphanumerics escaped.
fn encode(text: &str) -> String {
    text.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                char::from(b).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// The body `router::handle` answers a GET of `target` with.
fn served(pack: &ServingPack, target: String) -> String {
    let req = Request {
        method: Method::Get,
        target,
        keep_alive: true,
        body: Vec::new(),
    };
    let (_, resp) = router::handle(&req, pack, &Registry::new());
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    String::from_utf8(resp.body).expect("bodies are UTF-8")
}

/// The reference `/search` body: the retriever's ranking, as the engine
/// asks for it, through the owned cards and writer.
fn reference_search(pack: &ServingPack, query: &str, k: usize) -> String {
    let engine = pack.search();
    let retriever = engine.retriever();
    let qvec = retriever.embed(query);
    let (fused, _) = retriever.rank_concepts(
        query.split_whitespace(),
        qvec.as_deref(),
        &engine.weights(),
        search::FUSION,
        k,
    );
    let items_per_card = EngineConfig::default().search.items_per_card;
    let cards: Vec<_> = fused
        .top
        .into_sorted_vec()
        .into_iter()
        .map(|(slot, score)| {
            let cid = ConceptId::from_index(slot as usize);
            reference::card(pack.graph(), items_per_card, cid, score)
        })
        .collect();
    reference::render_search(&cards)
}

/// The reference `/qa` body: the scan oracle's concept through the owned
/// answer and writer.
fn reference_qa(pack: &ServingPack, question: &str) -> String {
    let qa = pack.qa();
    let answer = qa.resolve_scan(question).and_then(|cid| {
        let words = ScenarioQa::content_words(question);
        reference::answer(pack.graph(), qa.retriever().index(), &words, cid)
    });
    reference::render_qa(answer.as_ref())
}

/// The reference `/recommend` body: the engine's ranking and reasons
/// through the owned cards and writer.
fn reference_recommend(pack: &ServingPack, history: &[ItemId], k: Option<usize>) -> String {
    let kg = pack.graph();
    let items_per_card = EngineConfig::default().recommend.items_per_card;
    let mut recs: Vec<_> = pack
        .recommender()
        .recommend(history)
        .into_iter()
        .map(|r| {
            let ranked = (r.concept, r.affinity, r.reason);
            reference::recommendation(kg, history, items_per_card, ranked)
        })
        .collect();
    if let Some(k) = k {
        recs.truncate(k);
    }
    reference::render_recommend(kg, &recs)
}

/// Every query as a `/search` page at the default and at `k` cards and
/// as a question, and every history at the default and at `k` cards,
/// served and by the reference.
fn assert_pages_match(
    pack: &ServingPack,
    queries: &[String],
    histories: &[Vec<ItemId>],
    k: usize,
) -> Result<(), TestCaseError> {
    let default_k = EngineConfig::default().search.k;
    for query in queries {
        let q = encode(query);
        let body = served(pack, format!("/search?q={q}"));
        prop_assert_eq!(
            body,
            reference_search(pack, query, default_k),
            "{:?}",
            query
        );
        let body = served(pack, format!("/search?q={q}&k={k}"));
        prop_assert_eq!(
            body,
            reference_search(pack, query, k),
            "{:?} k {}",
            query,
            k
        );
        let question = format!("what do i need for {query}?");
        let body = served(pack, format!("/qa?q={}", encode(&question)));
        prop_assert_eq!(body, reference_qa(pack, &question), "{:?}", question);
    }
    for history in histories {
        let ids: Vec<String> = history.iter().map(|i| i.index().to_string()).collect();
        let list = ids.join(",");
        let body = served(pack, format!("/recommend?history={list}"));
        prop_assert_eq!(
            body,
            reference_recommend(pack, history, None),
            "{:?}",
            history
        );
        let body = served(pack, format!("/recommend?history={list}&k={k}"));
        let want = reference_recommend(pack, history, Some(k));
        prop_assert_eq!(body, want, "{:?} k {}", history, k);
    }
    Ok(())
}

fn queries_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..14, 1..4), 1..5)
}

fn histories_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..40, 0..6), 1..4)
}

/// Queries as text, and histories as ids of `kg`'s items.
fn requests(
    kg: &AliCoCo,
    queries: &[Vec<u8>],
    histories: &[Vec<u8>],
) -> (Vec<String>, Vec<Vec<ItemId>>) {
    let queries = queries
        .iter()
        .map(|ws| ws.iter().map(|&w| word(w)).collect::<Vec<_>>().join(" "))
        .collect();
    let histories = histories
        .iter()
        .map(|h| {
            h.iter()
                .map(|&i| ItemId::from_index(usize::from(i) % kg.num_items()))
                .collect()
        })
        .collect();
    (queries, histories)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lexical packs: every page equals the reference bytes.
    #[test]
    fn lexical_pages_equal_the_owned_reference_bytes(
        spec in world_strategy(),
        queries in queries_strategy(),
        histories in histories_strategy(),
        k in 1usize..14,
    ) {
        let kg = Arc::new(build_world(&spec));
        let (queries, histories) = requests(&kg, &queries, &histories);
        let pack = ServingPack::build_with_ann(kg, None, &EngineConfig::default(), &Registry::new());
        assert_pages_match(&pack, &queries, &histories, k)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hybrid packs: vector proposals, fused scores and similar-intent
    /// reasons reach the same writers.
    #[test]
    fn hybrid_pages_equal_the_owned_reference_bytes(
        spec in world_strategy(),
        queries in queries_strategy(),
        histories in histories_strategy(),
        k in 1usize..14,
    ) {
        let kg = build_world(&spec);
        let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
        let kg = Arc::new(kg);
        let (queries, histories) = requests(&kg, &queries, &histories);
        let pack = ServingPack::build_with_ann(kg, Some(bundle), &EngineConfig::default(), &Registry::new());
        assert_pages_match(&pack, &queries, &histories, k)?;
    }
}

/// The cases the random worlds reach only sometimes, pinned: a card cut
/// from a longer tied list, a question answered from its siblings' items,
/// a viewed item among a recommendation's best, and (hybrid) a
/// recommendation only a vector vote reached.
#[test]
fn fixed_world_reaches_every_path() {
    let spec = WorldSpec {
        primitives: vec![(1, 0), (8, 1), (4, 2)],
        // Concept 0 is stocked; 6 and 7 are not and share its primitive.
        concepts: (0..8).map(|i| (1, i)).collect(),
        // Items 30..34 have no concept and no primitive.
        items: (0..34).map(|i| (i % 14, (i * 5) % 14)).collect(),
        concept_prims: vec![(0, 0), (0, 1), (6, 0), (7, 0), (7, 2), (1, 2)],
        concept_items: (0..30)
            .map(|i| (0, i, i % 8))
            .chain((0..12).map(|i| (1, i + 10, i % 3)))
            .collect(),
        item_prims: vec![(0, 0), (3, 2), (12, 1)],
    };
    let kg = build_world(&spec);
    assert!(kg.concept(ConceptId::from_index(0)).items.len() > 10);
    let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
    let kg = Arc::new(kg);
    let queries = ["barbecue", "barbecue beach 6", "barbecue 7", "quo\"te"].map(String::from);
    let histories = [vec![0, 1, 2], vec![29, 3], vec![31], vec![]]
        .map(|h| h.into_iter().map(ItemId::from_index).collect());
    for ann in [None, Some(bundle)] {
        let hybrid = ann.is_some();
        let metrics = Registry::new();
        let pack =
            ServingPack::build_with_ann(Arc::clone(&kg), ann, &EngineConfig::default(), &metrics);
        assert_pages_match(&pack, &queries, &histories, 2).unwrap();
        assert!(metrics.counter("qa.sibling_fallbacks").get() > 0);
        let similar = served(&pack, "/recommend?history=31".to_string());
        assert_eq!(similar.contains("close to what"), hybrid, "{similar}");
    }
}
