//! End-to-end integration: run the whole construction pipeline on a tiny
//! world and verify the resulting concept net supports the paper's
//! downstream applications (§8).

use std::sync::Arc;

use alicoco::coverage::{evaluate, CpvVocabulary, FullVocabulary};
use alicoco::Stats;
use alicoco_corpus::{Dataset, Oracle};
use alicoco_mining::congen::ClassifierConfig;
use alicoco_mining::hypernym::ProjectionConfig;
use alicoco_mining::matching::OursConfig;
use alicoco_mining::pipeline::{build_alicoco, PipelineConfig};
use alicoco_mining::tagging::TaggerConfig;
use alicoco_mining::vocab_mining::VocabMinerConfig;

/// The pipeline build is expensive; share one across all tests in this
/// binary (they only read it).
fn build() -> &'static (Dataset, Arc<alicoco::AliCoCo>) {
    static BUILT: std::sync::OnceLock<(Dataset, Arc<alicoco::AliCoCo>)> =
        std::sync::OnceLock::new();
    BUILT.get_or_init(|| {
        let ds = Dataset::tiny();
        let cfg = PipelineConfig {
            miner: VocabMinerConfig {
                train: VocabMinerConfig::default().train.with_epochs(2),
                ..Default::default()
            },
            projection: ProjectionConfig {
                train: ProjectionConfig::default().train.with_epochs(3),
                ..Default::default()
            },
            classifier: ClassifierConfig {
                train: ClassifierConfig::full().train.with_epochs(5),
                ..ClassifierConfig::full()
            },
            tagger: TaggerConfig {
                train: TaggerConfig::full().train.with_epochs(2),
                ..TaggerConfig::full()
            },
            matcher: OursConfig {
                train: OursConfig::default().train.with_epochs(1),
                ..Default::default()
            },
            pattern_candidates: 150,
            item_candidates: 15,
            ..Default::default()
        };
        let (kg, _) = build_alicoco(&ds, &cfg);
        (ds, Arc::new(kg))
    })
}

#[test]
fn full_pipeline_supports_applications() {
    let (ds, kg) = build();
    let stats = Stats::compute(kg);

    // The four layers exist and are interlinked (§2).
    assert!(stats.num_classes > 20);
    assert!(stats.num_primitives > 200);
    assert!(stats.num_concepts > 10);
    assert_eq!(stats.num_items, ds.items.len());
    assert!(stats.item_primitive_links > 500);
    assert!(stats.item_concept_links > 50);
    assert!(stats.concept_primitive_links > 10);
    assert!(
        stats.item_linkage > 0.9,
        "items should be linked to the net: {}",
        stats.item_linkage
    );

    // §7.1: the full vocabulary covers user queries better than the CPV
    // baseline ontology.
    let queries: Vec<Vec<String>> = ds.corpora.queries.iter().take(500).cloned().collect();
    let full = evaluate(&FullVocabulary::new(kg), &queries);
    let cpv = evaluate(
        &CpvVocabulary::new(kg, &["Category", "Brand", "Color", "Material"]),
        &queries,
    );
    assert!(
        full.word_coverage > cpv.word_coverage + 0.1,
        "coverage gap missing: full {} vs cpv {}",
        full.word_coverage,
        cpv.word_coverage
    );

    // §8.1: semantic search — some concept has suggested items, all weighted
    // as probabilities, sorted descending.
    let concept_with_items = kg
        .concept_ids()
        .find(|&c| kg.concept(c).items.len() >= 2)
        .expect("a concept with items");
    let items = kg.items_for_concept(concept_with_items);
    for w in items.windows(2) {
        assert!(w[0].1 >= w[1].1, "items not sorted by weight");
    }
    for &(_, w) in &items {
        assert!((0.0..=1.0).contains(&w));
    }

    // §8.2: cognitive recommendation — reverse lookup works.
    let (item, _) = items[0];
    assert!(kg.concepts_for_item(item).contains(&concept_with_items));
}

#[test]
fn admitted_concepts_are_interpreted_and_mostly_plausible() {
    let (ds, kg) = build();
    let oracle = Oracle::new(&ds.world);
    let mut good = 0;
    let mut with_primitives = 0;
    let mut total = 0;
    for c in kg.concept_ids() {
        let node = kg.concept(c);
        total += 1;
        if !node.primitives.is_empty() {
            with_primitives += 1;
        }
        let tokens: Vec<String> = node.name.split(' ').map(String::from).collect();
        if oracle.label_concept(&tokens) {
            good += 1;
        }
    }
    assert!(total > 10);
    assert!(
        with_primitives as f64 / total as f64 > 0.8,
        "most concepts must be linked to primitives: {with_primitives}/{total}"
    );
    assert!(
        good as f64 / total as f64 > 0.6,
        "admitted concept precision too low: {good}/{total}"
    );
}

#[test]
fn snapshot_roundtrip_preserves_the_built_net() {
    let (_, kg) = build();
    let mut buf = Vec::new();
    alicoco::snapshot::save(kg, &mut buf).expect("save");
    let loaded = alicoco::snapshot::load(&mut buf.as_slice()).expect("load");
    let a = Stats::compute(kg);
    let b = Stats::compute(&loaded);
    assert_eq!(a.num_classes, b.num_classes);
    assert_eq!(a.num_primitives, b.num_primitives);
    assert_eq!(a.num_concepts, b.num_concepts);
    assert_eq!(a.num_items, b.num_items);
    assert_eq!(a.total_relations(), b.total_relations());
    assert_eq!(a.per_domain, b.per_domain);
}

#[test]
fn built_net_is_structurally_valid_and_serves_applications() {
    let (_, kg) = build();
    // The construction pipeline must emit a consistent graph.
    let violations = alicoco::validate::validate(kg);
    assert!(
        violations.is_empty(),
        "pipeline output invalid: {violations:?}"
    );

    // §8.1 semantic search on the real build; both engines share one
    // retriever, as they do in a serving pack.
    let retriever = alicoco_apps::Retriever::new(Arc::clone(kg), None);
    let reg = alicoco_obs::Registry::new();
    let engine = alicoco_apps::SemanticSearch::new(
        Arc::clone(&retriever),
        alicoco_apps::SearchConfig::default(),
        &reg,
    );
    let stocked = kg
        .concept_ids()
        .find(|&c| !kg.concept(c).items.is_empty())
        .expect("a stocked concept");
    let name = kg.concept(stocked).name;
    let cards = engine.search(name);
    assert!(!cards.is_empty(), "search cannot find {name:?}");
    assert!(cards.iter().any(|c| c.name == name));

    // §8.2 recommendation on the real build.
    let history: Vec<alicoco::ItemId> = kg
        .item_ids()
        .filter(|&i| !kg.concepts_for_item(i).is_empty())
        .take(2)
        .collect();
    let rec = alicoco_apps::CognitiveRecommender::new(
        retriever,
        alicoco_apps::RecommendConfig::default(),
        &reg,
    );
    let out = rec.recommend(&history);
    assert!(!out.is_empty(), "no recommendations from linked history");
    // Reasons render to non-empty text.
    for r in &out {
        assert!(!r.reason.text(kg, r.name).is_empty());
    }
}
