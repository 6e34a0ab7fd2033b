//! Serving-side latency of the §8 applications over a ground-truth-populated
//! net: semantic search, recommendation, QA, and isA-expanded relevance —
//! plus the retrieval-at-scale comparison (linear scan vs. inverted index)
//! on a 50k-concept synthetic world. Its gates are `assert!`s: indexed
//! search equals the scan at 50k and at 120k, and at both the pruned merge
//! steps over posting blocks. Timings are per-call medians, printed, not
//! gated.

use std::hint::black_box;
use std::sync::Arc;

use alicoco::AliCoCo;
use alicoco_apps::{
    CognitiveRecommender, RecommendConfig, RelevanceScorer, Retriever, ScenarioQa, SearchConfig,
    SemanticSearch,
};
use alicoco_bench::{median_secs, scale_vocab, scale_world};
use alicoco_corpus::{concept_relevant_item, Dataset};
use alicoco_obs::Registry;

/// Samples behind each printed median.
const SAMPLES: usize = 15;

/// Print the median microseconds of one call of `f`, timed over samples
/// of `iters` calls each.
fn report<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
    let secs = median_secs(SAMPLES, || {
        for _ in 0..iters {
            black_box(f());
        }
    });
    println!("{name}: {:.2} µs", secs * 1e6 / iters as f64);
}

fn ground_truth_kg(ds: &Dataset) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let mut domain_class = Vec::new();
    for d in alicoco_corpus::Domain::ALL {
        domain_class.push(kg.add_class(d.name(), Some(root)));
    }
    for (surface, d) in ds.world.lexicon.all_terms() {
        kg.add_primitive(surface, domain_class[d.index()]);
    }
    let cat = domain_class[alicoco_corpus::Domain::Category.index()];
    let mut prim_of_node = std::collections::HashMap::new();
    for id in ds.world.tree.ids().skip(1) {
        prim_of_node.insert(id, kg.add_primitive(ds.world.tree.name(id), cat));
    }
    let item_ids: Vec<_> = ds.items.iter().map(|it| kg.add_item(&it.title)).collect();
    for (it, &iid) in ds.items.iter().zip(&item_ids) {
        kg.link_item_primitive(iid, prim_of_node[&it.category]);
    }
    for spec in ds.concepts.iter().filter(|c| c.good) {
        let cid = kg.add_concept(&spec.text());
        for s in &spec.slots {
            for &p in kg.primitives_by_name(&s.surface).to_vec().iter() {
                kg.link_concept_primitive(cid, p);
            }
        }
        for (ii, it) in ds.items.iter().enumerate().take(300) {
            if concept_relevant_item(&ds.world, spec, it) {
                kg.link_concept_item(cid, item_ids[ii], 0.9);
            }
        }
    }
    kg
}

fn bench_apps() {
    let ds = Dataset::tiny();
    let kg = Arc::new(ground_truth_kg(&ds));

    let reg = Registry::new();
    let retriever = Retriever::new(Arc::clone(&kg), None);
    let search = SemanticSearch::new(Arc::clone(&retriever), SearchConfig::default(), &reg);
    report("apps/semantic_search", 1000, || {
        search.search(black_box("outdoor barbecue"))
    });

    let recommender =
        CognitiveRecommender::new(Arc::clone(&retriever), RecommendConfig::default(), &reg);
    let history: Vec<alicoco::ItemId> = kg
        .item_ids()
        .filter(|&i| !kg.concepts_for_item(i).is_empty())
        .take(3)
        .collect();
    report("apps/recommend_3_item_history", 1000, || {
        recommender.recommend(black_box(&history))
    });
    let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
    let hybrid = CognitiveRecommender::new(
        Retriever::new(Arc::clone(&kg), Some(bundle)),
        RecommendConfig::default(),
        &reg,
    );
    report("apps/recommend_3_item_history_hybrid", 1000, || {
        hybrid.recommend(black_box(&history))
    });
    report("apps/recommender_index_build", 10, || {
        let retriever = Retriever::new(Arc::clone(&kg), None);
        CognitiveRecommender::new(retriever, RecommendConfig::default(), &reg)
    });

    let qa = ScenarioQa::new(Arc::clone(&retriever), &reg);
    report("apps/question_answering", 1000, || {
        qa.answer(black_box("what do i need for hiking?"))
    });

    let scorer = RelevanceScorer::new(retriever, &reg);
    let q = vec!["top".to_string()];
    let item = kg.item_ids().next().unwrap();
    report("apps/relevance_plain", 1000, || {
        scorer.score_plain(black_box(&q), item)
    });
    report("apps/relevance_isa_expanded", 1000, || {
        scorer.score_expanded(black_box(&q), item)
    });
}

/// Print what the pruned merge did per query over `queries` searches
/// recorded in `reg`, and fail unless it stepped over some block.
fn report_pruning(name: &str, reg: &Registry, queries: usize) {
    let count = |name| reg.counter(name).get() as f64 / queries as f64;
    println!(
        "{name}: {:.0} candidates scored of {:.0} posting entries per query, {:.1} windows, {:.2} block runs skipped",
        count("search.candidates_examined"),
        count("search.postings_hit"),
        count("search.windows"),
        count("search.blocks_skipped"),
    );
    assert!(
        count("search.blocks_skipped") > 0.0,
        "{name}: nothing was skipped"
    );
}

/// The tentpole comparison: on a 50k-concept world, indexed retrieval vs.
/// the reference full scan over a 64-query batch. Results are asserted
/// identical before anything is timed, so the speedup never comes from
/// answer drift; the merges, short as they are here, are pruned.
fn bench_search_at_scale() {
    const N_CONCEPTS: usize = 50_000;
    const BATCH: usize = 64;
    let kg = Arc::new(scale_world(N_CONCEPTS));
    let reg = Registry::new();
    let retriever = Retriever::new(kg, None);
    let engine = SemanticSearch::new(retriever, SearchConfig::default(), &reg);

    let vocab = scale_vocab();
    let queries: Vec<String> = (0..BATCH)
        .map(|i| {
            format!(
                "{} {}",
                vocab[(i * 31) % vocab.len()],
                vocab[(i * 17 + 5) % vocab.len()]
            )
        })
        .collect();
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();

    // Correctness gate: indexed == scan per query.
    for q in &refs {
        assert_eq!(
            engine.search(q),
            engine.search_scan(q),
            "index diverged on {q:?}"
        );
    }
    report_pruning("scale/pruning_50k", &reg, BATCH);
    pruned_search_equals_scan_at_120k(&queries);

    report("scale/search_linear_scan_50k", 3, || {
        engine.search_scan(black_box(refs[0]))
    });
    report("scale/search_indexed_50k", 100, || {
        engine.search(black_box(refs[0]))
    });

    // Headline numbers: medians over fixed runs, printed as ratios.
    let scan = median_secs(9, || {
        refs.iter()
            .map(|q| engine.search_scan(q).len())
            .sum::<usize>()
    });
    let indexed = median_secs(9, || {
        refs.iter().map(|q| engine.search(q).len()).sum::<usize>()
    });
    println!(
        "scale/summary: indexed is {:.1}x faster than linear scan ({:.2} ms vs {:.2} ms per 64-query batch)",
        scan / indexed,
        indexed * 1e3,
        scan * 1e3,
    );
}

/// The same gate where the page's k-th score prunes: on a 120k-concept
/// world the query words' posting lists span dozens of blocks, and a page
/// of ten skips most of them. Prints the candidates scored against the
/// posting entries on the merged lists, and the windows the merge took.
fn pruned_search_equals_scan_at_120k(queries: &[String]) {
    let kg = Arc::new(scale_world(120_000));
    let reg = Registry::new();
    let cfg = SearchConfig {
        k: 10,
        ..SearchConfig::default()
    };
    let engine = SemanticSearch::new(Retriever::new(kg, None), cfg, &reg);
    for q in queries {
        assert_eq!(
            engine.search(q),
            engine.search_scan(q),
            "pruned search diverged on {q:?}"
        );
    }
    report_pruning("scale/pruning_120k", &reg, queries.len());
}

fn main() {
    bench_apps();
    bench_search_at_scale();
}
