//! Experiment runner: regenerates every table and figure of the paper's
//! evaluation (§7) plus the §8.1.1 search-relevance experiment on the
//! synthetic world.
//!
//! Usage: `cargo run --release -p alicoco-bench --bin experiments -- <exp>`
//! where `<exp>` is one of `table1 table2 table3 table4 table5 table6
//! fig9left fig9right coverage mining search_relevance recommendation ablations all`.

use alicoco::coverage::{evaluate as coverage_eval, CpvVocabulary, FullVocabulary};
use alicoco::Stats;
use alicoco_bench::{f, medium_dataset, resources_for, row};
use alicoco_corpus::Oracle;
use alicoco_mining::congen::{
    candidates_from_patterns, classification_splits, ClassifierConfig, ConceptClassifier,
    PrimitivePools,
};
use alicoco_mining::hypernym::{
    run_active_learning, ActiveLearningConfig, HypernymDataset, ProjectionConfig, ProjectionModel,
    Strategy,
};
use alicoco_mining::matching::{
    build_matching_dataset, evaluate_matcher, Bm25Matcher, DssmMatcher, MatchPyramidMatcher,
    MatchingDataConfig, OursConfig, OursMatcher, Re2Matcher,
};
use alicoco_mining::pipeline::{build_alicoco, PipelineConfig};
use alicoco_mining::tagging::{
    distant_tagging_examples, tagging_splits, AmbiguityIndex, ConceptTagger, ContextIndex,
    TaggerConfig,
};
use alicoco_mining::vocab_mining::{
    corpus_surfaces, distant_supervision, mine_candidates, verify_candidates, KnownLexicon,
    VocabMiner, VocabMinerConfig,
};
use alicoco_nn::util::seeded_rng;
use rand::seq::SliceRandom;
use rand::Rng;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let run = |name: &str| arg == name || arg == "all";
    println!("# AliCoCo reproduction experiments\n");
    if run("table2") {
        table2();
    }
    if run("coverage") {
        coverage();
    }
    if run("mining") {
        mining();
    }
    if run("table3") || run("fig9right") {
        table3_fig9right();
    }
    if run("fig9left") {
        fig9left();
    }
    if run("table4") {
        table4();
    }
    if run("table5") {
        table5();
    }
    if run("table6") {
        table6();
    }
    if run("table1") {
        table1();
    }
    if run("search_relevance") {
        search_relevance();
    }
    if run("recommendation") {
        recommendation();
    }
    if run("ablations") {
        ablations();
    }
}

fn dashes(n: usize) -> String {
    row(&vec!["---".to_string(); n])
}

// ---------------------------------------------------------------------------
// Table 2: statistics of the built AliCoCo
// ---------------------------------------------------------------------------

fn table2() {
    println!("## Table 2 — statistics of the constructed AliCoCo\n");
    println!("(Paper: 2.85M primitives, 5.26M e-commerce concepts, >3B items, 98% of items");
    println!("linked. We build the same structure at laptop scale — compare *shape*: every");
    println!("layer and relation kind populated, near-total item linkage, tens of items per");
    println!("concept.)\n");
    let ds = medium_dataset();
    let t0 = std::time::Instant::now();
    let (kg, report) = build_alicoco(&ds, &PipelineConfig::default());
    println!("build time: {:.1?}\n", t0.elapsed());
    println!("{}", Stats::compute(&kg));
    println!("pipeline accounting: {report:#?}\n");
}

// ---------------------------------------------------------------------------
// §7.1 coverage: AliCoCo vs the former CPV ontology
// ---------------------------------------------------------------------------

fn coverage() {
    println!("## §7.1 — user-needs coverage (paper: AliCoCo ~75%, former ontology ~30%)\n");
    let ds = medium_dataset();
    let (kg, _) = build_alicoco(&ds, &PipelineConfig::default());
    let mut rng = seeded_rng(71);
    // Sample 2000 queries, as the paper does daily.
    let mut queries: Vec<Vec<String>> = ds.corpora.queries.clone();
    queries.shuffle(&mut rng);
    queries.truncate(2000);
    let full = coverage_eval(&FullVocabulary::new(&kg), &queries);
    let cpv = coverage_eval(
        &CpvVocabulary::new(&kg, &["Category", "Brand", "Color", "Material"]),
        &queries,
    );
    println!(
        "{}",
        row(&[
            "vocabulary".into(),
            "word coverage".into(),
            "full-query coverage".into()
        ])
    );
    println!("{}", dashes(3));
    println!(
        "{}",
        row(&[
            "AliCoCo (paper ~0.75)".into(),
            f(full.word_coverage),
            f(full.full_query_coverage)
        ])
    );
    println!(
        "{}",
        row(&[
            "CPV ontology (paper ~0.30)".into(),
            f(cpv.word_coverage),
            f(cpv.full_query_coverage)
        ])
    );
    println!();
}

// ---------------------------------------------------------------------------
// §7.2 vocabulary mining rounds
// ---------------------------------------------------------------------------

fn mining() {
    println!("## §7.2 — primitive-concept mining rounds\n");
    println!("(Paper: ~64K candidates per epoch over 5M sentences, ~10K accepted per round,");
    println!("with discoveries diminishing as the vocabulary saturates.)\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let mut rng = seeded_rng(72);
    let (mut known, heldout) = KnownLexicon::sample(&ds, 0.65, &mut rng);
    let oracle = Oracle::new(&ds.world);
    let sentences: Vec<Vec<String>> = ds.corpora.all_sentences().cloned().collect();
    let surfaces = corpus_surfaces(&sentences);
    println!(
        "{}",
        row(&[
            "round".into(),
            "train sents".into(),
            "candidates".into(),
            "accepted".into(),
            "precision".into(),
            "heldout recall".into(),
        ])
    );
    println!("{}", dashes(6));
    for round in 0..3 {
        let data = distant_supervision(&known, &sentences, 2000);
        let mut miner = VocabMiner::new(
            &res,
            VocabMinerConfig {
                train: VocabMinerConfig::default().train.with_epochs(3),
                ..Default::default()
            },
        );
        miner.train(&res, &data, &mut rng);
        let candidates = mine_candidates(&miner, &res, &known, &sentences);
        let (accepted, report) = verify_candidates(&candidates, &oracle, &heldout, &surfaces);
        println!(
            "{}",
            row(&[
                round.to_string(),
                data.len().to_string(),
                report.candidates.to_string(),
                report.accepted.to_string(),
                f(report.precision),
                f(report.heldout_recall),
            ])
        );
        for c in &accepted {
            known.insert(&c.surface, c.domain);
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// Table 3 + Figure 9 (right): active-learning strategies
// ---------------------------------------------------------------------------

fn table3_fig9right() {
    println!("## Table 3 / Fig 9 (right) — active-learning sampling strategies\n");
    println!("(Paper: UCS reaches the shared target MAP with the fewest labels — 325k vs");
    println!("500k for Random — and the highest best MAP, ~48.8%.)\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let mut rng = seeded_rng(73);
    let data = HypernymDataset::build(&ds, &res, &mut rng);
    let oracle = Oracle::new(&ds.world);
    let base = ActiveLearningConfig {
        k_per_round: 200,
        max_rounds: 14,
        patience: 4,
        pool_negative_ratio: 8,
        projection: ProjectionConfig {
            train: ProjectionConfig::default().train.with_epochs(4),
            ..Default::default()
        },
        ..Default::default()
    };
    let strategies = [
        Strategy::Random,
        Strategy::Us,
        Strategy::Cs,
        Strategy::Ucs { alpha: 0.5 },
    ];
    let outcomes: Vec<_> = strategies
        .iter()
        .map(|&s| {
            run_active_learning(
                &data,
                &oracle,
                &ActiveLearningConfig {
                    strategy: s,
                    ..base.clone()
                },
            )
        })
        .collect();
    // Labels needed to reach a shared target: the paper anchors on the
    // Random strategy's achieved MAP ("when it achieves similar MAP").
    let target = outcomes[0].best_val_map * 0.98;
    println!(
        "{}",
        row(&[
            "strategy".into(),
            "labels@target".into(),
            "total labels".into(),
            "best val MAP".into(),
            "test MRR".into(),
            "test MAP".into(),
            "test P@1".into(),
        ])
    );
    println!("{}", dashes(7));
    for o in &outcomes {
        let labels_at_target = o
            .history
            .iter()
            .find(|(_, m)| *m >= target)
            .map(|(l, _)| l.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{}",
            row(&[
                o.strategy.to_string(),
                labels_at_target,
                o.labeled.to_string(),
                f(o.best_val_map),
                f(o.test.mrr),
                f(o.test.map),
                f(o.test.p_at_1),
            ])
        );
    }
    println!("\n(target MAP for the labels@target column: {target:.4})\n");
}

// ---------------------------------------------------------------------------
// Figure 9 (left): negative-sample ratio sweep
// ---------------------------------------------------------------------------

fn fig9left() {
    println!("## Fig 9 (left) — MAP vs negative-sample ratio\n");
    println!("(Paper: MAP rises with the ratio and plateaus around 100:1; our candidate");
    println!("space is smaller so the plateau arrives earlier — the claim under test is");
    println!("the rise-then-plateau shape.)\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let mut rng = seeded_rng(91);
    let data = HypernymDataset::build(&ds, &res, &mut rng);
    let test_queries = data.ranking_queries(&data.test_pos, 30, &mut rng);
    println!(
        "{}",
        row(&["1:N".into(), "MAP".into(), "MRR".into(), "P@1".into()])
    );
    println!("{}", dashes(4));
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        // Average 3 seeds: single runs are noisy at this scale.
        let (mut map, mut mrr, mut p1) = (0.0, 0.0, 0.0);
        for seed in 0..3u64 {
            let mut run_rng = seeded_rng(910 + seed);
            let triples = data.labeled_pairs(&data.train_pos, n, &mut run_rng);
            let mut model = ProjectionModel::new(
                res.word_vectors.dim(),
                ProjectionConfig {
                    train: ProjectionConfig::default().train.with_epochs(4),
                    seed: 99 + seed,
                    ..Default::default()
                },
            );
            model.train(&data, &triples, &mut run_rng);
            let m = model.evaluate(&data, &test_queries);
            map += m.map / 3.0;
            mrr += m.mrr / 3.0;
            p1 += m.p_at_1 / 3.0;
        }
        println!("{}", row(&[n.to_string(), f(map), f(mrr), f(p1)]));
    }
    println!();
}

// ---------------------------------------------------------------------------
// Table 4: concept-classification ablation
// ---------------------------------------------------------------------------

fn table4() {
    println!("## Table 4 — e-commerce concept classification ablation\n");
    println!("(Paper precision: Baseline 0.870 -> +Wide 0.900 -> +Wide&BERT 0.915 ->");
    println!("+Wide&BERT&Knowledge 0.935. Our trigram LM substitutes BERT.)\n");
    let ds = alicoco_bench::classification_dataset();
    let res = resources_for(&ds);
    let mut rng = seeded_rng(74);
    let (train, _val, test) = classification_splits(&ds, &mut rng);
    let configs: [(&str, ClassifierConfig); 4] = [
        (
            "Baseline (LSTM + Self Attention)",
            ClassifierConfig::baseline(),
        ),
        ("+Wide", ClassifierConfig::with_wide()),
        (
            "+Wide & LM (BERT substitute)",
            ClassifierConfig::with_wide_lm(),
        ),
        ("+Wide & LM & Knowledge", ClassifierConfig::full()),
    ];
    println!(
        "{}",
        row(&[
            "model".into(),
            "precision".into(),
            "recall".into(),
            "accuracy".into()
        ])
    );
    println!("{}", dashes(4));
    for (name, cfg) in configs {
        // Average 3 seeds: single runs are noisy at this data scale.
        let (mut pr, mut rc, mut ac) = (0.0, 0.0, 0.0);
        for seed in 0..3u64 {
            let mut rng = seeded_rng(74 + seed);
            let mut model = ConceptClassifier::new(
                &res,
                ClassifierConfig {
                    train: cfg.train.clone().with_epochs(10),
                    seed: 2020 + seed,
                    ..cfg.clone()
                },
            );
            model.train(&res, &train, &mut rng);
            let m = model.evaluate(&res, &test);
            pr += m.precision / 3.0;
            rc += m.recall / 3.0;
            ac += m.accuracy / 3.0;
        }
        println!("{}", row(&[name.to_string(), f(pr), f(rc), f(ac)]));
    }
    println!();
}

// ---------------------------------------------------------------------------
// Table 5: concept-tagging ablation
// ---------------------------------------------------------------------------

fn table5() {
    println!("## Table 5 — e-commerce concept tagging ablation\n");
    println!("(Paper F1: Baseline 0.8523 -> +FuzzyCRF 0.8703 -> +FuzzyCRF&Knowledge 0.8772.)\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let mut rng = seeded_rng(75);
    let (mut train, _val, test) = tagging_splits(&ds, &mut rng);
    train.extend(distant_tagging_examples(&ds, 400, 7575));
    // The full clean-label regime saturates all three variants (F1 ~0.98);
    // shrink the training set, and — crucially — reproduce the paper's
    // supervision condition: for ambiguous tokens ("village" as Location or
    // Style) "the valid class label ... is not unique", so annotations and
    // distant supervision disagree across examples. Simulate that by
    // replacing each ambiguous single-token label with a *random valid*
    // domain. Strict CRF must average conflicting supervision; fuzzy CRF
    // (eq. 8) sums over all valid paths and is robust to it.
    train.truncate(200);
    let amb = AmbiguityIndex::build(&ds);
    for ex in &mut train {
        for t in 0..ex.tokens.len() {
            let valid = amb.domains_of(&ex.tokens[t]);
            if valid.len() > 1 && alicoco_mining::vocab_mining::is_begin(ex.labels[t]) {
                let pick = valid[rng.gen_range(0..valid.len())];
                ex.labels[t] = alicoco_mining::vocab_mining::b_label(pick);
            }
        }
    }
    let words: alicoco_nn::util::FxHashSet<String> = train
        .iter()
        .chain(test.iter())
        .flat_map(|e| e.tokens.iter().cloned())
        .collect();
    let ctx = ContextIndex::build(&res, &ds, words.iter().map(String::as_str), 3);
    let configs: [(&str, TaggerConfig); 3] = [
        ("Baseline (BiLSTM-CRF)", TaggerConfig::baseline()),
        ("+Fuzzy CRF", TaggerConfig::with_fuzzy()),
        ("+Fuzzy CRF & Knowledge", TaggerConfig::full()),
    ];
    println!(
        "{}",
        row(&[
            "model".into(),
            "precision".into(),
            "recall".into(),
            "F1".into()
        ])
    );
    println!("{}", dashes(4));
    for (name, cfg) in configs {
        // Average 3 seeds.
        let (mut pr, mut rc, mut f1) = (0.0, 0.0, 0.0);
        for seed in 0..3u64 {
            let mut rng = seeded_rng(75 + seed);
            let mut model = ConceptTagger::new(
                &res,
                TaggerConfig {
                    train: cfg.train.clone().with_epochs(2),
                    seed: 31 + seed,
                    ..cfg.clone()
                },
            );
            model.train(&res, &ctx, &amb, &train, &mut rng);
            let m = model.evaluate(&res, &ctx, &test);
            pr += m.precision / 3.0;
            rc += m.recall / 3.0;
            f1 += m.f1 / 3.0;
        }
        println!("{}", row(&[name.to_string(), f(pr), f(rc), f(f1)]));
    }
    println!();
}

// ---------------------------------------------------------------------------
// Table 6: concept-item semantic matching
// ---------------------------------------------------------------------------

fn table6() {
    println!("## Table 6 — concept-item semantic matching\n");
    println!("(Paper AUC/F1/P@10: BM25 -/-/0.7681; DSSM 0.7885/0.6937/0.7971; MatchPyramid");
    println!("0.8127/0.7352/0.7813; RE2 0.8664/0.7052/0.8977; Ours 0.8610/0.7532/0.9015;");
    println!("Ours+Knowledge 0.8713/0.7769/0.9048.)\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let data = build_matching_dataset(&ds, &MatchingDataConfig::default());
    println!(
        "({} concepts, {} train pairs, {} test pairs, {} ranking queries)\n",
        data.concepts.len(),
        data.train.len(),
        data.test.len(),
        data.queries.len()
    );
    println!(
        "{}",
        row(&["model".into(), "AUC".into(), "F1".into(), "P@10".into()])
    );
    println!("{}", dashes(4));

    let bm = Bm25Matcher::build(&res, &data);
    let m = evaluate_matcher(&data, |c, i| bm.score(c, i));
    println!(
        "{}",
        row(&["BM25".into(), f(m.auc), "-".into(), f(m.p_at_10)])
    );

    // The neural baselines are small and under-confident at this data
    // scale; longer training helps them cross the 0.5 F1 threshold.
    let epochs = 5;
    let baseline_epochs = 10;
    {
        let mut rng = seeded_rng(761);
        let mut dssm = DssmMatcher::new(&res, baseline_epochs, 761);
        dssm.train(&res, &data, &mut rng);
        let m = evaluate_matcher(&data, |c, i| dssm.score(&res, &data, c, i));
        println!("{}", row(&["DSSM".into(), f(m.auc), f(m.f1), f(m.p_at_10)]));
    }
    {
        let mut rng = seeded_rng(762);
        let mut mp = MatchPyramidMatcher::new(&res, baseline_epochs, 762);
        mp.train(&res, &data, &mut rng);
        let m = evaluate_matcher(&data, |c, i| mp.score(&res, &data, c, i));
        println!(
            "{}",
            row(&["MatchPyramid".into(), f(m.auc), f(m.f1), f(m.p_at_10)])
        );
    }
    {
        let mut rng = seeded_rng(763);
        let mut re2 = Re2Matcher::new(&res, baseline_epochs, 763);
        re2.train(&res, &data, &mut rng);
        let m = evaluate_matcher(&data, |c, i| re2.score(&res, &data, c, i));
        println!("{}", row(&["RE2".into(), f(m.auc), f(m.f1), f(m.p_at_10)]));
    }
    {
        let mut rng = seeded_rng(764);
        let mut ours = OursMatcher::new(
            &res,
            OursConfig {
                use_knowledge: false,
                train: OursConfig::default().train.with_epochs(epochs),
                ..Default::default()
            },
        );
        ours.train(&res, &data, &mut rng);
        let m = evaluate_matcher(&data, |c, i| ours.score(&res, &data, c, i));
        println!("{}", row(&["Ours".into(), f(m.auc), f(m.f1), f(m.p_at_10)]));
    }
    {
        let mut rng = seeded_rng(764);
        let mut ours = OursMatcher::new(
            &res,
            OursConfig {
                use_knowledge: true,
                train: OursConfig::default().train.with_epochs(epochs),
                ..Default::default()
            },
        );
        ours.train(&res, &data, &mut rng);
        let m = evaluate_matcher(&data, |c, i| ours.score(&res, &data, c, i));
        println!(
            "{}",
            row(&["Ours + Knowledge".into(), f(m.auc), f(m.f1), f(m.p_at_10)])
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Table 1: generation patterns with good/bad examples
// ---------------------------------------------------------------------------

fn table1() {
    println!("## Table 1 — pattern-combination candidates with oracle + classifier verdicts\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let oracle = Oracle::new(&ds.world);
    let mut rng = seeded_rng(11);
    let (train, _, _) = classification_splits(&ds, &mut rng);
    let mut model = ConceptClassifier::new(
        &res,
        ClassifierConfig {
            train: ClassifierConfig::full().train.with_epochs(8),
            ..ClassifierConfig::full()
        },
    );
    model.train(&res, &train, &mut rng);
    let pools = PrimitivePools::from_dataset(&ds);
    let cands = candidates_from_patterns(&pools, 400, &mut rng);
    println!(
        "{}",
        row(&["candidate".into(), "oracle".into(), "classifier".into()])
    );
    println!("{}", dashes(3));
    let mut shown_good = 0;
    let mut shown_bad = 0;
    for c in &cands {
        let good = oracle.label_concept(&c.tokens);
        if (good && shown_good < 6) || (!good && shown_bad < 6) {
            let score = model.score(&res, &c.tokens);
            println!(
                "{}",
                row(&[c.tokens.join(" "), good.to_string(), format!("{score:.3}")])
            );
            if good {
                shown_good += 1;
            } else {
                shown_bad += 1;
            }
        }
        if shown_good >= 6 && shown_bad >= 6 {
            break;
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// §8.1.1: search relevance with isA expansion
// ---------------------------------------------------------------------------

fn search_relevance() {
    println!("## §8.1.1 — search relevance with isA knowledge\n");
    println!("(Paper: AliCoCo's 10x larger isA inventory improves the relevance model by");
    println!("~1% AUC and cuts bad cases by 4%. Here: BM25 relevance between a category");
    println!("query and item titles, with and without expanding the query with its KG");
    println!("hyponyms — 'jacket is a kind of top'.)\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let mut rng = seeded_rng(81);
    // Queries: internal category nodes ("top", "cookware"); an item is
    // relevant iff its category descends from the query node.
    let tree = &ds.world.tree;
    // Mixed query set: internal category nodes ("cookware" — pure
    // vocabulary gap) and leaf nodes (exact title matches), mirroring the
    // head/tail mix of real queries.
    let mut queries: Vec<usize> = tree
        .ids()
        .filter(|&i| i != 0 && tree.node(i).depth >= 2)
        .collect();
    queries.shuffle(&mut rng);
    queries.truncate(120);
    let docs: Vec<Vec<alicoco_text::TokenId>> = ds
        .items
        .iter()
        .map(|it| res.vocab.encode(&it.title))
        .collect();
    let index = alicoco_text::bm25::Bm25Index::build(&docs, Default::default());

    let mut plain_scores = Vec::new();
    let mut expanded_scores = Vec::new();
    let mut plain_bad = 0usize;
    let mut expanded_bad = 0usize;
    let mut total_queries = 0usize;
    for &q in &queries {
        let name = tree.name(q);
        let plain_q = res
            .vocab
            .encode(&name.split(' ').map(String::from).collect::<Vec<_>>());
        // isA expansion: add the names of all descendants (the KG's hyponyms
        // of the query term).
        let mut expanded_q = plain_q.clone();
        let mut stack = tree.node(q).children.clone();
        while let Some(c) = stack.pop() {
            for tok in tree.name(c).split(' ') {
                if let Some(id) = res.vocab.get(tok) {
                    expanded_q.push(id);
                }
            }
            stack.extend(tree.node(c).children.iter().copied());
        }
        // Sample items: relevant + random.
        let mut rel: Vec<usize> = ds
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.category == q || tree.is_ancestor(q, it.category))
            .map(|(i, _)| i)
            .collect();
        if rel.is_empty() {
            continue;
        }
        total_queries += 1;
        rel.shuffle(&mut rng);
        rel.truncate(10);
        let mut cands: Vec<(usize, bool)> = rel.iter().map(|&i| (i, true)).collect();
        while cands.len() < 30 {
            let i = rng.gen_range(0..ds.items.len());
            let is_rel = ds.items[i].category == q || tree.is_ancestor(q, ds.items[i].category);
            cands.push((i, is_rel));
        }
        for &(i, y) in &cands {
            plain_scores.push((index.score(&plain_q, i) as f32, y));
            expanded_scores.push((index.score(&expanded_q, i) as f32, y));
        }
        // "Bad case": the top-ranked candidate is irrelevant.
        let top_is_relevant = |qv: &Vec<alicoco_text::TokenId>| {
            cands
                .iter()
                .map(|&(i, y)| ((i, index.score(qv, i)), y))
                .min_by(|a, b| alicoco::rank::by_score_then_id(&a.0, &b.0))
                .map(|(_, y)| y)
                .unwrap_or(false)
        };
        if !top_is_relevant(&plain_q) {
            plain_bad += 1;
        }
        if !top_is_relevant(&expanded_q) {
            expanded_bad += 1;
        }
    }
    use alicoco_nn::metrics::roc_auc;
    println!(
        "{}",
        row(&["setting".into(), "AUC".into(), "bad cases".into()])
    );
    println!("{}", dashes(3));
    println!(
        "{}",
        row(&[
            "keyword only".into(),
            f(roc_auc(&plain_scores)),
            format!("{plain_bad}/{total_queries}"),
        ])
    );
    println!(
        "{}",
        row(&[
            "+ isA expansion".into(),
            f(roc_auc(&expanded_scores)),
            format!("{expanded_bad}/{total_queries}"),
        ])
    );
    println!();
}

// ---------------------------------------------------------------------------
// §8.2.1: cognitive recommendation vs item-CF
// ---------------------------------------------------------------------------

fn recommendation() {
    println!("## §8.2.1 — cognitive recommendation vs item-based CF\n");
    println!("(Paper: concept-card recommendation ran in production for a year with high");
    println!("CTR and measurably more novelty than behavior-based recommendation. Here:");
    println!("simulated users browse two items of a scenario; we measure whether the");
    println!("recommender surfaces the right concept (hit@3), how many of the user's");
    println!("*remaining* needed items each method recovers, and novelty.)\n");
    let ds = medium_dataset();
    let (kg, _) = build_alicoco(&ds, &PipelineConfig::default());
    let kg = std::sync::Arc::new(kg);
    let recommender = alicoco_apps::CognitiveRecommender::new(
        alicoco_apps::Retriever::new(std::sync::Arc::clone(&kg), None),
        alicoco_apps::RecommendConfig {
            k: 3,
            items_per_card: 10,
            ..Default::default()
        },
        &alicoco_obs::Registry::new(),
    );
    let mut rng = seeded_rng(82);

    let mut users = 0usize;
    let mut concept_hits = 0usize;
    let mut cc_recall = 0.0f64;
    let mut cf_recall = 0.0f64;
    let mut cc_novelty = 0.0f64;
    for cid in kg.concept_ids() {
        let items = kg.items_for_concept(cid);
        if items.len() < 4 {
            continue;
        }
        users += 1;
        let mut pool: Vec<alicoco::ItemId> = items.iter().map(|&(i, _)| i).collect();
        pool.shuffle(&mut rng);
        let history: Vec<alicoco::ItemId> = pool[..2].to_vec();
        let remaining: alicoco_nn::util::FxHashSet<alicoco::ItemId> =
            pool[2..].iter().copied().collect();

        // Cognitive recommendation: concept cards.
        let recs = recommender.recommend(&history);
        if recs.iter().any(|r| r.concept == cid) {
            concept_hits += 1;
        }
        let cc_items: alicoco_nn::util::FxHashSet<alicoco::ItemId> = recs
            .iter()
            .flat_map(|r| r.items.iter().map(|&(i, _)| i))
            .collect();
        cc_recall +=
            cc_items.intersection(&remaining).count() as f64 / remaining.len().max(1) as f64;
        cc_novelty += cc_items.iter().filter(|i| !history.contains(i)).count() as f64
            / cc_items.len().max(1) as f64;

        // Item-CF baseline: items sharing the most primitive properties
        // with the history ("similar to what you viewed").
        let mut hist_prims: alicoco_nn::util::FxHashSet<alicoco::PrimitiveId> = Default::default();
        for &h in &history {
            hist_prims.extend(kg.item(h).primitives.iter().copied());
        }
        let mut scored: Vec<(alicoco::ItemId, usize)> = kg
            .item_ids()
            .filter(|i| !history.contains(i))
            .map(|i| {
                let overlap = kg
                    .item(i)
                    .primitives
                    .iter()
                    .filter(|p| hist_prims.contains(p))
                    .count();
                (i, overlap)
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let cf_items: alicoco_nn::util::FxHashSet<alicoco::ItemId> =
            scored.iter().take(30).map(|&(i, _)| i).collect();
        cf_recall +=
            cf_items.intersection(&remaining).count() as f64 / remaining.len().max(1) as f64;
    }
    if users == 0 {
        println!("(no concepts with enough items — increase world size)\n");
        return;
    }
    let n = users as f64;
    println!(
        "{}",
        row(&[
            "metric".into(),
            "cognitive (concept cards)".into(),
            "item-CF baseline".into()
        ])
    );
    println!("{}", dashes(3));
    println!(
        "{}",
        row(&[
            "need recognized (hit@3)".into(),
            f(concept_hits as f64 / n),
            "-".into()
        ])
    );
    println!(
        "{}",
        row(&[
            "remaining-needs recall".into(),
            f(cc_recall / n),
            f(cf_recall / n)
        ])
    );
    println!(
        "{}",
        row(&[
            "novelty of shown items".into(),
            f(cc_novelty / n),
            "-".into()
        ])
    );
    println!("\n({users} simulated users)\n");
}

// ---------------------------------------------------------------------------
// Extension ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

fn ablations() {
    println!("## Extension ablations\n");
    let ds = medium_dataset();
    let res = resources_for(&ds);
    let mut rng = seeded_rng(99);
    let data = HypernymDataset::build(&ds, &res, &mut rng);

    // (a) UCS alpha sweep.
    println!("### UCS alpha sweep (alpha = confidence share of each batch)\n");
    println!(
        "{}",
        row(&["alpha".into(), "labels".into(), "best val MAP".into()])
    );
    println!("{}", dashes(3));
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let oracle = Oracle::new(&ds.world);
        let out = run_active_learning(
            &data,
            &oracle,
            &ActiveLearningConfig {
                strategy: Strategy::Ucs { alpha },
                k_per_round: 200,
                max_rounds: 10,
                patience: 3,
                projection: ProjectionConfig {
                    train: ProjectionConfig::default().train.with_epochs(3),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        println!(
            "{}",
            row(&[
                format!("{alpha:.2}"),
                out.labeled.to_string(),
                f(out.best_val_map)
            ])
        );
    }

    // (b) Oracle noise sweep: how annotator errors degrade active learning.
    println!("\n### Oracle noise sweep (UCS)\n");
    println!("{}", row(&["noise".into(), "best val MAP".into()]));
    println!("{}", dashes(2));
    for noise in [0.0, 0.05, 0.1, 0.2] {
        let oracle = Oracle::with_noise(&ds.world, noise, 5);
        let out = run_active_learning(
            &data,
            &oracle,
            &ActiveLearningConfig {
                strategy: Strategy::Ucs { alpha: 0.5 },
                k_per_round: 200,
                max_rounds: 8,
                patience: 3,
                projection: ProjectionConfig {
                    train: ProjectionConfig::default().train.with_epochs(3),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        println!("{}", row(&[format!("{noise:.2}"), f(out.best_val_map)]));
    }
    println!();
}
