//! Training throughput of the five construction models through the shared
//! `nn::train::Trainer`, comparing 1 worker against N workers on the same
//! batched configuration. Before anything is timed, the final parameters of
//! both runs are asserted byte-identical — the engine's determinism
//! contract — so any speedup never comes from result drift. Emits
//! `BENCH_train.json` at the workspace root with examples/sec per model,
//! plus the machine context (`cpus`, `threads`) a reader needs to judge
//! the speedups: on a single-CPU box the engine runs inline and they hover
//! at parity. The report is informational (CI uploads it as an artifact);
//! the byte-parity assert is this bench's only gate.
//!
//! `TRAIN_BENCH_WORKERS` overrides the compared worker count (CI pins it
//! to 4 so bench-smoke exercises the pooled path deterministically).

use alicoco_corpus::Dataset;
use alicoco_mining::congen::{classification_splits, ClassifierConfig, ConceptClassifier};
use alicoco_mining::hypernym::{HypernymDataset, ProjectionConfig, ProjectionModel};
use alicoco_mining::matching::{
    build_matching_dataset, MatchingDataConfig, OursConfig, OursMatcher,
};
use alicoco_mining::resources::{Resources, ResourcesConfig};
use alicoco_mining::tagging::{
    tagging_splits, AmbiguityIndex, ConceptTagger, ContextIndex, TaggerConfig,
};
use alicoco_mining::vocab_mining::{
    distant_supervision, KnownLexicon, VocabMiner, VocabMinerConfig,
};
use alicoco_nn::util::seeded_rng;
use alicoco_nn::{planned_threads, EpochStats, Tensor, TrainConfig};
use std::time::Instant;

const SEED: u64 = 20200614;
const BATCH: usize = 8;

/// One timed training run: examples per epoch, wall clock, final params,
/// and the engine's per-epoch stage telemetry.
struct Run {
    examples: usize,
    epochs: usize,
    secs: f64,
    params: Vec<Tensor>,
    stats: Vec<EpochStats>,
}

struct ModelResult {
    name: &'static str,
    base: Run,
    par: Run,
}

fn sharded(train: TrainConfig, workers: usize) -> TrainConfig {
    train.with_batch_size(BATCH).with_workers(workers)
}

fn time_run(
    examples: usize,
    epochs: usize,
    f: impl FnOnce() -> (Vec<Tensor>, Vec<EpochStats>),
) -> Run {
    let t = Instant::now();
    let (params, stats) = f();
    Run {
        examples,
        epochs,
        secs: t.elapsed().as_secs_f64(),
        params,
        stats,
    }
}

fn stage_shares(stats: &[EpochStats]) -> (f64, f64, f64) {
    let fwd: u64 = stats.iter().map(|s| s.forward_ns).sum();
    let merge: u64 = stats.iter().map(|s| s.merge_ns).sum();
    let step: u64 = stats.iter().map(|s| s.step_ns).sum();
    let total = (fwd + merge + step).max(1) as f64;
    (
        100.0 * fwd as f64 / total,
        100.0 * merge as f64 / total,
        100.0 * step as f64 / total,
    )
}

/// Fastest of three runs: each call builds a fresh seeded model, so the
/// repeats are identical work and min-time filters out scheduler spikes —
/// a single slow sample on a shared runner would otherwise swing the
/// speedup ratio by tenths.
fn best_of_3(run_with: &impl Fn(usize) -> Run, workers: usize) -> Run {
    (0..3)
        .map(|_| run_with(workers))
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("three runs produce a minimum")
}

fn bench_model(name: &'static str, workers: usize, run_with: impl Fn(usize) -> Run) -> ModelResult {
    let base = best_of_3(&run_with, 1);
    let par = best_of_3(&run_with, workers);
    for (a, b) in base.params.iter().zip(&par.params) {
        assert_eq!(
            a.data(),
            b.data(),
            "{name}: parameters diverged between 1 and {workers} workers"
        );
    }
    let (fwd, merge, step) = stage_shares(&par.stats);
    println!(
        "train/{name}: {:.0} ex/s @ 1 worker, {:.0} ex/s @ {workers} workers ({:.2}x), parity OK \
         [stages @ {workers}w: forward {fwd:.0}%, merge {merge:.0}%, step {step:.0}%]",
        base.rate(),
        par.rate(),
        base.secs / par.secs.max(1e-9),
    );
    ModelResult { name, base, par }
}

impl Run {
    fn rate(&self) -> f64 {
        (self.examples * self.epochs) as f64 / self.secs.max(1e-9)
    }
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = std::env::var("TRAIN_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w >= 2)
        .unwrap_or_else(|| cpus.clamp(2, 4));
    let threads = planned_threads(workers);
    let ds = Dataset::tiny();
    let res = Resources::build(&ds, ResourcesConfig::default());

    // Shared datasets, built once with a fixed seed so both runs of each
    // model train on identical examples.
    let mut rng = seeded_rng(SEED);
    let (known, _) = KnownLexicon::sample(&ds, 0.75, &mut rng);
    let sentences: Vec<Vec<String>> = ds.corpora.all_sentences().cloned().collect();
    let miner_data = distant_supervision(&known, &sentences, 300);

    let mut rng = seeded_rng(SEED);
    let hyp_data = HypernymDataset::build(&ds, &res, &mut rng);
    let triples = hyp_data.labeled_pairs(&hyp_data.train_pos, 6, &mut rng);

    let mut rng = seeded_rng(SEED);
    let cls_data = classification_splits(&ds, &mut rng).0;

    let mut rng = seeded_rng(SEED);
    let (tag_data, _, _) = tagging_splits(&ds, &mut rng);
    let amb = AmbiguityIndex::build(&ds);
    let ctx_words: Vec<String> = tag_data
        .iter()
        .flat_map(|e| e.tokens.iter().cloned())
        .collect();
    let ctx = ContextIndex::build(&res, &ds, ctx_words.iter().map(String::as_str), 3);

    let match_data = build_matching_dataset(&ds, &MatchingDataConfig::default());

    let results = [
        bench_model("vocab_miner", workers, |w| {
            let cfg = VocabMinerConfig {
                train: sharded(VocabMinerConfig::default().train.with_epochs(1), w),
                ..Default::default()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = VocabMiner::new(&res, cfg);
            time_run(miner_data.len(), 1, || {
                let stats = m.train(&res, &miner_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("hypernym_projection", workers, |w| {
            let cfg = ProjectionConfig {
                train: sharded(ProjectionConfig::default().train.with_epochs(2), w),
                ..Default::default()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = ProjectionModel::new(res.word_vectors.dim(), cfg);
            time_run(triples.len(), 2, || {
                let stats = m.train(&hyp_data, &triples, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("concept_classifier", workers, |w| {
            let cfg = ClassifierConfig {
                train: sharded(ClassifierConfig::full().train.with_epochs(2), w),
                ..ClassifierConfig::full()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = ConceptClassifier::new(&res, cfg);
            time_run(cls_data.len(), 2, || {
                let stats = m.train(&res, &cls_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("concept_tagger", workers, |w| {
            let cfg = TaggerConfig {
                train: sharded(TaggerConfig::full().train.with_epochs(1), w),
                ..TaggerConfig::full()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = ConceptTagger::new(&res, cfg);
            time_run(tag_data.len(), 1, || {
                let stats = m.train(&res, &ctx, &amb, &tag_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("semantic_matcher", workers, |w| {
            let cfg = OursConfig {
                train: sharded(OursConfig::default().train.with_epochs(1), w),
                ..Default::default()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = OursMatcher::new(&res, cfg);
            time_run(match_data.train.len(), 1, || {
                let stats = m.train(&res, &match_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
    ];

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"batch_size\": {BATCH},\n  \"workers_compared\": [1, {workers}],\n  \
         \"cpus\": {cpus},\n  \"threads\": {threads},\n  \"models\": [\n"
    ));
    for (i, r) in results.iter().enumerate() {
        // `examples_per_sec_parallel` (not `..._{workers}_workers`) so the
        // key is stable across machines with different core counts.
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"examples\": {}, \"epochs\": {}, \"workers\": {workers}, \
             \"examples_per_sec_1_worker\": {:.2}, \"examples_per_sec_parallel\": {:.2}, \
             \"speedup\": {:.3}, \"parity\": true}}{}\n",
            r.name,
            r.base.examples,
            r.base.epochs,
            r.base.rate(),
            r.par.rate(),
            r.base.secs / r.par.secs.max(1e-9),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    std::fs::write(out, &json).expect("write BENCH_train.json");
    println!("train/summary: wrote {out} (cpus {cpus}, threads {threads})");
}
