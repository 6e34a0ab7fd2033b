//! Training throughput of the five construction models through the shared
//! `nn::train::Trainer`, at the batch size the construction pipeline runs
//! (`TrainConfig::default().batch_size`), and of the word2vec the hybrid
//! bundle trains (`Word2VecConfig::default()`, here over the tiny
//! dataset's sentences; examples are tokens). Each model is trained three
//! times from the same seed; the three final parameter sets are asserted
//! byte-identical — the engine's reproducibility contract, and this
//! bench's only gate — and the fastest run is reported. Emits
//! `BENCH_train.json` at the workspace root with examples/sec per model
//! and the forward/step split of the epoch clock (null for word2vec, whose
//! hand-rolled loop reports no stages). The numbers are
//! informational (CI uploads the file as an artifact).

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
use alicoco_nn::{EpochStats, Tensor};
use alicoco_text::word2vec::{train as w2v_train, Word2VecConfig};
use alicoco_text::Vocab;
use std::time::Instant;

const SEED: u64 = 20200614;

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
    best: Run,
}

impl Run {
    fn rate(&self) -> f64 {
        (self.examples * self.epochs) as f64 / self.secs.max(1e-9)
    }
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

/// Share of the engine's timed stages spent in forward/backward, in percent
/// (the rest is clipping plus optimizer steps); `None` without stages.
fn forward_share(stats: &[EpochStats]) -> Option<f64> {
    let fwd: u64 = stats.iter().map(|s| s.forward_ns).sum();
    let step: u64 = stats.iter().map(|s| s.step_ns).sum();
    (!stats.is_empty()).then(|| 100.0 * fwd as f64 / (fwd + step).max(1) as f64)
}

/// Three seeded runs: byte-identical parameters asserted, fastest kept —
/// the repeats are identical work, so min-time filters out scheduler
/// spikes on a shared runner.
fn bench_model(name: &'static str, run: impl Fn() -> Run) -> ModelResult {
    let runs: Vec<Run> = (0..3).map(|_| run()).collect();
    for other in &runs[1..] {
        for (a, b) in runs[0].params.iter().zip(&other.params) {
            assert_eq!(
                a.data(),
                b.data(),
                "{name}: two seeded runs trained different parameters"
            );
        }
    }
    let best = runs
        .into_iter()
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("three runs produce a minimum");
    let stages = forward_share(&best.stats).map_or_else(String::new, |pct| {
        format!(" [forward {pct:.0}% of timed stages]")
    });
    println!(
        "train/{name}: {:.0} ex/s, reproducible{stages}",
        best.rate()
    );
    ModelResult { name, best }
}

fn main() {
    let ds = Dataset::tiny();
    let res = Resources::build(&ds, ResourcesConfig::default());

    // Shared datasets, built once with a fixed seed so every run of each
    // model trains on identical examples.
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

    let w2v_refs: Vec<&[String]> = sentences.iter().map(Vec::as_slice).collect();
    let w2v_vocab = Vocab::from_corpus(w2v_refs.iter().copied(), 1);
    let w2v_sentences: Vec<Vec<usize>> = w2v_refs.iter().map(|s| w2v_vocab.encode(s)).collect();
    let w2v_tokens: usize = w2v_sentences.iter().map(Vec::len).sum();

    let results = [
        bench_model("vocab_miner", || {
            let cfg = VocabMinerConfig {
                train: VocabMinerConfig::default().train.with_epochs(1),
                ..Default::default()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = VocabMiner::new(&res, cfg);
            time_run(miner_data.len(), 1, || {
                let stats = m.train(&res, &miner_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("hypernym_projection", || {
            let cfg = ProjectionConfig {
                train: ProjectionConfig::default().train.with_epochs(2),
                ..Default::default()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = ProjectionModel::new(res.word_vectors.dim(), cfg);
            time_run(triples.len(), 2, || {
                let stats = m.train(&hyp_data, &triples, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("concept_classifier", || {
            let cfg = ClassifierConfig {
                train: ClassifierConfig::full().train.with_epochs(2),
                ..ClassifierConfig::full()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = ConceptClassifier::new(&res, cfg);
            time_run(cls_data.len(), 2, || {
                let stats = m.train(&res, &cls_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("concept_tagger", || {
            let cfg = TaggerConfig {
                train: TaggerConfig::full().train.with_epochs(1),
                ..TaggerConfig::full()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = ConceptTagger::new(&res, cfg);
            time_run(tag_data.len(), 1, || {
                let stats = m.train(&res, &ctx, &amb, &tag_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("semantic_matcher", || {
            let cfg = OursConfig {
                train: OursConfig::default().train.with_epochs(1),
                ..Default::default()
            };
            let mut rng = seeded_rng(SEED);
            let mut m = OursMatcher::new(&res, cfg);
            time_run(match_data.train.len(), 1, || {
                let stats = m.train(&res, &match_data, &mut rng);
                (m.params().snapshot(), stats)
            })
        }),
        bench_model("word2vec", || {
            let cfg = Word2VecConfig::default();
            time_run(w2v_tokens, cfg.epochs, || {
                let wv = w2v_train(&w2v_vocab, &w2v_sentences, &cfg);
                (vec![wv.vectors], Vec::new())
            })
        }),
    ];

    let mut json = String::from("{\n  \"models\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"examples\": {}, \"epochs\": {}, \
             \"examples_per_sec\": {:.2}, \"forward_pct\": {}, \"reproducible\": true}}{}\n",
            r.name,
            r.best.examples,
            r.best.epochs,
            r.best.rate(),
            forward_share(&r.best.stats).map_or_else(|| "null".into(), |pct| format!("{pct:.1}")),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    std::fs::write(out, &json).expect("write BENCH_train.json");
    println!("train/summary: wrote {out}");
}
