//! Serving-path observability bench: on a 50k-concept world, measures the
//! share of a search query spent in instrumentation — the obs calls one
//! `search_top` makes, timed directly in a tight loop, over the measured
//! per-query median — and gates it under a few percent, then reports
//! per-stage latency percentiles straight from the metric registry plus
//! batch/QA/recommendation numbers. Also measures
//! the storage layer at 50k and at paper scale (1M concepts): cold
//! save/load for both snapshot codecs plus *cold start to first answer* —
//! TSV must fully materialize before it can answer a keyword probe, while
//! the binary codec answers zero-copy from a freshly opened view — with
//! byte-identity and answer equality asserted before any timing. The
//! first-answer ratio is the gated metric (`snapshot.*.cold_load_speedup`,
//! absolute floor in `alicoco_bench::compare`). Finally measures the HNSW
//! vector index on a synthetic clustered workload (100k vectors by
//! default, 1M with `ALICOCO_BENCH_ANN_1M=1`): well-formedness is
//! asserted and recall@10 against the exact `scan_knn` oracle is measured
//! *before* any timing, then per-query knn latency percentiles and the
//! build cost are reported as `serving.ann.*` — `recall_at_10` is the
//! gated metric (absolute ≥ 0.9 floor in `alicoco_bench::compare`).
//! Emits `BENCH_serving.json` at the workspace root for the CI perf
//! gate, stamped with the machine's `cpus` so cpu-conditional floors
//! apply.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use alicoco::query::QueryIndex;
use alicoco::snapshot::binary::SnapshotView;
use alicoco::store::{BinaryStore, Store, TsvStore};
use alicoco_ann::{Hnsw, HnswConfig};
use alicoco_apps::{
    CognitiveRecommender, RecommendConfig, Retriever, ScenarioQa, SearchConfig, SemanticSearch,
};
use alicoco_bench::{median_secs, scale_vocab, scale_world};
use alicoco_obs::{Registry, StageClock};

const N_CONCEPTS: usize = 50_000;
const N_CONCEPTS_1M: usize = 1_000_000;
const QUERIES: usize = 512;
const ROUNDS: usize = 7;
const SNAPSHOT_ROUNDS: usize = 5;
const SNAPSHOT_ROUNDS_1M: usize = 3;
const BATCH: usize = 64;
const MAX_OVERHEAD_PCT: f64 = 5.0;
const OBS_ITERS: usize = 200_000;
const ANN_VECTORS: usize = 100_000;
const ANN_VECTORS_1M: usize = 1_000_000;
const ANN_DIM: usize = 32;
const ANN_CLUSTERS: usize = 256;
const ANN_QUERIES: usize = 512;
const ANN_K: usize = 10;
const ANN_EF: usize = 96;

fn queries(n: usize) -> Vec<String> {
    let vocab = scale_vocab();
    (0..n)
        .map(|i| {
            format!(
                "{} {}",
                vocab[(i * 31) % vocab.len()],
                vocab[(i * 17 + 5) % vocab.len()]
            )
        })
        .collect()
}

/// Wall-clock seconds of one full pass over the query set.
fn round_secs(engine: &SemanticSearch, refs: &[&str]) -> f64 {
    let t = Instant::now();
    for q in refs {
        std::hint::black_box(engine.search(q));
    }
    t.elapsed().as_secs_f64()
}

/// Seconds the obs calls of one `search_top` take: one clock start, four
/// counter adds and three stage laps, on a scratch registry. Differencing
/// two ~180 µs engine medians measured run-to-run noise (3.07 % one run,
/// 0.14 % the next); this times the numerator itself.
fn obs_calls_secs() -> f64 {
    let scratch = Registry::new();
    let counters = ["c0", "c1", "c2", "c3"].map(|name| scratch.counter(name));
    let stages = ["h0", "h1", "h2"].map(|name| scratch.histogram(name));
    let t = Instant::now();
    for i in 0..OBS_ITERS {
        let mut clock = StageClock::started(true);
        for counter in &counters {
            counter.add(black_box(i as u64));
        }
        for stage in &stages {
            clock.lap(stage);
        }
    }
    t.elapsed().as_secs_f64() / OBS_ITERS as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Cold save/load costs of one world under both snapshot codecs.
struct SnapshotCosts {
    tsv_save_secs: f64,
    tsv_load_secs: f64,
    tsv_first_answer_secs: f64,
    tsv_bytes: usize,
    bin_save_secs: f64,
    bin_load_secs: f64,
    bin_open_secs: f64,
    bin_first_answer_secs: f64,
    bin_bytes: usize,
    /// TSV full-materialization load time over binary full-materialization
    /// load time. Informational: both sides pay the same dominant cost
    /// (building 1M+ nodes and the name map), so this ratio is bounded.
    load_speedup: f64,
    /// Cold start to first answer: TSV time-to-first-answer over binary
    /// time-to-first-answer for the same keyword probe. This is the gated
    /// metric (`*.cold_load_speedup`, absolute floor in
    /// `alicoco_bench::compare`): the binary codec's whole point is that a
    /// cold process answers queries from the checksummed view without
    /// materializing the graph, while TSV has no path to any answer short
    /// of a full load.
    cold_load_speedup: f64,
}

/// Cheapest possible cold first answer the TSV codec allows for a
/// one-token keyword probe: a full load (its only path to any data),
/// then a linear scan — deliberately *cheaper* than building a
/// `QueryIndex`, so the comparison is maximally charitable to TSV. The
/// answer set mirrors the persisted concept postings: concepts whose
/// surface contains the token or that an identically-surfaced primitive
/// interprets.
fn tsv_first_answer(tsv_bytes: &[u8], token: &str) -> Vec<u32> {
    let kg = TsvStore.load(tsv_bytes).expect("tsv load");
    let mut ids = Vec::new();
    for c in kg.concept_ids() {
        let node = kg.concept(c);
        if node.name.split(' ').any(|t| t == token)
            || node
                .primitives
                .iter()
                .any(|&p| kg.primitive(p).name == token)
        {
            ids.push(c.index() as u32);
        }
    }
    ids
}

/// Cold first answer from the binary codec: open the view (verifying
/// every section checksum) and walk the lexicographically-ordered
/// postings section to the probe token — no graph, no index.
fn bin_first_answer(bin_bytes: &[u8], token: &str) -> Vec<u32> {
    let view = SnapshotView::open(bin_bytes).expect("binary open");
    view.concept_posting_for(token)
        .expect("postings walk")
        .map(|ids| ids.into_iter().map(|c| c.index() as u32).collect())
        .unwrap_or_default()
}

fn snapshot_costs(kg: &alicoco::AliCoCo, rounds: usize, probe: &str) -> SnapshotCosts {
    let mut tsv_bytes = Vec::new();
    TsvStore.save(kg, &mut tsv_bytes).expect("tsv save");
    let mut bin_bytes = Vec::new();
    BinaryStore.save(kg, &mut bin_bytes).expect("binary save");

    // Correctness gate before any timing: both codecs must agree on the
    // loaded graph, binary -> model -> TSV must reproduce the TSV oracle
    // bytes exactly, and both cold first-answer paths must produce the
    // same non-empty answer for the probe.
    {
        let from_tsv = TsvStore.load(&tsv_bytes).expect("tsv load");
        let from_bin = BinaryStore.load(&bin_bytes).expect("binary load");
        assert_eq!(from_tsv, from_bin, "codecs disagree on the loaded graph");
        let mut again = Vec::new();
        TsvStore.save(&from_bin, &mut again).expect("tsv re-save");
        assert_eq!(again, tsv_bytes, "binary -> model -> TSV lost bytes");
        let scan = tsv_first_answer(&tsv_bytes, probe);
        assert!(!scan.is_empty(), "probe token {probe:?} matches nothing");
        assert_eq!(
            scan,
            bin_first_answer(&bin_bytes, probe),
            "codecs disagree on the first answer for {probe:?}"
        );
    }

    let tsv_save_secs = median_secs(rounds, || {
        let mut out = Vec::new();
        TsvStore.save(kg, &mut out).expect("tsv save");
        out
    });
    let bin_save_secs = median_secs(rounds, || {
        let mut out = Vec::new();
        BinaryStore.save(kg, &mut out).expect("binary save");
        out
    });
    let tsv_load_secs = median_secs(rounds, || TsvStore.load(&tsv_bytes).expect("tsv load"));
    let bin_load_secs = median_secs(rounds, || {
        BinaryStore.load(&bin_bytes).expect("binary load")
    });
    let bin_open_secs = median_secs(rounds, || {
        BinaryStore.open(&bin_bytes).expect("binary open")
    });
    let tsv_first_answer_secs = median_secs(rounds, || tsv_first_answer(&tsv_bytes, probe));
    let bin_first_answer_secs = median_secs(rounds, || bin_first_answer(&bin_bytes, probe));
    SnapshotCosts {
        tsv_save_secs,
        tsv_load_secs,
        tsv_first_answer_secs,
        tsv_bytes: tsv_bytes.len(),
        bin_save_secs,
        bin_load_secs,
        bin_open_secs,
        bin_first_answer_secs,
        bin_bytes: bin_bytes.len(),
        load_speedup: tsv_load_secs / bin_load_secs,
        cold_load_speedup: tsv_first_answer_secs / bin_first_answer_secs,
    }
}

fn print_snapshot_costs(label: &str, c: &SnapshotCosts) {
    println!(
        "serving/snapshot {label}: tsv {:.1} MB load {:.1} ms answer {:.1} ms | \
         binary {:.1} MB load {:.1} ms open {:.2} ms answer {:.2} ms | \
         load speedup {:.1}x, cold first-answer speedup {:.1}x",
        c.tsv_bytes as f64 / 1e6,
        c.tsv_load_secs * 1e3,
        c.tsv_first_answer_secs * 1e3,
        c.bin_bytes as f64 / 1e6,
        c.bin_load_secs * 1e3,
        c.bin_open_secs * 1e3,
        c.bin_first_answer_secs * 1e3,
        c.load_speedup,
        c.cold_load_speedup,
    );
}

/// The JSON object body for one scale's snapshot costs (without braces).
/// `cold_load_speedup` is the gated key (absolute floor in
/// `alicoco_bench::compare`); `load_speedup` is the informational
/// full-materialization ratio.
fn snapshot_json(c: &SnapshotCosts) -> String {
    format!(
        "\"tsv_save_ns\": {:.0},\n      \"tsv_load_ns\": {:.0},\n      \
         \"tsv_first_answer_ns\": {:.0},\n      \
         \"tsv_bytes\": {},\n      \"binary_save_ns\": {:.0},\n      \
         \"binary_load_ns\": {:.0},\n      \"binary_open_ns\": {:.0},\n      \
         \"binary_first_answer_ns\": {:.0},\n      \
         \"binary_bytes\": {},\n      \"load_speedup\": {:.3},\n      \
         \"cold_load_speedup\": {:.3}",
        c.tsv_save_secs * 1e9,
        c.tsv_load_secs * 1e9,
        c.tsv_first_answer_secs * 1e9,
        c.tsv_bytes,
        c.bin_save_secs * 1e9,
        c.bin_load_secs * 1e9,
        c.bin_open_secs * 1e9,
        c.bin_first_answer_secs * 1e9,
        c.bin_bytes,
        c.load_speedup,
        c.cold_load_speedup,
    )
}

/// SplitMix64: a deterministic, dependency-free stream for the synthetic
/// vector workload. Seeded construction makes every run (and every
/// machine) benchmark the identical index.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
}

/// Clustered synthetic embeddings: seeded anchor directions plus per-point
/// noise, mimicking the concept-embedding geometry (trained embeddings of
/// related concepts bunch around shared topics) rather than the
/// adversarially-uniform sphere where any ANN graph looks artificially bad.
fn clustered_vectors(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed;
    let anchors: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..dim).map(|_| unit(&mut state)).collect())
        .collect();
    (0..n)
        .map(|i| {
            let anchor = &anchors[i % clusters];
            anchor.iter().map(|a| a + 0.3 * unit(&mut state)).collect()
        })
        .collect()
}

/// Build cost, oracle recall, and query latency of the HNSW index on the
/// synthetic clustered workload.
struct AnnCosts {
    n_vectors: usize,
    build_secs: f64,
    recall_at_10: f64,
    p50_ns: u64,
    p99_ns: u64,
}

fn ann_costs(n: usize) -> AnnCosts {
    let vectors = clustered_vectors(n, ANN_DIM, ANN_CLUSTERS, 0x0A11_C0C0);
    let t = Instant::now();
    let mut index = Hnsw::new(ANN_DIM, HnswConfig::default());
    for v in &vectors {
        index.insert(v);
    }
    let build_secs = t.elapsed().as_secs_f64();

    // Queries: perturbed stored vectors, so every query has meaningful
    // near neighbors to recall.
    let mut state = 0x00C0_FFEE;
    let queries: Vec<Vec<f32>> = (0..ANN_QUERIES)
        .map(|_| {
            let id = (splitmix(&mut state) % n as u64) as u32;
            let mut q: Vec<f32> = index.vector(id).to_vec();
            for x in &mut q {
                *x += 0.1 * unit(&mut state);
            }
            q
        })
        .collect();

    // Correctness gate before any timing: every answer set is k-sized,
    // duplicate-free, and in rank order; recall@10 against the exact scan
    // oracle is measured here (and gated via `serving.ann.recall_at_10`).
    let mut recall_sum = 0.0;
    for q in &queries {
        let approx = index.knn(q, ANN_K, ANN_EF);
        assert_eq!(approx.len(), ANN_K, "knn returned fewer than k answers");
        for w in approx.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "knn answers out of rank order"
            );
        }
        let mut ids: Vec<u32> = approx.iter().map(|a| a.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), approx.len(), "knn returned a duplicate id");
        let exact = index.scan_knn(q, ANN_K);
        let hits = approx
            .iter()
            .filter(|a| exact.iter().any(|e| e.0 == a.0))
            .count();
        recall_sum += hits as f64 / exact.len().max(1) as f64;
    }
    let recall_at_10 = recall_sum / queries.len() as f64;

    let mut latencies: Vec<u64> = Vec::with_capacity(queries.len());
    for q in &queries {
        let t = Instant::now();
        std::hint::black_box(index.knn(q, ANN_K, ANN_EF));
        latencies.push(t.elapsed().as_nanos() as u64);
    }
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    AnnCosts {
        n_vectors: n,
        build_secs,
        recall_at_10,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    }
}

fn main() {
    let kg = scale_world(N_CONCEPTS);
    let retriever = Retriever::new(QueryIndex::build(&kg), None);
    let registry = Registry::new();
    let engine = SemanticSearch::new(Arc::clone(&retriever), SearchConfig::default(), &registry);

    let qs = queries(QUERIES);
    let refs: Vec<&str> = qs.iter().map(String::as_str).collect();

    // Medians damp outlier rounds (cache warmup, frequency scaling).
    let per_query_secs =
        median((0..ROUNDS).map(|_| round_secs(&engine, &refs)).collect()) / QUERIES as f64;
    let obs_secs = obs_calls_secs();
    let overhead_pct = obs_secs / per_query_secs * 100.0;
    println!(
        "serving/overhead: {:.2} us/query, {:.0} ns of it in obs calls ({overhead_pct:.2}%)",
        per_query_secs * 1e6,
        obs_secs * 1e9,
    );
    assert!(
        overhead_pct < MAX_OVERHEAD_PCT,
        "metrics overhead {overhead_pct:.2}% exceeds the {MAX_OVERHEAD_PCT}% budget"
    );

    // Per-stage percentiles straight from the registry the timed rounds
    // populated.
    let retrieve = registry.histogram("search.retrieve_ns").snapshot();
    let score = registry.histogram("search.score_ns").snapshot();
    let rank = registry.histogram("search.rank_ns").snapshot();
    for (stage, snap) in [("retrieve", &retrieve), ("score", &score), ("rank", &rank)] {
        println!(
            "serving/search_{stage}: p50 {} ns, p90 {} ns, p99 {} ns over {} queries",
            snap.p50, snap.p90, snap.p99, snap.count
        );
    }

    // Batch throughput over the first 64 queries.
    let batch: Vec<&str> = refs[..BATCH].to_vec();
    let t = Instant::now();
    let mut batch_runs = 0usize;
    while batch_runs < 20 {
        std::hint::black_box(engine.search_batch(&batch));
        batch_runs += 1;
    }
    let batch_secs = t.elapsed().as_secs_f64() / batch_runs as f64;
    let batch_qps = BATCH as f64 / batch_secs;
    println!("serving/batch: {batch_qps:.0} queries/sec over {BATCH}-query batches");

    // QA and recommendation latency percentiles via their own registries
    // (kept separate so search counts above stay those of the timed rounds).
    let aux = Registry::new();
    let qa = ScenarioQa::new(Arc::clone(&retriever), &aux);
    for q in refs.iter().take(256) {
        std::hint::black_box(qa.answer(&format!("what do i need for {q}?")));
    }
    let qa_snap = aux.histogram("qa.answer_ns").snapshot();

    let recommender = CognitiveRecommender::new(retriever, RecommendConfig::default(), &aux);
    let linked: Vec<alicoco::ItemId> = kg
        .item_ids()
        .filter(|&i| !kg.concepts_for_item(i).is_empty())
        .take(3)
        .collect();
    for _ in 0..256 {
        std::hint::black_box(recommender.recommend(&linked));
    }
    let rec_snap = aux.histogram("recommend.total_ns").snapshot();
    println!(
        "serving/qa: p50 {} ns; serving/recommend: p50 {} ns",
        qa_snap.p50, rec_snap.p50
    );

    // Storage layer: cold save/load for both codecs at the serving scale
    // and at paper scale (1M concepts, streamed world generation). The
    // probe token is a vocab word, so it appears in concept surfaces at
    // every scale.
    let probe = scale_vocab()[0].clone();
    let snap_50k = snapshot_costs(&kg, SNAPSHOT_ROUNDS, &probe);
    print_snapshot_costs("n50k", &snap_50k);
    let big = scale_world(N_CONCEPTS_1M);
    let snap_1m = snapshot_costs(&big, SNAPSHOT_ROUNDS_1M, &probe);
    drop(big);
    print_snapshot_costs("n1000k", &snap_1m);

    // Vector index on the synthetic clustered workload. 100k vectors by
    // default; paper scale (1M) is opt-in because the build alone takes
    // minutes.
    let ann_n = if std::env::var("ALICOCO_BENCH_ANN_1M").is_ok() {
        ANN_VECTORS_1M
    } else {
        ANN_VECTORS
    };
    let ann = ann_costs(ann_n);
    println!(
        "serving/ann: {} vectors, build {:.1} s, recall@10 {:.4}, knn p50 {} ns p99 {} ns",
        ann.n_vectors, ann.build_secs, ann.recall_at_10, ann.p50_ns, ann.p99_ns,
    );

    // Machine context: cpu-conditional floors in `alicoco_bench::compare`
    // (speedups, saturation throughput) key off this stamp, mirroring
    // BENCH_train.json.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let json = format!(
        "{{\n  \"n_concepts\": {N_CONCEPTS},\n  \"cpus\": {cpus},\n  \
         \"queries_per_round\": {QUERIES},\n  \
         \"rounds\": {ROUNDS},\n  \"search\": {{\n    \
         \"instrumented_per_query_ns\": {:.0},\n    \
         \"overhead_pct\": {overhead_pct:.3},\n    \
         \"retrieve_p50_ns\": {},\n    \"retrieve_p99_ns\": {},\n    \
         \"score_p50_ns\": {},\n    \"score_p99_ns\": {},\n    \
         \"rank_p50_ns\": {},\n    \"rank_p99_ns\": {}\n  }},\n  \"batch\": {{\n    \
         \"batch_size\": {BATCH},\n    \"qps\": {batch_qps:.0}\n  }},\n  \"qa\": {{\n    \
         \"p50_ns\": {},\n    \"p99_ns\": {}\n  }},\n  \"recommend\": {{\n    \
         \"p50_ns\": {},\n    \"p99_ns\": {}\n  }},\n  \"snapshot\": {{\n    \
         \"n50k\": {{\n      {}\n    }},\n    \"n1000k\": {{\n      {}\n    }}\n  }},\n  \
         \"serving\": {{\n    \"ann\": {{\n      \
         \"n_vectors\": {},\n      \"dim\": {ANN_DIM},\n      \
         \"queries\": {ANN_QUERIES},\n      \"build_ns\": {:.0},\n      \
         \"recall_at_10\": {:.4},\n      \"p50_ns\": {},\n      \
         \"p99_ns\": {}\n    }}\n  }}\n}}\n",
        per_query_secs * 1e9,
        retrieve.p50,
        retrieve.p99,
        score.p50,
        score.p99,
        rank.p50,
        rank.p99,
        qa_snap.p50,
        qa_snap.p99,
        rec_snap.p50,
        rec_snap.p99,
        snapshot_json(&snap_50k),
        snapshot_json(&snap_1m),
        ann.n_vectors,
        ann.build_secs * 1e9,
        ann.recall_at_10,
        ann.p50_ns,
        ann.p99_ns,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(out, &json).expect("write BENCH_serving.json");
    println!("serving/summary: wrote {out}");
}
