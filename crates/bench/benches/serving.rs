//! The two serving-path floors the repo benchmark (`benchmark/`) has no
//! view of, each asserted where it is measured:
//!
//! - **Instrumentation overhead** — on a 50k-concept world, the obs calls
//!   one `search_top` makes, timed directly in a tight loop, over the
//!   measured per-query median: under [`MAX_OVERHEAD_PCT`].
//! - **HNSW recall** — recall@10 of `Hnsw::knn` against the exact
//!   `scan_knn` oracle on a seeded 100k-vector clustered set (the set that
//!   calibrated `ef_construction`): at least [`MIN_RECALL_AT_10`], with
//!   every answer set checked for size, rank order and duplicates.
//!
//! Latencies, throughput, codec and index-build timings are measured end
//! to end and per layer by `benchmark/run.sh` (BENCHMARK.json), not here.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use alicoco_ann::{Hnsw, HnswConfig};
use alicoco_apps::{Retriever, SearchConfig, SemanticSearch};
use alicoco_bench::{median_secs, scale_vocab, scale_world};
use alicoco_obs::{Registry, StageClock};

const N_CONCEPTS: usize = 50_000;
const QUERIES: usize = 512;
const ROUNDS: usize = 7;
const MAX_OVERHEAD_PCT: f64 = 5.0;
const OBS_ITERS: usize = 200_000;
const ANN_VECTORS: usize = 100_000;
const ANN_DIM: usize = 32;
const ANN_CLUSTERS: usize = 256;
const ANN_QUERIES: usize = 512;
const ANN_K: usize = 10;
const ANN_EF: usize = 96;
/// Below this the fused candidate set starts silently dropping answers the
/// paper's semantic-matching task exists to surface.
const MIN_RECALL_AT_10: f64 = 0.9;

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
        let mut clock = StageClock::started();
        for counter in &counters {
            counter.add(black_box(i as u64));
        }
        for stage in &stages {
            clock.lap(stage);
        }
    }
    t.elapsed().as_secs_f64() / OBS_ITERS as f64
}

/// Share of one search query spent in instrumentation, in percent.
fn overhead_pct() -> f64 {
    let retriever = Retriever::new(Arc::new(scale_world(N_CONCEPTS)), None);
    let engine = SemanticSearch::new(retriever, SearchConfig::default(), &Registry::new());
    let qs = queries(QUERIES);
    // Medians damp outlier rounds (cache warmup, frequency scaling).
    let per_query_secs = median_secs(ROUNDS, || {
        for q in &qs {
            black_box(engine.search(q));
        }
    }) / QUERIES as f64;
    let obs_secs = obs_calls_secs();
    let pct = obs_secs / per_query_secs * 100.0;
    println!(
        "serving/overhead: {:.2} us/query, {:.0} ns of it in obs calls ({pct:.2}%)",
        per_query_secs * 1e6,
        obs_secs * 1e9,
    );
    pct
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

/// Recall@10 of the HNSW index against the exact scan oracle on the
/// synthetic clustered workload.
fn recall_at_10() -> f64 {
    let mut index = Hnsw::new(ANN_DIM, HnswConfig::default());
    for v in &clustered_vectors(ANN_VECTORS, ANN_DIM, ANN_CLUSTERS, 0x0A11_C0C0) {
        index.insert(v);
    }

    // Queries: perturbed stored vectors, so every query has meaningful
    // near neighbors to recall.
    let mut state = 0x00C0_FFEE;
    let queries: Vec<Vec<f32>> = (0..ANN_QUERIES)
        .map(|_| {
            let id = (splitmix(&mut state) % ANN_VECTORS as u64) as u32;
            let mut q: Vec<f32> = index.vector(id).to_vec();
            for x in &mut q {
                *x += 0.1 * unit(&mut state);
            }
            q
        })
        .collect();

    // Every answer set is k-sized, duplicate-free, and in rank order.
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
    let recall = recall_sum / queries.len() as f64;
    println!(
        "serving/ann: {ANN_VECTORS} vectors, recall@10 {recall:.4} over {ANN_QUERIES} queries"
    );
    recall
}

fn main() {
    let overhead_pct = overhead_pct();
    assert!(
        overhead_pct < MAX_OVERHEAD_PCT,
        "metrics overhead {overhead_pct:.2}% exceeds the {MAX_OVERHEAD_PCT}% budget"
    );
    let recall = recall_at_10();
    assert!(
        recall >= MIN_RECALL_AT_10,
        "recall@10 {recall:.4} is under the {MIN_RECALL_AT_10} floor"
    );
}
