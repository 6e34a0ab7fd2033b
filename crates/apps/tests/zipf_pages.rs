//! Search on the scale worlds under the query mix the load generator
//! sends: two words drawn Zipf(s = 1) over `scale_vocab()`, rank `r` being
//! vocabulary token `r`, from a splitmix64 stream (the generator's own
//! draw, copied so that these tests need no harness).
//!
//! - At 50 k concepts every distinct drawn query's page equals the string
//!   scan's, card for card and score bit for score bit. The pruned merge
//!   intersects a merged list with a probed one inside a window, and an
//!   intersection that lets the merged list run past the window's end
//!   skips entries the next window must judge: `morning1 street1` is one
//!   query it gets wrong (DESIGN.md §13.6).
//! - At 120 k concepts the merge's work on a fixed query set is pinned as
//!   counts: candidates scored, posting entries, windows and block runs
//!   skipped. Counts are deterministic where times are not; a change that
//!   moves one updates the pinned value in the same diff and says why.

use std::collections::BTreeSet;
use std::sync::Arc;

use alicoco_apps::retrieve::Retriever;
use alicoco_apps::search::{SearchConfig, SemanticSearch};
use alicoco_corpus::scale::{scale_vocab, scale_world};
use alicoco_obs::Registry;

/// splitmix64, seeded per `(seed, stream)` as the load generator seeds a
/// connection.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The first `n` two-word queries of seed 1's first stream, as
/// `/search?q=a+b` decodes them.
fn zipf_queries(n: usize) -> Vec<String> {
    let vocab = scale_vocab();
    let total: f64 = (1..=vocab.len()).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = (1..=vocab.len())
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect();
    let mut rng = SplitMix::new(1, 0);
    let mut word = || {
        let u = rng.next_f64();
        let rank = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
        vocab[rank].as_str()
    };
    (0..n).map(|_| format!("{} {}", word(), word())).collect()
}

fn engine(n_concepts: usize, metrics: &Registry) -> SemanticSearch {
    let retriever = Retriever::new(Arc::new(scale_world(n_concepts)), None);
    SemanticSearch::new(retriever, SearchConfig::default(), metrics)
}

#[test]
fn zipf_queries_rank_as_the_scan_at_50k() {
    let search = engine(50_000, &Registry::new());
    let mut queries: BTreeSet<String> = zipf_queries(2_000).into_iter().collect();
    queries.insert("morning1 street1".to_string());
    assert!(queries.len() > 1_000, "{} distinct queries", queries.len());
    for q in &queries {
        assert_eq!(
            search.search_top(q, 10),
            search.search_scan_top(q, 10),
            "{q:?}"
        );
    }
}

#[test]
fn pruned_merge_work_is_pinned_at_120k() {
    let metrics = Registry::new();
    let search = engine(120_000, &metrics);
    for q in zipf_queries(1_000) {
        search.search_top(&q, 10);
    }
    let count = |name| metrics.counter(name).get();
    let work = [
        count("search.candidates_examined"),
        count("search.postings_hit"),
        count("search.windows"),
        count("search.blocks_skipped"),
    ];
    // Candidates scored, posting entries on the merged lists, windows
    // evaluated and block runs stepped over, over the 1 000 queries.
    assert_eq!(work, [184_635, 11_762_570, 37_710, 39_867]);
}
