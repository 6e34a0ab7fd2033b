//! Shared helpers for the experiment runner and the benches.

use alicoco_corpus::{Dataset, WorldConfig};
use alicoco_mining::resources::{Resources, ResourcesConfig};
use std::time::Instant;

/// The "paper-scale" (for this reproduction) evaluation world: the default
/// configuration — 3000 items, 1200 labeled concepts.
pub fn medium_dataset() -> Dataset {
    Dataset::generate(WorldConfig::default())
}

/// A concept-heavy world for the classification ablation (Table 4): more
/// labeled concepts stabilize the comparison.
pub fn classification_dataset() -> Dataset {
    Dataset::generate(WorldConfig {
        num_good_concepts: 1500,
        num_bad_concepts: 1500,
        ..WorldConfig::default()
    })
}

/// Build shared resources with default sizing.
pub fn resources_for(ds: &Dataset) -> Resources {
    Resources::build(ds, ResourcesConfig::default())
}

/// Render a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Format an f64 with 4 decimals.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

// The at-scale synthetic world generator lives in `alicoco_corpus::scale`
// (streaming, 1M+ capable); re-exported here so benches keep their import.
pub use alicoco_corpus::scale::{scale_vocab, scale_world};

/// Median wall-clock seconds of `runs` executions of `f`.
pub fn median_secs<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
