//! Cognitive recommendation (§8.2.1, Figure 2b/c): instead of "similar to
//! what you viewed", infer the user's *need* from their history and
//! recommend a concept card with its items — plus a human-readable reason
//! (§8.2.2).
//!
//! ```sh
//! cargo run --release -p alicoco-suite --example cognitive_recommendation
//! ```

use std::sync::Arc;

use alicoco::ItemId;
use alicoco_apps::{CognitiveRecommender, RecommendConfig, Retriever};
use alicoco_corpus::Dataset;
use alicoco_mining::pipeline::{build_alicoco, PipelineConfig};
use alicoco_obs::Registry;

fn main() {
    println!("building AliCoCo (tiny world)...");
    let ds = Dataset::tiny();
    let (kg, _) = build_alicoco(&ds, &PipelineConfig::default());
    let kg = Arc::new(kg);

    // Simulate a user who browsed a few items that belong to some scenario.
    let history: Vec<ItemId> = kg
        .item_ids()
        .filter(|&i| !kg.concepts_for_item(i).is_empty())
        .take(3)
        .collect();
    if history.is_empty() {
        println!("no linked items in this build — rerun with a larger world");
        return;
    }
    println!("\nuser history:");
    for &i in &history {
        println!("  viewed: {}", kg.item(i).title.join(" "));
    }

    let recommender = CognitiveRecommender::new(
        Retriever::new(Arc::clone(&kg), None),
        RecommendConfig::default(),
        &Registry::new(),
    );
    println!("\nrecommended concept cards:");
    for rec in recommender.recommend(&history) {
        println!("\n┌─ \"{}\"  (affinity {:.2})", rec.name, rec.affinity);
        println!("│  reason: {}", rec.reason.text(&kg, rec.name));
        for (iid, w) in rec.items.iter().take(4) {
            println!("│    ({w:.2}) {}", kg.item(*iid).title.join(" "));
        }
        println!("└─");
    }
}
