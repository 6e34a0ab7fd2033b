//! Semantic search (§8.1.2, Figure 2a): a query triggers a concept card
//! with the items the scenario needs — "items you will need for outdoor
//! barbecue" — instead of plain keyword matching.
//!
//! ```sh
//! cargo run --release -p alicoco-suite --example semantic_search -- "barbecue outdoor"
//! ```

use std::sync::Arc;

use alicoco_apps::{Retriever, SearchConfig, SemanticSearch};
use alicoco_corpus::Dataset;
use alicoco_mining::pipeline::{build_alicoco, PipelineConfig};
use alicoco_obs::Registry;

fn main() {
    let query = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "barbecue outdoor".to_string());
    println!("building AliCoCo (tiny world)...");
    let ds = Dataset::tiny();
    let (kg, _) = build_alicoco(&ds, &PipelineConfig::default());
    let kg = Arc::new(kg);
    let retriever = Retriever::new(Arc::clone(&kg), None);
    let engine = SemanticSearch::new(retriever, SearchConfig::default(), &Registry::new());

    println!("\nsearch: {query:?}\n");
    let cards = engine.search(&query);
    if cards.is_empty() {
        // The pre-AliCoCo experience: bare keyword matching.
        println!("no concept card — falling back to keyword item search");
        for iid in engine.keyword_items(&query, 5) {
            println!("  {}", kg.item(iid).title.join(" "));
        }
        return;
    }
    for card in cards {
        println!(
            "┌─ concept card: \"{}\"  (match {:.2})",
            card.name, card.score
        );
        for (domain, surface) in card.interpretation() {
            println!("│  <{domain}: {surface}>");
        }
        println!("│  items you will need:");
        for (iid, w) in card.items.iter().take(5) {
            println!("│    ({w:.2}) {}", kg.item(*iid).title.join(" "));
        }
        if card.items.is_empty() {
            println!("│    (no items linked)");
        }
        println!("└─");
    }
}
