//! Scenario question answering (§8.1.2): the paper's aspirational query —
//! "What should I prepare for hosting next week's barbecue?" — answered
//! from the concept net as a shopping checklist.
//!
//! ```sh
//! cargo run --release -p alicoco-suite --example question_answering -- \
//!     "what should i prepare for hosting next week's barbecue?"
//! ```

use std::sync::Arc;

use alicoco_apps::{Retriever, ScenarioQa};
use alicoco_corpus::Dataset;
use alicoco_mining::pipeline::{build_alicoco, PipelineConfig};
use alicoco_obs::Registry;

fn main() {
    let question = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "what should i prepare for hosting next week's barbecue?".to_string());

    println!("building AliCoCo (tiny world)...");
    let ds = Dataset::tiny();
    // Generate more concept candidates than the default so common scenarios
    // ("outdoor barbecue", "baking tools") make it into the net.
    let cfg = PipelineConfig {
        pattern_candidates: 600,
        item_candidates: 40,
        link_threshold: 0.35,
        ..Default::default()
    };
    let (kg, _) = build_alicoco(&ds, &cfg);
    let qa = ScenarioQa::new(Retriever::new(Arc::new(kg), None), &Registry::new());

    println!("\nQ: {question}");
    match qa.answer(&question) {
        Some(answer) => {
            println!("A: for \"{}\" you will need:", answer.concept_name);
            for entry in &answer.checklist {
                println!(
                    "   [{:.0}%] {}",
                    entry.confidence * 100.0,
                    entry.title.join(" ")
                );
            }
        }
        None => {
            println!("A: I couldn't map that question to a shopping scenario.");
            println!(
                "   (content words: {:?})",
                ScenarioQa::content_words(&question)
            );
        }
    }

    // A few more canned questions to show breadth.
    for q in [
        "what do i need for baking?",
        "how do i get ready for winter skiing?",
        "what should i buy for a picnic in the park?",
    ] {
        println!("\nQ: {q}");
        match qa.answer(q) {
            Some(a) => {
                println!("A: {} —", a.concept_name);
                for e in a.checklist.iter().take(4) {
                    println!("   [{:.0}%] {}", e.confidence * 100.0, e.title.join(" "));
                }
            }
            None => println!("A: no scenario found."),
        }
    }
}
