//! Quickstart: generate a synthetic e-commerce world, run the full
//! construction pipeline, and query the resulting AliCoCo concept net.
//!
//! ```sh
//! cargo run --release -p alicoco-suite --example quickstart
//! ```

use alicoco::coverage::{evaluate, FullVocabulary};
use alicoco::Stats;
use alicoco_corpus::Dataset;
use alicoco_mining::pipeline::{build_alicoco, PipelineConfig};

fn main() {
    // 1. A deterministic synthetic world (items, corpora, glosses, oracle).
    println!("== generating synthetic e-commerce world ==");
    let ds = Dataset::tiny();
    println!(
        "items: {}, labeled concepts: {}, corpus sentences: {}",
        ds.items.len(),
        ds.concepts.len(),
        ds.corpora.total_sentences()
    );

    // 2. Run the semi-automatic construction pipeline (§2–§6): vocabulary
    //    mining, hypernym discovery, concept generation + classification,
    //    tagging, item association.
    println!("\n== building AliCoCo ==");
    let (kg, report) = build_alicoco(&ds, &PipelineConfig::default());
    println!("pipeline report: {report:#?}");

    // 3. Inspect the net (the Table 2 statistics).
    println!("\n== statistics ==\n{}", Stats::compute(&kg));

    // 4. Query: pick an e-commerce concept and list its suggested items —
    //    the "concept card" of Figure 2.
    println!("== concept cards ==");
    let mut shown = 0;
    for cid in kg.concept_ids() {
        let concept = kg.concept(cid);
        let items = kg.items_for_concept(cid);
        if items.len() >= 3 {
            println!("\n  [{}]", concept.name);
            for pid in concept.primitives {
                let p = kg.primitive(*pid);
                let domain = kg.class(kg.class_domain(p.class)).name.clone();
                println!("    interpreted by <{}: {}>", domain, p.name);
            }
            for (iid, w) in items.iter().take(3) {
                println!("    item p={:.2}: {}", w, kg.item(*iid).title.join(" "));
            }
            shown += 1;
            if shown >= 3 {
                break;
            }
        }
    }

    // 5. Disambiguation: one surface, several senses.
    println!("\n== disambiguation ==");
    for name in ["village", "mocha"] {
        let senses = kg.primitives_by_name(name);
        let domains: Vec<String> = senses
            .iter()
            .map(|&p| {
                kg.class(kg.class_domain(kg.primitive(p).class))
                    .name
                    .clone()
            })
            .collect();
        println!("  {name:?} has {} sense(s): {domains:?}", senses.len());
    }

    // 6. Coverage of user needs (§7.1).
    let cov = evaluate(&FullVocabulary::new(&kg), &ds.corpora.queries);
    println!(
        "\n== coverage ==\n  word coverage over queries: {:.1}%",
        cov.word_coverage * 100.0
    );

    // 7. Persist and reload.
    let mut buf = Vec::new();
    alicoco::snapshot::save(&kg, &mut buf).expect("snapshot save");
    let reloaded = alicoco::snapshot::load(&mut buf.as_slice()).expect("snapshot load");
    println!(
        "\n== snapshot ==\n  {} bytes; reload has {} concepts (same: {})",
        buf.len(),
        reloaded.num_concepts(),
        reloaded.num_concepts() == kg.num_concepts()
    );
}
