//! A net decoded from a snapshot builds its concept name index on the
//! first lookup rather than while it loads. Lookups, idempotent adds and
//! new adds must behave as on a net built by `add_concept`, and threads
//! sharing one net must agree on every name, whichever of them builds the
//! index.

use std::sync::{Arc, Barrier};
use std::thread;

use alicoco::snapshot::binary;
use alicoco::{AliCoCo, ConceptId};

/// A net of `n` concepts, half of them linked to a primitive and an item.
fn net(n: usize) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let p = kg.add_primitive("grill", root);
    let item = kg.add_item(&["charcoal".to_string(), "grill".to_string()]);
    for i in 0..n {
        let c = kg.add_concept(&format!("outdoor grill {i}"));
        if i % 2 == 0 {
            kg.link_concept_primitive(c, p);
            kg.link_concept_item(c, item, 0.5);
        }
    }
    kg
}

fn loaded(kg: &AliCoCo) -> AliCoCo {
    let mut bytes = Vec::new();
    binary::save(kg, &mut bytes).unwrap();
    binary::load(&bytes).unwrap()
}

#[test]
fn a_loaded_net_finds_every_concept_by_name() {
    let kg = loaded(&net(500));
    for c in kg.concept_ids() {
        assert_eq!(kg.concept_by_name(kg.concept(c).name), Some(c));
    }
    assert_eq!(kg.concept_by_name("outdoor grill 500"), None);
    assert_eq!(kg.concept_by_name(""), None);
}

#[test]
fn adding_an_existing_name_to_a_loaded_net_returns_its_id() {
    let original = net(40);
    let mut kg = loaded(&original);
    let c = kg.add_concept("outdoor grill 17");
    assert_eq!(c, ConceptId::from_index(17));
    assert_eq!(kg.num_concepts(), 40);
    assert_eq!(kg, original, "nothing was added");
}

#[test]
fn adding_a_new_name_to_a_loaded_net_extends_it() {
    let mut kg = loaded(&net(40));
    let c = kg.add_concept("winter camping");
    assert_eq!(c, ConceptId::from_index(40));
    assert_eq!(kg.num_concepts(), 41);
    assert_eq!(kg.concept_by_name("winter camping"), Some(c));
    assert_eq!(kg.add_concept("winter camping"), c);
    assert_eq!(
        kg.concept_by_name("outdoor grill 3"),
        Some(ConceptId::from_index(3))
    );
    // The extended net is the one built record by record.
    let mut built = net(40);
    built.add_concept("winter camping");
    assert_eq!(kg, built);
    assert_eq!(loaded(&kg), built);
}

#[test]
fn threads_sharing_a_loaded_net_agree_on_every_name() {
    let kg = Arc::new(loaded(&net(2000)));
    // Both threads ask at once, so both race to build the index.
    let start = Barrier::new(2);
    let lookups: Vec<Vec<Option<ConceptId>>> = thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let kg = Arc::clone(&kg);
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    (0..2001)
                        .map(|i| kg.concept_by_name(&format!("outdoor grill {i}")))
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let want: Vec<Option<ConceptId>> = (0..2001)
        .map(|i| (i < 2000).then(|| ConceptId::from_index(i)))
        .collect();
    for got in lookups {
        assert_eq!(got, want);
    }
}
