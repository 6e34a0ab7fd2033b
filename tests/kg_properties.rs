//! Property-based tests (proptest) over the core invariants: snapshot
//! round-tripping for arbitrary graphs, CRF decoding optimality, metric
//! bounds, and coverage-evaluator bounds.

use alicoco::{AliCoCo, Stats};
use alicoco_nn::crf::Crf;
use alicoco_nn::metrics::{average_precision, precision_at_k, reciprocal_rank, roc_auc};
use alicoco_nn::{ParamSet, Tensor};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Arbitrary small graphs -> snapshot roundtrip
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct GraphSpec {
    classes: usize,
    primitives: Vec<(u8, u8)>, // (name id, class index)
    concepts: usize,
    items: Vec<bool>, // per item: does it get an EMPTY title?
    prim_is_a: Vec<(u8, u8)>,
    concept_prims: Vec<(u8, u8)>,
    concept_items: Vec<(u8, u8, u8)>, // weight in 0..=100 (0 is legal)
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (
        2usize..6,
        prop::collection::vec((0u8..20, 0u8..5), 1..15),
        1usize..6,
        prop::collection::vec(any::<bool>(), 1..8),
        prop::collection::vec((0u8..15, 0u8..15), 0..10),
        prop::collection::vec((0u8..6, 0u8..15), 0..10),
        prop::collection::vec((0u8..6, 0u8..8, 0u8..=100), 0..10),
    )
        .prop_map(
            |(classes, primitives, concepts, items, prim_is_a, concept_prims, concept_items)| {
                GraphSpec {
                    classes,
                    primitives,
                    concepts,
                    items,
                    prim_is_a,
                    concept_prims,
                    concept_items,
                }
            },
        )
}

fn build_graph(spec: &GraphSpec) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let mut classes = vec![root];
    for i in 0..spec.classes {
        classes.push(kg.add_class(&format!("class{i}"), Some(root)));
    }
    let mut prims = Vec::new();
    for &(name, class) in &spec.primitives {
        let class = classes[(class as usize) % classes.len()];
        prims.push(kg.add_primitive(&format!("prim{name}"), class));
    }
    let mut concepts = Vec::new();
    for i in 0..spec.concepts {
        concepts.push(kg.add_concept(&format!("concept {i}")));
    }
    let mut items = Vec::new();
    for (i, &empty_title) in spec.items.iter().enumerate() {
        let title: Vec<String> = if empty_title {
            Vec::new()
        } else {
            vec![format!("item{i}"), "title".to_string()]
        };
        items.push(kg.add_item(&title));
    }
    for &(a, b) in &spec.prim_is_a {
        let a = prims[(a as usize) % prims.len()];
        let b = prims[(b as usize) % prims.len()];
        if a != b {
            kg.add_primitive_is_a(a, b);
        }
    }
    for &(c, p) in &spec.concept_prims {
        let c = concepts[(c as usize) % concepts.len()];
        let p = prims[(p as usize) % prims.len()];
        kg.link_concept_primitive(c, p);
    }
    for &(c, i, w) in &spec.concept_items {
        let c = concepts[(c as usize) % concepts.len()];
        let i = items[(i as usize) % items.len()];
        kg.link_concept_item(c, i, w as f32 / 100.0);
    }
    kg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_roundtrip_any_graph(spec in graph_strategy()) {
        let kg = build_graph(&spec);
        let mut buf = Vec::new();
        alicoco::snapshot::save(&kg, &mut buf).unwrap();
        let loaded = alicoco::snapshot::load(&mut buf.as_slice()).unwrap();
        let a = Stats::compute(&kg);
        let b = Stats::compute(&loaded);
        prop_assert_eq!(a.num_classes, b.num_classes);
        prop_assert_eq!(a.num_primitives, b.num_primitives);
        prop_assert_eq!(a.num_concepts, b.num_concepts);
        prop_assert_eq!(a.num_items, b.num_items);
        prop_assert_eq!(a.total_relations(), b.total_relations());
        // Exact node/edge payloads survive: item titles (including empty
        // ones) and concept->item weights (including 0.0).
        for i in kg.item_ids() {
            prop_assert_eq!(&kg.item(i).title, &loaded.item(i).title);
        }
        for c in kg.concept_ids() {
            prop_assert_eq!(&kg.concept(c).items, &loaded.concept(c).items);
        }
        // Saving again yields identical bytes (canonical form).
        let mut buf2 = Vec::new();
        alicoco::snapshot::save(&loaded, &mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);
    }

    #[test]
    fn storage_backends_are_byte_and_structure_equivalent(spec in graph_strategy()) {
        use alicoco::store::{BinaryStore, Store, TsvStore};
        let kg = build_graph(&spec);

        // TSV -> binary -> TSV reproduces the oracle bytes exactly.
        let mut tsv_bytes = Vec::new();
        TsvStore.save(&kg, &mut tsv_bytes).unwrap();
        let mut bin_bytes = Vec::new();
        BinaryStore.save(&kg, &mut bin_bytes).unwrap();
        let via_binary = BinaryStore.load(&bin_bytes).unwrap();
        let mut tsv_again = Vec::new();
        TsvStore.save(&via_binary, &mut tsv_again).unwrap();
        prop_assert_eq!(&tsv_bytes, &tsv_again);

        // Binary re-save is canonical too.
        let mut bin_again = Vec::new();
        BinaryStore.save(&via_binary, &mut bin_again).unwrap();
        prop_assert_eq!(&bin_bytes, &bin_again);

        // Binary-loaded graph is structurally identical to TSV-loaded.
        // (The *original* kg may order derived adjacency — hyponyms,
        // item->concepts — by arbitrary call order; both loads normalize
        // to the canonical stream order, so they must agree with each
        // other exactly and with the original through stats.)
        let via_tsv = TsvStore.load(&tsv_bytes).unwrap();
        prop_assert_eq!(&via_tsv, &via_binary);

        // Both loads agree with the original through the stats pipeline.
        let expect = Stats::compute(&kg);
        prop_assert_eq!(&Stats::compute(&via_tsv), &expect);
        prop_assert_eq!(&Stats::compute(&via_binary), &expect);
    }

    #[test]
    fn primitive_ancestors_never_contains_self_and_terminates(spec in graph_strategy()) {
        let kg = build_graph(&spec);
        for p in kg.primitive_ids() {
            let anc = kg.primitive_ancestors(p);
            // Cycles are representable (a isA b, b isA a) but the closure
            // must terminate and dedupe.
            let mut sorted = anc.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), anc.len(), "ancestors contain duplicates");
        }
    }

    #[test]
    fn items_for_concept_sorted_and_bounded(spec in graph_strategy()) {
        let kg = build_graph(&spec);
        for c in kg.concept_ids() {
            let items = kg.items_for_concept(c);
            for w in items.windows(2) {
                prop_assert!(w[0].1 >= w[1].1);
            }
            for &(_, weight) in &items {
                prop_assert!((0.0..=1.0).contains(&weight));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CRF decoding optimality on random emissions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn viterbi_beats_random_paths(
        emissions in prop::collection::vec(prop::collection::vec(-3.0f32..3.0, 3), 1..5),
        seed in 0u64..1000,
    ) {
        let mut rng = alicoco_nn::util::seeded_rng(seed);
        let mut ps = ParamSet::new();
        let crf = Crf::new(&mut ps, "crf", 3, &mut rng);
        let t = emissions.len();
        let flat: Vec<f32> = emissions.iter().flatten().copied().collect();
        let em = Tensor::from_vec(t, 3, flat);
        let decoded = crf.decode(&em);
        prop_assert_eq!(decoded.len(), t);
        let best = crf.path_score(&em, &decoded);
        // Any random path scores no better.
        use rand::Rng as _;
        for _ in 0..20 {
            let path: Vec<usize> = (0..t).map(|_| rng.gen_range(0..3)).collect();
            prop_assert!(crf.path_score(&em, &path) <= best + 1e-4);
        }
        // And the partition dominates the best path (log-sum-exp >= max).
        prop_assert!(crf.log_partition(&em) >= best - 1e-4);
    }
}

// ---------------------------------------------------------------------------
// Metric bounds
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ranking_metrics_are_bounded(
        scored in prop::collection::vec((-10.0f32..10.0, any::<bool>()), 1..40)
    ) {
        let auc = roc_auc(&scored);
        prop_assert!((0.0..=1.0).contains(&auc), "auc {auc}");
        let ap = average_precision(&scored);
        prop_assert!((0.0..=1.0).contains(&ap));
        let rr = reciprocal_rank(&scored);
        prop_assert!((0.0..=1.0).contains(&rr));
        for k in 1..5 {
            let p = precision_at_k(&scored, k);
            prop_assert!((0.0..=1.0).contains(&p));
        }
        // AP and RR agree on emptiness of relevance.
        let has_rel = scored.iter().any(|&(_, y)| y);
        prop_assert_eq!(ap > 0.0, has_rel);
        prop_assert_eq!(rr > 0.0, has_rel);
    }

    #[test]
    fn auc_is_complement_under_label_flip(
        scored in prop::collection::vec((-5.0f32..5.0, any::<bool>()), 2..30)
    ) {
        let pos = scored.iter().filter(|(_, y)| *y).count();
        prop_assume!(pos > 0 && pos < scored.len());
        // Distinct scores only (ties make the complement inexact).
        let mut scores: Vec<f32> = scored.iter().map(|&(s, _)| s).collect();
        scores.sort_by(f32::total_cmp);
        scores.dedup();
        prop_assume!(scores.len() == scored.len());
        let auc = roc_auc(&scored);
        let flipped: Vec<(f32, bool)> = scored.iter().map(|&(s, y)| (s, !y)).collect();
        let auc_f = roc_auc(&flipped);
        prop_assert!((auc + auc_f - 1.0).abs() < 1e-9);
    }
}
