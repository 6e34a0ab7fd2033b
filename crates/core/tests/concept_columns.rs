//! The concept layer against a plain model: random interleavings of every
//! concept mutator, checked against `Vec<Vec<_>>` lists after each run.
//! The layer keeps each edge kind in one shared buffer and moves lists
//! around as they grow, so the orders that matter are exactly the
//! interleaved ones a row-per-concept layout could never get wrong.

use std::borrow::Cow;

use alicoco::rank::by_score_then_id;
use alicoco::snapshot::{self, binary};
use alicoco::{AliCoCo, ConceptId, ConceptRef, ItemId, PrimitiveId};
use proptest::prelude::*;

const PRIMITIVES: usize = 6;
const ITEMS: usize = 5;
/// Names are drawn from this many, so `add_concept` repeats them often.
const NAMES: u8 = 12;

/// One mutator call; operands are reduced modulo the current layer sizes.
#[derive(Clone, Copy, Debug)]
enum Op {
    AddConcept(u8),
    LinkPrimitive(u8, u8),
    AddIsA(u8, u8),
    TryAddIsA(u8, u8),
    LinkItem(u8, u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 0u8..64, 0u8..64, 0u8..=100).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::AddConcept(a % NAMES),
        1 => Op::LinkPrimitive(a, b),
        2 => Op::AddIsA(a, b),
        3 => Op::TryAddIsA(a, b),
        _ => Op::LinkItem(a, b, w),
    })
}

/// The layer as one growable list per concept and edge kind.
#[derive(Default)]
struct Model {
    names: Vec<String>,
    primitives: Vec<Vec<PrimitiveId>>,
    hypernyms: Vec<Vec<ConceptId>>,
    items: Vec<Vec<(ItemId, f32)>>,
    /// Concepts per item, in the order their edges were made.
    item_concepts: Vec<Vec<ConceptId>>,
    /// Every concept–item edge, in the order it was made.
    item_edges: Vec<(ConceptId, ItemId)>,
}

impl Model {
    fn new() -> Self {
        Model {
            item_concepts: vec![Vec::new(); ITEMS],
            ..Model::default()
        }
    }

    fn add_concept(&mut self, name: &str) -> ConceptId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return ConceptId::from_index(i);
        }
        self.names.push(name.to_string());
        self.primitives.push(Vec::new());
        self.hypernyms.push(Vec::new());
        self.items.push(Vec::new());
        ConceptId::from_index(self.names.len() - 1)
    }

    /// `AliCoCo::concept_ancestors`' walk, over the model's lists.
    fn ancestors(&self, c: ConceptId) -> Vec<ConceptId> {
        let mut queue = self.hypernyms[c.index()].clone();
        let mut out = Vec::new();
        while let Some(h) = queue.pop() {
            if !out.contains(&h) {
                out.push(h);
                queue.extend(self.hypernyms[h.index()].iter().copied());
            }
        }
        out
    }

    fn add_is_a(&mut self, hypo: ConceptId, hyper: ConceptId) {
        if !self.hypernyms[hypo.index()].contains(&hyper) {
            self.hypernyms[hypo.index()].push(hyper);
        }
    }

    fn link_item(&mut self, c: ConceptId, item: ItemId, w: f32) {
        let list = &mut self.items[c.index()];
        match list.iter_mut().find(|(i, _)| *i == item) {
            Some(edge) => edge.1 = w,
            None => {
                list.push((item, w));
                self.item_concepts[item.index()].push(c);
                self.item_edges.push((c, item));
            }
        }
    }
}

/// A net with the fixed taxonomy, primitives and items the ops refer to.
fn base() -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let class = kg.add_class("Event", Some(root));
    for p in 0..PRIMITIVES {
        kg.add_primitive(&format!("prim{p}"), class);
    }
    for i in 0..ITEMS {
        kg.add_item(&[format!("item{i}"), "title".to_string()]);
    }
    kg
}

fn name(k: u8) -> String {
    format!("concept {k}")
}

/// Apply `ops` to a fresh net and to the model alike.
fn run(ops: &[Op]) -> (AliCoCo, Model) {
    let mut kg = base();
    let mut model = Model::new();
    for &op in ops {
        if let Op::AddConcept(k) = op {
            let id = kg.add_concept(&name(k));
            assert_eq!(id, model.add_concept(&name(k)), "add_concept {k}");
            continue;
        }
        let n = model.names.len();
        if n == 0 {
            continue;
        }
        let concept = |x: u8| ConceptId::from_index(x as usize % n);
        match op {
            Op::AddConcept(_) => {}
            Op::LinkPrimitive(c, p) => {
                let p = PrimitiveId::from_index(p as usize % PRIMITIVES);
                kg.link_concept_primitive(concept(c), p);
                let list = &mut model.primitives[concept(c).index()];
                if !list.contains(&p) {
                    list.push(p);
                }
            }
            Op::AddIsA(a, b) => {
                let (hypo, hyper) = (concept(a), concept(b));
                if hypo != hyper {
                    kg.add_concept_is_a(hypo, hyper);
                    model.add_is_a(hypo, hyper);
                }
            }
            Op::TryAddIsA(a, b) => {
                let (hypo, hyper) = (concept(a), concept(b));
                let admit = hypo != hyper && !model.ancestors(hyper).contains(&hypo);
                assert_eq!(kg.try_add_concept_is_a(hypo, hyper), admit);
                if admit {
                    model.add_is_a(hypo, hyper);
                }
            }
            Op::LinkItem(c, i, w) => {
                let item = ItemId::from_index(i as usize % ITEMS);
                let w = f32::from(w) / 100.0;
                kg.link_concept_item(concept(c), item, w);
                model.link_item(concept(c), item, w);
            }
        }
    }
    (kg, model)
}

/// The model's final content, added kind by kind instead of interleaved:
/// every concept, then every isA edge, then the item edges in
/// `item_order` (weights set afterwards), then the primitive links.
fn rebuild_grouped(model: &Model, item_order: &[(ConceptId, ItemId)]) -> AliCoCo {
    let mut kg = base();
    for n in &model.names {
        kg.add_concept(n);
    }
    for (c, hypers) in model.hypernyms.iter().enumerate() {
        for &h in hypers {
            kg.add_concept_is_a(ConceptId::from_index(c), h);
        }
    }
    for &(c, i) in item_order {
        kg.link_concept_item(c, i, 0.0);
    }
    for (c, items) in model.items.iter().enumerate() {
        for &(i, w) in items {
            kg.link_concept_item(ConceptId::from_index(c), i, w);
        }
    }
    for (c, prims) in model.primitives.iter().enumerate() {
        for &p in prims {
            kg.link_concept_primitive(ConceptId::from_index(c), p);
        }
    }
    kg
}

/// Every concept–item edge in concept order: the order a snapshot stores
/// them in, and so the order a decoded net's reverse links come back in.
fn concept_order(model: &Model) -> Vec<(ConceptId, ItemId)> {
    let mut out = Vec::new();
    for (c, items) in model.items.iter().enumerate() {
        out.extend(items.iter().map(|&(i, _)| (ConceptId::from_index(c), i)));
    }
    out
}

fn binary_bytes(kg: &AliCoCo) -> Vec<u8> {
    let mut out = Vec::new();
    binary::save(kg, &mut out).unwrap();
    out
}

fn tsv_bytes(kg: &AliCoCo) -> Vec<u8> {
    let mut out = Vec::new();
    snapshot::save(kg, &mut out).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn concept_columns_agree_with_a_list_model(
        ops in prop::collection::vec(op_strategy(), 0..120)
    ) {
        let (kg, model) = run(&ops);
        prop_assert_eq!(kg.num_concepts(), model.names.len());
        for c in kg.concept_ids() {
            let i = c.index();
            let want = ConceptRef {
                name: &model.names[i],
                primitives: &model.primitives[i],
                hypernyms: &model.hypernyms[i],
                items: &model.items[i],
            };
            prop_assert_eq!(kg.concept(c), want);
            let mut sorted = model.items[i].clone();
            sorted.sort_by(by_score_then_id);
            prop_assert_eq!(kg.items_for_concept(c), sorted.clone());
            for n in 0..=sorted.len() + 2 {
                prop_assert_eq!(kg.top_items(c, n), &sorted[..n.min(sorted.len())]);
            }
            prop_assert_eq!(kg.concept_ancestors(c), model.ancestors(c));
            prop_assert_eq!(kg.concept_by_name(&model.names[i]), Some(c));
        }
        for k in 0..NAMES {
            let known = model.names.iter().position(|n| *n == name(k));
            prop_assert_eq!(
                kg.concept_by_name(&name(k)),
                known.map(ConceptId::from_index)
            );
        }
        for i in kg.item_ids() {
            prop_assert_eq!(kg.concepts_for_item(i), &model.item_concepts[i.index()][..]);
        }
        let hypernym_edges: usize = model.hypernyms.iter().map(Vec::len).sum();
        prop_assert_eq!(kg.num_concept_is_a(), hypernym_edges);
        let item_edges: usize = model.items.iter().map(Vec::len).sum();
        prop_assert_eq!(kg.num_concept_item_links(), item_edges);
        let primitive_edges: usize = model.primitives.iter().map(Vec::len).sum();
        prop_assert_eq!(kg.num_concept_primitive_links(), primitive_edges);
    }

    #[test]
    fn equal_content_in_any_build_order_is_equal_and_saves_the_same_bytes(
        ops in prop::collection::vec(op_strategy(), 0..120)
    ) {
        let (kg, model) = run(&ops);
        let grouped = rebuild_grouped(&model, &model.item_edges);
        prop_assert_eq!(&grouped, &kg);
        prop_assert_eq!(binary_bytes(&grouped), binary_bytes(&kg));
        prop_assert_eq!(tsv_bytes(&grouped), tsv_bytes(&kg));
    }

    #[test]
    fn save_then_to_graph_returns_an_equal_net(
        ops in prop::collection::vec(op_strategy(), 0..120)
    ) {
        let (kg, model) = run(&ops);
        let bytes = binary_bytes(&kg);
        let loaded = binary::SnapshotView::open(&bytes).unwrap().to_graph().unwrap();
        // Snapshots do not store the order of an item's reverse links, so
        // the decoded net equals the one whose item edges were made in
        // concept order — and that one equals `kg` everywhere else.
        let canonical = rebuild_grouped(&model, &concept_order(&model));
        prop_assert_eq!(&loaded, &canonical);
        for c in kg.concept_ids() {
            prop_assert_eq!(loaded.concept(c), kg.concept(c));
        }
        for i in kg.item_ids() {
            let mut back = kg.concepts_for_item(i).to_vec();
            back.sort();
            prop_assert_eq!(loaded.concepts_for_item(i), &back[..]);
        }
        prop_assert_eq!(binary_bytes(&loaded), bytes);
        prop_assert_eq!(tsv_bytes(&loaded), tsv_bytes(&kg));
        // A decoded net keeps growing through the same mutators.
        let mut grown = loaded;
        let mut again = canonical;
        for net in [&mut grown, &mut again] {
            let c = net.add_concept("concept grown");
            net.link_concept_primitive(c, PrimitiveId::from_index(0));
            net.link_concept_item(c, ItemId::from_index(0), 0.5);
            if let Some(first) = net.concept_ids().next().filter(|&f| f != c) {
                net.add_concept_is_a(first, c);
                net.link_concept_item(first, ItemId::from_index(1), 0.25);
            }
        }
        prop_assert_eq!(&grown, &again);
    }
}

/// Weights a tie-heavy list draws from: both zeros, repeats, and the ends
/// of the range.
const TIED_WEIGHTS: [f32; 6] = [-0.0, 0.0, 0.25, 0.5, 0.5, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Partial selection is the sorted list's prefix at every length, on
    /// lists longer than a card, where most weights tie and both signed
    /// zeros occur, linked in a random item order (relinks overwrite).
    #[test]
    fn top_items_is_the_sorted_prefix_with_ties_and_signed_zeros(
        links in prop::collection::vec((0usize..40, 0usize..TIED_WEIGHTS.len()), 0..60)
    ) {
        let mut kg = AliCoCo::new();
        for i in 0..40 {
            kg.add_item(&[format!("item{i}")]);
        }
        let c = kg.add_concept("tied");
        let bare = kg.add_concept("bare");
        for &(item, w) in &links {
            kg.link_concept_item(c, ItemId::from_index(item), TIED_WEIGHTS[w]);
        }
        let mut sorted = kg.concept(c).items.to_vec();
        sorted.sort_by(by_score_then_id);
        // The same list linked best first is lent, not copied.
        let ordered = kg.add_concept("ordered");
        for &(item, w) in &sorted {
            kg.link_concept_item(ordered, item, w);
        }
        for n in 0..=sorted.len() + 2 {
            let want = &sorted[..n.min(sorted.len())];
            for concept in [c, ordered] {
                let top = kg.top_items(concept, n);
                prop_assert_eq!(top.len(), want.len());
                for (got, want) in top.iter().zip(want) {
                    // Bit-exact, so `-0.0` and `0.0` are told apart.
                    prop_assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
                }
            }
            prop_assert!(matches!(kg.top_items(ordered, n), Cow::Borrowed(_)));
            prop_assert!(kg.top_items(bare, n).is_empty());
        }
    }
}

/// Length every list of the relocation test reaches: past 64, so a list
/// that keeps moving does so at capacities 2, 4, 8, 16, 32, 64 and 128.
const LONG: usize = 80;

/// A net with `LONG` primitives, items and isA targets, and two growers
/// whose lists the ops lengthen.
fn long_base() -> (AliCoCo, [ConceptId; 2]) {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let class = kg.add_class("Event", Some(root));
    for n in 0..LONG {
        kg.add_primitive(&format!("prim{n}"), class);
        kg.add_item(&[format!("item{n}")]);
    }
    let growers = [kg.add_concept("grower 0"), kg.add_concept("grower 1")];
    for n in 0..LONG {
        kg.add_concept(&format!("target {n}"));
    }
    (kg, growers)
}

/// Append the next entry to list `list` (edge kind `list / 2` of grower
/// `list % 2`), unless it is full; returns whether it grew.
fn grow(kg: &mut AliCoCo, growers: [ConceptId; 2], lens: &mut [usize; 6], list: usize) -> bool {
    let n = lens[list];
    if n == LONG {
        return false;
    }
    let c = growers[list % 2];
    match list / 2 {
        0 => kg.link_concept_primitive(c, PrimitiveId::from_index(n)),
        1 => kg.add_concept_is_a(c, ConceptId::from_index(2 + n)),
        _ => kg.link_concept_item(c, ItemId::from_index(n), n as f32 / LONG as f32),
    }
    lens[list] += 1;
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two concepts' lists of every kind grown in a random interleaving,
    /// then topped up in turn to `LONG`: each list moves whenever it fills
    /// up behind the other's, past several powers of two, and keeps every
    /// entry in order — in memory, in the saved bytes and after a reload.
    #[test]
    fn lists_relocated_past_a_power_of_two_keep_their_entries(
        ops in prop::collection::vec(0usize..6, 0..400)
    ) {
        let (mut kg, growers) = long_base();
        let mut lens = [0usize; 6];
        for list in ops {
            grow(&mut kg, growers, &mut lens, list);
        }
        // Top up in turn, one entry per list a round.
        let mut grew = true;
        while grew {
            grew = false;
            for list in 0..6 {
                grew |= grow(&mut kg, growers, &mut lens, list);
            }
        }
        for (g, &c) in growers.iter().enumerate() {
            let want_items: Vec<(ItemId, f32)> = (0..LONG)
                .map(|n| (ItemId::from_index(n), n as f32 / LONG as f32))
                .collect();
            let want_prims: Vec<PrimitiveId> = (0..LONG).map(PrimitiveId::from_index).collect();
            let want_hypers: Vec<ConceptId> =
                (0..LONG).map(|n| ConceptId::from_index(2 + n)).collect();
            let name = format!("grower {g}");
            let want = ConceptRef {
                name: &name,
                primitives: &want_prims,
                hypernyms: &want_hypers,
                items: &want_items,
            };
            prop_assert_eq!(kg.concept(c), want);
        }
        for n in 0..LONG {
            let item = ItemId::from_index(n);
            prop_assert_eq!(kg.concepts_for_item(item).len(), 2);
            prop_assert!(kg.concept(ConceptId::from_index(2 + n)).hypernyms.is_empty());
        }
        let bytes = binary_bytes(&kg);
        let loaded = binary::SnapshotView::open(&bytes).unwrap().to_graph().unwrap();
        for c in kg.concept_ids() {
            prop_assert_eq!(loaded.concept(c), kg.concept(c));
        }
        prop_assert_eq!(binary_bytes(&loaded), bytes);
        prop_assert_eq!(tsv_bytes(&loaded), tsv_bytes(&kg));
    }
}
