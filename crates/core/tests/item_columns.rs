//! The item layer against a plain model: random interleavings of every
//! item mutator — `add_item`, `link_item_primitive` and the reverse link
//! `link_concept_item` makes — checked against `Vec<Vec<_>>` lists after
//! each run. The layer keeps both edge kinds in shared buffers and moves
//! lists around as they grow, so the orders that matter are exactly the
//! interleaved ones a row per item could never get wrong.

use alicoco::snapshot::{self, binary};
use alicoco::{AliCoCo, ConceptId, ItemId, ItemRef, PrimitiveId};
use proptest::prelude::*;

/// Enough primitives and concepts that an item's lists run past 32.
const PRIMITIVES: usize = 48;
const CONCEPTS: usize = 48;

/// One mutator call; operands are reduced modulo the current layer sizes.
#[derive(Clone, Copy, Debug)]
enum Op {
    AddItem(u8),
    LinkPrimitive(u8, u8),
    LinkConcept(u8, u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 0u8..64, 0u8..64, 0u8..=100).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::AddItem(a),
        1 | 2 => Op::LinkPrimitive(a, b),
        _ => Op::LinkConcept(a, b, w),
    })
}

/// The layer as one growable list per item and edge kind.
#[derive(Default)]
struct Model {
    titles: Vec<Vec<String>>,
    primitives: Vec<Vec<PrimitiveId>>,
    /// Concepts per item, in the order their edges were made.
    concepts: Vec<Vec<ConceptId>>,
    /// Every concept–item edge, in the order it was made, with its
    /// latest weight.
    edges: Vec<(ConceptId, ItemId, f32)>,
}

impl Model {
    fn add_item(&mut self, title: Vec<String>) -> ItemId {
        self.titles.push(title);
        self.primitives.push(Vec::new());
        self.concepts.push(Vec::new());
        ItemId::from_index(self.titles.len() - 1)
    }

    fn link_primitive(&mut self, i: ItemId, p: PrimitiveId) {
        let list = &mut self.primitives[i.index()];
        if !list.contains(&p) {
            list.push(p);
        }
    }

    fn link_concept(&mut self, c: ConceptId, i: ItemId, w: f32) {
        match self
            .edges
            .iter_mut()
            .find(|(ec, ei, _)| (*ec, *ei) == (c, i))
        {
            Some(edge) => edge.2 = w,
            None => {
                self.edges.push((c, i, w));
                self.concepts[i.index()].push(c);
            }
        }
    }
}

/// A net with the fixed taxonomy, primitives and concepts the ops refer
/// to, and no items.
fn base() -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let class = kg.add_class("Event", Some(root));
    for p in 0..PRIMITIVES {
        kg.add_primitive(&format!("prim{p}"), class);
    }
    for c in 0..CONCEPTS {
        kg.add_concept(&format!("concept {c}"));
    }
    kg
}

/// One- to three-token titles, some repeated across items.
fn title(k: u8) -> Vec<String> {
    (0..=k % 3).map(|t| format!("tok{}", k / 3 + t)).collect()
}

/// Apply `ops` to a fresh net and to the model alike.
fn run(ops: &[Op]) -> (AliCoCo, Model) {
    let mut kg = base();
    let mut model = Model::default();
    for &op in ops {
        if let Op::AddItem(k) = op {
            let id = kg.add_item(&title(k));
            assert_eq!(id, model.add_item(title(k)), "add_item {k}");
            continue;
        }
        let n = model.titles.len();
        if n == 0 {
            continue;
        }
        let item = |x: u8| ItemId::from_index(x as usize % n);
        match op {
            Op::AddItem(_) => {}
            Op::LinkPrimitive(i, p) => {
                let p = PrimitiveId::from_index(p as usize % PRIMITIVES);
                kg.link_item_primitive(item(i), p);
                model.link_primitive(item(i), p);
            }
            Op::LinkConcept(c, i, w) => {
                let c = ConceptId::from_index(c as usize % CONCEPTS);
                let w = f32::from(w) / 100.0;
                kg.link_concept_item(c, item(i), w);
                model.link_concept(c, item(i), w);
            }
        }
    }
    (kg, model)
}

/// The model's final content, added kind by kind instead of interleaved:
/// every item, then every property link, then the concept edges in
/// `edges` order.
fn rebuild_grouped(model: &Model, edges: &[(ConceptId, ItemId, f32)]) -> AliCoCo {
    let mut kg = base();
    for t in &model.titles {
        kg.add_item(t);
    }
    for (i, prims) in model.primitives.iter().enumerate() {
        for &p in prims {
            kg.link_item_primitive(ItemId::from_index(i), p);
        }
    }
    for &(c, i, w) in edges {
        kg.link_concept_item(c, i, w);
    }
    kg
}

/// The model's concept–item edges in concept order (each concept's in the
/// order it made them): the order a snapshot stores them in, and so the
/// order a decoded net's reverse links come back in.
fn concept_order(model: &Model) -> Vec<(ConceptId, ItemId, f32)> {
    let mut edges = model.edges.clone();
    edges.sort_by_key(|&(c, _, _)| c);
    edges
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
    fn item_columns_agree_with_a_list_model(
        ops in prop::collection::vec(op_strategy(), 0..240)
    ) {
        let (kg, model) = run(&ops);
        prop_assert_eq!(kg.num_items(), model.titles.len());
        for i in kg.item_ids() {
            let at = i.index();
            let want = ItemRef {
                title: &model.titles[at],
                primitives: &model.primitives[at],
                concepts: &model.concepts[at],
            };
            prop_assert_eq!(kg.item(i), want);
            prop_assert_eq!(kg.concepts_for_item(i), &model.concepts[at][..]);
        }
        let primitive_edges: usize = model.primitives.iter().map(Vec::len).sum();
        prop_assert_eq!(kg.num_item_primitive_links(), primitive_edges);
        prop_assert_eq!(kg.num_concept_item_links(), model.edges.len());
        for &(c, i, w) in &model.edges {
            prop_assert!(kg.concept(c).items.contains(&(i, w)));
        }
    }

    #[test]
    fn equal_content_in_any_build_order_is_equal_and_saves_the_same_bytes(
        ops in prop::collection::vec(op_strategy(), 0..240)
    ) {
        let (kg, model) = run(&ops);
        let grouped = rebuild_grouped(&model, &model.edges);
        prop_assert_eq!(&grouped, &kg);
        prop_assert_eq!(binary_bytes(&grouped), binary_bytes(&kg));
        prop_assert_eq!(tsv_bytes(&grouped), tsv_bytes(&kg));
    }

    #[test]
    fn save_then_to_graph_returns_an_equal_net(
        ops in prop::collection::vec(op_strategy(), 0..240)
    ) {
        let (kg, model) = run(&ops);
        let bytes = binary_bytes(&kg);
        let loaded = binary::SnapshotView::open(&bytes).unwrap().to_graph().unwrap();
        // Snapshots do not store the order of an item's reverse links, so
        // the decoded net equals the one whose edges were made in concept
        // order — and that one equals `kg` everywhere else.
        let canonical = rebuild_grouped(&model, &concept_order(&model));
        prop_assert_eq!(&loaded, &canonical);
        for i in kg.item_ids() {
            prop_assert_eq!(loaded.item(i).title, kg.item(i).title);
            prop_assert_eq!(loaded.item(i).primitives, kg.item(i).primitives);
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
            let fresh = net.add_item(&["grown".to_string()]);
            net.link_item_primitive(fresh, PrimitiveId::from_index(0));
            net.link_concept_item(ConceptId::from_index(0), fresh, 0.5);
            if let Some(first) = net.item_ids().next().filter(|&f| f != fresh) {
                net.link_item_primitive(first, PrimitiveId::from_index(PRIMITIVES - 1));
                net.link_concept_item(ConceptId::from_index(CONCEPTS - 1), first, 0.25);
            }
        }
        prop_assert_eq!(&grown, &again);
    }
}
