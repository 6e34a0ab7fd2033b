//! Pins the recommender's memo: once every viewed item's vector votes are
//! memoised, a hybrid `recommend` allocates what the lexical path does —
//! the vote map, the viewed set, the page and its cards — plus at most a
//! few for cards whose reasons differ, and nothing per HNSW walk.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use alicoco::{AliCoCo, ConceptId, ItemId, PrimitiveId};
use alicoco_apps::recommend::{CognitiveRecommender, RecommendConfig};
use alicoco_apps::retrieve::Retriever;
use alicoco_obs::Registry;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic increment with no other effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CONCEPTS: usize = 300;
const PRIMITIVES: usize = 20;
const ITEMS: usize = 100;

/// Concepts named after their primitives and items titled after theirs,
/// each item linked to two concepts, so a history fills a page of three
/// from graph evidence alone.
fn world() -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let class = kg.add_class("Event", Some(root));
    for p in 0..PRIMITIVES {
        kg.add_primitive(&format!("prim{p}"), class);
    }
    for c in 0..CONCEPTS {
        let concept = kg.add_concept(&format!("concept {c} prim{}", c % PRIMITIVES));
        kg.link_concept_primitive(concept, PrimitiveId::from_index(c % PRIMITIVES));
        kg.link_concept_primitive(concept, PrimitiveId::from_index((c + 7) % PRIMITIVES));
    }
    for i in 0..ITEMS {
        let item = kg.add_item(&[format!("brand{}", i % 7), format!("prim{}", i % PRIMITIVES)]);
        kg.link_item_primitive(item, PrimitiveId::from_index(i % PRIMITIVES));
        kg.link_concept_item(ConceptId::from_index(i % CONCEPTS), item, 0.5);
        kg.link_concept_item(ConceptId::from_index(i * 3 % CONCEPTS), item, 0.4);
    }
    kg
}

/// Heap allocations one `recommend(history)` call makes.
fn allocations(engine: &CognitiveRecommender, history: &[ItemId]) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let cards = engine.recommend(history);
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(cards.len(), RecommendConfig::default().k, "{history:?}");
    count
}

#[test]
fn a_warm_hybrid_recommend_allocates_what_the_lexical_one_does() {
    let kg = world();
    let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
    let kg = Arc::new(kg);
    let cfg = RecommendConfig::default();
    let lexical =
        CognitiveRecommender::new(Retriever::new(Arc::clone(&kg), None), cfg, &Registry::new());
    let hybrid = CognitiveRecommender::new(
        Retriever::new(Arc::clone(&kg), Some(bundle)),
        cfg,
        &Registry::new(),
    );
    let history = [0, 1, 2, 3, 4, 5, 6, 7].map(ItemId::from_index);
    // The first walk on this thread sizes its HNSW scratch; a walk on
    // another history leaves `history`'s cells empty.
    allocations(&hybrid, &[ItemId::from_index(50)]);
    let plain = allocations(&lexical, &history);
    let cold = allocations(&hybrid, &history);
    let warm = allocations(&hybrid, &history);
    // Each walk returns its neighbours in a `Vec`.
    assert!(
        cold >= warm + history.len(),
        "cold {cold} vs warm {warm} allocations"
    );
    // A card's reason may differ between the paths (a shared-need card
    // lists its primitives, a similar-intent one does not): two a card,
    // fewer than the walks of this history would make.
    assert!(
        warm <= plain + 2 * cfg.k,
        "warm hybrid {warm} vs lexical {plain} allocations"
    );
}
