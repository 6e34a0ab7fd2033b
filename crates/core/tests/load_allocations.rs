//! Pins the concept layer's layout: loading a snapshot allocates per item
//! and per primitive, never per concept. Two snapshots that differ only in
//! concept count must cost `to_graph` nearly the same number of heap
//! allocations — a per-concept `String` or `Vec` would add tens of
//! thousands.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use alicoco::snapshot::binary::{self, SnapshotView};
use alicoco::{AliCoCo, ConceptId, ItemId, PrimitiveId};

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

const ITEMS: usize = 500;
const PRIMITIVES: usize = 40;

/// The same taxonomy, primitives and items whatever `n_concepts` is; each
/// concept has a distinct name, two primitives, a hypernym and an item.
fn world(n_concepts: usize) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let class = kg.add_class("Event", Some(root));
    for p in 0..PRIMITIVES {
        kg.add_primitive(&format!("prim{p}"), class);
    }
    for i in 0..ITEMS {
        let item = kg.add_item(&[format!("brand{}", i % 7), format!("item{i}")]);
        kg.link_item_primitive(item, PrimitiveId::from_index(i % PRIMITIVES));
    }
    for i in 0..n_concepts {
        let c = kg.add_concept(&format!("concept number {i}"));
        kg.link_concept_primitive(c, PrimitiveId::from_index(i % PRIMITIVES));
        kg.link_concept_primitive(c, PrimitiveId::from_index((i + 1) % PRIMITIVES));
        if i > 0 {
            kg.add_concept_is_a(c, ConceptId::from_index(i / 2));
        }
        kg.link_concept_item(c, ItemId::from_index(i % ITEMS), 0.5);
    }
    kg
}

/// Heap allocations `to_graph` makes for a saved `world(n_concepts)`.
fn to_graph_allocations(n_concepts: usize) -> usize {
    let kg = world(n_concepts);
    let mut bytes = Vec::new();
    binary::save(&kg, &mut bytes).unwrap();
    let view = SnapshotView::open(&bytes).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let loaded = view.to_graph().unwrap();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(loaded, kg);
    count
}

#[test]
fn to_graph_allocations_do_not_grow_with_the_concept_count() {
    let small = to_graph_allocations(10_000);
    let large = to_graph_allocations(40_000);
    assert!(
        large.abs_diff(small) < 100,
        "to_graph made {small} allocations for 10k concepts and {large} for 40k"
    );
}
