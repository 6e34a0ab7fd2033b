//! Pins the item layer's layout: loading a snapshot allocates an item's
//! title — one `Vec` and a `String` per token — and nothing else per item.
//! Two snapshots that differ only in item count must cost `to_graph` at
//! most three allocations per extra two-token item; a row per item, with
//! its own property and reverse-link lists, costs five.
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

const CONCEPTS: usize = 2_000;
const PRIMITIVES: usize = 40;

/// The same taxonomy, primitives and concepts whatever `n_items` is; each
/// item has a two-token title, two property primitives and a suggesting
/// concept.
fn world(n_items: usize) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let class = kg.add_class("Event", Some(root));
    for p in 0..PRIMITIVES {
        kg.add_primitive(&format!("prim{p}"), class);
    }
    for c in 0..CONCEPTS {
        kg.add_concept(&format!("concept number {c}"));
    }
    for i in 0..n_items {
        let item = kg.add_item(&[format!("brand{}", i % 7), format!("item{i}")]);
        kg.link_item_primitive(item, PrimitiveId::from_index(i % PRIMITIVES));
        kg.link_item_primitive(item, PrimitiveId::from_index((i + 1) % PRIMITIVES));
        kg.link_concept_item(ConceptId::from_index(i % CONCEPTS), item, 0.5);
    }
    kg
}

/// Heap allocations `to_graph` makes for a saved `world(n_items)`.
fn to_graph_allocations(n_items: usize) -> usize {
    let kg = world(n_items);
    let mut bytes = Vec::new();
    binary::save(&kg, &mut bytes).unwrap();
    let view = SnapshotView::open(&bytes).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let loaded = view.to_graph().unwrap();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(loaded, kg);
    assert_eq!(loaded.concepts_for_item(ItemId::from_index(0)).len(), 1);
    count
}

#[test]
fn to_graph_allocates_only_titles_per_item() {
    let (few, many) = (10_000, 30_000);
    let small = to_graph_allocations(few);
    let large = to_graph_allocations(many);
    let extra = many - few;
    // Three per item; the shared buffers' growth adds a handful more.
    assert!(
        large - small <= 3 * extra + extra / 100,
        "to_graph made {small} allocations for {few} items and {large} for {many}"
    );
}
