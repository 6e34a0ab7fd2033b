//! Pins the pruned merge's bookkeeping: its windows reuse the list buffers
//! the merge starts with, so a two-word query allocates the same small
//! number of times whether its posting lists run to 20 blocks or to 80. A
//! buffer per window would add one allocation per window.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use alicoco::query::{Ceiling, Floor, QueryIndex};
use alicoco::AliCoCo;

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

/// `n` concepts over two words: every second one holds "red", every third
/// one "sofa", every fifth one is stocked and every seventh one is
/// interpreted by the "red" primitive.
fn world(n: usize) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let class = kg.add_class("Color", Some(root));
    let red = kg.add_primitive("red", class);
    let item = kg.add_item(&["thing".into()]);
    for i in 0..n {
        let mut name = format!("c{i}");
        if i % 2 == 0 {
            name.push_str(" red");
        }
        if i % 3 == 0 {
            name.push_str(" sofa");
        }
        let c = kg.add_concept(&name);
        if i % 5 == 0 {
            kg.link_concept_item(c, item, 0.5);
        }
        if i % 7 == 0 {
            kg.link_concept_primitive(c, red);
        }
    }
    kg
}

/// Allocations made by a pruned merge of "red sofa" over `world(n)`, read
/// to the end while a page of ten raises the floor; and the windows it
/// evaluated.
fn merge_allocations(n: usize) -> (usize, usize) {
    let q = QueryIndex::build(&world(n));
    let ceiling = |c: Ceiling| {
        let s = f64::from(c.surface_hits) / c.surface_len.max(1) as f64
            + 0.3 * f64::from(c.primitive_hits)
            + if c.stocked { 0.1 } else { 0.0 };
        (s > 0.0).then_some(s)
    };
    let floor = Floor::default();
    let mut page = [f64::NEG_INFINITY; 10];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for m in q.concept_matches(["red", "sofa"]).pruned(&floor, &ceiling) {
        let c = m.concept;
        let exact = Ceiling {
            surface_hits: m.surface_hits,
            primitive_hits: m.primitive_hits,
            surface_len: q.surface_len(c),
            stocked: q.is_stocked(c),
        };
        let score = ceiling(exact).unwrap_or(0.0);
        if let Some(low) = page.iter_mut().min_by(|a, b| a.total_cmp(b)) {
            *low = low.max(score);
        }
        floor.raise(page.iter().copied().fold(f64::INFINITY, f64::min));
    }
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        floor.windows(),
    )
}

#[test]
fn pruned_merge_allocates_per_list_not_per_window() {
    let (small, small_windows) = merge_allocations(2_000);
    let (large, large_windows) = merge_allocations(8_000);
    assert!(
        large_windows > small_windows,
        "{small_windows} then {large_windows} windows"
    );
    assert_eq!(small, large, "the merge allocates per window");
    assert!(small <= 4, "{small} allocations");
}
