//! Pins the decoded adjacency's layout: `Hnsw::decode` fills two
//! fixed-stride tables and a handful of per-node columns, so it makes the
//! same number of heap allocations whatever the index size. A list per
//! `(node, level)` would cost two or more per node.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use alicoco_ann::hnsw::{Hnsw, HnswConfig};

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

/// An index of `n` seeded pseudo-random 8-d vectors, encoded.
fn encoded(n: usize) -> (Hnsw, Vec<u8>) {
    let cfg = HnswConfig {
        m: 4,
        ef_construction: 16,
        seed: 7,
    };
    let mut h = Hnsw::new(8, cfg);
    let mut state = n as u64;
    for _ in 0..n {
        let v: Vec<f32> = (0..8)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect();
        h.insert(&v);
    }
    let mut bytes = Vec::new();
    h.encode(&mut bytes);
    (h, bytes)
}

/// Heap allocations `Hnsw::decode` makes for an index of `n` vectors.
fn decode_allocations(n: usize) -> usize {
    let (h, bytes) = encoded(n);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let decoded = Hnsw::decode(&bytes).unwrap();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(decoded, h);
    count
}

#[test]
fn decode_allocates_the_same_at_every_size() {
    let small = decode_allocations(200);
    let large = decode_allocations(2_000);
    assert_eq!(small, large, "decode allocates per node");
    assert!(small <= 8, "{small} allocations");
}
