//! Pins what a search page costs the heap beyond its ranking: the card
//! `Vec`, and at most one items `Vec` per stocked card. Names and
//! interpretations borrow from the net, and a card's items are lent when
//! the concept's list is stored best first and otherwise selected from it
//! without copying it; the world here stores its lists out of order, so
//! every stocked card selects.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use alicoco::{AliCoCo, ConceptId, ItemId, PrimitiveId};
use alicoco_apps::retrieve::Retriever;
use alicoco_apps::search::{SearchConfig, SemanticSearch, FUSION};
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

const CONCEPTS: usize = 60;
const ITEMS: usize = 200;

/// Concepts named `"outdoor w{c % 7} c{c}"`, each interpreted by three
/// primitives; every third is unstocked, the rest carry 30 items with
/// tied weights, not stored best first — three times a card's ten.
fn world() -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let event = kg.add_class("Event", Some(root));
    let place = kg.add_class("Location", Some(root));
    for p in 0..6 {
        kg.add_primitive(&format!("w{p}"), if p % 2 == 0 { event } else { place });
    }
    for i in 0..ITEMS {
        kg.add_item(&[format!("brand{}", i % 9), format!("w{}", i % 7)]);
    }
    for c in 0..CONCEPTS {
        let concept = kg.add_concept(&format!("outdoor w{} c{c}", c % 7));
        for p in [c % 6, (c + 1) % 6, (c + 3) % 6] {
            kg.link_concept_primitive(concept, PrimitiveId::from_index(p));
        }
        if c % 3 != 0 {
            for i in 0..30 {
                let item = ItemId::from_index((c * 7 + i * 13) % ITEMS);
                kg.link_concept_item(concept, item, [0.5, 0.25, 0.5, 0.75][i % 4]);
            }
        }
    }
    kg
}

/// Allocations `f` makes, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_search_page_allocates_its_ranking_plus_one_plus_one_per_stocked_card() {
    let kg = Arc::new(world());
    let engine = SemanticSearch::new(
        Retriever::new(kg, None),
        SearchConfig::default(),
        &Registry::new(),
    );
    let retriever = engine.retriever();
    // Stocked concepts rank first, so only the page of 50 shows both.
    let mut unstocked = 0;
    for (query, k) in [
        ("outdoor", 10),
        ("outdoor", 50),
        ("w2 w4", 7),
        ("outdoor w3", 1),
    ] {
        let (ranking, ranked) = counted(|| {
            let words = query.split_whitespace();
            let (fused, _) = retriever.rank_concepts(words, None, &engine.weights(), FUSION, k);
            fused.top.into_sorted_vec()
        });
        let (page, cards) = counted(|| engine.search_top(query, k));
        assert_eq!(cards.len(), k, "{query:?}");
        let ids: Vec<ConceptId> = cards.iter().map(|card| card.concept).collect();
        let want: Vec<ConceptId> = ranked
            .iter()
            .map(|&(slot, _)| ConceptId::from_index(slot as usize))
            .collect();
        assert_eq!(ids, want, "{query:?}");
        let stocked = cards.iter().filter(|card| !card.items.is_empty()).count();
        unstocked += k - stocked;
        assert!(cards.iter().all(|card| card.items.len() <= 10));
        assert!(
            page <= ranking + 1 + stocked,
            "{query:?} k {k}: page {page}, ranking {ranking}, {stocked} stocked cards"
        );
    }
    assert!(unstocked > 0);
}
