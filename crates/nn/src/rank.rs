//! Shared ranking primitives for the serving layer: one total-order
//! comparator (`score` descending, id ascending) used by every ranked
//! surface in the workspace, and a bounded top-k heap so retrieval cost
//! is `O(n log k)` instead of sorting the whole candidate set.
//!
//! Float scores are ordered with [`f64::total_cmp`]/[`f32::total_cmp`],
//! so the comparator is a genuine total order even in the presence of
//! NaN (positive NaN sorts above `+inf`, negative NaN below `-inf`,
//! deterministically) — unlike `partial_cmp(..).unwrap_or(Equal)`,
//! which silently makes NaN equal to everything and can scramble
//! neighbouring ranks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A ranking score: a float type with a total order.
pub trait Score: Copy {
    /// Total-order comparison (ascending, `total_cmp` semantics).
    fn total_cmp_asc(&self, other: &Self) -> Ordering;
}

impl Score for f32 {
    fn total_cmp_asc(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Score for f64 {
    fn total_cmp_asc(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

/// Descending total order on scores: `Less` means `a` ranks better.
pub fn score_desc<S: Score>(a: &S, b: &S) -> Ordering {
    b.total_cmp_asc(a)
}

/// Ascending total order on scores (for rank statistics that sort
/// worst-first, e.g. ROC-AUC).
pub fn score_asc<S: Score>(a: &S, b: &S) -> Ordering {
    a.total_cmp_asc(b)
}

/// The workspace-wide ranking order for `(id, score)` pairs: score
/// descending, id ascending as the deterministic tie-break. `Less`
/// means `a` ranks better (so `sort_by(by_score_then_id)` is
/// best-first).
pub fn by_score_then_id<I: Ord, S: Score>(a: &(I, S), b: &(I, S)) -> Ordering {
    score_desc(&a.1, &b.1).then_with(|| a.0.cmp(&b.0))
}

/// The ranking order of an `(id, f32 score)` pair as one integer: the
/// unsigned order of `rank_key` *is* [`by_score_then_id`], so
/// `rank_key(a.0, a.1).cmp(&rank_key(b.0, b.1)) == by_score_then_id(&a, &b)`
/// for every id and every bit pattern of the score, NaN included. A hot
/// loop that compares the same pairs many times (a heap's sift steps)
/// encodes each once and compares integers.
///
/// The high half is the score's `total_cmp` key, inverted so a higher
/// score is a smaller key: a non-negative float's bits ascend with its
/// value, so they are flipped below the sign bit; a negative float's
/// bits ascend as it falls, so they stay. The low half is the id, which
/// breaks ties ascending.
pub fn rank_key(id: u32, score: f32) -> u64 {
    (u64::from(flip_score_bits(score.to_bits())) << 32) | u64::from(id)
}

/// The `(id, score)` pair [`rank_key`] encoded, score bit for bit.
pub fn from_rank_key(key: u64) -> (u32, f32) {
    // The flip keeps the sign bit, so it is its own inverse.
    (
        key as u32,
        f32::from_bits(flip_score_bits((key >> 32) as u32)),
    )
}

/// Flip the bits below the sign of a non-negative float; keep a negative.
fn flip_score_bits(bits: u32) -> u32 {
    bits ^ (!(((bits as i32) >> 31) as u32) >> 1)
}

/// Heap entry ordered so the binary max-heap's root is the *worst*
/// currently-kept candidate (the one a better candidate evicts).
struct Entry<I, S>((I, S));

impl<I: Ord, S: Score> PartialEq for Entry<I, S> {
    fn eq(&self, other: &Self) -> bool {
        by_score_then_id(&self.0, &other.0) == Ordering::Equal
    }
}
impl<I: Ord, S: Score> Eq for Entry<I, S> {}
impl<I: Ord, S: Score> PartialOrd for Entry<I, S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<I: Ord, S: Score> Ord for Entry<I, S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Ranking order directly: the heap max is the worst-ranked entry.
        by_score_then_id(&self.0, &other.0)
    }
}

/// Bounded best-k collector over `(id, score)` pairs under
/// [`by_score_then_id`]. Push is `O(log k)`; candidates worse than the
/// current k-th are rejected without allocation.
pub struct TopK<I, S> {
    k: usize,
    heap: BinaryHeap<Entry<I, S>>,
}

impl<I: Ord, S: Score> TopK<I, S> {
    /// Collector keeping the best `k` entries.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(1024) + 1),
        }
    }

    /// Offer a candidate.
    pub fn push(&mut self, id: I, score: S) {
        if self.k == 0 {
            return;
        }
        let entry = Entry((id, score));
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if entry.cmp(&worst) == Ordering::Less {
                *worst = entry;
            }
        }
    }

    /// The k-th best score once `k` entries are kept: a candidate scoring
    /// strictly below it can no longer enter (an equal one still can, on a
    /// lower id). `None` while there is room.
    pub fn threshold(&self) -> Option<S> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|worst| worst.0 .1)
    }

    /// Number of entries currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept entries, best first.
    pub fn into_sorted_vec(self) -> Vec<(I, S)> {
        // Ascending under `Ord` = best-ranked first, by construction.
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| e.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_ranks_score_desc_then_id_asc() {
        let mut v = vec![(3u32, 0.5f64), (1, 0.9), (2, 0.9), (4, 0.1)];
        v.sort_by(by_score_then_id);
        assert_eq!(v, vec![(1, 0.9), (2, 0.9), (3, 0.5), (4, 0.1)]);
    }

    #[test]
    fn nan_scores_order_deterministically() {
        // total_cmp: positive NaN sits above +inf, so it ranks first in
        // descending order — the point is the order is total and stable.
        let mut v = vec![(1u32, f64::NAN), (2, 0.0), (3, -1.0)];
        v.sort_by(by_score_then_id);
        assert!(v[0].1.is_nan());
        assert_eq!(v[1].0, 2);
        assert_eq!(v[2].0, 3);
        // And sorting is idempotent (a genuine total order).
        let w = v.clone();
        v.sort_by(by_score_then_id);
        assert_eq!(v[1..], w[1..]);
    }

    #[test]
    fn topk_matches_full_sort_truncate() {
        let items: Vec<(u32, f64)> = (0..100)
            .map(|i| (i, ((i * 37) % 13) as f64 / 13.0))
            .collect();
        for k in [0, 1, 3, 7, 100, 200] {
            let mut heap = TopK::new(k);
            for &(id, s) in &items {
                heap.push(id, s);
            }
            let mut sorted = items.clone();
            sorted.sort_by(by_score_then_id);
            sorted.truncate(k);
            assert_eq!(heap.into_sorted_vec(), sorted, "k={k}");
        }
    }

    #[test]
    fn rank_keys_order_heaps_like_the_comparator() {
        let mut heap = std::collections::BinaryHeap::new();
        for (id, s) in [(3u32, 0.5f32), (1, 0.9), (2, 0.9), (4, 0.1)] {
            heap.push(rank_key(id, s));
        }
        // Max-heap root = worst-ranked entry.
        assert_eq!(heap.peek().map(|&k| from_rank_key(k)), Some((4, 0.1)));
        // Ascending sort = best-first, ties by ascending id.
        let sorted: Vec<u32> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|k| k as u32)
            .collect();
        assert_eq!(sorted, vec![1, 2, 3, 4]);
        // Reverse pops best-first out of a max-heap.
        let mut rev = std::collections::BinaryHeap::new();
        rev.push(std::cmp::Reverse(rank_key(7, 0.2)));
        rev.push(std::cmp::Reverse(rank_key(5, 0.8)));
        assert_eq!(rev.pop().map(|r| from_rank_key(r.0).0), Some(5));
    }

    #[test]
    fn threshold_is_the_kth_score_once_full() {
        let mut heap = TopK::new(2);
        assert_eq!(heap.threshold(), None);
        heap.push(1u32, 0.5f64);
        assert_eq!(heap.threshold(), None);
        heap.push(2, 0.9);
        assert_eq!(heap.threshold(), Some(0.5));
        heap.push(3, 0.7);
        assert_eq!(heap.threshold(), Some(0.7));
        heap.push(0, 0.7);
        assert_eq!(heap.threshold(), Some(0.7), "a tie on a lower id enters");
        assert_eq!(heap.into_sorted_vec(), vec![(2, 0.9), (0, 0.7)]);
        assert_eq!(TopK::<u32, f64>::new(0).threshold(), None);
    }

    #[test]
    fn topk_works_with_f32_scores() {
        let mut heap = TopK::new(2);
        heap.push(10u64, 0.5f32);
        heap.push(20, 0.5);
        heap.push(5, 0.4);
        assert_eq!(heap.into_sorted_vec(), vec![(10, 0.5), (20, 0.5)]);
    }

    /// Bit patterns every float order must place: ±0, the extreme
    /// subnormals and normals, ±1, ±inf, and NaNs of both signs, quiet
    /// and signalling.
    const EDGE_BITS: [u32; 16] = [
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x8000_0001,
        0x007f_ffff,
        0x807f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
        0xff7f_ffff,
        0x3f80_0000,
        0xbf80_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
    ];

    /// Any `f32` bit pattern, an edge one half the time.
    fn any_f32_bits() -> impl proptest::prelude::Strategy<Value = u32> {
        use proptest::prelude::Strategy;
        (0..2 * EDGE_BITS.len(), proptest::prelude::any::<u32>())
            .prop_map(|(pick, raw)| EDGE_BITS.get(pick).copied().unwrap_or(raw))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The key sorts exactly like the comparator and decodes to the
        /// same id and the same score bits.
        #[test]
        fn rank_key_orders_like_by_score_then_id_and_round_trips(
            a_id in 0u32..4,
            a_bits in any_f32_bits(),
            b_id in proptest::prelude::any::<u32>(),
            b_bits in any_f32_bits(),
            same_id in proptest::prelude::any::<bool>(),
        ) {
            let b_id = if same_id { a_id } else { b_id };
            let a = (a_id, f32::from_bits(a_bits));
            let b = (b_id, f32::from_bits(b_bits));
            let (ka, kb) = (rank_key(a.0, a.1), rank_key(b.0, b.1));
            proptest::prop_assert_eq!(ka.cmp(&kb), by_score_then_id(&a, &b));
            let (id, score) = from_rank_key(ka);
            proptest::prop_assert_eq!((id, score.to_bits()), (a_id, a_bits));
        }
    }
}
