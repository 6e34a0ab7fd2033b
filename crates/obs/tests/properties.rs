//! Property and concurrency tests for the observability primitives:
//!
//! - histogram quantile estimates are always bounded by the true recorded
//!   min/max and monotone in the quantile,
//! - counters and histograms lose no increments under `std::thread::scope`
//!   hammering.

use alicoco_obs::{Counter, Histogram, Registry};
use proptest::prelude::*;

fn filled(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantile estimates can never escape the recorded value range, at
    /// any quantile, for any value distribution (including extreme
    /// magnitudes that exercise the open-ended top bucket).
    #[test]
    fn quantiles_bounded_by_true_extrema(
        values in prop::collection::vec(0u64..u64::MAX, 1..200),
        shift in 0u32..40,
    ) {
        // Shift spreads mass across very different bucket ranges.
        let values: Vec<u64> = values.iter().map(|v| v >> shift).collect();
        let h = filled(&values);
        let lo = *values.iter().min().expect("non-empty");
        let hi = *values.iter().max().expect("non-empty");
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let est = h.quantile(q);
            prop_assert!(
                (lo..=hi).contains(&est),
                "q={} estimate {} outside true range [{}, {}]", q, est, lo, hi
            );
        }
        prop_assert_eq!(h.quantile(0.0), lo, "q=0 is the exact min");
        prop_assert_eq!(h.quantile(1.0), hi, "q=1 is the exact max");
    }

    /// Larger quantiles never produce smaller estimates.
    #[test]
    fn quantiles_monotone_in_q(
        values in prop::collection::vec(0u64..u64::MAX, 1..200),
        qs in prop::collection::vec(0.0f64..1.0, 2..12),
    ) {
        let h = filled(&values);
        let mut qs = qs;
        qs.sort_by(f64::total_cmp);
        let mut prev = h.quantile(qs[0]);
        for &q in &qs[1..] {
            let cur = h.quantile(q);
            prop_assert!(
                cur >= prev,
                "quantile({}) = {} < earlier estimate {}", q, cur, prev
            );
            prev = cur;
        }
    }
}

/// Counters shared across scoped threads lose no increments: the final
/// total is exactly `threads * increments`, not "close to".
#[test]
fn counter_hammer_loses_no_increments() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let reg = Registry::new();
    let counter = reg.counter("hammer.hits");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c: std::sync::Arc<Counter> = reg.counter("hammer.hits");
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}

/// Histograms are hammer-safe too: total recorded count and sum are exact
/// under concurrent recording from scoped threads.
#[test]
fn histogram_hammer_loses_no_records() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let reg = Registry::new();
    let hist = reg.histogram("hammer.lat_ns");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = reg.histogram("hammer.lat_ns");
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(hist.count(), THREADS * PER_THREAD);
    // Sum of 0..THREADS*PER_THREAD.
    let n = THREADS * PER_THREAD;
    assert_eq!(hist.sum(), n * (n - 1) / 2);
    assert_eq!(hist.min(), Some(0));
    assert_eq!(hist.max(), Some(n - 1));
}

/// Registration races resolve to one shared metric per name: concurrent
/// get-or-register from many threads never splits a counter.
#[test]
fn concurrent_registration_converges() {
    const THREADS: usize = 8;
    let reg = Registry::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let reg = reg.clone();
            s.spawn(move || {
                for name in ["race.a", "race.b", "race.c"] {
                    reg.counter(name).inc();
                    reg.histogram(name).record(1);
                }
            });
        }
    });
    for name in ["race.a", "race.b", "race.c"] {
        assert_eq!(reg.counter(name).get(), THREADS as u64, "{name}");
        assert_eq!(reg.histogram(name).count(), THREADS as u64, "{name}");
    }
}
