//! Fixed log2-bucket histogram with bounded quantile estimation.
//!
//! Values (latencies in nanoseconds, sizes in bytes — any `u64`) land in
//! one of 64 power-of-two buckets: bucket 0 holds exactly `0`, bucket
//! `i` (1 ≤ i < 63) holds `[2^(i-1), 2^i - 1]`, and bucket 63 holds
//! everything from `2^62` up. Log2 bucketing gives a constant ~±50%
//! resolution across twelve decades, which is the right trade for latency
//! distributions: p99 of a 40µs path and p99 of a 2s path read off the
//! same 64 words with no reconfiguration.
//!
//! Quantile estimates interpolate inside the covering bucket and are then
//! clamped to the *exact* recorded `[min, max]`, so an estimate can never
//! leave the observed range — the property the proptests pin down — and
//! estimates are monotone in the quantile.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; index = position of the value's highest set bit.
const N_BUCKETS: usize = 64;

/// A lock-free value distribution. All recording is `Relaxed` atomics;
/// snapshots taken while writers are active are internally consistent per
/// field (counts never tear) but may straddle concurrent records — the
/// standard contract for online metrics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Exact smallest recorded value; `u64::MAX` while empty.
    min: AtomicU64,
    /// Exact largest recorded value; `0` while empty.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: `0` for zero, otherwise the index of
    /// the highest set bit (clamped into the last bucket).
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(N_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of a bucket.
    fn bucket_lower(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Inclusive upper bound of a bucket.
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            i if i == N_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration in nanoseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact smallest recorded value, `None` while empty.
    pub fn min(&self) -> Option<u64> {
        let m = self.min.load(Ordering::Relaxed);
        (self.count() > 0).then_some(m)
    }

    /// Exact largest recorded value, `None` while empty.
    pub fn max(&self) -> Option<u64> {
        let m = self.max.load(Ordering::Relaxed);
        (self.count() > 0).then_some(m)
    }

    /// Mean of recorded values; `0.0` while empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`q` clamped into `[0, 1]`); `0` while
    /// empty.
    ///
    /// The estimate interpolates linearly inside the bucket containing the
    /// target rank and is clamped to the recorded `[min, max]`, so it is
    /// always bounded by true extrema and monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based, ceil so q=1.0 is the max.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        // The boundary order statistics are tracked exactly — return them
        // rather than a bucket interpolation (q=0 is the min, q=1 the max).
        if rank == 1 {
            return self.min.load(Ordering::Relaxed);
        }
        if rank == count {
            return self.max.load(Ordering::Relaxed);
        }
        let mut seen = 0u64;
        let mut estimate = self.max.load(Ordering::Relaxed);
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= rank {
                let lo = Self::bucket_lower(i) as f64;
                let hi = Self::bucket_upper(i) as f64;
                let frac = (rank - seen) as f64 / in_bucket as f64;
                estimate = (lo + (hi - lo) * frac) as u64;
                break;
            }
            seen += in_bucket;
        }
        estimate.clamp(
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// A point-in-time copy for export or comparison.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, bucket)| {
                let n = bucket.load(Ordering::Relaxed);
                (n > 0).then_some(BucketCount {
                    lower: Self::bucket_lower(i),
                    upper: Self::bucket_upper(i),
                    count: n,
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets,
        }
    }
}

/// One occupied bucket of a [`HistogramSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket.
    pub lower: u64,
    /// Inclusive upper bound of the bucket.
    pub upper: u64,
    /// Values recorded into the bucket.
    pub count: u64,
}

/// A point-in-time copy of a [`Histogram`]: summary statistics, the three
/// standard latency percentiles, and the occupied buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact recorded minimum, `None` while empty.
    pub min: Option<u64>,
    /// Exact recorded maximum, `None` while empty.
    pub max: Option<u64>,
    /// Mean of recorded values.
    pub mean: f64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Occupied buckets, ascending.
    pub buckets: Vec<BucketCount>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_domain() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), N_BUCKETS - 1);
        // Every bucket's bounds contain exactly the values indexed into it.
        for i in 0..N_BUCKETS {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_lower(i)), i);
            if i < N_BUCKETS - 1 {
                assert_eq!(Histogram::bucket_index(Histogram::bucket_upper(i)), i);
            }
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(1234);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1234, "q={q}");
        }
        assert_eq!(h.min(), Some(1234));
        assert_eq!(h.max(), Some(1234));
        assert_eq!(h.mean(), 1234.0);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = Histogram::new();
        // 100 values 1..=100: p50 must land near 50, p99 near the top.
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((32..=80).contains(&p50), "p50 estimate {p50} out of band");
        let p99 = h.quantile(0.99);
        assert!(p99 >= h.quantile(0.5));
        assert!(p99 <= 100);
        assert_eq!(h.quantile(1.0), 100, "q=1 clamps to the exact max");
        assert_eq!(h.quantile(0.0), 1, "q=0 clamps to the exact min");
    }
}
