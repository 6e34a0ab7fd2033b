//! Fixed log-linear latency histogram for the client side of the load
//! loop: 128 linear sub-buckets per power of two, so a recorded value is
//! known to within 1/128 (< 1 %) of itself, recording is one index
//! computation and one add, and nothing allocates after construction.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (~18 min) land in the last bucket.
const MAX_BITS: u32 = 40;
const LEN: usize = (MAX_BITS - SUB_BITS + 1) as usize * SUB;

/// Histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    let idx = ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize - SUB);
    idx.min(LEN - 1)
}

/// Lowest value of bucket `idx` and the bucket's width.
fn bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) - 1;
    (((SUB + (idx & (SUB - 1))) as u64) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; LEN],
            total: 0,
            sum: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
        self.sum += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The `q`-quantile in nanoseconds, interpolated by rank inside the
    /// bucket that holds it (so two runs do not collapse onto the same
    /// bucket edge). 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).max(1.0);
        let mut before = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n > 0 && (before + n) as f64 >= rank {
                let (lower, width) = bounds(idx);
                let into = (rank - before as f64) / n as f64;
                return lower as f64 + width as f64 * into;
            }
            before += n;
        }
        bounds(LEN - 1).0 as f64
    }

    /// Exact mean in microseconds; 0 for an empty histogram.
    pub fn mean_us(&self) -> f64 {
        self.sum as f64 / self.total.max(1) as f64 / 1e3
    }

    /// Quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect = 0u64;
        for idx in 0..LEN {
            let (lower, width) = bounds(idx);
            assert_eq!(lower, expect, "bucket {idx}");
            assert_eq!(index(lower), idx);
            assert_eq!(index(lower + width - 1), idx);
            expect = lower + width;
        }
        assert_eq!(expect, 1 << MAX_BITS);
        assert_eq!(index(u64::MAX), LEN - 1);
    }

    #[test]
    fn percentiles_are_within_one_percent_of_exact() {
        // A skewed sample spanning 1 µs .. 50 ms, like a latency tail.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut values: Vec<u64> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                (1_000.0 * (50_000.0f64).powf(u * u)) as u64
            })
            .collect();
        let mut h = Hist::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64) as usize).min(values.len() - 1)] as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: exact {exact}, histogram {got}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for v in 0..10_000u64 {
            let target = if v % 3 == 0 { &mut a } else { &mut b };
            target.record(v * 37);
            both.record(v * 37);
        }
        a.merge(&b);
        assert_eq!((a.total, a.mean_us()), (both.total, both.mean_us()));
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        assert_eq!(Hist::new().quantile(0.5), 0.0);
        assert_eq!(Hist::new().mean_us(), 0.0);
    }
}
