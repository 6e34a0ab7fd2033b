//! RAII wall-clock guards: whole-operation spans and multi-stage laps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::histogram::Histogram;

/// A raw elapsed-time reader for call sites that aggregate timings
/// themselves (summing per-batch phases, stamping a struct field) rather
/// than recording into a histogram. This is the workspace's only
/// sanctioned way to touch the wall clock outside `crates/obs` — the
/// AL009 lint flags direct `Instant::now()` reads elsewhere, so timing
/// stays out of deterministic paths and has one owner.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Start (or restart) the watch now.
    pub fn start() -> Self {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Time since start (or the last [`lap_ns`](Stopwatch::lap_ns)).
    pub fn elapsed(&self) -> Duration {
        self.last.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        self.last.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// How much of `budget` is left, saturating at zero. Deadline loops
    /// (graceful-shutdown drains, bounded waits) use this instead of
    /// subtracting `Duration`s themselves — `budget - elapsed` panics on
    /// underflow, and panic-free crates cannot afford that edge.
    pub fn remaining(&self, budget: Duration) -> Duration {
        budget.saturating_sub(self.elapsed())
    }

    /// Nanoseconds since the previous lap (or start), restarting the lap —
    /// one clock read covers both the end of one phase and the start of
    /// the next.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now
            .duration_since(self.last)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.last = now;
        ns
    }
}

/// Times a span of work and records elapsed nanoseconds into a histogram
/// when dropped (or explicitly [`stop`](SpanTimer::stop)ped). Early
/// returns and `?` propagation still record — the guard owns the clock.
#[derive(Debug)]
pub struct SpanTimer {
    hist: Option<Arc<Histogram>>,
    start: Instant,
}

impl SpanTimer {
    /// Start timing into `hist`.
    pub fn new(hist: Arc<Histogram>) -> Self {
        SpanTimer {
            hist: Some(hist),
            start: Instant::now(),
        }
    }

    /// Stop now, record, and return the elapsed nanoseconds.
    pub fn stop(mut self) -> u64 {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(h) = self.hist.take() {
            h.record(ns);
        }
        ns
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record_duration(self.start.elapsed());
        }
    }
}

/// A lap clock for splitting one request into stages without re-reading
/// the wall clock between histogram and caller: each [`lap`] records the
/// time since the previous lap (or construction) and restarts.
#[derive(Debug)]
pub struct StageClock {
    last: Instant,
}

impl StageClock {
    /// Start the clock.
    pub fn started() -> Self {
        StageClock {
            last: Instant::now(),
        }
    }

    /// Record the stage ending now into `hist` and restart the lap.
    #[inline]
    pub fn lap(&mut self, hist: &Histogram) {
        let now = Instant::now();
        hist.record_duration(now.duration_since(self.last));
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_laps_are_monotone_and_resetting() {
        let mut sw = Stopwatch::start();
        std::hint::black_box(1 + 1);
        let before_laps = sw.elapsed_ns();
        let a = sw.lap_ns();
        let b = sw.lap_ns();
        // The first lap covers at least the span measured before it, and
        // each lap restarts the watch, so the second starts near zero.
        assert!(a >= before_laps);
        assert!(b <= a + sw.elapsed_ns() + 1_000_000_000);
        assert!(sw.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn remaining_saturates_at_zero() {
        let sw = Stopwatch::start();
        assert!(sw.remaining(Duration::from_secs(3600)) > Duration::ZERO);
        assert_eq!(sw.remaining(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn span_records_once_on_drop() {
        let h = Arc::new(Histogram::new());
        {
            let _span = SpanTimer::new(Arc::clone(&h));
            std::hint::black_box(1 + 1);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stop_records_exactly_once() {
        let h = Arc::new(Histogram::new());
        let span = SpanTimer::new(Arc::clone(&h));
        let ns = span.stop();
        assert_eq!(
            h.count(),
            1,
            "stop consumed the guard; drop must not re-record"
        );
        assert_eq!(h.sum(), ns, "stop must record exactly the returned span");
    }

    #[test]
    fn enabled_stage_clock_records_every_lap() {
        let h = Histogram::new();
        let mut clock = StageClock::started();
        clock.lap(&h);
        clock.lap(&h);
        clock.lap(&h);
        assert_eq!(h.count(), 3);
    }
}
