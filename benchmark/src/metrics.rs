//! Reader for the server's `/metrics` export: a scrape before and one
//! after the timed window, and the deltas between them. Only counters and
//! each histogram's `count`/`sum` are kept. A name the server does not
//! export reads as absent, never as an error, so a later rename shows up
//! as a 0 in one row instead of a dead benchmark.

use std::collections::BTreeMap;

use crate::json::Value;

/// Counters and histogram `(count, sum)` pairs of one scrape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

fn as_u64(value: Option<&Value>) -> u64 {
    match value.and_then(Value::as_f64) {
        Some(n) if n >= 0.0 => n as u64,
        _ => 0,
    }
}

impl Scrape {
    /// Parse one `/metrics` body.
    pub fn parse(body: &[u8]) -> Result<Scrape, String> {
        let root = Value::parse(body)?;
        let mut scrape = Scrape::default();
        for (name, value) in root.get("counters").map_or(&[][..], Value::members) {
            scrape.counters.insert(name.clone(), as_u64(Some(value)));
        }
        for (name, h) in root.get("histograms").map_or(&[][..], Value::members) {
            let pair = (as_u64(h.get("count")), as_u64(h.get("sum")));
            scrape.histograms.insert(name.clone(), pair);
        }
        Ok(scrape)
    }

    /// What happened between `before` and `self`. A name absent from
    /// either scrape is absent from the delta.
    pub fn since(&self, before: &Scrape) -> Scrape {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, &now)| {
                let then = before.counters.get(name)?;
                Some((name.clone(), now.saturating_sub(*then)))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(name, &(count, sum))| {
                let &(count0, sum0) = before.histograms.get(name)?;
                Some((
                    name.clone(),
                    (count.saturating_sub(count0), sum.saturating_sub(sum0)),
                ))
            })
            .collect();
        Scrape {
            counters,
            histograms,
        }
    }

    /// A counter's value; 0 when the server does not export the name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean of a nanosecond histogram, in µs; 0 when absent or empty.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.histograms.get(name) {
            Some(&(count, sum)) if count > 0 => sum as f64 / count as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Mean over several nanosecond histograms pooled, in µs.
    pub fn pooled_mean_us(&self, names: &[String]) -> f64 {
        let (count, sum) = names
            .iter()
            .filter_map(|name| self.histograms.get(name))
            .fold((0, 0), |(c, s), &(count, sum)| (c + count, s + sum));
        sum as f64 / count.max(1) as f64 / 1e3
    }

    /// `numerator / denominator` over two counters; 0 when either is
    /// absent or the denominator did not move.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        match self.counter(denominator) {
            0 => 0.0,
            d => self.counter(numerator) as f64 / d as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact shape `alicoco_obs::Registry::export_json` writes.
    fn export(requests: u64, postings: u64, count: u64, sum: u64) -> String {
        format!(
            "{{\n  \"counters\": {{\n    \"search.postings_hit\": {postings},\n    \
             \"search.requests\": {requests}\n  }},\n  \"gauges\": {{\n    \
             \"serve.queue_depth\": 0\n  }},\n  \"histograms\": {{\n    \
             \"search.score_ns\": {{\"count\": {count}, \"sum\": {sum}, \"min\": 3, \"max\": null, \
             \"mean\": 1.5e3, \"p50\": 7, \"p90\": 8, \"p99\": 9, \"buckets\": [[0, 1, 2], [2, 4, 5]]}}\n  \
             }}\n}}\n"
        )
    }

    #[test]
    fn deltas_between_two_scrapes() {
        let before = Scrape::parse(export(100, 9_000, 100, 1_000_000).as_bytes()).unwrap();
        let after = Scrape::parse(export(350, 31_500, 350, 6_000_000).as_bytes()).unwrap();
        let delta = after.since(&before);
        assert_eq!(delta.counter("search.requests"), 250);
        assert_eq!(delta.ratio("search.postings_hit", "search.requests"), 90.0);
        assert_eq!(delta.mean_us("search.score_ns"), 20.0);
        let pooled = ["search.score_ns".to_string(), "absent_ns".to_string()];
        assert_eq!(delta.pooled_mean_us(&pooled), 20.0);
    }

    #[test]
    fn missing_names_read_as_zero_not_as_errors() {
        let scrape = Scrape::parse(export(1, 2, 0, 0).as_bytes()).unwrap();
        assert_eq!(scrape.counter("qa.requests"), 0);
        assert_eq!(scrape.mean_us("qa.answer_ns"), 0.0);
        assert_eq!(scrape.mean_us("search.score_ns"), 0.0, "empty histogram");
        assert_eq!(scrape.ratio("search.requests", "qa.requests"), 0.0);
        // A name that appears only after the first scrape has no delta.
        let empty =
            Scrape::parse(b"{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}").unwrap();
        assert_eq!(scrape.since(&empty).counter("search.requests"), 0);
    }

    #[test]
    fn the_real_registry_export_parses() {
        let registry = alicoco_obs::Registry::new();
        registry.counter("serve.accepted").add(7);
        registry.histogram("serve.search.latency_ns").record(1_500);
        registry.histogram("serve.search.latency_ns").record(2_500);
        let scrape = Scrape::parse(registry.export_json().as_bytes()).unwrap();
        assert_eq!(scrape.counter("serve.accepted"), 7);
        assert_eq!(scrape.mean_us("serve.search.latency_ns"), 2.0);
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(Scrape::parse(b"{\"counters\": {\"a\": }").is_err());
        assert!(Scrape::parse(b"").is_err());
    }
}
