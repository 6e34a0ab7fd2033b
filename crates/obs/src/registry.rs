//! The shared metric table and its deterministic JSON export.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::histogram::Histogram;
use crate::json::push_string;
use crate::metric::{Counter, Gauge};
use crate::span::SpanTimer;

/// Take a read lock, recovering the guard if a panicking writer poisoned
/// it (metric state is monotone counters — a poisoned map is still valid).
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Take a write lock, recovering from poisoning (see [`read_lock`]).
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// A thread-safe name → metric table. `Clone` is a cheap `Arc` copy, so
/// one registry threads through an entire process: serving engines,
/// training loops, and the CLI all record into the same export.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short-lived lock
/// and should happen once at construction; the returned `Arc` handles are
/// lock-free to record into. Names are dot-separated lowercase paths with
/// a unit suffix on duration histograms (`search.retrieve_ns`) — see
/// DESIGN.md §8 for the scheme.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        {
            let map = read_lock(&self.inner.counters);
            if let Some(c) = map.get(name) {
                return Arc::clone(c);
            }
        }
        let mut map = write_lock(&self.inner.counters);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        {
            let map = read_lock(&self.inner.gauges);
            if let Some(g) = map.get(name) {
                return Arc::clone(g);
            }
        }
        let mut map = write_lock(&self.inner.gauges);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        {
            let map = read_lock(&self.inner.histograms);
            if let Some(h) = map.get(name) {
                return Arc::clone(h);
            }
        }
        let mut map = write_lock(&self.inner.histograms);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Start an RAII span recording into histogram `name` on drop.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::new(self.histogram(name))
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        read_lock(&self.inner.counters).is_empty()
            && read_lock(&self.inner.gauges).is_empty()
            && read_lock(&self.inner.histograms).is_empty()
    }

    /// Export every metric as a pretty-printed JSON object.
    ///
    /// Deterministic by construction: metrics live in `BTreeMap`s, so keys
    /// stream out sorted and two exports of the same state are
    /// byte-identical — no hash-order dependence anywhere (the AL005
    /// property the snapshot format also guarantees).
    pub fn export_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        {
            let map = read_lock(&self.inner.counters);
            for (i, (name, c)) in map.iter().enumerate() {
                push_sep(&mut out, i);
                out.push_str("    ");
                push_string(&mut out, name);
                out.push_str(&format!(": {}", c.get()));
            }
            close_obj(&mut out, map.is_empty());
        }
        out.push_str(",\n  \"gauges\": {");
        {
            let map = read_lock(&self.inner.gauges);
            for (i, (name, g)) in map.iter().enumerate() {
                push_sep(&mut out, i);
                out.push_str("    ");
                push_string(&mut out, name);
                out.push_str(&format!(": {}", json_f64(g.get())));
            }
            close_obj(&mut out, map.is_empty());
        }
        out.push_str(",\n  \"histograms\": {");
        {
            let map = read_lock(&self.inner.histograms);
            for (i, (name, h)) in map.iter().enumerate() {
                push_sep(&mut out, i);
                let s = h.summary();
                out.push_str("    ");
                push_string(&mut out, name);
                out.push_str(&format!(
                    ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                    s.count,
                    s.sum,
                    s.min.map_or("null".to_string(), |v| v.to_string()),
                    s.max.map_or("null".to_string(), |v| v.to_string()),
                    json_f64(s.mean),
                    s.p50,
                    s.p90,
                    s.p99,
                ));
                for (bi, b) in s.buckets.iter().enumerate() {
                    if bi > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("[{}, {}, {}]", b.lower, b.upper, b.count));
                }
                out.push_str("]}");
            }
            close_obj(&mut out, map.is_empty());
        }
        out.push_str("\n}\n");
        out
    }
}

fn push_sep(out: &mut String, i: usize) {
    out.push_str(if i == 0 { "\n" } else { ",\n" });
}

fn close_obj(out: &mut String, empty: bool) {
    out.push_str(if empty { "}" } else { "\n  }" });
}

/// Render an `f64` as a JSON number (JSON has no NaN/Inf; clamp to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Ensure a decimal point so the value re-parses as floating point.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
        // Clones share the table.
        let reg2 = reg.clone();
        assert_eq!(reg2.counter("x.hits").get(), 2);
    }

    #[test]
    fn export_is_sorted_and_deterministic() {
        let reg = Registry::new();
        reg.counter("z.last").add(3);
        reg.counter("a.first").add(1);
        reg.gauge("m.level").set(0.5);
        reg.histogram("h.lat_ns").record(1000);
        let a = reg.export_json();
        let b = reg.export_json();
        assert_eq!(a, b, "repeated export must be byte-identical");
        let first = a.find("a.first").expect("a.first exported");
        let last = a.find("z.last").expect("z.last exported");
        assert!(first < last, "counter keys must stream sorted");
        assert!(a.contains("\"p50\": 1000"));
        assert!(a.contains("\"m.level\": 0.5"));
    }

    #[test]
    fn empty_registry_exports_valid_skeleton() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        let json = reg.export_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn export_parses_back_to_the_recorded_values() {
        use crate::json::Json;
        let reg = Registry::new();
        let names = [
            "plain.hits",
            "quo\"te",
            "back\\slash",
            "new\nline\ttab",
            "bell\u{7}",
        ];
        for (i, name) in names.iter().enumerate() {
            reg.counter(name).add(i as u64 + 1);
            reg.gauge(name).set(i as f64 + 0.5);
            reg.histogram(name).record(100 * (i as u64 + 1));
        }
        reg.gauge("whole").set(2.0);
        reg.gauge("unset-level").set(f64::NAN);
        let doc = Json::parse(&reg.export_json()).expect("export must be valid JSON");
        let family = |f: &str| doc.get(f).unwrap_or_else(|| panic!("{f} section"));
        for (i, name) in names.iter().enumerate() {
            let n = i as f64 + 1.0;
            assert_eq!(family("counters").get(name).unwrap().as_num(), Some(n));
            assert_eq!(family("gauges").get(name).unwrap().as_num(), Some(n - 0.5));
            let h = family("histograms").get(name).unwrap();
            assert_eq!(h.get("count").unwrap().as_num(), Some(1.0));
            for stat in ["sum", "min", "max", "p50"] {
                assert_eq!(h.get(stat).unwrap().as_num(), Some(100.0 * n), "{stat}");
            }
        }
        assert_eq!(family("gauges").get("whole").unwrap().as_num(), Some(2.0));
        assert_eq!(family("gauges").get("unset-level"), Some(&Json::Null));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut s = String::new();
        push_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
