//! Span recorder for the traced run. The harness wraps each call into a
//! layer in a span — name, start, end, the span that caused it, and the
//! request both belong to — kept in a pre-sized `Vec` and written out as
//! JSON lines when the run ends. Nothing inside the measured program is
//! instrumented: every span is taken from outside, around a public call.

use std::io::{self, Write};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Ordinal of the request the span belongs to; `None` for set-up stages.
    pub req: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: Option<usize>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
            req: None,
        }
    }

    /// Spans recorded from now on belong to request `req`.
    pub fn set_request(&mut self, req: Option<usize>) {
        self.req = req;
    }

    /// Run `work` inside a span named `name`, nested under whichever span
    /// is open. Returns what `work` returns.
    pub fn span<R>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = work(self);
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Duration of the last span named `name`, in seconds; 0 if none.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.ns() as f64 / 1e9)
    }

    /// One JSON object per line: `header` first, then every span.
    pub fn write_jsonl(&self, header: &str, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.req)
            )?;
        }
        Ok(())
    }
}

/// Median of a sample; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of nanosecond durations, in µs.
pub fn median_us(ns: &[u64]) -> f64 {
    median(ns.iter().map(|&v| v as f64 / 1e3).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span_and_carry_the_request() {
        let mut t = Tracer::with_capacity(8);
        t.set_request(Some(3));
        t.span("request", |t| {
            t.span("http.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("router.handle", |t| {
                t.span("apps.search", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        t.set_request(None);
        t.span("store.open", |_| ());
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.req))
            .collect();
        assert_eq!(
            names,
            [
                ("request", None, Some(3)),
                ("http.parse", Some(0), Some(3)),
                ("router.handle", Some(0), Some(3)),
                ("apps.search", Some(2), Some(3)),
                ("store.open", None, None),
            ]
        );
        // A child lies inside its parent, and siblings do not overlap.
        let s = t.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns);
        assert!(s[2].start_ns <= s[3].start_ns && s[3].end_ns <= s[2].end_ns);
        assert!(s[2].end_ns <= s[0].end_ns && s[0].end_ns <= s[4].start_ns);
        assert!(s[0].ns() >= 4_000_000 && t.durations("apps.search")[0] >= 2_000_000);
    }

    #[test]
    fn trace_file_is_one_json_object_per_line() {
        let mut t = Tracer::with_capacity(2);
        t.span("pack.build", |t| t.span("query.index_build", |_| ()));
        let mut out = Vec::new();
        t.write_jsonl("{\"stamp\":1}", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"stamp\":1}");
        assert!(lines[1].starts_with("{\"name\":\"pack.build\",\"start_ns\":"));
        assert!(lines[1].ends_with("\"parent\":null,\"req\":null}"));
        assert!(lines[2].ends_with("\"parent\":0,\"req\":null}"));
    }

    #[test]
    fn medians() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_us(&[1_000, 3_000, 2_000]), 2.0);
    }
}
