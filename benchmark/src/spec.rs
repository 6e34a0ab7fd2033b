//! `BENCHMARK.json` is the one place metric names, units, directions and
//! bounds are written down. The harness reads them from there, reports
//! exactly those names, and fails when it has no measurement for one.

use std::path::Path;

use crate::json::Value;
use crate::Res;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the reference value by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Res<Vec<Metric>> {
    let list = doc.get(key).map_or(&[][..], Value::items);
    list.iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} metric has no {field}"))
            };
            Ok(Metric {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &[u8]) -> Res<Spec> {
        let doc = Value::parse(text)?;
        let workloads = doc
            .get("workloads")
            .map_or(&[][..], Value::items)
            .iter()
            .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Res<Spec> {
        let text = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::WORKLOADS;

    /// The file the driver reads, as committed.
    const COMMITTED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn committed_spec_matches_the_harness() {
        let spec = Spec::parse(COMMITTED.as_bytes()).unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.run_seconds >= 1.0);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!(setup.unit, "s");
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut all: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            spec.end_to_end.len() + spec.per_layer.len(),
            "names are unique"
        );
    }
}
