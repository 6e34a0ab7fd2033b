//! The repo benchmark: drives the real `alicoco-serve` binary over four
//! workloads in a closed loop, checks its answers against the library, and
//! reports the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run) that `BENCHMARK.json` names. See `README.md` beside this
//! package; `run.sh` builds everything and is the way in.
//!
//! ```text
//! alicoco-benchmark --server <alicoco-serve> [--workload W] [--seed N]
//!                   [--seconds S] [--trace 0|1] [--smoke] [--repeat N]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each runs
//! untraced and then traced. Each run ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The working directory must be the repository root.

mod child;
mod client;
mod gen;
mod hist;
mod json;
mod layers;
mod metrics;
mod run;
mod spec;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Config, Outcome, Workload, WORKLOADS};
use spec::{Metric, Spec};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Relative to the repository root, where `run.sh` starts the harness.
const SPEC_PATH: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";
/// `--smoke` measures for this long unless `--seconds` says otherwise.
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    server: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: u64,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Res<Args> {
        let mut out = Args {
            server: PathBuf::new(),
            workload: None,
            seed: 1,
            seconds: None,
            trace: None,
            smoke: false,
            repeat: 1,
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--server" => out.server = value()?.into(),
                "--workload" => out.workload = Some(value()?),
                "--seed" => out.seed = value()?.parse()?,
                "--seconds" => out.seconds = Some(value()?.parse()?),
                "--trace" => out.trace = Some(value()?.parse::<u8>()? != 0),
                "--repeat" => out.repeat = value()?.parse()?,
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other}").into()),
            }
        }
        if out.server.as_os_str().is_empty() {
            return Err("--server <path to alicoco-serve> is required".into());
        }
        Ok(out)
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

fn first_line_after(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix(prefix))?;
    Some(line.trim_start_matches([' ', '\t', ':']).trim().to_string())
}

/// Commit, core count, CPU model and kernel, as JSON members.
fn machine() -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = first_line_after("/proc/cpuinfo", "model name").unwrap_or_default();
    let kernel = first_line_after("/proc/sys/kernel/osrelease", "").unwrap_or_default();
    format!(
        "\"commit\":\"{}\",\"nproc\":{nproc},\"cpu\":\"{}\",\"kernel\":\"{}\"",
        escape(&commit),
        escape(&cpu),
        escape(&kernel)
    )
}

/// What a result or trace file must say about how it was produced.
pub fn stamp(w: &Workload, cfg: &Config, traced: bool) -> String {
    format!(
        "{{\"workload\":\"{}\",\"traced\":{traced},{},\"seed\":{},\"conns\":{},\"window_s\":{},\
         \"warm_up_s\":{},\"concepts\":{},\"hybrid\":{},\"setups\":{},\"verified\":{},\"replayed\":{}}}",
        w.name,
        cfg.machine,
        cfg.seed,
        w.conns(cfg),
        cfg.seconds,
        run::warm_up(cfg.seconds).as_secs_f64(),
        w.concepts,
        w.hybrid,
        if traced { 1 } else { w.setups },
        w.verify,
        if traced { w.traced } else { 0 }
    )
}

/// `{"name": {"value": v, "unit": "u"}, …}` for the metrics `wanted`.
fn metrics_json(outcome: &Outcome, wanted: &[Metric]) -> Res<String> {
    let mut out = String::from("{");
    for (i, m) in wanted.iter().enumerate() {
        let value = outcome
            .values
            .get(&m.name)
            .ok_or_else(|| format!("the harness has no measurement named {}", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} measured {value}", m.name).into());
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    Ok(out)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Spread of one metric over repeated runs, as a share of its median: the
/// interquartile distance from four runs up, the full range below that.
fn spread(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = trace::median(sorted.clone());
    let width = if sorted.len() >= 4 {
        let (q1, _, q3) = quartiles(&sorted);
        q3 - q1
    } else {
        sorted[sorted.len() - 1] - sorted[0]
    };
    (median, width / median)
}

struct Record {
    stamp: String,
    workload: &'static str,
    traced: bool,
    outcome: Outcome,
}

fn write_results(records: &[Record], repeat_lines: &[String]) -> Res<()> {
    let mut out = String::from("{\"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let metrics: Vec<String> = r
            .outcome
            .values
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        let notes: Vec<String> = r
            .outcome
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        let _ = write!(
            out,
            "{}{{\"stamp\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{{}}}, \"notes\": [{}]}}",
            if i == 0 { "" } else { ",\n" },
            r.stamp,
            r.outcome.correct,
            r.outcome.attempted,
            r.outcome.failed,
            metrics.join(", "),
            notes.join(", ")
        );
    }
    let repeat: Vec<String> = repeat_lines
        .iter()
        .map(|l| format!("\"{}\"", escape(l)))
        .collect();
    let _ = write!(out, "\n], \"repeat\": [{}]}}\n", repeat.join(", "));
    std::fs::write(Path::new(OUT_DIR).join("results.json"), out)?;
    Ok(())
}

fn real_main() -> Res<bool> {
    let args = Args::parse(std::env::args().skip(1))?;
    let spec = Spec::load(Path::new(SPEC_PATH))?;
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if spec.workloads != known {
        return Err(format!(
            "{SPEC_PATH} lists workloads {:?}, the harness has {known:?}",
            spec.workloads
        )
        .into());
    }
    let selected: Vec<Workload> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .map(|w| if args.smoke { w.smoke() } else { w })
        .collect();
    if selected.is_empty() {
        return Err(format!("no workload named {:?}; there are {known:?}", args.workload).into());
    }
    let modes = args.trace.map_or(vec![false, true], |traced| vec![traced]);
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        spec.run_seconds
    });
    let machine = machine();

    let mut records = Vec::new();
    for set in 0..args.repeat.max(1) {
        let cfg = Config {
            server: args.server.clone(),
            out: OUT_DIR.into(),
            seed: args.seed + set,
            seconds,
            cores: std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(4),
            machine: machine.clone(),
        };
        for w in &selected {
            for &traced in &modes {
                let outcome = run::run(w, &cfg, traced)?;
                let wanted = if traced {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let line = metrics_json(&outcome, wanted)?;
                for m in wanted {
                    println!(
                        "{} {} {} {}",
                        w.name, m.name, outcome.values[&m.name], m.unit
                    );
                }
                for note in &outcome.notes {
                    println!("# {} {note}", w.name);
                }
                println!(
                    "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {line}}}",
                    outcome.correct, outcome.attempted, outcome.failed
                );
                records.push(Record {
                    stamp: stamp(w, &cfg, traced),
                    workload: w.name,
                    traced,
                    outcome,
                });
            }
        }
    }

    // With --repeat, every end-to-end metric must hold still across the
    // sets, each of which ran on a seed of its own.
    let mut steady = true;
    let mut repeat_lines = Vec::new();
    if args.repeat > 1 {
        for w in &selected {
            for m in &spec.end_to_end {
                let values: Vec<f64> = records
                    .iter()
                    .filter(|r| r.workload == w.name && !r.traced)
                    .map(|r| r.outcome.values[&m.name])
                    .collect();
                if values.len() < 2 {
                    continue;
                }
                let (median, spread) = spread(&values);
                let bound = m.bound.unwrap_or(0.0);
                let ok = spread <= bound;
                steady &= ok;
                let verdict = if ok { "ok" } else { "UNSTEADY" };
                repeat_lines.push(format!(
                    "repeat {} {} median {median} {} spread {spread:.4} bound {bound} {verdict}",
                    w.name, m.name, m.unit
                ));
            }
        }
        for line in &repeat_lines {
            println!("{line}");
        }
    }
    write_results(&records, &repeat_lines)?;
    Ok(steady && records.iter().all(|r| r.outcome.correct))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("alicoco-benchmark: a run was incorrect or unsteady; see the lines above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("alicoco-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        let data: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quartiles(&data), (3.5, 24.0, 160.0));
        // statistics.quantiles([10, 20, 30, 40], n=4)
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0]), (12.5, 25.0, 37.5));
    }

    #[test]
    fn spread_is_range_for_few_runs_and_iqr_for_many() {
        let (median, s) = spread(&[100.0, 110.0]);
        assert_eq!(median, 105.0);
        assert!((s - 10.0 / 105.0).abs() < 1e-12);
        let (median, s) = spread(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!(median, 25.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let line = "--server target/release/alicoco-serve --workload mix_hybrid --seed 7 --seconds 10 --trace 1";
        let args = Args::parse(line.split(' ').map(String::from)).unwrap();
        assert_eq!(args.workload.as_deref(), Some("mix_hybrid"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Some(10.0), Some(true))
        );
        assert!(!args.smoke && args.repeat == 1);
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
        assert!(Args::parse(["--bogus".to_string()].into_iter()).is_err());
        assert!(
            Args::parse(std::iter::empty()).is_err(),
            "--server is required"
        );
    }
}
