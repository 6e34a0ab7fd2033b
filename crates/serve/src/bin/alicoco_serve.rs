//! `alicoco-serve` — serve a concept-net snapshot over HTTP.
//!
//! ```text
//! alicoco-serve <snapshot> [--addr HOST:PORT] [--workers N] [--queue N]
//!               [--read-timeout-ms N] [--drain-ms N] [--shutdown-on-stdin]
//! ```
//!
//! The snapshot format (TSV or binary) is sniffed from its magic via
//! `core::store`. With `--shutdown-on-stdin` the process drains
//! gracefully when stdin reaches EOF — scriptable from CI and shells
//! (`alicoco-serve net.bin --shutdown-on-stdin < fifo`); without it the
//! server runs until killed.
//!
//! How long loading the snapshot and building the serving pack took goes
//! to the stderr "loaded" line and to `/metrics` as the
//! `serve.startup.{load,pack}.seconds` gauges; where `/proc` exists, so
//! does the process's resident and peak resident memory once each is
//! done, as the `serve.startup.{load,pack}.{rss,hwm}_mb` gauges.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use alicoco_obs::{Registry, Stopwatch};
use alicoco_serve::{EngineConfig, PackSlot, ServeConfig, Server, ServingPack};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("alicoco-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut snapshot: Option<&str> = None;
    let mut cfg = ServeConfig::default();
    let mut shutdown_on_stdin = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = flag_value(&mut it, "--addr")?.to_string(),
            "--workers" => cfg.workers = parse_flag(&mut it, "--workers")?,
            "--queue" => cfg.queue_capacity = parse_flag(&mut it, "--queue")?,
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(parse_flag(&mut it, "--read-timeout-ms")?)
            }
            "--drain-ms" => {
                cfg.drain_deadline = Duration::from_millis(parse_flag(&mut it, "--drain-ms")?)
            }
            "--shutdown-on-stdin" => shutdown_on_stdin = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            path => {
                if snapshot.replace(path).is_some() {
                    return Err("more than one snapshot path given".to_string());
                }
            }
        }
    }
    let path = snapshot.ok_or("usage: alicoco-serve <snapshot> [flags]")?;

    let metrics = Registry::new();
    let watch = Stopwatch::start();
    let (kg, bundle) = alicoco_ann::load_file_with_bundle(std::path::Path::new(path), &metrics)
        .map_err(|e| format!("{path}: {e}"))?;
    let load = record_stage(&metrics, "load", watch.elapsed());
    let loaded = format!(
        "alicoco-serve: loaded {path}: {} concepts, {} items, retrieval={}{}",
        kg.num_concepts(),
        kg.num_items(),
        if bundle.is_some() {
            "hybrid (lexical + vectors)"
        } else {
            "lexical"
        },
        load,
    );
    let watch = Stopwatch::start();
    let pack = ServingPack::build_with_ann(
        Arc::new(kg),
        bundle.map(Arc::new),
        &EngineConfig::default(),
        &metrics,
    );
    let pack_done = record_stage(&metrics, "pack", watch.elapsed());
    eprintln!("{loaded}{pack_done}");
    let slot = Arc::new(PackSlot::new(pack));
    let server = Server::start(slot, cfg, metrics).map_err(|e| format!("bind: {e}"))?;
    eprintln!("alicoco-serve: listening on http://{}", server.local_addr());

    if shutdown_on_stdin {
        // Block until the controller closes our stdin, then drain.
        let mut sink = [0u8; 1024];
        let mut stdin = std::io::stdin().lock();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        let report = server.shutdown();
        eprintln!(
            "alicoco-serve: drained={} accepted={} completed={} rejected={} shed={}",
            report.drained, report.accepted, report.completed, report.rejected, report.shed
        );
        if !report.drained {
            return Err("drain deadline exceeded".to_string());
        }
        Ok(())
    } else {
        loop {
            std::thread::park();
        }
    }
}

/// This process's resident and peak resident memory in MB (`VmRSS` and
/// `VmHWM` of `/proc/self/status`); `None` where there is no `/proc`.
fn memory_mb() -> Option<(f64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<f64> {
        let value = status.lines().find_map(|l| l.strip_prefix(name))?;
        let kb: f64 = value.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb / 1024.0)
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

/// Record that start-up `stage` took `took` as the
/// `serve.startup.<stage>.seconds` gauge and the process's memory once it
/// is done as the `serve.startup.<stage>.{rss,hwm}_mb` gauges (where
/// there is a `/proc`), and describe both for the stderr "loaded" line.
fn record_stage(metrics: &Registry, stage: &str, took: Duration) -> String {
    let secs = took.as_secs_f64();
    metrics
        .gauge(&format!("serve.startup.{stage}.seconds"))
        .set(secs);
    let mut line = format!(", {stage} {secs:.3} s");
    if let Some((rss, hwm)) = memory_mb() {
        metrics
            .gauge(&format!("serve.startup.{stage}.rss_mb"))
            .set(rss);
        metrics
            .gauge(&format!("serve.startup.{stage}.hwm_mb"))
            .set(hwm);
        line.push_str(&format!(
            ", after {stage}: rss {rss:.1} MB, peak {hwm:.1} MB"
        ));
    }
    line
}

fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_flag<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    flag_value(it, flag)?
        .parse()
        .map_err(|_| format!("{flag}: not a number"))
}
