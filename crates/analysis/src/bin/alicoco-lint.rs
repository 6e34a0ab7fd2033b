//! Command-line entry point for `alicoco-lint`.
//!
//! ```text
//! alicoco-lint [--root DIR] [--allowlist FILE] [--json FILE] [--deny-stale]
//!              [--metrics]
//! ```
//!
//! Exit codes:
//!
//! - **0** — clean (possibly with vetted suppressions),
//! - **1** — active findings, or stale allowlist entries under
//!   `--deny-stale`,
//! - **2** — internal error: usage, I/O, or a malformed allowlist.
//!
//! `--metrics` times the run into `analysis.lint_ns` via `crates/obs` and
//! prints the registry export.

use std::path::PathBuf;
use std::process::ExitCode;

use analysis::allowlist::Allowlist;
use analysis::report;

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: Option<PathBuf>,
    deny_stale: bool,
    metrics: bool,
}

const USAGE: &str =
    "usage: alicoco-lint [--root DIR] [--allowlist FILE] [--json FILE] [--deny-stale] [--metrics]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        allowlist: None,
        json: None,
        deny_stale: false,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(it.next().ok_or("--allowlist needs a file")?));
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json needs a file")?));
            }
            "--deny-stale" => args.deny_stale = true,
            "--metrics" => args.metrics = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let registry = obs::Registry::new();
    let span = args.metrics.then(|| registry.span("analysis.lint_ns"));
    let run = match analysis::lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "alicoco-lint: analysis failed under `{}`: {e}",
                args.root.display()
            );
            return ExitCode::from(2);
        }
    };
    if args.metrics {
        registry
            .counter("analysis.files_seen")
            .add(run.files_seen as u64);
    }
    let allow_path = args
        .allowlist
        .clone()
        .unwrap_or_else(|| args.root.join("lint-allow.txt"));
    let allow = if allow_path.is_file() {
        let text = match std::fs::read_to_string(&allow_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("alicoco-lint: cannot read `{}`: {e}", allow_path.display());
                return ExitCode::from(2);
            }
        };
        match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("alicoco-lint: {}: {msg}", allow_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Allowlist::empty()
    };
    let (active, suppressed, stale) = allow.apply(run.findings);
    for f in &active {
        println!("{}:{}:{}: {}: {}", f.path, f.line, f.col, f.rule, f.message);
        println!("    {}", f.snippet);
        println!(
            "    suppress with: {} {}  <justification>",
            f.rule, f.fingerprint
        );
    }
    for e in &stale {
        eprintln!(
            "alicoco-lint: {}: stale allowlist entry {} {} ({}) matches nothing — remove it",
            if args.deny_stale { "error" } else { "warning" },
            e.rule,
            e.fingerprint,
            e.note
        );
    }
    if let Some(json_path) = &args.json {
        let doc = report::to_json(&active, &suppressed, &stale);
        if let Err(e) = std::fs::write(json_path, doc) {
            eprintln!("alicoco-lint: cannot write `{}`: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(span) = span {
        span.stop();
    }
    println!(
        "alicoco-lint: {} finding(s), {} suppressed, {} stale allowlist entr{}, {} file(s)",
        active.len(),
        suppressed.len(),
        stale.len(),
        if stale.len() == 1 { "y" } else { "ies" },
        run.files_seen,
    );
    if args.metrics {
        println!("{}", registry.export_json());
    }
    if !active.is_empty() || (args.deny_stale && !stale.is_empty()) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
