//! `alicoco-lint`: in-tree static analysis for the AliCoCo workspace.
//!
//! The workspace's hardest-won properties — byte-identical training and
//! serialization, NaN-safe total-order ranking, panic-free serving paths,
//! deadlock-free parameter locking — are invariants the Rust compiler
//! cannot check. This crate checks them. It is deliberately dependency-free
//! (no `syn`, no crates.io): a hand-rolled lexer ([`lexer`]) feeds a
//! lightweight structural pass ([`parse`]) feeds six per-file rules
//! ([`rules`]); per-file symbol summaries ([`symbols`]) then feed a
//! workspace call graph ([`callgraph`]) running three inter-procedural
//! rules (panic-reachability, lock-order cycles, nondeterminism escape).
//! Findings can be suppressed only through a fingerprinted, justified
//! allowlist ([`allowlist`]), and reports export as JSON ([`report`]).
//!
//! Run it with:
//!
//! ```text
//! cargo run -p analysis --bin alicoco-lint
//! ```

#![warn(missing_docs)]

pub mod allowlist;
pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod symbols;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// A finalized finding: a rule hit plus its source snippet and stable
/// fingerprint.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id, `AL001`..`AL009`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed source line the finding points at.
    pub snippet: String,
    /// Stable identity for allowlisting; see [`fingerprint`].
    pub fingerprint: String,
}

/// FNV-1a 64-bit over the finding's identity: rule, file, normalized
/// source line, and the ordinal among identical lines in that file. Line
/// numbers are deliberately excluded so unrelated edits above a vetted
/// finding do not invalidate its allowlist entry; editing the flagged line
/// itself does.
pub fn fingerprint(rule: &str, path: &str, snippet: &str, ordinal: u32) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [rule, "|", path, "|", snippet, "|"] {
        for b in chunk.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    for b in ordinal.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The complete per-file analysis artifact: local-rule findings plus the
/// symbol summary the workspace phase consumes.
#[derive(Clone, Debug)]
pub struct FileAnalysis {
    /// Findings from the per-file rules (AL001..AL006).
    pub findings: Vec<Finding>,
    /// Symbol summary feeding the workspace rules (AL007..AL009).
    pub summary: symbols::FileSummary,
}

/// Run the per-file rules *and* symbol extraction over one source file.
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let toks = lexer::lex(src);
    let ctx = parse::FileCtx::new(path, &toks);
    let mut raw = rules::run_all(&ctx);
    raw.sort_by(|a, b| {
        (a.line, a.col, a.rule)
            .cmp(&(b.line, b.col, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    let lines: Vec<&str> = src.lines().collect();
    let mut ordinals: HashMap<(&'static str, String), u32> = HashMap::new();
    let findings = raw
        .into_iter()
        .map(|r| {
            let snippet = lines
                .get(r.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default();
            let ord = ordinals
                .entry((r.rule, snippet.clone()))
                .and_modify(|o| *o += 1)
                .or_insert(0);
            Finding {
                fingerprint: fingerprint(r.rule, path, &snippet, *ord),
                rule: r.rule,
                path: path.to_string(),
                line: r.line,
                col: r.col,
                message: r.message,
                snippet,
            }
        })
        .collect();
    FileAnalysis {
        findings,
        summary: symbols::summarize(&ctx, src),
    }
}

/// Lint one file's source with the per-file rules only, returning findings
/// sorted by position.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    analyze_source(path, src).findings
}

/// Lint a set of in-memory sources as one miniature workspace: per-file
/// rules plus the call-graph rules (AL007..AL009). The fixture entry point
/// for workspace-rule tests; paths should look like real workspace paths
/// (`crates/<name>/src/...`) so scope filters apply.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut sorted: Vec<(&str, &str)> = files.to_vec();
    sorted.sort();
    let mut out = Vec::new();
    let mut summaries = Vec::new();
    for (path, src) in &sorted {
        let a = analyze_source(path, src);
        out.extend(a.findings);
        summaries.push(a.summary);
    }
    out.extend(callgraph::run(&summaries));
    sort_findings(&mut out);
    out
}

/// Global finding order: (path, line, col, rule, message).
pub(crate) fn sort_findings(out: &mut [Finding]) {
    out.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
}

/// Outcome of a workspace lint run.
#[derive(Clone, Debug)]
pub struct LintRun {
    /// All findings (per-file and workspace rules), globally sorted.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed.
    pub files_seen: usize,
}

/// Lint every `.rs` file under `<root>/crates` (skipping `target/`), then
/// run the workspace call-graph rules over the per-file summaries.
/// Per-file analysis fans out across threads; results are re-sorted into
/// deterministic (path, line, col, rule, message) order before returning.
pub fn lint_workspace(root: &Path) -> io::Result<LintRun> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let rels: Vec<String> = files
        .iter()
        .map(|file| {
            file.strip_prefix(root)
                .unwrap_or(file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    let mut findings = Vec::new();
    let mut summaries = Vec::new();
    for a in analyze_files_parallel(&files, &rels)? {
        findings.extend(a.findings);
        summaries.push(a.summary);
    }
    findings.extend(callgraph::run(&summaries));
    sort_findings(&mut findings);
    Ok(LintRun {
        findings,
        files_seen: files.len(),
    })
}

/// Fan per-file analysis out over `std::thread::scope`. Each worker owns a
/// disjoint index range, so results land in walk order and the final sort
/// sees identical input regardless of thread count.
fn analyze_files_parallel(files: &[PathBuf], rels: &[String]) -> io::Result<Vec<FileAnalysis>> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(files.len().max(1))
        .min(8);
    let chunk = files.len().div_ceil(workers.max(1)).max(1);
    let mut slots: Vec<io::Result<FileAnalysis>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (wi, file_chunk) in files.chunks(chunk).enumerate() {
            let rel_chunk = &rels[wi * chunk..wi * chunk + file_chunk.len()];
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(file_chunk.len());
                for (file, rel) in file_chunk.iter().zip(rel_chunk) {
                    out.push(std::fs::read_to_string(file).map(|src| analyze_source(rel, &src)));
                }
                out
            }));
        }
        for h in handles {
            slots.extend(h.join().expect("lint worker panicked"));
        }
    });
    slots.into_iter().collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = fingerprint("AL001", "crates/x.rs", "v[i]", 0);
        let b = fingerprint("AL001", "crates/x.rs", "v[i]", 0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_ne!(a, fingerprint("AL001", "crates/x.rs", "v[i]", 1));
        assert_ne!(a, fingerprint("AL002", "crates/x.rs", "v[i]", 0));
        assert_ne!(a, fingerprint("AL001", "crates/y.rs", "v[i]", 0));
    }

    #[test]
    fn duplicate_lines_get_distinct_ordinals() {
        let src = "fn a() -> usize { v[i] + v[i] }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert_ne!(f[0].fingerprint, f[1].fingerprint);
    }

    #[test]
    fn fingerprint_survives_line_shifts() {
        let before = lint_source("crates/core/src/x.rs", "fn a() { v.unwrap(); }\n");
        let after = lint_source(
            "crates/core/src/x.rs",
            "//! New header comment.\n\nfn a() { v.unwrap(); }\n",
        );
        assert_eq!(before.len(), 1);
        assert_eq!(after.len(), 1);
        assert_eq!(before[0].fingerprint, after[0].fingerprint);
        assert_ne!(before[0].line, after[0].line);
    }
}
