//! End-to-end tests for the `alicoco-lint` binary contract: exit codes
//! (0 clean / 1 findings / 2 internal error) and `--deny-stale`.
//!
//! Each test builds a throwaway miniature workspace under the target
//! temp dir and runs the real binary via `CARGO_BIN_EXE_alicoco-lint`.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

/// A fresh workspace root that is removed on drop.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(name: &str) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "alicoco-lint-test-{}-{name}-{id}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp workspace");
        TempWorkspace { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel path has a parent"))
            .expect("create parent dirs");
        fs::write(path, contents).expect("write fixture file");
    }

    fn lint(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_alicoco-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("run alicoco-lint")
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("lint must exit, not be killed")
}

const CLEAN_SRC: &str = "pub fn ok(v: &[u32]) -> u32 { v.first().copied().unwrap_or(0) }\n";
const DIRTY_SRC: &str = "pub fn bad(v: &[u32]) -> u32 { *v.first().unwrap() }\n";

// ------------------------------------------------------------ exit codes

#[test]
fn exit_zero_on_a_clean_workspace() {
    let ws = TempWorkspace::new("clean");
    ws.write("crates/core/src/lib.rs", CLEAN_SRC);
    let out = ws.lint(&[]);
    assert_eq!(exit_code(&out), 0, "stderr: {:?}", out.stderr);
}

#[test]
fn exit_one_when_findings_are_active() {
    let ws = TempWorkspace::new("findings");
    ws.write("crates/core/src/lib.rs", DIRTY_SRC);
    let out = ws.lint(&[]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("AL001"), "stdout: {stdout}");
    assert!(stdout.contains("suppress with:"), "stdout: {stdout}");
}

#[test]
fn exit_two_on_unreadable_allowlist_not_one() {
    let ws = TempWorkspace::new("badallow");
    ws.write("crates/core/src/lib.rs", CLEAN_SRC);
    ws.write("lint-allow.txt", "AL001 not-a-fingerprint\n");
    let out = ws.lint(&[]);
    assert_eq!(
        exit_code(&out),
        2,
        "malformed allowlist is an internal error, stderr: {:?}",
        String::from_utf8_lossy(&out.stderr)
    );
}

// ------------------------------------------------------------ allowlist

#[test]
fn stale_entries_warn_by_default_and_fail_under_deny_stale() {
    let ws = TempWorkspace::new("stale");
    ws.write("crates/core/src/lib.rs", CLEAN_SRC);
    ws.write(
        "lint-allow.txt",
        "AL001 00000000deadbeef suppresses a line that no longer exists\n",
    );

    let out = ws.lint(&[]);
    assert_eq!(exit_code(&out), 0, "stale alone must stay a warning");
    assert!(String::from_utf8_lossy(&out.stderr).contains("stale allowlist entry"));

    let out = ws.lint(&["--deny-stale"]);
    assert_eq!(exit_code(&out), 1, "--deny-stale promotes stale to failure");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
