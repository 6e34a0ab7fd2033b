//! Fixture tests for the workspace-level rules (AL007..AL009): for each
//! rule a bad multi-file fixture that must trigger it, a good variant that
//! must not, and the jurisdiction splits against the per-file rules.
//! Fixtures are in-memory `(path, source)` pairs run through
//! [`analysis::lint_sources`], which performs the same per-file + call
//! graph pipeline the binary uses.

use analysis::allowlist::Allowlist;
use analysis::lint_sources;

/// Rules triggered by the fixture set, deduped in finding order.
fn rules_for(files: &[(&str, &str)]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_sources(files).into_iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------- AL007

const APP_ENTRY: &str = r#"
    pub fn handle(q: &str) -> u32 { risky_lookup(q) }
"#;

#[test]
fn al007_flags_panics_reachable_across_crates_with_the_chain() {
    let helper = r#"
        pub fn risky_lookup(q: &str) -> u32 { q.parse().unwrap() }
    "#;
    let findings = lint_sources(&[
        ("crates/apps/src/serve.rs", APP_ENTRY),
        ("crates/text/src/util.rs", helper),
    ]);
    let al007: Vec<_> = findings.iter().filter(|f| f.rule == "AL007").collect();
    assert_eq!(al007.len(), 1, "findings: {findings:?}");
    // The finding anchors at the panic site, not the entry point...
    assert_eq!(al007[0].path, "crates/text/src/util.rs");
    // ...and the message walks the chain from the serving API down.
    assert!(
        al007[0].message.contains("handle -> risky_lookup"),
        "chain missing from: {}",
        al007[0].message
    );
}

#[test]
fn al007_stays_quiet_without_a_panic_or_a_public_entry() {
    let safe_helper = r#"
        pub fn risky_lookup(q: &str) -> u32 { q.parse().unwrap_or(0) }
    "#;
    assert!(rules_for(&[
        ("crates/apps/src/serve.rs", APP_ENTRY),
        ("crates/text/src/util.rs", safe_helper),
    ])
    .is_empty());

    // Same panic, but only reachable from a private fn: not a serving API.
    let private_entry = "fn internal(q: &str) -> u32 { risky_lookup(q) }";
    let helper = "pub fn risky_lookup(q: &str) -> u32 { q.parse().unwrap() }";
    assert!(rules_for(&[
        ("crates/apps/src/serve.rs", private_entry),
        ("crates/text/src/util.rs", helper),
    ])
    .is_empty());
}

#[test]
fn al007_leaves_serving_crate_panic_sites_to_al001() {
    // A panic inside the serving crate itself is AL001's jurisdiction;
    // AL007 must not double-report it.
    let local = "pub fn handle(v: &[u32]) -> u32 { *v.first().unwrap() }";
    assert_eq!(
        rules_for(&[("crates/apps/src/serve.rs", local)]),
        vec!["AL001"]
    );
}

#[test]
fn al007_does_not_root_at_build_time_files() {
    // `crates/ann/src/embed.rs` trains embeddings when a snapshot is built;
    // its public functions are not serving entry points.
    let trainer = "pub fn build_bundle(v: &[u32]) -> u32 { first_row(v) }";
    let helper = "pub fn first_row(v: &[u32]) -> u32 { v[0] }";
    assert!(rules_for(&[
        ("crates/ann/src/embed.rs", trainer),
        ("crates/text/src/util.rs", helper),
    ])
    .is_empty());
    // The same function one file over is a serving API and fires.
    assert_eq!(
        rules_for(&[
            ("crates/ann/src/bundle.rs", trainer),
            ("crates/text/src/util.rs", helper),
        ]),
        vec!["AL007"]
    );
    // Only the roots are excluded: a direct site in the file is still AL001's.
    assert_eq!(
        rules_for(&[("crates/ann/src/embed.rs", helper)]),
        vec!["AL001"]
    );
}

// ---------------------------------------------------------------- AL008

#[test]
fn al008_flags_a_lock_order_cycle_with_both_hops() {
    let src = r#"
        struct Shared { a: RwLock<u32>, b: RwLock<u32> }
        impl Shared {
            fn ab(&self) -> u32 {
                let ga = self.a.read();
                let gb = self.b.read();
                *ga + *gb
            }
            fn ba(&self) -> u32 {
                let gb = self.b.write();
                let ga = self.a.write();
                *ga + *gb
            }
        }
    "#;
    let findings = lint_sources(&[("crates/core/src/shared.rs", src)]);
    let al008: Vec<_> = findings.iter().filter(|f| f.rule == "AL008").collect();
    assert_eq!(al008.len(), 1, "findings: {findings:?}");
    let msg = &al008[0].message;
    assert!(msg.contains("lock-order cycle"), "message: {msg}");
    // Both conflicting chains are named so the fix order is obvious.
    assert!(msg.contains(".a") && msg.contains(".b"), "message: {msg}");
}

#[test]
fn al008_allows_a_consistent_global_order() {
    let src = r#"
        struct Shared { a: RwLock<u32>, b: RwLock<u32> }
        impl Shared {
            fn sum(&self) -> u32 {
                let ga = self.a.read();
                let gb = self.b.read();
                *ga + *gb
            }
            fn bump(&self) {
                let mut ga = self.a.write();
                let mut gb = self.b.write();
                *ga += 1;
                *gb += 1;
            }
        }
    "#;
    assert!(rules_for(&[("crates/core/src/shared.rs", src)]).is_empty());
}

#[test]
fn al008_sees_cycles_through_helper_calls() {
    // `tick` holds `a` while calling a helper that takes `b`; `flush`
    // acquires them in the opposite order directly. The a→b edge only
    // exists interprocedurally.
    let src = r#"
        struct Shared { a: Mutex<u32>, b: Mutex<u32> }
        impl Shared {
            fn tick(&self) {
                let ga = self.a.lock();
                self.touch_b(*ga);
            }
            fn touch_b(&self, v: u32) {
                let mut gb = self.b.lock();
                *gb = v;
            }
            fn flush(&self) {
                let gb = self.b.lock();
                let ga = self.a.lock();
                drop((ga, gb));
            }
        }
    "#;
    let findings = lint_sources(&[("crates/core/src/shared.rs", src)]);
    assert!(
        findings.iter().any(|f| f.rule == "AL008"),
        "interprocedural cycle missed: {findings:?}"
    );
}

#[test]
fn al008_flags_reacquiring_a_held_lock_through_a_call() {
    // Direct double-acquisition in one fn is AL004's intra-file
    // jurisdiction; the interprocedural shape — calling a helper that
    // re-takes the lock you hold — is AL008's.
    let src = r#"
        struct Shared { a: Mutex<u32> }
        impl Shared {
            fn outer(&self) -> u32 {
                let g = self.a.lock();
                *g + self.inner()
            }
            fn inner(&self) -> u32 {
                let g = self.a.lock();
                *g
            }
        }
    "#;
    let findings = lint_sources(&[("crates/core/src/shared.rs", src)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "AL008" && f.message.contains("self-deadlock")),
        "self-deadlock missed: {findings:?}"
    );
}

// ---------------------------------------------------------------- AL009

#[test]
fn al009_flags_hash_iteration_reachable_from_serving_output() {
    let helper = r#"
        pub fn risky_lookup(q: &str) -> u32 {
            let map: FxHashMap<String, u32> = FxHashMap::default();
            let mut n = 0;
            for (_k, v) in &map { n += v; }
            n
        }
    "#;
    let findings = lint_sources(&[
        ("crates/apps/src/serve.rs", APP_ENTRY),
        ("crates/text/src/util.rs", helper),
    ]);
    let al009: Vec<_> = findings.iter().filter(|f| f.rule == "AL009").collect();
    assert_eq!(al009.len(), 1, "findings: {findings:?}");
    assert_eq!(al009[0].path, "crates/text/src/util.rs");
    assert!(
        al009[0].message.contains("handle -> risky_lookup"),
        "chain missing from: {}",
        al009[0].message
    );
}

#[test]
fn al009_treats_sink_named_functions_as_roots() {
    // `save_*` functions are serialization sinks wherever they live, even
    // private ones in non-serving crates.
    let src = r#"
        fn save_postings(map: &FxHashMap<String, u32>, out: &mut String) {
            collect_into(map, out);
        }
        fn collect_into(map: &FxHashMap<String, u32>, out: &mut String) {
            for k in map.keys() { out.push_str(k); }
        }
    "#;
    let findings = lint_sources(&[("crates/nn/src/index.rs", src)]);
    assert!(
        findings.iter().any(|f| f.rule == "AL009"),
        "sink-rooted iteration missed: {findings:?}"
    );
}

#[test]
fn al009_sorted_iteration_does_not_escape() {
    let helper = r#"
        pub fn risky_lookup(q: &str) -> u32 {
            let map: FxHashMap<String, u32> = FxHashMap::default();
            let mut ks: Vec<&String> = map.keys().collect();
            ks.sort();
            ks.len() as u32
        }
    "#;
    assert!(rules_for(&[
        ("crates/apps/src/serve.rs", APP_ENTRY),
        ("crates/text/src/util.rs", helper),
    ])
    .is_empty());
}

#[test]
fn al009_does_not_borrow_a_hash_type_from_another_functions_local() {
    // `words` is a hash set in `tally`, which sorts it, and a `Vec` in the
    // reachable `risky_lookup`: the name alone is not a hash binding.
    let helper = r#"
        fn tally(q: &str) -> usize {
            let words: FxHashSet<&str> = q.split(' ').collect();
            let mut sorted: Vec<&&str> = words.iter().collect();
            sorted.sort();
            sorted.len()
        }
        pub fn risky_lookup(q: &str) -> u32 {
            let words: Vec<&str> = q.split(' ').collect();
            let mut n = 0;
            for w in &words { n += w.len() as u32; }
            n
        }
    "#;
    let findings = lint_sources(&[
        ("crates/apps/src/serve.rs", APP_ENTRY),
        ("crates/text/src/util.rs", helper),
    ]);
    assert!(
        !findings.iter().any(|f| f.rule == "AL009"),
        "a Vec flagged by another function's binding: {findings:?}"
    );
}

#[test]
fn al009_still_flags_hash_iteration_in_the_declaring_function_or_on_a_field() {
    let local = r#"
        fn tally(q: &str) -> u32 {
            let words: Vec<&str> = q.split(' ').collect();
            words.len() as u32
        }
        pub fn risky_lookup(q: &str) -> u32 {
            let words: FxHashSet<&str> = q.split(' ').collect();
            let mut n = 0;
            for w in &words { n += w.len() as u32; }
            n
        }
    "#;
    // A field is declared outside every function, so every method sees it.
    let field = r#"
        pub struct Index { words: FxHashSet<String> }
        impl Index {
            pub fn lookup(&self, q: &str) -> u32 {
                let mut n = q.len() as u32;
                for w in self.words.iter() { n += w.len() as u32; }
                n
            }
        }
    "#;
    for files in [
        &[
            ("crates/apps/src/serve.rs", APP_ENTRY),
            ("crates/text/src/util.rs", local),
        ][..],
        &[("crates/apps/src/index.rs", field)],
    ] {
        let findings = lint_sources(files);
        assert!(
            findings.iter().any(|f| f.rule == "AL009"),
            "hash iteration missed in {files:?}: {findings:?}"
        );
    }
}

#[test]
fn al009_flags_clock_reads_outside_obs_only() {
    let timed = "pub fn step() -> Instant { Instant::now() }";
    let findings = lint_sources(&[("crates/nn/src/train2.rs", timed)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "AL009" && f.message.contains("clock")),
        "clock read missed: {findings:?}"
    );

    // The observability crate owns wall time; benches measure it.
    assert!(rules_for(&[("crates/obs/src/span2.rs", timed)]).is_empty());
    assert!(rules_for(&[("crates/bench/src/run.rs", timed)]).is_empty());
}

// ------------------------------------------- serve crate jurisdiction

#[test]
fn serve_crate_panic_sites_are_al001_jurisdiction() {
    // The HTTP layer is serving code: direct panics there are AL001's,
    // exactly like apps/ and core/.
    let local = "pub fn handle(v: &[u32]) -> u32 { *v.first().unwrap() }";
    assert_eq!(
        rules_for(&[("crates/serve/src/router.rs", local)]),
        vec!["AL001"]
    );
}

#[test]
fn al007_walks_chains_rooted_at_serve_entry_points() {
    // A panic in a helper crate reachable from a public serve fn must be
    // flagged with the chain from the HTTP entry point down.
    let entry = "pub fn dispatch(q: &str) -> u32 { risky_lookup(q) }";
    let helper = "pub fn risky_lookup(q: &str) -> u32 { q.parse().unwrap() }";
    let findings = lint_sources(&[
        ("crates/serve/src/router.rs", entry),
        ("crates/text/src/util.rs", helper),
    ]);
    let al007: Vec<_> = findings.iter().filter(|f| f.rule == "AL007").collect();
    assert_eq!(al007.len(), 1, "findings: {findings:?}");
    assert_eq!(al007[0].path, "crates/text/src/util.rs");
    assert!(
        al007[0].message.contains("dispatch -> risky_lookup"),
        "chain missing from: {}",
        al007[0].message
    );
}

#[test]
fn al009_covers_serve_rooted_nondeterminism_and_clock_reads() {
    // Hash-map iteration escaping through a serve entry point is AL009's.
    let entry = "pub fn dispatch(q: &str) -> u32 { risky_lookup(q) }";
    let helper = r#"
        pub fn risky_lookup(q: &str) -> u32 {
            let map: FxHashMap<String, u32> = FxHashMap::default();
            let mut n = 0;
            for (_k, v) in &map { n += v; }
            n
        }
    "#;
    let findings = lint_sources(&[
        ("crates/serve/src/router.rs", entry),
        ("crates/text/src/util.rs", helper),
    ]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "AL009" && f.message.contains("dispatch -> risky_lookup")),
        "serve-rooted escape missed: {findings:?}"
    );

    // serve is not clock-exempt: raw Instant reads must go through obs.
    let timed = "pub fn deadline() -> Instant { Instant::now() }";
    let findings = lint_sources(&[("crates/serve/src/server2.rs", timed)]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "AL009" && f.message.contains("clock")),
        "clock read in serve missed: {findings:?}"
    );
}

// ---------------------------------------------------- suppression flow

#[test]
fn workspace_findings_suppress_through_the_allowlist() {
    let helper = "pub fn risky_lookup(q: &str) -> u32 { q.parse().unwrap() }";
    let files = [
        ("crates/apps/src/serve.rs", APP_ENTRY),
        ("crates/text/src/util.rs", helper),
    ];
    let findings = lint_sources(&files);
    assert_eq!(findings.len(), 1);
    let entry = format!(
        "{} {} vetted: parse cannot fail on this input set\n",
        findings[0].rule, findings[0].fingerprint
    );
    let allow = Allowlist::parse(&entry).expect("well-formed allowlist");
    let (active, suppressed, stale) = allow.apply(findings);
    assert!(active.is_empty(), "vetted workspace finding must suppress");
    assert_eq!(suppressed.len(), 1);
    assert!(stale.is_empty());

    // Changing the flagged line invalidates the entry: active + stale.
    let changed = "pub fn risky_lookup(q: &str) -> u32 { q.trim().parse().unwrap() }";
    let findings = lint_sources(&[
        ("crates/apps/src/serve.rs", APP_ENTRY),
        ("crates/text/src/util.rs", changed),
    ]);
    let (active, suppressed, stale) = allow.apply(findings);
    assert_eq!(active.len(), 1);
    assert!(suppressed.is_empty());
    assert_eq!(stale.len(), 1);
}
