//! The six lint rules.
//!
//! Each rule is a pure function from a [`FileCtx`] to raw findings. The
//! rules encode invariants the workspace documents in `DESIGN.md` but the
//! compiler cannot check:
//!
//! - **AL001** — serving code (`crates/apps`, `crates/core`) must not
//!   panic: no `unwrap`/`expect`, no panicking macros, no bare slice
//!   indexing (the typed-id arena convention `v[id.index()]` is exempt —
//!   those indices are valid by construction).
//! - **AL002** — ordering floats with `partial_cmp` is non-total and
//!   non-deterministic under NaN; all ranking goes through the comparators
//!   in the shared `rank` module.
//! - **AL003** — epoch loops belong to the training engine
//!   (`nn::train`); modules must not grow private training loops again.
//! - **AL004** — `RwLock` guard discipline: no two acquisitions in one
//!   statement, no second acquisition (read→write upgrade) while a guard
//!   on the same receiver is live, no thread spawn/scope with a guard
//!   held, and no per-op `Param::value()`/`value_mut()` guard reads in
//!   the training hot path (`nn/src/train.rs`, `nn/src/graph.rs`) — hot
//!   code reads through the graph's version-checked snapshot cache.
//! - **AL005** — snapshot/persist serialization must not iterate hash
//!   collections without a canonical sort: hash order differs between
//!   runs and would break byte-identical artifacts.
//! - **AL006** — every `unsafe` block carries a `// SAFETY:` comment.

use crate::lexer::TokenKind;
use crate::parse::{block_tree, receiver_chain, statements, Block, FileCtx, Piece, KEYWORDS};

/// A rule hit before fingerprinting (see [`crate::Finding`] for the final
/// form).
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// Rule id, `AL001`..`AL006`.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl RawFinding {
    fn at(rule: &'static str, ctx: &FileCtx, si: usize, message: String) -> Self {
        let t = ctx.tok(si);
        RawFinding {
            rule,
            line: t.line,
            col: t.col,
            message,
        }
    }
}

/// Run every rule over one file.
pub fn run_all(ctx: &FileCtx) -> Vec<RawFinding> {
    let mut out = Vec::new();
    al001_no_panics(ctx, &mut out);
    al002_total_order_ranking(ctx, &mut out);
    al003_engine_owns_epochs(ctx, &mut out);
    al004_lock_discipline(ctx, &mut out);
    al005_canonical_iteration(ctx, &mut out);
    al006_safety_comments(ctx, &mut out);
    out
}

fn path_in(ctx: &FileCtx, fragments: &[&str]) -> bool {
    fragments.iter().any(|f| ctx.path.contains(f))
}

/// Is the sig token at `si` a method-call name: `.name(`?
pub(crate) fn is_method_call(ctx: &FileCtx, si: usize, name: &str) -> bool {
    ctx.tok(si).is_ident(name)
        && si > 0
        && ctx.tok(si - 1).is_punct('.')
        && si + 1 < ctx.sig.len()
        && ctx.tok(si + 1).is_punct('(')
}

/// Is the sig token at `si` a macro invocation name: `name!`?
pub(crate) fn is_macro_call(ctx: &FileCtx, si: usize, name: &str) -> bool {
    ctx.tok(si).is_ident(name)
        && si + 1 < ctx.sig.len()
        && ctx.tok(si + 1).is_punct('!')
        && (si == 0 || !ctx.tok(si - 1).is_punct('.'))
}

// ---------------------------------------------------------------- AL001

/// Serving crates whose non-test code must be panic-free.
const AL001_SCOPE: &[&str] = &[
    "crates/ann/src/",
    "crates/apps/src/",
    "crates/core/src/",
    "crates/serve/src/",
];

fn al001_no_panics(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if !path_in(ctx, AL001_SCOPE) {
        return;
    }
    for si in 0..ctx.sig.len() {
        if ctx.is_test(si) {
            continue;
        }
        for m in ["unwrap", "expect"] {
            if is_method_call(ctx, si, m) {
                out.push(RawFinding::at(
                    "AL001",
                    ctx,
                    si,
                    format!("`.{m}()` in serving code can panic; propagate the error or handle the `None`/`Err` case"),
                ));
            }
        }
        for m in ["panic", "unreachable", "todo", "unimplemented"] {
            if is_macro_call(ctx, si, m) {
                out.push(RawFinding::at(
                    "AL001",
                    ctx,
                    si,
                    format!("`{m}!` in serving code; return an error or restructure so the case is impossible"),
                ));
            }
        }
        if let Some(finding) = bare_index_at(ctx, si) {
            out.push(finding);
        }
    }
}

/// Whether the sig token at `si` opens a bare (panic-able) index
/// expression — the same test AL001 applies, exposed for the workspace
/// summaries ([`crate::symbols`]).
pub(crate) fn bare_index_site(ctx: &FileCtx, si: usize) -> bool {
    bare_index_at(ctx, si).is_some()
}

/// Flag `expr[index]` when `index` is not the typed-id convention
/// `id.index()` and not the panic-free full range `[..]`.
fn bare_index_at(ctx: &FileCtx, si: usize) -> Option<RawFinding> {
    if !ctx.tok(si).is_punct('[') || si == 0 {
        return None;
    }
    let prev = ctx.tok(si - 1);
    let indexes_a_value = match prev.kind {
        TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        _ => false,
    };
    if !indexes_a_value {
        return None;
    }
    // Find the matching `]`.
    let mut depth = 1usize;
    let mut j = si + 1;
    while j < ctx.sig.len() && depth > 0 {
        if ctx.tok(j).is_punct('[') {
            depth += 1;
        } else if ctx.tok(j).is_punct(']') {
            depth -= 1;
        }
        j += 1;
    }
    let close = j - 1;
    let inner: Vec<usize> = (si + 1..close).collect();
    // `v[..]` — RangeFull cannot go out of bounds.
    if inner.len() == 2 && inner.iter().all(|&k| ctx.tok(k).is_punct('.')) {
        return None;
    }
    // `v[id.index()]` — typed ids are in range by construction.
    if inner.len() >= 4 {
        let tail = &inner[inner.len() - 4..];
        if ctx.tok(tail[0]).is_punct('.')
            && ctx.tok(tail[1]).is_ident("index")
            && ctx.tok(tail[2]).is_punct('(')
            && ctx.tok(tail[3]).is_punct(')')
        {
            return None;
        }
    }
    Some(RawFinding::at(
        "AL001",
        ctx,
        si,
        "bare slice indexing in serving code can panic; use `.get()` or a typed-id `.index()`"
            .into(),
    ))
}

// ---------------------------------------------------------------- AL002

/// The one module allowed to spell `partial_cmp`: it wraps the total order
/// everything else uses.
const AL002_EXEMPT: &str = "nn/src/rank.rs";

fn al002_total_order_ranking(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if ctx.path.ends_with(AL002_EXEMPT) {
        return;
    }
    for si in 0..ctx.sig.len() {
        if is_method_call(ctx, si, "partial_cmp") {
            out.push(RawFinding::at(
                "AL002",
                ctx,
                si,
                "`partial_cmp` is not a total order (NaN breaks sorts non-deterministically); use `rank::by_score_then_id`, `rank::score_desc` or `rank::TopK`"
                    .into(),
            ));
        }
    }
}

// ---------------------------------------------------------------- AL003

/// The training engine — the only module allowed to own an epoch loop.
const AL003_EXEMPT: &str = "nn/src/train.rs";

fn al003_engine_owns_epochs(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if ctx.path.ends_with(AL003_EXEMPT) {
        return;
    }
    for si in 0..ctx.sig.len() {
        if !ctx.tok(si).is_ident("for") || ctx.is_test(si) {
            continue;
        }
        // Scan the loop header (pattern + iterator) up to its body brace.
        let mut j = si + 1;
        let mut hit = false;
        while j < ctx.sig.len() && j - si < 40 {
            let t = ctx.tok(j);
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.kind == TokenKind::Ident && t.text.to_lowercase().contains("epoch") {
                hit = true;
            }
            j += 1;
        }
        if hit {
            out.push(RawFinding::at(
                "AL003",
                ctx,
                si,
                "epoch loop outside the training engine; drive it through `Trainer::train` or `Trainer::run_raw` so the schedule and early stopping stay shared"
                    .into(),
            ));
        }
    }
}

// ---------------------------------------------------------------- AL004

/// A live `RwLock` guard binding.
struct Guard {
    receiver: String,
    name: String,
    line: u32,
}

fn al004_lock_discipline(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    let tree = block_tree(ctx);
    let mut live: Vec<Guard> = Vec::new();
    al004_block(ctx, &tree, &mut live, out);
    al004_hot_path_snapshot_reads(ctx, out);
}

/// Training hot-path files where per-op parameter guard reads are banned:
/// forward/backward passes run per example per epoch, so every
/// `Param::value()` there is a lock acquisition in the innermost loop.
const AL004_HOT_PATHS: &[&str] = &["nn/src/train.rs", "nn/src/graph.rs"];

/// The engine reads parameters through the graph's version-checked snapshot
/// cache (`Graph::snapshot_of`): one atomic version load per read, a lock
/// only when the optimizer has actually stepped. A raw `.value()` /
/// `.value_mut()` in the hot path reintroduces the per-op `RwLock` traffic
/// the snapshot-pointer scheme removed, so flag it like any other lock
/// misuse. (`Graph::value(id)` takes an argument and is not matched.)
fn al004_hot_path_snapshot_reads(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if !AL004_HOT_PATHS.iter().any(|p| ctx.path.ends_with(p)) {
        return;
    }
    for si in 0..ctx.sig.len() {
        if ctx.is_test(si) {
            continue;
        }
        for m in ["value", "value_mut"] {
            let is_guard_read = is_method_call(ctx, si, m)
                && si + 2 < ctx.sig.len()
                && ctx.tok(si + 2).is_punct(')');
            if is_guard_read {
                out.push(RawFinding::at(
                    "AL004",
                    ctx,
                    si,
                    format!(
                        "`.{m}()` takes a param lock in the training hot path; read through the version-checked snapshot cache (`Graph::snapshot_of`) instead"
                    ),
                ));
            }
        }
    }
}

/// Sig indices in `stmt` of empty-argument `.read()` / `.write()` calls.
fn lock_calls(ctx: &FileCtx, stmt: &[Piece]) -> Vec<usize> {
    let mut calls = Vec::new();
    for p in stmt {
        let Piece::Tok(si) = *p else { continue };
        let is_lock = (is_method_call(ctx, si, "read") || is_method_call(ctx, si, "write"))
            && si + 2 < ctx.sig.len()
            && ctx.tok(si + 2).is_punct(')');
        if is_lock {
            calls.push(si);
        }
    }
    calls
}

fn al004_block(ctx: &FileCtx, block: &Block, live: &mut Vec<Guard>, out: &mut Vec<RawFinding>) {
    let base = live.len();
    for stmt in statements(ctx, block) {
        let locks = lock_calls(ctx, &stmt);
        // (a) Two acquisitions in one statement: guard order is implicit in
        // expression evaluation order and deadlocks under contention.
        if locks.len() >= 2 {
            out.push(RawFinding::at(
                "AL004",
                ctx,
                locks[1],
                "multiple lock acquisitions in one statement; bind each guard separately in a fixed order"
                    .into(),
            ));
        }
        // (b) Acquisition while a guard on the same receiver is live — the
        // read-then-write upgrade pattern self-deadlocks.
        for &si in &locks {
            let recv = receiver_chain(ctx, si - 1);
            if recv.is_empty() {
                continue;
            }
            if let Some(g) = live.iter().find(|g| g.receiver == recv) {
                out.push(RawFinding::at(
                    "AL004",
                    ctx,
                    si,
                    format!(
                        "lock on `{recv}` acquired while guard `{}` (line {}) is still live; drop the first guard before re-locking",
                        g.name, g.line
                    ),
                ));
            }
        }
        // (c) Spawning threads with a guard held serializes (or deadlocks)
        // the workers the spawn was supposed to parallelize.
        if !live.is_empty() {
            for p in &stmt {
                let Piece::Tok(si) = *p else { continue };
                let t = ctx.tok(si);
                let spawns = (t.is_ident("spawn") || t.is_ident("scope"))
                    && si + 1 < ctx.sig.len()
                    && ctx.tok(si + 1).is_punct('(');
                if spawns {
                    let g = &live[live.len() - 1];
                    out.push(RawFinding::at(
                        "AL004",
                        ctx,
                        si,
                        format!(
                            "thread `{}` started while lock guard `{}` (line {}) is live; scope the guard so workers are not blocked",
                            t.text, g.name, g.line
                        ),
                    ));
                    break;
                }
            }
        }
        // `drop(g)` kills the binding.
        let toks: Vec<usize> = stmt
            .iter()
            .filter_map(|p| match p {
                Piece::Tok(si) => Some(*si),
                Piece::Child(_) => None,
            })
            .collect();
        for w in toks.windows(4) {
            if ctx.tok(w[0]).is_ident("drop")
                && ctx.tok(w[1]).is_punct('(')
                && ctx.tok(w[3]).is_punct(')')
            {
                let victim = &ctx.tok(w[2]).text;
                live.retain(|g| &g.name != victim);
            }
        }
        // Recurse into nested scopes with the current liveness.
        for p in &stmt {
            if let Piece::Child(c) = p {
                al004_block(ctx, &block.children[*c], live, out);
            }
        }
        // `let g = x.read();` starts a live guard. `let v = x.read().len();`
        // does not — the guard is a temporary dropped at the semicolon — so
        // the binding only counts when the lock call (give or take an
        // `unwrap`/`expect` of the poison result) ends the statement.
        let starts_let = toks.first().is_some_and(|&si| ctx.tok(si).is_ident("let"));
        if starts_let && !locks.is_empty() && guard_outlives_statement(ctx, locks[0]) {
            let mut name = None;
            for &si in toks.iter().skip(1) {
                let t = ctx.tok(si);
                if t.kind == TokenKind::Ident && t.text != "mut" {
                    name = Some(t.text.clone());
                    break;
                }
            }
            // `let _ = lock()` drops the guard immediately — not live.
            if let Some(name) = name.filter(|n| n != "_") {
                live.push(Guard {
                    receiver: receiver_chain(ctx, locks[0] - 1),
                    name,
                    line: ctx.tok(toks[0]).line,
                });
            }
        }
    }
    live.truncate(base);
}

/// After `lock_si`'s `.read()`/`.write()` call, does the statement end with
/// the guard still in hand? Trailing `.unwrap()` / `.expect(..)` /
/// `.unwrap_or_else(..)` keep the guard (they unwrap the poison `Result`);
/// any other method call consumes it into a temporary.
fn guard_outlives_statement(ctx: &FileCtx, lock_si: usize) -> bool {
    let mut j = lock_si + 3; // past `read` `(` `)`
    loop {
        let Some(t) = ctx.sig.get(j).map(|&ti| &ctx.toks[ti]) else {
            return true;
        };
        if t.is_punct(';') {
            return true;
        }
        let unwrapish = t.is_punct('.')
            && ctx
                .sig
                .get(j + 1)
                .map(|&ti| &ctx.toks[ti])
                .is_some_and(|n| {
                    n.kind == TokenKind::Ident
                        && (n.text.starts_with("unwrap") || n.text == "expect")
                });
        if !unwrapish {
            return false;
        }
        // Skip `.name ( .. )` with paren matching.
        j += 2;
        if !ctx
            .sig
            .get(j)
            .map(|&ti| &ctx.toks[ti])
            .is_some_and(|p| p.is_punct('('))
        {
            return false;
        }
        let mut depth = 1usize;
        j += 1;
        while depth > 0 {
            let Some(t2) = ctx.sig.get(j).map(|&ti| &ctx.toks[ti]) else {
                return false;
            };
            if t2.is_punct('(') {
                depth += 1;
            } else if t2.is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
    }
}

// ---------------------------------------------------------------- AL005

/// Files whose output must be byte-identical across runs.
const AL005_SCOPE: &[&str] = &[
    "core/src/snapshot/tsv.rs",
    "core/src/snapshot/binary.rs",
    "core/src/store.rs",
    "nn/src/persist.rs",
];

/// Methods that only exist on hash/ordered maps and sets.
const MAP_METHODS: &[&str] = &[
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Methods that iterate anything — flagged only on known hash bindings.
const ITER_METHODS: &[&str] = &["iter", "iter_mut", "into_iter"];

fn al005_canonical_iteration(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    if !AL005_SCOPE.iter().any(|s| ctx.path.ends_with(s)) {
        return;
    }
    for si in hash_iteration_sites(ctx, 0, ctx.sig.len(), |_| true) {
        out.push(RawFinding::at(
            "AL005",
            ctx,
            si,
            "iteration over a hash collection in serialization code without a canonical sort; collect and sort (or use a BTree map) so artifacts are byte-identical across runs"
                .into(),
        ));
    }
}

/// Sig indices in `[lo, hi)` where a hash collection is iterated without a
/// canonicalizing sort nearby — AL005's detector, exposed over a range so
/// the workspace summaries ([`crate::symbols`]) can apply it per function
/// in any file (AL009 generalizes the rule through the call graph). A
/// hash-typed binding counts only if `in_scope` holds for the sig index
/// of its declaration.
pub(crate) fn hash_iteration_sites(
    ctx: &FileCtx,
    lo: usize,
    hi: usize,
    in_scope: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let bindings: Vec<String> = hash_bindings(ctx)
        .into_iter()
        .filter_map(|(name, si)| in_scope(si).then_some(name))
        .collect();
    let mut out = Vec::new();
    for si in lo..hi.min(ctx.sig.len()) {
        if ctx.is_test(si) {
            continue;
        }
        let t = ctx.tok(si);
        let mut candidate = false;
        if MAP_METHODS.iter().any(|m| is_method_call(ctx, si, m)) {
            candidate = true;
        } else if ITER_METHODS.iter().any(|m| is_method_call(ctx, si, m)) {
            let recv = receiver_chain(ctx, si - 1);
            let last = recv.rsplit('.').next().unwrap_or("");
            candidate = bindings.iter().any(|b| b == last);
        } else if t.is_ident("for") {
            // `for k in map { .. }` / `for (k, v) in &map { .. }`
            let mut j = si + 1;
            let mut seen_in = false;
            while j < ctx.sig.len() && j - si < 40 {
                let h = ctx.tok(j);
                if h.is_punct('{') || h.is_punct(';') {
                    break;
                }
                if h.is_ident("in") {
                    seen_in = true;
                } else if seen_in
                    && h.kind == TokenKind::Ident
                    && bindings.iter().any(|b| b == &h.text)
                {
                    candidate = true;
                    break;
                }
                j += 1;
            }
        }
        if candidate && !sorted_nearby(ctx, si) {
            out.push(si);
        }
    }
    out
}

/// Names of `let` bindings / parameters / fields with a hash-collection
/// type mentioned at their declaration, each with the sig index of the
/// type's name.
fn hash_bindings(ctx: &FileCtx) -> Vec<(String, usize)> {
    const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
    let mut out = Vec::new();
    for si in 0..ctx.sig.len() {
        if !HASH_TYPES.iter().any(|h| ctx.tok(si).is_ident(h)) {
            continue;
        }
        // Walk left over the type path (`crate::util::FxHashMap`).
        let mut j = si;
        while j >= 3
            && ctx.tok(j - 1).is_punct(':')
            && ctx.tok(j - 2).is_punct(':')
            && ctx.tok(j - 3).kind == TokenKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        // Walk left over type wrappers to the annotation/assignment marker.
        let mut k = j - 1;
        let mut steps = 0;
        let name = loop {
            if steps > 10 {
                break None;
            }
            steps += 1;
            let t = ctx.tok(k);
            if t.is_punct('&')
                || t.is_punct('<')
                || t.is_ident("mut")
                || t.is_ident("dyn")
                || t.kind == TokenKind::Lifetime
            {
                if k == 0 {
                    break None;
                }
                k -= 1;
                continue;
            }
            if t.is_punct('>') {
                // `-> FxHashMap<..>` return type: no binding here.
                break None;
            }
            if t.is_punct(':') {
                if k >= 1 && ctx.tok(k - 1).is_punct(':') {
                    break None;
                }
                // `name: FxHashMap<..>` — param, field or annotated let.
                break (k >= 1 && ctx.tok(k - 1).kind == TokenKind::Ident)
                    .then(|| ctx.tok(k - 1).text.clone());
            }
            if t.is_punct('=') {
                // `let [mut] name = FxHashMap::default()` — find the `let`.
                let lo = k.saturating_sub(12);
                let let_si = (lo..k).rfind(|&m| ctx.tok(m).is_ident("let"));
                break let_si.and_then(|m| {
                    (m + 1..k)
                        .map(|n| ctx.tok(n))
                        .find(|t| t.kind == TokenKind::Ident && t.text != "mut")
                        .map(|t| t.text.clone())
                });
            }
            break None;
        };
        if let Some(n) = name {
            out.push((n, si));
        }
    }
    out
}

/// Whether a canonicalizing operation appears shortly after the iteration —
/// `.. .into_keys().collect(); result.sort();` style.
fn sorted_nearby(ctx: &FileCtx, si: usize) -> bool {
    (si..ctx.sig.len().min(si + 40)).any(|j| {
        let t = ctx.tok(j);
        t.kind == TokenKind::Ident
            && (t.text.starts_with("sort") || t.text.contains("BTree") || t.text == "TopK")
    })
}

// ---------------------------------------------------------------- AL006

fn al006_safety_comments(ctx: &FileCtx, out: &mut Vec<RawFinding>) {
    for si in 0..ctx.sig.len() {
        if !ctx.tok(si).is_ident("unsafe") {
            continue;
        }
        // Only `unsafe { .. }` blocks need a justification comment here;
        // `unsafe fn` / `unsafe impl` signatures document themselves.
        if si + 1 >= ctx.sig.len() || !ctx.tok(si + 1).is_punct('{') {
            continue;
        }
        let lo = if si == 0 { 0 } else { ctx.sig[si - 1] };
        let hi = ctx.sig[si];
        let justified = ctx.toks[lo..hi]
            .iter()
            .any(|t| t.kind == TokenKind::Comment && t.text.contains("SAFETY"));
        if !justified {
            out.push(RawFinding::at(
                "AL006",
                ctx,
                si,
                "`unsafe` block without a `// SAFETY:` comment stating why the invariants hold"
                    .into(),
            ));
        }
    }
}
