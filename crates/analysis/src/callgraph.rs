//! Workspace-level call graph and the three inter-procedural rules.
//!
//! Built from the per-file [`FileSummary`] artifacts ([`crate::symbols`]),
//! never from re-lexed source.
//!
//! The rules:
//!
//! - **AL007 panic-reachability** — public serving APIs (`pub fn` in
//!   `crates/apps/src`, `crates/core/src`, non-test) must not transitively
//!   reach a panic site (`unwrap`/`expect`/panicking macros/bare indexing)
//!   anywhere in the workspace. Sites *inside* the serving crates are
//!   AL001's jurisdiction (already fixed or explicitly vetted there);
//!   AL007 reports the ones hiding two crates away, with the full call
//!   chain so the fix site is obvious.
//! - **AL008 lock-order deadlock detection** — a global lock-acquisition
//!   graph over every `RwLock`/`Mutex` struct field: an edge `A → B` means
//!   some code path acquires `B` while holding `A` (directly, or through a
//!   call made with `A` held). Any cycle is a potential deadlock; the
//!   finding prints the conflicting chains.
//! - **AL009 nondeterminism escape** — AL005 generalized workspace-wide:
//!   un-canonicalized hash-collection iteration in any function reachable
//!   from a serialization routine or a public serving API is flagged (hash
//!   order would leak into artifacts or user-visible output), plus clock
//!   reads (`Instant::now`/`SystemTime::now`) outside `crates/obs` and the
//!   benchmarking crates.
//!
//! Name resolution is heuristic (`DESIGN.md` §10 documents the rules and
//! their blind spots); where the receiver type cannot be inferred the
//! resolver falls back to name matching, skipping method names that are
//! ambiguous across many types or too std-like to be informative.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::symbols::{CallKind, FileSummary, FnInfo, RecvHint};

/// A finding produced by a workspace-level rule, before fingerprinting.
#[derive(Clone, Debug)]
pub struct GlobalFinding {
    /// Rule id (`AL007`..`AL009`).
    pub rule: &'static str,
    /// Workspace-relative path of the *fix site*.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description, including the call chain.
    pub message: String,
    /// Trimmed source line at the site (carried by the summary).
    pub snippet: String,
}

/// One acquired-while-held edge in the global lock graph: some code path
/// acquires the `to` lock while holding `from`, at the recorded site.
#[derive(Clone, Debug)]
struct Edge {
    path: String,
    line: u32,
    col: u32,
    snippet: String,
    /// Human description of where the edge comes from, for cycle messages.
    via: String,
}

/// Render a cycle `trail` (distinct lock ids, in order) into one AL008
/// finding anchored at the first edge's acquisition site.
fn report_lock_cycle(
    trail: &[String],
    edges: &BTreeMap<(String, String), Edge>,
    out: &mut Vec<GlobalFinding>,
) {
    let mut chain_edges: Vec<(&String, &String, &Edge)> = Vec::new();
    for i in 0..trail.len() {
        let a = &trail[i];
        let b = &trail[(i + 1) % trail.len()];
        match edges.get(&(a.clone(), b.clone())) {
            Some(e) => chain_edges.push((a, b, e)),
            None => return, // stale trail; every hop must exist
        }
    }
    let Some((_, _, first)) = chain_edges.first() else {
        return;
    };
    let cycle = {
        let mut c: Vec<&str> = trail.iter().map(String::as_str).collect();
        c.push(&trail[0]);
        c.join(" -> ")
    };
    let hops = chain_edges
        .iter()
        .map(|(a, b, e)| format!("`{a}` -> `{b}` in {}", e.via))
        .collect::<Vec<_>>()
        .join("; ");
    out.push(GlobalFinding {
        rule: "AL008",
        path: first.path.clone(),
        line: first.line,
        col: first.col,
        message: format!(
            "lock-order cycle {cycle}: {hops}; acquire these locks in one global order"
        ),
        snippet: first.snippet.clone(),
    });
}

/// Serving crates whose public functions are AL007 entry points and whose
/// direct panic sites are AL001's jurisdiction.
const SERVING_SCOPE: &[&str] = &[
    "crates/ann/src/",
    "crates/apps/src/",
    "crates/core/src/",
    "crates/serve/src/",
];

/// Files inside [`SERVING_SCOPE`] whose public functions run when a
/// snapshot is *built*, never while a request is served (word2vec training
/// and HNSW construction behind `alicoco build --embeddings`): not AL007
/// entry points. Only the roots are excluded — AL001 still polices direct
/// panic sites in these files and AL009's sink roots are unchanged.
const BUILD_TIME: &[&str] = &["crates/ann/src/embed.rs"];

/// Serialization files — AL005's jurisdiction for direct sites, and AL009
/// sink roots for transitive ones.
const SERIALIZATION_SCOPE: &[&str] = &[
    "core/src/snapshot/tsv.rs",
    "core/src/snapshot/binary.rs",
    "core/src/store.rs",
    "nn/src/persist.rs",
];

/// Crates allowed to read the clock: the observability layer owns wall
/// time, and the benchmarking harnesses exist to measure it.
const CLOCK_EXEMPT: &[&str] = &["obs", "bench"];

/// Function-name prefixes treated as serialization sinks wherever they
/// live (their output is an artifact or user-visible document).
const SINK_NAME_PREFIXES: &[&str] = &["save", "export", "serialize", "to_json", "write_"];

/// Method names never resolved by bare-name fallback: they are defined on
/// many workspace types and/or shadow std methods, so a name-only match
/// would wire the graph with fictitious edges.
const FALLBACK_BLOCKLIST: &[&str] = &[
    "new",
    "default",
    "len",
    "is_empty",
    "clone",
    "iter",
    "into_iter",
    "next",
    "get",
    "push",
    "insert",
    "contains",
    "fmt",
    "from",
    "into",
    "eq",
    "cmp",
    "hash",
    "drop",
    "clear",
    "clamp",
    "reset",
    "item",
    "name",
    "index",
    "id",
    "min",
    "max",
];

/// Bare-name fallback gives up when a method name is defined on more than
/// this many distinct types — the candidates are then noise, not signal.
const FALLBACK_AMBIGUITY_LIMIT: usize = 3;

/// Chains in findings are truncated past this many hops.
const CHAIN_DISPLAY_LIMIT: usize = 10;

/// Crate name segment of a workspace-relative path (`crates/<name>/...`).
fn crate_of(p: &str) -> &str {
    p.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// Fields of one struct: `(name, type head, is lock-typed)` per field.
type FieldTable<'a> = Vec<(&'a str, &'a str, bool)>;

/// The resolved workspace: symbol tables plus the call adjacency.
pub struct CallGraph<'a> {
    files: &'a [FileSummary],
    /// `(file index, fn index)` per global fn id.
    fns: Vec<(usize, usize)>,
    /// Adjacency: per fn id, `(callee fn id, call-site line)`.
    edges: Vec<Vec<(usize, u32)>>,
    /// `(crate, struct name)` → field table. BTreeMap so cross-crate
    /// fallback scans in deterministic order.
    structs: BTreeMap<(&'a str, &'a str), FieldTable<'a>>,
    /// Crate → every type name it declares (struct/enum/trait/union).
    types: HashMap<&'a str, HashSet<&'a str>>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph from per-file summaries. `files` must be sorted by
    /// path (the caller's walk order) for deterministic ids.
    pub fn build(files: &'a [FileSummary]) -> Self {
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            if !f.is_src() {
                continue;
            }
            for (gi, _) in f.functions.iter().enumerate() {
                fns.push((fi, gi));
            }
        }
        let mut structs: BTreeMap<(&str, &str), FieldTable<'_>> = BTreeMap::new();
        let mut types: HashMap<&str, HashSet<&str>> = HashMap::new();
        for f in files {
            let krate = crate_of(&f.path);
            for s in &f.structs {
                structs.entry((krate, s.name.as_str())).or_default().extend(
                    s.fields
                        .iter()
                        .map(|(n, t, l)| (n.as_str(), t.as_str(), *l)),
                );
            }
            types
                .entry(krate)
                .or_default()
                .extend(f.types.iter().map(String::as_str));
        }
        // Lookup tables. Values stay in `fns` order → deterministic.
        let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut assoc: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut free: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, &(fi, gi)) in fns.iter().enumerate() {
            let f = &files[fi].functions[gi];
            match &f.self_type {
                Some(ty) => {
                    assoc
                        .entry((ty.as_str(), f.name.as_str()))
                        .or_default()
                        .push(id);
                    if f.has_self {
                        methods.entry(f.name.as_str()).or_default().push(id);
                    }
                }
                None => free.entry(f.name.as_str()).or_default().push(id),
            }
        }
        let mut graph = CallGraph {
            files,
            fns,
            edges: Vec::new(),
            structs,
            types,
        };
        let mut edges = Vec::with_capacity(graph.fns.len());
        for id in 0..graph.fns.len() {
            let caller = graph.fn_info(id);
            let caller_file = graph.files[graph.fns[id].0].path.clone();
            let mut out: Vec<(usize, u32)> = Vec::new();
            for call in &caller.calls {
                for callee in resolve(call, caller, &caller_file, &graph, &methods, &assoc, &free) {
                    if callee != id && !out.iter().any(|(c, _)| *c == callee) {
                        out.push((callee, call.line));
                    }
                }
            }
            edges.push(out);
        }
        graph.edges = edges;
        graph
    }

    fn fn_info(&self, id: usize) -> &'a FnInfo {
        let (fi, gi) = self.fns[id];
        &self.files[fi].functions[gi]
    }

    fn fn_path(&self, id: usize) -> &'a str {
        &self.files[self.fns[id].0].path
    }

    /// `Type::name` / `name` label for chain rendering.
    fn fn_label(&self, id: usize) -> String {
        let f = self.fn_info(id);
        match &f.self_type {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Whether `krate` declares a type named `ty`.
    fn crate_defines(&self, krate: &str, ty: &str) -> bool {
        self.types.get(krate).is_some_and(|set| set.contains(ty))
    }

    /// Head type of struct `ty`'s field `field`, with lock flag. Prefers
    /// the definition in `krate`; falls back to the first other crate
    /// declaring a struct `ty` with that field (BTreeMap order, so the
    /// fallback is deterministic).
    fn field_of(&self, krate: &str, ty: &str, field: &str) -> Option<(&'a str, bool)> {
        let find = |fs: &Vec<(&'a str, &'a str, bool)>| {
            fs.iter()
                .find(|(n, _, _)| *n == field)
                .map(|(_, t, l)| (*t, *l))
        };
        if let Some(hit) = self.structs.get(&(krate, ty)).and_then(find) {
            return Some(hit);
        }
        self.structs
            .iter()
            .filter(|((k, n), _)| *n == ty && *k != krate)
            .find_map(|(_, fs)| find(fs))
    }

    /// Canonical lock id for a normalized chain recorded in `fn_id`'s
    /// body: `Type.field`, or `None` when it cannot be pinned to a known
    /// `RwLock`/`Mutex` struct field.
    fn lock_id(&self, fn_id: usize, chain: &str) -> Option<String> {
        let f = self.fn_info(fn_id);
        let (base, rest) = chain.split_once('.')?;
        // Nested chains (`a.b.c`) are too deep for the heuristic.
        if rest.contains('.') {
            return None;
        }
        let ty: &str = if base == "<Self>" {
            f.self_type.as_deref()?
        } else {
            base.strip_prefix('<')?.strip_suffix('>')?
        };
        match self.field_of(crate_of(self.fn_path(fn_id)), ty, rest) {
            Some((_, true)) => Some(format!("{ty}.{rest}")),
            _ => None,
        }
    }

    /// Run the three workspace rules.
    pub fn run_rules(&self) -> Vec<GlobalFinding> {
        let mut out = Vec::new();
        self.al007_panic_reachability(&mut out);
        self.al008_lock_order(&mut out);
        self.al009_nondeterminism(&mut out);
        out
    }

    // ---------------------------------------------------------- AL007

    fn serving_entries(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&id| {
                let f = self.fn_info(id);
                let path = self.fn_path(id);
                f.is_pub
                    && !f.is_test
                    && SERVING_SCOPE.iter().any(|s| path.contains(s))
                    && !BUILD_TIME.iter().any(|s| path.ends_with(s))
            })
            .collect()
    }

    /// Multi-source BFS from `roots`; returns per-fn predecessor
    /// (`usize::MAX` for roots, absent for unreachable).
    fn bfs(&self, roots: &[usize]) -> HashMap<usize, usize> {
        let mut pred: HashMap<usize, usize> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if let std::collections::hash_map::Entry::Vacant(e) = pred.entry(r) {
                e.insert(usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &(callee, _) in &self.edges[id] {
                if !pred.contains_key(&callee) && !self.fn_info(callee).is_test {
                    pred.insert(callee, id);
                    queue.push_back(callee);
                }
            }
        }
        pred
    }

    /// Root → ... → `id` labels using BFS predecessors.
    fn chain_to(&self, pred: &HashMap<usize, usize>, id: usize) -> String {
        let mut labels = Vec::new();
        let mut cur = id;
        loop {
            labels.push(self.fn_label(cur));
            match pred.get(&cur) {
                Some(&p) if p != usize::MAX => cur = p,
                _ => break,
            }
        }
        labels.reverse();
        if labels.len() > CHAIN_DISPLAY_LIMIT {
            let tail = labels.split_off(labels.len() - 2);
            labels.truncate(CHAIN_DISPLAY_LIMIT - 3);
            labels.push("...".to_string());
            labels.extend(tail);
        }
        labels.join(" -> ")
    }

    fn al007_panic_reachability(&self, out: &mut Vec<GlobalFinding>) {
        let entries = self.serving_entries();
        let pred = self.bfs(&entries);
        let mut seen: HashSet<(String, u32, u32)> = HashSet::new();
        for (&id, _) in pred.iter() {
            let f = self.fn_info(id);
            let path = self.fn_path(id);
            // Direct sites in serving crates are AL001's jurisdiction.
            if SERVING_SCOPE.iter().any(|s| path.contains(s)) {
                continue;
            }
            for p in &f.panics {
                if !seen.insert((path.to_string(), p.line, p.col)) {
                    continue;
                }
                let chain = self.chain_to(&pred, id);
                out.push(GlobalFinding {
                    rule: "AL007",
                    path: path.to_string(),
                    line: p.line,
                    col: p.col,
                    message: format!(
                        "{} is reachable from a public serving API: {} -> [{}]; return an error or restructure so serving traffic cannot hit it",
                        p.what, chain, p.what
                    ),
                    snippet: p.snippet.clone(),
                });
            }
        }
        // Deterministic order regardless of HashMap iteration.
        out.sort_by(|a, b| {
            (a.rule, &a.path, a.line, a.col, &a.message)
                .cmp(&(b.rule, &b.path, b.line, b.col, &b.message))
        });
    }

    // ---------------------------------------------------------- AL008

    /// All lock ids a function may acquire, directly or transitively.
    fn trans_locks(&self) -> Vec<Vec<String>> {
        // Direct sets.
        let n = self.fns.len();
        let mut direct: Vec<Vec<String>> = Vec::with_capacity(n);
        for id in 0..n {
            let mut locks: Vec<String> = self
                .fn_info(id)
                .locks
                .iter()
                .filter_map(|a| self.lock_id(id, &a.chain))
                .collect();
            locks.sort();
            locks.dedup();
            direct.push(locks);
        }
        // Fixpoint over the call graph (workspace is small; iterate).
        let mut trans = direct.clone();
        loop {
            let mut changed = false;
            for id in 0..n {
                let mut add: Vec<String> = Vec::new();
                for &(callee, _) in &self.edges[id] {
                    for l in &trans[callee] {
                        if !trans[id].contains(l) && !add.contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    trans[id].extend(add);
                    trans[id].sort();
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        trans
    }

    fn al008_lock_order(&self, out: &mut Vec<GlobalFinding>) {
        let trans = self.trans_locks();
        let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
        let mut add_edge = |from: &str, to: &str, e: Edge| {
            if from != to {
                edges.entry((from.to_string(), to.to_string())).or_insert(e);
            }
        };
        for id in 0..self.fns.len() {
            let f = self.fn_info(id);
            if f.is_test {
                continue;
            }
            let path = self.fn_path(id);
            let label = self.fn_label(id);
            // Intra-procedural: acquisition with held locks.
            for acq in &f.locks {
                let Some(to) = self.lock_id(id, &acq.chain) else {
                    continue;
                };
                for h in &acq.held {
                    if let Some(from) = self.lock_id(id, h) {
                        add_edge(
                            &from,
                            &to,
                            Edge {
                                path: path.to_string(),
                                line: acq.site.line,
                                col: acq.site.col,
                                snippet: acq.site.snippet.clone(),
                                via: format!("{label} ({path}:{})", acq.site.line),
                            },
                        );
                    }
                }
            }
            // Inter-procedural: call with locks held → everything the
            // callee may acquire.
            for call in &f.calls {
                if call.held.is_empty() {
                    continue;
                }
                let held: Vec<String> = call
                    .held
                    .iter()
                    .filter_map(|h| self.lock_id(id, h))
                    .collect();
                if held.is_empty() {
                    continue;
                }
                for &(callee, line) in self.edges[id].iter().filter(|(_, l)| *l == call.line) {
                    for to in &trans[callee] {
                        for from in &held {
                            add_edge(
                                from,
                                to,
                                Edge {
                                    path: path.to_string(),
                                    line,
                                    col: 1,
                                    snippet: String::new(),
                                    via: format!(
                                        "{label} calls {} with `{from}` held ({path}:{line})",
                                        self.fn_label(callee)
                                    ),
                                },
                            );
                        }
                    }
                }
            }
        }
        // Cycle detection over the lock graph (deterministic: BTreeMap
        // keys are sorted, DFS explores successors in that order).
        let nodes: Vec<String> = {
            let mut set: Vec<String> = edges
                .keys()
                .flat_map(|(a, b)| [a.clone(), b.clone()])
                .collect();
            set.sort();
            set.dedup();
            set
        };
        let succ = |n: &str| -> Vec<String> {
            edges
                .keys()
                .filter(|(a, _)| a == n)
                .map(|(_, b)| b.clone())
                .collect()
        };
        let mut reported: HashSet<Vec<String>> = HashSet::new();
        for start in &nodes {
            // Bounded DFS looking for a cycle back to `start`; plenty at
            // this graph size.
            let mut stack = vec![(start.clone(), vec![start.clone()])];
            let mut guard = 0usize;
            while let Some((cur, trail)) = stack.pop() {
                guard += 1;
                if guard > 10_000 {
                    break;
                }
                for nxt in succ(&cur) {
                    if &nxt == start && trail.len() >= 2 {
                        let mut canon = trail.clone();
                        canon.sort();
                        if reported.insert(canon) {
                            report_lock_cycle(&trail, &edges, out);
                        }
                    } else if !trail.contains(&nxt) && trail.len() < 6 {
                        let mut t = trail.clone();
                        t.push(nxt.clone());
                        stack.push((nxt, t));
                    }
                }
            }
        }
        // Self-deadlock: an edge A → A means a path re-acquires a lock it
        // already holds (covered intra-file by AL004, so only the
        // inter-procedural shape lands here — add_edge drops `from == to`,
        // so detect it directly).
        for id in 0..self.fns.len() {
            let f = self.fn_info(id);
            if f.is_test {
                continue;
            }
            for call in &f.calls {
                let held: Vec<String> = call
                    .held
                    .iter()
                    .filter_map(|h| self.lock_id(id, h))
                    .collect();
                if held.is_empty() {
                    continue;
                }
                for &(callee, line) in self.edges[id].iter().filter(|(_, l)| *l == call.line) {
                    for to in &trans[callee] {
                        if held.contains(to) {
                            let path = self.fn_path(id);
                            out.push(GlobalFinding {
                                rule: "AL008",
                                path: path.to_string(),
                                line,
                                col: 1,
                                message: format!(
                                    "`{}` calls `{}` while holding `{to}`, and the callee (transitively) acquires `{to}` again — self-deadlock on a non-reentrant lock",
                                    self.fn_label(id),
                                    self.fn_label(callee),
                                ),
                                snippet: String::new(),
                            });
                        }
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------- AL009

    fn sink_roots(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&id| {
                let f = self.fn_info(id);
                if f.is_test {
                    return false;
                }
                let path = self.fn_path(id);
                let in_serialization = SERIALIZATION_SCOPE.iter().any(|s| path.ends_with(s));
                let sink_name = SINK_NAME_PREFIXES.iter().any(|p| f.name.starts_with(p));
                let serving_pub = f.is_pub && SERVING_SCOPE.iter().any(|s| path.contains(s));
                in_serialization || sink_name || serving_pub
            })
            .collect()
    }

    fn al009_nondeterminism(&self, out: &mut Vec<GlobalFinding>) {
        let sinks = self.sink_roots();
        let pred = self.bfs(&sinks);
        let mut hash_findings = Vec::new();
        for (&id, _) in pred.iter() {
            let f = self.fn_info(id);
            let path = self.fn_path(id);
            // Direct sites in serialization files are AL005's.
            if SERIALIZATION_SCOPE.iter().any(|s| path.ends_with(s)) {
                continue;
            }
            for site in &f.hash_iters {
                let chain = self.chain_to(&pred, id);
                hash_findings.push(GlobalFinding {
                    rule: "AL009",
                    path: path.to_string(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "hash-collection iteration without a canonical sort flows into serialized or user-visible output: {} -> [iteration]; sort (or use a BTree map) before the order escapes",
                        chain
                    ),
                    snippet: site.snippet.clone(),
                });
            }
        }
        hash_findings.sort_by(|a, b| {
            (&a.path, a.line, a.col, &a.message).cmp(&(&b.path, b.line, b.col, &b.message))
        });
        out.extend(hash_findings);
        // Clock reads outside the observability/benchmark crates.
        for id in 0..self.fns.len() {
            let f = self.fn_info(id);
            if f.is_test {
                continue;
            }
            let (fi, _) = self.fns[id];
            let file = &self.files[fi];
            if CLOCK_EXEMPT.contains(&file.crate_name()) {
                continue;
            }
            for site in &f.clock_reads {
                out.push(GlobalFinding {
                    rule: "AL009",
                    path: file.path.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "clock read in `{}` outside `crates/obs`; route timing through `obs::Stopwatch`/`SpanTimer` so wall time has one owner and stays out of deterministic paths",
                        self.fn_label(id)
                    ),
                    snippet: site.snippet.clone(),
                });
            }
        }
    }
}

/// Resolve one call site to candidate workspace functions.
fn resolve(
    call: &crate::symbols::CallSite,
    caller: &FnInfo,
    caller_file: &str,
    graph: &CallGraph,
    methods: &HashMap<&str, Vec<usize>>,
    assoc: &HashMap<(&str, &str), Vec<usize>>,
    free: &HashMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let name = call.name.as_str();
    let caller_crate = crate_of(caller_file);
    let prefer_same_crate = |cands: Vec<usize>| -> Vec<usize> {
        let same: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| crate_of(graph.fn_path(id)) == caller_crate)
            .collect();
        if same.is_empty() {
            cands
        } else {
            same
        }
    };
    // Distinct crates may define same-named types (`Store` is a trait in
    // `core` and a struct in `analysis`). When the caller's crate declares
    // a type with the receiver's name, methods on same-named types in
    // *other* crates are a different type entirely — matching them would
    // wire fictitious cross-crate edges, so resolution yields nothing
    // rather than lying. Otherwise the type is imported and the first
    // crates defining it are plausible homes.
    let by_type = |ty: &str| -> Vec<usize> {
        let cands = assoc.get(&(ty, name)).cloned().unwrap_or_default();
        if graph.crate_defines(caller_crate, ty) {
            cands
                .into_iter()
                .filter(|&id| crate_of(graph.fn_path(id)) == caller_crate)
                .collect()
        } else {
            prefer_same_crate(cands)
        }
    };
    match &call.kind {
        CallKind::Method => match &call.recv {
            RecvHint::SelfType => caller.self_type.as_deref().map(by_type).unwrap_or_default(),
            RecvHint::SelfField(field) => {
                let ty = caller
                    .self_type
                    .as_deref()
                    .and_then(|st| graph.field_of(caller_crate, st, field))
                    .map(|(t, _)| t);
                match ty {
                    Some(t) => by_type(t),
                    None => fallback(name, methods),
                }
            }
            RecvHint::Known(ty) => by_type(ty),
            RecvHint::Unknown => fallback(name, methods),
        },
        CallKind::Path(qual) => {
            if qual.chars().next().is_some_and(|c| c.is_uppercase()) {
                by_type(qual)
            } else {
                // Module-qualified free call: prefer functions defined in a
                // file whose stem matches the module name.
                let cands = free.get(name).cloned().unwrap_or_default();
                let stem: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| {
                        graph.fn_path(id).ends_with(&format!("/{qual}.rs"))
                            || graph.fn_path(id).ends_with(&format!("/{qual}/mod.rs"))
                    })
                    .collect();
                if stem.is_empty() {
                    cands
                } else {
                    stem
                }
            }
        }
        CallKind::Free => {
            let cands = free.get(name).cloned().unwrap_or_default();
            // Prefer same-file, then same-crate definitions.
            let same_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| graph.fn_path(id) == caller_file)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            prefer_same_crate(cands)
        }
    }
}

/// Name-only method fallback, guarded against std-alike and ambiguous
/// names.
fn fallback(name: &str, methods: &HashMap<&str, Vec<usize>>) -> Vec<usize> {
    if FALLBACK_BLOCKLIST.contains(&name) {
        return Vec::new();
    }
    let cands = methods.get(name).cloned().unwrap_or_default();
    if cands.len() > FALLBACK_AMBIGUITY_LIMIT {
        return Vec::new();
    }
    cands
}

/// Turn global findings into finalized [`crate::Finding`]s (fingerprint +
/// ordinal assignment, same identity scheme as the per-file rules).
pub fn finalize(findings: Vec<GlobalFinding>) -> Vec<crate::Finding> {
    let mut sorted = findings;
    sorted.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
    let mut ordinals: HashMap<(&'static str, String, String), u32> = HashMap::new();
    sorted
        .into_iter()
        .map(|g| {
            let ord = ordinals
                .entry((g.rule, g.path.clone(), g.snippet.clone()))
                .and_modify(|o| *o += 1)
                .or_insert(0);
            crate::Finding {
                fingerprint: crate::fingerprint(g.rule, &g.path, &g.snippet, *ord),
                rule: g.rule,
                path: g.path,
                line: g.line,
                col: g.col,
                message: g.message,
                snippet: g.snippet,
            }
        })
        .collect()
}

/// Run the workspace rules over summaries (sorted by path) and return
/// finalized findings.
pub fn run(summaries: &[FileSummary]) -> Vec<crate::Finding> {
    let graph = CallGraph::build(summaries);
    finalize(graph.run_rules())
}
