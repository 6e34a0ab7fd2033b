//! Per-file symbol extraction for the workspace-level analyses.
//!
//! The call-graph rules (AL007–AL009, see [`crate::callgraph`]) need more
//! than a token stream: they need to know, for every file, which functions
//! it defines, what those functions call, and where the "interesting"
//! sites are — panic sites, lock acquisitions, hash-collection iterations,
//! clock reads. This module computes exactly that into a [`FileSummary`],
//! a compact artifact: the whole-workspace phase runs over summaries only,
//! never re-lexing a file.
//!
//! Extraction is heuristic by design (there is no type checker here); the
//! heuristics and their blind spots are documented in `DESIGN.md` §10.

use crate::lexer::TokenKind;
use crate::parse::{block_tree, receiver_chain, statements, Block, FileCtx, Piece, KEYWORDS};
use crate::rules;

/// A source position plus the trimmed text of its line. Sites carry their
/// snippet so the workspace phase can fingerprint and render findings
/// without re-reading the source file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Trimmed source line the site points at.
    pub snippet: String,
    /// Short description of what sits here (`.unwrap()`, `panic!`, ...).
    pub what: String,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)` — a method call.
    Method,
    /// `Qual::name(..)` — a path call; the qualifier is the last path
    /// segment before the name (`TopK` in `rank::TopK::new`).
    Path(String),
    /// `name(..)` — a free function call.
    Free,
}

/// What we could infer about a method call's receiver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvHint {
    /// Receiver is `self`: the enclosing impl type.
    SelfType,
    /// Receiver is `self.<field>`: resolved via the struct table globally.
    SelfField(String),
    /// Receiver's type head was inferred locally (param / annotated let /
    /// constructor call).
    Known(String),
    /// No local inference succeeded; resolution falls back to name match.
    Unknown,
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Call shape.
    pub kind: CallKind,
    /// Receiver inference (only meaningful for [`CallKind::Method`]).
    pub recv: RecvHint,
    /// 1-based line of the callee name.
    pub line: u32,
    /// Normalized lock chains (see [`LockAcq::chain`]) held when the call
    /// is made — the raw material for interprocedural lock-order edges.
    pub held: Vec<String>,
}

/// One lock acquisition (`.read()` / `.write()` / `.lock()` with no
/// arguments, or a `*lock*`-named helper taking a lock field by
/// reference).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockAcq {
    /// Normalized receiver chain: `<Self>.field` for `self.field`,
    /// `<T>.field` when the base variable's type head `T` was inferred,
    /// otherwise the raw chain as written. The global phase maps chains to
    /// canonical `Type.field` lock ids via the struct table.
    pub chain: String,
    /// Source site of the acquisition.
    pub site: Site,
    /// Chains already held when this one is acquired.
    pub held: Vec<String>,
}

/// One function (or method) defined in a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type head, if any.
    pub self_type: Option<String>,
    /// Whether the function takes a `self` receiver.
    pub has_self: bool,
    /// Whether the item is `pub` (unrestricted; `pub(crate)` is not).
    pub is_pub: bool,
    /// Whether it sits inside a `#[test]` / `#[cfg(test)]` region.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Head type of the return type, if any (`-> Vec<Foo>` → `Vec`).
    pub ret_type: Option<String>,
    /// Calls made by the body (closure bodies included: a closure passed
    /// to `Trainer`/`thread::scope` runs on behalf of this function).
    pub calls: Vec<CallSite>,
    /// Panic sites in the body (unwrap/expect, panicking macros, bare
    /// indexing with the AL001 exemptions).
    pub panics: Vec<Site>,
    /// Lock acquisitions in the body, in source order.
    pub locks: Vec<LockAcq>,
    /// Hash-collection iterations with no canonicalizing sort nearby.
    pub hash_iters: Vec<Site>,
    /// Direct `Instant::now()` / `SystemTime::now()` reads.
    pub clock_reads: Vec<Site>,
}

/// A struct definition's lock-relevant shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructInfo {
    /// Struct name.
    pub name: String,
    /// `(field, type head, is_lock)` triples; `is_lock` is true when the
    /// declared type mentions `RwLock` or `Mutex`.
    pub fields: Vec<(String, String, bool)>,
}

/// Everything the workspace-level phase needs to know about one file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileSummary {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Functions defined in the file.
    pub functions: Vec<FnInfo>,
    /// Structs defined in the file.
    pub structs: Vec<StructInfo>,
    /// All type names the file declares (`struct`/`enum`/`trait`/`union`),
    /// sorted and deduplicated. Resolution uses these to tell whether a
    /// receiver type named `X` is the caller's own crate's `X` or an
    /// unrelated same-named type from another crate.
    pub types: Vec<String>,
}

impl FileSummary {
    /// Crate name segment of the path (`crates/<name>/...`), or `""`.
    pub fn crate_name(&self) -> &str {
        self.path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
    }

    /// Whether the file is crate source (not `tests/`, `benches/`,
    /// `examples/`). Only source files participate in the call graph.
    pub fn is_src(&self) -> bool {
        self.path.contains("/src/")
    }
}

/// Extract the summary for one file.
pub fn summarize(ctx: &FileCtx, src: &str) -> FileSummary {
    let lines: Vec<&str> = src.lines().collect();
    let site = |si: usize, what: &str| -> Site {
        let t = ctx.tok(si);
        Site {
            line: t.line,
            col: t.col,
            snippet: lines
                .get(t.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
            what: what.to_string(),
        }
    };
    let impls = impl_ranges(ctx);
    let structs = struct_infos(ctx);
    let fn_ranges = fn_body_ranges(ctx);
    let mut functions = Vec::new();
    for fr in &fn_ranges {
        let self_type = impls
            .iter()
            .find(|(open, close, _)| fr.fn_si > *open && fr.fn_si < *close)
            .map(|(_, _, ty)| ty.clone());
        let nested: Vec<(usize, usize)> = fn_ranges
            .iter()
            .filter(|o| o.fn_si > fr.body_open && o.body_close <= fr.body_close)
            .map(|o| (o.fn_si, o.body_close))
            .collect();
        let vars = local_types(ctx, fr, &structs);
        let mut info = FnInfo {
            name: fr.name.clone(),
            self_type,
            has_self: fr.has_self,
            is_pub: fr.is_pub,
            is_test: ctx.is_test(fr.fn_si),
            line: ctx.tok(fr.fn_si).line,
            ret_type: fr.ret_type.clone(),
            calls: Vec::new(),
            panics: Vec::new(),
            locks: Vec::new(),
            hash_iters: Vec::new(),
            clock_reads: Vec::new(),
        };
        let in_nested =
            |si: usize| -> bool { nested.iter().any(|(lo, hi)| si >= *lo && si <= *hi) };
        // Single pass over the body for calls, panics and clock reads.
        let mut si = fr.body_open + 1;
        while si < fr.body_close {
            if in_nested(si) {
                si += 1;
                continue;
            }
            if let Some(what) = panic_site_at(ctx, si) {
                info.panics.push(site(si, what));
            }
            if clock_read_at(ctx, si) {
                info.clock_reads.push(site(si, "clock read"));
            }
            if let Some(call) = call_at(ctx, si, &vars) {
                info.calls.push(call);
            }
            si += 1;
        }
        // Guard-liveness walk for lock acquisitions and held-at-call sets.
        let tree = block_tree(ctx);
        if let Some(body) = find_block(&tree, fr.body_open) {
            let mut live: Vec<(String, String)> = Vec::new();
            lock_walk(ctx, body, &vars, &mut live, &mut info, &site, &in_nested);
        }
        // Hash iteration without canonicalization (AL005 machinery,
        // generalized to every file). A name is hash-typed here if this
        // function declares it so, or something outside every function
        // does (a field, a static): another function's local of the same
        // name is another binding.
        let in_scope = |decl: usize| {
            let within = |o: &FnRange| (o.fn_si..=o.body_close).contains(&decl);
            within(fr) || !fn_ranges.iter().any(within)
        };
        for hit in rules::hash_iteration_sites(ctx, fr.body_open + 1, fr.body_close, in_scope) {
            if !in_nested(hit) {
                let s = site(hit, "hash iteration");
                // One statement can surface several candidate tokens (the
                // loop binding and the `.iter()`/`.drain()` call); one
                // finding per line is plenty.
                if info.hash_iters.last().map(|p| p.line) != Some(s.line) {
                    info.hash_iters.push(s);
                }
            }
        }
        functions.push(info);
    }
    FileSummary {
        path: ctx.path.to_string(),
        functions,
        structs,
        types: declared_types(ctx),
    }
}

/// Names of all `struct`/`enum`/`trait`/`union` declarations in the file.
fn declared_types(ctx: &FileCtx) -> Vec<String> {
    let n = ctx.sig.len();
    let mut out: Vec<String> = Vec::new();
    for si in 0..n {
        let t = ctx.tok(si);
        if !(t.is_ident("struct")
            || t.is_ident("enum")
            || t.is_ident("trait")
            || t.is_ident("union"))
        {
            continue;
        }
        if let Some(name) = (si + 1 < n).then(|| ctx.tok(si + 1)) {
            if name.kind == TokenKind::Ident && !KEYWORDS.contains(&name.text.as_str()) {
                out.push(name.text.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

// ------------------------------------------------------------- fn layout

struct FnRange {
    name: String,
    fn_si: usize,
    body_open: usize,
    body_close: usize,
    has_self: bool,
    is_pub: bool,
    ret_type: Option<String>,
    param_types: Vec<(String, String)>,
}

/// Locate every `fn` item with a body. Trait-method declarations (ending
/// in `;`) and `fn` pointer types (`fn(u32) -> u32`) are skipped.
fn fn_body_ranges(ctx: &FileCtx) -> Vec<FnRange> {
    let mut out = Vec::new();
    let n = ctx.sig.len();
    for si in 0..n {
        if !ctx.tok(si).is_ident("fn") {
            continue;
        }
        let Some(name_si) = (si + 1 < n).then_some(si + 1) else {
            continue;
        };
        let name_tok = ctx.tok(name_si);
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(..)` pointer type
        }
        // Skip generics to the parameter list.
        let mut j = name_si + 1;
        if j < n && ctx.tok(j).is_punct('<') {
            let mut depth = 1i32;
            j += 1;
            while j < n && depth > 0 {
                if ctx.tok(j).is_punct('<') {
                    depth += 1;
                } else if ctx.tok(j).is_punct('>') {
                    depth -= 1;
                }
                j += 1;
            }
        }
        if j >= n || !ctx.tok(j).is_punct('(') {
            continue;
        }
        let params_open = j;
        let mut depth = 1i32;
        j += 1;
        while j < n && depth > 0 {
            if ctx.tok(j).is_punct('(') {
                depth += 1;
            } else if ctx.tok(j).is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
        let params_close = j - 1;
        // Return type head, if present.
        let mut ret_type = None;
        let mut k = j;
        if k + 1 < n && ctx.tok(k).is_punct('-') && ctx.tok(k + 1).is_punct('>') {
            let mut ty = Vec::new();
            let mut m = k + 2;
            while m < n {
                let t = ctx.tok(m);
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                ty.push(m);
                m += 1;
            }
            ret_type = type_head(ctx, &ty);
            k = m;
        }
        // Find the body `{` (skipping a `where` clause), or bail on `;`.
        let mut body_open = None;
        while k < n {
            let t = ctx.tok(k);
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                body_open = Some(k);
                break;
            }
            k += 1;
        }
        let Some(body_open) = body_open else { continue };
        let mut d = 1i32;
        let mut m = body_open + 1;
        while m < n && d > 0 {
            if ctx.tok(m).is_punct('{') {
                d += 1;
            } else if ctx.tok(m).is_punct('}') {
                d -= 1;
            }
            m += 1;
        }
        let body_close = m.saturating_sub(1);
        let (has_self, param_types) = parse_params(ctx, params_open, params_close);
        let is_pub = (si >= 1 && ctx.tok(si - 1).is_ident("pub"))
            || (si >= 2
                && ctx.tok(si - 2).is_ident("pub")
                && matches!(
                    ctx.tok(si - 1).text.as_str(),
                    "const" | "unsafe" | "async" | "extern"
                ));
        out.push(FnRange {
            name: name_tok.text.clone(),
            fn_si: si,
            body_open,
            body_close,
            has_self,
            is_pub,
            ret_type,
            param_types,
        });
    }
    out
}

/// `(has_self, [(param name, type head)])` from a parameter list.
fn parse_params(ctx: &FileCtx, open: usize, close: usize) -> (bool, Vec<(String, String)>) {
    let mut has_self = false;
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    let mut i = open + 1;
    while i <= close {
        let t = ctx.tok(i);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        }
        let ends = (t.is_punct(',') && depth == 0) || i == close;
        if ends {
            let hi = i;
            if start < hi {
                let toks: Vec<usize> = (start..hi).collect();
                if toks.iter().any(|&k| ctx.tok(k).is_ident("self")) && params.is_empty() {
                    has_self = true;
                } else {
                    // `name: Type`
                    let colon = toks.iter().position(|&k| ctx.tok(k).is_punct(':'));
                    if let Some(c) = colon {
                        if c >= 1 && ctx.tok(toks[c - 1]).kind == TokenKind::Ident {
                            let name = ctx.tok(toks[c - 1]).text.clone();
                            if let Some(head) = type_head(ctx, &toks[c + 1..]) {
                                params.push((name, head));
                            }
                        }
                    }
                }
            }
            start = i + 1;
        }
        i += 1;
    }
    (has_self, params)
}

/// Head type of a type token run: skips references, `mut`, lifetimes,
/// `dyn`/`impl`, descends through `Arc`/`Rc`/`Box`, and takes the last
/// segment of the first path (`alicoco::query::QueryIndex` → `QueryIndex`,
/// `Arc<RwLock<Tensor>>` → `RwLock`).
pub(crate) fn type_head(ctx: &FileCtx, toks: &[usize]) -> Option<String> {
    let mut i = 0;
    while i < toks.len() {
        let t = ctx.tok(toks[i]);
        if t.is_punct('&')
            || t.is_punct('*')
            || t.is_ident("mut")
            || t.is_ident("const")
            || t.is_ident("dyn")
            || t.is_ident("impl")
            || t.kind == TokenKind::Lifetime
        {
            i += 1;
            continue;
        }
        break;
    }
    // Collect the path `a :: b :: C`.
    let mut last: Option<String> = None;
    while i < toks.len() {
        let t = ctx.tok(toks[i]);
        if t.kind == TokenKind::Ident {
            last = Some(t.text.clone());
            i += 1;
            if i + 1 < toks.len()
                && ctx.tok(toks[i]).is_punct(':')
                && ctx.tok(toks[i + 1]).is_punct(':')
            {
                i += 2;
                continue;
            }
            break;
        }
        return None;
    }
    let head = last?;
    if matches!(head.as_str(), "Arc" | "Rc" | "Box" | "Option") {
        // Descend into the wrapper's first type argument.
        if i < toks.len() && ctx.tok(toks[i]).is_punct('<') {
            let mut depth = 1i32;
            let mut inner = Vec::new();
            let mut j = i + 1;
            while j < toks.len() && depth > 0 {
                let t = ctx.tok(toks[j]);
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                } else if t.is_punct(',') && depth == 1 {
                    break;
                }
                if depth > 0 {
                    inner.push(toks[j]);
                }
                j += 1;
            }
            if let Some(h) = type_head(ctx, &inner) {
                return Some(h);
            }
        }
    }
    Some(head)
}

// ------------------------------------------------------------ impl/struct

/// `(open brace si, close si, type head)` for every `impl` item.
fn impl_ranges(ctx: &FileCtx) -> Vec<(usize, usize, String)> {
    let n = ctx.sig.len();
    let mut out = Vec::new();
    for si in 0..n {
        if !ctx.tok(si).is_ident("impl") {
            continue;
        }
        // Skip generics.
        let mut j = si + 1;
        if j < n && ctx.tok(j).is_punct('<') {
            let mut depth = 1i32;
            j += 1;
            while j < n && depth > 0 {
                if ctx.tok(j).is_punct('<') {
                    depth += 1;
                } else if ctx.tok(j).is_punct('>') {
                    depth -= 1;
                }
                j += 1;
            }
        }
        // Collect path tokens up to `{`, `for`, or `where`; if `for`
        // appears, the type is what follows it.
        let mut ty_toks: Vec<usize> = Vec::new();
        let mut body_open = None;
        while j < n {
            let t = ctx.tok(j);
            if t.is_punct('{') {
                body_open = Some(j);
                break;
            }
            if t.is_ident("for") {
                ty_toks.clear();
            } else if t.is_ident("where") {
                // Type is already collected; scan on for the brace.
            } else {
                ty_toks.push(j);
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let Some(head) = type_head(ctx, &ty_toks) else {
            continue;
        };
        let mut d = 1i32;
        let mut m = open + 1;
        while m < n && d > 0 {
            if ctx.tok(m).is_punct('{') {
                d += 1;
            } else if ctx.tok(m).is_punct('}') {
                d -= 1;
            }
            m += 1;
        }
        out.push((open, m.saturating_sub(1), head));
    }
    out
}

/// Struct definitions with named fields and their type heads.
fn struct_infos(ctx: &FileCtx) -> Vec<StructInfo> {
    let n = ctx.sig.len();
    let mut out = Vec::new();
    for si in 0..n {
        if !ctx.tok(si).is_ident("struct") || si + 1 >= n {
            continue;
        }
        let name_tok = ctx.tok(si + 1);
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Skip generics, find `{` (tuple structs / unit structs skipped).
        let mut j = si + 2;
        if j < n && ctx.tok(j).is_punct('<') {
            let mut depth = 1i32;
            j += 1;
            while j < n && depth > 0 {
                if ctx.tok(j).is_punct('<') {
                    depth += 1;
                } else if ctx.tok(j).is_punct('>') {
                    depth -= 1;
                }
                j += 1;
            }
        }
        while j < n && ctx.tok(j).is_ident("where") {
            // `struct S<T> where T: X { .. }` — scan to the brace.
            while j < n && !ctx.tok(j).is_punct('{') {
                j += 1;
            }
        }
        if j >= n || !ctx.tok(j).is_punct('{') {
            continue;
        }
        let open = j;
        let mut d = 1i32;
        let mut m = open + 1;
        while m < n && d > 0 {
            if ctx.tok(m).is_punct('{') {
                d += 1;
            } else if ctx.tok(m).is_punct('}') {
                d -= 1;
            }
            m += 1;
        }
        let close = m.saturating_sub(1);
        let mut fields = Vec::new();
        // Fields: `name: Type,` at depth 0 inside the braces.
        let mut depth = 0i32;
        let mut k = open + 1;
        let mut field_start = open + 1;
        while k <= close {
            let t = ctx.tok(k);
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') || t.is_punct('}') {
                depth -= 1;
            }
            if (t.is_punct(',') && depth == 0) || k == close {
                let toks: Vec<usize> = (field_start..k).collect();
                let colon = toks.iter().position(|&x| {
                    ctx.tok(x).is_punct(':')
                        && toks
                            .iter()
                            .position(|&y| y == x + 1)
                            .map(|p| !ctx.tok(toks[p]).is_punct(':'))
                            .unwrap_or(true)
                        && (x == 0 || !ctx.tok(x - 1).is_punct(':'))
                });
                if let Some(c) = colon {
                    if c >= 1 && ctx.tok(toks[c - 1]).kind == TokenKind::Ident {
                        let fname = ctx.tok(toks[c - 1]).text.clone();
                        let ty = &toks[c + 1..];
                        let is_lock = ty.iter().any(|&x| {
                            ctx.tok(x).is_ident("RwLock") || ctx.tok(x).is_ident("Mutex")
                        });
                        if let Some(head) = type_head(ctx, ty) {
                            fields.push((fname, head, is_lock));
                        }
                    }
                }
                field_start = k + 1;
            }
            k += 1;
        }
        out.push(StructInfo {
            name: name_tok.text.clone(),
            fields,
        });
    }
    out
}

// ----------------------------------------------------------- local types

/// Variable → type-head map for one function: parameters plus `let`
/// bindings with an annotation or a `Type::ctor(..)` / `Type { .. }`
/// initializer.
fn local_types(ctx: &FileCtx, fr: &FnRange, _structs: &[StructInfo]) -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = fr.param_types.clone();
    let n = fr.body_close;
    let mut si = fr.body_open + 1;
    while si < n {
        if ctx.tok(si).is_ident("let") && si + 1 < n {
            // `let [mut] name`
            let mut j = si + 1;
            if ctx.tok(j).is_ident("mut") {
                j += 1;
            }
            if j < n && ctx.tok(j).kind == TokenKind::Ident {
                let name = ctx.tok(j).text.clone();
                let mut head = None;
                if j + 1 < n && ctx.tok(j + 1).is_punct(':') {
                    // Annotated: collect type tokens to `=` or `;`.
                    let mut ty = Vec::new();
                    let mut m = j + 2;
                    let mut depth = 0i32;
                    while m < n {
                        let t = ctx.tok(m);
                        if t.is_punct('<') {
                            depth += 1;
                        } else if t.is_punct('>') {
                            depth -= 1;
                        }
                        if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                            break;
                        }
                        ty.push(m);
                        m += 1;
                    }
                    head = type_head(ctx, &ty);
                } else if j + 1 < n && ctx.tok(j + 1).is_punct('=') {
                    // `let x = Type::ctor(..)` or `let x = Type { .. }`.
                    let mut m = j + 2;
                    let mut path_last = None;
                    while m < n && ctx.tok(m).kind == TokenKind::Ident {
                        path_last = Some(ctx.tok(m).text.clone());
                        if m + 2 < n && ctx.tok(m + 1).is_punct(':') && ctx.tok(m + 2).is_punct(':')
                        {
                            m += 3;
                        } else {
                            m += 1;
                            break;
                        }
                    }
                    if let Some(last) = path_last {
                        let starts_upper = last.chars().next().is_some_and(|c| c.is_uppercase());
                        if starts_upper && m < n && ctx.tok(m).is_punct('{') {
                            head = Some(last);
                        } else if m < n && ctx.tok(m).is_punct('(') {
                            // `Type::ctor(..)`: the *qualifier* is the type.
                            // Re-scan to find the segment before the final one.
                            let mut segs = Vec::new();
                            let mut q = j + 2;
                            while q < m {
                                if ctx.tok(q).kind == TokenKind::Ident {
                                    segs.push(ctx.tok(q).text.clone());
                                }
                                q += 1;
                            }
                            if segs.len() >= 2 {
                                let qual = &segs[segs.len() - 2];
                                if qual.chars().next().is_some_and(|c| c.is_uppercase()) {
                                    head = Some(qual.clone());
                                }
                            }
                        }
                    }
                }
                if let Some(h) = head {
                    vars.retain(|(v, _)| v != &name);
                    vars.push((name, h));
                }
            }
        }
        si += 1;
    }
    vars
}

// ------------------------------------------------------------ site scans

/// Method names whose empty-arg call is a lock acquisition.
const LOCK_METHODS: &[&str] = &["read", "write", "lock"];

/// Panic-site detection shared with AL001: `.unwrap()` / `.expect(`,
/// panicking macros, or bare indexing (typed-id and `[..]` exempt).
fn panic_site_at(ctx: &FileCtx, si: usize) -> Option<&'static str> {
    if rules::is_method_call(ctx, si, "unwrap") {
        return Some(".unwrap()");
    }
    if rules::is_method_call(ctx, si, "expect") {
        return Some(".expect(..)");
    }
    for m in ["panic", "unreachable", "todo", "unimplemented"] {
        if rules::is_macro_call(ctx, si, m) {
            return match m {
                "panic" => Some("panic!"),
                "unreachable" => Some("unreachable!"),
                "todo" => Some("todo!"),
                _ => Some("unimplemented!"),
            };
        }
    }
    if rules::bare_index_site(ctx, si) {
        return Some("bare indexing");
    }
    None
}

/// `Instant::now()` / `SystemTime::now()` at `si` (pointing at `now`).
fn clock_read_at(ctx: &FileCtx, si: usize) -> bool {
    if !ctx.tok(si).is_ident("now") {
        return false;
    }
    if si + 1 >= ctx.sig.len() || !ctx.tok(si + 1).is_punct('(') {
        return false;
    }
    if si < 3 {
        return false;
    }
    let qual_ok = ctx.tok(si - 1).is_punct(':')
        && ctx.tok(si - 2).is_punct(':')
        && (ctx.tok(si - 3).is_ident("Instant") || ctx.tok(si - 3).is_ident("SystemTime"));
    qual_ok
}

/// Parse the call at `si` (pointing at an ident), if any.
fn call_at(ctx: &FileCtx, si: usize, vars: &[(String, String)]) -> Option<CallSite> {
    let t = ctx.tok(si);
    if t.kind != TokenKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    let n = ctx.sig.len();
    if si + 1 >= n {
        return None;
    }
    // Macro invocations are not calls.
    if ctx.tok(si + 1).is_punct('!') {
        return None;
    }
    // `name::<T>(..)` turbofish: allow `::<..>` between name and `(`.
    let mut open = si + 1;
    if open + 1 < n && ctx.tok(open).is_punct(':') && ctx.tok(open + 1).is_punct(':') {
        if open + 2 < n && ctx.tok(open + 2).is_punct('<') {
            let mut depth = 1i32;
            let mut j = open + 3;
            while j < n && depth > 0 {
                if ctx.tok(j).is_punct('<') {
                    depth += 1;
                } else if ctx.tok(j).is_punct('>') {
                    depth -= 1;
                }
                j += 1;
            }
            open = j;
        } else {
            return None; // `name::more` — path continues, not the callee.
        }
    }
    if open >= n || !ctx.tok(open).is_punct('(') {
        return None;
    }
    // Definition, not call.
    if si >= 1 && ctx.tok(si - 1).is_ident("fn") {
        return None;
    }
    let line = t.line;
    if si >= 1 && ctx.tok(si - 1).is_punct('.') {
        // Method call: infer the receiver.
        let chain = receiver_chain(ctx, si - 1);
        let recv = recv_hint(&chain, vars);
        return Some(CallSite {
            name: t.text.clone(),
            kind: CallKind::Method,
            recv,
            line,
            held: Vec::new(),
        });
    }
    if si >= 3 && ctx.tok(si - 1).is_punct(':') && ctx.tok(si - 2).is_punct(':') {
        let qual = ctx.tok(si - 3);
        if qual.kind == TokenKind::Ident {
            return Some(CallSite {
                name: t.text.clone(),
                kind: CallKind::Path(qual.text.clone()),
                recv: RecvHint::Unknown,
                line,
                held: Vec::new(),
            });
        }
        return None;
    }
    Some(CallSite {
        name: t.text.clone(),
        kind: CallKind::Free,
        recv: RecvHint::Unknown,
        line,
        held: Vec::new(),
    })
}

/// Receiver inference from a dotted chain and the local var table.
fn recv_hint(chain: &str, vars: &[(String, String)]) -> RecvHint {
    if chain.is_empty() {
        return RecvHint::Unknown;
    }
    let mut segs = chain.split('.');
    let base = segs.next().unwrap_or("");
    let rest: Vec<&str> = segs.collect();
    if base == "self" {
        return match rest.len() {
            0 => RecvHint::SelfType,
            1 => RecvHint::SelfField(rest[0].to_string()),
            _ => RecvHint::Unknown,
        };
    }
    if rest.is_empty() {
        if let Some((_, ty)) = vars.iter().find(|(v, _)| v == base) {
            return RecvHint::Known(ty.clone());
        }
    }
    RecvHint::Unknown
}

/// Normalize a lock receiver chain: `self.f` → `<Self>.f`; `x.f` with `x`
/// locally typed `T` → `<T>.f`; otherwise the raw chain.
fn normalize_lock_chain(chain: &str, vars: &[(String, String)]) -> String {
    let mut segs: Vec<&str> = chain.split('.').filter(|s| !s.is_empty()).collect();
    if segs.is_empty() {
        return chain.to_string();
    }
    if segs[0] == "self" {
        segs[0] = "<Self>";
        return segs.join(".");
    }
    if let Some((_, ty)) = vars.iter().find(|(v, _)| v == segs[0]) {
        let owned = format!("<{ty}>");
        let mut out = vec![owned];
        out.extend(segs[1..].iter().map(|s| s.to_string()));
        return out.join(".");
    }
    segs.join(".")
}

fn find_block(tree: &Block, open: usize) -> Option<&Block> {
    if tree.open == Some(open) {
        return Some(tree);
    }
    for c in &tree.children {
        if let Some(b) = find_block(c, open) {
            return Some(b);
        }
    }
    None
}

/// Walk a function body's block tree tracking live lock guards, recording
/// acquisitions (with held-sets) and annotating call sites with the locks
/// held when they run.
#[allow(clippy::too_many_arguments)]
fn lock_walk(
    ctx: &FileCtx,
    block: &Block,
    vars: &[(String, String)],
    live: &mut Vec<(String, String)>, // (guard binding name, lock chain)
    info: &mut FnInfo,
    site: &dyn Fn(usize, &str) -> Site,
    in_nested: &dyn Fn(usize) -> bool,
) {
    let base = live.len();
    for stmt in statements(ctx, block) {
        let toks: Vec<usize> = stmt
            .iter()
            .filter_map(|p| match p {
                Piece::Tok(si) => Some(*si),
                Piece::Child(_) => None,
            })
            .collect();
        // Temporaries acquired in this statement (held to end of stmt).
        let mut stmt_held: Vec<String> = Vec::new();
        for &si in &toks {
            if in_nested(si) {
                continue;
            }
            // Direct lock acquisition: `.read()` / `.write()` / `.lock()`.
            let direct = LOCK_METHODS.iter().find(|m| {
                rules::is_method_call(ctx, si, m)
                    && si + 2 < ctx.sig.len()
                    && ctx.tok(si + 2).is_punct(')')
            });
            // Helper-mediated: `read_lock(&self.value)` — a free call whose
            // name mentions `lock` taking a field chain by reference.
            let helper = helper_lock_arg(ctx, si);
            let chain = if direct.is_some() {
                let c = receiver_chain(ctx, si - 1);
                (!c.is_empty()).then(|| normalize_lock_chain(&c, vars))
            } else {
                helper.map(|c| normalize_lock_chain(&c, vars))
            };
            if let Some(chain) = chain {
                let mut held: Vec<String> = live.iter().map(|(_, c)| c.clone()).collect();
                held.extend(stmt_held.iter().cloned());
                held.retain(|h| h != &chain);
                info.locks.push(LockAcq {
                    chain: chain.clone(),
                    site: site(si, "lock acquisition"),
                    held,
                });
                stmt_held.push(chain);
            }
            // Annotate call sites with held locks (match by line + name).
            if let Some(c) = call_at(ctx, si, vars) {
                let mut held: Vec<String> = live.iter().map(|(_, ch)| ch.clone()).collect();
                held.extend(stmt_held.iter().cloned());
                if !held.is_empty() {
                    if let Some(existing) = info
                        .calls
                        .iter_mut()
                        .find(|e| e.line == c.line && e.name == c.name && e.held.is_empty())
                    {
                        existing.held = held;
                    }
                }
            }
        }
        // `drop(g)` kills a guard.
        for w in toks.windows(4) {
            if ctx.tok(w[0]).is_ident("drop")
                && ctx.tok(w[1]).is_punct('(')
                && ctx.tok(w[3]).is_punct(')')
            {
                let victim = &ctx.tok(w[2]).text;
                live.retain(|(g, _)| g != victim);
            }
        }
        // Recurse with current liveness.
        for p in &stmt {
            if let Piece::Child(c) = p {
                lock_walk(ctx, &block.children[*c], vars, live, info, site, in_nested);
            }
        }
        // `let g = <acquisition>;` with the guard outliving the statement
        // starts a live guard.
        let starts_let = toks.first().is_some_and(|&si| ctx.tok(si).is_ident("let"));
        if starts_let && !stmt_held.is_empty() {
            // Find the acquisition site again to test guard survival.
            let acq_si = toks.iter().copied().find(|&si| {
                LOCK_METHODS
                    .iter()
                    .any(|m| rules::is_method_call(ctx, si, m))
                    || helper_lock_arg(ctx, si).is_some()
            });
            let outlives = acq_si.is_some_and(|si| guard_survives(ctx, si));
            if outlives {
                let name = toks
                    .iter()
                    .skip(1)
                    .map(|&si| ctx.tok(si))
                    .find(|t| t.kind == TokenKind::Ident && t.text != "mut")
                    .map(|t| t.text.clone());
                if let Some(name) = name.filter(|n| n != "_") {
                    live.push((name, stmt_held[0].clone()));
                }
            }
        }
    }
    live.truncate(base);
}

/// For a free call at `si` whose name mentions "lock", the dotted chain of
/// a `&chain` / `&mut chain` argument (the lock being acquired on the
/// caller's behalf), if the argument is a simple field chain.
fn helper_lock_arg(ctx: &FileCtx, si: usize) -> Option<String> {
    let t = ctx.tok(si);
    if t.kind != TokenKind::Ident || !t.text.contains("lock") || KEYWORDS.contains(&t.text.as_str())
    {
        return None;
    }
    if si >= 1 && (ctx.tok(si - 1).is_punct('.') || ctx.tok(si - 1).is_ident("fn")) {
        return None;
    }
    if si + 1 >= ctx.sig.len() || !ctx.tok(si + 1).is_punct('(') {
        return None;
    }
    // Expect `( & [mut] ident (. ident)* )`.
    let n = ctx.sig.len();
    let mut j = si + 2;
    if j < n && ctx.tok(j).is_punct('&') {
        j += 1;
    }
    if j < n && ctx.tok(j).is_ident("mut") {
        j += 1;
    }
    let mut parts = Vec::new();
    while j < n {
        let t = ctx.tok(j);
        if t.kind == TokenKind::Ident {
            parts.push(t.text.clone());
            j += 1;
            if j < n && ctx.tok(j).is_punct('.') {
                j += 1;
                continue;
            }
            break;
        }
        return None;
    }
    if j >= n || !ctx.tok(j).is_punct(')') || parts.is_empty() {
        return None;
    }
    Some(parts.join("."))
}

/// After the acquisition at `si`, does the guard survive the statement?
/// (Same rule as AL004: only trailing `unwrap`-family calls keep it.)
fn guard_survives(ctx: &FileCtx, si: usize) -> bool {
    // Find the end of this call: name [args] `)`.
    let n = ctx.sig.len();
    let mut j = si + 1;
    if j >= n || !ctx.tok(j).is_punct('(') {
        return false;
    }
    let mut depth = 1i32;
    j += 1;
    while j < n && depth > 0 {
        if ctx.tok(j).is_punct('(') {
            depth += 1;
        } else if ctx.tok(j).is_punct(')') {
            depth -= 1;
        }
        j += 1;
    }
    loop {
        let Some(t) = (j < n).then(|| ctx.tok(j)) else {
            return true;
        };
        if t.is_punct(';') {
            return true;
        }
        let unwrapish = t.is_punct('.')
            && (j + 1 < n)
            && ctx.tok(j + 1).kind == TokenKind::Ident
            && (ctx.tok(j + 1).text.starts_with("unwrap") || ctx.tok(j + 1).text == "expect");
        if !unwrapish {
            return false;
        }
        j += 2;
        if j >= n || !ctx.tok(j).is_punct('(') {
            return false;
        }
        let mut d = 1i32;
        j += 1;
        while j < n && d > 0 {
            if ctx.tok(j).is_punct('(') {
                d += 1;
            } else if ctx.tok(j).is_punct(')') {
                d -= 1;
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn summary(src: &str) -> FileSummary {
        let toks = lex(src);
        let ctx = FileCtx::new("crates/x/src/a.rs", &toks);
        summarize(&ctx, src)
    }

    #[test]
    fn extracts_fns_methods_and_visibility() {
        let s = summary(
            r#"
            pub fn free(x: u32) -> u32 { x }
            struct S { v: Vec<u32> }
            impl S {
                pub fn m(&self) -> u32 { self.helper() }
                fn helper(&self) -> u32 { 1 }
            }
            "#,
        );
        assert_eq!(s.functions.len(), 3);
        assert!(s.functions[0].is_pub && s.functions[0].self_type.is_none());
        assert_eq!(s.functions[1].self_type.as_deref(), Some("S"));
        assert!(s.functions[1].has_self);
        assert!(!s.functions[2].is_pub);
        assert_eq!(s.functions[1].calls.len(), 1);
        assert_eq!(s.functions[1].calls[0].recv, RecvHint::SelfType);
    }

    #[test]
    fn panic_sites_include_closures() {
        let s = summary(
            r#"
            fn runs_workers(xs: &[u32]) {
                std::thread::scope(|sc| {
                    sc.spawn(|| xs.first().unwrap());
                });
            }
            "#,
        );
        let f = &s.functions[0];
        assert_eq!(f.panics.len(), 1);
        assert_eq!(f.panics[0].what, ".unwrap()");
    }

    #[test]
    fn nested_fn_sites_are_not_double_counted() {
        let s = summary(
            r#"
            fn outer() {
                fn inner(v: &[u32]) -> u32 { v.first().unwrap() }
                inner(&[1]);
            }
            "#,
        );
        let outer = s.functions.iter().find(|f| f.name == "outer").unwrap();
        let inner = s.functions.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.panics.is_empty());
        assert_eq!(inner.panics.len(), 1);
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn receiver_types_from_params_lets_and_ctors() {
        let s = summary(
            r#"
            fn f(idx: QueryIndex) {
                idx.lookup();
                let t: Tensor = make();
                t.shape();
                let k = TopK::new(5);
                k.push();
            }
            "#,
        );
        let calls = &s.functions[0].calls;
        let recv = |name: &str| {
            calls
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.recv.clone())
                .unwrap()
        };
        assert_eq!(recv("lookup"), RecvHint::Known("QueryIndex".into()));
        assert_eq!(recv("shape"), RecvHint::Known("Tensor".into()));
        assert_eq!(recv("push"), RecvHint::Known("TopK".into()));
    }

    #[test]
    fn lock_fields_and_acquisition_order() {
        let s = summary(
            r#"
            struct Pair { a: RwLock<u32>, b: Mutex<u32> }
            impl Pair {
                fn ab(&self) {
                    let ga = self.a.read();
                    let gb = self.b.lock();
                    use_both(&ga, &gb);
                }
            }
            "#,
        );
        let st = &s.structs[0];
        assert_eq!(st.fields.len(), 2);
        assert!(st.fields.iter().all(|(_, _, is_lock)| *is_lock));
        let f = &s.functions[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.locks[0].chain, "<Self>.a");
        assert!(f.locks[0].held.is_empty());
        assert_eq!(f.locks[1].chain, "<Self>.b");
        assert_eq!(f.locks[1].held, vec!["<Self>.a".to_string()]);
    }

    #[test]
    fn helper_mediated_locks_are_seen() {
        let s = summary(
            r#"
            struct P { value: RwLock<u32> }
            impl P {
                fn get(&self) -> u32 {
                    let g = read_lock(&self.value);
                    *g
                }
            }
            "#,
        );
        let f = &s.functions[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].chain, "<Self>.value");
    }

    #[test]
    fn calls_record_held_locks() {
        let s = summary(
            r#"
            struct P { m: Mutex<u32> }
            impl P {
                fn f(&self) {
                    let g = self.m.lock();
                    helper();
                }
            }
            "#,
        );
        let f = &s.functions[0];
        let call = f.calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(call.held, vec!["<Self>.m".to_string()]);
    }

    #[test]
    fn clock_reads_found() {
        let s = summary("fn t() -> Instant { let a = Instant::now(); a }");
        assert_eq!(s.functions[0].clock_reads.len(), 1);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let s = summary("trait T { fn required(&self) -> u32; fn given(&self) -> u32 { 1 } }");
        assert_eq!(s.functions.len(), 1);
        assert_eq!(s.functions[0].name, "given");
    }
}
