//! `ann-gate` — the hybrid-retrieval correctness gate for CI.
//!
//! Loads a concept net with its embedding bundle and holds the fused
//! lexical+vector serving path to its exact oracles:
//!
//! 1. **Index recall** — `knn` against the exact `scan_knn` oracle over
//!    the bundle's concept index, recall@10 averaged over the query set.
//! 2. **Fused parity** — `SemanticSearch::search` (hybrid) against
//!    `search_scan`, the exact fused-score oracle that scores *every*
//!    concept. Candidates are always scored with the exact stored
//!    vectors, so the only possible divergence is the HNSW graph failing
//!    to propose a concept the oracle ranks into the top k. A query whose
//!    lexical candidates filled the page above the best a pure proposal
//!    can score never asks HNSW (`search.ann_skipped`); its page must
//!    equal the oracle's exactly, with no tolerance.
//! 3. **Lexical-miss coverage** — tokens that appear only in item titles
//!    (zero overlap with any concept surface or primitive name) must
//!    still reach concepts through the vector path; this is the
//!    zero-token-overlap gap the hybrid layer exists to close. Those
//!    queries have no lexical page, so they must always ask HNSW.
//!
//! Writes a JSON report and exits non-zero when recall or parity falls
//! under `--min-recall` (default 0.9), a skipped query differs from the
//! oracle, a lexical-miss probe skips HNSW, or lexical-miss coverage is
//! zero.
//!
//! ```text
//! ann-gate [--snapshot FILE] [--out FILE] [--min-recall R] [--queries N]
//! ```
//!
//! Without `--snapshot`, a deterministic scale world is built and its
//! bundle trained in-process; CI builds a snapshot first
//! (`alicoco build net.alcc --embeddings`) and passes it here so the
//! gate also covers the codec round-trip.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use alicoco_ann::AnnBundle;
use alicoco_apps::{Retriever, SearchConfig, SemanticSearch};
use alicoco_bench::scale_world;
use alicoco_obs::json::Json;
use alicoco_obs::Registry;

const K: usize = 10;
const EF: usize = 64;
const DEFAULT_WORLD: usize = 2_000;
const LEXICAL_MISS_PROBES: usize = 32;

struct Options {
    snapshot: Option<String>,
    out: Option<String>,
    min_recall: f64,
    queries: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        snapshot: None,
        out: None,
        min_recall: 0.9,
        queries: 256,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--snapshot" => {
                opts.snapshot = Some(it.next().ok_or("--snapshot requires a path")?.clone());
            }
            "--out" => opts.out = Some(it.next().ok_or("--out requires a path")?.clone()),
            "--min-recall" => {
                let v = it.next().ok_or("--min-recall requires a fraction")?;
                opts.min_recall = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --min-recall {v:?}: {e}"))?;
                if !(0.0..=1.0).contains(&opts.min_recall) {
                    return Err(format!("--min-recall must be in [0, 1], got {v}"));
                }
            }
            "--queries" => {
                let v = it.next().ok_or("--queries requires a count")?;
                opts.queries = v.parse().map_err(|e| format!("bad --queries {v:?}: {e}"))?;
                if opts.queries == 0 {
                    return Err("--queries must be at least 1".to_string());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: ann-gate [--snapshot FILE] [--out FILE] [--min-recall R] \
                     [--queries N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn load(opts: &Options) -> Result<(alicoco::AliCoCo, AnnBundle), String> {
    match &opts.snapshot {
        Some(path) => {
            let registry = Registry::new();
            let (kg, bundle) =
                alicoco_ann::load_file_with_bundle(std::path::Path::new(path), &registry)
                    .map_err(|e| format!("{path}: {e:?}"))?;
            let bundle = bundle.ok_or_else(|| {
                format!("{path}: snapshot carries no embedding bundle — rebuild with --embeddings")
            })?;
            Ok((kg, bundle))
        }
        None => {
            let kg = scale_world(DEFAULT_WORLD);
            let bundle = alicoco_ann::build_default_bundle(&kg);
            Ok((kg, bundle))
        }
    }
}

/// Tokens that occur in item titles but in no concept surface and no
/// primitive name: queries made of these have zero lexical overlap with
/// the concept layer, so only the vector path can answer them. Sorted
/// for a deterministic probe set.
fn item_only_tokens(kg: &alicoco::AliCoCo) -> Vec<String> {
    let mut lexical = std::collections::BTreeSet::new();
    for c in kg.concept_ids() {
        for t in kg.concept(c).name.split_whitespace() {
            lexical.insert(t.to_string());
        }
    }
    for p in kg.primitive_ids() {
        for t in kg.primitive(p).name.split_whitespace() {
            lexical.insert(t.to_string());
        }
    }
    let mut item_only = std::collections::BTreeSet::new();
    for i in kg.item_ids() {
        for t in kg.item(i).title {
            if !lexical.contains(t) {
                item_only.insert(t.clone());
            }
        }
    }
    item_only.into_iter().take(LEXICAL_MISS_PROBES).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (kg, bundle) = match load(&opts) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (kg, bundle) = (Arc::new(kg), Arc::new(bundle));
    println!(
        "ann-gate: {} concepts, {} items, {} token vectors (dim {})",
        bundle.concepts().len(),
        bundle.items().len(),
        bundle.tokens().len(),
        bundle.tokens().dim(),
    );

    // Query set: concept surfaces, striding across the id space so large
    // snapshots sample evenly instead of probing one neighborhood.
    let n_concepts = kg.concept_ids().count();
    let stride = (n_concepts / opts.queries).max(1);
    let queries: Vec<String> = kg
        .concept_ids()
        .step_by(stride)
        .take(opts.queries)
        .map(|c| kg.concept(c).name.to_string())
        .collect();

    // 1. Index recall@10 vs the exact scan oracle, plus knn latency.
    let mut recall_sum = 0.0;
    let mut embedded = 0usize;
    let mut latencies: Vec<u64> = Vec::with_capacity(queries.len());
    for q in &queries {
        let Some(vec) = bundle.embed_query(q) else {
            continue;
        };
        embedded += 1;
        let t = Instant::now();
        let approx = bundle.concepts().knn(&vec, K, EF);
        latencies.push(t.elapsed().as_nanos() as u64);
        let exact = bundle.concepts().scan_knn(&vec, K);
        let hits = approx
            .iter()
            .filter(|a| exact.iter().any(|e| e.0 == a.0))
            .count();
        recall_sum += hits as f64 / exact.len().max(1) as f64;
    }
    let recall = if embedded == 0 {
        0.0
    } else {
        recall_sum / embedded as f64
    };
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        latencies[((latencies.len() - 1) as f64 * p).round() as usize]
    };
    let (p50_ns, p99_ns) = (pct(0.50), pct(0.99));

    // 2. Fused parity: hybrid search vs the exact fused-score scan.
    let reg = Registry::new();
    let hybrid = SemanticSearch::new(
        Retriever::new(Arc::clone(&kg), Some(Arc::clone(&bundle))),
        SearchConfig::default(),
        &reg,
    );
    let ann_skipped = reg.counter("search.ann_skipped");
    let (mut agreements, mut skipped, mut skipped_mismatches) = (0usize, 0usize, 0usize);
    for q in &queries {
        let before = ann_skipped.get();
        let fast: Vec<_> = hybrid.search(q).iter().map(|c| c.concept).collect();
        let oracle: Vec<_> = hybrid.search_scan(q).iter().map(|c| c.concept).collect();
        let agrees = fast == oracle;
        agreements += usize::from(agrees);
        if ann_skipped.get() > before {
            skipped += 1;
            skipped_mismatches += usize::from(!agrees);
        }
    }
    let parity = agreements as f64 / queries.len().max(1) as f64;
    let skipped_share = skipped as f64 / queries.len().max(1) as f64;

    // 3. Lexical-miss coverage: item-title-only tokens must reach
    // concepts through the vector path that the purely lexical engine
    // cannot serve at all.
    let plain = SemanticSearch::new(
        Retriever::new(Arc::clone(&kg), None),
        SearchConfig::default(),
        &reg,
    );
    let probes = item_only_tokens(&kg);
    let (mut miss_hits, mut miss_skipped) = (0usize, 0usize);
    for token in &probes {
        assert!(
            plain.search(token).is_empty(),
            "probe {token:?} is not lexical-only after all"
        );
        let before = ann_skipped.get();
        if !hybrid.search(token).is_empty() {
            miss_hits += 1;
        }
        miss_skipped += usize::from(ann_skipped.get() > before);
    }

    println!(
        "ann-gate: recall@10 {recall:.4} over {embedded} queries (knn p50 {p50_ns} ns, \
         p99 {p99_ns} ns)"
    );
    println!(
        "ann-gate: fused parity {parity:.4} ({agreements}/{} queries identical to the \
         exact scan oracle)",
        queries.len()
    );
    println!(
        "ann-gate: HNSW skipped on {skipped}/{} queries (share {skipped_share:.4}), \
         {skipped_mismatches} of them off the exact scan oracle",
        queries.len()
    );
    // Name a few probes so a failing run (or a reader wanting a live
    // demo query) can reproduce by hand against `alicoco-serve`.
    let sample = probes
        .iter()
        .take(3)
        .map(|t| format!("{t:?}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "ann-gate: lexical-miss coverage {miss_hits}/{} item-only tokens answered{}",
        probes.len(),
        if sample.is_empty() {
            String::new()
        } else {
            format!(" (e.g. {sample})")
        }
    );

    if let Some(out) = &opts.out {
        let doc = Json::Obj(vec![(
            "ann_gate".to_string(),
            Json::Obj(vec![
                ("queries".to_string(), Json::Num(queries.len() as f64)),
                ("recall_at_10".to_string(), Json::Num(recall)),
                ("fused_parity".to_string(), Json::Num(parity)),
                (
                    "proposals_skipped_share".to_string(),
                    Json::Num(skipped_share),
                ),
                (
                    "lexical_miss_total".to_string(),
                    Json::Num(probes.len() as f64),
                ),
                ("lexical_miss_hits".to_string(), Json::Num(miss_hits as f64)),
                ("knn_p50_ns".to_string(), Json::Num(p50_ns as f64)),
                ("knn_p99_ns".to_string(), Json::Num(p99_ns as f64)),
            ]),
        )]);
        if let Err(e) = std::fs::write(out, doc.render()) {
            eprintln!("error: {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("ann-gate: wrote {out}");
    }

    let mut failed = false;
    if recall < opts.min_recall {
        eprintln!(
            "ann-gate: recall@10 {recall:.4} is below the {:.2} floor",
            opts.min_recall
        );
        failed = true;
    }
    if parity < opts.min_recall {
        eprintln!(
            "ann-gate: fused parity {parity:.4} diverges from the exact oracle beyond the \
             {:.2} floor",
            opts.min_recall
        );
        failed = true;
    }
    if skipped_mismatches > 0 {
        eprintln!(
            "ann-gate: {skipped_mismatches} queries that skipped HNSW differ from the exact \
             oracle; a skip must never change a page"
        );
        failed = true;
    }
    if miss_skipped > 0 {
        eprintln!("ann-gate: {miss_skipped} lexical-miss probes skipped HNSW; they must ask");
        failed = true;
    }
    if !probes.is_empty() && miss_hits == 0 {
        eprintln!("ann-gate: no lexical-miss probe reached a concept via the vector path");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_overrides_parse() {
        let opts = parse_args(&[]).unwrap();
        assert!(opts.snapshot.is_none());
        assert_eq!(opts.min_recall, 0.9);
        assert_eq!(opts.queries, 256);
        let args: Vec<String> = [
            "--snapshot",
            "net.alcc",
            "--out",
            "BENCH_ann.json",
            "--min-recall",
            "0.95",
            "--queries",
            "64",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.snapshot.as_deref(), Some("net.alcc"));
        assert_eq!(opts.out.as_deref(), Some("BENCH_ann.json"));
        assert_eq!(opts.min_recall, 0.95);
        assert_eq!(opts.queries, 64);
    }

    #[test]
    fn bad_arguments_error_out() {
        assert!(parse_args(&["--min-recall".to_string(), "1.5".to_string()]).is_err());
        assert!(parse_args(&["--queries".to_string(), "0".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn item_only_tokens_exclude_every_concept_and_primitive_surface() {
        let kg = scale_world(500);
        let tokens = item_only_tokens(&kg);
        for t in &tokens {
            for c in kg.concept_ids() {
                assert!(!kg.concept(c).name.split_whitespace().any(|w| w == t));
            }
            for p in kg.primitive_ids() {
                assert!(!kg.primitive(p).name.split_whitespace().any(|w| w == t));
            }
        }
        // Deterministic and sorted.
        let again = item_only_tokens(&kg);
        assert_eq!(tokens, again);
        let mut sorted = tokens.clone();
        sorted.sort();
        assert_eq!(tokens, sorted);
    }
}
