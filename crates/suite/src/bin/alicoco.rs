//! `alicoco` — command-line interface over the concept net.
//!
//! ```text
//! alicoco build <snapshot> [--full] [--binary] [--embeddings]
//!                                          build a synthetic world, run
//!                                          the pipeline, save the net
//!                                          (--embeddings trains the hybrid
//!                                          retrieval bundle and implies
//!                                          --binary)
//! alicoco stats <snapshot>                 Table-2-style statistics
//! alicoco search <snapshot> <query>        concept cards for a query
//! alicoco qa <snapshot> <question>         scenario question answering
//! alicoco recommend <snapshot>             concept cards for a sampled user
//! alicoco concept <snapshot> <name>        dump one concept's neighbourhood
//! alicoco snapshot convert <in> <out>      convert TSV <-> binary (by magic)
//! alicoco snapshot inspect <file>          section sizes and record counts
//! ```
//!
//! Every `<snapshot>` argument accepts either codec — the format is sniffed
//! from the leading magic bytes — and is read through the one file loader
//! `alicoco-serve` uses, so `search`, `qa` and `recommend` answer from the
//! ANN bundle when the snapshot carries one, as the server does.
//!
//! Any invocation also accepts a global `--metrics <out.json>` flag: the
//! command runs with instrumented engines and the metric registry is
//! exported as deterministic JSON to `out.json` on success. With
//! `--metrics` and no subcommand, a built-in demo net exercises every
//! serving path (search, batch search, QA, recommendation, relevance,
//! snapshot roundtrip) so CI can smoke-test the observability layer
//! without a snapshot on disk.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use alicoco::snapshot::binary::SnapshotView;
use alicoco::{store, AliCoCo, Stats};
use alicoco_ann::AnnBundle;
use alicoco_apps::{
    CognitiveRecommender, RecommendConfig, RelevanceScorer, Retriever, ScenarioQa, SearchConfig,
    SemanticSearch,
};
use alicoco_corpus::{Dataset, WorldConfig};
use alicoco_mining::pipeline::{build_alicoco_instrumented, PipelineConfig};
use alicoco_obs::Registry;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = match take_metrics_flag(&mut args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = Registry::new();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..], &metrics),
        Some("stats") => cmd_stats(&args[1..], &metrics),
        Some("search") => cmd_search(&args[1..], &metrics),
        Some("qa") => cmd_qa(&args[1..], &metrics),
        Some("recommend") => cmd_recommend(&args[1..], &metrics),
        Some("concept") => cmd_concept(&args[1..], &metrics),
        Some("snapshot") => cmd_snapshot(&args[1..], &metrics),
        None if metrics_path.is_some() => cmd_demo(&metrics),
        _ => {
            eprintln!(
                "usage: alicoco [--metrics <out.json>] \
                 <build|stats|search|qa|recommend|concept|snapshot> <snapshot> [args]"
            );
            return ExitCode::from(2);
        }
    };
    let result = result.and_then(|()| match &metrics_path {
        Some(path) => write_metrics(path, &metrics),
        None => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Extract a global `--metrics <path>` flag from anywhere in the argument
/// list, returning the path and removing both tokens.
fn take_metrics_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == "--metrics") else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err("--metrics requires an output path".to_string());
    }
    let path = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(path))
}

fn write_metrics(path: &str, metrics: &Registry) -> CliResult {
    let mut file = BufWriter::new(File::create(path)?);
    file.write_all(metrics.export_json().as_bytes())?;
    file.write_all(b"\n")?;
    file.flush()?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

/// A net and the retrieval bundle its snapshot carries, if any.
type Loaded = (AliCoCo, Option<AnnBundle>);

/// Load a net (and its bundle) from either codec, sniffed by magic,
/// recording the per-backend `snapshot.<fmt>.*` metric family.
fn load_net(path: &str, metrics: &Registry) -> Result<Loaded, Box<dyn std::error::Error>> {
    Ok(alicoco_ann::load_file_with_bundle(
        Path::new(path),
        metrics,
    )?)
}

/// Replace `path` with `bytes` without ever exposing a partial file: the
/// bytes go to a temp file beside the destination, are synced, and only
/// then renamed over it. On error the temp file is removed and whatever
/// was at `path` stays as it was.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let written = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename is durable once its directory entry is.
        File::open(dir)?.sync_all()
    })();
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Encode `kg` with `backend`, then replace `path` atomically; returns the
/// snapshot size. The destination is not touched unless the encode
/// succeeded.
fn save_net(
    path: &str,
    kg: &AliCoCo,
    backend: &dyn store::Store,
    metrics: &Registry,
) -> Result<usize, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    store::save_instrumented(backend, kg, &mut out, metrics)?;
    write_atomic(Path::new(path), &out)?;
    Ok(out.len())
}

fn require<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument: {what}"))
}

fn cmd_build(args: &[String], metrics: &Registry) -> CliResult {
    let path = require(args, 0, "snapshot path")?;
    let full = args.iter().any(|a| a == "--full");
    let embeddings = args.iter().any(|a| a == "--embeddings");
    // The ANN trailer only exists in the binary codec, so --embeddings
    // implies --binary.
    let binary = embeddings || args.iter().any(|a| a == "--binary");
    let config = if full {
        WorldConfig::default()
    } else {
        WorldConfig::tiny()
    };
    eprintln!("generating world ({} items)...", config.num_items);
    let ds = Dataset::generate(config);
    eprintln!("running construction pipeline...");
    let (kg, report) = build_alicoco_instrumented(&ds, &PipelineConfig::default(), metrics);
    eprintln!("{report:#?}");
    if embeddings {
        eprintln!("training retrieval embeddings + HNSW indexes...");
        let bundle = alicoco_ann::build_default_bundle(&kg);
        let mut out = Vec::new();
        alicoco_ann::save_snapshot_with_bundle(&kg, &bundle, &mut out)?;
        write_atomic(Path::new(path), &out)?;
        eprintln!(
            "bundle: {} tokens (dim {}), {} concept vectors, {} item vectors",
            bundle.tokens().len(),
            bundle.tokens().dim(),
            bundle.concepts().len(),
            bundle.items().len()
        );
    } else if binary {
        save_net(path, &kg, &store::BinaryStore, metrics)?;
    } else {
        save_net(path, &kg, &store::TsvStore, metrics)?;
    }
    eprintln!("saved {path}");
    Ok(())
}

/// `snapshot convert <in> <out>` / `snapshot inspect <file>`: storage-layer
/// utilities over both codecs, format sniffed by magic.
fn cmd_snapshot(args: &[String], metrics: &Registry) -> CliResult {
    match args.first().map(String::as_str) {
        Some("convert") => {
            let input = require(args, 1, "input snapshot")?;
            let output = require(args, 2, "output snapshot")?;
            let bytes = std::fs::read(input)?;
            let from = store::detect(&bytes);
            // TSV cannot hold the ANN trailer, and a bare binary copy
            // would silently lose it: refuse before touching `output`.
            if from.format() == store::Format::Binary && SnapshotView::open(&bytes)?.ann().is_some()
            {
                return Err(format!(
                    "{input} carries the ANN trailer (AVOC/ACON/AITM); converting would drop it"
                )
                .into());
            }
            let kg = store::load_instrumented(from, &bytes, metrics)?;
            let to = store::store_for(from.format().other());
            let written = save_net(output, &kg, to, metrics)?;
            eprintln!(
                "converted {input} ({} bytes, {}) -> {output} ({written} bytes, {})",
                bytes.len(),
                from.format(),
                to.format()
            );
            Ok(())
        }
        Some("inspect") => {
            let path = require(args, 1, "snapshot path")?;
            let bytes = std::fs::read(path)?;
            let backend = store::detect(&bytes);
            let info = store::open_instrumented(backend, &bytes, metrics)?;
            println!("format: {}", info.format);
            println!("total:  {} bytes", info.total_bytes);
            println!("{:<10} {:>12} {:>12}", "section", "bytes", "records");
            for s in &info.sections {
                println!("{:<10} {:>12} {:>12}", s.name, s.bytes, s.records);
            }
            Ok(())
        }
        _ => Err("usage: alicoco snapshot <convert <in> <out> | inspect <file>>".into()),
    }
}

fn cmd_stats(args: &[String], metrics: &Registry) -> CliResult {
    let (kg, _) = load_net(require(args, 0, "snapshot path")?, metrics)?;
    print!("{}", Stats::compute(&kg));
    let ci = alicoco::query::concept_item_degrees(&kg);
    let ip = alicoco::query::item_primitive_degrees(&kg);
    println!("Degrees");
    println!(
        "  concept->item   min {} max {} mean {:.2} (isolated {})",
        ci.min, ci.max, ci.mean, ci.isolated
    );
    println!(
        "  item->primitive min {} max {} mean {:.2} (isolated {})",
        ip.min, ip.max, ip.mean, ip.isolated
    );
    Ok(())
}

/// The retriever the one-shot commands serve from: hybrid when the
/// snapshot carried a bundle, lexical otherwise — as `alicoco-serve`.
fn retriever((kg, bundle): Loaded) -> Arc<Retriever> {
    Retriever::new(Arc::new(kg), bundle.map(Arc::new))
}

fn cmd_search(args: &[String], metrics: &Registry) -> CliResult {
    let loaded = load_net(require(args, 0, "snapshot path")?, metrics)?;
    let query = require(args, 1, "query")?;
    write_search(
        &mut std::io::stdout().lock(),
        retriever(loaded),
        query,
        metrics,
    )
}

/// Write the search page for `query` to `out`, or the keyword items
/// when no concept card matches.
fn write_search(
    out: &mut dyn Write,
    retriever: Arc<Retriever>,
    query: &str,
    metrics: &Registry,
) -> CliResult {
    let engine = SemanticSearch::new(Arc::clone(&retriever), SearchConfig::default(), metrics);
    let kg = retriever.kg();
    let cards = engine.search(query);
    if cards.is_empty() {
        writeln!(out, "no concept card for {query:?}; keyword items:")?;
        for iid in engine.keyword_items(query, 5) {
            writeln!(out, "  {}", kg.item(iid).title.join(" "))?;
        }
        return Ok(());
    }
    for card in cards {
        writeln!(out, "[{:.2}] {}", card.score, card.name)?;
        for (domain, surface) in card.interpretation() {
            writeln!(out, "    <{domain}: {surface}>")?;
        }
        for (iid, w) in card.items.iter().take(5) {
            writeln!(out, "    ({w:.2}) {}", kg.item(*iid).title.join(" "))?;
        }
    }
    Ok(())
}

fn cmd_qa(args: &[String], metrics: &Registry) -> CliResult {
    let loaded = load_net(require(args, 0, "snapshot path")?, metrics)?;
    let question = require(args, 1, "question")?;
    match ScenarioQa::new(retriever(loaded), metrics).answer(question) {
        Some(a) => {
            println!("for \"{}\" you will need:", a.concept_name);
            for e in &a.checklist {
                println!("  [{:.0}%] {}", e.confidence * 100.0, e.title.join(" "));
            }
        }
        None => println!("no shopping scenario found for that question"),
    }
    Ok(())
}

fn cmd_recommend(args: &[String], metrics: &Registry) -> CliResult {
    let retriever = retriever(load_net(require(args, 0, "snapshot path")?, metrics)?);
    let kg = retriever.kg();
    let history: Vec<alicoco::ItemId> = kg
        .item_ids()
        .filter(|&i| !kg.concepts_for_item(i).is_empty())
        .take(3)
        .collect();
    if history.is_empty() {
        println!("net has no concept-item links to recommend from");
        return Ok(());
    }
    println!("history:");
    for &i in &history {
        println!("  viewed {}", kg.item(i).title.join(" "));
    }
    let rec =
        CognitiveRecommender::new(Arc::clone(&retriever), RecommendConfig::default(), metrics);
    for r in rec.recommend(&history) {
        println!("[{:.2}] {}", r.affinity, r.name);
        println!("    {}", r.reason.text(kg, r.name));
        for (iid, w) in r.items.iter().take(3) {
            println!("    ({w:.2}) {}", kg.item(*iid).title.join(" "));
        }
    }
    Ok(())
}

fn cmd_concept(args: &[String], metrics: &Registry) -> CliResult {
    let (kg, _) = load_net(require(args, 0, "snapshot path")?, metrics)?;
    let name = require(args, 1, "concept name")?;
    let cid = kg
        .concept_by_name(name)
        .ok_or_else(|| format!("no concept named {name:?}"))?;
    let c = kg.concept(cid);
    println!("concept: {}", c.name);
    println!("interpreted by:");
    for &p in c.primitives {
        let prim = kg.primitive(p);
        let domain = kg.class(kg.class_domain(prim.class)).name.clone();
        println!("  <{domain}: {}>", prim.name);
    }
    for &h in c.hypernyms {
        println!("isA: {}", kg.concept(h).name);
    }
    println!("items ({}):", c.items.len());
    for (iid, w) in kg.items_for_concept(cid).iter().take(10) {
        println!("  ({w:.2}) {}", kg.item(*iid).title.join(" "));
    }
    Ok(())
}

/// A small hand-built net covering every serving path: a concept card for
/// search, a shopping scenario for QA, concept-item links plus a shared
/// primitive for recommendation, and an isA edge for relevance expansion.
fn demo_net() -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let loc = kg.add_class("Location", Some(root));
    let event = kg.add_class("Event", Some(root));
    let outdoor = kg.add_primitive("outdoor", loc);
    let bbq = kg.add_primitive("barbecue", event);
    let grill_prim = kg.add_primitive("grill", event);
    kg.add_primitive_is_a(grill_prim, bbq);
    let c1 = kg.add_concept("outdoor barbecue");
    kg.link_concept_primitive(c1, outdoor);
    kg.link_concept_primitive(c1, bbq);
    let c2 = kg.add_concept("indoor yoga");
    let _ = c2;
    let grill = kg.add_item(&["brand".into(), "grill".into()]);
    let charcoal = kg.add_item(&["best".into(), "charcoal".into()]);
    let skewers = kg.add_item(&["steel".into(), "skewers".into()]);
    kg.link_concept_item(c1, grill, 0.9);
    kg.link_concept_item(c1, charcoal, 0.8);
    kg.link_item_primitive(grill, bbq);
    kg.link_item_primitive(skewers, bbq);
    kg
}

/// Exercise every instrumented serving path against the demo net so the
/// exported registry contains a sample of each metric family.
fn cmd_demo(metrics: &Registry) -> CliResult {
    let kg = Arc::new(demo_net());
    let shared = Retriever::new(Arc::clone(&kg), None);

    let search = SemanticSearch::new(Arc::clone(&shared), SearchConfig::default(), metrics);
    let mut cards = 0;
    for q in [
        "barbecue outdoor",
        "outdoor",
        "indoor yoga",
        "barbecue",
        "charcoal grill",
    ] {
        cards += search.search(q).len();
    }
    println!("search: {cards} concept cards over 5 queries");

    let qa = ScenarioQa::new(Arc::clone(&shared), metrics);
    let answered = ["What should I prepare for a barbecue?", "Quiet evening?"]
        .iter()
        .filter(|q| qa.answer(q).is_some())
        .count();
    println!("qa: {answered} of 2 questions answered");

    let rec = CognitiveRecommender::new(Arc::clone(&shared), RecommendConfig::default(), metrics);
    let history: Vec<alicoco::ItemId> = kg.item_ids().take(1).collect();
    println!("recommend: {} cards", rec.recommend(&history).len());

    let scorer = RelevanceScorer::new(shared, metrics);
    let hits = scorer.top_items_expanded(&["barbecue".to_string()], 5);
    println!("relevance: {} items after isA expansion", hits.len());

    let mut buf: Vec<u8> = Vec::new();
    store::save_instrumented(&store::TsvStore, &kg, &mut buf, metrics)?;
    let reloaded = store::load_instrumented(&store::TsvStore, &buf, metrics)?;
    println!(
        "snapshot: roundtripped {} concepts / {} items",
        reloaded.num_concepts(),
        reloaded.num_items()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alicoco::store::Store as _;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn metrics_flag_is_extracted_from_anywhere() {
        let mut args = strings(&["search", "net.tsv", "--metrics", "out.json", "grill"]);
        assert_eq!(
            take_metrics_flag(&mut args).unwrap(),
            Some("out.json".to_string())
        );
        assert_eq!(args, strings(&["search", "net.tsv", "grill"]));

        let mut args = strings(&["--metrics", "m.json"]);
        assert_eq!(
            take_metrics_flag(&mut args).unwrap(),
            Some("m.json".to_string())
        );
        assert!(args.is_empty());

        let mut args = strings(&["stats", "net.tsv"]);
        assert_eq!(take_metrics_flag(&mut args).unwrap(), None);
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn metrics_flag_without_path_is_an_error() {
        let mut args = strings(&["search", "net.tsv", "--metrics"]);
        assert!(take_metrics_flag(&mut args).is_err());
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("alicoco-suite-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_convert_roundtrips_to_oracle_bytes() {
        let dir = scratch_dir("convert");
        let tsv = dir.join("net.tsv");
        let bin = dir.join("net.bin");
        let back = dir.join("back.tsv");
        let kg = demo_net();
        let mut oracle = Vec::new();
        alicoco::snapshot::save(&kg, &mut oracle).unwrap();
        std::fs::write(&tsv, &oracle).unwrap();

        let reg = Registry::new();
        let args = strings(&["convert", tsv.to_str().unwrap(), bin.to_str().unwrap()]);
        cmd_snapshot(&args, &reg).unwrap();
        let bin_bytes = std::fs::read(&bin).unwrap();
        assert_eq!(store::Format::detect(&bin_bytes), store::Format::Binary);

        let args = strings(&["convert", bin.to_str().unwrap(), back.to_str().unwrap()]);
        cmd_snapshot(&args, &reg).unwrap();
        assert_eq!(
            std::fs::read(&back).unwrap(),
            oracle,
            "binary -> model -> TSV must reproduce the oracle bytes"
        );
        // Both backends recorded their own metric family.
        assert_eq!(reg.histogram("snapshot.tsv.load_ns").count(), 1);
        assert_eq!(reg.histogram("snapshot.binary.save_ns").count(), 1);
        assert_eq!(reg.histogram("snapshot.binary.load_ns").count(), 1);
        assert_eq!(reg.histogram("snapshot.tsv.save_ns").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_inspect_reports_sections_for_both_codecs() {
        let dir = scratch_dir("inspect");
        let kg = demo_net();
        let reg = Registry::new();
        for backend in [&store::TsvStore as &dyn store::Store, &store::BinaryStore] {
            let mut bytes = Vec::new();
            backend.save(&kg, &mut bytes).unwrap();
            let path = dir.join(format!("net.{}", backend.format()));
            std::fs::write(&path, &bytes).unwrap();
            let args = strings(&["inspect", path.to_str().unwrap()]);
            cmd_snapshot(&args, &reg).unwrap();
            let name = format!("snapshot.{}.open_ns", backend.format());
            assert_eq!(reg.histogram(&name).count(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_subcommand_rejects_unknown_actions() {
        let reg = Registry::new();
        assert!(cmd_snapshot(&strings(&["frobnicate"]), &reg).is_err());
        assert!(cmd_snapshot(&strings(&["convert", "only-one-path"]), &reg).is_err());
    }

    #[test]
    fn load_net_auto_detects_binary_snapshots() {
        let dir = scratch_dir("load");
        let kg = demo_net();
        let mut bytes = Vec::new();
        store::BinaryStore.save(&kg, &mut bytes).unwrap();
        let path = dir.join("net.bin");
        std::fs::write(&path, &bytes).unwrap();
        let reg = Registry::new();
        let (loaded, bundle) = load_net(path.to_str().unwrap(), &reg).unwrap();
        assert_eq!(loaded, kg);
        assert!(bundle.is_none());
        assert_eq!(
            reg.counter("snapshot.binary.loaded_bytes").get(),
            bytes.len() as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_leaves_the_destination_alone_and_a_good_one_replaces_it() {
        let dir = scratch_dir("atomic");
        let path = dir.join("net.tsv");
        std::fs::write(&path, b"previous snapshot").unwrap();
        let reg = Registry::new();
        let tmp_siblings = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.ends_with(".tmp"))
                .count()
        };

        // The encode fails (no codec can persist a tab in a name): the
        // destination is never opened.
        let mut bad = demo_net();
        bad.add_class("bad\tname", None);
        for backend in [&store::TsvStore as &dyn store::Store, &store::BinaryStore] {
            assert!(save_net(path.to_str().unwrap(), &bad, backend, &reg).is_err());
        }
        // The write fails (a directory is in the way of the rename): the
        // temp file is cleaned up.
        let blocked = dir.join("blocked");
        std::fs::create_dir(&blocked).unwrap();
        assert!(write_atomic(&blocked, b"new").is_err());
        assert!(blocked.is_dir());
        assert_eq!(std::fs::read(&path).unwrap(), b"previous snapshot");
        assert_eq!(tmp_siblings(), 0);

        let kg = demo_net();
        let written = save_net(path.to_str().unwrap(), &kg, &store::TsvStore, &reg).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), written);
        assert_eq!(load_net(path.to_str().unwrap(), &reg).unwrap().0, kg);
        assert_eq!(tmp_siblings(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_with_embeddings_writes_a_hybrid_snapshot() {
        let dir = scratch_dir("embed-build");
        let path = dir.join("net.alcc");
        let reg = Registry::new();
        cmd_build(&strings(&[path.to_str().unwrap(), "--embeddings"]), &reg).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(store::Format::detect(&bytes), store::Format::Binary);
        let (kg, bundle) = alicoco_ann::load_snapshot_with_bundle(&bytes).unwrap();
        let bundle = bundle.expect("--embeddings must attach the ANN trailer");
        assert_eq!(bundle.concepts().len(), kg.num_concepts());
        assert_eq!(bundle.items().len(), kg.num_items());
        // The bare binary store still reads the graph, trailer ignored.
        let plain = store::detect(&bytes).load(&bytes).unwrap();
        assert_eq!(plain, kg);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The demo net with its bundle, saved as a hybrid snapshot file.
    fn hybrid_snapshot(dir: &Path) -> (PathBuf, Vec<u8>) {
        let kg = demo_net();
        let mut bytes = Vec::new();
        let bundle = alicoco_ann::build_default_bundle(&kg);
        alicoco_ann::save_snapshot_with_bundle(&kg, &bundle, &mut bytes).unwrap();
        let path = dir.join("net.alcc");
        std::fs::write(&path, &bytes).unwrap();
        (path, bytes)
    }

    #[test]
    fn snapshot_convert_refuses_a_snapshot_with_the_ann_trailer() {
        let dir = scratch_dir("convert-ann");
        let (path, _) = hybrid_snapshot(&dir);
        let out = dir.join("out.tsv");
        std::fs::write(&out, b"previous snapshot").unwrap();
        let args = strings(&["convert", path.to_str().unwrap(), out.to_str().unwrap()]);
        let err = cmd_snapshot(&args, &Registry::new()).unwrap_err();
        assert!(err.to_string().contains("ANN trailer"), "{err}");
        assert_eq!(std::fs::read(&out).unwrap(), b"previous snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A query whose every token is an item-title-only word has no lexical
    /// page; loaded from a hybrid file, `search` answers it from the
    /// snapshot's vectors, as `alicoco-serve` does.
    #[test]
    fn search_answers_a_vector_only_query_from_the_snapshot_bundle() {
        let dir = scratch_dir("search-ann");
        let (path, _) = hybrid_snapshot(&dir);
        let reg = Registry::new();
        let page = |loaded: Loaded, query: &str| {
            let mut out = Vec::new();
            write_search(&mut out, retriever(loaded), query, &reg).unwrap();
            String::from_utf8(out).unwrap()
        };
        let lexical = page((demo_net(), None), "charcoal");
        assert!(lexical.starts_with("no concept card"), "{lexical}");
        let hybrid = page(load_net(path.to_str().unwrap(), &reg).unwrap(), "charcoal");
        assert!(hybrid.starts_with('['), "{hybrid}");
        assert_eq!(reg.histogram("snapshot.binary.load_ns").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demo_populates_every_metric_family() {
        let reg = Registry::new();
        cmd_demo(&reg).unwrap();
        let json = reg.export_json();
        for family in [
            "search.",
            "qa.",
            "recommend.",
            "relevance.",
            "bm25.",
            "snapshot.",
        ] {
            assert!(json.contains(family), "missing {family}* metrics");
        }
        assert!(reg.counter("search.requests").get() >= 5);
        assert_eq!(
            reg.counter("snapshot.tsv.saved_bytes").get(),
            reg.counter("snapshot.tsv.loaded_bytes").get()
        );
    }
}
