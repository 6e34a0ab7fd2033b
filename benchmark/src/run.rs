//! One benchmark run: set the workload up (several times, for a steady
//! `setup_s`), check the server's answers against the in-process oracle,
//! warm up, drive the closed loop for the timed window, and — in a traced
//! run — take the per-layer measurements. Every workload goes through the
//! same steps; workloads differ only in world and traffic mix.

use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::child::Server;
use crate::client::Conn;
use crate::gen::{Generator, Kind, Mix, Req, Traffic, Zipf};
use crate::hist::Hist;
use crate::layers::{self, Oracle};
use crate::metrics::Scrape;
use crate::trace::{median, median_us, Tracer};
use crate::Res;

/// The request every freshly spawned server must answer before it counts
/// as ready; the verify phase checks its body against the oracle.
const READY_PROBE: &str = "/search?q=outdoor0+barbecue1&k=10";
/// `search` may lose this much of `search_scan`'s cards before the run
/// counts as incorrect.
const MIN_SEARCH_RECALL: f64 = 0.99;
/// The floor ROADMAP.md sets for any HNSW change.
const MIN_ANN_RECALL: f64 = 0.9;
/// Requests the `workload.distinct_share` sample is taken over.
const DISTINCT_SAMPLE: usize = 100_000;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub concepts: usize,
    /// Build and serve the ANN bundle.
    pub hybrid: bool,
    pub mix: Mix,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Replies byte-compared with the oracle before the load starts.
    pub verify: usize,
    /// Requests replayed in-process in a traced run.
    pub traced: usize,
    /// Queries behind `search_recall` and `ann_recall`.
    pub recall_queries: usize,
    /// Fresh connections behind `server.conn_setup_us`.
    pub fresh_conns: usize,
    /// Keep-alive connections, each with one request in flight, per core.
    pub conns_per_core: usize,
}

/// Counts shrink with world size so that a run stays within the driver's
/// time budget: a request on the 1M world costs ~25× one on the 50k world,
/// and a `search_scan` there reads a million concepts.
///
/// `thin_keepalive` keeps four requests in flight per core where the
/// others keep one: its requests cost the server ~7 µs, so with one in
/// flight a round trip is two scheduler wake-ups and little else, and on a
/// 2-vCPU VM its median flipped between ~12 and ~26 µs from run to run
/// with where the scheduler had put the peer threads. With four in flight
/// no core idles between requests and runs repeat within a few percent.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "search_lexical",
        concepts: 50_000,
        hybrid: false,
        mix: Mix::Search,
        setups: 9,
        verify: 1024,
        traced: 4096,
        recall_queries: 128,
        fresh_conns: 2000,
        conns_per_core: 1,
    },
    Workload {
        name: "mix_hybrid",
        concepts: 20_000,
        hybrid: true,
        mix: Mix::Hybrid,
        setups: 3,
        verify: 1024,
        traced: 4096,
        recall_queries: 128,
        fresh_conns: 2000,
        conns_per_core: 1,
    },
    Workload {
        name: "publish_1m",
        concepts: 1_000_000,
        hybrid: false,
        mix: Mix::Search,
        setups: 3,
        verify: 128,
        traced: 128,
        recall_queries: 4,
        fresh_conns: 2000,
        conns_per_core: 1,
    },
    Workload {
        name: "thin_keepalive",
        concepts: 50_000,
        hybrid: false,
        mix: Mix::Thin,
        setups: 9,
        verify: 1024,
        traced: 4096,
        recall_queries: 128,
        fresh_conns: 2000,
        conns_per_core: 4,
    },
];

impl Workload {
    /// Client connections, and harness threads driving them. The server
    /// gets one worker more, so a control connection (`/metrics`, the
    /// fresh-connection probes) never waits for a load connection to end.
    pub fn conns(&self, cfg: &Config) -> usize {
        cfg.cores * self.conns_per_core
    }

    /// The same workload at a size that runs in a second or two.
    pub fn smoke(self) -> Workload {
        Workload {
            concepts: 1000,
            setups: 2,
            verify: 128,
            traced: 256,
            recall_queries: 16,
            fresh_conns: 200,
            ..self
        }
    }
}

pub struct Config {
    /// The built `alicoco-serve` binary.
    pub server: PathBuf,
    /// Directory for result, trace, log and temporary snapshot files.
    pub out: PathBuf,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Cores the load is sized for: `min(nproc, 4)`.
    pub cores: usize,
    /// Commit, core count, CPU model and kernel, as JSON members.
    pub machine: String,
}

/// Untimed full load before the window: the first seconds after an idle
/// spell run ~10 % slow.
pub fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * 0.2).max(Duration::from_millis(200))
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every measurement of the run, by metric name.
    pub values: BTreeMap<String, f64>,
    /// Reconciliation lines and correctness complaints, for the reader.
    pub notes: Vec<String>,
}

/// Removes the temporary snapshot on every way out of `run`.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

struct SetUp {
    server: Server,
    setup_s: Vec<f64>,
    publish_s: Vec<f64>,
    ready_s: Vec<f64>,
    snapshot_bytes: usize,
    probe_body: Vec<u8>,
    /// Recall of the HNSW rebuilt by the offline stages (traced, hybrid).
    rebuilt_recall: Option<f64>,
}

/// Generate the world, publish it, spawn the server and wait for its
/// first `200` — `w.setups` times over, and the last server stays up. A
/// traced run sets up once and measures the offline storage stages on the
/// same world.
fn set_up(
    w: &Workload,
    cfg: &Config,
    traced: bool,
    snapshot: &Path,
    recall_queries: &[String],
    t: &mut Tracer,
) -> Res<SetUp> {
    let log = cfg.out.join(format!("server-{}.log", w.name));
    let (mut setup_s, mut publish_s, mut ready_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Server, usize, Vec<u8>)> = None;
    let mut rebuilt_recall = None;
    for _ in 0..if traced { 1 } else { w.setups } {
        if let Some((server, _, _)) = last.take() {
            server.stop()?;
        }
        let started = Instant::now();
        let world = layers::generate(w.concepts, w.hybrid, t);
        let snapshot_bytes = layers::publish(&world, snapshot, t)?;
        let mut server = Server::spawn(&cfg.server, snapshot, w.conns(cfg) + 1, &log)?;
        let (ready, probe_body) = server.wait_ready(READY_PROBE)?;
        setup_s.push(started.elapsed().as_secs_f64());
        publish_s.push(t.last_secs("publish"));
        ready_s.push(ready.as_secs_f64());
        if traced {
            rebuilt_recall = layers::offline_stages(&world, recall_queries, t)?;
        }
        last = Some((server, snapshot_bytes, probe_body));
    }
    let (server, snapshot_bytes, probe_body) = last.ok_or("a run needs at least one set-up")?;
    Ok(SetUp {
        server,
        setup_s,
        publish_s,
        ready_s,
        snapshot_bytes,
        probe_body,
        rebuilt_recall,
    })
}

/// The first mismatch between a served reply and the oracle's, if any.
pub fn mismatch(target: &str, served: (u16, &[u8]), expected: (u16, &[u8])) -> Option<String> {
    if served.0 != expected.0 {
        return Some(format!(
            "{target}: status {} but the library says {}",
            served.0, expected.0
        ));
    }
    if served.1 != expected.1 {
        let at = served
            .1
            .iter()
            .zip(expected.1)
            .take_while(|(a, b)| a == b)
            .count();
        return Some(format!(
            "{target}: body differs from the library's answer at byte {at} ({} vs {} bytes)",
            served.1.len(),
            expected.1.len()
        ));
    }
    None
}

/// Byte-compare the server's reply to each request with what
/// `router::handle` answers in-process on the same snapshot. Returns the
/// number of requests that failed or differed, with a note for the first.
fn verify(
    oracle: &Oracle,
    addr: SocketAddr,
    reqs: &[Req],
    probe_body: &[u8],
    notes: &mut Vec<String>,
) -> Res<u64> {
    let probe = Req {
        target: READY_PROBE.to_string(),
        ..Req::empty()
    };
    let (status, body) = oracle.answer(&probe)?;
    let mut complaints: Vec<String> = mismatch(READY_PROBE, (200, probe_body), (status, &body))
        .into_iter()
        .collect();
    let mut conn = Conn::new(addr);
    for req in reqs {
        let (status, body) = oracle.answer(req)?;
        let complaint = match conn.get(&req.target) {
            Ok(reply) => mismatch(
                &req.target,
                (reply.status, conn.body(&reply)),
                (status, &body),
            ),
            Err(e) => Some(format!("{}: {e}", req.target)),
        };
        complaints.extend(complaint);
    }
    notes.extend(complaints.first().map(|c| format!("verify: {c}")));
    Ok(complaints.len() as u64)
}

/// What one connection, or all of them together, saw during a drive.
struct Load {
    /// Latency of verified `200`s, per request kind.
    hists: Vec<Hist>,
    ok: u64,
    failed: u64,
    /// Reply bytes on the wire, heads included.
    bytes: u64,
    /// TCP connections opened.
    opened: u64,
}

impl Load {
    fn new() -> Self {
        Load {
            hists: Kind::ALL.iter().map(|_| Hist::new()).collect(),
            ok: 0,
            failed: 0,
            bytes: 0,
            opened: 0,
        }
    }

    fn merge(&mut self, other: &Load) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        self.ok += other.ok;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.opened += other.opened;
    }

    fn all(&self) -> Hist {
        let mut all = Hist::new();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }
}

/// The closed loop: `conns` threads, one keep-alive connection each, each
/// sending its next request when the previous reply has been read, for
/// `duration`. Connection `c` draws from PRNG stream `first_stream + c`.
/// A reply counts only with status `200`, valid framing and a body.
fn drive(
    addr: SocketAddr,
    conns: usize,
    first_stream: usize,
    traffic: &Traffic<'_>,
    duration: Duration,
) -> Load {
    let end = Instant::now() + duration;
    let mut total = Load::new();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut gen = traffic.stream((first_stream + c) as u64);
                    let (mut conn, mut req, mut load) =
                        (Conn::new(addr), Req::empty(), Load::new());
                    loop {
                        gen.next_into(&mut req);
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        match conn.get(&req.target) {
                            Ok(reply) if reply.status == 200 && !conn.body(&reply).is_empty() => {
                                let ns = sent.elapsed().as_nanos() as u64;
                                load.hists[req.kind as usize].record(ns);
                                load.ok += 1;
                                load.bytes += reply.wire_bytes as u64;
                            }
                            _ => {
                                load.failed += 1;
                                // A dead server must not become a busy loop.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                    load.opened = conn.opened;
                    load
                })
            })
            .collect();
        for thread in threads {
            total.merge(&thread.join().expect("a load thread panicked"));
        }
    });
    total
}

fn scrape(addr: SocketAddr) -> Res<Scrape> {
    let mut conn = Conn::new(addr);
    let reply = conn.get("/metrics")?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status).into());
    }
    Ok(Scrape::parse(conn.body(&reply))?)
}

/// Median time of connect → first reply over `n` fresh connections, minus
/// the median of the same request on a kept-alive one, in µs.
fn conn_setup_us(addr: SocketAddr, n: usize) -> Res<f64> {
    let timed_get = |conn: &mut Conn| -> Res<u64> {
        let sent = Instant::now();
        let reply = conn.get("/healthz")?;
        if reply.status != 200 {
            return Err(format!("/healthz answered {}", reply.status).into());
        }
        Ok(sent.elapsed().as_nanos() as u64)
    };
    let mut kept = Conn::new(addr);
    timed_get(&mut kept)?;
    let kept_ns = (0..n)
        .map(|_| timed_get(&mut kept))
        .collect::<Res<Vec<u64>>>()?;
    drop(kept);
    let fresh_ns = (0..n)
        .map(|_| timed_get(&mut Conn::new(addr)))
        .collect::<Res<Vec<u64>>>()?;
    Ok(median_us(&fresh_ns) - median_us(&kept_ns))
}

/// Share of distinct targets among the first `DISTINCT_SAMPLE` requests of
/// connection 0: how much of the stream a result cache could not reuse.
fn distinct_share(mut gen: Generator<'_>) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let mut req = Req::empty();
    for _ in 0..DISTINCT_SAMPLE {
        gen.next_into(&mut req);
        if !seen.contains(&req.target) {
            seen.insert(req.target.clone());
        }
    }
    seen.len() as f64 / DISTINCT_SAMPLE as f64
}

/// `part / whole` as a reconciliation line, flagged outside 0.8–1.2.
fn reconcile(notes: &mut Vec<String>, what: &str, part: f64, whole: f64) {
    if whole > 0.0 {
        let ratio = part / whole;
        let flag = if (0.8..=1.2).contains(&ratio) {
            "ok"
        } else {
            "FLAG"
        };
        notes.push(format!("reconcile {what} = {ratio:.3} {flag}"));
    }
}

/// The measurements of a run, by metric name.
#[derive(Default)]
pub struct Values(pub BTreeMap<String, f64>);

impl Values {
    fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

pub fn run(w: &Workload, cfg: &Config, traced: bool) -> Res<Outcome> {
    fs::create_dir_all(&cfg.out)?;
    let snapshot = TempFile(
        cfg.out
            .join(format!("{}-{}.alcc", w.name, std::process::id())),
    );
    let mut t = Tracer::with_capacity(if traced {
        64 + 16 * w.traced
    } else {
        16 * w.setups
    });
    let mut values = Values::default();
    let mut notes = Vec::new();
    let vocab = layers::vocab();
    let zipf = Zipf::new(vocab.len());

    // Recall queries come from a stream no connection uses.
    let mut traffic = Traffic {
        seed: cfg.seed,
        mix: Mix::Search,
        zipf: &zipf,
        vocab: &vocab,
        n_items: 0,
    };
    let queries: Vec<String> = traffic
        .stream(u64::MAX)
        .take(w.recall_queries)
        .into_iter()
        .map(|req| req.query)
        .collect();
    let up = set_up(w, cfg, traced, &snapshot.0, &queries, &mut t)?;
    let oracle = Oracle::load(&snapshot.0, &mut t)?;
    drop(snapshot);
    let addr = up.server.addr;
    traffic.mix = w.mix;
    traffic.n_items = oracle.num_items();

    // Correctness: served replies against the library, then the library's
    // indexed retrieval against its own exact scans.
    let reqs = traffic
        .stream(0)
        .take(w.verify.max(if traced { w.traced } else { 0 }));
    let mut failed = verify(&oracle, addr, &reqs[..w.verify], &up.probe_body, &mut notes)?;
    let search_recall = oracle.search_recall(&queries);
    let ann_recall = oracle.ann_recall(&queries);
    let mut correct = true;
    if search_recall < MIN_SEARCH_RECALL {
        correct = false;
        notes.push(format!(
            "search_recall {search_recall} is below {MIN_SEARCH_RECALL}"
        ));
    }
    for (what, recall) in [
        ("ann_recall", ann_recall),
        ("recall of the re-inserted HNSW", up.rebuilt_recall),
    ] {
        if recall.is_some_and(|r| r < MIN_ANN_RECALL) {
            correct = false;
            notes.push(format!("{what} {recall:?} is below {MIN_ANN_RECALL}"));
        }
    }

    // Warm-up on streams of its own, then the timed window.
    let window = Duration::from_secs_f64(cfg.seconds);
    let conns = w.conns(cfg);
    let warm = drive(addr, conns, conns, &traffic, warm_up(cfg.seconds));
    let before = scrape(addr)?;
    let cpu_before = up.server.cpu_us()?;
    let started = Instant::now();
    let load = drive(addr, conns, 0, &traffic, window);
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_us = up.server.cpu_us()? - cpu_before;
    let server_side = scrape(addr)?.since(&before);
    let rss_mb = up.server.peak_rss_mb()?;
    let conn_setup = if traced {
        conn_setup_us(addr, w.fresh_conns)?
    } else {
        0.0
    };
    up.server.stop()?;

    failed += warm.failed + load.failed;
    failed += server_side.counter("serve.rejected") + server_side.counter("serve.shed");
    let attempted = 1 + w.verify as u64 + warm.ok + warm.failed + load.ok + load.failed;
    if load.ok == 0 {
        return Err("no request succeeded in the timed window".into());
    }
    let all = load.all();
    let ready_s = median(up.ready_s);
    values.put("setup_s", median(up.setup_s));
    values.put("publish_s", median(up.publish_s));
    values.put("ready_s", ready_s);
    values.put("rss_mb", rss_mb);
    values.put("qps", load.ok as f64 / elapsed);
    values.put("p50_us", all.quantile_us(0.5));
    values.put("p99_us", all.quantile_us(0.99));
    values.put("cpu_us_per_req", cpu_us / load.ok as f64);
    values.put("search_recall", search_recall);
    values.put("ann_recall", ann_recall.unwrap_or(0.0));
    if traced {
        values.put("server.conn_setup_us", conn_setup);
        values.put("workload.distinct_share", distinct_share(traffic.stream(0)));
        values.put("snapshot_mb", up.snapshot_bytes as f64 / (1024.0 * 1024.0));
        values.put(
            "store.bytes_per_concept",
            up.snapshot_bytes as f64 / oracle.num_concepts() as f64,
        );
        window_layers(&load, &server_side, &mut values);
        replay_layers(
            &oracle,
            &reqs[..w.traced],
            ready_s,
            &server_side,
            &mut t,
            &mut values,
            &mut notes,
        )?;
        let trace = fs::File::create(cfg.out.join(format!("trace-{}.jsonl", w.name)))?;
        t.write_jsonl(
            &crate::stamp(w, cfg, true),
            &mut std::io::BufWriter::new(trace),
        )?;
    }
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        values: values.0,
        notes,
    })
}

/// Per-layer metrics read off the server's own `/metrics` deltas (M) and
/// the client's counts (C) over the timed window.
fn window_layers(load: &Load, server_side: &Scrape, values: &mut Values) {
    // Both sides timed the same requests, so the difference of the means
    // is what a request spends outside `router::handle`: socket, wake-up,
    // queue, parse, encode.
    let handled: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("serve.{}.latency_ns", k.name()))
        .collect();
    values.put(
        "server.transport_us",
        load.all().mean_us() - server_side.pooled_mean_us(&handled),
    );
    for kind in &Kind::ALL[..4] {
        let route = kind.name();
        values.put(
            &format!("server.handle.{route}_us"),
            server_side.mean_us(&format!("serve.{route}.latency_ns")),
        );
        values.put(
            &format!("route.{route}.p50_us"),
            load.hists[*kind as usize].quantile_us(0.5),
        );
    }
    for name in [
        "search.retrieve",
        "search.score",
        "search.rank",
        "qa.answer",
        "recommend.total",
        "relevance.expand",
        "relevance.retrieve",
    ] {
        values.put(
            &format!("{name}_us"),
            server_side.mean_us(&format!("{name}_ns")),
        );
    }
    for (name, counter, per) in [
        (
            "search.candidates_per_req",
            "search.candidates_examined",
            "search.requests",
        ),
        (
            "search.postings_per_req",
            "search.postings_hit",
            "search.requests",
        ),
        (
            "search.ann_candidates_per_req",
            "search.ann_candidates",
            "search.requests",
        ),
        ("qa.candidates_per_req", "qa.candidates", "qa.requests"),
        (
            "recommend.candidates_per_req",
            "recommend.candidates",
            "recommend.requests",
        ),
        (
            "bm25.postings_per_query",
            "bm25.postings_scanned",
            "bm25.queries",
        ),
    ] {
        values.put(name, server_side.ratio(counter, per));
    }
    values.put(
        "server.conns_per_kreq",
        load.opened as f64 * 1000.0 / load.ok as f64,
    );
    values.put("resp.bytes_per_req", load.bytes as f64 / load.ok as f64);
}

/// Per-layer metrics from harness spans (T): replay `reqs` in-process —
/// a warm-up pass, then the traced passes between two passes that take one
/// clock pair per request (the pair brackets the machine's drift, so that
/// `trace.overhead_pct` compares like with like) — and read medians, self
/// times and the reconciliation ratios off the spans.
fn replay_layers(
    oracle: &Oracle,
    reqs: &[Req],
    ready_s: f64,
    server_side: &Scrape,
    t: &mut Tracer,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> Res<()> {
    oracle.replay_plain(reqs)?;
    let plain_before = median_us(&oracle.replay_plain(reqs)?);
    let counts = oracle.replay_traced(reqs, t)?;
    let plain_us = (plain_before + median_us(&oracle.replay_plain(reqs)?)) / 2.0;
    let t = &*t;

    // Nanoseconds request `i` spent in spans named `name`.
    let mut per_req: Vec<Vec<(&str, u64)>> = vec![Vec::new(); reqs.len()];
    for span in t.spans() {
        if let Some(i) = span.req {
            per_req[i].push((span.name, span.ns()));
        }
    }
    let spent = |i: usize, name: &str| -> f64 {
        per_req[i]
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, ns)| ns as f64)
            .sum()
    };
    let of_kind = |kind: Kind| (0..reqs.len()).filter(move |&i| reqs[i].kind == kind);
    let total = |name: &str| -> f64 { t.durations(name).iter().map(|&ns| ns as f64).sum() };

    for name in [
        "http.parse",
        "http.encode",
        "json.render",
        "query.candidates",
        "ann.embed",
        "ann.knn_concepts",
        "ann.knn_items",
    ] {
        values.put(&format!("{name}_us"), median_us(&t.durations(name)));
    }
    for kind in &Kind::ALL[..4] {
        let route = kind.name();
        let handle = of_kind(*kind)
            .map(|i| spent(i, "router.handle") / 1e3)
            .collect();
        values.put(&format!("router.handle.{route}_us"), median(handle));
        values.put(
            &format!("apps.{route}_us"),
            median_us(&t.durations(&format!("apps.{route}"))),
        );
    }
    let router_self = (0..reqs.len()).map(|i| {
        let engine = format!("apps.{}", reqs[i].kind.name());
        (spent(i, "router.handle") - spent(i, &engine) - spent(i, "json.render")) / 1e3
    });
    values.put("router.self_us", median(router_self.collect()));
    let search_self = of_kind(Kind::Search).map(|i| {
        let under =
            spent(i, "query.candidates") + spent(i, "ann.embed") + spent(i, "ann.knn_concepts");
        (spent(i, "apps.search") - under) / 1e3
    });
    values.put("apps.search.self_us", median(search_self.collect()));
    let request_us = median_us(&t.durations("request"));
    values.put(
        "trace.overhead_pct",
        (request_us - plain_us) / plain_us * 100.0,
    );
    let novel_share = counts.novel as f64 / counts.proposals.max(1) as f64;
    values.put("ann.novel_share", novel_share);
    for stage in [
        "query.index_build",
        "ann.build_bundle",
        "ann.hnsw_insert",
        "ann.encode",
        "ann.decode",
        "store.save_binary",
        "store.save_tsv",
        "store.read",
        "store.open",
        "store.to_graph",
        "store.load_tsv",
        "pack.build",
    ] {
        values.put(&format!("{stage}_s"), t.last_secs(stage));
    }
    let (concept_vectors, vectors, ann_bytes) = oracle.ann_size();
    let insert_s = t.last_secs("ann.hnsw_insert");
    values.put(
        "ann.inserts_per_s",
        if insert_s > 0.0 {
            concept_vectors as f64 / insert_s
        } else {
            0.0
        },
    );
    values.put(
        "ann.bytes_per_vector",
        ann_bytes as f64 / vectors.max(1) as f64,
    );
    let load_stages: f64 = [
        "store.read",
        "store.open",
        "store.to_graph",
        "ann.decode",
        "pack.build",
    ]
    .iter()
    .map(|stage| t.last_secs(stage))
    .sum();
    values.put("ready.unexplained_s", ready_s - load_stages);

    // Do the layers add up to what encloses them?
    reconcile(
        notes,
        "(http.parse + router.handle + http.encode) / request",
        total("http.parse") + total("router.handle") + total("http.encode"),
        total("request"),
    );
    reconcile(
        notes,
        "(apps.search + json.render) / router.handle.search",
        of_kind(Kind::Search)
            .map(|i| spent(i, "apps.search") + spent(i, "json.render"))
            .sum(),
        of_kind(Kind::Search)
            .map(|i| spent(i, "router.handle"))
            .sum(),
    );
    reconcile(
        notes,
        "server search.{retrieve,score,rank}_us / mean apps.search_us",
        ["search.retrieve_ns", "search.score_ns", "search.rank_ns"]
            .iter()
            .map(|h| server_side.mean_us(h))
            .sum(),
        total("apps.search") / of_kind(Kind::Search).count().max(1) as f64 / 1e3,
    );
    reconcile(
        notes,
        "(store.read + store.open + store.to_graph + ann.decode + pack.build) / ready_s",
        load_stages,
        ready_s,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_byte_in_a_body_is_a_loud_mismatch() {
        let expected = br#"{"cards":[{"concept":17,"name":"outdoor0 barbecue1","score":1.1}]}"#;
        assert_eq!(
            mismatch("/search?q=x", (200, expected), (200, expected)),
            None
        );
        let mut served = expected.to_vec();
        served[20] ^= 0x01;
        let complaint = mismatch("/search?q=x", (200, &served), (200, expected)).unwrap();
        assert!(complaint.contains("/search?q=x"), "{complaint}");
        assert!(complaint.contains("at byte 20"), "{complaint}");
        // A truncated body and a wrong status are mismatches too.
        assert!(mismatch("/t", (200, &expected[..10]), (200, expected)).is_some());
        assert!(mismatch("/t", (503, expected), (200, expected)).is_some());
    }

    #[test]
    fn reconciliation_flags_ratios_outside_the_band() {
        let mut notes = Vec::new();
        reconcile(&mut notes, "a / b", 95.0, 100.0);
        reconcile(&mut notes, "c / d", 50.0, 100.0);
        reconcile(&mut notes, "nothing measured", 1.0, 0.0);
        assert_eq!(
            notes,
            ["reconcile a / b = 0.950 ok", "reconcile c / d = 0.500 FLAG"]
        );
    }

    #[test]
    fn smoke_keeps_the_mix_and_shrinks_the_world() {
        for w in WORKLOADS {
            let small = w.smoke();
            assert_eq!(
                (small.name, small.mix, small.hybrid),
                (w.name, w.mix, w.hybrid)
            );
            assert_eq!(small.concepts, 1000);
        }
    }
}
