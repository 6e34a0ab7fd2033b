//! Route dispatch: map a parsed request to one engine call and one
//! deterministic JSON response. Every failure is a typed status — bad
//! parameters are `400`, unknown paths `404`, wrong methods `405` — and
//! nothing here can panic (AL001/AL007 scope covers this crate).

use alicoco::ItemId;
use alicoco_obs::Registry;

use crate::http::{Method, Request, Response};
use crate::json;
use crate::state::ServingPack;

/// The metric identity of a request: one of the six served routes, or
/// `Other` for unknown paths and pre-route protocol errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKey {
    /// `/search`
    Search,
    /// `/qa`
    Qa,
    /// `/recommend`
    Recommend,
    /// `/relevance`
    Relevance,
    /// `/healthz`
    Healthz,
    /// `/metrics`
    Metrics,
    /// Unknown paths and protocol-level failures.
    Other,
}

impl RouteKey {
    /// Metric name segment (`serve.<name>.…`).
    pub fn name(self) -> &'static str {
        match self {
            RouteKey::Search => "search",
            RouteKey::Qa => "qa",
            RouteKey::Recommend => "recommend",
            RouteKey::Relevance => "relevance",
            RouteKey::Healthz => "healthz",
            RouteKey::Metrics => "metrics",
            RouteKey::Other => "other",
        }
    }

    /// Every key, in metric-registration order.
    pub fn all() -> [RouteKey; 7] {
        [
            RouteKey::Search,
            RouteKey::Qa,
            RouteKey::Recommend,
            RouteKey::Relevance,
            RouteKey::Healthz,
            RouteKey::Metrics,
            RouteKey::Other,
        ]
    }
}

/// Largest accepted `k=` parameter; beyond this is a `400`, not a
/// silent clamp, so misconfigured clients hear about it.
const MAX_K: usize = 1000;

/// Every route is read-only: the one `Allow` set, answered to OPTIONS
/// probes (`204`) and attached to `405`s.
const ALLOWED_METHODS: &str = "GET, HEAD, OPTIONS";

/// Dispatch one request. `metrics` is the registry `/metrics` exports.
pub fn handle(req: &Request, pack: &ServingPack, metrics: &Registry) -> (RouteKey, Response) {
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.target.as_str(), ""),
    };
    let key = match path {
        "/search" => RouteKey::Search,
        "/qa" => RouteKey::Qa,
        "/recommend" => RouteKey::Recommend,
        "/relevance" => RouteKey::Relevance,
        "/healthz" => RouteKey::Healthz,
        "/metrics" => RouteKey::Metrics,
        _ => {
            return (
                RouteKey::Other,
                Response::json(404, json::render_error(404, "no such route")),
            )
        }
    };
    if req.method == Method::Options {
        // Capability probe: no body, no query validation, just the verbs.
        return (
            key,
            Response::json(204, String::new()).with_allow(ALLOWED_METHODS),
        );
    }
    if req.method == Method::Post {
        return (
            key,
            Response::json(405, json::render_error(405, "method not allowed"))
                .with_allow(ALLOWED_METHODS),
        );
    }
    let params = match parse_query(query) {
        Ok(p) => p,
        Err(msg) => return (key, Response::json(400, json::render_error(400, msg))),
    };
    let resp = match key {
        RouteKey::Healthz => Response::json(200, json::render_health()),
        RouteKey::Metrics => Response::json(200, metrics.export_json()),
        RouteKey::Search => match route_search(&params, pack) {
            Ok(body) => Response::json(200, body),
            Err((status, msg)) => Response::json(status, json::render_error(status, msg)),
        },
        RouteKey::Qa => match require(&params, "q") {
            Ok(q) => Response::json(200, json::render_qa(pack.qa().answer(q).as_ref())),
            Err((status, msg)) => Response::json(status, json::render_error(status, msg)),
        },
        RouteKey::Recommend => match route_recommend(&params, pack) {
            Ok(body) => Response::json(200, body),
            Err((status, msg)) => Response::json(status, json::render_error(status, msg)),
        },
        RouteKey::Relevance => match route_relevance(&params, pack) {
            Ok(body) => Response::json(200, body),
            Err((status, msg)) => Response::json(status, json::render_error(status, msg)),
        },
        RouteKey::Other => Response::json(404, json::render_error(404, "no such route")),
    };
    (key, resp)
}

type RouteError = (u16, &'static str);

fn route_search(params: &[(String, String)], pack: &ServingPack) -> Result<String, RouteError> {
    let q = require(params, "q")?;
    let cards = match opt_k(params)? {
        Some(k) => pack.search().search_top(q, k),
        None => pack.search().search(q),
    };
    Ok(json::render_search(&cards))
}

fn route_recommend(params: &[(String, String)], pack: &ServingPack) -> Result<String, RouteError> {
    let mut history: Vec<ItemId> = Vec::new();
    if let Some(raw) = lookup(params, "history") {
        for tok in raw.split(',').filter(|t| !t.is_empty()) {
            let idx: usize = tok
                .trim()
                .parse()
                .map_err(|_| (400, "history: item ids must be decimal integers"))?;
            if idx >= pack.graph().num_items() {
                return Err((400, "history: item id out of range"));
            }
            history.push(ItemId::from_index(idx));
        }
    }
    let mut recs = pack.recommender().recommend(&history);
    if let Some(k) = opt_k(params)? {
        recs.truncate(k);
    }
    Ok(json::render_recommend(pack.graph(), &recs))
}

fn route_relevance(params: &[(String, String)], pack: &ServingPack) -> Result<String, RouteError> {
    let q = require(params, "q")?;
    let words: Vec<String> = q.split_whitespace().map(str::to_string).collect();
    let k = opt_k(params)?.unwrap_or(10);
    let hits = pack.relevance().top_items_expanded(&words, k);
    Ok(json::render_relevance(pack.graph(), &hits))
}

fn lookup<'a>(params: &'a [(String, String)], name: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn require<'a>(params: &'a [(String, String)], name: &'static str) -> Result<&'a str, RouteError> {
    lookup(params, name).ok_or((400, "missing parameter: q"))
}

fn opt_k(params: &[(String, String)]) -> Result<Option<usize>, RouteError> {
    let Some(raw) = lookup(params, "k") else {
        return Ok(None);
    };
    let k: usize = raw
        .parse()
        .map_err(|_| (400, "k: must be a decimal integer"))?;
    if k == 0 || k > MAX_K {
        return Err((400, "k: out of range"));
    }
    Ok(Some(k))
}

/// Split `a=1&b=two+words` into decoded pairs. `+` means space and
/// `%XX` escapes are decoded in both names and values; malformed
/// escapes or non-UTF-8 decoded bytes are a `400`.
pub fn parse_query(query: &str) -> Result<Vec<(String, String)>, &'static str> {
    let mut out = Vec::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(name)?, percent_decode(value)?));
    }
    Ok(out)
}

fn percent_decode(s: &str) -> Result<String, &'static str> {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let hi = bytes.get(i + 1).copied().and_then(hex_val);
                let lo = bytes.get(i + 2).copied().and_then(hex_val);
                match (hi, lo) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => return Err("malformed percent escape"),
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "query is not valid utf-8")
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{EngineConfig, PackSlot, ServingPack};
    use alicoco::AliCoCo;
    use alicoco_obs::json::Json;
    use std::sync::Arc;

    fn demo_net() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let loc = kg.add_class("Location", Some(root));
        let event = kg.add_class("Event", Some(root));
        let outdoor = kg.add_primitive("outdoor", loc);
        let bbq = kg.add_primitive("barbecue", event);
        let c1 = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c1, outdoor);
        kg.link_concept_primitive(c1, bbq);
        let grill = kg.add_item(&["brand".into(), "grill".into()]);
        let charcoal = kg.add_item(&["best".into(), "charcoal".into()]);
        kg.link_concept_item(c1, grill, 0.9);
        kg.link_concept_item(c1, charcoal, 0.8);
        kg.link_item_primitive(grill, bbq);
        kg
    }

    fn demo_pack() -> Arc<ServingPack> {
        ServingPack::build_with_ann(
            Arc::new(demo_net()),
            None,
            &EngineConfig::default(),
            &Registry::new(),
        )
    }

    fn get(target: &str) -> Request {
        Request {
            method: Method::Get,
            target: target.to_string(),
            keep_alive: true,
            body: Vec::new(),
        }
    }

    #[test]
    fn every_route_answers_200() {
        let pack = demo_pack();
        let reg = Registry::new();
        for target in [
            "/healthz",
            "/metrics",
            "/search?q=barbecue",
            "/qa?q=what+do+i+need+for+outdoor+barbecue",
            "/recommend?history=0",
            "/recommend",
            "/relevance?q=barbecue&k=5",
        ] {
            let (_, resp) = handle(&get(target), &pack, &reg);
            assert_eq!(
                resp.status,
                200,
                "{target}: {:?}",
                String::from_utf8_lossy(&resp.body)
            );
        }
    }

    /// The counts of requests that did not ask HNSW are exported beside
    /// the other engine counters, from the first request on; so is the
    /// HNSW share of `/recommend`, one sample per request that asked, and
    /// its walks: a repeated history walks only on its first request.
    #[test]
    fn metrics_list_the_hnsw_skips() {
        let kg = Arc::new(demo_net());
        let bundle = Arc::new(alicoco_ann::build_default_bundle(&kg));
        let reg = Registry::new();
        let pack = ServingPack::build_with_ann(kg, Some(bundle), &EngineConfig::default(), &reg);
        for target in [
            "/search?q=outdoor+barbecue&k=1",
            "/recommend?history=0,1",
            "/recommend",
            "/recommend?history=0,1",
        ] {
            assert_eq!(handle(&get(target), &pack, &reg).1.status, 200, "{target}");
        }
        let (_, resp) = handle(&get("/metrics"), &pack, &reg);
        let body = String::from_utf8(resp.body).unwrap();
        let doc = Json::parse(&body).expect("/metrics is JSON");
        let counters = doc.get("counters").expect("a counters object");
        let count = |name: &str| counters.get(name).and_then(Json::as_num);
        assert_eq!(count("search.ann_skipped"), Some(1.0), "{body}");
        assert_eq!(count("qa.ann_skipped"), Some(0.0), "{body}");
        assert_eq!(count("relevance.ann_skipped"), Some(0.0), "{body}");
        // A hybrid merge is pruned only from 16 blocks on, and the demo
        // net's lists are far shorter.
        assert_eq!(count("search.windows"), Some(0.0), "{body}");
        let histograms = doc.get("histograms").expect("a histograms object");
        let samples = |name: &str| {
            let hist = histograms.get(name);
            hist.and_then(|h| h.get("count")).and_then(Json::as_num)
        };
        assert_eq!(samples("recommend.total_ns"), Some(3.0), "{body}");
        assert_eq!(samples("recommend.knn_ns"), Some(2.0), "{body}");
        assert_eq!(count("recommend.history_items"), Some(4.0), "{body}");
        assert_eq!(count("recommend.knn_walks"), Some(2.0), "{body}");
    }

    /// Lists long enough to prune: `/metrics` shows the windows the merge
    /// evaluated and the block runs it stepped over.
    #[test]
    fn metrics_count_the_pruned_merges_windows() {
        let mut kg = AliCoCo::new();
        let item = kg.add_item(&["thing".into()]);
        // Both words first, so the page fills before the runs of one word.
        for i in 0..3_000 {
            let name = match i / 1_000 {
                0 => format!("red sofa c{i}"),
                1 => format!("red c{i}"),
                _ => format!("sofa c{i}"),
            };
            let c = kg.add_concept(&name);
            if i % 4 == 0 {
                kg.link_concept_item(c, item, 0.5);
            }
        }
        let reg = Registry::new();
        let pack = ServingPack::build_with_ann(Arc::new(kg), None, &EngineConfig::default(), &reg);
        let (_, resp) = handle(&get("/search?q=red+sofa&k=10"), &pack, &reg);
        assert_eq!(resp.status, 200);
        let (_, resp) = handle(&get("/metrics"), &pack, &reg);
        let body = String::from_utf8(resp.body).unwrap();
        let doc = Json::parse(&body).expect("/metrics is JSON");
        let counters = doc.get("counters").expect("a counters object");
        let count = |name: &str| counters.get(name).and_then(Json::as_num).unwrap_or(0.0);
        assert!(count("search.windows") > 0.0, "{body}");
        assert!(count("search.blocks_skipped") > 0.0, "{body}");
        assert!(
            count("search.windows") < count("search.postings_hit") / 64.0,
            "{body}"
        );
    }

    #[test]
    fn search_route_equals_engine_answer() {
        let pack = demo_pack();
        let (key, resp) = handle(&get("/search?q=outdoor+barbecue"), &pack, &Registry::new());
        assert_eq!(key, RouteKey::Search);
        let expected = json::render_search(&pack.search().search("outdoor barbecue"));
        assert_eq!(resp.body, expected.into_bytes());
    }

    /// Regression: a `/search` that answers 200 is one `search.requests`,
    /// whatever its query — the blank ones used to go uncounted.
    #[test]
    fn every_answered_search_is_an_engine_request() {
        let engines = Registry::new();
        let pack = ServingPack::build_with_ann(
            Arc::new(AliCoCo::new()),
            None,
            &EngineConfig::default(),
            &engines,
        );
        let targets = [
            "/search?q=barbecue",
            "/search?q=%20",
            "/search?q=",
            "/search?q=+&k=5",
        ];
        for target in targets {
            let (_, resp) = handle(&get(target), &pack, &Registry::new());
            assert_eq!(resp.status, 200, "{target}");
        }
        assert_eq!(
            engines.counter("search.requests").get(),
            targets.len() as u64
        );
    }

    #[test]
    fn typed_route_failures() {
        let pack = demo_pack();
        let reg = Registry::new();
        let cases = [
            ("/nope", 404),
            ("/search", 400),                 // missing q
            ("/search?q=x&k=0", 400),         // k out of range
            ("/search?q=x&k=boom", 400),      // k not a number
            ("/search?q=%zz", 400),           // bad escape
            ("/recommend?history=9999", 400), // out-of-range item
            ("/recommend?history=a,b", 400),  // non-numeric ids
        ];
        for (target, status) in cases {
            let (_, resp) = handle(&get(target), &pack, &reg);
            assert_eq!(resp.status, status, "{target}");
        }
        let mut post = get("/search?q=x");
        post.method = Method::Post;
        let (_, resp) = handle(&post, &pack, &reg);
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn options_probes_answer_204_with_allow() {
        let pack = demo_pack();
        let reg = Registry::new();
        for target in [
            "/healthz",
            "/metrics",
            "/search", // no query needed for a probe
            "/qa",
            "/recommend",
            "/relevance",
        ] {
            let mut req = get(target);
            req.method = Method::Options;
            let (_, resp) = handle(&req, &pack, &reg);
            assert_eq!(resp.status, 204, "{target}");
            assert_eq!(resp.allow, Some("GET, HEAD, OPTIONS"), "{target}");
            assert!(resp.body.is_empty(), "{target}");
        }
        // Unknown paths stay 404 even for OPTIONS.
        let mut req = get("/nope");
        req.method = Method::Options;
        assert_eq!(handle(&req, &pack, &reg).1.status, 404);
        // 405s advertise the allowed set too.
        let mut post = get("/search?q=x");
        post.method = Method::Post;
        let (_, resp) = handle(&post, &pack, &reg);
        assert_eq!(resp.status, 405);
        assert_eq!(resp.allow, Some("GET, HEAD, OPTIONS"));
    }

    #[test]
    fn query_decoding() {
        assert_eq!(
            parse_query("q=a+b%21&k=3").unwrap(),
            vec![
                ("q".to_string(), "a b!".to_string()),
                ("k".to_string(), "3".to_string())
            ]
        );
        assert!(parse_query("q=%f").is_err());
    }

    #[test]
    fn slot_swap_changes_served_answers() {
        let reg = Registry::new();
        let slot = PackSlot::new(demo_pack());
        let before = handle(&get("/search?q=barbecue"), &slot.get(), &reg).1;
        assert!(String::from_utf8_lossy(&before.body).contains("outdoor barbecue"));
        slot.swap(ServingPack::build_with_ann(
            Arc::new(AliCoCo::new()),
            None,
            &EngineConfig::default(),
            &reg,
        ));
        let after = handle(&get("/search?q=barbecue"), &slot.get(), &reg).1;
        assert_eq!(after.body, b"{\"cards\":[]}");
    }
}
