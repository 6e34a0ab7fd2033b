//! Property suite for the serving layer.
//!
//! 1. Parsing any byte stream never panics, and the sequence of parses
//!    and typed errors is identical no matter how the stream is chunked
//!    across `read()` boundaries.
//! 2. JSON responses are byte-identical across repeat renders.
//! 3. A served `/search` response equals the in-process
//!    `SemanticSearch::search` answer, for random worlds and queries.

mod common;

use std::sync::Arc;

use alicoco::AliCoCo;
use alicoco_obs::Registry;
use alicoco_serve::http::{Limits, Request, RequestParser};
use alicoco_serve::{json, router, EngineConfig, ServingPack};
use proptest::prelude::*;

const VOCAB: &[&str] = &[
    "outdoor", "barbecue", "summer", "beach", "grill", "party", "yoga", "indoor", "camping",
    "picnic", "winter", "gift",
];

fn word(i: u8) -> &'static str {
    VOCAB[i as usize % VOCAB.len()]
}

/// Run the parser over chunks, collecting every parse and the first
/// terminal error (after which a real connection would close).
fn outcomes(chunks: &[&[u8]], limits: Limits) -> Vec<Result<Request, u16>> {
    let mut parser = RequestParser::new(limits);
    let mut out = Vec::new();
    for chunk in chunks {
        parser.push(chunk);
        loop {
            match parser.poll() {
                Ok(Some(req)) => out.push(Ok(req)),
                Ok(None) => break,
                Err(e) => {
                    out.push(Err(e.status()));
                    return out;
                }
            }
        }
    }
    out
}

/// Split `bytes` at the given (wrapped) points into consecutive chunks.
fn chunked<'a>(bytes: &'a [u8], splits: &[usize]) -> Vec<&'a [u8]> {
    let mut cuts: Vec<usize> = splits
        .iter()
        .map(|s| if bytes.is_empty() { 0 } else { s % bytes.len() })
        .collect();
    cuts.push(0);
    cuts.push(bytes.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| &bytes[w[0]..w[1]]).collect()
}

/// Assemble a request-ish byte stream from structured parts so the
/// generator hits deep parser states, then optionally corrupt one byte.
#[derive(Clone, Debug)]
struct RequestSpec {
    method: u8,
    target: u8,
    version: u8,
    headers: Vec<(u8, u8)>,
    body_len: u8,
    corrupt: Option<(u16, u8)>,
}

fn assemble(spec: &RequestSpec) -> Vec<u8> {
    let method = ["GET", "HEAD", "POST", "PUT", "get", ""][spec.method as usize % 6];
    let target = ["/healthz", "/search?q=grill", "/", "nopath", "/%zz"][spec.target as usize % 5];
    let version = ["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTP", ""][spec.version as usize % 5];
    let mut out = format!("{method} {target} {version}\r\n");
    for &(name, value) in &spec.headers {
        let name = [
            "host",
            "connection",
            "content-length",
            "x-pad",
            "transfer-encoding",
        ][name as usize % 5];
        let value = ["x", "close", "keep-alive", "3", "chunked", ""][value as usize % 6];
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str(&format!("content-length: {}\r\n\r\n", spec.body_len % 8));
    let mut bytes = out.into_bytes();
    bytes.extend(std::iter::repeat_n(b'b', (spec.body_len % 8) as usize));
    if let Some((pos, byte)) = spec.corrupt {
        let len = bytes.len();
        if len > 0 {
            bytes[pos as usize % len] = byte;
        }
    }
    bytes
}

fn spec_strategy() -> impl Strategy<Value = RequestSpec> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
        any::<u8>(),
        (any::<u16>(), any::<u8>(), any::<bool>()),
    )
        .prop_map(
            |(method, target, version, headers, body_len, (pos, byte, do_corrupt))| RequestSpec {
                method,
                target,
                version,
                headers,
                body_len,
                corrupt: do_corrupt.then_some((pos, byte)),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random garbage: never panics, chunking never changes the outcome.
    #[test]
    fn parser_is_chunking_invariant_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        splits in prop::collection::vec(0usize..160, 0..6),
    ) {
        let limits = Limits { max_head_bytes: 96, max_headers: 4, max_target_bytes: 48, max_body_bytes: 16 };
        let whole = outcomes(&[&bytes], limits);
        let parts = chunked(&bytes, &splits);
        let split_up = outcomes(&parts, limits);
        prop_assert_eq!(whole, split_up);
    }

    /// Structured request streams (valid and near-valid): one parse or
    /// one typed error, identical across chunkings.
    #[test]
    fn parser_is_chunking_invariant_on_requests(
        specs in prop::collection::vec(spec_strategy(), 1..3),
        splits in prop::collection::vec(0usize..400, 0..6),
    ) {
        let bytes: Vec<u8> = specs.iter().flat_map(assemble).collect();
        let whole = outcomes(&[&bytes], Limits::default());
        let parts = chunked(&bytes, &splits);
        let split_up = outcomes(&parts, Limits::default());
        prop_assert_eq!(whole.clone(), split_up);
        // Every terminal is a typed status the server can answer with.
        if let Some(Err(status)) = whole.last() {
            prop_assert!(matches!(status, 400 | 413 | 431 | 501 | 505));
        }
    }
}

#[derive(Clone, Debug)]
struct WorldSpec {
    primitives: Vec<(u8, u8)>,
    concepts: Vec<(u8, u8)>,
    items: Vec<(u8, u8)>,
    concept_prims: Vec<(u8, u8)>,
    concept_items: Vec<(u8, u8, u8)>,
}

fn world_strategy() -> impl Strategy<Value = WorldSpec> {
    (
        prop::collection::vec((0u8..12, 0u8..3), 1..8),
        prop::collection::vec((0u8..12, 0u8..12), 1..10),
        prop::collection::vec((0u8..12, 0u8..12), 1..8),
        prop::collection::vec((0u8..14, 0u8..8), 0..12),
        prop::collection::vec((0u8..14, 0u8..8, 0u8..=100), 0..12),
    )
        .prop_map(
            |(primitives, concepts, items, concept_prims, concept_items)| WorldSpec {
                primitives,
                concepts,
                items,
                concept_prims,
                concept_items,
            },
        )
}

fn build_world(spec: &WorldSpec) -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let classes: Vec<_> = (0..3)
        .map(|i| kg.add_class(&format!("domain{i}"), Some(root)))
        .collect();
    let prims: Vec<_> = spec
        .primitives
        .iter()
        .map(|&(w, c)| kg.add_primitive(word(w), classes[c as usize % classes.len()]))
        .collect();
    let concepts: Vec<_> = spec
        .concepts
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| kg.add_concept(&format!("{} {} {i}", word(a), word(b))))
        .collect();
    let items: Vec<_> = spec
        .items
        .iter()
        .map(|&(a, b)| kg.add_item(&[word(a).to_string(), word(b).to_string()]))
        .collect();
    for &(c, p) in &spec.concept_prims {
        kg.link_concept_primitive(
            concepts[c as usize % concepts.len()],
            prims[p as usize % prims.len()],
        );
    }
    for &(c, i, w) in &spec.concept_items {
        kg.link_concept_item(
            concepts[c as usize % concepts.len()],
            items[i as usize % items.len()],
            f32::from(w) / 100.0,
        );
    }
    kg
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..14, 1..4)
        .prop_map(|ws| ws.iter().map(|&w| word(w)).collect::<Vec<_>>().join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same engine answer always renders to the same bytes.
    #[test]
    fn renders_are_byte_identical_across_repeats(
        spec in world_strategy(),
        query in query_strategy(),
    ) {
        let kg = build_world(&spec);
        let pack = ServingPack::build_with_ann(
            Arc::new(kg),
            None,
            &EngineConfig::default(),
            &Registry::new(),
        );
        let cards = pack.search().search(&query);
        prop_assert_eq!(json::render_search(&cards), json::render_search(&cards));
        let again = pack.search().search(&query);
        prop_assert_eq!(json::render_search(&cards), json::render_search(&again));
        let recs = pack.recommender().recommend(&[]);
        prop_assert_eq!(
            json::render_recommend(pack.graph(), &recs),
            json::render_recommend(pack.graph(), &recs)
        );
        // The routed response is the rendered engine answer, stably.
        let req = alicoco_serve::http::Request {
            method: alicoco_serve::http::Method::Get,
            target: format!("/search?q={}", query.replace(' ', "+")),
            keep_alive: true,
            body: Vec::new(),
        };
        let reg = Registry::new();
        let (_, first) = router::handle(&req, &pack, &reg);
        let (_, second) = router::handle(&req, &pack, &reg);
        prop_assert_eq!(first.body, second.body);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End to end over a real socket: the served `/search` body equals
    /// the in-process engine answer rendered by the same JSON layer.
    #[test]
    fn served_search_equals_in_process_search(
        spec in world_strategy(),
        query in query_strategy(),
        k in 1usize..6,
    ) {
        let kg = Arc::new(build_world(&spec));
        let server = common::start_server_on(Arc::clone(&kg), common::test_cfg());
        let pack = ServingPack::build_with_ann(kg, None, &EngineConfig::default(), &Registry::new());
        let reply = common::get(
            &server,
            &format!("/search?q={}&k={k}", query.replace(' ', "+")),
        );
        prop_assert_eq!(reply.status, 200);
        let expected = json::render_search(&pack.search().search_top(&query, k));
        prop_assert_eq!(reply.body_text(), expected);
        let report = server.shutdown();
        prop_assert!(report.drained);
    }
}
