//! Every call the harness makes into the repository's crates, in one
//! file: world building, publishing, the server's load path taken stage
//! by stage, the in-process oracle, and the per-layer probes of the traced
//! replay. A refactor that renames or removes one of these public
//! functions breaks this file only.
//!
//! Deliberately not used, because ROADMAP.md plans to delete them: the
//! engines' `with_metrics` / `from_index*` constructors, the
//! `*_instrumented` store twins, `PackSlot::swap`, `binary::Cursor`,
//! `ann::ByteReader`, and `TokenTable` directly.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use alicoco::query::QueryIndex;
use alicoco::snapshot::binary::SnapshotView;
use alicoco::store::{BinaryStore, Store, TsvStore};
use alicoco::{AliCoCo, ConceptId, ItemId};
use alicoco_ann::{build_default_bundle, save_snapshot_with_bundle, AnnBundle, Hnsw};
use alicoco_corpus::scale::{scale_vocab, scale_world};
use alicoco_obs::Registry;
use alicoco_serve::{json, router, EngineConfig, Limits, Request, RequestParser, ServingPack};

use crate::client::write_request;
use crate::gen::{Kind, Req, QA_PREFIX};
use crate::trace::Tracer;
use crate::Res;

/// Neighbours asked of the HNSW probes: the widest `k` any engine uses.
const PROBE_K: usize = 16;
/// Beam width of the HNSW probes: every engine searches with `ef = 64`.
const PROBE_EF: usize = 64;
/// Neighbours compared by `ann_recall`.
const RECALL_K: usize = 10;

/// The 240 tokens queries are drawn from.
pub fn vocab() -> Vec<String> {
    scale_vocab()
}

/// A generated world and, for hybrid workloads, its retrieval bundle.
pub struct World {
    pub kg: AliCoCo,
    pub bundle: Option<AnnBundle>,
}

/// `scale_world(n)` plus two augmentations through public mutators, so
/// that `/recommend` and `/relevance` have real work: every item is linked
/// to the primitives named by its title tokens, and variants 1–3 of each
/// base word are `isA` hyponyms of variant 0.
fn augmented_world(n_concepts: usize) -> AliCoCo {
    let mut kg = scale_world(n_concepts);
    for item in kg.item_ids().collect::<Vec<_>>() {
        for token in kg.item(item).title.clone() {
            if let Some(&primitive) = kg.primitives_by_name(&token).first() {
                kg.link_item_primitive(item, primitive);
            }
        }
    }
    for variants in scale_vocab().chunks(4) {
        let ids: Vec<_> = variants
            .iter()
            .filter_map(|w| kg.primitives_by_name(w).first().copied())
            .collect();
        if let Some((&base, rest)) = ids.split_first() {
            for &variant in rest {
                kg.add_primitive_is_a(variant, base);
            }
        }
    }
    kg
}

/// Generate the world (span `world.generate`) and, if `hybrid`, train
/// embeddings and build both HNSW indexes (span `ann.build_bundle`).
pub fn generate(n_concepts: usize, hybrid: bool, t: &mut Tracer) -> World {
    let kg = t.span("world.generate", |_| augmented_world(n_concepts));
    let bundle = hybrid.then(|| t.span("ann.build_bundle", |_| build_default_bundle(&kg)));
    World { kg, bundle }
}

/// Serialise the world with the binary codec and write the file (span
/// `publish` over `store.save_binary` and `store.write`). Returns the
/// snapshot size in bytes.
pub fn publish(world: &World, path: &Path, t: &mut Tracer) -> Res<usize> {
    t.span("publish", |t| {
        let bytes = t.span("store.save_binary", |_| {
            let mut out = Vec::new();
            match &world.bundle {
                Some(bundle) => save_snapshot_with_bundle(&world.kg, bundle, &mut out),
                None => BinaryStore.save(&world.kg, &mut out),
            }
            .map(|()| out)
        })?;
        t.span("store.write", |_| fs::write(path, &bytes))?;
        Ok(bytes.len())
    })
}

/// Share of the exact `scan_knn` neighbours of each query vector that
/// `knn(v, 10, 64)` also returns.
fn knn_recall(index: &Hnsw, vectors: &[Vec<f32>]) -> f64 {
    let (mut found, mut wanted) = (0usize, 0usize);
    for v in vectors {
        let got = index.knn(v, RECALL_K, PROBE_EF);
        let exact = index.scan_knn(v, RECALL_K);
        wanted += exact.len();
        found += exact
            .iter()
            .filter(|(id, _)| got.iter().any(|(g, _)| g == id))
            .count();
    }
    found as f64 / wanted.max(1) as f64
}

fn embed_all(bundle: &AnnBundle, queries: &[String]) -> Vec<Vec<f32>> {
    queries
        .iter()
        .filter_map(|q| bundle.embed_query(q))
        .collect()
}

/// The storage and index stages the served path does not take but a
/// storage change can move: TSV save and load, bundle encode, and
/// re-inserting the stored concept vectors into a fresh HNSW. Returns the
/// rebuilt index's recall on `queries` (`None` without a bundle): stored
/// vectors are already normalised and normalising them again moves some
/// by an ulp, so the rebuilt index cannot be held to the stored one's
/// bytes — it is held to the same recall floor instead.
pub fn offline_stages(world: &World, queries: &[String], t: &mut Tracer) -> Res<Option<f64>> {
    let tsv = t.span("store.save_tsv", |_| {
        let mut out = Vec::new();
        TsvStore.save(&world.kg, &mut out).map(|()| out)
    })?;
    black_box(t.span("store.load_tsv", |_| TsvStore.load(&tsv))?);
    let Some(bundle) = &world.bundle else {
        return Ok(None);
    };
    black_box(t.span("ann.encode", |_| bundle.encode()));
    let index = bundle.concepts();
    let rebuilt = t.span("ann.hnsw_insert", |_| {
        let mut fresh = Hnsw::new(index.dim(), index.config());
        for id in 0..index.len() {
            fresh.insert(index.vector(id as u32));
        }
        fresh
    });
    Ok(Some(knn_recall(&rebuilt, &embed_all(bundle, queries))))
}

/// The library's side of the "HTTP body ≡ library answer" oracle: a pack
/// built in-process from the same snapshot file the server was given.
pub struct Oracle {
    pack: Arc<ServingPack>,
    bundle: Option<Arc<AnnBundle>>,
    registry: Registry,
}

fn parse(wire: &[u8]) -> Res<Request> {
    match RequestParser::new(Limits::default()).feed(wire) {
        Ok(Some(request)) => Ok(request),
        other => Err(format!("generated request does not parse: {other:?}").into()),
    }
}

/// The words a request is matched against concept postings with: the
/// query for search, the content words for qa, nothing for other routes.
fn concept_text(req: &Req) -> Option<&str> {
    match req.kind {
        Kind::Search => Some(&req.query),
        Kind::Qa => Some(req.query.strip_prefix(QA_PREFIX).unwrap_or(&req.query)),
        _ => None,
    }
}

fn wire(req: &Req) -> Vec<u8> {
    let mut out = Vec::new();
    write_request(&mut out, &req.target);
    out
}

impl Oracle {
    /// Load the snapshot the way `alicoco-serve` does at start-up, one
    /// span per stage: `store.read`, `store.open`, `store.to_graph`,
    /// `ann.decode`, `pack.build`, all under `oracle.load`.
    pub fn load(path: &Path, t: &mut Tracer) -> Res<Oracle> {
        t.span("oracle.load", |t| {
            let bytes = t.span("store.read", |_| fs::read(path))?;
            let view = t.span("store.open", |_| SnapshotView::open(&bytes))?;
            let kg = t.span("store.to_graph", |_| view.to_graph())?;
            let bundle = t
                .span("ann.decode", |_| {
                    view.ann()
                        .map(|(v, c, i)| AnnBundle::decode(v, c, i))
                        .transpose()
                })?
                .map(Arc::new);
            let registry = Registry::new();
            let pack = t.span("pack.build", |_| {
                ServingPack::build_with_ann(
                    Arc::new(kg),
                    bundle.clone(),
                    &EngineConfig::default(),
                    &registry,
                )
            });
            Ok(Oracle {
                pack,
                bundle,
                registry,
            })
        })
    }

    pub fn num_concepts(&self) -> usize {
        self.pack.graph().num_concepts()
    }

    pub fn num_items(&self) -> usize {
        self.pack.graph().num_items()
    }

    /// Concept vectors, vectors in both HNSW indexes together, and the
    /// bytes the two encoded indexes take; zeros without a bundle.
    pub fn ann_size(&self) -> (usize, usize, usize) {
        self.bundle.as_ref().map_or((0, 0, 0), |bundle| {
            let (_, concepts, items) = bundle.encode();
            let vectors = bundle.concepts().len() + bundle.items().len();
            (
                bundle.concepts().len(),
                vectors,
                concepts.len() + items.len(),
            )
        })
    }

    /// Status and body `router::handle` gives for the request.
    pub fn answer(&self, req: &Req) -> Res<(u16, Vec<u8>)> {
        let request = parse(&wire(req))?;
        let (_, response) = router::handle(&request, &self.pack, &self.registry);
        Ok((response.status, response.body))
    }

    fn serve(&self, wire: &[u8]) -> Res<()> {
        let request = parse(wire)?;
        let (_, response) = router::handle(&request, &self.pack, &self.registry);
        black_box(response.encode(false));
        Ok(())
    }

    /// Replay `reqs` through parse → handle → encode with one clock pair
    /// per request and no spans. Returns each request's nanoseconds.
    pub fn replay_plain(&self, reqs: &[Req]) -> Res<Vec<u64>> {
        let wires: Vec<Vec<u8>> = reqs.iter().map(wire).collect();
        let mut ns = Vec::with_capacity(reqs.len());
        for wire in &wires {
            let start = Instant::now();
            self.serve(wire)?;
            ns.push(start.elapsed().as_nanos() as u64);
        }
        Ok(ns)
    }

    /// Replay `reqs` in four passes, each over every request: root span
    /// `request` over `http.parse`, `router.handle` and `http.encode`;
    /// then three `probe` roots that call the layers under the router for
    /// the same request — the engine and the JSON renderer, the candidate
    /// lookup, the embedding and HNSW searches. Separate passes, because a
    /// probe run right after its request would find the caches warm with
    /// exactly the postings and concepts it is about to read. Builds the
    /// probes' `QueryIndex` first (span `query.index_build`).
    pub fn replay_traced(&self, reqs: &[Req], t: &mut Tracer) -> Res<ProbeCounts> {
        let index = t.span("query.index_build", |_| {
            QueryIndex::build(self.pack.graph())
        });
        for (i, req) in reqs.iter().enumerate() {
            let wire = wire(req);
            t.set_request(Some(i));
            t.span("request", |t| -> Res<()> {
                let request = t.span("http.parse", |_| parse(&wire))?;
                let (_, response) = t.span("router.handle", |_| {
                    router::handle(&request, &self.pack, &self.registry)
                });
                black_box(t.span("http.encode", |_| response.encode(false)));
                Ok(())
            })?;
        }
        let mut lexical = Vec::with_capacity(reqs.len());
        let mut counts = ProbeCounts::default();
        for (i, req) in reqs.iter().enumerate() {
            t.set_request(Some(i));
            t.span("probe", |t| self.probe_engine(req, t));
        }
        for (i, req) in reqs.iter().enumerate() {
            t.set_request(Some(i));
            lexical.push(t.span("probe", |t| {
                let text = concept_text(req)?;
                Some(t.span("query.candidates", |_| {
                    index.concept_candidates_counted(text.split_whitespace()).0
                }))
            }));
        }
        for (i, req) in reqs.iter().enumerate() {
            t.set_request(Some(i));
            t.span("probe", |t| {
                self.probe_ann(req, lexical[i].as_deref(), t, &mut counts)
            });
        }
        t.set_request(None);
        Ok(counts)
    }

    /// The engine the route dispatches to, then the JSON renderer on its
    /// answer.
    fn probe_engine(&self, req: &Req, t: &mut Tracer) {
        let pack = &*self.pack;
        match req.kind {
            Kind::Search => {
                let cards = t.span("apps.search", |_| pack.search().search_top(&req.query, 10));
                black_box(t.span("json.render", |_| json::render_search(&cards)));
            }
            Kind::Qa => {
                let answer = t.span("apps.qa", |_| pack.qa().answer(&req.query));
                black_box(t.span("json.render", |_| json::render_qa(answer.as_ref())));
            }
            Kind::Relevance => {
                let words: Vec<String> = req.query.split_whitespace().map(str::to_string).collect();
                let hits = t.span("apps.relevance", |_| {
                    pack.relevance().top_items_expanded(&words, 10)
                });
                black_box(t.span("json.render", |_| {
                    json::render_relevance(pack.graph(), &hits)
                }));
            }
            Kind::Recommend => {
                let history: Vec<ItemId> =
                    req.history.iter().map(|&i| ItemId::from_index(i)).collect();
                let mut recs = t.span("apps.recommend", |_| pack.recommender().recommend(&history));
                recs.truncate(5);
                black_box(t.span("json.render", |_| {
                    json::render_recommend(pack.graph(), &recs)
                }));
            }
            Kind::Healthz => {
                black_box(t.span("json.render", |_| json::render_health()));
            }
        }
    }

    /// What the engines ask of the bundle for this request: the query's
    /// embedding and its nearest concepts (search, qa) or items
    /// (relevance), or the nearest concepts of each viewed item
    /// (recommend). Counts the proposed concepts that `lexical`, the
    /// request's posting-list candidates, did not already hold.
    fn probe_ann(
        &self,
        req: &Req,
        lexical: Option<&[ConceptId]>,
        t: &mut Tracer,
        counts: &mut ProbeCounts,
    ) {
        let Some(bundle) = &self.bundle else {
            return;
        };
        if req.kind == Kind::Recommend {
            for &item in &req.history {
                black_box(t.span("ann.knn_concepts", |_| {
                    let viewed = bundle.items().vector(item as u32);
                    bundle.concepts().knn(viewed, PROBE_K, PROBE_EF)
                }));
            }
            return;
        }
        let text = concept_text(req).unwrap_or(&req.query);
        let Some(v) = t.span("ann.embed", |_| bundle.embed_query(text)) else {
            return;
        };
        match lexical {
            Some(lexical) => {
                let near = t.span("ann.knn_concepts", |_| {
                    bundle.concepts().knn(&v, PROBE_K, PROBE_EF)
                });
                counts.proposals += near.len();
                counts.novel += near
                    .iter()
                    .filter(|&&(id, _)| !lexical.contains(&ConceptId::from_index(id as usize)))
                    .count();
            }
            None => {
                black_box(t.span("ann.knn_items", |_| {
                    bundle.items().knn(&v, PROBE_K, PROBE_EF)
                }));
            }
        }
    }

    /// Share of the exact `search_scan` cards that `search` also returns,
    /// over `queries`.
    pub fn search_recall(&self, queries: &[String]) -> f64 {
        let (mut found, mut wanted) = (0usize, 0usize);
        for query in queries {
            let got = self.pack.search().search(query);
            let exact = self.pack.search().search_scan(query);
            wanted += exact.len();
            found += exact
                .iter()
                .filter(|card| got.iter().any(|g| g.concept == card.concept))
                .count();
        }
        found as f64 / wanted.max(1) as f64
    }

    /// `knn` against `scan_knn` on the concept index, over the embeddable
    /// `queries`; `None` without a bundle.
    pub fn ann_recall(&self, queries: &[String]) -> Option<f64> {
        let bundle = self.bundle.as_ref()?;
        Some(knn_recall(bundle.concepts(), &embed_all(bundle, queries)))
    }
}

/// What the probes counted beside their spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCounts {
    /// Concepts the HNSW index proposed for search and qa requests.
    pub proposals: usize,
    /// Those of them that the lexical postings had not already found.
    pub novel: usize,
}
