//! End-to-end construction pipeline: wires the five modules together and
//! assembles an [`alicoco::AliCoCo`] instance from a synthetic dataset,
//! following the paper's semi-automatic recipe (machine mining + oracle
//! verification gates).
//!
//! Steps (§2–§6):
//! 1. define the taxonomy (20 domains; Category gets a class hierarchy),
//! 2. align the known lexicon into the primitive layer ("ontology
//!    matching"), then mine new primitives with the BiLSTM-CRF miner and
//!    admit oracle-verified candidates,
//! 3. add isA edges from patterns and the projection model,
//! 4. generate e-commerce concept candidates, filter with the classifier,
//!    gate batches through the oracle,
//! 5. tag admitted concepts and link them to primitives,
//! 6. associate items: primitives by title match (CPV-style), e-commerce
//!    concepts via BM25 candidate retrieval + the knowledge-aware matcher,
//!    storing the matcher score as the edge probability (§10 future work 2).

use alicoco::{AliCoCo, ClassId};
use alicoco_corpus::{Dataset, Domain, Oracle};
use alicoco_nn::record_epoch_stats;
use alicoco_nn::util::{FxHashMap, FxHashSet};
use alicoco_obs::Registry;

use crate::congen::{
    candidates_from_patterns, candidates_from_text, quality_gate, Candidate, ClassifierConfig,
    ConceptClassifier, PrimitivePools,
};
use crate::hypernym::{pattern_based_pairs, HypernymDataset, ProjectionConfig, ProjectionModel};
use crate::matching::{build_matching_dataset, MatchingDataConfig, OursConfig, OursMatcher};
use crate::resources::{Resources, ResourcesConfig};
use crate::tagging::{
    spans, tagging_splits, AmbiguityIndex, ConceptTagger, ContextIndex, TaggerConfig,
};
use crate::vocab_mining::{
    corpus_surfaces, distant_supervision, mine_candidates, verify_candidates, KnownLexicon,
    VocabMiner, VocabMinerConfig,
};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Fraction of the lexicon assumed pre-existing (aligned, not mined).
    pub known_fraction: f64,
    /// Resources.
    pub resources: ResourcesConfig,
    /// Miner.
    pub miner: VocabMinerConfig,
    /// Projection.
    pub projection: ProjectionConfig,
    /// Classifier.
    pub classifier: ClassifierConfig,
    /// Tagger.
    pub tagger: TaggerConfig,
    /// Matcher.
    pub matcher: OursConfig,
    /// Concept candidates to generate from patterns.
    pub pattern_candidates: usize,
    /// BM25 candidates per concept for item association.
    pub item_candidates: usize,
    /// Matcher-score threshold for linking an item.
    pub link_threshold: f32,
    /// Hypernym-model score threshold.
    pub hypernym_threshold: f32,
    /// Examples per optimizer step for every model trained by the pipeline
    /// (overrides each sub-config's `train.batch_size`). `1` reproduces the
    /// historical per-example stepping.
    pub train_batch: usize,
    /// Master seed for the whole run.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            known_fraction: 0.75,
            resources: ResourcesConfig::default(),
            miner: VocabMinerConfig::default(),
            projection: ProjectionConfig::default(),
            classifier: ClassifierConfig::full(),
            tagger: TaggerConfig::full(),
            matcher: OursConfig::default(),
            pattern_candidates: 300,
            item_candidates: 30,
            link_threshold: 0.5,
            hypernym_threshold: 0.7,
            train_batch: 1,
            seed: 20200614,
        }
    }
}

/// Accounting of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Primitives aligned.
    pub primitives_aligned: usize,
    /// Candidates mined.
    pub candidates_mined: usize,
    /// Primitives mined.
    pub primitives_mined: usize,
    /// Is a from patterns.
    pub is_a_from_patterns: usize,
    /// Is a from model.
    pub is_a_from_model: usize,
    /// Concept candidates.
    pub concept_candidates: usize,
    /// Concepts admitted.
    pub concepts_admitted: usize,
    /// Concept primitive links.
    pub concept_primitive_links: usize,
    /// Item primitive links.
    pub item_primitive_links: usize,
    /// Concept item links.
    pub concept_item_links: usize,
    /// Oracle labels.
    pub oracle_labels: u64,
}

/// Run the full pipeline and return the assembled concept net plus report.
pub fn build_alicoco(ds: &Dataset, cfg: &PipelineConfig) -> (AliCoCo, PipelineReport) {
    // A throwaway registry: six span histograms and the per-model epoch
    // bridge record into it and are dropped — negligible next to model
    // training, so the uninstrumented entry point stays the default.
    build_alicoco_instrumented(ds, cfg, &Registry::new())
}

/// [`build_alicoco`] recording stage wall-clock (`pipeline.*_ns`
/// histograms), per-model training telemetry (`train.<model>.*` via
/// [`record_epoch_stats`]), and the final report counts (`pipeline.*`
/// counters) into `metrics`.
pub fn build_alicoco_instrumented(
    ds: &Dataset,
    cfg: &PipelineConfig,
    metrics: &Registry,
) -> (AliCoCo, PipelineReport) {
    // Apply the pipeline-wide batch size to every model's training config.
    let mut cfg = cfg.clone();
    for train in [
        &mut cfg.miner.train,
        &mut cfg.projection.train,
        &mut cfg.classifier.train,
        &mut cfg.tagger.train,
        &mut cfg.matcher.train,
    ] {
        train.batch_size = cfg.train_batch.max(1);
    }
    let cfg = &cfg;
    let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
    let oracle = Oracle::new(&ds.world);
    let res = Resources::build(ds, cfg.resources.clone());
    let mut kg = AliCoCo::new();
    let mut report = PipelineReport::default();

    // ---- 1. taxonomy -----------------------------------------------------
    let stage = metrics.span("pipeline.taxonomy_ns");
    let root = kg.add_class("concept", None);
    let mut domain_class: FxHashMap<Domain, ClassId> = FxHashMap::default();
    for d in Domain::ALL {
        domain_class.insert(d, kg.add_class(d.name(), Some(root)));
    }
    // Category classes: the top two levels of the world tree become taxonomy
    // classes ("clothing-and-accessory", "top"); deeper nodes become
    // primitive concepts indexed under them.
    let cat_domain = domain_class[&Domain::Category];
    let tree = &ds.world.tree;
    let mut tree_class: FxHashMap<usize, ClassId> = FxHashMap::default();
    tree_class.insert(0, cat_domain);
    for id in tree.ids().filter(|&i| i != 0) {
        let depth = tree.node(id).depth;
        if depth <= 2 {
            let parent = tree_class[&tree.node(id).parent.expect("non-root")];
            tree_class.insert(id, kg.add_class(tree.name(id), Some(parent)));
        }
    }
    // Schema relations (§2): a category may be suitable_when a time; events
    // happen_in locations.
    kg.add_schema_relation("suitable_when", cat_domain, domain_class[&Domain::Time]);
    kg.add_schema_relation(
        "happens_in",
        domain_class[&Domain::Event],
        domain_class[&Domain::Location],
    );

    stage.stop();

    // ---- 2. primitive layer ----------------------------------------------
    let stage = metrics.span("pipeline.primitive_layer_ns");
    let (known, heldout) = KnownLexicon::sample(ds, cfg.known_fraction, &mut rng);
    // The taxonomy class a primitive is indexed under.
    let class_of = |kg: &AliCoCo, surface: &str, d: Domain| -> ClassId {
        if d == Domain::Category {
            if let Some(node) = ds
                .world
                .category(surface)
                .or_else(|| ds.world.category(&surface.replace('-', " ")))
            {
                // Deepest class-level ancestor.
                let mut cur = node;
                while tree.node(cur).depth > 2 {
                    cur = tree.node(cur).parent.expect("depth > 2 has parent");
                }
                if let Some(name) = Some(tree.name(cur)) {
                    if let Some(c) = kg.class_by_name(name) {
                        return c;
                    }
                }
            }
        }
        *domain_class.get(&d).expect("all domains present")
    };
    for (surface, domains) in known.iter() {
        for &d in domains {
            let class = class_of(&kg, surface, d);
            kg.add_primitive(surface, class);
            report.primitives_aligned += 1;
        }
    }

    // Mining round: distant supervision -> BiLSTM-CRF -> oracle gate.
    let sentences: Vec<Vec<String>> = ds.corpora.all_sentences().cloned().collect();
    let train_data = distant_supervision(&known, &sentences, 800);
    let mut miner = VocabMiner::new(&res, cfg.miner.clone());
    let miner_stats = miner.train(&res, &train_data, &mut rng);
    record_epoch_stats(metrics, "vocab_miner", &miner_stats);
    let candidates = mine_candidates(&miner, &res, &known, &sentences);
    report.candidates_mined = candidates.len();
    let surfaces = corpus_surfaces(&sentences);
    let (accepted, _) = verify_candidates(&candidates, &oracle, &heldout, &surfaces);
    for c in &accepted {
        let class = class_of(&kg, &c.surface, c.domain);
        kg.add_primitive(&c.surface, class);
        report.primitives_mined += 1;
    }

    stage.stop();

    // ---- 3. hypernym discovery --------------------------------------------
    let stage = metrics.span("pipeline.hypernyms_ns");
    let find_cat_primitive = |kg: &AliCoCo, name: &str| {
        kg.primitives_by_name(name)
            .iter()
            .copied()
            .find(|&p| kg.class_domain(kg.primitive(p).class) == cat_domain)
            .or_else(|| {
                let alt = name.replace('-', " ");
                kg.primitives_by_name(&alt)
                    .iter()
                    .copied()
                    .find(|&p| kg.class_domain(kg.primitive(p).class) == cat_domain)
            })
    };
    // Pattern-based pairs are high precision; add directly (paper applies
    // rule-based extraction without model gating).
    for (hypo, hyper) in pattern_based_pairs(ds) {
        if let (Some(a), Some(b)) = (
            find_cat_primitive(&kg, &hypo),
            find_cat_primitive(&kg, &hyper),
        ) {
            if kg.try_add_primitive_is_a(a, b) {
                report.is_a_from_patterns += 1;
            }
        }
    }
    // Projection model proposals, oracle-gated.
    let hyp_data = HypernymDataset::build(ds, &res, &mut rng);
    let triples = hyp_data.labeled_pairs(&hyp_data.train_pos, 6, &mut rng);
    let mut proj = ProjectionModel::new(res.word_vectors.dim(), cfg.projection.clone());
    let proj_stats = proj.train(&hyp_data, &triples, &mut rng);
    record_epoch_stats(metrics, "hypernym_projection", &proj_stats);
    for (hi, hypo_name) in hyp_data.terms.iter().enumerate() {
        let Some(a) = find_cat_primitive(&kg, hypo_name) else {
            continue;
        };
        for (ai, hyper_name) in hyp_data.terms.iter().enumerate() {
            if hi == ai {
                continue;
            }
            if proj.score(&hyp_data.vecs[hi], &hyp_data.vecs[ai]) >= cfg.hypernym_threshold
                && oracle.label_hypernym(hypo_name, hyper_name)
            {
                if let Some(b) = find_cat_primitive(&kg, hyper_name) {
                    if kg.try_add_primitive_is_a(a, b) {
                        report.is_a_from_model += 1;
                    }
                }
            }
        }
    }

    // Instance-level schema relations (§2): mine suitable_when /
    // happens_in pairs from corpus co-occurrence and gate them through the
    // oracle before recording.
    let mined_rels = crate::relations::mine_relations(
        ds,
        crate::relations::DEFAULT_SCHEMAS,
        &crate::relations::RelationMinerConfig::default(),
    );
    let (accepted_rels, _) = crate::relations::verify_relations(ds, &oracle, &mined_rels);
    for r in &accepted_rels {
        let from = match r.from_domain {
            Domain::Category => find_cat_primitive(&kg, &r.from),
            d => kg.primitive_in_domain(&r.from, domain_class[&d]),
        };
        let to = kg.primitive_in_domain(&r.to, domain_class[&r.to_domain]);
        if let (Some(f), Some(t)) = (from, to) {
            kg.add_primitive_relation(r.name, f, t);
        }
    }

    stage.stop();

    // ---- 4. e-commerce concepts --------------------------------------------
    let stage = metrics.span("pipeline.concept_generation_ns");
    let pools = PrimitivePools::from_dataset(ds);
    let mut candidates: Vec<Candidate> = candidates_from_text(ds, &res, 150);
    candidates.extend(candidates_from_patterns(
        &pools,
        cfg.pattern_candidates,
        &mut rng,
    ));
    report.concept_candidates = candidates.len();
    // Annotation (§7.4): a large sampled portion of the *candidate set* is
    // labeled and becomes training data, so the classifier sees the same
    // distribution it must filter. The curated ground-truth concepts serve
    // as extra examples.
    use rand::seq::SliceRandom;
    let mut cls_train: Vec<(Vec<String>, f32)> =
        crate::congen::classification_splits(ds, &mut rng).0;
    let mut cand_ixs: Vec<usize> = (0..candidates.len()).collect();
    cand_ixs.shuffle(&mut rng);
    let annotate = cand_ixs.len() * 6 / 10;
    let annotated: FxHashSet<usize> = cand_ixs[..annotate].iter().copied().collect();
    for &ix in &cand_ixs[..annotate] {
        let y = oracle.label_concept(&candidates[ix].tokens);
        cls_train.push((candidates[ix].tokens.clone(), if y { 1.0 } else { 0.0 }));
    }
    let mut classifier = ConceptClassifier::new(&res, cfg.classifier.clone());
    let cls_stats = classifier.train(&res, &cls_train, &mut rng);
    record_epoch_stats(metrics, "concept_classifier", &cls_stats);
    // Annotated candidates bypass the model (their label is already known):
    // approved ones are admitted directly. Unlabeled candidates flow through
    // the classifier and then the batch quality gate (§5.2.2): each batch is
    // sample-checked by the oracle and admitted only if the sampled accuracy
    // clears the threshold.
    let mut admitted: Vec<Candidate> = Vec::new();
    let mut unlabeled: Vec<Candidate> = Vec::new();
    for (ix, c) in candidates.into_iter().enumerate() {
        if annotated.contains(&ix) {
            let approved = cls_train
                .iter()
                .rev()
                .find(|(t, _)| *t == c.tokens)
                .is_some_and(|(_, y)| *y >= 0.5);
            if approved {
                admitted.push(c);
            }
        } else {
            unlabeled.push(c);
        }
    }
    let accepted: Vec<Candidate> = unlabeled
        .into_iter()
        .filter(|c| classifier.score(&res, &c.tokens) >= 0.6)
        .collect();
    for chunk in accepted.chunks(40) {
        let gate = quality_gate(chunk, &oracle, 0.3, 0.6, &mut rng);
        if gate.admitted {
            admitted.extend(chunk.iter().cloned());
        }
    }

    stage.stop();

    // ---- 5. tagging / linking ----------------------------------------------
    let stage = metrics.span("pipeline.tagging_linking_ns");
    let (mut tag_train, _, _) = tagging_splits(ds, &mut rng);
    tag_train.extend(crate::tagging::distant_tagging_examples(
        ds,
        300,
        cfg.seed ^ tag_placeholder(),
    ));
    let amb = AmbiguityIndex::build(ds);
    let ctx_words: FxHashSet<String> = admitted
        .iter()
        .flat_map(|c| c.tokens.iter().cloned())
        .chain(tag_train.iter().flat_map(|e| e.tokens.iter().cloned()))
        .collect();
    let ctx = ContextIndex::build(&res, ds, ctx_words.iter().map(String::as_str), 3);
    let mut tagger = ConceptTagger::new(&res, cfg.tagger.clone());
    let tagger_stats = tagger.train(&res, &ctx, &amb, &tag_train, &mut rng);
    record_epoch_stats(metrics, "concept_tagger", &tagger_stats);

    let mut admitted_specs: Vec<alicoco::ConceptId> = Vec::new();
    for cand in &admitted {
        let text = cand.tokens.join(" ");
        let cid = kg.add_concept(&text);
        admitted_specs.push(cid);
        report.concepts_admitted += 1;
        let labels = tagger.tag(&res, &ctx, &cand.tokens);
        for (start, len, domain) in spans(&labels) {
            let surface = cand.tokens[start..start + len].join(" ");
            let class = class_of(&kg, &surface, domain);
            // Link to an existing primitive sense in this domain; create the
            // primitive if the tagger surfaced a new one.
            let pid = kg
                .primitive_in_domain(&surface, domain_class[&domain])
                .unwrap_or_else(|| kg.add_primitive(&surface, class));
            kg.link_concept_primitive(cid, pid);
            report.concept_primitive_links += 1;
        }
    }
    // Concept isA: suffix rule ("outdoor barbecue" isA "barbecue";
    // "british-style winter coat" isA "winter coat"). When the suffix is a
    // valid concept that was not itself admitted, ask the oracle once and
    // admit it — this is how the concept layer densifies into the paper's
    // 22M-edge isA structure.
    let mut by_text: FxHashMap<String, alicoco::ConceptId> = admitted_specs
        .iter()
        .map(|&c| (kg.concept(c).name.to_string(), c))
        .collect();
    let concept_texts: Vec<String> = by_text.keys().cloned().collect();
    for text in &concept_texts {
        let tokens: Vec<String> = text.split(' ').map(String::from).collect();
        if tokens.len() < 2 {
            continue;
        }
        let suffix_tokens: Vec<String> = tokens[1..].to_vec();
        let suffix = suffix_tokens.join(" ");
        let hyper = match by_text.get(&suffix) {
            Some(&h) => Some(h),
            None => {
                if oracle.label_concept(&suffix_tokens) {
                    let h = kg.add_concept(&suffix);
                    by_text.insert(suffix.clone(), h);
                    report.concepts_admitted += 1;
                    Some(h)
                } else {
                    None
                }
            }
        };
        if let Some(hyper) = hyper {
            let hypo = by_text[text];
            kg.try_add_concept_is_a(hypo, hyper);
        }
    }

    stage.stop();

    // ---- 6. items ------------------------------------------------------------
    let stage = metrics.span("pipeline.item_association_ns");
    // Item -> primitive links: CPV-style longest-match over titles.
    let mut item_ids = Vec::with_capacity(ds.items.len());
    for item in &ds.items {
        let iid = kg.add_item(&item.title);
        item_ids.push(iid);
        let mut t = 0;
        while t < item.title.len() {
            let mut matched = 0;
            for n in (1..=2.min(item.title.len() - t)).rev() {
                let span = item.title[t..t + n].join(" ");
                let senses = kg.primitives_by_name(&span);
                if let Some(&p) = senses.first() {
                    // Ambiguous surfaces link every sense in production;
                    // we link the first (deterministic) sense.
                    kg.link_item_primitive(iid, p);
                    report.item_primitive_links += 1;
                    matched = n;
                    break;
                }
            }
            t += matched.max(1);
        }
    }
    // Concept -> item links: train the knowledge-aware matcher on the
    // click-log stand-in, then for every admitted concept retrieve BM25
    // candidates (over both title overlap and gloss neighbours) and link the
    // pairs the matcher accepts, storing the score as the edge probability.
    let match_data = build_matching_dataset(ds, &MatchingDataConfig::default());
    let mut matcher = OursMatcher::new(&res, cfg.matcher.clone());
    let matcher_stats = matcher.train(&res, &match_data, &mut rng);
    record_epoch_stats(metrics, "semantic_matcher", &matcher_stats);
    // Index titles with hyphen decompounding ("pro-grill" also indexed as
    // "pro" and "grill") so gloss-derived query terms reach compound
    // products — the standard decompounding trick of product search.
    let item_docs: Vec<Vec<alicoco_text::TokenId>> = ds
        .items
        .iter()
        .map(|it| {
            let mut toks: Vec<String> = it.title.clone();
            for t in &it.title {
                if t.contains('-') {
                    toks.extend(t.split('-').map(String::from));
                }
            }
            res.vocab.encode(&toks)
        })
        .collect();
    let mut bm25 =
        alicoco_text::bm25::Bm25Index::build(&item_docs, alicoco_text::bm25::Bm25Params::default());
    bm25.set_metrics(alicoco_text::bm25::Bm25Metrics::register(metrics));
    // Reconstruct a spec per admitted concept from its tagged spans so the
    // matcher's knowledge side has slots to embed.
    for cand in &admitted {
        let text = cand.tokens.join(" ");
        let Some(&cid) = by_text.get(&text) else {
            continue;
        };
        let labels = tagger.tag(&res, &ctx, &cand.tokens);
        let slots: Vec<alicoco_corpus::Slot> = spans(&labels)
            .into_iter()
            .map(|(start, len, domain)| alicoco_corpus::Slot {
                domain,
                surface: cand.tokens[start..start + len].join(" "),
                start,
                len,
            })
            .collect();
        let spec = alicoco_corpus::ConceptSpec {
            tokens: cand.tokens.clone(),
            slots,
            pattern: "pipeline",
            good: true,
            defect: None,
        };
        // Expand the BM25 query with gloss terms of the concept tokens so
        // relational matches ("barbecue" -> charcoal) are retrievable.
        let mut query = res.vocab.encode(&cand.tokens);
        for t in &cand.tokens {
            if let Some(g) = ds.glosses.gloss(t) {
                query.extend(res.vocab.encode(&g[..g.len().min(10)]));
            }
        }
        let mut scored: Vec<(usize, f32)> = bm25
            .search(&query, cfg.item_candidates)
            .into_iter()
            .map(|(ii, _)| (ii, matcher.score_spec(&res, &spec, &ds.items[ii].title)))
            .collect();
        scored.sort_by(alicoco::rank::by_score_then_id);
        let mut linked = 0;
        for &(ii, s) in &scored {
            if s >= cfg.link_threshold {
                kg.link_concept_item(cid, item_ids[ii], s.clamp(0.0, 1.0));
                report.concept_item_links += 1;
                linked += 1;
            }
        }
        // Coverage floor: a concept card with no items is useless in
        // production, so when the matcher accepts nothing, keep its top few
        // candidates with their (honest, low) scores.
        if linked == 0 {
            for &(ii, s) in scored.iter().take(3) {
                kg.link_concept_item(cid, item_ids[ii], s.clamp(0.01, 1.0));
                report.concept_item_links += 1;
            }
        }
    }

    // Hypernym concepts inherit their hyponyms' items, discounted — a
    // "winter coat" card can show what "british-style winter coat" sells.
    let is_a_pairs: Vec<(alicoco::ConceptId, alicoco::ConceptId)> = kg
        .concept_ids()
        .flat_map(|c| kg.concept(c).hypernyms.iter().map(move |&h| (c, h)))
        .collect();
    for (hypo, hyper) in is_a_pairs {
        for (item, w) in kg.items_for_concept(hypo) {
            if !kg.concept(hyper).items.iter().any(|&(i, _)| i == item) {
                kg.link_concept_item(hyper, item, (w * 0.8).clamp(0.0, 1.0));
                report.concept_item_links += 1;
            }
        }
    }

    stage.stop();

    report.oracle_labels = oracle.labels_used();
    // Export the report counts so `--metrics` runs carry construction-side
    // accounting next to the serving and training metrics.
    for (name, value) in [
        (
            "pipeline.primitives_aligned",
            report.primitives_aligned as u64,
        ),
        ("pipeline.candidates_mined", report.candidates_mined as u64),
        ("pipeline.primitives_mined", report.primitives_mined as u64),
        (
            "pipeline.is_a_from_patterns",
            report.is_a_from_patterns as u64,
        ),
        ("pipeline.is_a_from_model", report.is_a_from_model as u64),
        (
            "pipeline.concept_candidates",
            report.concept_candidates as u64,
        ),
        (
            "pipeline.concepts_admitted",
            report.concepts_admitted as u64,
        ),
        (
            "pipeline.concept_primitive_links",
            report.concept_primitive_links as u64,
        ),
        (
            "pipeline.item_primitive_links",
            report.item_primitive_links as u64,
        ),
        (
            "pipeline.concept_item_links",
            report.concept_item_links as u64,
        ),
        ("pipeline.oracle_labels", report.oracle_labels),
    ] {
        metrics.counter(name).add(value);
    }
    (kg, report)
}

/// Placeholder seed mixer (kept separate so the constant is documented).
fn tag_placeholder() -> u64 {
    0x7a6
}

#[cfg(test)]
mod tests {
    use super::*;
    use alicoco::Stats;

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            miner: VocabMinerConfig {
                train: VocabMinerConfig::default().train.with_epochs(2),
                ..Default::default()
            },
            projection: ProjectionConfig {
                train: ProjectionConfig::default().train.with_epochs(3),
                ..Default::default()
            },
            classifier: ClassifierConfig {
                train: ClassifierConfig::full().train.with_epochs(4),
                ..ClassifierConfig::full()
            },
            tagger: TaggerConfig {
                train: TaggerConfig::full().train.with_epochs(2),
                ..TaggerConfig::full()
            },
            matcher: OursConfig {
                train: OursConfig::default().train.with_epochs(1),
                ..Default::default()
            },
            pattern_candidates: 150,
            item_candidates: 15,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_builds_a_complete_net() {
        let ds = Dataset::tiny();
        let (kg, report) = build_alicoco(&ds, &fast_config());
        let stats = Stats::compute(&kg);
        assert!(stats.num_classes > 20, "taxonomy missing: {stats:?}");
        assert!(
            stats.num_primitives > 200,
            "too few primitives: {}",
            stats.num_primitives
        );
        assert!(report.primitives_mined > 0, "mining admitted nothing");
        assert!(
            stats.num_concepts > 20,
            "too few concepts: {}",
            stats.num_concepts
        );
        assert!(
            stats.is_a_primitive > 50,
            "too few isA edges: {}",
            stats.is_a_primitive
        );
        assert!(report.concept_primitive_links > 20);
        assert!(stats.item_concept_links > 0, "no concept-item links");
        assert!(stats.item_primitive_links > 500);
        assert!(report.oracle_labels > 0);
        // Every linked item weight is a probability (checked by the graph's
        // own assertion; re-check one edge end-to-end).
        let c = kg
            .concept_ids()
            .find(|&c| !kg.concept(c).items.is_empty())
            .expect("some concept has items");
        let (_, w) = kg.concept(c).items[0];
        assert!((0.0..=1.0).contains(&w));
    }

    #[test]
    fn pipeline_concepts_are_mostly_good() {
        let ds = Dataset::tiny();
        let (kg, _) = build_alicoco(&ds, &fast_config());
        let oracle = Oracle::new(&ds.world);
        let mut good = 0;
        let mut total = 0;
        for c in kg.concept_ids() {
            let tokens: Vec<String> = kg.concept(c).name.split(' ').map(String::from).collect();
            total += 1;
            if oracle.label_concept(&tokens) {
                good += 1;
            }
        }
        assert!(total > 0);
        assert!(
            good as f64 / total as f64 > 0.6,
            "admitted concept precision too low: {good}/{total}"
        );
    }
}
