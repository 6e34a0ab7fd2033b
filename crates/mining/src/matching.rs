//! Concept–item semantic matching (§6, Table 6).
//!
//! Associates e-commerce concepts with items via text matching between the
//! concept phrase and the item title. Implements the paper's model
//! (knowledge-aware deep semantic matching, Figure 8) and every baseline of
//! Table 6: BM25, DSSM, MatchPyramid, and RE2 (the latter two in faithful
//! but lightweight forms — see DESIGN.md).

use alicoco_corpus::{concept_relevant_item, ConceptSpec, Dataset, ItemSpec};
use alicoco_nn::attention::{attentive_pool, attentive_pool_cols, PairAttention};
use alicoco_nn::conv::Conv1d;
use alicoco_nn::layers::{Activation, Embedding, Linear, Mlp};
use alicoco_nn::metrics::{binary_prf, precision_at_k, roc_auc};
use alicoco_nn::param::Param;
use alicoco_nn::{Adam, EpochStats, Graph, NodeId, ParamSet, Tensor, TrainConfig, Trainer};
use alicoco_text::bm25::{Bm25Index, Bm25Params};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::resources::Resources;

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

/// A labeled concept–item pair (indices into the dataset arrays).
pub type Pair = (usize, usize, f32);

/// The matching dataset: concepts (good, with at least one relevant item),
/// items, pairwise train/test sets, and per-concept ranking queries.
pub struct MatchingDataset {
    /// Concepts.
    pub concepts: Vec<ConceptSpec>,
    /// Items.
    pub items: Vec<ItemSpec>,
    /// Train.
    pub train: Vec<Pair>,
    /// Test.
    pub test: Vec<Pair>,
    /// Per-test-concept candidates for P@10: `(concept, [(item, relevant)])`.
    pub queries: Vec<(usize, Vec<(usize, bool)>)>,
}

/// Dataset construction knobs.
#[derive(Clone, Debug)]
pub struct MatchingDataConfig {
    /// Negatives per positive in the pairwise sets.
    pub neg_ratio: usize,
    /// Fraction of concepts held out for testing.
    pub test_fraction: f64,
    /// Max positives per concept (click-log truncation).
    pub max_pos_per_concept: usize,
    /// Candidates per ranking query.
    pub query_candidates: usize,
    /// Seed for sampling and splits.
    pub seed: u64,
}

impl Default for MatchingDataConfig {
    fn default() -> Self {
        MatchingDataConfig {
            neg_ratio: 3,
            test_fraction: 0.3,
            max_pos_per_concept: 8,
            query_candidates: 40,
            seed: 4242,
        }
    }
}

/// Build the matching dataset from ground truth (the click-log stand-in).
pub fn build_matching_dataset(ds: &Dataset, cfg: &MatchingDataConfig) -> MatchingDataset {
    let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
    let items = ds.items.clone();
    // Concepts with at least one relevant item.
    let mut concepts: Vec<ConceptSpec> = Vec::new();
    let mut positives: Vec<Vec<usize>> = Vec::new();
    for c in ds.concepts.iter().filter(|c| c.good) {
        let pos: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, it)| concept_relevant_item(&ds.world, c, it))
            .map(|(i, _)| i)
            .collect();
        if !pos.is_empty() {
            concepts.push(c.clone());
            positives.push(pos);
        }
    }
    // Split concepts.
    let mut order: Vec<usize> = (0..concepts.len()).collect();
    order.shuffle(&mut rng);
    let n_test = ((concepts.len() as f64) * cfg.test_fraction).round() as usize;
    let test_set: alicoco_nn::util::FxHashSet<usize> =
        order[..n_test.min(order.len())].iter().copied().collect();

    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut queries = Vec::new();
    for (ci, pos) in positives.iter().enumerate() {
        let is_test = test_set.contains(&ci);
        let mut pos = pos.clone();
        pos.shuffle(&mut rng);
        pos.truncate(cfg.max_pos_per_concept);
        let sink = if is_test { &mut test } else { &mut train };
        for &p in &pos {
            sink.push((ci, p, 1.0));
            for _ in 0..cfg.neg_ratio {
                let mut guard = 0;
                loop {
                    guard += 1;
                    let cand = rng.gen_range(0..items.len());
                    if guard > 50 || !concept_relevant_item(&ds.world, &concepts[ci], &items[cand])
                    {
                        sink.push((ci, cand, 0.0));
                        break;
                    }
                }
            }
        }
        if is_test {
            // Ranking query: all (capped) positives + random negatives.
            let mut cands: Vec<(usize, bool)> = pos.iter().map(|&p| (p, true)).collect();
            let mut guard = 0;
            while cands.len() < cfg.query_candidates && guard < cfg.query_candidates * 30 {
                guard += 1;
                let cand = rng.gen_range(0..items.len());
                if !concept_relevant_item(&ds.world, &concepts[ci], &items[cand]) {
                    cands.push((cand, false));
                }
            }
            queries.push((ci, cands));
        }
    }
    train.shuffle(&mut rng);
    MatchingDataset {
        concepts,
        items,
        train,
        test,
        queries,
    }
}

/// Build the matching dataset with *click-log* training labels (§7.6: "the
/// positive pairs come from ... user click logs of the running
/// application"): the train split is replaced by pairs aggregated from a
/// simulated click log — noisy and position-biased — while the test split
/// and ranking queries keep oracle ground truth (the paper's
/// human-annotated test set).
pub fn build_matching_dataset_from_clicks(
    ds: &Dataset,
    cfg: &MatchingDataConfig,
    clicks: &alicoco_corpus::ClickConfig,
) -> MatchingDataset {
    let mut data = build_matching_dataset(ds, cfg);
    let log = alicoco_corpus::simulate_clicks(&ds.world, &data.concepts, &data.items, clicks);
    let test_concepts: alicoco_nn::util::FxHashSet<usize> =
        data.test.iter().map(|&(c, _, _)| c).collect();
    let mut train: Vec<Pair> = alicoco_corpus::pairs_from_log(&log)
        .into_iter()
        .filter(|(c, _, _)| !test_concepts.contains(c))
        .collect();
    let mut rng = alicoco_nn::util::seeded_rng(clicks.seed ^ 0xc11c);
    train.shuffle(&mut rng);
    data.train = train;
    data
}

/// Table 6 metrics for one model.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchingMetrics {
    /// ROC-AUC.
    pub auc: f64,
    /// F1 score.
    pub f1: f64,
    /// P at 10.
    pub p_at_10: f64,
}

/// Score all test pairs and queries with a scoring closure.
pub fn evaluate_matcher(
    data: &MatchingDataset,
    mut score: impl FnMut(usize, usize) -> f32,
) -> MatchingMetrics {
    let scored: Vec<(f32, bool)> = data
        .test
        .iter()
        .map(|&(c, i, y)| (score(c, i), y >= 0.5))
        .collect();
    let auc = roc_auc(&scored);
    let f1 = binary_prf(&scored, 0.5).f1;
    let mut p10 = 0.0;
    for (c, cands) in &data.queries {
        let ranked: Vec<(f32, bool)> = cands.iter().map(|&(i, y)| (score(*c, i), y)).collect();
        p10 += precision_at_k(&ranked, 10);
    }
    if !data.queries.is_empty() {
        p10 /= data.queries.len() as f64;
    }
    MatchingMetrics {
        auc,
        f1,
        p_at_10: p10,
    }
}

// ---------------------------------------------------------------------------
// BM25 baseline
// ---------------------------------------------------------------------------

/// BM25 retrieval baseline. Scores are unbounded, so (as in Table 6) only
/// the ranking metric P@10 is meaningful; AUC is reported for completeness.
pub struct Bm25Matcher {
    index: Bm25Index,
    queries: Vec<Vec<alicoco_text::TokenId>>,
}

impl Bm25Matcher {
    /// Build the structure.
    pub fn build(res: &Resources, data: &MatchingDataset) -> Self {
        let docs: Vec<Vec<alicoco_text::TokenId>> = data
            .items
            .iter()
            .map(|it| res.vocab.encode(&it.title))
            .collect();
        let queries = data
            .concepts
            .iter()
            .map(|c| res.vocab.encode(&c.tokens))
            .collect();
        Bm25Matcher {
            index: Bm25Index::build(&docs, Bm25Params::default()),
            queries,
        }
    }

    /// Score the input.
    pub fn score(&self, concept: usize, item: usize) -> f32 {
        self.index.score(&self.queries[concept], item) as f32
    }
}

// ---------------------------------------------------------------------------
// Shared input encoding for the neural matchers
// ---------------------------------------------------------------------------

/// Precomputed id sequences for one side of a pair.
struct Encoded {
    word_ids: Vec<usize>,
    pos_ids: Vec<usize>,
    ner_ids: Vec<usize>,
}

fn encode(res: &Resources, tokens: &[String]) -> Encoded {
    let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
    Encoded {
        word_ids: tokens.iter().map(|t| res.vocab.get_or_unk(t)).collect(),
        pos_ids: res.pos.tag_indices(&refs),
        ner_ids: res.ner.tag_indices(&refs),
    }
}

/// Input embedder shared by the neural matchers: word ⊕ POS ⊕ NER.
struct InputEmbedder {
    word: Embedding,
    pos: Embedding,
    ner: Embedding,
}

impl InputEmbedder {
    fn new(ps: &mut ParamSet, name: &str, res: &Resources, rng: &mut impl Rng) -> Self {
        InputEmbedder {
            // Frozen: the matchers must generalize to unseen concepts, and
            // fine-tuning pre-trained vectors on a small pair set destroys
            // the embedding geometry that transfer depends on.
            word: Embedding::from_pretrained_frozen(
                &format!("{name}.word"),
                res.word_vectors.vectors.clone(),
            ),
            pos: Embedding::new(
                ps,
                &format!("{name}.pos"),
                alicoco_text::tagger::PosTag::COUNT,
                4,
                rng,
            ),
            ner: Embedding::new(ps, &format!("{name}.ner"), res.ner.num_indices(), 6, rng),
        }
    }

    fn dim(&self) -> usize {
        self.word.dim() + 4 + 6
    }

    fn forward(&self, g: &mut Graph, e: &Encoded) -> NodeId {
        let w = self.word.forward(g, &e.word_ids);
        let p = self.pos.forward(g, &e.pos_ids);
        let n = self.ner.forward(g, &e.ner_ids);
        g.concat_cols(&[w, p, n])
    }
}

/// Precomputed cosine-similarity matrix between two token lists under the
/// frozen pre-trained embeddings; fed to the graph as a constant input.
/// Precomputed gloss-overlap similarity matrix (TF-IDF cosine between the
/// glosses of each token pair). This is the knowledge signal that bridges
/// vocabulary gaps: the gloss of "barbecue" mentions charcoal even though
/// the concept and the title share no words (the Table 6 case study).
fn gloss_matrix(res: &Resources, a: &[String], b: &[String]) -> Tensor {
    let mut m = Tensor::zeros(a.len(), b.len());
    for (i, ta) in a.iter().enumerate() {
        for (j, tb) in b.iter().enumerate() {
            m.put(i, j, res.gloss_similarity(ta, tb));
        }
    }
    m
}

fn cosine_matrix(res: &Resources, a: &[String], b: &[String]) -> Tensor {
    let mut m = Tensor::zeros(a.len(), b.len());
    for (i, ta) in a.iter().enumerate() {
        let va = res.word_vectors.vector(res.vocab.get_or_unk(ta));
        for (j, tb) in b.iter().enumerate() {
            let vb = res.word_vectors.vector(res.vocab.get_or_unk(tb));
            m.put(i, j, alicoco_text::word2vec::cosine(va, vb));
        }
    }
    m
}

/// Max over every element of a matrix -> scalar node.
fn max_all(g: &mut Graph, m: NodeId) -> NodeId {
    let (r, c) = {
        let v = g.value(m);
        v.shape()
    };
    let flat = g.reshape(m, r * c, 1);
    g.max_rows(flat)
}

/// 3x3 grid max-pooling over an arbitrary-size matrix (the dynamic pooling
/// of MatchPyramid). Returns a `(1, 9)` node.
fn grid_pool(g: &mut Graph, m: NodeId) -> NodeId {
    let (rows, cols) = {
        let v = g.value(m);
        v.shape()
    };
    let bands = |n: usize| -> Vec<(usize, usize)> {
        // Three contiguous bands covering [0, n).
        (0..3)
            .map(|k| {
                let start = k * n / 3;
                let end = ((k + 1) * n / 3).max(start + 1).min(n);
                (start.min(n - 1), (end - start.min(n - 1)).max(1))
            })
            .collect()
    };
    let row_bands = bands(rows);
    let col_bands = bands(cols);
    let mut cells = Vec::with_capacity(9);
    for &(rs, rl) in &row_bands {
        let band = g.slice_rows(m, rs, rl.min(rows - rs));
        let band_t = g.transpose(band);
        for &(cs, cl) in &col_bands {
            let cell = g.slice_rows(band_t, cs, cl.min(cols - cs));
            cells.push(max_all(g, cell));
        }
    }
    g.concat_cols(&cells)
}

// ---------------------------------------------------------------------------
// DSSM baseline (Huang et al. 2013, word-level variant)
// ---------------------------------------------------------------------------

/// Dssm matcher.
pub struct DssmMatcher {
    ps: ParamSet,
    emb: InputEmbedder,
    tower_c: Mlp,
    tower_i: Mlp,
    scale: Param,
    train: TrainConfig,
}

impl DssmMatcher {
    /// Create a new instance.
    pub fn new(res: &Resources, epochs: usize, seed: u64) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(seed);
        let mut ps = ParamSet::new();
        let emb = InputEmbedder::new(&mut ps, "dssm", res, &mut rng);
        let d = emb.dim();
        let tower_c = Mlp::new(&mut ps, "dssm.c", &[d, 32, 16], Activation::Tanh, &mut rng);
        let tower_i = Mlp::new(&mut ps, "dssm.i", &[d, 32, 16], Activation::Tanh, &mut rng);
        let scale = ps.add("dssm.scale", Tensor::scalar(5.0));
        DssmMatcher {
            ps,
            emb,
            tower_c,
            tower_i,
            scale,
            train: TrainConfig::new(epochs, 0.01),
        }
    }

    fn logit(&self, g: &mut Graph, res: &Resources, c: &[String], t: &[String]) -> NodeId {
        let ce = encode(res, c);
        let te = encode(res, t);
        let cm = self.emb.forward(g, &ce);
        let tm = self.emb.forward(g, &te);
        let cv = g.mean_rows(cm);
        let tv = g.mean_rows(tm);
        let ch = self.tower_c.forward(g, cv);
        let th = self.tower_i.forward(g, tv);
        // Cosine similarity scaled by a learned temperature.
        let dot = {
            let tt = g.transpose(th);
            g.matmul(ch, tt)
        };
        let c2 = g.mul(ch, ch);
        let t2 = g.mul(th, th);
        let cn = g.sum_cols(c2);
        let tn = g.sum_cols(t2);
        // logit = scale * dot / sqrt(cn * tn) ~ approximated with
        // normalization folded into training; a plain scaled dot keeps the
        // graph simple and trains equivalently at this size.
        let _ = (cn, tn);
        let s = g.param(&self.scale);
        g.mul(dot, s)
    }

    /// Train on the given data; returns per-epoch telemetry.
    pub fn train(
        &mut self,
        res: &Resources,
        data: &MatchingDataset,
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let model = &*self;
        train_pairwise(&model.ps, &model.train, data, rng, |g, c, t| {
            model.logit(g, res, c, t)
        })
    }

    /// Score the input.
    pub fn score(&self, res: &Resources, data: &MatchingDataset, c: usize, i: usize) -> f32 {
        let mut g = Graph::new();
        let l = self.logit(&mut g, res, &data.concepts[c].tokens, &data.items[i].title);
        sigmoid(g.value(l).item())
    }
}

// ---------------------------------------------------------------------------
// MatchPyramid baseline (Pang et al. 2016, grid-pooled variant)
// ---------------------------------------------------------------------------

/// Match pyramid matcher.
pub struct MatchPyramidMatcher {
    ps: ParamSet,
    emb: InputEmbedder,
    head: Mlp,
    train: TrainConfig,
}

impl MatchPyramidMatcher {
    /// Create a new instance.
    pub fn new(res: &Resources, epochs: usize, seed: u64) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(seed);
        let mut ps = ParamSet::new();
        let emb = InputEmbedder::new(&mut ps, "mp", res, &mut rng);
        let head = Mlp::new(&mut ps, "mp.head", &[9, 16, 1], Activation::Relu, &mut rng);
        MatchPyramidMatcher {
            ps,
            emb,
            head,
            train: TrainConfig::new(epochs, 0.01),
        }
    }

    fn logit(&self, g: &mut Graph, res: &Resources, c: &[String], t: &[String]) -> NodeId {
        let ce = encode(res, c);
        let te = encode(res, t);
        let cm = self.emb.forward(g, &ce);
        let tm = self.emb.forward(g, &te);
        let tmt = g.transpose(tm);
        let m = g.matmul(cm, tmt); // dot-product matching matrix
        let pooled = grid_pool(g, m);
        self.head.forward(g, pooled)
    }

    /// Train on the given data; returns per-epoch telemetry.
    pub fn train(
        &mut self,
        res: &Resources,
        data: &MatchingDataset,
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let model = &*self;
        train_pairwise(&model.ps, &model.train, data, rng, |g, c, t| {
            model.logit(g, res, c, t)
        })
    }

    /// Score the input.
    pub fn score(&self, res: &Resources, data: &MatchingDataset, c: usize, i: usize) -> f32 {
        let mut g = Graph::new();
        let l = self.logit(&mut g, res, &data.concepts[c].tokens, &data.items[i].title);
        sigmoid(g.value(l).item())
    }
}

// ---------------------------------------------------------------------------
// RE2 baseline (Yang et al. 2019, single-block variant)
// ---------------------------------------------------------------------------

/// Re2 matcher.
pub struct Re2Matcher {
    ps: ParamSet,
    emb: InputEmbedder,
    fuse: Linear,
    head: Mlp,
    train: TrainConfig,
}

impl Re2Matcher {
    /// Create a new instance.
    pub fn new(res: &Resources, epochs: usize, seed: u64) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(seed);
        let mut ps = ParamSet::new();
        let emb = InputEmbedder::new(&mut ps, "re2", res, &mut rng);
        let d = emb.dim();
        // Fusion of [a ; aligned ; a - aligned ; a * aligned].
        let fuse = Linear::new(&mut ps, "re2.fuse", 4 * d, 24, &mut rng);
        let head = Mlp::new(
            &mut ps,
            "re2.head",
            &[4 * 24, 24, 1],
            Activation::Relu,
            &mut rng,
        );
        Re2Matcher {
            ps,
            emb,
            fuse,
            head,
            train: TrainConfig::new(epochs, 0.01),
        }
    }

    /// Align `a` against `b` and produce a fused, max-pooled vector.
    fn align_pool(&self, g: &mut Graph, a: NodeId, b: NodeId) -> NodeId {
        let bt = g.transpose(b);
        let att = g.matmul(a, bt);
        let w = g.softmax_rows(att);
        let aligned = g.matmul(w, b);
        let diff = g.sub(a, aligned);
        let prod = g.mul(a, aligned);
        let cat = g.concat_cols(&[a, aligned, diff, prod]);
        let fused = self.fuse.forward(g, cat);
        let fused = g.relu(fused);
        g.max_rows(fused)
    }

    fn logit(&self, g: &mut Graph, res: &Resources, c: &[String], t: &[String]) -> NodeId {
        let ce = encode(res, c);
        let te = encode(res, t);
        let cm = self.emb.forward(g, &ce);
        let tm = self.emb.forward(g, &te);
        let va = self.align_pool(g, cm, tm);
        let vb = self.align_pool(g, tm, cm);
        let diff = g.sub(va, vb);
        let prod = g.mul(va, vb);
        let cat = g.concat_cols(&[va, vb, diff, prod]);
        self.head.forward(g, cat)
    }

    /// Train on the given data; returns per-epoch telemetry.
    pub fn train(
        &mut self,
        res: &Resources,
        data: &MatchingDataset,
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let model = &*self;
        train_pairwise(&model.ps, &model.train, data, rng, |g, c, t| {
            model.logit(g, res, c, t)
        })
    }

    /// Score the input.
    pub fn score(&self, res: &Resources, data: &MatchingDataset, c: usize, i: usize) -> f32 {
        let mut g = Graph::new();
        let l = self.logit(&mut g, res, &data.concepts[c].tokens, &data.items[i].title);
        sigmoid(g.value(l).item())
    }
}

// ---------------------------------------------------------------------------
// Ours: knowledge-aware deep semantic matching (Figure 8)
// ---------------------------------------------------------------------------

/// Ablation switch: with/without the knowledge side (gloss vectors + linked
/// primitive class ids + K-layer matching pyramid over the enriched
/// sequence).
#[derive(Clone, Debug)]
pub struct OursConfig {
    /// Use knowledge.
    pub use_knowledge: bool,
    /// Conv channels.
    pub conv_channels: usize,
    /// Attn hidden.
    pub attn_hidden: usize,
    /// K matching-matrix layers (eq. 16).
    pub k_layers: usize,
    /// Shared training-loop hyper-parameters.
    pub train: TrainConfig,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for OursConfig {
    fn default() -> Self {
        OursConfig {
            use_knowledge: true,
            conv_channels: 20,
            attn_hidden: 16,
            k_layers: 2,
            train: TrainConfig::new(3, 0.003),
            seed: 66,
        }
    }
}

/// Ours matcher.
pub struct OursMatcher {
    ps: ParamSet,
    emb: InputEmbedder,
    conv_c: Conv1d,
    conv_t: Conv1d,
    pair_attn: PairAttention,
    /// Projects gloss vectors into word-embedding space for the knowledge
    /// sequence.
    gloss_proj: Linear,
    class_emb: Embedding,
    match_w: Vec<Param>,
    match_head: Mlp,
    head: Mlp,
    cfg: OursConfig,
}

impl OursMatcher {
    /// Create a new instance.
    pub fn new(res: &Resources, cfg: OursConfig) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
        let mut ps = ParamSet::new();
        let emb = InputEmbedder::new(&mut ps, "ours", res, &mut rng);
        let d = emb.dim();
        let conv_c = Conv1d::new(&mut ps, "ours.convc", d, cfg.conv_channels, 3, &mut rng);
        let conv_t = Conv1d::new(&mut ps, "ours.convt", d, cfg.conv_channels, 3, &mut rng);
        let pair_attn = PairAttention::new(
            &mut ps,
            "ours.attn",
            cfg.conv_channels,
            cfg.conv_channels,
            cfg.attn_hidden,
            &mut rng,
        );
        let wdim = emb.word.dim();
        let gloss_proj = Linear::new(&mut ps, "ours.gloss", res.cfg.gloss_dim, wdim, &mut rng);
        let class_emb = Embedding::new(&mut ps, "ours.class", 21, wdim, &mut rng);
        let match_w = (0..cfg.k_layers)
            .map(|k| {
                ps.add(
                    format!("ours.match{k}"),
                    Tensor::xavier(wdim, wdim, &mut rng),
                )
            })
            .collect();
        // K learned matching layers plus the precomputed gloss-overlap
        // matrix (also grid-pooled).
        let match_head = Mlp::new(
            &mut ps,
            "ours.mhead",
            &[9 * cfg.k_layers + 9, 16, 12],
            Activation::Relu,
            &mut rng,
        );
        // Head consumes both pooled vectors plus explicit interaction
        // features: elementwise product, difference, and the grid-pooled
        // attention matrix (the interaction signal of Figure 8).
        let head_in = 4 * cfg.conv_channels + 18 + if cfg.use_knowledge { 12 } else { 0 };
        let head = Mlp::new(
            &mut ps,
            "ours.head",
            &[head_in, 16, 1],
            Activation::Relu,
            &mut rng,
        );
        OursMatcher {
            ps,
            emb,
            conv_c,
            conv_t,
            pair_attn,
            gloss_proj,
            class_emb,
            match_w,
            match_head,
            head,
            cfg,
        }
    }

    /// Number of weights.
    pub fn num_weights(&self) -> usize {
        self.ps.num_weights()
    }

    /// Trainable parameters (the train bench's reproducibility gate reads them).
    pub fn params(&self) -> &ParamSet {
        &self.ps
    }

    fn logit(
        &self,
        g: &mut Graph,
        res: &Resources,
        concept: &ConceptSpec,
        title: &[String],
    ) -> NodeId {
        let ce = encode(res, &concept.tokens);
        let te = encode(res, title);
        let cm = self.emb.forward(g, &ce);
        let tm = self.emb.forward(g, &te);
        // Wide CNN encoders (eq. 9–10).
        let cenc = self.conv_c.forward(g, cm);
        let tenc = self.conv_t.forward(g, tm);
        // Two-way additive attention (eq. 11–13) and attentive pooling
        // (eq. 14).
        let att = self.pair_attn.forward(g, cenc, tenc);
        let cvec = attentive_pool(g, att, cenc);
        let ivec = attentive_pool_cols(g, att, tenc);
        let prod = g.mul(cvec, ivec);
        let diff = g.sub(cvec, ivec);
        let att_pool = grid_pool(g, att);
        // Frozen-embedding cosine matrix: the overlap signal that
        // generalizes to unseen concepts.
        let cos = g.input(cosine_matrix(res, &concept.tokens, title));
        let cos_pool = grid_pool(g, cos);
        let mut parts = vec![cvec, ivec, prod, diff, att_pool, cos_pool];

        if self.cfg.use_knowledge {
            // Knowledge-enriched concept-side sequence {w, k, cls}
            // (eq. 15–17): word embeddings, projected gloss vectors, and
            // class-id embeddings of the linked primitive concepts.
            let wids: Vec<usize> = concept
                .tokens
                .iter()
                .map(|t| res.vocab.get_or_unk(t))
                .collect();
            let words = self.emb.word.forward(g, &wids);
            let gloss_rows: Vec<f32> = concept
                .tokens
                .iter()
                .flat_map(|t| res.gloss_vector(t))
                .collect();
            let gloss_in = g.input(Tensor::from_vec(
                concept.tokens.len(),
                res.cfg.gloss_dim,
                gloss_rows,
            ));
            let gloss = self.gloss_proj.forward(g, gloss_in);
            let class_ids: Vec<usize> = concept
                .slots
                .iter()
                .map(|s| s.domain.index() + 1)
                .chain(std::iter::once(0)) // always at least one row
                .collect();
            let classes = self.class_emb.forward(g, &class_ids);
            let kw = g.concat_rows(&[words, gloss, classes]);
            // Title side: plain word embeddings.
            let tw = self.emb.word.forward(g, &te.word_ids);
            // K-layer matching pyramid (eq. 16–17).
            let mut pooled = Vec::with_capacity(self.cfg.k_layers + 1);
            for wk in &self.match_w {
                let w = g.param(wk);
                let kww = g.matmul(kw, w);
                let twt = g.transpose(tw);
                let m = g.matmul(kww, twt);
                pooled.push(grid_pool(g, m));
            }
            let gsim = g.input(gloss_matrix(res, &concept.tokens, title));
            pooled.push(grid_pool(g, gsim));
            let cat = g.concat_cols(&pooled);
            let ci = self.match_head.forward(g, cat);
            parts.push(ci);
        }
        let cat = g.concat_cols(&parts);
        self.head.forward(g, cat) // eq. 18
    }

    /// Train on the given data.
    pub fn train(
        &mut self,
        res: &Resources,
        data: &MatchingDataset,
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let mut opt = Adam::new(self.cfg.train.lr);
        let model = &*self;
        let trainer = Trainer::new(&model.ps, model.cfg.train.clone());
        trainer.train(
            &mut opt,
            &data.train,
            |g, &(c, i, y)| {
                let l = model.logit(g, res, &data.concepts[c], &data.items[i].title);
                Some(g.bce_with_logits(l, &[y]))
            },
            rng,
        )
    }

    /// Score the input.
    pub fn score(&self, res: &Resources, data: &MatchingDataset, c: usize, i: usize) -> f32 {
        let mut g = Graph::new();
        let l = self.logit(&mut g, res, &data.concepts[c], &data.items[i].title);
        sigmoid(g.value(l).item())
    }

    /// Score an arbitrary concept spec against an arbitrary title (used by
    /// the pipeline for concepts discovered at build time).
    pub fn score_spec(&self, res: &Resources, concept: &ConceptSpec, title: &[String]) -> f32 {
        let mut g = Graph::new();
        let l = self.logit(&mut g, res, concept, title);
        sigmoid(g.value(l).item())
    }
}

// ---------------------------------------------------------------------------
// Shared training loop
// ---------------------------------------------------------------------------

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn train_pairwise<F>(
    ps: &ParamSet,
    cfg: &TrainConfig,
    data: &MatchingDataset,
    rng: &mut impl Rng,
    logit: F,
) -> Vec<EpochStats>
where
    F: Fn(&mut Graph, &[String], &[String]) -> NodeId,
{
    let mut opt = Adam::new(cfg.lr);
    let trainer = Trainer::new(ps, cfg.clone());
    trainer.train(
        &mut opt,
        &data.train,
        |g, &(c, i, y)| {
            let l = logit(g, &data.concepts[c].tokens, &data.items[i].title);
            Some(g.bce_with_logits(l, &[y]))
        },
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourcesConfig;

    fn setup() -> (Dataset, Resources, MatchingDataset) {
        let ds = Dataset::tiny();
        let res = Resources::build(&ds, ResourcesConfig::default());
        let data = build_matching_dataset(&ds, &MatchingDataConfig::default());
        (ds, res, data)
    }

    #[test]
    fn dataset_has_disjoint_splits_and_valid_labels() {
        let (ds, _, data) = setup();
        assert!(!data.train.is_empty() && !data.test.is_empty());
        let train_c: alicoco_nn::util::FxHashSet<usize> =
            data.train.iter().map(|&(c, _, _)| c).collect();
        let test_c: alicoco_nn::util::FxHashSet<usize> =
            data.test.iter().map(|&(c, _, _)| c).collect();
        assert!(
            train_c.is_disjoint(&test_c),
            "concept leakage between splits"
        );
        // Labels agree with ground truth.
        for &(c, i, y) in data.train.iter().take(100) {
            let truth = concept_relevant_item(&ds.world, &data.concepts[c], &data.items[i]);
            assert_eq!(truth, y >= 0.5);
        }
    }

    #[test]
    fn bm25_ranks_relevant_items_well() {
        let (_, res, data) = setup();
        let bm = Bm25Matcher::build(&res, &data);
        let m = evaluate_matcher(&data, |c, i| bm.score(c, i));
        // BM25 sees direct word overlap for attribute concepts; it must beat
        // random ranking clearly.
        assert!(m.p_at_10 > 0.2, "bm25 P@10 too low: {m:?}");
        assert!(m.auc > 0.6, "bm25 AUC too low: {m:?}");
    }

    #[test]
    fn ours_beats_chance_after_training() {
        let (_, res, data) = setup();
        let mut rng = alicoco_nn::util::seeded_rng(70);
        let mut ours = OursMatcher::new(
            &res,
            OursConfig {
                train: OursConfig::default().train.with_epochs(2),
                ..Default::default()
            },
        );
        let losses = ours.train(&res, &data, &mut rng);
        assert!(losses.last().unwrap().mean_loss < losses.first().unwrap().mean_loss);
        let m = evaluate_matcher(&data, |c, i| ours.score(&res, &data, c, i));
        assert!(m.auc > 0.75, "ours AUC too low: {m:?}");
        assert!(m.p_at_10 > 0.3, "ours P@10 too low: {m:?}");
    }

    #[test]
    fn knowledge_changes_the_architecture() {
        let (_, res, _) = setup();
        let with = OursMatcher::new(&res, OursConfig::default());
        let without = OursMatcher::new(
            &res,
            OursConfig {
                use_knowledge: false,
                ..Default::default()
            },
        );
        assert!(with.num_weights() > without.num_weights());
        // The two configs must also score differently on the same pair.
        let data = build_matching_dataset(&Dataset::tiny(), &MatchingDataConfig::default());
        let a = with.score(&res, &data, 0, 0);
        let b = without.score(&res, &data, 0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn grid_pool_is_translation_sensitive() {
        let mut g = Graph::new();
        let mut m = Tensor::zeros(6, 6);
        m.put(0, 0, 5.0);
        let n = g.input(m);
        let pooled = grid_pool(&mut g, n);
        let v = g.value(pooled);
        assert_eq!(v.shape(), (1, 9));
        assert_eq!(v.get(0, 0), 5.0);
        assert!(v.data()[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn grid_pool_handles_tiny_matrices() {
        let mut g = Graph::new();
        let n = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let pooled = grid_pool(&mut g, n);
        assert_eq!(g.value(pooled).shape(), (1, 9));
        // Max value must appear in the pooled features.
        assert!(g.value(pooled).data().contains(&4.0));
    }

    #[test]
    fn click_log_training_still_generalizes() {
        // Train labels from the noisy, position-biased click log; test on
        // oracle ground truth (the paper's protocol).
        let ds = Dataset::tiny();
        let res = Resources::build(&ds, ResourcesConfig::default());
        let data = build_matching_dataset_from_clicks(
            &ds,
            &MatchingDataConfig::default(),
            &alicoco_corpus::ClickConfig {
                sessions: 600,
                ..Default::default()
            },
        );
        assert!(!data.train.is_empty());
        // Click labels are noisy: some positives and negatives both present.
        let pos = data.train.iter().filter(|&&(_, _, y)| y >= 0.5).count();
        assert!(pos > 0 && pos < data.train.len());
        let mut rng = alicoco_nn::util::seeded_rng(72);
        let mut ours = OursMatcher::new(
            &res,
            OursConfig {
                train: OursConfig::default().train.with_epochs(2),
                ..Default::default()
            },
        );
        ours.train(&res, &data, &mut rng);
        let m = evaluate_matcher(&data, |c, i| ours.score(&res, &data, c, i));
        assert!(m.auc > 0.7, "click-trained AUC too low: {m:?}");
    }

    #[test]
    fn baseline_matchers_train_without_panicking() {
        let (_, res, data) = setup();
        let mut rng = alicoco_nn::util::seeded_rng(71);
        // One epoch each — the Table 6 comparison runs in the harness.
        let mut dssm = DssmMatcher::new(&res, 1, 1);
        dssm.train(&res, &data, &mut rng);
        let s = dssm.score(&res, &data, 0, 0);
        assert!(s.is_finite() && (0.0..=1.0).contains(&s));
        let mut re2 = Re2Matcher::new(&res, 1, 2);
        re2.train(&res, &data, &mut rng);
        assert!(re2.score(&res, &data, 0, 0).is_finite());
        let mut mp = MatchPyramidMatcher::new(&res, 1, 3);
        mp.train(&res, &data, &mut rng);
        assert!(mp.score(&res, &data, 0, 0).is_finite());
    }
}
