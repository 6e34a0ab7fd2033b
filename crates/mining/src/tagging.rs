//! E-commerce concept tagging (§5.3, Table 5): linking concept words to
//! primitive-concept classes with a text-augmented deep NER model and a
//! fuzzy CRF.
//!
//! The three Table 5 rows map to switches: `Baseline` (BiLSTM + strict CRF),
//! `+Fuzzy CRF` (per-position allowed-label sets from lexicon ambiguity,
//! eq. 8), `+Fuzzy CRF & Knowledge` (gloss vectors and Doc2vec context
//! vectors concatenated into the token representation, Figure 6's TM
//! matrix).

use alicoco_corpus::{ConceptSpec, Dataset, Domain};
use alicoco_nn::attention::SelfAttention;
use alicoco_nn::conv::Conv1d;
use alicoco_nn::crf::Crf;
use alicoco_nn::layers::{Embedding, Linear};
use alicoco_nn::metrics::{prf_from_counts, PrF1};
use alicoco_nn::rnn::BiLstm;
use alicoco_nn::util::{FxHashMap, FxHashSet};
use alicoco_nn::{Adam, EpochStats, Graph, NodeId, ParamSet, Tensor, TrainConfig, Trainer};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::resources::Resources;
use crate::vocab_mining::{b_label, i_label, is_begin, label_domain, NUM_LABELS};

/// One labeled tagging example: tokens and gold IOB labels.
#[derive(Clone, Debug)]
pub struct TaggingExample {
    /// Tokens.
    pub tokens: Vec<String>,
    /// Labels.
    pub labels: Vec<usize>,
}

impl TaggingExample {
    /// Build from a ground-truth concept spec.
    pub fn from_spec(spec: &ConceptSpec) -> Self {
        let mut labels = vec![0usize; spec.tokens.len()];
        for s in &spec.slots {
            labels[s.start] = b_label(s.domain);
            for k in 1..s.len {
                labels[s.start + k] = i_label(s.domain);
            }
        }
        TaggingExample {
            tokens: spec.tokens.clone(),
            labels,
        }
    }
}

/// Extract `(start, len, domain)` spans from an IOB label sequence.
pub fn spans(labels: &[usize]) -> Vec<(usize, usize, Domain)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < labels.len() {
        if is_begin(labels[i]) {
            let d = label_domain(labels[i]).expect("begin label");
            let mut j = i + 1;
            while j < labels.len() && labels[j] == i_label(d) {
                j += 1;
            }
            out.push((i, j - i, d));
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Span-level precision/recall/F1 over a corpus of examples.
pub fn span_prf(golds: &[Vec<usize>], preds: &[Vec<usize>]) -> PrF1 {
    assert_eq!(golds.len(), preds.len());
    let mut tp = 0;
    let mut fp = 0;
    let mut fn_ = 0;
    for (g, p) in golds.iter().zip(preds) {
        let gs: FxHashSet<(usize, usize, Domain)> = spans(g).into_iter().collect();
        let ps: FxHashSet<(usize, usize, Domain)> = spans(p).into_iter().collect();
        tp += gs.intersection(&ps).count();
        fp += ps.difference(&gs).count();
        fn_ += gs.difference(&ps).count();
    }
    prf_from_counts(tp, fp, fn_)
}

/// Token → domains ambiguity index, built from the world lexicon; drives the
/// fuzzy CRF's allowed-label sets ("village" may be `Location` or `Style`).
#[derive(Clone, Debug, Default)]
pub struct AmbiguityIndex {
    domains: FxHashMap<String, Vec<Domain>>,
}

impl AmbiguityIndex {
    /// Build the structure.
    pub fn build(ds: &Dataset) -> Self {
        let mut domains: FxHashMap<String, Vec<Domain>> = FxHashMap::default();
        for (surface, d) in ds.world.lexicon.all_terms() {
            let e = domains.entry(surface.to_string()).or_default();
            if !e.contains(&d) {
                e.push(d);
            }
        }
        for id in ds.world.tree.ids() {
            for tok in ds.world.tree.name(id).split(' ') {
                let e = domains.entry(tok.to_string()).or_default();
                if !e.contains(&Domain::Category) {
                    e.push(Domain::Category);
                }
            }
        }
        AmbiguityIndex { domains }
    }

    /// Domains of.
    pub fn domains_of(&self, token: &str) -> &[Domain] {
        self.domains.get(token).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Allowed label sets for a gold-labeled example: the gold label always,
    /// plus alternative `B-` labels for ambiguous single-token spans.
    pub fn allowed_sets(&self, example: &TaggingExample) -> Vec<Vec<usize>> {
        let gold_spans = spans(&example.labels);
        let single: FxHashSet<usize> = gold_spans
            .iter()
            .filter(|(_, len, _)| *len == 1)
            .map(|(s, _, _)| *s)
            .collect();
        example
            .labels
            .iter()
            .enumerate()
            .map(|(t, &gold)| {
                let mut set = vec![gold];
                if single.contains(&t) {
                    for &d in self.domains_of(&example.tokens[t]) {
                        let alt = b_label(d);
                        if !set.contains(&alt) {
                            set.push(alt);
                        }
                    }
                }
                set
            })
            .collect()
    }
}

/// Ablation switches matching the Table 5 rows.
#[derive(Clone, Debug)]
pub struct TaggerConfig {
    /// Fuzzy CRF numerator (vs strict gold-path CRF).
    pub use_fuzzy: bool,
    /// Knowledge: gloss + context vectors in the token representation.
    pub use_knowledge: bool,
    /// Char embedding dimension.
    pub char_dim: usize,
    /// Char channels.
    pub char_channels: usize,
    /// Hidden.
    pub hidden: usize,
    /// Attn embedding dimension.
    pub attn_dim: usize,
    /// POS embedding dimension.
    pub pos_dim: usize,
    /// Shared training-loop hyper-parameters.
    pub train: TrainConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for TaggerConfig {
    fn default() -> Self {
        TaggerConfig {
            use_fuzzy: true,
            use_knowledge: true,
            char_dim: 10,
            char_channels: 12,
            hidden: 20,
            attn_dim: 24,
            pos_dim: 4,
            train: TrainConfig::new(8, 0.01),
            seed: 31,
        }
    }
}

impl TaggerConfig {
    /// Table 5 "Baseline": BiLSTM + strict CRF.
    pub fn baseline() -> Self {
        TaggerConfig {
            use_fuzzy: false,
            use_knowledge: false,
            ..Default::default()
        }
    }

    /// "+Fuzzy CRF".
    pub fn with_fuzzy() -> Self {
        TaggerConfig {
            use_fuzzy: true,
            use_knowledge: false,
            ..Default::default()
        }
    }

    /// "+Fuzzy CRF & Knowledge" (the full model).
    pub fn full() -> Self {
        TaggerConfig::default()
    }
}

/// Doc2vec context vectors per token (Figure 6's textual matrix `TM`):
/// each word is mapped back to corpus sentences and its surrounding context
/// is encoded once.
pub struct ContextIndex {
    vectors: FxHashMap<String, Vec<f32>>,
    dim: usize,
}

impl ContextIndex {
    /// Build context vectors for `words`, sampling up to `max_sentences`
    /// corpus sentences per word.
    pub fn build<'a>(
        res: &Resources,
        ds: &Dataset,
        words: impl IntoIterator<Item = &'a str>,
        max_sentences: usize,
    ) -> Self {
        let want: FxHashSet<&str> = words.into_iter().collect();
        let mut contexts: FxHashMap<&str, Vec<alicoco_text::TokenId>> = FxHashMap::default();
        for sent in ds.corpora.all_sentences() {
            for tok in sent {
                if let Some(w) = want.get(tok.as_str()) {
                    let e = contexts.entry(w).or_default();
                    // Cap the context document length.
                    if e.len() < max_sentences * 12 {
                        e.extend(res.vocab.encode(sent));
                    }
                }
            }
        }
        let dim = res.gloss_model.dim();
        let mut vectors = FxHashMap::default();
        for (w, doc) in contexts {
            vectors.insert(w.to_string(), res.gloss_model.infer(&doc));
        }
        ContextIndex { vectors, dim }
    }

    /// Vector.
    pub fn vector(&self, word: &str) -> Vec<f32> {
        self.vectors
            .get(word)
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.dim])
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// The text-augmented NER tagger (Figure 6).
pub struct ConceptTagger {
    ps: ParamSet,
    char_emb: Embedding,
    char_cnn: Conv1d,
    word_emb: Embedding,
    pos_emb: Embedding,
    encoder: BiLstm,
    attn: SelfAttention,
    proj: Linear,
    crf: Crf,
    cfg: TaggerConfig,
    know_dim: usize,
}

impl ConceptTagger {
    /// Create a new instance.
    pub fn new(res: &Resources, cfg: TaggerConfig) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
        let mut ps = ParamSet::new();
        let char_emb = Embedding::new(&mut ps, "tag.char", res.chars.len(), cfg.char_dim, &mut rng);
        let char_cnn = Conv1d::new(
            &mut ps,
            "tag.charcnn",
            cfg.char_dim,
            cfg.char_channels,
            3,
            &mut rng,
        );
        let word_emb =
            Embedding::from_pretrained(&mut ps, "tag.word", res.word_vectors.vectors.clone());
        let pos_emb = Embedding::new(
            &mut ps,
            "tag.pos",
            alicoco_text::tagger::PosTag::COUNT,
            cfg.pos_dim,
            &mut rng,
        );
        let word_in = word_emb.dim() + cfg.char_channels + cfg.pos_dim;
        let encoder = BiLstm::new(&mut ps, "tag.bilstm", word_in, cfg.hidden, &mut rng);
        // Knowledge augmentation doubles gloss_dim (gloss vec + context vec).
        let know_dim = if cfg.use_knowledge {
            res.cfg.gloss_dim * 2
        } else {
            0
        };
        let attn = SelfAttention::new(
            &mut ps,
            "tag.attn",
            2 * cfg.hidden + know_dim,
            cfg.attn_dim,
            &mut rng,
        );
        let proj = Linear::new(&mut ps, "tag.proj", cfg.attn_dim, NUM_LABELS, &mut rng);
        let crf = Crf::new(&mut ps, "tag.crf", NUM_LABELS, &mut rng);
        ConceptTagger {
            ps,
            char_emb,
            char_cnn,
            word_emb,
            pos_emb,
            encoder,
            attn,
            proj,
            crf,
            cfg,
            know_dim,
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

    fn emissions(
        &self,
        g: &mut Graph,
        res: &Resources,
        ctx: &ContextIndex,
        tokens: &[String],
    ) -> NodeId {
        let word_ids: Vec<usize> = tokens.iter().map(|t| res.vocab.get_or_unk(t)).collect();
        let tok_refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let pos_ids = res.pos.tag_indices(&tok_refs);
        let we = self.word_emb.forward(g, &word_ids);
        let pe = self.pos_emb.forward(g, &pos_ids);
        // Per-word char CNN with max pooling (eq. 4-5).
        let mut char_feats: Vec<NodeId> = Vec::with_capacity(tokens.len());
        for t in tokens {
            let ids = res.word_char_ids(t);
            let ids = if ids.is_empty() {
                vec![alicoco_text::UNK]
            } else {
                ids
            };
            let ce = self.char_emb.forward(g, &ids);
            let conv = self.char_cnn.forward(g, ce);
            char_feats.push(g.max_rows(conv));
        }
        let chars = g.concat_rows(&char_feats);
        let wcat = g.concat_cols(&[we, chars, pe]); // eq. 6
        let h = self.encoder.forward(g, wcat);

        let enriched = if self.cfg.use_knowledge {
            let mut rows: Vec<f32> = Vec::with_capacity(tokens.len() * self.know_dim);
            for t in tokens {
                rows.extend(res.gloss_vector(t));
                rows.extend(ctx.vector(t));
            }
            let k = g.input(Tensor::from_vec(tokens.len(), self.know_dim, rows));
            g.concat_cols(&[h, k]) // eq. 7's [h_i ; tm_i]
        } else {
            h
        };
        let a = self.attn.forward(g, enriched);
        self.proj.forward(g, a)
    }

    /// Train; returns per-epoch telemetry.
    pub fn train(
        &mut self,
        res: &Resources,
        ctx: &ContextIndex,
        ambiguity: &AmbiguityIndex,
        data: &[TaggingExample],
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let mut opt = Adam::new(self.cfg.train.lr);
        let model = &*self;
        let trainer = Trainer::new(&model.ps, model.cfg.train.clone());
        trainer.train(
            &mut opt,
            data,
            |g, ex: &TaggingExample| {
                if ex.tokens.is_empty() {
                    return None;
                }
                let em = model.emissions(g, res, ctx, &ex.tokens);
                Some(if model.cfg.use_fuzzy {
                    let allowed = ambiguity.allowed_sets(ex);
                    model.crf.fuzzy_nll(g, em, &allowed)
                } else {
                    model.crf.nll(g, em, &ex.labels)
                })
            },
            rng,
        )
    }

    /// Decode a concept into IOB labels.
    pub fn tag(&self, res: &Resources, ctx: &ContextIndex, tokens: &[String]) -> Vec<usize> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::new();
        let em = self.emissions(&mut g, res, ctx, tokens);
        let em_t = g.value(em).clone();
        self.crf.decode(&em_t)
    }

    /// Span-level evaluation on examples.
    pub fn evaluate(&self, res: &Resources, ctx: &ContextIndex, data: &[TaggingExample]) -> PrF1 {
        let golds: Vec<Vec<usize>> = data.iter().map(|e| e.labels.clone()).collect();
        let preds: Vec<Vec<usize>> = data.iter().map(|e| self.tag(res, ctx, &e.tokens)).collect();
        span_prf(&golds, &preds)
    }
}

/// Distant-supervision augmentation (§7.5): automatically generate extra
/// labeled compound concepts from the known primitive layer. Examples whose
/// surface already appears in `ds.concepts` are skipped so the manually
/// labeled splits stay untouched.
pub fn distant_tagging_examples(ds: &Dataset, n: usize, seed: u64) -> Vec<TaggingExample> {
    let mut rng = alicoco_nn::util::seeded_rng(seed);
    let existing: FxHashSet<String> = ds.concepts.iter().map(|c| c.text()).collect();
    alicoco_corpus::generate_concepts(&ds.world, n, 0, &mut rng)
        .iter()
        .filter(|c| !c.slots.is_empty() && !existing.contains(&c.text()))
        .map(TaggingExample::from_spec)
        .collect()
}

/// Build the tagging dataset from ground-truth good concepts, split
/// train/val/test as in §7.5.
pub fn tagging_splits(
    ds: &Dataset,
    rng: &mut impl Rng,
) -> (
    Vec<TaggingExample>,
    Vec<TaggingExample>,
    Vec<TaggingExample>,
) {
    let mut all: Vec<TaggingExample> = ds
        .concepts
        .iter()
        .filter(|c| c.good && !c.slots.is_empty())
        .map(TaggingExample::from_spec)
        .collect();
    all.shuffle(rng);
    let n = all.len();
    let n_train = n * 2 / 3;
    let n_val = n / 6;
    let test = all.split_off(n_train + n_val);
    let val = all.split_off(n_train);
    (all, val, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourcesConfig;

    fn setup() -> (Dataset, Resources) {
        let ds = Dataset::tiny();
        let res = Resources::build(&ds, ResourcesConfig::default());
        (ds, res)
    }

    #[test]
    fn spans_extraction_handles_iob() {
        let labels = vec![
            b_label(Domain::Color),
            b_label(Domain::Category),
            i_label(Domain::Category),
            0,
            b_label(Domain::Event),
        ];
        let s = spans(&labels);
        assert_eq!(s.len(), 3);
        assert_eq!(s[1], (1, 2, Domain::Category));
        assert_eq!(s[2], (4, 1, Domain::Event));
    }

    #[test]
    fn span_prf_counts_exact_matches() {
        let gold = vec![vec![b_label(Domain::Color), b_label(Domain::Category)]];
        let pred = vec![vec![b_label(Domain::Color), b_label(Domain::Event)]];
        let m = span_prf(&gold, &pred);
        assert!((m.precision - 0.5).abs() < 1e-9);
        assert!((m.recall - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ambiguity_index_knows_village() {
        let (ds, _) = setup();
        let amb = AmbiguityIndex::build(&ds);
        let v = amb.domains_of("village");
        assert!(v.contains(&Domain::Style) && v.contains(&Domain::Location));
        assert!(amb.domains_of("qqq").is_empty());
    }

    #[test]
    fn allowed_sets_include_gold_and_alternatives() {
        let (ds, _) = setup();
        let amb = AmbiguityIndex::build(&ds);
        let ex = TaggingExample {
            tokens: vec!["village".into(), "skirt".into()],
            labels: vec![b_label(Domain::Style), b_label(Domain::Category)],
        };
        let sets = amb.allowed_sets(&ex);
        assert!(sets[0].contains(&b_label(Domain::Style)));
        assert!(
            sets[0].contains(&b_label(Domain::Location)),
            "fuzzy alternative missing"
        );
        assert!(sets[1].contains(&b_label(Domain::Category)));
    }

    #[test]
    fn context_index_builds_vectors_for_corpus_words() {
        let (ds, res) = setup();
        let ctx = ContextIndex::build(&res, &ds, ["barbecue", "grill"], 3);
        let v = ctx.vector("barbecue");
        assert_eq!(v.len(), ctx.dim());
        assert!(
            v.iter().any(|&x| x != 0.0),
            "no context vector for barbecue"
        );
        assert!(ctx.vector("zzz-unknown").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tagger_learns_to_tag_concepts() {
        let (ds, res) = setup();
        let mut rng = alicoco_nn::util::seeded_rng(17);
        let (mut train, _val, test) = tagging_splits(&ds, &mut rng);
        assert!(
            train.len() > 40,
            "too few tagging examples: {}",
            train.len()
        );
        // §7.5: distant supervision enlarges the training set.
        train.extend(distant_tagging_examples(&ds, 300, 9999));
        let words: FxHashSet<String> = train
            .iter()
            .chain(test.iter())
            .flat_map(|e| e.tokens.iter().cloned())
            .collect();
        let ctx = ContextIndex::build(&res, &ds, words.iter().map(String::as_str), 3);
        let amb = AmbiguityIndex::build(&ds);
        let mut model = ConceptTagger::new(
            &res,
            TaggerConfig {
                train: TrainConfig::new(2, 0.01),
                ..TaggerConfig::full()
            },
        );
        let losses = model.train(&res, &ctx, &amb, &train, &mut rng);
        assert!(
            losses.last().unwrap().mean_loss < losses.first().unwrap().mean_loss,
            "loss not decreasing: {losses:?}"
        );
        let m = model.evaluate(&res, &ctx, &test);
        assert!(m.f1 > 0.8, "tagging F1 too low: {m:?}");
    }

    #[test]
    fn ablation_configs_differ() {
        let (_, res) = setup();
        let base = ConceptTagger::new(&res, TaggerConfig::baseline());
        let full = ConceptTagger::new(&res, TaggerConfig::full());
        assert!(full.num_weights() > base.num_weights());
    }
}
