//! E-commerce concept generation and classification (§5.2, Table 4).
//!
//! Candidate concepts come from two sources: quality phrases mined from raw
//! corpora (AutoPhrase stand-in) and pattern combination over known
//! primitive concepts (Table 1 patterns). A knowledge-enhanced Wide&Deep
//! classifier (Figure 5) then filters candidates against the five criteria
//! of §5.1; each architectural addition of Table 4 is a switchable flag so
//! the ablation is reproducible.

use alicoco_corpus::{Dataset, Domain, Oracle};
use alicoco_nn::attention::SelfAttention;
use alicoco_nn::layers::{Activation, Embedding, Mlp};
use alicoco_nn::rnn::BiLstm;
use alicoco_nn::{
    Adam, EpochStats, Graph, NodeId, ParamSet, StopCriterion, Tensor, TrainConfig, Trainer,
};
use alicoco_text::phrase::{self, PhraseMinerConfig};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::resources::Resources;

// ---------------------------------------------------------------------------
// Candidate generation (§5.2.1)
// ---------------------------------------------------------------------------

/// A concept candidate with its provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Tokens.
    pub tokens: Vec<String>,
    /// Source.
    pub source: CandidateSource,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
/// Candidate source.
pub enum CandidateSource {
    /// Mined from text corpora by the phrase miner.
    Text,
    /// Generated by combining primitive concepts with a pattern.
    Pattern,
}

/// Mine phrase candidates from the corpora (source 1).
pub fn candidates_from_text(ds: &Dataset, res: &Resources, max: usize) -> Vec<Candidate> {
    let sentences: Vec<Vec<usize>> = ds
        .corpora
        .all_sentences()
        .map(|s| res.vocab.encode(s))
        .collect();
    let cfg = PhraseMinerConfig {
        min_count: 3,
        min_len: 2,
        max_len: 4,
        min_score: 0.1,
    };
    phrase::mine(&sentences, &cfg)
        .into_iter()
        .take(max)
        .map(|p| Candidate {
            tokens: p
                .tokens
                .iter()
                .map(|&t| res.vocab.token(t).to_string())
                .collect(),
            source: CandidateSource::Text,
        })
        .collect()
}

/// Per-domain surface lists used for pattern combination (in production
/// these come from the already-built primitive layer).
pub struct PrimitivePools {
    /// Functions.
    pub functions: Vec<String>,
    /// Categories.
    pub categories: Vec<String>,
    /// Events.
    pub events: Vec<String>,
    /// Audiences.
    pub audiences: Vec<String>,
    /// Locations.
    pub locations: Vec<String>,
    /// Styles.
    pub styles: Vec<String>,
    /// Times.
    pub times: Vec<String>,
    /// Colors.
    pub colors: Vec<String>,
    /// Materials.
    pub materials: Vec<String>,
}

impl PrimitivePools {
    /// Extract pools from the world lexicon (simulating an existing
    /// primitive-concept layer).
    pub fn from_dataset(ds: &Dataset) -> Self {
        let l = &ds.world.lexicon;
        let terms = |d: Domain| l.terms(d).to_vec();
        PrimitivePools {
            functions: terms(Domain::Function),
            categories: ds
                .world
                .tree
                .leaves()
                .iter()
                .map(|&i| ds.world.tree.name(i).to_string())
                .collect(),
            events: terms(Domain::Event),
            audiences: terms(Domain::Audience),
            locations: terms(Domain::Location),
            styles: terms(Domain::Style),
            times: terms(Domain::Time),
            colors: terms(Domain::Color),
            materials: terms(Domain::Material),
        }
    }
}

/// Generate `n` candidates by combining primitives with the Table 1
/// patterns (source 2). These cover needs rarely written down in text
/// ("indoor barbecue").
pub fn candidates_from_patterns(
    pools: &PrimitivePools,
    n: usize,
    rng: &mut impl Rng,
) -> Vec<Candidate> {
    let pick = |v: &[String], rng: &mut dyn rand::RngCore| v[rng.gen_range(0..v.len())].clone();
    let mut out = Vec::with_capacity(n);
    let mut seen = alicoco_nn::util::FxHashSet::default();
    let mut guard = 0;
    while out.len() < n && guard < n * 30 {
        guard += 1;
        let tokens: Vec<String> = match rng.gen_range(0..6u32) {
            0 => {
                // [Function] [Category] for [Event]
                let mut t = vec![pick(&pools.functions, rng)];
                t.extend(pick(&pools.categories, rng).split(' ').map(String::from));
                t.push("for".into());
                t.push(pick(&pools.events, rng));
                t
            }
            1 => {
                // [Location] [Event]
                vec![pick(&pools.locations, rng), pick(&pools.events, rng)]
            }
            2 => {
                // [Function] for [Audience]
                vec![
                    pick(&pools.functions, rng),
                    "for".into(),
                    pick(&pools.audiences, rng),
                ]
            }
            3 => {
                // [Style] [Time] [Category]
                let mut t = vec![pick(&pools.styles, rng), pick(&pools.times, rng)];
                t.extend(pick(&pools.categories, rng).split(' ').map(String::from));
                t
            }
            4 => {
                // [Time] gifts for [Audience]
                vec![
                    pick(&pools.times, rng),
                    "gifts".into(),
                    "for".into(),
                    pick(&pools.audiences, rng),
                ]
            }
            _ => {
                // [Color] [Material] [Category]
                let mut t = vec![pick(&pools.colors, rng), pick(&pools.materials, rng)];
                t.extend(pick(&pools.categories, rng).split(' ').map(String::from));
                t
            }
        };
        if seen.insert(tokens.join(" ")) {
            out.push(Candidate {
                tokens,
                source: CandidateSource::Pattern,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Knowledge-enhanced Wide&Deep classifier (§5.2.2, Figure 5)
// ---------------------------------------------------------------------------

/// Ablation switches matching the Table 4 rows.
#[derive(Clone, Debug)]
pub struct ClassifierConfig {
    /// Wide feature branch (char/word counts, popularity).
    pub use_wide: bool,
    /// Perplexity wide feature (the "BERT" row; our LM substitutes BERT).
    pub use_lm: bool,
    /// Knowledge branch (gloss vectors with self-attention).
    pub use_knowledge: bool,
    /// Char embedding dimension.
    pub char_dim: usize,
    /// Char hidden.
    pub char_hidden: usize,
    /// Word hidden.
    pub word_hidden: usize,
    /// Attn embedding dimension.
    pub attn_dim: usize,
    /// POS embedding dimension.
    pub pos_dim: usize,
    /// NER embedding dimension.
    pub ner_dim: usize,
    /// Shared training-loop hyper-parameters.
    pub train: TrainConfig,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            use_wide: true,
            use_lm: true,
            use_knowledge: true,
            char_dim: 12,
            char_hidden: 12,
            word_hidden: 16,
            attn_dim: 16,
            pos_dim: 4,
            ner_dim: 8,
            train: TrainConfig::new(6, 0.01),
            seed: 2020,
        }
    }
}

impl ClassifierConfig {
    /// The Table 4 "Baseline (LSTM + Self Attention)" row.
    pub fn baseline() -> Self {
        ClassifierConfig {
            use_wide: false,
            use_lm: false,
            use_knowledge: false,
            ..Default::default()
        }
    }

    /// "+Wide" row.
    pub fn with_wide() -> Self {
        ClassifierConfig {
            use_wide: true,
            use_lm: false,
            use_knowledge: false,
            ..Default::default()
        }
    }

    /// "+Wide & BERT" row (perplexity feature).
    pub fn with_wide_lm() -> Self {
        ClassifierConfig {
            use_wide: true,
            use_lm: true,
            use_knowledge: false,
            ..Default::default()
        }
    }

    /// "+Wide & BERT & Knowledge" row (the full model).
    pub fn full() -> Self {
        ClassifierConfig::default()
    }
}

/// Number of wide features (fixed-size vector; unused slots stay zero).
const WIDE_FEATURES: usize = 8;

/// The concept classifier.
pub struct ConceptClassifier {
    ps: ParamSet,
    char_emb: Embedding,
    char_lstm: BiLstm,
    word_emb: Embedding,
    pos_emb: Embedding,
    ner_emb: Embedding,
    word_lstm: BiLstm,
    word_attn: SelfAttention,
    know_attn: SelfAttention,
    wide_fc: Mlp,
    head: Mlp,
    cfg: ClassifierConfig,
}

impl ConceptClassifier {
    /// Create a new instance.
    pub fn new(res: &Resources, cfg: ClassifierConfig) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
        let mut ps = ParamSet::new();
        let char_emb = Embedding::new(&mut ps, "cls.char", res.chars.len(), cfg.char_dim, &mut rng);
        let char_lstm = BiLstm::new(
            &mut ps,
            "cls.charlstm",
            cfg.char_dim,
            cfg.char_hidden,
            &mut rng,
        );
        let word_emb =
            Embedding::from_pretrained(&mut ps, "cls.word", res.word_vectors.vectors.clone());
        let pos_emb = Embedding::new(
            &mut ps,
            "cls.pos",
            alicoco_text::tagger::PosTag::COUNT,
            cfg.pos_dim,
            &mut rng,
        );
        let ner_emb = Embedding::new(
            &mut ps,
            "cls.ner",
            res.ner.num_indices(),
            cfg.ner_dim,
            &mut rng,
        );
        let word_in = word_emb.dim() + cfg.pos_dim + cfg.ner_dim;
        let word_lstm = BiLstm::new(&mut ps, "cls.wordlstm", word_in, cfg.word_hidden, &mut rng);
        let word_attn = SelfAttention::new(
            &mut ps,
            "cls.wattn",
            2 * cfg.word_hidden,
            cfg.attn_dim,
            &mut rng,
        );
        let know_attn = SelfAttention::new(
            &mut ps,
            "cls.kattn",
            res.cfg.gloss_dim,
            cfg.attn_dim,
            &mut rng,
        );
        let wide_fc = Mlp::new(
            &mut ps,
            "cls.wide",
            &[WIDE_FEATURES, 8, 8],
            Activation::Relu,
            &mut rng,
        );
        // Head input: c1 (char pool) + c2 (word/knowledge pool) + c3 (wide).
        let c1 = 2 * cfg.char_hidden;
        let c2 = cfg.attn_dim + if cfg.use_knowledge { cfg.attn_dim } else { 0 };
        let c3 = if cfg.use_wide { 8 } else { 0 };
        let head = Mlp::new(
            &mut ps,
            "cls.head",
            &[c1 + c2 + c3, 16, 1],
            Activation::Relu,
            &mut rng,
        );
        ConceptClassifier {
            ps,
            char_emb,
            char_lstm,
            word_emb,
            pos_emb,
            ner_emb,
            word_lstm,
            word_attn,
            know_attn,
            wide_fc,
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

    fn wide_features(&self, res: &Resources, tokens: &[String]) -> Vec<f32> {
        let n_chars: usize = tokens.iter().map(|t| t.chars().count()).sum();
        let n_words = tokens.len();
        let avg_pop = if tokens.is_empty() {
            0.0
        } else {
            tokens.iter().map(|t| res.popularity(t)).sum::<f32>() / tokens.len() as f32
        };
        let ppl = if self.cfg.use_lm {
            // Log-scaled, roughly normalized.
            (res.perplexity(tokens).ln() as f32) / 10.0
        } else {
            0.0
        };
        // Knowledge compatibility features: pairwise cosine similarities
        // between the gloss vectors of the concept's content words. Glosses
        // of compatible primitives share vocabulary ("warm" mentions hiking
        // and skiing; "swimming" does not), so a low minimum cosine flags an
        // implausible combination.
        let (mut know_mean, mut know_min, mut know_flag) = (0.0f32, 0.0f32, 0.0f32);
        if self.cfg.use_knowledge {
            let glossed: Vec<&String> = tokens.iter().filter(|t| res.has_gloss(t)).collect();
            if glossed.len() >= 2 {
                let mut sims = Vec::new();
                for i in 0..glossed.len() {
                    for j in i + 1..glossed.len() {
                        sims.push(res.gloss_similarity(glossed[i], glossed[j]));
                    }
                }
                know_mean = sims.iter().sum::<f32>() / sims.len() as f32;
                know_min = sims.iter().copied().fold(f32::INFINITY, f32::min);
                know_flag = 1.0;
            }
        }
        vec![
            n_chars as f32 / 20.0,
            n_words as f32 / 5.0,
            avg_pop / 10.0,
            ppl,
            if self.cfg.use_lm { 1.0 } else { 0.0 },
            know_mean,
            know_min,
            know_flag,
        ]
    }

    fn logit(&self, g: &mut Graph, res: &Resources, tokens: &[String]) -> NodeId {
        // c1: char-level BiLSTM, mean-pooled.
        let char_ids = res.char_ids(tokens);
        let ce = self.char_emb.forward(g, &char_ids);
        let ch = self.char_lstm.forward(g, ce);
        let c1 = g.mean_rows(ch);

        // c2: word branch (+ knowledge branch when enabled).
        let word_ids: Vec<usize> = tokens.iter().map(|t| res.vocab.get_or_unk(t)).collect();
        let tok_refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let pos_ids = res.pos.tag_indices(&tok_refs);
        let ner_ids = res.ner.tag_indices(&tok_refs);
        let we = self.word_emb.forward(g, &word_ids);
        let pe = self.pos_emb.forward(g, &pos_ids);
        let ne = self.ner_emb.forward(g, &ner_ids);
        let wcat = g.concat_cols(&[we, pe, ne]);
        let wh = self.word_lstm.forward(g, wcat);
        let wa = self.word_attn.forward(g, wh);
        let c2 = if self.cfg.use_knowledge {
            let gloss_rows: Vec<f32> = tokens.iter().flat_map(|t| res.gloss_vector(t)).collect();
            let k = g.input(Tensor::from_vec(
                tokens.len(),
                res.cfg.gloss_dim,
                gloss_rows,
            ));
            let ka = self.know_attn.forward(g, k);
            let cat = g.concat_cols(&[wa, ka]);
            g.max_rows(cat)
        } else {
            g.max_rows(wa)
        };

        // c3: wide features.
        let mut parts = vec![c1, c2];
        if self.cfg.use_wide {
            let wide = g.input(Tensor::row(self.wide_features(res, tokens)));
            let c3 = self.wide_fc.forward(g, wide);
            parts.push(c3);
        }
        let cat = g.concat_cols(&parts);
        self.head.forward(g, cat)
    }

    /// Probability that the candidate is a good e-commerce concept.
    pub fn score(&self, res: &Resources, tokens: &[String]) -> f32 {
        let mut g = Graph::new();
        let l = self.logit(&mut g, res, tokens);
        1.0 / (1.0 + (-g.value(l).item()).exp())
    }

    /// Train on `(tokens, label)` examples (point-wise BCE, eq. 3).
    pub fn train(
        &mut self,
        res: &Resources,
        data: &[(Vec<String>, f32)],
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        self.train_with_validation(res, data, &[], rng)
    }

    /// Train with epoch-wise early stopping (§7.4): after every epoch the
    /// model is scored on `val`, and the parameters of the best epoch (F1,
    /// accuracy as tie-break) are restored at the end. The tiny training
    /// sets this reproduction uses overfit within a few epochs, so the
    /// final-epoch weights are often past the generalization peak; snapshot
    /// selection removes that cliff. An empty `val` trains to the last
    /// epoch unconditionally.
    pub fn train_with_validation(
        &mut self,
        res: &Resources,
        data: &[(Vec<String>, f32)],
        val: &[(Vec<String>, f32)],
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let mut opt = Adam::new(self.cfg.train.lr);
        let model = &*self;
        let trainer = Trainer::new(&model.ps, model.cfg.train.clone());
        let forward = |g: &mut Graph, (tokens, y): &(Vec<String>, f32)| {
            if tokens.is_empty() {
                return None;
            }
            let l = model.logit(g, res, tokens);
            Some(g.bce_with_logits(l, &[*y]))
        };
        if val.is_empty() {
            trainer.train(&mut opt, data, forward, rng)
        } else {
            trainer.train_with(
                &mut opt,
                data,
                forward,
                StopCriterion::BestSnapshot { patience: None },
                || {
                    let m = model.evaluate(res, val);
                    (m.f1, m.accuracy)
                },
                rng,
            )
        }
    }

    /// Precision / recall / accuracy at threshold 0.5 over a labeled set.
    pub fn evaluate(&self, res: &Resources, data: &[(Vec<String>, f32)]) -> ClassifierMetrics {
        let mut tp = 0;
        let mut fp = 0;
        let mut fn_ = 0;
        let mut correct = 0;
        for (tokens, y) in data {
            let pred = self.score(res, tokens) >= 0.5;
            let gold = *y >= 0.5;
            match (pred, gold) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
            if pred == gold {
                correct += 1;
            }
        }
        let prf = alicoco_nn::metrics::prf_from_counts(tp, fp, fn_);
        ClassifierMetrics {
            precision: prf.precision,
            recall: prf.recall,
            f1: prf.f1,
            accuracy: correct as f64 / data.len().max(1) as f64,
        }
    }
}

/// Evaluation result for the classifier.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassifierMetrics {
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1 score.
    pub f1: f64,
    /// Accuracy.
    pub accuracy: f64,
}

/// Build the balanced classification dataset from ground-truth concepts,
/// split 7:1:2 (train/val/test) as in §7.4.
/// A labeled classification example: concept tokens and 0/1 label.
pub type LabeledConcept = (Vec<String>, f32);

/// Classification splits.
pub fn classification_splits(
    ds: &Dataset,
    rng: &mut impl Rng,
) -> (
    Vec<LabeledConcept>,
    Vec<LabeledConcept>,
    Vec<LabeledConcept>,
) {
    let mut all: Vec<(Vec<String>, f32)> = ds
        .concepts
        .iter()
        .map(|c| (c.tokens.clone(), if c.good { 1.0 } else { 0.0 }))
        .collect();
    all.shuffle(rng);
    let n = all.len();
    let n_train = n * 7 / 10;
    let n_val = n / 10;
    let test = all.split_off(n_train + n_val);
    let val = all.split_off(n_train);
    (all, val, test)
}

/// The §5.2.2 batch quality gate: sample part of a model-accepted batch for
/// oracle annotation; admit the whole batch only if sampled accuracy clears
/// the threshold.
pub struct GateOutcome {
    /// Admitted.
    pub admitted: bool,
    /// Sampled.
    pub sampled: usize,
    /// Sample accuracy.
    pub sample_accuracy: f64,
}

/// Quality gate.
pub fn quality_gate(
    accepted: &[Candidate],
    oracle: &Oracle<'_>,
    sample_rate: f64,
    threshold: f64,
    rng: &mut impl Rng,
) -> GateOutcome {
    if accepted.is_empty() {
        return GateOutcome {
            admitted: false,
            sampled: 0,
            sample_accuracy: 0.0,
        };
    }
    let k = ((accepted.len() as f64 * sample_rate).ceil() as usize).clamp(1, accepted.len());
    let mut idx: Vec<usize> = (0..accepted.len()).collect();
    idx.shuffle(rng);
    let mut ok = 0;
    for &i in idx.iter().take(k) {
        if oracle.label_concept(&accepted[i].tokens) {
            ok += 1;
        }
    }
    let acc = ok as f64 / k as f64;
    GateOutcome {
        admitted: acc >= threshold,
        sampled: k,
        sample_accuracy: acc,
    }
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
    fn text_candidates_are_real_phrases() {
        let (ds, res) = setup();
        let cands = candidates_from_text(&ds, &res, 50);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.tokens.len() >= 2);
            assert_eq!(c.source, CandidateSource::Text);
        }
    }

    #[test]
    fn pattern_candidates_are_unique_and_well_formed() {
        let (ds, _) = setup();
        let pools = PrimitivePools::from_dataset(&ds);
        let mut rng = alicoco_nn::util::seeded_rng(3);
        let cands = candidates_from_patterns(&pools, 100, &mut rng);
        assert_eq!(cands.len(), 100);
        let mut texts: Vec<String> = cands.iter().map(|c| c.tokens.join(" ")).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 100);
    }

    #[test]
    fn pattern_candidates_include_both_good_and_bad() {
        let (ds, _) = setup();
        let pools = PrimitivePools::from_dataset(&ds);
        let mut rng = alicoco_nn::util::seeded_rng(4);
        let cands = candidates_from_patterns(&pools, 200, &mut rng);
        let oracle = Oracle::new(&ds.world);
        let good = cands
            .iter()
            .filter(|c| oracle.label_concept(&c.tokens))
            .count();
        assert!(
            good > 10,
            "pattern combination produced almost no good concepts: {good}"
        );
        assert!(
            good < 190,
            "pattern combination produced almost no bad concepts"
        );
    }

    #[test]
    fn classifier_learns_to_separate_good_from_bad() {
        let (ds, res) = setup();
        let mut rng = alicoco_nn::util::seeded_rng(5);
        let (train, val, test) = classification_splits(&ds, &mut rng);
        let mut model = ConceptClassifier::new(
            &res,
            ClassifierConfig {
                train: TrainConfig::new(6, 0.01),
                ..ClassifierConfig::full()
            },
        );
        let losses = model.train_with_validation(&res, &train, &val, &mut rng);
        assert!(losses.last().unwrap().mean_loss < losses.first().unwrap().mean_loss);
        let m = model.evaluate(&res, &test);
        assert!(m.accuracy > 0.7, "test accuracy too low: {m:?}");
        assert!(m.precision > 0.65, "test precision too low: {m:?}");
    }

    #[test]
    fn ablation_configs_change_architecture() {
        let (_, res) = setup();
        let base = ConceptClassifier::new(&res, ClassifierConfig::baseline());
        let full = ConceptClassifier::new(&res, ClassifierConfig::full());
        assert!(full.num_weights() > base.num_weights());
    }

    #[test]
    fn quality_gate_admits_good_batches_and_rejects_bad() {
        let (ds, _) = setup();
        let oracle = Oracle::new(&ds.world);
        let mut rng = alicoco_nn::util::seeded_rng(6);
        let good_batch: Vec<Candidate> = ds
            .concepts
            .iter()
            .filter(|c| c.good)
            .take(30)
            .map(|c| Candidate {
                tokens: c.tokens.clone(),
                source: CandidateSource::Pattern,
            })
            .collect();
        let bad_batch: Vec<Candidate> = ds
            .concepts
            .iter()
            .filter(|c| !c.good)
            .take(30)
            .map(|c| Candidate {
                tokens: c.tokens.clone(),
                source: CandidateSource::Pattern,
            })
            .collect();
        let g = quality_gate(&good_batch, &oracle, 0.3, 0.9, &mut rng);
        assert!(g.admitted, "good batch rejected: {}", g.sample_accuracy);
        let b = quality_gate(&bad_batch, &oracle, 0.3, 0.9, &mut rng);
        assert!(!b.admitted, "bad batch admitted: {}", b.sample_accuracy);
        assert!(!quality_gate(&[], &oracle, 0.3, 0.9, &mut rng).admitted);
    }

    #[test]
    fn splits_partition_the_data() {
        let (ds, _) = setup();
        let mut rng = alicoco_nn::util::seeded_rng(7);
        let (train, val, test) = classification_splits(&ds, &mut rng);
        assert_eq!(train.len() + val.len() + test.len(), ds.concepts.len());
        assert!(train.len() > test.len());
    }
}
