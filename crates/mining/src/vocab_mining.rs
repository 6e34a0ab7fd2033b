//! Primitive-concept vocabulary mining (§4.1, evaluated in §7.2).
//!
//! The pipeline: (1) treat part of the lexicon as the *known* vocabulary
//! (the paper's ~2M aligned primitives), (2) build distant-supervision
//! training data by longest-match tagging of corpus sentences, keeping only
//! unambiguous matches, (3) train a BiLSTM-CRF sequence labeler over the 20
//! first-level domains in IOB scheme, (4) decode the corpus and harvest
//! spans the lexicon does not know, (5) send candidates to the oracle
//! (crowdsourcing stand-in) and admit the accepted ones.

use alicoco_corpus::{Dataset, Domain, Oracle};
use alicoco_nn::crf::Crf;
use alicoco_nn::layers::{Embedding, Linear};
use alicoco_nn::rnn::BiLstm;
use alicoco_nn::util::{FxHashMap, FxHashSet};
use alicoco_nn::{Adam, EpochStats, Graph, ParamSet, Tensor, TrainConfig, Trainer};
use rand::Rng;

/// IOB label space over the 20 domains: label 0 is `O`; domain `d` has
/// `B = 1 + 2d` and `I = 2 + 2d`.
pub const NUM_LABELS: usize = 41;

/// `B-` label of a domain.
pub fn b_label(d: Domain) -> usize {
    1 + 2 * d.index()
}

/// `I-` label of a domain.
pub fn i_label(d: Domain) -> usize {
    2 + 2 * d.index()
}

/// Domain of a non-`O` label.
pub fn label_domain(label: usize) -> Option<Domain> {
    if label == 0 || label >= NUM_LABELS {
        None
    } else {
        Some(Domain::from_index((label - 1) / 2))
    }
}

/// Is this label a `B-`?
pub fn is_begin(label: usize) -> bool {
    label != 0 && label < NUM_LABELS && (label - 1).is_multiple_of(2)
}

/// The known vocabulary: surface → domains, with multi-token surfaces
/// supported (category names like "trench coat").
#[derive(Clone, Debug, Default)]
pub struct KnownLexicon {
    /// token-sequence surface (space joined) → domains listing it.
    entries: FxHashMap<String, Vec<Domain>>,
    max_tokens: usize,
}

impl KnownLexicon {
    /// Sample a known subset of the world's full lexicon: each domain keeps
    /// ~`fraction` of its surfaces (deterministic per `rng`). The rest is
    /// the mining target.
    pub fn sample<R: Rng>(
        ds: &Dataset,
        fraction: f64,
        rng: &mut R,
    ) -> (KnownLexicon, KnownLexicon) {
        assert!((0.0..=1.0).contains(&fraction));
        let mut known = KnownLexicon::default();
        let mut heldout = KnownLexicon::default();
        let mut split = |surface: &str, domain: Domain, rng: &mut R| {
            if rng.gen_bool(fraction) {
                known.insert(surface, domain);
            } else {
                heldout.insert(surface, domain);
            }
        };
        for (surface, domain) in ds.world.lexicon.all_terms() {
            split(surface, domain, rng);
        }
        for id in ds.world.tree.ids() {
            if id == 0 {
                continue;
            }
            split(ds.world.tree.name(id), Domain::Category, rng);
        }
        (known, heldout)
    }

    /// Insert.
    pub fn insert(&mut self, surface: &str, domain: Domain) {
        let e = self.entries.entry(surface.to_string()).or_default();
        if !e.contains(&domain) {
            e.push(domain);
        }
        self.max_tokens = self.max_tokens.max(surface.split(' ').count());
    }

    /// Domains of.
    pub fn domains_of(&self, surface: &str) -> &[Domain] {
        self.entries.get(surface).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Contains.
    pub fn contains(&self, surface: &str) -> bool {
        self.entries.contains_key(surface)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Domain])> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// One distant-supervision example.
pub type TaggedSentence = (Vec<String>, Vec<usize>);

/// Function/template words allowed to carry `O` in a *perfectly matched*
/// sentence. Everything else must be covered by the known lexicon or the
/// sentence is dropped — this is the paper's "perfectly matched" filter
/// (§7.2), and it is essential: without it, held-out vocabulary appearing
/// in training sentences would be trained as `O` and never discovered.
const O_WORDS: &[&str] = &[
    "for",
    "in",
    "the",
    "a",
    "an",
    "and",
    "or",
    "of",
    "to",
    "i",
    "it",
    "is",
    "are",
    "this",
    "these",
    "from",
    "with",
    "you",
    "need",
    "our",
    "guide",
    "buy",
    "other",
    "such",
    "as",
    "kind",
    "bought",
    "great",
    "feels",
    "premium",
    "today",
    "gifts",
    ",",
    "hot",
    "sale",
    "free-shipping",
    "2026",
    "official",
    "flagship",
    "authentic",
    "quality",
    "new",
];

/// Longest-match distant supervision (§7.2): tag each sentence with IOB
/// labels from the known lexicon. A sentence is kept only when it matches
/// *perfectly*: every token is either part of exactly one known span or a
/// whitelisted function word; ambiguous spans (two domains) drop the
/// sentence.
pub fn distant_supervision(
    known: &KnownLexicon,
    sentences: &[Vec<String>],
    limit: usize,
) -> Vec<TaggedSentence> {
    let max_n = known.max_tokens.max(1);
    let mut out = Vec::new();
    'sent: for s in sentences {
        if s.is_empty() {
            continue;
        }
        let mut labels = vec![0usize; s.len()];
        let mut i = 0;
        while i < s.len() {
            let mut matched = 0;
            for n in (1..=max_n.min(s.len() - i)).rev() {
                let span = s[i..i + n].join(" ");
                let domains = known.domains_of(&span);
                if domains.len() > 1 {
                    continue 'sent; // ambiguous — drop whole sentence
                }
                if domains.len() == 1 {
                    labels[i] = b_label(domains[0]);
                    for k in 1..n {
                        labels[i + k] = i_label(domains[0]);
                    }
                    matched = n;
                    break;
                }
            }
            if matched == 0 {
                if !O_WORDS.contains(&s[i].as_str()) {
                    continue 'sent; // imperfect match — drop sentence
                }
                i += 1;
            } else {
                i += matched;
            }
        }
        out.push((s.clone(), labels));
        if out.len() >= limit {
            break;
        }
    }
    out
}

/// Configuration for the miner model.
#[derive(Clone, Debug)]
pub struct VocabMinerConfig {
    /// Hidden.
    pub hidden: usize,
    /// Shared training-loop hyper-parameters.
    pub train: TrainConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for VocabMinerConfig {
    fn default() -> Self {
        VocabMinerConfig {
            hidden: 24,
            train: TrainConfig::new(3, 0.01),
            seed: 77,
        }
    }
}

/// BiLSTM-CRF sequence labeler (Figure 4).
pub struct VocabMiner {
    ps: ParamSet,
    emb: Embedding,
    encoder: BiLstm,
    proj: Linear,
    crf: Crf,
    cfg: VocabMinerConfig,
}

impl VocabMiner {
    /// Build the model, initializing word embeddings from the shared
    /// pre-trained vectors.
    pub fn new(res: &crate::resources::Resources, cfg: VocabMinerConfig) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
        let mut ps = ParamSet::new();
        let emb =
            Embedding::from_pretrained(&mut ps, "miner.emb", res.word_vectors.vectors.clone());
        let dim = emb.dim();
        let encoder = BiLstm::new(&mut ps, "miner.bilstm", dim, cfg.hidden, &mut rng);
        let proj = Linear::new(&mut ps, "miner.proj", 2 * cfg.hidden, NUM_LABELS, &mut rng);
        let crf = Crf::new(&mut ps, "miner.crf", NUM_LABELS, &mut rng);
        VocabMiner {
            ps,
            emb,
            encoder,
            proj,
            crf,
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

    fn emissions(
        &self,
        g: &mut Graph,
        res: &crate::resources::Resources,
        tokens: &[String],
    ) -> alicoco_nn::NodeId {
        let ids: Vec<usize> = tokens.iter().map(|t| res.vocab.get_or_unk(t)).collect();
        let e = self.emb.forward(g, &ids);
        let h = self.encoder.forward(g, e);
        self.proj.forward(g, h)
    }

    /// Train on distant-supervision data; returns per-epoch telemetry.
    pub fn train(
        &mut self,
        res: &crate::resources::Resources,
        data: &[TaggedSentence],
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let mut opt = Adam::new(self.cfg.train.lr);
        let model = &*self;
        let trainer = Trainer::new(&model.ps, model.cfg.train.clone());
        trainer.train(
            &mut opt,
            data,
            |g, (tokens, labels)| {
                if tokens.is_empty() {
                    return None;
                }
                let em = model.emissions(g, res, tokens);
                Some(model.crf.nll(g, em, labels))
            },
            rng,
        )
    }

    /// Viterbi-decode a sentence into IOB labels.
    pub fn tag(&self, res: &crate::resources::Resources, tokens: &[String]) -> Vec<usize> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::new();
        let em = self.emissions(&mut g, res, tokens);
        let em_t: Tensor = g.value(em).clone();
        self.crf.decode(&em_t)
    }
}

/// A mined candidate primitive concept.
#[derive(Clone, Debug, PartialEq)]
pub struct MinedCandidate {
    /// Surface.
    pub surface: String,
    /// Domain.
    pub domain: Domain,
    /// Count.
    pub count: usize,
}

/// Decode `sentences` and harvest spans whose surface the known lexicon does
/// not contain. Returns candidates sorted by frequency (desc).
pub fn mine_candidates(
    miner: &VocabMiner,
    res: &crate::resources::Resources,
    known: &KnownLexicon,
    sentences: &[Vec<String>],
) -> Vec<MinedCandidate> {
    let mut counts: FxHashMap<(String, Domain), usize> = FxHashMap::default();
    for s in sentences {
        if s.is_empty() {
            continue;
        }
        let labels = miner.tag(res, s);
        let mut i = 0;
        while i < s.len() {
            if is_begin(labels[i]) {
                let domain = label_domain(labels[i]).expect("begin label has domain");
                let mut j = i + 1;
                while j < s.len() && labels[j] == i_label(domain) {
                    j += 1;
                }
                let surface = s[i..j].join(" ");
                if !known.contains(&surface) {
                    *counts.entry((surface, domain)).or_insert(0) += 1;
                }
                i = j;
            } else {
                i += 1;
            }
        }
    }
    let mut out: Vec<MinedCandidate> = counts
        .into_iter()
        .map(|((surface, domain), count)| MinedCandidate {
            surface,
            domain,
            count,
        })
        .collect();
    out.sort_by(|a, b| b.count.cmp(&a.count).then(a.surface.cmp(&b.surface)));
    out
}

/// Outcome of one mining round (the §7.2 accounting: candidates found,
/// oracle-accepted, precision, and recall of the held-out vocabulary).
#[derive(Clone, Debug, Default)]
pub struct MiningReport {
    /// Candidates.
    pub candidates: usize,
    /// Accepted.
    pub accepted: usize,
    /// Precision.
    pub precision: f64,
    /// Fraction of held-out surfaces (that occur in the corpus) recovered.
    pub heldout_recall: f64,
}

/// Run oracle verification over candidates and score against the held-out
/// lexicon.
pub fn verify_candidates(
    candidates: &[MinedCandidate],
    oracle: &Oracle<'_>,
    heldout: &KnownLexicon,
    corpus_surfaces: &FxHashSet<String>,
) -> (Vec<MinedCandidate>, MiningReport) {
    let mut accepted = Vec::new();
    for c in candidates {
        if oracle.label_primitive(&c.surface, c.domain) {
            accepted.push(c.clone());
        }
    }
    let accepted_surfaces: FxHashSet<&str> = accepted.iter().map(|c| c.surface.as_str()).collect();
    let mut reachable = 0usize;
    let mut recovered = 0usize;
    for (surface, _) in heldout.iter() {
        if corpus_surfaces.contains(surface) {
            reachable += 1;
            if accepted_surfaces.contains(surface) {
                recovered += 1;
            }
        }
    }
    let report = MiningReport {
        candidates: candidates.len(),
        accepted: accepted.len(),
        precision: if candidates.is_empty() {
            0.0
        } else {
            accepted.len() as f64 / candidates.len() as f64
        },
        heldout_recall: if reachable == 0 {
            0.0
        } else {
            recovered as f64 / reachable as f64
        },
    };
    (accepted, report)
}

/// All surfaces (1–2 token spans) present in a corpus — used for recall
/// accounting.
pub fn corpus_surfaces(sentences: &[Vec<String>]) -> FxHashSet<String> {
    let mut out = FxHashSet::default();
    for s in sentences {
        for t in s {
            out.insert(t.clone());
        }
        for w in s.windows(2) {
            out.insert(w.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{Resources, ResourcesConfig};
    use alicoco_corpus::Dataset;

    #[test]
    fn label_space_roundtrip() {
        for d in Domain::ALL {
            assert!(is_begin(b_label(d)));
            assert!(!is_begin(i_label(d)));
            assert_eq!(label_domain(b_label(d)), Some(d));
            assert_eq!(label_domain(i_label(d)), Some(d));
        }
        assert_eq!(label_domain(0), None);
        assert!(!is_begin(0));
    }

    #[test]
    fn known_lexicon_split_partitions() {
        let ds = Dataset::tiny();
        let mut rng = alicoco_nn::util::seeded_rng(5);
        let (known, heldout) = KnownLexicon::sample(&ds, 0.7, &mut rng);
        assert!(!known.is_empty() && !heldout.is_empty());
        for (surface, domains) in heldout.iter() {
            for d in domains {
                assert!(
                    !known.domains_of(surface).contains(d),
                    "{surface} in both splits for {d:?}"
                );
            }
        }
    }

    #[test]
    fn distant_supervision_tags_known_terms() {
        let ds = Dataset::tiny();
        let mut rng = alicoco_nn::util::seeded_rng(6);
        let (known, _) = KnownLexicon::sample(&ds, 1.0, &mut rng);
        let sentences: Vec<Vec<String>> = vec![
            vec![
                "red".to_string(),
                "trench".to_string(),
                "coat".to_string(),
                "for".to_string(),
            ],
            // Contains an unknown content word -> imperfect match, dropped.
            vec!["red".to_string(), "zzz".to_string()],
        ];
        let data = distant_supervision(&known, &sentences, 10);
        assert_eq!(data.len(), 1);
        let (_, labels) = &data[0];
        assert_eq!(labels[0], b_label(Domain::Color));
        assert_eq!(labels[1], b_label(Domain::Category));
        assert_eq!(labels[2], i_label(Domain::Category));
        assert_eq!(labels[3], 0);
    }

    #[test]
    fn distant_supervision_drops_ambiguous() {
        let ds = Dataset::tiny();
        let mut rng = alicoco_nn::util::seeded_rng(7);
        let (known, _) = KnownLexicon::sample(&ds, 1.0, &mut rng);
        // "village" is Location and Style — ambiguous, sentence dropped.
        let sentences: Vec<Vec<String>> = vec![vec!["village".to_string(), "skirt".to_string()]];
        let data = distant_supervision(&known, &sentences, 10);
        assert!(data.is_empty());
    }

    /// End-to-end smoke: train on distant supervision, mine candidates, and
    /// check the oracle-verified report recovers held-out vocabulary.
    #[test]
    fn mining_recovers_heldout_terms() {
        let ds = Dataset::tiny();
        let res = Resources::build(
            &ds,
            ResourcesConfig {
                word_epochs: 3,
                ..Default::default()
            },
        );
        let mut rng = alicoco_nn::util::seeded_rng(8);
        let (known, heldout) = KnownLexicon::sample(&ds, 0.65, &mut rng);
        let sentences: Vec<Vec<String>> = ds.corpora.all_sentences().cloned().collect();
        let data = distant_supervision(&known, &sentences, 500);
        assert!(
            data.len() > 50,
            "too little distant supervision: {}",
            data.len()
        );
        let mut miner = VocabMiner::new(
            &res,
            VocabMinerConfig {
                train: TrainConfig::new(3, 0.01),
                ..Default::default()
            },
        );
        let losses = miner.train(&res, &data, &mut rng);
        assert!(
            losses.last().unwrap().mean_loss < losses.first().unwrap().mean_loss,
            "loss did not decrease: {losses:?}"
        );
        let candidates = mine_candidates(&miner, &res, &known, &sentences);
        assert!(!candidates.is_empty(), "no candidates mined");
        let oracle = Oracle::new(&ds.world);
        let surfaces = corpus_surfaces(&sentences);
        let (accepted, report) = verify_candidates(&candidates, &oracle, &heldout, &surfaces);
        assert!(!accepted.is_empty(), "oracle accepted nothing: {report:?}");
        assert!(report.precision > 0.2, "precision too low: {report:?}");
        assert!(report.heldout_recall > 0.1, "recall too low: {report:?}");
    }
}
