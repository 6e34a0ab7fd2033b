//! Hypernym discovery (§4.2): pattern-based extraction, projection
//! learning, and the UCS active-learning loop of Algorithm 1.
//!
//! Reproduces Table 3 (labeled size per sampling strategy, MRR/MAP/P@1) and
//! both panels of Figure 9 (negative-sample-ratio sweep; best MAP per
//! strategy).

use alicoco_corpus::{Dataset, Oracle};
use alicoco_nn::layers::Linear;
use alicoco_nn::metrics::{ranking_metrics, RankingMetrics};
use alicoco_nn::param::Param;
use alicoco_nn::util::{FxHashMap, FxHashSet};
use alicoco_nn::{Adam, EpochStats, Graph, NodeId, ParamSet, Tensor, TrainConfig, Trainer};
use alicoco_text::hearst;
use rand::seq::SliceRandom;
use rand::Rng;

// ---------------------------------------------------------------------------
// Pattern-based discovery (§4.2.1)
// ---------------------------------------------------------------------------

/// Extract hypernym pairs from the shopping-guide corpus using Hearst
/// patterns plus the head-word rule, resolved against known surfaces.
/// Returns `(hyponym, hypernym)` surface pairs (space-joined names).
pub fn pattern_based_pairs(ds: &Dataset) -> Vec<(String, String)> {
    let refs: Vec<&[String]> = ds.corpora.guides.iter().map(|s| s.as_slice()).collect();
    let mut out: Vec<(String, String)> = Vec::new();
    let mut seen: FxHashSet<(String, String)> = FxHashSet::default();
    let normalize = |s: &str| -> Option<String> {
        if ds.world.category(s).is_some() {
            Some(s.to_string())
        } else {
            let sp = s.replace('-', " ");
            ds.world.category(&sp).map(|_| sp)
        }
    };
    for p in hearst::extract_from_corpus(refs.iter().copied()) {
        if let (Some(c), Some(h)) = (normalize(&p.hyponym), normalize(&p.hypernym)) {
            if c != h && seen.insert((c.clone(), h.clone())) {
                out.push((c, h));
            }
        }
    }
    // Head-word rule over all category names ("alpine-jacket" isA "jacket").
    let heads: FxHashSet<String> = ds
        .world
        .tree
        .ids()
        .map(|i| ds.world.tree.name(i).to_string())
        .collect();
    let names: Vec<String> = ds
        .world
        .tree
        .ids()
        .map(|i| ds.world.tree.name(i).to_string())
        .collect();
    for p in hearst::head_word_pairs(names.iter().map(String::as_str), &heads) {
        let pair = (p.hyponym.clone(), p.hypernym.clone());
        if seen.insert(pair.clone()) {
            out.push(pair);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Dataset (§7.3 protocol)
// ---------------------------------------------------------------------------

/// The hypernym-discovery dataset over Category primitives: term surfaces,
/// embeddings, positive ancestor pairs, and a hyponym-level train/val/test
/// split (7:2:1 as in the paper).
pub struct HypernymDataset {
    /// Terms.
    pub terms: Vec<String>,
    /// Mean-of-word-vectors embedding per term.
    pub vecs: Vec<Vec<f32>>,
    positives: FxHashSet<(usize, usize)>,
    /// Hyponym indices per split.
    pub train_hypos: Vec<usize>,
    /// Val hypos.
    pub val_hypos: Vec<usize>,
    /// Test hypos.
    pub test_hypos: Vec<usize>,
    /// Positive pairs per split.
    pub train_pos: Vec<(usize, usize)>,
    /// Val POS.
    pub val_pos: Vec<(usize, usize)>,
    /// Test POS.
    pub test_pos: Vec<(usize, usize)>,
}

impl HypernymDataset {
    /// Build from the world's category tree, embedding terms with the
    /// shared word vectors.
    pub fn build(ds: &Dataset, res: &crate::resources::Resources, rng: &mut impl Rng) -> Self {
        let tree = &ds.world.tree;
        let ids: Vec<usize> = tree.ids().filter(|&i| i != 0).collect();
        let terms: Vec<String> = ids.iter().map(|&i| tree.name(i).to_string()).collect();
        let index_of: FxHashMap<usize, usize> =
            ids.iter().enumerate().map(|(k, &i)| (i, k)).collect();
        let dim = res.word_vectors.dim();
        let vecs: Vec<Vec<f32>> = terms
            .iter()
            .map(|t| {
                let mut v = vec![0.0f32; dim];
                let mut n = 0;
                for tok in t.split(&[' ', '-'][..]) {
                    if let Some(id) = res.vocab.get(tok) {
                        for (a, b) in v.iter_mut().zip(res.word_vectors.vector(id)) {
                            *a += b;
                        }
                        n += 1;
                    }
                }
                if n > 0 {
                    v.iter_mut().for_each(|x| *x /= n as f32);
                }
                v
            })
            .collect();

        // Positives: ancestor closure (excluding the virtual root).
        let mut positives = FxHashSet::default();
        let mut by_hypo: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for &id in &ids {
            for anc in tree.ancestors(id) {
                if anc == 0 {
                    continue;
                }
                let pair = (index_of[&id], index_of[&anc]);
                positives.insert(pair);
                by_hypo.entry(pair.0).or_default().push(pair.1);
            }
        }
        // Split hyponyms 7:2:1.
        let mut hypos: Vec<usize> = by_hypo.keys().copied().collect();
        hypos.sort_unstable();
        hypos.shuffle(rng);
        let n = hypos.len();
        let n_train = n * 7 / 10;
        let n_val = n * 2 / 10;
        let train_hypos = hypos[..n_train].to_vec();
        let val_hypos = hypos[n_train..n_train + n_val].to_vec();
        let test_hypos = hypos[n_train + n_val..].to_vec();
        let pairs_of = |hs: &[usize]| -> Vec<(usize, usize)> {
            let mut v: Vec<(usize, usize)> = hs
                .iter()
                .flat_map(|h| by_hypo[h].iter().map(move |&a| (*h, a)))
                .collect();
            v.sort_unstable();
            v
        };
        let train_pos = pairs_of(&train_hypos);
        let val_pos = pairs_of(&val_hypos);
        let test_pos = pairs_of(&test_hypos);
        HypernymDataset {
            terms,
            vecs,
            positives,
            train_hypos,
            val_hypos,
            test_hypos,
            train_pos,
            val_pos,
            test_pos,
        }
    }

    /// Is positive.
    pub fn is_positive(&self, hypo: usize, hyper: usize) -> bool {
        self.positives.contains(&(hypo, hyper))
    }

    /// Labeled training pairs with `ratio` negatives per positive, negatives
    /// formed by replacing the hypernym with a random term (the §7.3
    /// protocol).
    pub fn labeled_pairs(
        &self,
        positives: &[(usize, usize)],
        ratio: usize,
        rng: &mut impl Rng,
    ) -> Vec<(usize, usize, f32)> {
        let mut out = Vec::with_capacity(positives.len() * (1 + ratio));
        for &(h, a) in positives {
            out.push((h, a, 1.0));
            let mut added = 0;
            let mut guard = 0;
            while added < ratio && guard < ratio * 20 {
                guard += 1;
                let cand = rng.gen_range(0..self.terms.len());
                if cand != h && !self.is_positive(h, cand) {
                    out.push((h, cand, 0.0));
                    added += 1;
                }
            }
        }
        out.shuffle(rng);
        out
    }

    /// Ranking queries for evaluation: for each hyponym in `positives`, its
    /// true hypernyms plus `negatives` random non-hypernyms.
    pub fn ranking_queries(
        &self,
        positives: &[(usize, usize)],
        negatives: usize,
        rng: &mut impl Rng,
    ) -> Vec<(usize, Vec<(usize, bool)>)> {
        let mut by_hypo: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for &(h, a) in positives {
            by_hypo.entry(h).or_default().push(a);
        }
        let mut hypos: Vec<usize> = by_hypo.keys().copied().collect();
        hypos.sort_unstable();
        let mut out = Vec::with_capacity(hypos.len());
        for h in hypos {
            let mut cands: Vec<(usize, bool)> = by_hypo[&h].iter().map(|&a| (a, true)).collect();
            let mut added = 0;
            let mut guard = 0;
            while added < negatives && guard < negatives * 20 {
                guard += 1;
                let cand = rng.gen_range(0..self.terms.len());
                if cand != h && !self.is_positive(h, cand) {
                    cands.push((cand, false));
                    added += 1;
                }
            }
            out.push((h, cands));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Projection learning (§4.2.2, eq. 1–2)
// ---------------------------------------------------------------------------

/// Configuration for the projection model.
#[derive(Clone, Debug)]
pub struct ProjectionConfig {
    /// Number of bilinear projection layers `K`.
    pub k: usize,
    /// Shared training-loop hyper-parameters.
    pub train: TrainConfig,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for ProjectionConfig {
    fn default() -> Self {
        ProjectionConfig {
            k: 4,
            train: TrainConfig::new(6, 0.02),
            seed: 99,
        }
    }
}

/// The bilinear projection scorer: `s_k = p^T T_k h`, `y = σ(W s + b)`.
pub struct ProjectionModel {
    ps: ParamSet,
    tensors: Vec<Param>,
    out: Linear,
    cfg: ProjectionConfig,
    dim: usize,
}

impl ProjectionModel {
    /// Create a new instance.
    pub fn new(dim: usize, cfg: ProjectionConfig) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
        let mut ps = ParamSet::new();
        let tensors = (0..cfg.k)
            .map(|k| ps.add(format!("proj.t{k}"), Tensor::xavier(dim, dim, &mut rng)))
            .collect();
        let out = Linear::new(&mut ps, "proj.out", cfg.k, 1, &mut rng);
        ProjectionModel {
            ps,
            tensors,
            out,
            cfg,
            dim,
        }
    }

    /// Trainable parameters (the train bench's reproducibility gate reads them).
    pub fn params(&self) -> &ParamSet {
        &self.ps
    }

    fn logit(&self, g: &mut Graph, p: &[f32], h: &[f32]) -> NodeId {
        let pn = g.input(Tensor::row(p.to_vec()));
        let hn = g.input(Tensor::row(h.to_vec()));
        let ht = g.transpose(hn);
        let scores: Vec<NodeId> = self
            .tensors
            .iter()
            .map(|t| {
                let tk = g.param(t);
                let pt = g.matmul(pn, tk);
                g.matmul(pt, ht)
            })
            .collect();
        let s = g.concat_cols(&scores);
        self.out.forward(g, s)
    }

    /// Probability that `h` is a hypernym of `p`.
    pub fn score(&self, p: &[f32], h: &[f32]) -> f32 {
        assert_eq!(p.len(), self.dim);
        let mut g = Graph::new();
        let l = self.logit(&mut g, p, h);
        1.0 / (1.0 + (-g.value(l).item()).exp())
    }

    /// Train on labeled `(hypo, hyper, label)` triples over `data.vecs`;
    /// returns per-epoch telemetry.
    pub fn train(
        &mut self,
        data: &HypernymDataset,
        triples: &[(usize, usize, f32)],
        rng: &mut impl Rng,
    ) -> Vec<EpochStats> {
        let mut opt = Adam::new(self.cfg.train.lr);
        let model = &*self;
        let trainer = Trainer::new(&model.ps, model.cfg.train.clone());
        trainer.train(
            &mut opt,
            triples,
            |g, &(p, h, y)| {
                let l = model.logit(g, &data.vecs[p], &data.vecs[h]);
                Some(g.bce_with_logits(l, &[y]))
            },
            rng,
        )
    }

    /// Evaluate ranking metrics over queries.
    pub fn evaluate(
        &self,
        data: &HypernymDataset,
        queries: &[(usize, Vec<(usize, bool)>)],
    ) -> RankingMetrics {
        let scored: Vec<Vec<(f32, bool)>> = queries
            .iter()
            .map(|(h, cands)| {
                cands
                    .iter()
                    .map(|&(a, y)| (self.score(&data.vecs[*h], &data.vecs[a]), y))
                    .collect()
            })
            .collect();
        ranking_metrics(&scored)
    }
}

// ---------------------------------------------------------------------------
// Active learning (§4.2.3, Algorithm 1)
// ---------------------------------------------------------------------------

/// Sampling strategies compared in Table 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Label the whole pool in random order (no active learning).
    Random,
    /// Uncertainty sampling: scores closest to 0.5.
    Us,
    /// Confidence sampling: scores farthest from 0.5.
    Cs,
    /// Uncertainty + high-confidence mix with weight `alpha` on confidence.
    Ucs {
        /// Share of each batch taken from the high-confidence end.
        alpha: f64,
    },
}

impl Strategy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Random => "Random",
            Strategy::Us => "US",
            Strategy::Cs => "CS",
            Strategy::Ucs { .. } => "UCS",
        }
    }
}

/// Configuration of the active-learning run.
#[derive(Clone, Debug)]
pub struct ActiveLearningConfig {
    /// Strategy.
    pub strategy: Strategy,
    /// Samples labeled per iteration (`K` in Algorithm 1).
    pub k_per_round: usize,
    /// Stop when validation MAP has not improved for this many rounds.
    pub patience: usize,
    /// Max rounds.
    pub max_rounds: usize,
    /// Negatives per positive when building the unlabeled pool.
    pub pool_negative_ratio: usize,
    /// Projection.
    pub projection: ProjectionConfig,
    /// Seed for pool shuffling and negatives.
    pub seed: u64,
}

impl Default for ActiveLearningConfig {
    fn default() -> Self {
        ActiveLearningConfig {
            strategy: Strategy::Ucs { alpha: 0.5 },
            k_per_round: 400,
            patience: 2,
            max_rounds: 12,
            pool_negative_ratio: 8,
            projection: ProjectionConfig::default(),
            seed: 555,
        }
    }
}

/// Outcome of an active-learning run (one Table 3 row).
#[derive(Clone, Debug)]
pub struct ActiveLearningOutcome {
    /// Strategy.
    pub strategy: &'static str,
    /// Oracle labels consumed.
    pub labeled: u64,
    /// `(labels used, validation MAP)` after each round.
    pub history: Vec<(u64, f64)>,
    /// Best val map.
    pub best_val_map: f64,
    /// Test metrics of the final model.
    pub test: RankingMetrics,
}

/// Run Algorithm 1 with the given strategy.
pub fn run_active_learning(
    data: &HypernymDataset,
    oracle: &Oracle<'_>,
    cfg: &ActiveLearningConfig,
) -> ActiveLearningOutcome {
    let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
    oracle.reset_counter();

    // Build the unlabeled pool: every training positive plus random
    // negatives, unlabeled (the oracle will label them on demand).
    let mut pool: Vec<(usize, usize)> = Vec::new();
    for &(h, a) in &data.train_pos {
        pool.push((h, a));
        for _ in 0..cfg.pool_negative_ratio {
            let cand = rng.gen_range(0..data.terms.len());
            if cand != h {
                pool.push((h, cand));
            }
        }
    }
    pool.shuffle(&mut rng);

    let val_queries = data.ranking_queries(&data.val_pos, 30, &mut rng);
    let test_queries = data.ranking_queries(&data.test_pos, 30, &mut rng);

    let mut labeled: Vec<(usize, usize, f32)> = Vec::new();
    let mut history = Vec::new();
    let mut best_map = f64::NEG_INFINITY;
    let mut stale = 0usize;
    let mut model = ProjectionModel::new(data.vecs[0].len(), cfg.projection.clone());

    let label_batch = |batch: Vec<(usize, usize)>,
                       labeled: &mut Vec<(usize, usize, f32)>,
                       oracle: &Oracle<'_>| {
        for (h, a) in batch {
            let y = oracle.label_hypernym(&data.terms[h], &data.terms[a]);
            labeled.push((h, a, if y { 1.0 } else { 0.0 }));
        }
    };

    // Round 0: random K.
    let first: Vec<(usize, usize)> = pool.drain(..cfg.k_per_round.min(pool.len())).collect();
    label_batch(first, &mut labeled, oracle);

    for _round in 0..cfg.max_rounds {
        model = ProjectionModel::new(data.vecs[0].len(), cfg.projection.clone());
        model.train(data, &labeled, &mut rng);
        let val = model.evaluate(data, &val_queries);
        history.push((oracle.labels_used(), val.map));
        if val.map > best_map + 1e-4 {
            best_map = val.map;
            stale = 0;
        } else {
            stale += 1;
            if stale >= cfg.patience {
                break;
            }
        }
        if pool.is_empty() {
            break;
        }
        // Score the pool and select the next batch by strategy.
        let k = cfg.k_per_round.min(pool.len());
        let batch: Vec<(usize, usize)> = match cfg.strategy {
            Strategy::Random => pool.drain(..k).collect(),
            _ => {
                // Certainty p_i = |S_i - 0.5| / 0.5.
                let mut scored: Vec<(usize, f64)> = pool
                    .iter()
                    .enumerate()
                    .map(|(i, &(h, a))| {
                        let s = model.score(&data.vecs[h], &data.vecs[a]) as f64;
                        (i, (s - 0.5).abs() / 0.5)
                    })
                    .collect();
                scored.sort_by(alicoco::rank::by_score_then_id);
                let take: Vec<usize> = match cfg.strategy {
                    Strategy::Cs => scored[..k].iter().map(|&(i, _)| i).collect(),
                    Strategy::Us => scored[scored.len() - k..].iter().map(|&(i, _)| i).collect(),
                    Strategy::Ucs { alpha } => {
                        let n_conf = ((k as f64) * alpha).round() as usize;
                        let n_unc = k - n_conf;
                        let mut v: Vec<usize> = scored[..n_conf].iter().map(|&(i, _)| i).collect();
                        v.extend(scored[scored.len() - n_unc..].iter().map(|&(i, _)| i));
                        v
                    }
                    Strategy::Random => unreachable!(),
                };
                let mut take_sorted = take;
                take_sorted.sort_unstable_by(|a, b| b.cmp(a));
                take_sorted
                    .into_iter()
                    .map(|i| pool.swap_remove(i))
                    .collect()
            }
        };
        label_batch(batch, &mut labeled, oracle);
    }

    let test = model.evaluate(data, &test_queries);
    ActiveLearningOutcome {
        strategy: cfg.strategy.name(),
        labeled: oracle.labels_used(),
        history,
        best_val_map: best_map.max(0.0),
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{Resources, ResourcesConfig};

    fn setup() -> (Dataset, Resources, HypernymDataset) {
        let ds = Dataset::tiny();
        let res = Resources::build(
            &ds,
            ResourcesConfig {
                word_epochs: 3,
                ..Default::default()
            },
        );
        let mut rng = alicoco_nn::util::seeded_rng(21);
        let data = HypernymDataset::build(&ds, &res, &mut rng);
        (ds, res, data)
    }

    #[test]
    fn pattern_pairs_are_high_precision() {
        let ds = Dataset::tiny();
        let pairs = pattern_based_pairs(&ds);
        assert!(pairs.len() > 30, "only {} pattern pairs", pairs.len());
        let correct = pairs
            .iter()
            .filter(|(c, h)| {
                let ci = ds.world.category(c).unwrap();
                let hi = ds.world.category(h).unwrap();
                ds.world.tree.is_ancestor(hi, ci)
            })
            .count();
        assert!(
            correct as f64 / pairs.len() as f64 > 0.9,
            "pattern precision {correct}/{}",
            pairs.len()
        );
    }

    #[test]
    fn dataset_split_is_disjoint_and_positive_pairs_match_tree() {
        let (ds, _, data) = setup();
        let all: FxHashSet<usize> = data
            .train_hypos
            .iter()
            .chain(&data.val_hypos)
            .chain(&data.test_hypos)
            .copied()
            .collect();
        assert_eq!(
            all.len(),
            data.train_hypos.len() + data.val_hypos.len() + data.test_hypos.len(),
            "splits overlap"
        );
        for &(h, a) in data.train_pos.iter().take(50) {
            let hi = ds.world.category(&data.terms[h]).unwrap();
            let ai = ds.world.category(&data.terms[a]).unwrap();
            assert!(ds.world.tree.is_ancestor(ai, hi));
        }
    }

    #[test]
    fn projection_model_learns_to_rank() {
        let (_, _, data) = setup();
        let mut rng = alicoco_nn::util::seeded_rng(31);
        let triples = data.labeled_pairs(&data.train_pos, 6, &mut rng);
        let mut model = ProjectionModel::new(
            data.vecs[0].len(),
            ProjectionConfig {
                train: ProjectionConfig::default().train.with_epochs(4),
                ..Default::default()
            },
        );
        model.train(&data, &triples, &mut rng);
        let queries = data.ranking_queries(&data.test_pos, 20, &mut rng);
        let m = model.evaluate(&data, &queries);
        // Random ranking over ~20 negatives + ~3 positives would give
        // MAP ~0.15; the trained model must beat that clearly.
        assert!(m.map > 0.3, "MAP too low: {m:?}");
    }

    #[test]
    fn ucs_uses_fewer_labels_than_random_for_similar_map() {
        let (ds, _, data) = setup();
        let oracle = Oracle::new(&ds.world);
        let base = ActiveLearningConfig {
            k_per_round: 150,
            max_rounds: 6,
            patience: 2,
            pool_negative_ratio: 5,
            projection: ProjectionConfig {
                train: ProjectionConfig::default().train.with_epochs(3),
                ..Default::default()
            },
            ..Default::default()
        };
        let random = run_active_learning(
            &data,
            &oracle,
            &ActiveLearningConfig {
                strategy: Strategy::Random,
                ..base.clone()
            },
        );
        let ucs = run_active_learning(
            &data,
            &oracle,
            &ActiveLearningConfig {
                strategy: Strategy::Ucs { alpha: 0.5 },
                ..base.clone()
            },
        );
        assert!(
            random.best_val_map > 0.2,
            "random arm degenerate: {random:?}"
        );
        assert!(ucs.best_val_map > 0.2, "ucs arm degenerate: {ucs:?}");
        // The Table 3 claim (UCS saves labels at equal MAP) is measured by
        // the experiments harness over full runs; here we assert the
        // mechanics: labels are consumed monotonically and every label is
        // accounted to the oracle.
        for w in ucs.history.windows(2) {
            assert!(
                w[1].0 >= w[0].0,
                "label count went backwards: {:?}",
                ucs.history
            );
        }
        assert!(ucs.labeled >= base.k_per_round as u64);
        assert!(!ucs.history.is_empty());
    }

    #[test]
    fn ranking_queries_contain_all_positives() {
        let (_, _, data) = setup();
        let mut rng = alicoco_nn::util::seeded_rng(41);
        let queries = data.ranking_queries(&data.test_pos, 10, &mut rng);
        for (h, cands) in &queries {
            let pos = cands.iter().filter(|(_, y)| *y).count();
            assert!(pos >= 1);
            for &(a, y) in cands {
                assert_eq!(data.is_positive(*h, a), y);
            }
        }
    }
}
