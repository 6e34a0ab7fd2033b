//! Skip-gram word2vec with negative sampling (SGNS).
//!
//! Replaces the paper's pre-trained GloVe / e-commerce embeddings: every
//! downstream model consumes distributional word vectors trained on the
//! synthetic corpus. Trained with a hand-rolled hot loop (no autodiff) for
//! speed; vectors are exposed as an [`alicoco_nn::Tensor`] aligned with a
//! [`crate::vocab::Vocab`].

use alicoco_nn::{Tensor, TrainConfig, Trainer};
use rand::Rng;

use crate::vocab::{TokenId, Vocab, UNK};

/// Training configuration.
#[derive(Clone, Debug)]
pub struct Word2VecConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Window.
    pub window: usize,
    /// Negatives.
    pub negatives: usize,
    /// Epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Word2VecConfig {
            dim: 32,
            window: 3,
            negatives: 5,
            epochs: 5,
            lr: 0.025,
            seed: 17,
        }
    }
}

/// Trained embeddings: `vectors` row `i` is the vector of vocab id `i`.
pub struct WordVectors {
    /// Vectors.
    pub vectors: Tensor,
}

impl WordVectors {
    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.vectors.cols()
    }

    /// Vector of a token id.
    pub fn vector(&self, id: TokenId) -> &[f32] {
        self.vectors.row_slice(id)
    }

    /// Cosine similarity between two token ids.
    pub fn cosine(&self, a: TokenId, b: TokenId) -> f32 {
        cosine(self.vector(a), self.vector(b))
    }

    /// The `k` nearest tokens to `id` by cosine similarity (excluding `id`
    pub fn nearest(&self, id: TokenId, k: usize) -> Vec<(TokenId, f32)> {
        let mut sims: Vec<(TokenId, f32)> = (0..self.vectors.rows())
            .filter(|&j| j != id && j != UNK)
            .map(|j| (j, self.cosine(id, j)))
            .collect();
        sims.sort_by(alicoco_nn::rank::by_score_then_id);
        sims.truncate(k);
        sims
    }
}

/// Cosine similarity of two equal-length vectors (0 for zero vectors).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Unigram^0.75 negative-sampling table.
pub(crate) struct NegativeTable {
    table: Vec<TokenId>,
}

impl NegativeTable {
    pub(crate) fn new(vocab: &Vocab, size: usize) -> Self {
        let mut weights: Vec<f64> = (0..vocab.len())
            .map(|i| {
                if i == UNK {
                    0.0
                } else {
                    (vocab.count(i) as f64).powf(0.75)
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total == 0.0 {
            // Degenerate vocab: sample uniformly over non-unk ids.
            weights.iter_mut().skip(1).for_each(|w| *w = 1.0);
        }
        let total: f64 = weights.iter().sum::<f64>().max(1.0);
        let mut table = Vec::with_capacity(size);
        for (id, w) in weights.iter().enumerate() {
            let n = ((w / total) * size as f64).round() as usize;
            table.extend(std::iter::repeat_n(id, n));
        }
        if table.is_empty() {
            table.push(UNK);
        }
        NegativeTable { table }
    }

    #[inline]
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> TokenId {
        self.table[rng.gen_range(0..self.table.len())]
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The most targets whose dot products run side by side.
const LANES: usize = 8;

/// `in_row · output[t]` for each target `t`, in target order, into `dots`:
/// up to [`LANES`] targets at a time go to [`group_dots`], sized to the
/// group so no lane is wasted.
fn interleaved_dots(
    in_row: &[f32],
    output: &[f32],
    targets: &[(TokenId, f32)],
    dots: &mut Vec<f32>,
) {
    type GroupDots = fn(&[f32], &[f32], &[(TokenId, f32)], &mut Vec<f32>);
    dots.clear();
    for group in targets.chunks(LANES) {
        let dots_of_group: GroupDots = match group.len() {
            1 => group_dots::<1>,
            2 => group_dots::<2>,
            3 => group_dots::<3>,
            4 => group_dots::<4>,
            5 => group_dots::<5>,
            6 => group_dots::<6>,
            7 => group_dots::<7>,
            _ => group_dots::<LANES>,
        };
        dots_of_group(in_row, output, group, dots);
    }
}

/// The dot products of `N` targets as `N` independent accumulators, so
/// their chains of dependent additions overlap. Each starts at
/// `Iterator::sum`'s start value and adds its products in index order:
/// the same additions, so the same bits, as a `.sum()` per target.
fn group_dots<const N: usize>(
    in_row: &[f32],
    output: &[f32],
    group: &[(TokenId, f32)],
    dots: &mut Vec<f32>,
) {
    let d = in_row.len();
    let rows: [&[f32]; N] = std::array::from_fn(|lane| {
        let t = group.get(lane).map_or(0, |&(t, _)| t);
        &output[t * d..(t + 1) * d]
    });
    let mut acc = [std::iter::empty::<f32>().sum::<f32>(); N];
    #[allow(clippy::needless_range_loop)]
    for k in 0..d {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += in_row[k] * row[k];
        }
    }
    dots.extend_from_slice(&acc);
}

/// Train SGNS embeddings over id-encoded sentences.
///
/// Each `(center, context)` step draws its `1 + negatives` targets first:
/// no draw depends on a dot product, so the RNG sequence is that of
/// drawing each just before its update. When the targets are distinct, no
/// sample writes a row a later one reads (the center's row is updated
/// only after the last sample), so every dot product runs up front, side
/// by side (`interleaved_dots`), and the updates then follow in sample
/// order. A step that repeats a target keeps dot and update per sample,
/// because the repeat must read the row its earlier draw updated.
pub fn train(vocab: &Vocab, sentences: &[Vec<TokenId>], cfg: &Word2VecConfig) -> WordVectors {
    let v = vocab.len();
    let d = cfg.dim;
    let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
    let mut input: Vec<f32> = (0..v * d)
        .map(|_| (rng.gen::<f32>() - 0.5) / d as f32)
        .collect();
    let mut output: Vec<f32> = vec![0.0; v * d];
    let neg_table = NegativeTable::new(vocab, 10_000.max(v * 4));

    let total_steps = (cfg.epochs * sentences.iter().map(Vec::len).sum::<usize>()).max(1);
    let mut step = 0usize;
    let mut grad = vec![0.0f32; d];
    let mut targets: Vec<(TokenId, f32)> = Vec::with_capacity(cfg.negatives + 1);
    let mut dots: Vec<f32> = Vec::with_capacity(cfg.negatives + 1);
    // The engine owns the epoch iteration; SGNS keeps its own finer-grained
    // per-step decay (computed from `step`/`total_steps`), so the epoch body
    // ignores the engine's per-epoch rate.
    Trainer::run_raw(
        &TrainConfig::new(cfg.epochs, cfg.lr),
        1.0,
        &mut rng,
        |_, rng| {
            for sent in sentences {
                for (pos, &center) in sent.iter().enumerate() {
                    step += 1;
                    if center == UNK {
                        continue;
                    }
                    let lr = cfg.lr * (1.0 - step as f32 / total_steps as f32).max(0.05);
                    let lo = pos.saturating_sub(cfg.window);
                    let hi = (pos + cfg.window + 1).min(sent.len());
                    #[allow(clippy::needless_range_loop)]
                    for ctx_pos in lo..hi {
                        if ctx_pos == pos {
                            continue;
                        }
                        let ctx = sent[ctx_pos];
                        if ctx == UNK {
                            continue;
                        }
                        grad.iter_mut().for_each(|g| *g = 0.0);
                        // Positive update + negatives, standard SGNS.
                        targets.clear();
                        targets.push((ctx, 1.0));
                        for _ in 0..cfg.negatives {
                            let mut neg = neg_table.sample(rng);
                            if neg == ctx {
                                neg = neg_table.sample(rng);
                            }
                            targets.push((neg, 0.0));
                        }
                        let in_row = &mut input[center * d..(center + 1) * d];
                        let distinct = targets
                            .iter()
                            .enumerate()
                            .all(|(i, &(t, _))| targets[..i].iter().all(|&(u, _)| u != t));
                        if distinct {
                            interleaved_dots(in_row, &output, &targets, &mut dots);
                        }
                        for (sample, &(target, label)) in targets.iter().enumerate() {
                            let out_row = &mut output[target * d..(target + 1) * d];
                            let dot: f32 = if distinct {
                                dots[sample]
                            } else {
                                in_row.iter().zip(out_row.iter()).map(|(a, b)| a * b).sum()
                            };
                            let err = (sigmoid(dot) - label) * lr;
                            for k in 0..d {
                                grad[k] += err * out_row[k];
                                out_row[k] -= err * in_row[k];
                            }
                        }
                        for k in 0..d {
                            in_row[k] -= grad[k];
                        }
                    }
                }
            }
        },
    );
    WordVectors {
        vectors: Tensor::from_vec(v, d, input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic corpus where "grill" and "charcoal" always co-occur, far
    /// from "lipstick"/"mascara". SGNS must place co-occurring words closer.
    fn toy_corpus() -> (Vocab, Vec<Vec<TokenId>>) {
        let mut sents: Vec<Vec<String>> = Vec::new();
        for i in 0..200 {
            if i % 2 == 0 {
                sents.push(
                    ["barbecue", "grill", "charcoal", "outdoor", "fire"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                );
            } else {
                sents.push(
                    ["makeup", "lipstick", "mascara", "beauty", "powder"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                );
            }
        }
        let refs: Vec<&[String]> = sents.iter().map(|s| s.as_slice()).collect();
        let vocab = Vocab::from_corpus(refs.iter().copied(), 1);
        let encoded = sents.iter().map(|s| vocab.encode(s)).collect();
        (vocab, encoded)
    }

    #[test]
    fn cooccurring_words_are_closer() {
        let (vocab, sents) = toy_corpus();
        let cfg = Word2VecConfig {
            dim: 16,
            epochs: 12,
            ..Default::default()
        };
        let wv = train(&vocab, &sents, &cfg);
        let grill = vocab.get("grill").unwrap();
        let charcoal = vocab.get("charcoal").unwrap();
        let lipstick = vocab.get("lipstick").unwrap();
        let same = wv.cosine(grill, charcoal);
        let diff = wv.cosine(grill, lipstick);
        assert!(
            same > diff + 0.2,
            "grill~charcoal ({same}) should beat grill~lipstick ({diff})"
        );
    }

    #[test]
    fn nearest_returns_topic_mates() {
        let (vocab, sents) = toy_corpus();
        let cfg = Word2VecConfig {
            dim: 16,
            epochs: 12,
            ..Default::default()
        };
        let wv = train(&vocab, &sents, &cfg);
        let grill = vocab.get("grill").unwrap();
        let nearest = wv.nearest(grill, 4);
        let barbecue_topic: Vec<TokenId> = ["barbecue", "charcoal", "outdoor", "fire"]
            .iter()
            .map(|t| vocab.get(t).unwrap())
            .collect();
        let hits = nearest
            .iter()
            .filter(|(id, _)| barbecue_topic.contains(id))
            .count();
        assert!(hits >= 3, "nearest neighbours of grill were {nearest:?}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (vocab, sents) = toy_corpus();
        let cfg = Word2VecConfig {
            dim: 8,
            epochs: 2,
            ..Default::default()
        };
        let a = train(&vocab, &sents, &cfg);
        let b = train(&vocab, &sents, &cfg);
        assert_eq!(a.vectors.data(), b.vectors.data());
    }

    #[test]
    fn nearest_breaks_ties_by_ascending_id() {
        // Identical vectors make every cosine tie exactly; the ranking must
        // fall back to ascending token id, stably across calls.
        let rows = 6;
        let data: Vec<f32> = (0..rows).flat_map(|_| [1.0f32, 0.5, -0.25]).collect();
        let wv = WordVectors {
            vectors: Tensor::from_vec(rows, 3, data),
        };
        let nearest = wv.nearest(3, 4);
        let ids: Vec<TokenId> = nearest.iter().map(|&(id, _)| id).collect();
        // Id 0 is UNK (excluded), id 3 is the query itself.
        assert_eq!(ids, vec![1, 2, 4, 5]);
        assert_eq!(wv.nearest(3, 4), nearest);
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_table_skips_unk() {
        let (vocab, _) = toy_corpus();
        let table = NegativeTable::new(&vocab, 1000);
        let mut rng = alicoco_nn::util::seeded_rng(5);
        for _ in 0..200 {
            assert_ne!(table.sample(&mut rng), UNK);
        }
    }

    /// The training loop before the dot products were interleaved, kept
    /// verbatim as the oracle `train` must equal bit for bit: each sample
    /// draws its target, takes its dot product and applies its update in
    /// turn.
    fn reference_train(
        vocab: &Vocab,
        sentences: &[Vec<TokenId>],
        cfg: &Word2VecConfig,
    ) -> WordVectors {
        let v = vocab.len();
        let d = cfg.dim;
        let mut rng = alicoco_nn::util::seeded_rng(cfg.seed);
        let mut input: Vec<f32> = (0..v * d)
            .map(|_| (rng.gen::<f32>() - 0.5) / d as f32)
            .collect();
        let mut output: Vec<f32> = vec![0.0; v * d];
        let neg_table = NegativeTable::new(vocab, 10_000.max(v * 4));

        let total_steps = (cfg.epochs * sentences.iter().map(Vec::len).sum::<usize>()).max(1);
        let mut step = 0usize;
        let mut grad = vec![0.0f32; d];
        // The engine owns the epoch iteration; SGNS keeps its own finer-grained
        // per-step decay (computed from `step`/`total_steps`), so the epoch body
        // ignores the engine's per-epoch rate.
        Trainer::run_raw(
            &TrainConfig::new(cfg.epochs, cfg.lr),
            1.0,
            &mut rng,
            |_, rng| {
                for sent in sentences {
                    for (pos, &center) in sent.iter().enumerate() {
                        step += 1;
                        if center == UNK {
                            continue;
                        }
                        let lr = cfg.lr * (1.0 - step as f32 / total_steps as f32).max(0.05);
                        let lo = pos.saturating_sub(cfg.window);
                        let hi = (pos + cfg.window + 1).min(sent.len());
                        #[allow(clippy::needless_range_loop)]
                        for ctx_pos in lo..hi {
                            if ctx_pos == pos {
                                continue;
                            }
                            let ctx = sent[ctx_pos];
                            if ctx == UNK {
                                continue;
                            }
                            grad.iter_mut().for_each(|g| *g = 0.0);
                            let in_row = &mut input[center * d..(center + 1) * d];
                            // Positive update + negatives, standard SGNS.
                            for sample in 0..=cfg.negatives {
                                let (target, label) = if sample == 0 {
                                    (ctx, 1.0f32)
                                } else {
                                    let mut neg = neg_table.sample(rng);
                                    if neg == ctx {
                                        neg = neg_table.sample(rng);
                                    }
                                    (neg, 0.0f32)
                                };
                                let out_row = &mut output[target * d..(target + 1) * d];
                                let dot: f32 =
                                    in_row.iter().zip(out_row.iter()).map(|(a, b)| a * b).sum();
                                let err = (sigmoid(dot) - label) * lr;
                                for k in 0..d {
                                    grad[k] += err * out_row[k];
                                    out_row[k] -= err * in_row[k];
                                }
                            }
                            for k in 0..d {
                                in_row[k] -= grad[k];
                            }
                        }
                    }
                }
            },
        );
        WordVectors {
            vectors: Tensor::from_vec(v, d, input),
        }
    }

    /// A corpus over `n` distinct tokens: every token once, then random
    /// sentences over them (which may repeat a token within a window).
    fn random_corpus(n: usize, raw: &[Vec<usize>]) -> (Vocab, Vec<Vec<TokenId>>) {
        let token = |i: usize| format!("t{}", i % n);
        let mut sents: Vec<Vec<String>> = vec![(0..n).map(token).collect()];
        sents.extend(raw.iter().map(|s| s.iter().map(|&i| token(i)).collect()));
        let refs: Vec<&[String]> = sents.iter().map(Vec::as_slice).collect();
        let vocab = Vocab::from_corpus(refs.iter().copied(), 1);
        let encoded = sents.iter().map(|s| vocab.encode(s)).collect();
        (vocab, encoded)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `train` equals the sequential loop bit for bit. A 2–8-token
        /// vocabulary makes a step's targets repeat, which keeps the
        /// sequential path; a 100+-token one makes them distinct, which
        /// takes the interleaved one.
        #[test]
        fn train_equals_the_sequential_loop_bit_for_bit(
            small in 2usize..=8,
            large in 100usize..=160,
            use_large in proptest::prelude::any::<bool>(),
            raw in proptest::collection::vec(proptest::collection::vec(0usize..1000, 0..=12), 1..=60),
            dim in 1usize..=24,
            window in 1usize..=4,
            negatives in 0usize..=8,
            epochs in 1usize..=4,
            lr in 0.01f32..0.5,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (vocab, sents) = random_corpus(if use_large { large } else { small }, &raw);
            let cfg = Word2VecConfig { dim, window, negatives, epochs, lr, seed };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            proptest::prop_assert_eq!(
                bits(train(&vocab, &sents, &cfg).vectors.data()),
                bits(reference_train(&vocab, &sents, &cfg).vectors.data())
            );
        }
    }
}
