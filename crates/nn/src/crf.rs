//! Linear-chain CRF and fuzzy CRF layers.
//!
//! The CRF sits on top of a BiLSTM encoder in the paper's sequence models
//! (vocabulary mining §4.1, concept tagging §5.3). The *fuzzy* CRF (§5.3.2,
//! eq. 8) replaces the single gold path in the numerator with the set of all
//! paths compatible with per-position *sets* of acceptable labels, which is
//! how the paper handles words like "village" that may validly be tagged
//! `Location` or `Style`.
//!
//! Loss and gradients are computed analytically with the forward–backward
//! algorithm in log space and exposed to the autodiff graph through a
//! [`CustomOp`].

// The forward-backward and Viterbi recurrences read far more clearly as
// index loops over the label lattice than as iterator chains.
#![allow(clippy::needless_range_loop)]

use rand::Rng;

use crate::graph::{CustomOp, Graph, NodeId};
use crate::param::{Param, ParamSet};
use crate::tensor::{log_sum_exp, Tensor};

/// A linear-chain CRF over `labels` output classes.
///
/// The transition matrix has two extra rows/columns for the virtual START
/// and END states: `trans[from][to]` with `START = labels`,
/// `END = labels + 1`.
pub struct Crf {
    /// Trans.
    pub trans: Param,
    labels: usize,
}

impl Crf {
    /// Create a new instance.
    pub fn new<R: Rng>(ps: &mut ParamSet, name: &str, labels: usize, rng: &mut R) -> Self {
        let trans = ps.add(
            format!("{name}.trans"),
            Tensor::uniform(labels + 2, labels + 2, 0.1, rng),
        );
        Crf { trans, labels }
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.labels
    }

    /// Negative log-likelihood of the gold label sequence given emission
    /// scores `(T, labels)`. Returns a scalar loss node.
    pub fn nll(&self, g: &mut Graph, emissions: NodeId, gold: &[usize]) -> NodeId {
        let allowed: Vec<Vec<usize>> = gold.iter().map(|&y| vec![y]).collect();
        self.fuzzy_nll(g, emissions, &allowed)
    }

    /// Fuzzy-CRF negative log-likelihood (paper eq. 8): the numerator sums
    /// over *all* paths whose label at position `t` is in `allowed[t]`.
    ///
    /// # Panics
    /// Panics if a position has an empty allowed set or an out-of-range
    /// label.
    pub fn fuzzy_nll(&self, g: &mut Graph, emissions: NodeId, allowed: &[Vec<usize>]) -> NodeId {
        let emit = g.value(emissions);
        let t_len = emit.rows();
        assert_eq!(
            t_len,
            allowed.len(),
            "allowed sets must match sequence length"
        );
        assert_eq!(emit.cols(), self.labels, "emission width != label count");
        for (t, set) in allowed.iter().enumerate() {
            assert!(!set.is_empty(), "empty allowed set at position {t}");
            assert!(
                set.iter().all(|&y| y < self.labels),
                "label out of range at {t}"
            );
        }
        let trans_node = g.param(&self.trans);
        let emit_v = g.value(emissions).clone();
        let trans_v = g.value(trans_node).clone();
        let (_, _, log_z_full) = marginals(&emit_v, &trans_v, self.labels, None);
        let (_, _, log_z_allowed) = marginals(&emit_v, &trans_v, self.labels, Some(allowed));
        let loss = log_z_full - log_z_allowed;
        let op = CrfNllOp {
            allowed: allowed.to_vec(),
            labels: self.labels,
        };
        g.custom(&[emissions, trans_node], Tensor::scalar(loss), Box::new(op))
    }

    /// Viterbi decode: the highest-scoring label sequence for the given
    /// emission scores, using the current transition values.
    pub fn decode(&self, emissions: &Tensor) -> Vec<usize> {
        viterbi(emissions, &self.trans.value(), self.labels)
    }

    /// Log-partition (total path score) for the emissions; exposed for
    /// confidence estimation.
    pub fn log_partition(&self, emissions: &Tensor) -> f32 {
        let (_, _, z) = marginals(emissions, &self.trans.value(), self.labels, None);
        z
    }

    /// Path score of a specific sequence: emissions + transitions including
    /// START/END.
    pub fn path_score(&self, emissions: &Tensor, path: &[usize]) -> f32 {
        let trans = self.trans.value();
        let start = self.labels;
        let end = self.labels + 1;
        let mut s = 0.0;
        let mut prev = start;
        for (t, &y) in path.iter().enumerate() {
            s += trans.get(prev, y) + emissions.get(t, y);
            prev = y;
        }
        s + trans.get(prev, end)
    }
}

struct CrfNllOp {
    allowed: Vec<Vec<usize>>,
    labels: usize,
}

impl CustomOp for CrfNllOp {
    fn grads(&self, out_grad: &Tensor, parent_values: &[&Tensor]) -> Vec<Tensor> {
        let emit = parent_values[0];
        let trans = parent_values[1];
        let scale = out_grad.item();
        let (de_full, dt_full, _) = marginals(emit, trans, self.labels, None);
        let (de_allow, dt_allow, _) = marginals(emit, trans, self.labels, Some(&self.allowed));
        // d(logZ_full - logZ_allowed) = marginals_full - marginals_allowed.
        let mut de = de_full.sub(&de_allow);
        let mut dt = dt_full.sub(&dt_allow);
        for v in de.data_mut() {
            *v *= scale;
        }
        for v in dt.data_mut() {
            *v *= scale;
        }
        vec![de, dt]
    }

    fn name(&self) -> &'static str {
        "crf_nll"
    }
}

#[inline]
fn is_allowed(allowed: Option<&[Vec<usize>]>, t: usize, y: usize) -> bool {
    match allowed {
        None => true,
        Some(sets) => sets[t].contains(&y),
    }
}

/// Forward–backward in log space. Returns `(d logZ / d emissions,
/// d logZ / d transitions, logZ)` for the (optionally constrained) lattice.
fn marginals(
    emit: &Tensor,
    trans: &Tensor,
    labels: usize,
    allowed: Option<&[Vec<usize>]>,
) -> (Tensor, Tensor, f32) {
    let t_len = emit.rows();
    assert!(t_len > 0, "CRF over empty sequence");
    let start = labels;
    let end = labels + 1;
    let ninf = f32::NEG_INFINITY;

    // alpha[t][y]
    let mut alpha = vec![vec![ninf; labels]; t_len];
    for y in 0..labels {
        if is_allowed(allowed, 0, y) {
            alpha[0][y] = emit.get(0, y) + trans.get(start, y);
        }
    }
    let mut scratch = vec![ninf; labels];
    for t in 1..t_len {
        for y in 0..labels {
            if !is_allowed(allowed, t, y) {
                continue;
            }
            for (yp, s) in scratch.iter_mut().enumerate() {
                *s = alpha[t - 1][yp] + trans.get(yp, y);
            }
            alpha[t][y] = emit.get(t, y) + log_sum_exp(&scratch);
        }
    }
    let finals: Vec<f32> = (0..labels)
        .map(|y| alpha[t_len - 1][y] + trans.get(y, end))
        .collect();
    let log_z = log_sum_exp(&finals);
    assert!(
        log_z.is_finite(),
        "CRF partition is not finite (no allowed path?)"
    );

    // beta[t][y]
    let mut beta = vec![vec![ninf; labels]; t_len];
    for y in 0..labels {
        if is_allowed(allowed, t_len - 1, y) {
            beta[t_len - 1][y] = trans.get(y, end);
        }
    }
    for t in (0..t_len - 1).rev() {
        for y in 0..labels {
            if !is_allowed(allowed, t, y) {
                continue;
            }
            for (yn, s) in scratch.iter_mut().enumerate() {
                *s = trans.get(y, yn) + emit.get(t + 1, yn) + beta[t + 1][yn];
            }
            beta[t][y] = log_sum_exp(&scratch);
        }
    }

    // Emission marginals P(y_t = y).
    let mut de = Tensor::zeros(t_len, labels);
    for t in 0..t_len {
        for y in 0..labels {
            let lp = alpha[t][y] + beta[t][y] - log_z;
            if lp.is_finite() {
                de.put(t, y, lp.exp());
            }
        }
    }

    // Transition marginals.
    let mut dt = Tensor::zeros(labels + 2, labels + 2);
    for y in 0..labels {
        // START -> y contributes P(y_0 = y); y -> END contributes
        // P(y_{T-1} = y).
        let v0 = de.get(0, y);
        dt.put(start, y, v0);
        let vl = de.get(t_len - 1, y);
        dt.put(y, end, vl);
    }
    for t in 0..t_len - 1 {
        for y in 0..labels {
            if alpha[t][y] == ninf {
                continue;
            }
            for yn in 0..labels {
                let lp =
                    alpha[t][y] + trans.get(y, yn) + emit.get(t + 1, yn) + beta[t + 1][yn] - log_z;
                if lp.is_finite() {
                    let v = dt.get(y, yn) + lp.exp();
                    dt.put(y, yn, v);
                }
            }
        }
    }
    (de, dt, log_z)
}

/// Viterbi decoding over the full lattice.
fn viterbi(emit: &Tensor, trans: &Tensor, labels: usize) -> Vec<usize> {
    let t_len = emit.rows();
    assert!(t_len > 0, "viterbi over empty sequence");
    let start = labels;
    let end = labels + 1;
    let ninf = f32::NEG_INFINITY;
    let mut score = vec![vec![ninf; labels]; t_len];
    let mut back = vec![vec![0usize; labels]; t_len];
    for y in 0..labels {
        score[0][y] = emit.get(0, y) + trans.get(start, y);
    }
    for t in 1..t_len {
        for y in 0..labels {
            let mut best = ninf;
            let mut arg = 0;
            for yp in 0..labels {
                let s = score[t - 1][yp] + trans.get(yp, y);
                if s > best {
                    best = s;
                    arg = yp;
                }
            }
            score[t][y] = best + emit.get(t, y);
            back[t][y] = arg;
        }
    }
    let mut best = ninf;
    let mut last = 0;
    for y in 0..labels {
        let s = score[t_len - 1][y] + trans.get(y, end);
        if s > best {
            best = s;
            last = y;
        }
    }
    let mut path = vec![0usize; t_len];
    path[t_len - 1] = last;
    for t in (1..t_len).rev() {
        path[t - 1] = back[t][path[t]];
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Adam, Optimizer};
    use rand::SeedableRng;

    fn tiny_crf(seed: u64, labels: usize) -> (ParamSet, Crf) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let crf = Crf::new(&mut ps, "crf", labels, &mut rng);
        (ps, crf)
    }

    /// Brute-force log partition by path enumeration.
    fn brute_log_z(crf: &Crf, emit: &Tensor, allowed: Option<&[Vec<usize>]>) -> f32 {
        let t_len = emit.rows();
        let labels = crf.num_labels();
        let mut scores = Vec::new();
        let mut path = vec![0usize; t_len];
        fn rec(
            crf: &Crf,
            emit: &Tensor,
            labels: usize,
            allowed: Option<&[Vec<usize>]>,
            t: usize,
            path: &mut Vec<usize>,
            scores: &mut Vec<f32>,
        ) {
            if t == path.len() {
                scores.push(crf.path_score(emit, path));
                return;
            }
            for y in 0..labels {
                if is_allowed(allowed, t, y) {
                    path[t] = y;
                    rec(crf, emit, labels, allowed, t + 1, path, scores);
                }
            }
        }
        rec(crf, emit, labels, allowed, 0, &mut path, &mut scores);
        log_sum_exp(&scores)
    }

    #[test]
    fn partition_matches_brute_force() {
        let (_, crf) = tiny_crf(1, 3);
        let emit = Tensor::from_vec(4, 3, (0..12).map(|i| (i as f32 * 0.37).sin()).collect());
        let fast = crf.log_partition(&emit);
        let brute = brute_log_z(&crf, &emit, None);
        assert!((fast - brute).abs() < 1e-3, "fast {fast} vs brute {brute}");
    }

    #[test]
    fn constrained_partition_matches_brute_force() {
        let (_, crf) = tiny_crf(2, 3);
        let emit = Tensor::from_vec(3, 3, (0..9).map(|i| (i as f32 * 0.73).cos()).collect());
        let allowed = vec![vec![0, 1], vec![2], vec![0, 2]];
        let (_, _, fast) = marginals(&emit, &crf.trans.value(), 3, Some(&allowed));
        let brute = brute_log_z(&crf, &emit, Some(&allowed));
        assert!((fast - brute).abs() < 1e-3, "fast {fast} vs brute {brute}");
    }

    #[test]
    fn nll_equals_logz_minus_gold_score() {
        let (_, crf) = tiny_crf(3, 2);
        let emit = Tensor::from_vec(3, 2, vec![0.5, -0.3, 0.2, 0.9, -0.4, 0.1]);
        let gold = vec![0, 1, 1];
        let mut g = Graph::new();
        let e = g.input(emit.clone());
        let loss = crf.nll(&mut g, e, &gold);
        let expected = crf.log_partition(&emit) - crf.path_score(&emit, &gold);
        assert!((g.value(loss).item() - expected).abs() < 1e-4);
        assert!(g.value(loss).item() >= -1e-5, "NLL must be non-negative");
    }

    #[test]
    fn fuzzy_nll_never_exceeds_strict_nll() {
        // Allowing extra labels can only increase the numerator mass.
        let (_, crf) = tiny_crf(4, 3);
        let emit = Tensor::from_vec(3, 3, (0..9).map(|i| (i as f32 * 0.21).sin()).collect());
        let gold = vec![1, 0, 2];
        let mut g = Graph::new();
        let e = g.input(emit.clone());
        let strict = crf.nll(&mut g, e, &gold);
        let fuzzy_sets = vec![vec![1, 2], vec![0], vec![2, 0]];
        let e2 = g.input(emit.clone());
        let fuzzy = crf.fuzzy_nll(&mut g, e2, &fuzzy_sets);
        assert!(g.value(fuzzy).item() <= g.value(strict).item() + 1e-5);
    }

    #[test]
    fn crf_gradient_finite_difference() {
        let (_, crf) = tiny_crf(5, 2);
        let emit = Tensor::from_vec(3, 2, vec![0.4, -0.1, 0.3, 0.2, -0.5, 0.6]);
        let gold = vec![0, 1, 0];

        let mut g = Graph::new();
        let e = g.input(emit.clone());
        let loss = crf.nll(&mut g, e, &gold);
        g.backward(loss);
        let de = g.grad(e).clone();
        let dt = crf.trans.grad().clone();

        let eps = 1e-2f32;
        // Emissions.
        for k in 0..emit.len() {
            let mut ep = emit.clone();
            ep.data_mut()[k] += eps;
            let mut em = emit.clone();
            em.data_mut()[k] -= eps;
            let lp = {
                let mut g = Graph::new();
                let e = g.input(ep);
                let l = crf.nll(&mut g, e, &gold);
                g.value(l).item()
            };
            let lm = {
                let mut g = Graph::new();
                let e = g.input(em);
                let l = crf.nll(&mut g, e, &gold);
                g.value(l).item()
            };
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (de.data()[k] - num).abs() < 2e-2,
                "emission grad {k}: analytic {} vs numeric {num}",
                de.data()[k]
            );
        }
        // Transitions (spot-check a few entries).
        for &k in &[0usize, 3, 5, 9] {
            let orig = crf.trans.value().data()[k];
            crf.trans.value_mut().data_mut()[k] = orig + eps;
            let lp = {
                let mut g = Graph::new();
                let e = g.input(emit.clone());
                let l = crf.nll(&mut g, e, &gold);
                g.value(l).item()
            };
            crf.trans.value_mut().data_mut()[k] = orig - eps;
            let lm = {
                let mut g = Graph::new();
                let e = g.input(emit.clone());
                let l = crf.nll(&mut g, e, &gold);
                g.value(l).item()
            };
            crf.trans.value_mut().data_mut()[k] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (dt.data()[k] - num).abs() < 2e-2,
                "trans grad {k}: analytic {} vs numeric {num}",
                dt.data()[k]
            );
        }
    }

    #[test]
    fn decode_finds_highest_scoring_path() {
        let (_, crf) = tiny_crf(6, 3);
        let emit = Tensor::from_vec(3, 3, (0..9).map(|i| (i as f32 * 1.3).sin()).collect());
        let decoded = crf.decode(&emit);
        let decoded_score = crf.path_score(&emit, &decoded);
        // Compare against every path.
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    let s = crf.path_score(&emit, &[a, b, c]);
                    assert!(
                        s <= decoded_score + 1e-5,
                        "path {:?} beats viterbi",
                        [a, b, c]
                    );
                }
            }
        }
    }

    #[test]
    fn crf_learns_alternating_transitions() {
        // Emissions are uninformative; only transitions can explain the gold
        // alternating sequences, so training must push the transition matrix
        // toward alternation.
        let (ps, crf) = tiny_crf(8, 2);
        let mut opt = Adam::new(0.1);
        let emit = Tensor::zeros(4, 2);
        for _ in 0..60 {
            let mut g = Graph::new();
            let e = g.input(emit.clone());
            let l1 = crf.nll(&mut g, e, &[0, 1, 0, 1]);
            let e2 = g.input(emit.clone());
            let l2 = crf.nll(&mut g, e2, &[1, 0, 1, 0]);
            let total = g.add(l1, l2);
            g.backward(total);
            opt.step(&ps);
        }
        let decoded = crf.decode(&emit);
        for w in decoded.windows(2) {
            assert_ne!(w[0], w[1], "decoded path {decoded:?} does not alternate");
        }
    }

    #[test]
    #[should_panic(expected = "empty allowed set")]
    fn empty_allowed_set_rejected() {
        let (_, crf) = tiny_crf(9, 2);
        let mut g = Graph::new();
        let e = g.input(Tensor::zeros(2, 2));
        crf.fuzzy_nll(&mut g, e, &[vec![0], vec![]]);
    }
}
