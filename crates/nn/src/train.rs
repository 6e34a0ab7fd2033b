//! The shared training loop for the five construction models.
//!
//! Every model in `alicoco-mining` (§7 of the paper: vocabulary mining,
//! hypernym discovery, concept classification, concept tagging, semantic
//! matching) trains the same way: shuffle the examples each epoch, run
//! forward/backward per example, clip the global gradient norm, and take an
//! optimizer step. [`Trainer`] owns that loop once, adding two things the
//! hand-rolled loops lacked:
//!
//! - **Mini-batches on one thread.** The examples of a batch are
//!   backpropagated in order on one reused [`Graph`] tape (`reset()`
//!   between examples — no per-example allocation), their gradients summing
//!   straight into the parameters' gradient storage, before a single clip
//!   and optimizer step. Summation order is example order, so a seeded run
//!   is byte-reproducible.
//! - **Generalized early stopping.** [`StopCriterion::BestSnapshot`] lifts
//!   `congen`'s validation-driven best-parameter snapshot/restore so any
//!   model can use it, with optional patience.
//!
//! With `batch_size = 1` (the default, and what the pipeline runs) the
//! engine is arithmetically identical to the per-example loops it replaced:
//! the same RNG draws, the same per-example optimizer steps, the same loss
//! telemetry.

use rand::seq::SliceRandom;
use rand::Rng;

use alicoco_obs::{Registry, Stopwatch};

use crate::graph::{Graph, NodeId};
use crate::param::{Optimizer, ParamSet};
use crate::tensor::Tensor;

/// Shared hyper-parameters of the training loop. Each model config embeds
/// one of these (replacing the per-module `{epochs, lr}` pairs).
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Learning rate handed to the optimizer the model constructs.
    pub lr: f32,
    /// Global gradient-norm clip applied before every optimizer step.
    pub clip_norm: Option<f32>,
    /// Examples per optimizer step. `1` reproduces per-example stepping.
    pub batch_size: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            lr: 0.01,
            clip_norm: Some(5.0),
            batch_size: 1,
        }
    }
}

impl TrainConfig {
    /// Create a new instance with default clipping and batch size.
    pub fn new(epochs: usize, lr: f32) -> Self {
        TrainConfig {
            epochs,
            lr,
            ..TrainConfig::default()
        }
    }

    /// Builder-style epoch override.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }
}

/// When the epoch loop ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCriterion {
    /// Run exactly [`TrainConfig::epochs`] epochs.
    FixedEpochs,
    /// Evaluate the metric closure after every epoch, snapshot the
    /// parameters whenever it strictly improves, and restore the best
    /// snapshot when training ends. With `patience: Some(p)`, stop after
    /// `p` consecutive epochs without improvement; `None` always runs the
    /// full epoch budget (as `congen::train_with_validation` did).
    BestSnapshot {
        /// Consecutive non-improving epochs tolerated before stopping.
        patience: Option<usize>,
    },
}

/// One epoch of a raw training loop run by [`Trainer::run_raw`]: the epoch
/// index, the total epoch budget, and the scheduled learning rate.
#[derive(Clone, Copy, Debug)]
pub struct RawEpoch {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Total epoch budget ([`TrainConfig::epochs`]).
    pub epochs: usize,
    /// Linearly decayed learning rate for this epoch:
    /// `lr * max(1 - epoch / epochs, floor)`.
    pub lr: f32,
}

/// Per-epoch telemetry returned by [`Trainer::train`].
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Examples that produced a loss (skipped examples excluded).
    pub examples: usize,
    /// Total loss divided by the dataset size (matching the historical
    /// per-module telemetry, which averaged over all examples). Losses are
    /// accumulated in `f64` so the mean does not drift on large corpora.
    pub mean_loss: f32,
    /// Validation metric `(key, secondary)` under
    /// [`StopCriterion::BestSnapshot`]; `None` for fixed-epoch runs.
    pub metric: Option<(f64, f64)>,
    /// Wall-clock nanoseconds the epoch took (forward/backward and optimizer
    /// steps; excludes the validation-metric closure).
    pub elapsed_ns: u64,
    /// Wall-clock nanoseconds of forward/backward passes (gradients
    /// included), summed over batches.
    pub forward_ns: u64,
    /// Wall-clock nanoseconds of gradient clipping plus optimizer steps,
    /// summed over batches.
    pub step_ns: u64,
}

/// Bridge per-epoch telemetry into a metrics [`Registry`] under the
/// `train.<model>.*` namespace: epoch and example counters, an epoch
/// wall-clock histogram, per-stage histograms proving where the time went
/// (`forward_ns` / `step_ns`, one sample per epoch), and a
/// gauge holding the final mean loss. The pipeline calls this once per
/// model after training; benches and the CLI export it alongside the
/// serving metrics.
pub fn record_epoch_stats(reg: &Registry, model: &str, stats: &[EpochStats]) {
    if stats.is_empty() {
        return;
    }
    let epochs = reg.counter(format!("train.{model}.epochs").as_str());
    let examples = reg.counter(format!("train.{model}.examples").as_str());
    let epoch_ns = reg.histogram(format!("train.{model}.epoch_ns").as_str());
    let forward_ns = reg.histogram(format!("train.{model}.forward_ns").as_str());
    let step_ns = reg.histogram(format!("train.{model}.step_ns").as_str());
    for s in stats {
        epochs.inc();
        examples.add(s.examples as u64);
        epoch_ns.record(s.elapsed_ns);
        forward_ns.record(s.forward_ns);
        step_ns.record(s.step_ns);
    }
    if let Some(last) = stats.last() {
        reg.gauge(format!("train.{model}.mean_loss").as_str())
            .set(f64::from(last.mean_loss));
    }
}

/// The shared training loop. Borrows the model's [`ParamSet`]; the forward
/// pass is a closure so each model keeps its own architecture code.
pub struct Trainer<'a> {
    params: &'a ParamSet,
    cfg: TrainConfig,
}

impl<'a> Trainer<'a> {
    /// Create a new instance.
    pub fn new(params: &'a ParamSet, cfg: TrainConfig) -> Self {
        Trainer { params, cfg }
    }

    /// Run a raw (non-autodiff) training loop: the counterpart of
    /// [`Trainer::train`] for hot-loop models that own their parameter
    /// arrays directly (the SGNS-style embedding trainers in
    /// `alicoco-text`). The engine owns the epoch iteration and the linear
    /// learning-rate decay schedule — no module needs a private epoch loop —
    /// while `epoch_body` performs the model's own updates for one full
    /// pass over its data at the scheduled rate.
    ///
    /// The schedule is `cfg.lr * max(1 - epoch / epochs, lr_floor)`; a
    /// floor of `1.0` yields a constant `cfg.lr` for every epoch (used by
    /// inference-time optimization and loops with their own finer-grained
    /// schedule). The RNG is threaded through untouched, so a migrated loop
    /// draws exactly the sequence its hand-rolled predecessor drew.
    pub fn run_raw<R, F>(cfg: &TrainConfig, lr_floor: f32, rng: &mut R, mut epoch_body: F)
    where
        R: Rng + ?Sized,
        F: FnMut(RawEpoch, &mut R),
    {
        for epoch in 0..cfg.epochs {
            let lr = cfg.lr * (1.0 - epoch as f32 / cfg.epochs as f32).max(lr_floor);
            epoch_body(
                RawEpoch {
                    epoch,
                    epochs: cfg.epochs,
                    lr,
                },
                rng,
            );
        }
    }

    /// Train for [`TrainConfig::epochs`] epochs. `forward` builds the loss
    /// for one example on a (reused) tape, returning `None` to skip it
    /// (e.g. empty token lists); skipped examples consume no optimizer
    /// step.
    pub fn train<E, F, R>(
        &self,
        opt: &mut dyn Optimizer,
        data: &[E],
        forward: F,
        rng: &mut R,
    ) -> Vec<EpochStats>
    where
        F: Fn(&mut Graph, &E) -> Option<NodeId>,
        R: Rng + ?Sized,
    {
        self.train_with(
            opt,
            data,
            forward,
            StopCriterion::FixedEpochs,
            || (0.0, 0.0),
            rng,
        )
    }

    /// Train with an explicit [`StopCriterion`]. Under
    /// [`StopCriterion::BestSnapshot`] the `metric` closure is called after
    /// each epoch and must return `(key, secondary)` ordered so that larger
    /// tuples are better; the parameters of the best epoch are restored
    /// before returning.
    pub fn train_with<E, F, M, R>(
        &self,
        opt: &mut dyn Optimizer,
        data: &[E],
        forward: F,
        stop: StopCriterion,
        mut metric: M,
        rng: &mut R,
    ) -> Vec<EpochStats>
    where
        F: Fn(&mut Graph, &E) -> Option<NodeId>,
        M: FnMut() -> (f64, f64),
        R: Rng + ?Sized,
    {
        let batch_size = self.cfg.batch_size.max(1);
        let mut graph = Graph::new();
        // The order vector persists across epochs and is shuffled in place,
        // exactly as the per-module loops did, so seeded runs reproduce the
        // historical permutation sequence.
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut stats = Vec::new();
        let mut best: Option<((f64, f64), Vec<Tensor>)> = None;
        let mut stale = 0usize;

        for epoch in 0..self.cfg.epochs {
            let epoch_watch = Stopwatch::start();
            order.shuffle(rng);
            // f64 accumulation: per-example f32 losses summed over a large
            // corpus would otherwise lose low-order bits batch by batch.
            let mut total = 0.0f64;
            let mut trained = 0usize;
            let (mut forward_ns, mut step_ns) = (0u64, 0u64);
            for batch in order.chunks(batch_size) {
                let mut phase_watch = Stopwatch::start();
                let mut any = false;
                for &ix in batch {
                    graph.reset();
                    if let Some(loss) = forward(&mut graph, &data[ix]) {
                        graph.backward(loss);
                        total += f64::from(graph.value(loss).item());
                        trained += 1;
                        any = true;
                    }
                }
                forward_ns += phase_watch.lap_ns();
                if !any {
                    continue;
                }
                if let Some(c) = self.cfg.clip_norm {
                    self.params.clip_grad_norm(c);
                }
                opt.step(self.params);
                step_ns += phase_watch.lap_ns();
            }

            let mut epoch_stats = EpochStats {
                epoch,
                examples: trained,
                mean_loss: (total / data.len().max(1) as f64) as f32,
                metric: None,
                elapsed_ns: epoch_watch.elapsed_ns(),
                forward_ns,
                step_ns,
            };
            match stop {
                StopCriterion::FixedEpochs => stats.push(epoch_stats),
                StopCriterion::BestSnapshot { patience } => {
                    let key = metric();
                    epoch_stats.metric = Some(key);
                    stats.push(epoch_stats);
                    if best.as_ref().is_none_or(|(k, _)| key > *k) {
                        best = Some((key, self.params.snapshot()));
                        stale = 0;
                    } else {
                        stale += 1;
                        if patience.is_some_and(|p| stale >= p) {
                            break;
                        }
                    }
                }
            }
        }

        if let Some((_, weights)) = best {
            self.params.restore(&weights);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One linear weight trained on scalar regression; loss (w·x - y)^2.
    fn fit(cfg: TrainConfig, data: &[(f32, f32)], seed: u64) -> (Vec<EpochStats>, Vec<Tensor>) {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::zeros(1, 1));
        let mut opt = Sgd::new(cfg.lr);
        let mut rng = StdRng::seed_from_u64(seed);
        let trainer = Trainer::new(&ps, cfg);
        let stats = trainer.train(
            &mut opt,
            data,
            |g, &(x, y)| {
                let wn = g.param(&w);
                let xn = g.input(Tensor::scalar(x));
                let yn = g.input(Tensor::scalar(y));
                let pred = g.mul(wn, xn);
                let d = g.sub(pred, yn);
                let sq = g.mul(d, d);
                Some(g.sum_all(sq))
            },
            &mut rng,
        );
        (stats, ps.snapshot())
    }

    #[test]
    fn trainer_fits_a_line() {
        let data: Vec<(f32, f32)> = (0..16).map(|i| (i as f32 / 8.0, i as f32 / 4.0)).collect();
        let (stats, snap) = fit(TrainConfig::new(40, 0.05), &data, 7);
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
        assert!((snap[0].item() - 2.0).abs() < 0.05);
    }

    #[test]
    fn skipped_examples_take_no_step() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::scalar(1.0));
        let mut opt = Sgd::new(0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let trainer = Trainer::new(&ps, TrainConfig::new(1, 0.1));
        let stats = trainer.train(
            &mut opt,
            &[0.0f32, 1.0, 2.0],
            |g, &x| {
                if x == 0.0 {
                    return None;
                }
                let wn = g.param(&w);
                let xn = g.input(Tensor::scalar(x));
                let p = g.mul(wn, xn);
                Some(g.sum_all(p))
            },
            &mut rng,
        );
        assert_eq!(stats[0].examples, 2);
        assert!(w.value().item() < 1.0);
    }

    #[test]
    fn best_snapshot_restores_best_epoch() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(0.1);
        let mut rng = StdRng::seed_from_u64(3);
        let trainer = Trainer::new(&ps, TrainConfig::new(4, 0.1));
        // Metric degrades after the first epoch, so the restored parameters
        // must be the ones snapshotted after epoch 0.
        let mut first: Option<Tensor> = None;
        let mut calls = 0usize;
        let stats = trainer.train_with(
            &mut opt,
            &[1.0f32, 2.0],
            |g, &x| {
                let wn = g.param(&w);
                let xn = g.input(Tensor::scalar(x));
                let p = g.mul(wn, xn);
                Some(g.sum_all(p))
            },
            StopCriterion::BestSnapshot { patience: None },
            || {
                calls += 1;
                if calls == 1 {
                    first = Some(w.value().clone());
                    (1.0, 0.0)
                } else {
                    (0.0, 0.0)
                }
            },
            &mut rng,
        );
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[0].metric, Some((1.0, 0.0)));
        assert_eq!(w.value().data(), first.unwrap().data());
    }

    #[test]
    fn patience_stops_early() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::scalar(0.0));
        let mut opt = Sgd::new(0.1);
        let mut rng = StdRng::seed_from_u64(4);
        let trainer = Trainer::new(&ps, TrainConfig::new(10, 0.1));
        let stats = trainer.train_with(
            &mut opt,
            &[1.0f32],
            |g, &x| {
                let wn = g.param(&w);
                let xn = g.input(Tensor::scalar(x));
                let p = g.mul(wn, xn);
                Some(g.sum_all(p))
            },
            StopCriterion::BestSnapshot { patience: Some(2) },
            || (0.0, 0.0),
            &mut rng,
        );
        // Epoch 0 sets the best; epochs 1 and 2 are stale; stop.
        assert_eq!(stats.len(), 3);
    }

    #[test]
    fn stage_clocks_cover_the_epoch() {
        let data: Vec<(f32, f32)> = (0..16).map(|i| (i as f32 / 8.0, i as f32 / 4.0)).collect();
        let (stats, _) = fit(TrainConfig::new(2, 0.05).with_batch_size(4), &data, 5);
        for s in &stats {
            assert!(s.forward_ns > 0, "forward stage not timed");
            assert!(s.step_ns > 0, "step stage not timed");
            assert!(
                s.forward_ns + s.step_ns <= s.elapsed_ns,
                "stage clocks exceed the epoch wall clock"
            );
        }
    }
}
