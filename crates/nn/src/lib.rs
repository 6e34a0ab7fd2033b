#![warn(missing_docs)]
//! # alicoco-nn
//!
//! A minimal, dependency-light neural-network substrate built from scratch
//! for the AliCoCo reproduction. It provides:
//!
//! - dense 2-D [`tensor::Tensor`]s,
//! - define-by-run reverse-mode autodiff ([`graph::Graph`]),
//! - trainable parameters and optimizers ([`param`]),
//! - a shared, deterministic training loop ([`train`]),
//! - the layers the paper's five models are composed of: linear / embedding /
//!   MLP ([`layers`]), LSTM and BiLSTM ([`rnn`]), 1-D convolutions ([`conv`]),
//!   self- and pairwise attention ([`attention`]),
//! - linear-chain CRF and fuzzy CRF with analytic forward–backward gradients
//!   ([`crf`]),
//! - the evaluation metrics the paper reports ([`metrics`]),
//! - fast hashing and seeded RNG utilities ([`util`]).
//!
//! The paper trained its models in a conventional deep-learning stack on
//! Alibaba-scale data; this crate replaces that stack so the entire
//! construction pipeline is reproducible offline in pure Rust. Model sizes
//! are deliberately small (tens of thousands of weights); everything here is
//! exact reverse-mode differentiation, verified by finite-difference tests.

pub mod attention;
pub mod conv;
pub mod crf;
pub mod graph;
pub mod layers;
pub mod metrics;
pub mod param;
pub mod rank;
pub mod rnn;
pub mod tensor;
pub mod train;
pub mod util;

pub use graph::{Graph, NodeId};
pub use param::{Adam, Optimizer, Param, ParamSet, Sgd};
pub use tensor::Tensor;
pub use train::{record_epoch_stats, EpochStats, RawEpoch, StopCriterion, TrainConfig, Trainer};
