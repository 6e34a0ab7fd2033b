#![warn(missing_docs)]
//! # alicoco-text
//!
//! Text-processing substrate for the AliCoCo reproduction. The paper's
//! construction pipeline leans on a stack of pre-existing NLP tooling —
//! GloVe embeddings, Doc2vec, a BERT perplexity model, AutoPhrase, Hearst
//! patterns, POS/NER taggers and BM25. This crate implements each of those
//! from scratch:
//!
//! - [`vocab`] — string interning with counts,
//! - [`word2vec`] — SGNS embeddings (stand-in for pre-trained GloVe),
//! - [`doc2vec`] — PV-DBOW document vectors for gloss encoding (§5.2.2),
//! - [`lm`] — interpolated trigram LM whose perplexity replaces the BERT
//!   fluency feature (§5.2.2),
//! - [`phrase`] — quality-phrase mining replacing AutoPhrase (§5.2.1),
//! - [`hearst`] — pattern-based hypernym extraction (§4.2.1),
//! - [`tagger`] — lexicon POS/NER taggers feeding tag embeddings,
//! - [`bm25`] — the retrieval baseline of Table 6.

pub mod bm25;
pub mod doc2vec;
pub mod hearst;
pub mod lm;
pub mod phrase;
pub mod tagger;
pub mod vocab;
pub mod word2vec;

pub use vocab::{TokenId, Vocab, UNK};
