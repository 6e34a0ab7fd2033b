//! Okapi BM25 retrieval index — the non-neural baseline of Table 6.

use std::sync::Arc;

use alicoco_obs::{Counter, Registry};

use crate::vocab::TokenId;

/// Pre-registered handles for BM25 retrieval counters. Looked up once at
/// registration; the query path only touches atomics.
#[derive(Clone, Debug)]
pub struct Bm25Metrics {
    /// Queries answered (`bm25.queries`).
    pub queries: Arc<Counter>,
    /// Posting entries scanned across all query terms
    /// (`bm25.postings_scanned`).
    pub postings_scanned: Arc<Counter>,
    /// Candidate documents produced (`bm25.candidates`).
    pub candidates: Arc<Counter>,
}

impl Bm25Metrics {
    /// Register the `bm25.*` metrics in `reg` and return the handles.
    pub fn register(reg: &Registry) -> Self {
        Bm25Metrics {
            queries: reg.counter("bm25.queries"),
            postings_scanned: reg.counter("bm25.postings_scanned"),
            candidates: reg.counter("bm25.candidates"),
        }
    }
}

/// BM25 hyperparameters (standard defaults).
#[derive(Clone, Copy, Debug)]
pub struct Bm25Params {
    /// K1.
    pub k1: f64,
    /// B.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// An inverted index over id-encoded documents, in one arena: the
/// postings of term `t` are `postings[offsets[t]..offsets[t + 1]]`,
/// `(doc, term frequency)` pairs ascending by doc. Term ids index the
/// offsets table directly, so they are expected to be dense (a
/// vocabulary's ids); a query term past the table has no postings.
pub struct Bm25Index {
    params: Bm25Params,
    offsets: Vec<u32>,
    postings: Vec<(u32, u32)>,
    doc_len: Vec<u32>,
    avg_len: f64,
    metrics: Option<Bm25Metrics>,
}

/// Narrow a doc id, length or arena position to the `u32` the index
/// stores it in.
fn to_u32(n: usize) -> u32 {
    assert!(n <= u32::MAX as usize, "BM25 index exceeds u32 range");
    n as u32
}

/// The distinct terms of `doc` with their frequencies, into `out`, in
/// ascending term order (sorting `doc` in place).
fn term_counts(doc: &mut [TokenId], out: &mut Vec<(TokenId, u32)>) {
    doc.sort_unstable();
    out.clear();
    for &t in doc.iter() {
        match out.last_mut() {
            Some((last, n)) if *last == t => *n += 1,
            _ => out.push((t, 1)),
        }
    }
}

impl Bm25Index {
    /// Build from documents (each a token-id sequence).
    pub fn build(docs: &[Vec<TokenId>], params: Bm25Params) -> Self {
        Self::build_from(
            docs.len(),
            |d, out| out.extend_from_slice(docs.get(d).map_or(&[][..], Vec::as_slice)),
            params,
        )
    }

    /// Build from `n_docs` documents that `doc(d, out)` appends to `out`
    /// one at a time, so no caller has to hold every document at once.
    /// One pass counts each term's documents, a second fills the arena
    /// sized by the counts; `doc` must append the same tokens both times.
    pub fn build_from(
        n_docs: usize,
        doc: impl Fn(usize, &mut Vec<TokenId>),
        params: Bm25Params,
    ) -> Self {
        let (mut tokens, mut counts) = (Vec::new(), Vec::new());
        let mut doc_len = Vec::with_capacity(n_docs);
        // `offsets[t + 1]` counts term `t`'s documents for now.
        let mut offsets: Vec<u32> = vec![0];
        for d in 0..n_docs {
            tokens.clear();
            doc(d, &mut tokens);
            doc_len.push(to_u32(tokens.len()));
            term_counts(&mut tokens, &mut counts);
            if let Some(&(last, _)) = counts.last() {
                if offsets.len() < last + 2 {
                    offsets.resize(last + 2, 0);
                }
            }
            for &(t, _) in &counts {
                if let Some(n) = offsets.get_mut(t + 1) {
                    *n += 1;
                }
            }
        }
        let mut end = 0u32;
        for n in offsets.iter_mut() {
            end += *n;
            *n = end;
        }
        // Fill term by term at a cursor that starts at each list's offset.
        let mut next = offsets.clone();
        let mut postings = vec![(0, 0); end as usize];
        for d in 0..n_docs {
            tokens.clear();
            doc(d, &mut tokens);
            term_counts(&mut tokens, &mut counts);
            for &(t, tf) in &counts {
                if let Some(at) = next.get_mut(t) {
                    if let Some(slot) = postings.get_mut(*at as usize) {
                        *slot = (to_u32(d), tf);
                    }
                    *at += 1;
                }
            }
        }
        let total: u64 = doc_len.iter().map(|&n| u64::from(n)).sum();
        let avg_len = if n_docs == 0 {
            0.0
        } else {
            total as f64 / n_docs as f64
        };
        Bm25Index {
            params,
            offsets,
            postings,
            doc_len,
            avg_len,
            metrics: None,
        }
    }

    /// Attach retrieval counters; queries from here on record into them.
    /// The uninstrumented path pays one branch per query.
    pub fn set_metrics(&mut self, metrics: Bm25Metrics) {
        self.metrics = Some(metrics);
    }

    /// Number of docs.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// The postings of `term`, ascending by doc; empty for a term no
    /// document holds.
    fn postings(&self, term: TokenId) -> &[(u32, u32)] {
        match (
            self.offsets.get(term),
            term.checked_add(1).and_then(|t| self.offsets.get(t)),
        ) {
            (Some(&start), Some(&end)) => self
                .postings
                .get(start as usize..end as usize)
                .unwrap_or(&[]),
            _ => &[],
        }
    }

    fn idf(&self, term: TokenId) -> f64 {
        let df = self.postings(term).len() as f64;
        // BM25+-style floor keeps idf non-negative.
        (((self.num_docs() as f64 - df + 0.5) / (df + 0.5)) + 1.0).ln()
    }

    /// The length normalisation of a document `len` tokens long.
    fn len_norm(&self, len: u32) -> f64 {
        1.0 - self.params.b + self.params.b * f64::from(len) / self.avg_len.max(1e-9)
    }

    /// The BM25 contribution of a term with inverse document frequency
    /// `idf` occurring `tf` times in a document of normalised length
    /// `norm`.
    fn term_score(&self, idf: f64, tf: u32, norm: f64) -> f64 {
        let tf = f64::from(tf);
        idf * tf * (self.params.k1 + 1.0) / (tf + self.params.k1 * norm)
    }

    /// BM25 score of a single document for a query.
    ///
    /// # Panics
    /// Panics if `doc` is not a document of the index.
    pub fn score(&self, query: &[TokenId], doc: usize) -> f64 {
        assert!(doc < self.num_docs(), "doc id out of range");
        let norm = self.len_norm(self.doc_len.get(doc).copied().unwrap_or(0));
        let mut s = 0.0;
        for &term in query {
            let plist = self.postings(term);
            let Ok(pos) = plist.binary_search_by_key(&doc, |&(d, _)| d as usize) else {
                continue;
            };
            if let Some(&(_, tf)) = plist.get(pos) {
                s += self.term_score(self.idf(term), tf, norm);
            }
        }
        s
    }

    /// Accumulated BM25 scores of every candidate document for a query —
    /// exactly the documents sharing at least one query term — ascending
    /// by doc. Each document's score sums its terms in query order, as
    /// [`score`](Self::score) does.
    pub fn candidate_scores(&self, query: &[TokenId]) -> Vec<(usize, f64)> {
        let mut hits: Vec<(u32, f64)> = Vec::new();
        for &term in query {
            let idf = self.idf(term);
            for &(doc, tf) in self.postings(term) {
                let len = self.doc_len.get(doc as usize).copied().unwrap_or(0);
                hits.push((doc, self.term_score(idf, tf, self.len_norm(len))));
            }
        }
        let scanned = hits.len() as u64;
        // Stable: a document's contributions stay in query order.
        hits.sort_by_key(|&(doc, _)| doc);
        let mut acc: Vec<(usize, f64)> = Vec::new();
        for (doc, score) in hits {
            match acc.last_mut() {
                Some((last, sum)) if *last == doc as usize => *sum += score,
                _ => acc.push((doc as usize, score)),
            }
        }
        if let Some(m) = &self.metrics {
            m.queries.inc();
            m.postings_scanned.add(scanned);
            m.candidates.add(acc.len() as u64);
        }
        acc
    }

    /// Top-`k` documents for a query, as `(doc, score)` sorted descending
    /// (ties broken by ascending doc id).
    pub fn search(&self, query: &[TokenId], k: usize) -> Vec<(usize, f64)> {
        let mut hits = self.candidate_scores(query);
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Vec<TokenId>> {
        vec![
            vec![1, 2, 3],      // "outdoor barbecue grill"
            vec![4, 5, 6, 6],   // "red summer dress dress"
            vec![1, 7],         // "outdoor tent"
            vec![8, 9, 10, 11], // unrelated
        ]
    }

    #[test]
    fn exact_match_ranks_first() {
        let idx = Bm25Index::build(&docs(), Bm25Params::default());
        let hits = idx.search(&[1, 2], 4);
        assert_eq!(hits[0].0, 0, "doc 0 contains both query terms");
        assert!(hits[0].1 > hits[1].1);
    }

    #[test]
    fn rare_terms_weigh_more() {
        let idx = Bm25Index::build(&docs(), Bm25Params::default());
        // Term 2 appears in 1 doc; term 1 in 2 docs. idf(2) > idf(1).
        assert!(idx.idf(2) > idx.idf(1));
    }

    #[test]
    fn score_and_search_agree() {
        let idx = Bm25Index::build(&docs(), Bm25Params::default());
        let q = vec![1, 2, 3];
        let hits = idx.search(&q, 4);
        for &(d, s) in &hits {
            assert!((idx.score(&q, d) - s).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_terms_score_zero() {
        let idx = Bm25Index::build(&docs(), Bm25Params::default());
        assert_eq!(idx.score(&[999], 0), 0.0);
        assert!(idx.search(&[999], 3).is_empty());
    }

    #[test]
    fn metrics_count_query_work() {
        let reg = Registry::new();
        let mut idx = Bm25Index::build(&docs(), Bm25Params::default());
        idx.set_metrics(Bm25Metrics::register(&reg));
        let hits = idx.search(&[1, 2], 4);
        assert!(!hits.is_empty());
        assert_eq!(reg.counter("bm25.queries").get(), 1);
        // Term 1 posts in docs {0, 2}, term 2 in doc {0}: 3 postings, 2
        // distinct candidate docs.
        assert_eq!(reg.counter("bm25.postings_scanned").get(), 3);
        assert_eq!(reg.counter("bm25.candidates").get(), 2);
    }

    #[test]
    fn empty_index_is_safe() {
        let idx = Bm25Index::build(&[], Bm25Params::default());
        assert_eq!(idx.num_docs(), 0);
        assert!(idx.search(&[1], 3).is_empty());
    }
}
