//! The one retrieval core under the four §8 engines: a [`Retriever`] owns
//! the net's single [`QueryIndex`] and its optional [`AnnBundle`], and
//! holds the one copy of the hybrid fusion — lexical candidates ∪ HNSW
//! proposals → dedup → exact `sim_to` rescoring → [`TopK`]. The approximate
//! index only proposes; scores come from the **exact stored vector**.
//!
//! It also holds the one lexical concept scorer, [`Retriever::rank_concepts`]:
//! search and QA are two [`LexicalWeights`] over the integer match counts
//! `QueryIndex::concept_matches` streams off the posting lists — no concept
//! name or primitive name is read while a request is scored.

use std::cell::Cell;
use std::sync::Arc;

use alicoco::query::{ConceptMatch, QueryIndex};
use alicoco::rank::TopK;
use alicoco::ConceptId;
use alicoco_ann::{AnnBundle, Hnsw};

/// `ef` beam width of every HNSW proposal search.
pub const ANN_EF: usize = 64;

/// An engine's fusion constants.
#[derive(Clone, Copy, Debug)]
pub struct Fusion {
    /// Weight of `max(0, cos)` between the embedded query and a candidate.
    pub vector_weight: f64,
    /// Neighbours proposed per query (raised to the caller's `k`, so a
    /// wide page never starves the union).
    pub ann_k: usize,
}

/// How an engine weighs a concept's integer match counts. The two engines
/// differ in weights and in where the vector bonus enters the sum, and each
/// keeps the operation order its string scorer had, so scores are
/// bit-identical to a scan over names.
#[derive(Clone, Copy, Debug)]
pub struct LexicalWeights {
    /// Surface hits count as a share of the concept's distinct surface
    /// words (search's coverage) rather than one each (QA).
    pub surface_coverage: bool,
    /// Weight of each primitive a query word names.
    pub primitive_weight: f64,
    /// Bonus of a concept that has items to show.
    pub stocked_bonus: f64,
    /// The stocked bonus needs a positive *lexical* score and is added
    /// before the vector bonus (search); otherwise it needs a positive
    /// *fused* score and is added after it (QA).
    pub stock_before_vectors: bool,
}

impl LexicalWeights {
    /// The fused score of a concept with `surface_len` distinct surface
    /// words, or `None` when it is not positive.
    fn score(
        &self,
        surface_hits: u32,
        primitive_hits: u32,
        surface_len: usize,
        stocked: bool,
        bonus: f64,
    ) -> Option<f64> {
        let mut score = f64::from(surface_hits);
        if self.surface_coverage {
            score /= surface_len.max(1) as f64;
        }
        score += self.primitive_weight * f64::from(primitive_hits);
        if self.stock_before_vectors {
            if score > 0.0 && stocked {
                score += self.stocked_bonus;
            }
            score += bonus;
        } else {
            score += bonus;
            if score > 0.0 && stocked {
                score += self.stocked_bonus;
            }
        }
        (score > 0.0).then_some(score)
    }
}

/// The bundle index a fusion proposes from and rescores against:
/// [`AnnBundle::concepts`] or [`AnnBundle::items`].
pub type Side = fn(&AnnBundle) -> &Hnsw;

/// What one fusion found.
pub struct Fused {
    /// The best `k` slots with their fused scores.
    pub top: TopK<u32, f64>,
    /// HNSW proposals, counting those the lexical candidates already held.
    pub proposed: usize,
    /// Distinct candidates scored.
    pub examined: usize,
}

/// The shared retrieval state of one concept net.
pub struct Retriever<'kg> {
    index: QueryIndex<'kg>,
    ann: Option<Arc<AnnBundle>>,
}

impl<'kg> Retriever<'kg> {
    /// Wrap a prebuilt index (`QueryIndex::build`, or a snapshot's postings
    /// through `QueryIndex::from_postings`) and the snapshot's bundle, if
    /// it carries one. The engines share the result.
    pub fn new(index: QueryIndex<'kg>, ann: Option<Arc<AnnBundle>>) -> Arc<Self> {
        Arc::new(Retriever { index, ann })
    }

    /// The postings every engine retrieves from (and, through
    /// [`QueryIndex::kg`], the net itself).
    pub fn index(&self) -> &QueryIndex<'kg> {
        &self.index
    }

    /// The attached bundle, if any.
    pub fn ann(&self) -> Option<&AnnBundle> {
        self.ann.as_deref()
    }

    /// Embed a query. `None` without a bundle or a known query token.
    pub fn embed(&self, query: &str) -> Option<Vec<f32>> {
        self.ann.as_ref()?.embed_query(query)
    }

    /// The vector half of a fused score, `weight · max(0, cos)` against
    /// the stored vector in `slot`; `0.0` when vectors take no part.
    pub fn bonus(&self, side: Side, slot: u32, qvec: Option<&[f32]>, weight: f64) -> f64 {
        match (&self.ann, qvec) {
            (Some(bundle), Some(q)) => weight * f64::from(side(bundle).sim_to(slot, q).max(0.0)),
            _ => 0.0,
        }
    }

    /// The fusion. `lexical` yields distinct `(slot, carried lexical
    /// score)` pairs in any order; the `max(fusion.ann_k, k)` nearest
    /// stored vectors of `qvec` on `side` join them. `score` sees every
    /// candidate once — its slot, its carried score (`None` for a pure
    /// proposal) and its vector bonus — and returns the fused score, or
    /// `None` to drop it.
    ///
    /// Dedup is against the proposals, a list no longer than a page: each
    /// lexical candidate is looked up in it, never the reverse. Without a
    /// bundle or an embedded query the list is empty.
    pub fn fuse<L>(
        &self,
        lexical: impl Iterator<Item = (u32, L)>,
        side: Side,
        qvec: Option<&[f32]>,
        fusion: Fusion,
        k: usize,
        score: impl Fn(u32, Option<L>, f64) -> Option<f64>,
    ) -> Fused {
        // Ascending slots, each with "a lexical candidate held it": what
        // is still unheld once the lexical pass is over is novel.
        let mut proposals: Vec<(u32, Cell<bool>)> = match (&self.ann, qvec) {
            (Some(bundle), Some(q)) => side(bundle)
                .knn(q, fusion.ann_k.max(k), ANN_EF)
                .into_iter()
                .map(|(slot, _)| (slot, Cell::new(false)))
                .collect(),
            _ => Vec::new(),
        };
        proposals.sort_unstable_by_key(|&(slot, _)| slot);
        let mut fused = Fused {
            top: TopK::new(k),
            proposed: proposals.len(),
            examined: 0,
        };
        let lexical = lexical.map(|(slot, carried)| {
            let at = proposals.binary_search_by_key(&slot, |&(proposed, _)| proposed);
            if let Some((_, held)) = at.ok().and_then(|i| proposals.get(i)) {
                held.set(true);
            }
            (slot, Some(carried))
        });
        let novel = proposals
            .iter()
            .filter(|(_, held)| !held.get())
            .map(|&(slot, _)| (slot, None));
        // One loop over both, so the scoring body is compiled once, inline.
        for (slot, carried) in lexical.chain(novel) {
            fused.examined += 1;
            let bonus = self.bonus(side, slot, qvec, fusion.vector_weight);
            if let Some(score) = score(slot, carried, bonus) {
                fused.top.push(slot, score);
            }
        }
        fused
    }

    /// The one lexical concept ranking, shared by search and QA: merge the
    /// posting lists of `words`, fuse the matches with the HNSW proposals
    /// for `qvec`, and score each candidate from its integer counts under
    /// `weights`. Returns the fusion and the posting entries walked.
    pub fn rank_concepts<'w>(
        &self,
        words: impl IntoIterator<Item = &'w str>,
        qvec: Option<&[f32]>,
        weights: &LexicalWeights,
        fusion: Fusion,
        k: usize,
    ) -> (Fused, usize) {
        let matches = self.index.concept_matches(words);
        let postings = matches.postings();
        let fused = self.fuse(
            matches.map(|m| (m.concept.index() as u32, m)),
            AnnBundle::concepts,
            qvec,
            fusion,
            k,
            |slot, m: Option<ConceptMatch>, bonus| {
                let cid = ConceptId::from_index(slot as usize);
                let (surface_hits, primitive_hits) =
                    m.map_or((0, 0), |m| (m.surface_hits, m.primitive_hits));
                weights.score(
                    surface_hits,
                    primitive_hits,
                    self.index.surface_len(cid),
                    self.index.is_stocked(cid),
                    bonus,
                )
            },
        );
        (fused, postings)
    }
}
