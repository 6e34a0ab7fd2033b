//! The one retrieval core under the four §8 engines: a [`Retriever`] owns
//! the net's single [`QueryIndex`] and its optional [`AnnBundle`], and
//! holds the one copy of the hybrid fusion — lexical candidates ∪ HNSW
//! proposals → dedup → exact `sim_to` rescoring → [`TopK`]. The approximate
//! index only proposes; scores come from the **exact stored vector**.

use std::sync::Arc;

use alicoco::query::QueryIndex;
use alicoco::rank::TopK;
use alicoco::ConceptId;
use alicoco_ann::{AnnBundle, Hnsw};
use alicoco_nn::util::FxHashSet;

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

    /// The distinct concepts on the posting lists of `words` — the only
    /// ones a token-overlap score can rank above zero — and the posting
    /// entries touched to collect them.
    pub fn concept_candidates(&self, words: &FxHashSet<&str>) -> (Vec<ConceptId>, usize) {
        self.index.concept_candidates_counted(words.iter().copied())
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
    /// score)` pairs; the `max(fusion.ann_k, k)` nearest stored vectors of
    /// `qvec` on `side` join them. `score` sees every candidate once — its
    /// slot, its carried score (`None` for a pure proposal) and its vector
    /// bonus — and returns the fused score, or `None` to drop it.
    ///
    /// Without a bundle or an embedded query nothing is proposed, so no
    /// dedup set is built and the lexical candidates are scored as is.
    pub fn fuse<L>(
        &self,
        lexical: impl Iterator<Item = (u32, L)> + Clone,
        side: Side,
        qvec: Option<&[f32]>,
        fusion: Fusion,
        k: usize,
        score: impl Fn(u32, Option<L>, f64) -> Option<f64>,
    ) -> Fused {
        let proposals = match (&self.ann, qvec) {
            (Some(bundle), Some(q)) => side(bundle).knn(q, fusion.ann_k.max(k), ANN_EF),
            _ => Vec::new(),
        };
        let mut held = FxHashSet::default();
        if !proposals.is_empty() {
            held.extend(lexical.clone().map(|(slot, _)| slot));
        }
        let novel = proposals
            .iter()
            .filter(|(slot, _)| !held.contains(slot))
            .map(|&(slot, _)| (slot, None));
        let mut fused = Fused {
            top: TopK::new(k),
            proposed: proposals.len(),
            examined: 0,
        };
        for (slot, carried) in lexical.map(|(slot, l)| (slot, Some(l))).chain(novel) {
            fused.examined += 1;
            let bonus = self.bonus(side, slot, qvec, fusion.vector_weight);
            if let Some(score) = score(slot, carried, bonus) {
                fused.top.push(slot, score);
            }
        }
        fused
    }
}
