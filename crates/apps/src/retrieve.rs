//! The one retrieval core under the four §8 engines: a [`Retriever`] owns
//! the net, its single [`QueryIndex`] and its optional [`AnnBundle`], and
//! holds the one copy of the hybrid fusion — lexical candidates, then the
//! HNSW proposals they did not hold → exact `sim_to` rescoring → [`TopK`].
//! The approximate index only proposes; scores come from the **exact
//! stored vector**. It is asked only when a proposal can still make the
//! page: once the lexical candidates fill it with a k-th score above the
//! best a pure proposal can reach, no proposal could enter.
//!
//! It also holds the one lexical concept scorer, [`Retriever::rank_concepts`]:
//! search and QA are two [`LexicalWeights`] over the integer match counts
//! `QueryIndex::concept_matches` streams off the posting lists — no concept
//! name or primitive name is read while a request is scored. Once the page
//! is full its k-th score prunes: the merge steps over posting blocks that
//! cannot reach it, and a candidate that cannot reach it even with the
//! largest vector bonus is dropped before its `sim_to` (DESIGN.md §13.6).

use std::sync::Arc;

use alicoco::query::{Ceiling, ConceptMatch, ConceptMatches, Floor, QueryIndex};
use alicoco::rank::TopK;
use alicoco::{AliCoCo, ConceptId};
use alicoco_ann::{AnnBundle, Hnsw};

/// `ef` beam width of every HNSW proposal search.
pub const ANN_EF: usize = 64;

/// The largest `sim_to` a query embedding can have with a stored vector,
/// so `vector_weight · COS_CEIL` bounds the vector half of a fused score.
///
/// Both vectors are L2-normalised in `f32` by `hnsw::normalize` (in
/// `Hnsw::insert` and in the query embedding; a snapshot carries the
/// vectors its writer normalised). With unit roundoff `u = 2⁻²⁴` and
/// `γ_d = d·u / (1 − d·u)`, the sum of squares is off by at most a factor
/// `1 ± γ_d`, the square root and each division by `1 ± u`, so each norm
/// is at most `1 + γ_d/2 + 2u` to first order. The `f32` dot product of
/// `d` terms, summed in any order (`sim_to` sums in lanes), is within
/// `γ_d · Σ|aᵢbᵢ| ≤ γ_d‖a‖‖b‖` of the exact one.
/// Together `sim_to ≤ 1 + 2γ_d + 4u ≈ 1 + (2d + 4)·2⁻²⁴`: at the stored
/// dimension of 32 that is `1 + 4·10⁻⁶`, and the excess stays under
/// `2⁻¹⁰` up to [`COS_CEIL_MAX_DIM`] (the widest the snapshot decoder
/// accepts), beyond which nothing is pruned on a vector bound.
const COS_CEIL: f64 = 1.0 + 1.0 / 1024.0;

/// The widest vectors [`COS_CEIL`] is derived for.
const COS_CEIL_MAX_DIM: usize = 4096;

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
    /// Whether [`score`](Self::score) can only rise with the counts, the
    /// stocked bit and the bonus — what lets a bound on them prune.
    fn monotone(&self) -> bool {
        self.primitive_weight >= 0.0 && self.stocked_bonus >= 0.0
    }

    /// The fused score of a concept with `surface_len` distinct surface
    /// words, or `None` when it is not positive.
    pub fn score(
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

/// Whether a fusion asked HNSW for proposals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proposals {
    /// No bundle or no query vector: there was nothing to ask.
    Off,
    /// The lexical candidates filled the page with a k-th score strictly
    /// above the best a pure proposal can reach, so HNSW was not asked.
    Skipped,
    /// HNSW was asked.
    Asked,
}

/// What one fusion found.
pub struct Fused {
    /// The best `k` slots with their fused scores.
    pub top: TopK<u32, f64>,
    /// HNSW proposals, counting those the lexical candidates already held.
    pub proposed: usize,
    /// Distinct candidates scored.
    pub examined: usize,
    /// Whether HNSW was asked.
    pub proposals: Proposals,
}

/// What the posting merge of one ranking walked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Walked {
    /// Entries on the merged posting lists, read or not.
    pub postings: usize,
    /// Windows the pruned merge evaluated, whether stepped over or opened.
    pub windows: usize,
    /// Times a list stepped over part of a block without reading it.
    pub blocks_skipped: usize,
}

/// The shared retrieval state of one concept net.
pub struct Retriever {
    kg: Arc<AliCoCo>,
    index: QueryIndex,
    ann: Option<Arc<AnnBundle>>,
}

impl Retriever {
    /// Build the net's one index and hold it with the net and the
    /// snapshot's bundle, if it carries one. The engines share the result.
    pub fn new(kg: Arc<AliCoCo>, ann: Option<Arc<AnnBundle>>) -> Arc<Self> {
        let index = QueryIndex::build(&kg);
        Arc::new(Retriever { kg, index, ann })
    }

    /// The net every engine serves.
    pub fn kg(&self) -> &AliCoCo {
        &self.kg
    }

    /// The postings every engine retrieves from.
    pub fn index(&self) -> &QueryIndex {
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

    /// The largest vector bonus, `weight · max(0, cos)`, a candidate on
    /// `side` can be handed; `None` when no bound holds — a negative
    /// weight, or vectors wider than `COS_CEIL` is derived for.
    pub fn bonus_ceiling(&self, side: Side, weight: f64) -> Option<f64> {
        match &self.ann {
            _ if weight.is_nan() || weight < 0.0 => None,
            Some(bundle) => (side(bundle).dim() <= COS_CEIL_MAX_DIM).then_some(weight * COS_CEIL),
            None => Some(0.0),
        }
    }

    /// The fusion. `lexical` yields distinct `(slot, carried lexical
    /// score)` pairs in any order and is scored first; then the
    /// `max(fusion.ann_k, k)` nearest stored vectors of `qvec` on `side`
    /// that it did not yield are scored in ascending slot order. `score`
    /// sees every candidate once — its slot, its carried score (`None` for
    /// a pure proposal) and its vector bonus — and returns the fused
    /// score, or `None` to drop it.
    ///
    /// `ceiling` is the best score `score` can give a pure proposal. When
    /// the lexical candidates fill the page with a k-th score strictly
    /// above it, no proposal could enter and HNSW is not asked: the page
    /// is what asking would give. `None` always asks. Without a bundle or
    /// an embedded query there is nothing to ask.
    #[allow(clippy::too_many_arguments)]
    pub fn fuse<L: Copy>(
        &self,
        lexical: impl Iterator<Item = (u32, L)>,
        side: Side,
        qvec: Option<&[f32]>,
        fusion: Fusion,
        k: usize,
        ceiling: Option<f64>,
        score: impl Fn(u32, Option<L>, f64) -> Option<f64>,
    ) -> Fused {
        self.fuse_above(lexical, side, qvec, fusion, k, ceiling, None, score)
    }

    /// [`fuse`](Self::fuse), given a `floor` and the largest bonus `score`
    /// can be handed: once the page is full, `floor` holds the least score
    /// above its k-th for the `lexical` stream to prune against, and a
    /// candidate whose score with that bonus is strictly below the k-th is
    /// dropped without its `sim_to`. For a `score` that never falls as its
    /// bonus rises, whose true score can then only be lower, and a stream
    /// that ascends in slot order: [`TopK`] ranks a tie by the lower slot,
    /// so a later candidate that only ties the k-th cannot enter.
    #[allow(clippy::too_many_arguments)]
    fn fuse_above<L: Copy>(
        &self,
        mut lexical: impl Iterator<Item = (u32, L)>,
        side: Side,
        qvec: Option<&[f32]>,
        fusion: Fusion,
        k: usize,
        ceiling: Option<f64>,
        floor: Option<(&Floor, f64)>,
        score: impl Fn(u32, Option<L>, f64) -> Option<f64>,
    ) -> Fused {
        let mut fused = Fused {
            top: TopK::new(k),
            proposed: 0,
            examined: 0,
            proposals: Proposals::Off,
        };
        // Only a real `sim_to` is worth a second call to `score`, and only
        // then can there be proposals to dedup against what was yielded.
        let vectors = self.ann.is_some() && qvec.is_some();
        let mut yielded: Vec<u32> = Vec::new();
        // The proposals the stream did not yield, once it has ended.
        let mut novel: Option<std::vec::IntoIter<u32>> = None;
        let bonus_ceiling = floor.filter(|_| vectors).map(|(_, bonus)| bonus);
        // The page's k-th score, as last handed to `floor` (`-inf` until
        // the page is full): only a push scoring above it can move it.
        let mut kth = f64::NEG_INFINITY;
        // One loop over both, so the scoring body is compiled once, inline.
        loop {
            let (slot, carried) = match &mut novel {
                None => match lexical.next() {
                    Some((slot, carried)) => {
                        if vectors {
                            yielded.push(slot);
                        }
                        (slot, Some(carried))
                    }
                    None => {
                        let mut proposals =
                            self.propose(side, qvec, fusion, k, ceiling, &mut fused);
                        if !proposals.is_empty() {
                            yielded.sort_unstable();
                            proposals.retain(|slot| yielded.binary_search(slot).is_err());
                        }
                        novel = Some(proposals.into_iter());
                        continue;
                    }
                },
                Some(rest) => match rest.next() {
                    Some(slot) => (slot, None),
                    None => break,
                },
            };
            fused.examined += 1;
            if let Some(bonus) = bonus_ceiling.filter(|_| kth > f64::NEG_INFINITY) {
                if score(slot, carried, bonus).is_none_or(|best| best < kth) {
                    continue;
                }
            }
            let bonus = self.bonus(side, slot, qvec, fusion.vector_weight);
            if let Some(score) = score(slot, carried, bonus) {
                fused.top.push(slot, score);
                if let Some((floor, _)) = floor.filter(|_| score > kth) {
                    if let Some(top) = fused.top.threshold() {
                        kth = top;
                        // The stream ascends: a tie with `top` comes too late.
                        floor.raise(top.next_up());
                    }
                }
            }
        }
        fused
    }

    /// The proposals for `qvec` on `side`, in ascending slot order, once
    /// the lexical candidates have been pushed into `fused`: none when
    /// vectors take no part, or when the page is full with a k-th score
    /// strictly above `ceiling`. Records in `fused` whether HNSW was asked
    /// and what it proposed.
    fn propose(
        &self,
        side: Side,
        qvec: Option<&[f32]>,
        fusion: Fusion,
        k: usize,
        ceiling: Option<f64>,
        fused: &mut Fused,
    ) -> Vec<u32> {
        let (Some(bundle), Some(q)) = (&self.ann, qvec) else {
            return Vec::new();
        };
        let kth = fused.top.threshold();
        if kth.zip(ceiling).is_some_and(|(kth, ceiling)| kth > ceiling) {
            fused.proposals = Proposals::Skipped;
            return Vec::new();
        }
        let mut proposals: Vec<u32> = side(bundle)
            .knn(q, fusion.ann_k.max(k), ANN_EF)
            .into_iter()
            .map(|(slot, _)| slot)
            .collect();
        proposals.sort_unstable();
        fused.proposals = Proposals::Asked;
        fused.proposed = proposals.len();
        proposals
    }

    /// The one lexical concept ranking, shared by search and QA: merge the
    /// posting lists of `words`, fuse the matches with the HNSW proposals
    /// for `qvec`, and score each candidate from its integer counts under
    /// `weights`. Once the page is full, posting blocks and candidates
    /// whose best possible score is strictly below its k-th are skipped;
    /// the page, scores included, is what scoring everything would give.
    /// Returns the fusion and what the merge walked.
    pub fn rank_concepts<'w>(
        &self,
        words: impl IntoIterator<Item = &'w str>,
        qvec: Option<&[f32]>,
        weights: &LexicalWeights,
        fusion: Fusion,
        k: usize,
    ) -> (Fused, Walked) {
        // Pruning, and skipping the proposals, need a scorer monotone in
        // every input and the largest vector bonus a candidate can get.
        let vectors = self.ann.is_some() && qvec.is_some();
        let bonus_ceiling = match self.bonus_ceiling(AnnBundle::concepts, fusion.vector_weight) {
            _ if !(weights.monotone() && fusion.vector_weight >= 0.0) => None,
            _ if !vectors => Some(0.0),
            ceiling => ceiling,
        };
        let matches = self.index.concept_matches(words);
        let postings = matches.postings();
        // A merge holding fewer entries than the page never fills it, so
        // its floor never rises: with no vectors to rescore it stays the
        // plain fusion, inline.
        let (fused, (windows, blocks_skipped)) =
            match bonus_ceiling.filter(|_| vectors || postings >= k) {
                None => {
                    let lexical = matches.map(|m| (m.concept.index() as u32, m));
                    let score = |slot, m, bonus| self.score_match(weights, slot, m, bonus);
                    // Here vectors take no part, or no bound holds.
                    let side = AnnBundle::concepts;
                    let fused = self.fuse(lexical, side, qvec, fusion, k, None, score);
                    (fused, (0, 0))
                }
                Some(bonus) => self.fuse_pruned(matches, qvec, weights, fusion, k, bonus),
            };
        let walked = Walked {
            postings,
            windows,
            blocks_skipped,
        };
        (fused, walked)
    }

    /// The score under `weights` of the concept in `slot`, from its match
    /// (`None` for a pure proposal) and its vector bonus.
    #[inline(always)]
    fn score_match(
        &self,
        weights: &LexicalWeights,
        slot: u32,
        m: Option<ConceptMatch>,
        bonus: f64,
    ) -> Option<f64> {
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
    }

    /// [`rank_concepts`](Self::rank_concepts) with pruning, given the
    /// largest vector bonus: the merge skips blocks (under vectors, only
    /// when it is long enough to pay), and the fusion skips `sim_to`s and,
    /// when the page cannot change, the proposals. Out of line, so the
    /// plain fusion beside it stays as small as it was. Returns the fusion,
    /// and the windows the merge evaluated and the blocks it skipped.
    #[inline(never)]
    fn fuse_pruned(
        &self,
        matches: ConceptMatches<'_>,
        qvec: Option<&[f32]>,
        weights: &LexicalWeights,
        fusion: Fusion,
        k: usize,
        bonus_ceiling: f64,
    ) -> (Fused, (usize, usize)) {
        let floor = Floor::default();
        let ceiling = |c: Ceiling| {
            let (hits, prims) = (c.surface_hits, c.primitive_hits);
            weights.score(hits, prims, c.surface_len, c.stocked, bonus_ceiling)
        };
        let floor_and_bonus = Some((&floor, bonus_ceiling));
        // A pure proposal: no match, and the largest bonus.
        let proposal = Some(weights.score(0, 0, 1, true, bonus_ceiling).unwrap_or(0.0));
        let score = |slot, m, bonus| self.score_match(weights, slot, m, bonus);
        let slot = |m: ConceptMatch| (m.concept.index() as u32, m);
        let side = AnnBundle::concepts;
        let vectors = self.ann.is_some() && qvec.is_some();
        let fused = if !vectors || matches.worth_pruning() {
            let lexical = matches.pruned(&floor, &ceiling).map(slot);
            self.fuse_above(
                lexical,
                side,
                qvec,
                fusion,
                k,
                proposal,
                floor_and_bonus,
                score,
            )
        } else {
            let lexical = matches.map(slot);
            self.fuse_above(
                lexical,
                side,
                qvec,
                fusion,
                k,
                proposal,
                floor_and_bonus,
                score,
            )
        };
        (fused, (floor.windows(), floor.blocks_skipped()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alicoco_ann::{Hnsw, HnswConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A stored vector's similarity to itself, both normalised as
        /// `Hnsw::insert` normalises them, never exceeds `COS_CEIL`, at
        /// every dimension up to 64 and at any scale.
        #[test]
        fn self_similarity_is_under_the_cosine_ceiling(
            dim in 1usize..=64,
            raw in prop::collection::vec(-1.0f32..1.0, 64),
            exponent in -30i32..30,
        ) {
            let v: Vec<f32> = raw.iter().take(dim).map(|x| x * 2f32.powi(exponent)).collect();
            let mut index = Hnsw::new(dim, HnswConfig::default());
            index.insert(&v);
            let cos = index.sim_to(0, index.vector(0));
            prop_assert!(f64::from(cos) <= COS_CEIL, "dim {}: {}", dim, cos);
        }
    }
}
