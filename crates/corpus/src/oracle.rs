//! The labeling oracle — the stand-in for the paper's human annotators and
//! crowdsourcing services.
//!
//! Every semi-automatic step of the paper routes samples to annotators: the
//! active-learning loop (§4.2.3, Algorithm 1's `H`), the quality gates on
//! mined vocabulary (§7.2) and concept batches (§5.2.2), and the test-set
//! labels of §7.4–§7.6. The oracle answers those queries from the world's
//! ground truth, counts how many labels were spent (Table 3's "Labeled
//! Size"), and can inject a configurable error rate to study annotator
//! noise.

use std::cell::Cell;

use rand::Rng;

use crate::concepts::{concept_relevant_item, judge_tokens, ConceptSpec};
use crate::domain::Domain;
use crate::items::ItemSpec;
use crate::world::World;

/// A ground-truth label source with per-query accounting and optional noise.
pub struct Oracle<'w> {
    world: &'w World,
    /// Probability that any single answer is flipped.
    noise: f64,
    labels_used: Cell<u64>,
    rng: std::cell::RefCell<rand::rngs::StdRng>,
}

impl<'w> Oracle<'w> {
    /// Create a new instance.
    pub fn new(world: &'w World) -> Self {
        Self::with_noise(world, 0.0, 0)
    }

    /// An oracle that flips each answer with probability `noise`.
    pub fn with_noise(world: &'w World, noise: f64, seed: u64) -> Self {
        assert!((0.0..=0.5).contains(&noise), "noise must be in [0, 0.5]");
        Oracle {
            world,
            noise,
            labels_used: Cell::new(0),
            rng: std::cell::RefCell::new(alicoco_nn::util::seeded_rng(seed ^ 0x04ac1e)),
        }
    }

    /// Total labels answered so far.
    pub fn labels_used(&self) -> u64 {
        self.labels_used.get()
    }

    /// Reset the label counter (e.g. between experiment arms).
    pub fn reset_counter(&self) {
        self.labels_used.set(0);
    }

    fn answer(&self, truth: bool) -> bool {
        self.labels_used.set(self.labels_used.get() + 1);
        if self.noise > 0.0 && self.rng.borrow_mut().gen_bool(self.noise) {
            !truth
        } else {
            truth
        }
    }

    /// Is `hypernym` an ancestor of `hyponym` in the category taxonomy?
    /// Names may be space- or hyphen-joined.
    pub fn label_hypernym(&self, hyponym: &str, hypernym: &str) -> bool {
        let resolve = |n: &str| {
            self.world
                .category(n)
                .or_else(|| self.world.category(&n.replace('-', " ")))
        };
        let truth = match (resolve(hyponym), resolve(hypernym)) {
            (Some(c), Some(h)) => self.world.tree.is_ancestor(h, c),
            _ => false,
        };
        self.answer(truth)
    }

    /// Is this token sequence a good e-commerce concept?
    pub fn label_concept(&self, tokens: &[String]) -> bool {
        self.answer(judge_tokens(self.world, tokens))
    }

    /// Is this `(surface, domain)` pair a correct primitive concept?
    pub fn label_primitive(&self, surface: &str, domain: Domain) -> bool {
        let truth = if domain == Domain::Category {
            self.world.category(surface).is_some()
                || self.world.category(&surface.replace('-', " ")).is_some()
        } else {
            self.world.lexicon.domains_of(surface).contains(&domain)
        };
        self.answer(truth)
    }

    /// Is this item relevant to this concept?
    pub fn label_relevance(&self, concept: &ConceptSpec, item: &ItemSpec) -> bool {
        self.answer(concept_relevant_item(self.world, concept, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::generate_concepts;
    use crate::world::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn hypernym_labels_match_tree() {
        let w = world();
        let o = Oracle::new(&w);
        assert!(o.label_hypernym("grill", "cookware"));
        assert!(o.label_hypernym("grill", "kitchen"));
        assert!(!o.label_hypernym("cookware", "grill"));
        assert!(!o.label_hypernym("grill", "beauty"));
        assert!(!o.label_hypernym("zzz", "kitchen"));
        assert_eq!(o.labels_used(), 5);
    }

    #[test]
    fn hyphen_names_resolve() {
        let w = world();
        let o = Oracle::new(&w);
        assert!(o.label_hypernym("trench-coat", "top"));
    }

    #[test]
    fn concept_labels_agree_with_generation() {
        let w = world();
        let mut rng = alicoco_nn::util::seeded_rng(4);
        let concepts = generate_concepts(&w, 150, 150, &mut rng);
        let o = Oracle::new(&w);
        let mut disagreements = Vec::new();
        for c in &concepts {
            if o.label_concept(&c.tokens) != c.good {
                disagreements.push(c.text());
            }
        }
        assert!(
            disagreements.is_empty(),
            "oracle disagrees with generator on: {disagreements:?}"
        );
    }

    #[test]
    fn primitive_labels() {
        let w = world();
        let o = Oracle::new(&w);
        assert!(o.label_primitive("red", Domain::Color));
        assert!(!o.label_primitive("red", Domain::Event));
        assert!(o.label_primitive("grill", Domain::Category));
        assert!(o.label_primitive("village", Domain::Style));
        assert!(o.label_primitive("village", Domain::Location));
    }

    #[test]
    fn noisy_oracle_flips_some_answers() {
        let w = world();
        let o = Oracle::with_noise(&w, 0.3, 99);
        let mut wrong = 0;
        for _ in 0..200 {
            if !o.label_primitive("red", Domain::Color) {
                wrong += 1;
            }
        }
        assert!(
            wrong > 20 && wrong < 120,
            "flip count {wrong} outside plausible band"
        );
    }

    #[test]
    fn counter_resets() {
        let w = world();
        let o = Oracle::new(&w);
        o.label_primitive("red", Domain::Color);
        assert_eq!(o.labels_used(), 1);
        o.reset_counter();
        assert_eq!(o.labels_used(), 0);
    }

    #[test]
    #[should_panic(expected = "noise must be in")]
    fn excessive_noise_rejected() {
        let w = world();
        let _ = Oracle::with_noise(&w, 0.9, 1);
    }
}
