//! Implied-relation inference (future-work item 1 of §10).
//!
//! The paper's example: "boy's T-shirts" implies `Time: Summer` even though
//! "summer" never appears in the concept. We mine such implications as
//! association rules over the concept → primitive links: if concepts
//! interpreted by primitive `A` are also linked to primitive `B` with high
//! confidence and support, propose the implication `A ⇒ B`.

use alicoco_nn::util::FxHashMap;

use crate::graph::AliCoCo;
use crate::ids::PrimitiveId;

/// A mined implication between primitive concepts.
#[derive(Clone, Debug, PartialEq)]
pub struct Implication {
    /// Antecedent.
    pub antecedent: PrimitiveId,
    /// Consequent.
    pub consequent: PrimitiveId,
    /// Number of concepts containing both.
    pub support: usize,
    /// `P(consequent | antecedent)` over concepts.
    pub confidence: f64,
    /// Lift over the consequent's base rate.
    pub lift: f64,
}

/// Configuration for rule mining.
#[derive(Clone, Copy, Debug)]
pub struct InferConfig {
    /// Min support.
    pub min_support: usize,
    /// Min confidence.
    pub min_confidence: f64,
    /// Min lift.
    pub min_lift: f64,
}

impl Default for InferConfig {
    fn default() -> Self {
        InferConfig {
            min_support: 3,
            min_confidence: 0.6,
            min_lift: 1.5,
        }
    }
}

/// Mine implications from the concept → primitive bipartite structure.
///
/// Rules between primitives of the *same* class are skipped (they are
/// synonym/sibling noise, not implications).
pub fn mine_implications(kg: &AliCoCo, cfg: &InferConfig) -> Vec<Implication> {
    let n_concepts = kg.num_concepts();
    if n_concepts == 0 {
        return Vec::new();
    }
    let mut single: FxHashMap<PrimitiveId, usize> = FxHashMap::default();
    let mut pair: FxHashMap<(PrimitiveId, PrimitiveId), usize> = FxHashMap::default();
    for c in kg.concept_ids() {
        let prims = kg.concept(c).primitives;
        for &p in prims {
            *single.entry(p).or_insert(0) += 1;
        }
        for (i, &a) in prims.iter().enumerate() {
            for &b in prims.iter().skip(i + 1) {
                *pair.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
    }
    let mut out = Vec::new();
    for (&(a, b), &both) in &pair {
        if both < cfg.min_support {
            continue;
        }
        for (ante, cons) in [(a, b), (b, a)] {
            if kg.primitive(ante).class == kg.primitive(cons).class {
                continue;
            }
            // Both counts are populated from the same concept scan as
            // `pair`, but look them up fallibly all the same.
            let (Some(&ante_count), Some(&cons_count)) = (single.get(&ante), single.get(&cons))
            else {
                continue;
            };
            let confidence = both as f64 / ante_count as f64;
            let base = cons_count as f64 / n_concepts as f64;
            let lift = if base == 0.0 { 0.0 } else { confidence / base };
            if confidence >= cfg.min_confidence && lift >= cfg.min_lift {
                out.push(Implication {
                    antecedent: ante,
                    consequent: cons,
                    support: both,
                    confidence,
                    lift,
                });
            }
        }
    }
    out.sort_by(|x, y| {
        crate::rank::score_desc(&x.confidence, &y.confidence)
            .then(y.support.cmp(&x.support))
            .then(x.antecedent.cmp(&y.antecedent))
            .then(x.consequent.cmp(&y.consequent))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a KG where concepts mentioning "swimsuit" almost always also
    /// link to "summer", but "grill" links to varied times.
    fn kg_with_pattern() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("root", None);
        let cat = kg.add_class("Category", Some(root));
        let time = kg.add_class("Time", Some(root));
        let swimsuit = kg.add_primitive("swimsuit", cat);
        let grill = kg.add_primitive("grill", cat);
        let summer = kg.add_primitive("summer", time);
        let winter = kg.add_primitive("winter", time);
        for i in 0..8 {
            let c = kg.add_concept(&format!("swim concept {i}"));
            kg.link_concept_primitive(c, swimsuit);
            kg.link_concept_primitive(c, summer);
        }
        for i in 0..8 {
            let c = kg.add_concept(&format!("grill concept {i}"));
            kg.link_concept_primitive(c, grill);
            kg.link_concept_primitive(c, if i % 2 == 0 { summer } else { winter });
        }
        // Unrelated concepts dilute the base rate of "summer" so lift is
        // informative.
        let scarf = kg.add_primitive("scarf", cat);
        for i in 0..16 {
            let c = kg.add_concept(&format!("scarf concept {i}"));
            kg.link_concept_primitive(c, scarf);
            if i % 4 == 0 {
                kg.link_concept_primitive(c, winter);
            }
        }
        kg
    }

    #[test]
    fn mines_swimsuit_implies_summer() {
        let kg = kg_with_pattern();
        let rules = mine_implications(&kg, &InferConfig::default());
        let swimsuit = kg.primitives_by_name("swimsuit")[0];
        let summer = kg.primitives_by_name("summer")[0];
        let hit = rules
            .iter()
            .find(|r| r.antecedent == swimsuit && r.consequent == summer)
            .expect("swimsuit => summer not mined");
        assert_eq!(hit.support, 8);
        assert!((hit.confidence - 1.0).abs() < 1e-9);
        assert!(hit.lift > 1.2);
    }

    #[test]
    fn weak_correlations_are_not_mined() {
        let kg = kg_with_pattern();
        let rules = mine_implications(&kg, &InferConfig::default());
        let grill = kg.primitives_by_name("grill")[0];
        // grill co-occurs with summer only half the time.
        assert!(
            !rules.iter().any(|r| r.antecedent == grill),
            "grill should not imply any time"
        );
    }

    #[test]
    fn same_class_rules_skipped() {
        let kg = kg_with_pattern();
        let rules = mine_implications(&kg, &InferConfig::default());
        for r in &rules {
            assert_ne!(
                kg.primitive(r.antecedent).class,
                kg.primitive(r.consequent).class
            );
        }
    }

    #[test]
    fn empty_graph_yields_nothing() {
        assert!(mine_implications(&AliCoCo::new(), &InferConfig::default()).is_empty());
    }

    #[test]
    fn support_threshold_filters() {
        let kg = kg_with_pattern();
        let rules = mine_implications(
            &kg,
            &InferConfig {
                min_support: 100,
                ..Default::default()
            },
        );
        assert!(rules.is_empty());
    }
}
