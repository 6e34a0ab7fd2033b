//! Deterministic synthetic worlds at paper scale ("millions of
//! concepts", §1) for benchmarking the storage and serving layers.
//!
//! Unlike the labeled [`crate::world`] generator (built for training-set
//! realism), this one optimizes for *size*: names are base-240 digit
//! tuples over a fixed vocabulary, so `n` distinct concepts can be
//! streamed straight into the graph arena with no O(world) intermediate
//! collections — item and primitive ids are arithmetic in `i`, never
//! stored. Worlds up to 57 600 concepts (240²) use two-word names and are
//! byte-identical to what the historical `bench::scale_world` produced,
//! keeping the 50k baselines comparable; beyond that, concepts get
//! three-word names (a token count no two-word name shares, so names
//! still never collide) up to 240³.

use std::fmt::Write as _;

use alicoco::ids::ItemId;
use alicoco::AliCoCo;

/// 60 distinct base words for the synthetic at-scale worlds.
pub const SCALE_BASE: &[&str] = &[
    "outdoor", "barbecue", "summer", "beach", "grill", "party", "yoga", "indoor", "camping",
    "picnic", "winter", "gift", "hiking", "garden", "travel", "kids", "retro", "festival",
    "wedding", "office", "budget", "luxury", "vintage", "portable", "family", "night", "morning",
    "spring", "autumn", "rain", "snow", "city", "lake", "forest", "desert", "island", "sports",
    "music", "art", "cooking", "baking", "fishing", "cycling", "running", "climbing", "reading",
    "gaming", "crafts", "pets", "garage", "balcony", "rooftop", "street", "market", "school",
    "holiday", "birthday", "romantic", "minimal", "cozy",
];

/// 240 distinct single-word tokens ("outdoor0" … "cozy3").
pub fn scale_vocab() -> Vec<String> {
    SCALE_BASE
        .iter()
        .flat_map(|w| (0..4).map(move |v| format!("{w}{v}")))
        .collect()
}

/// A deterministic synthetic world big enough that full-layer scans hurt:
/// `n_concepts` *distinct* concepts whose names are the base-240 digit
/// tuple of `i` (two words below 240², three words above, so names never
/// collide and `add_concept` cannot dedup them away), each interpreted by
/// its first two word primitives, with a thin item layer (one item per
/// four concepts, one suggestion edge per three).
///
/// Generation is streaming: besides the fixed 240-token vocabulary and
/// primitive table, per-node state goes straight into the graph arenas.
///
/// # Panics
/// Panics if `n_concepts` exceeds 240³ (names would collide).
pub fn scale_world(n_concepts: usize) -> AliCoCo {
    let vocab = scale_vocab();
    let two_word = vocab.len() * vocab.len();
    assert!(
        n_concepts <= two_word * vocab.len(),
        "digit tuples must stay distinct"
    );
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let classes: Vec<_> = (0..4)
        .map(|d| kg.add_class(&format!("domain{d}"), Some(root)))
        .collect();
    let prims: Vec<_> = vocab
        .iter()
        .enumerate()
        .map(|(i, w)| kg.add_primitive(w, classes[i % classes.len()]))
        .collect();
    // Item ids are assigned sequentially, so item `k` is reachable as
    // `ItemId::from_index(k)` later without keeping a handle vector.
    let n_items = n_concepts / 4;
    for i in 0..n_items {
        kg.add_item(&[
            vocab[i % vocab.len()].clone(),
            vocab[(i * 7 + 3) % vocab.len()].clone(),
        ]);
    }
    let mut name = String::new();
    for i in 0..n_concepts {
        let (a, b) = (i % vocab.len(), (i / vocab.len()) % vocab.len());
        name.clear();
        if i < two_word {
            let _ = write!(name, "{} {}", vocab[a], vocab[b]);
        } else {
            let c = i / two_word;
            let _ = write!(name, "{} {} {}", vocab[a], vocab[b], vocab[c]);
        }
        let id = kg.add_concept(&name);
        kg.link_concept_primitive(id, prims[a]);
        kg.link_concept_primitive(id, prims[b]);
        if i % 3 == 0 && n_items > 0 {
            kg.link_concept_item(
                id,
                ItemId::from_index(i % n_items),
                0.5 + (i % 50) as f32 / 100.0,
            );
        }
    }
    assert_eq!(kg.num_concepts(), n_concepts, "synthetic names collided");
    kg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_matches_the_historical_generator() {
        // The pre-refactor bench generator, reproduced verbatim: streaming
        // generation must not change a single byte of what it built.
        let n = 1000;
        let vocab = scale_vocab();
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let classes: Vec<_> = (0..4)
            .map(|d| kg.add_class(&format!("domain{d}"), Some(root)))
            .collect();
        let prims: Vec<_> = vocab
            .iter()
            .enumerate()
            .map(|(i, w)| kg.add_primitive(w, classes[i % classes.len()]))
            .collect();
        let items: Vec<_> = (0..n / 4)
            .map(|i| {
                kg.add_item(&[
                    vocab[i % vocab.len()].clone(),
                    vocab[(i * 7 + 3) % vocab.len()].clone(),
                ])
            })
            .collect();
        for i in 0..n {
            let (a, b) = (i % vocab.len(), i / vocab.len());
            let c = kg.add_concept(&format!("{} {}", vocab[a], vocab[b]));
            kg.link_concept_primitive(c, prims[a]);
            kg.link_concept_primitive(c, prims[b]);
            if i % 3 == 0 {
                kg.link_concept_item(c, items[i % items.len()], 0.5 + (i % 50) as f32 / 100.0);
            }
        }
        assert_eq!(scale_world(n), kg);
    }

    #[test]
    fn three_word_names_extend_past_the_two_word_ceiling() {
        // Crossing 240² = 57 600 keeps every name distinct (the internal
        // assert_eq would fire on collision).
        let n = 240 * 240 + 500;
        let kg = scale_world(n);
        assert_eq!(kg.num_concepts(), n);
        let last = kg.concept(alicoco::ids::ConceptId::from_index(n - 1)).name;
        assert_eq!(last.split(' ').count(), 3, "{last}");
    }

    #[test]
    fn world_is_deterministic() {
        assert_eq!(scale_world(321), scale_world(321));
    }
}
