//! [`QueryIndex::build`] counts and fills the concept layer in two id
//! halves on two threads. These tests hold it to a single-threaded
//! reference builder, kept here only: one pass numbers every token in
//! first-seen order and counts, a second fills. The two indexes must be
//! equal part for part — slot numbering, every list's ids and fact bytes,
//! block and run summaries and `concepts_by_primitive`.

use proptest::prelude::*;

use super::*;
use crate::ItemId;

/// Token → slot as one thread numbers them: first seen, first numbered.
#[derive(Default)]
struct RefSlots {
    slots: FxHashMap<String, u32>,
}

impl RefSlots {
    fn word(&mut self, tok: &str) -> u32 {
        let next = to_u32(self.slots.len());
        *self.slots.entry(tok.to_string()).or_insert(next)
    }

    fn concept_entries(&mut self, kg: &AliCoCo, c: ConceptId, out: &mut Vec<(u32, u8)>) -> usize {
        let node = kg.concept(c);
        out.clear();
        for w in node.name.split(' ') {
            out.push((self.word(w), SURFACE));
        }
        for &p in node.primitives {
            out.push((self.word(&kg.primitive(p).name), ONE_PRIMITIVE));
        }
        out.sort_unstable();
        out.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same && later.1 == ONE_PRIMITIVE && kept.1 >> 1 < MAX_PRIMITIVE_HITS {
                kept.1 += ONE_PRIMITIVE;
            }
            same
        });
        out.iter().filter(|(_, f)| f & SURFACE != 0).count()
    }
}

/// The index one thread builds: every layer counted in id order, then
/// filled in id order.
fn reference(kg: &AliCoCo) -> QueryIndex {
    let mut table = RefSlots::default();
    let mut concept_facts = ConceptFacts::with_capacity(kg.num_concepts());
    let mut per_token = Vec::new();
    let mut per_primitive = vec![0; kg.num_primitives()];
    let mut entries = Vec::new();
    for c in kg.concept_ids() {
        let surface_len = table.concept_entries(kg, c, &mut entries);
        concept_facts.push(c, surface_len, !kg.concept(c).items.is_empty());
        for &(slot, _) in &entries {
            count(&mut per_token, slot as usize);
        }
        for &p in kg.concept(c).primitives {
            count(&mut per_primitive, p.index());
        }
    }
    let slots = table.slots.len();
    per_token.resize(slots, 0);

    let (mut concepts_by_token, mut next) = Csr::sized(&per_token, ConceptId(0));
    let mut entry_facts = vec![0; concepts_by_token.values.len()];
    let (mut concepts_by_primitive, mut next_by_primitive) =
        Csr::sized(&per_primitive, ConceptId(0));
    for c in kg.concept_ids() {
        table.concept_entries(kg, c, &mut entries);
        for &(slot, fact) in &entries {
            let at = concepts_by_token.fill(&mut next, slot as usize, c);
            if let Some(byte) = at.and_then(|at| entry_facts.get_mut(at)) {
                *byte = fact;
            }
        }
        for &p in kg.concept(c).primitives {
            concepts_by_primitive.fill(&mut next_by_primitive, p.index(), c);
        }
    }

    let per_list: Vec<u32> = per_token
        .iter()
        .map(|&n| {
            let blocks = n.div_ceil(BLOCK as u32);
            blocks + blocks.div_ceil(RUN as u32)
        })
        .collect();
    let (mut blocks, mut next) = Csr::sized(&per_list, BlockMax::EMPTY);
    for slot in 0..per_token.len() {
        let range = concepts_by_token.range(slot);
        let ids = concepts_by_token.values.get(range.clone()).unwrap_or(&[]);
        let facts = entry_facts.get(range).unwrap_or(&[]);
        for (ids, facts) in ids.chunks(BLOCK).zip(facts.chunks(BLOCK)) {
            if let Some(block) = BlockMax::of(ids, facts, &concept_facts) {
                blocks.fill(&mut next, slot, block);
            }
        }
        let start = blocks.range(slot).start;
        let end = start + ids.len().div_ceil(BLOCK);
        for run in (start..end).step_by(RUN) {
            let run = blocks.values.get(run..end.min(run + RUN)).unwrap_or(&[]);
            if let Some(run) = run.iter().copied().reduce(BlockMax::fold) {
                blocks.fill(&mut next, slot, run);
            }
        }
    }
    QueryIndex {
        slots: table.slots,
        concepts_by_token,
        entry_facts,
        blocks,
        concepts_by_primitive,
        concept_facts,
    }
}

/// Every part of the two-thread index equals the reference's.
fn assert_same_index(kg: &AliCoCo) -> Result<(), TestCaseError> {
    let (got, want) = (QueryIndex::build(kg), reference(kg));
    prop_assert_eq!(&got.slots, &want.slots, "slot numbering");
    prop_assert_eq!(&got.concepts_by_token, &want.concepts_by_token);
    prop_assert_eq!(&got.entry_facts, &want.entry_facts);
    prop_assert_eq!(&got.blocks, &want.blocks, "block and run summaries");
    prop_assert_eq!(&got.concepts_by_primitive, &want.concepts_by_primitive);
    prop_assert_eq!(&got.concept_facts, &want.concept_facts);
    Ok(())
}

/// Words concept names, primitive names and titles are drawn from; the
/// empty word makes names with doubled, leading or trailing spaces.
const WORDS: &[&str] = &["red", "tent", "camp", "grill", "", "lake", "rain"];

/// One concept: its name's words, two primitive picks (one past the
/// primitives means none) and an item pick with its weight.
type ConceptSpec = (Vec<u8>, u8, u8, u8);

fn net(concepts: &[ConceptSpec], primitives: &[u8], titles: &[Vec<u8>]) -> AliCoCo {
    let word = |w: u8| {
        WORDS
            .get(usize::from(w) % WORDS.len())
            .copied()
            .unwrap_or("")
    };
    let mut kg = AliCoCo::new();
    let root = kg.add_class("root", None);
    let prims: Vec<PrimitiveId> = primitives
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            // Every other primitive names a word no concept uses.
            let name = if i % 2 == 0 {
                word(w).to_string()
            } else {
                format!("p{w}")
            };
            kg.add_primitive(&name, root)
        })
        .collect();
    let items: Vec<ItemId> = titles
        .iter()
        .map(|t| {
            let title: Vec<String> = t.iter().map(|&w| format!("{}{}", word(w), w % 3)).collect();
            kg.add_item(&title)
        })
        .collect();
    for (words, p, q, item) in concepts {
        let name: Vec<&str> = words.iter().map(|&w| word(w)).collect();
        let c = kg.add_concept(&name.join(" "));
        for pick in [p, q] {
            if let Some(&p) = prims.get(usize::from(*pick)) {
                kg.link_concept_primitive(c, p);
            }
        }
        if let Some(&i) = items.get(usize::from(*item)) {
            kg.link_concept_item(c, i, f32::from(*item % 10) / 10.0);
        }
    }
    kg
}

fn concept_spec() -> impl Strategy<Value = ConceptSpec> {
    (
        prop::collection::vec(0u8..12, 1..4),
        0u8..8,
        0u8..8,
        0u8..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random nets, up to a few hundred concepts over seven words, so
    /// lists cross block boundaries and tokens recur across the halves.
    #[test]
    fn two_thread_index_equals_the_single_thread_reference(
        concepts in prop::collection::vec(concept_spec(), 0..300),
        primitives in prop::collection::vec(0u8..12, 0..6),
        titles in prop::collection::vec(prop::collection::vec(0u8..12, 0..4), 0..8),
    ) {
        assert_same_index(&net(&concepts, &primitives, &titles))?;
    }
}

#[test]
fn nets_of_zero_one_and_two_concepts_index_alike() {
    let one = [(vec![0], 0, 9, 0)];
    let two = [(vec![0, 1], 0, 1, 0), (vec![2], 1, 9, 9)];
    for concepts in [&[][..], &one[..], &two[..]] {
        assert!(assert_same_index(&net(concepts, &[1, 2], &[vec![1, 5]])).is_ok());
    }
}

/// The second half meets tokens the first never does, and one the first
/// half also has in between them: the new ones are numbered after every
/// token of the first half, in the order the second half met them.
#[test]
fn tokens_first_met_in_the_second_half_are_numbered_after_the_first() {
    let concepts = [
        (vec![0, 1], 9, 9, 9),
        (vec![1, 2], 9, 9, 9),
        (vec![5, 1, 6], 0, 9, 0),
        (vec![6, 3], 9, 9, 9),
    ];
    let kg = net(&concepts, &[3], &[vec![0, 3]]);
    assert!(assert_same_index(&kg).is_ok());
    let index = QueryIndex::build(&kg);
    let slot = |w: &str| index.slots.get(w).copied();
    assert_eq!(slot("red"), Some(0));
    assert_eq!(slot("tent"), Some(1));
    assert_eq!(slot("camp"), Some(2));
    assert_eq!(slot("lake"), Some(3));
    assert_eq!(slot("rain"), Some(4));
    assert_eq!(slot("grill"), Some(5));
    assert_eq!(index.concepts_by_token("tent").len(), 3);
}

/// One token on every concept of a net past two runs of blocks, so both
/// halves write into the same long list and its runs span the seam.
#[test]
fn a_list_longer_than_a_run_summarises_alike() {
    let mut kg = net(&[], &[0, 1, 2], &[vec![0], vec![3, 4]]);
    let prims: Vec<PrimitiveId> = kg.primitive_ids().collect();
    let items: Vec<ItemId> = kg.item_ids().collect();
    for i in 0..2 * RUN_ENTRIES + 37 {
        let c = kg.add_concept(&format!("grill n{} {}", i % 97, i / 97));
        if let Some(&p) = prims.get(i % 4) {
            kg.link_concept_primitive(c, p);
        }
        if let Some(&item) = items.get(i % 3) {
            kg.link_concept_item(c, item, 0.5);
        }
    }
    assert_eq!(kg.num_concepts(), 2 * RUN_ENTRIES + 37);
    assert!(assert_same_index(&kg).is_ok());
}
