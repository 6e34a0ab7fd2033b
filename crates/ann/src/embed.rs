//! Building an [`AnnBundle`] from a concept net.
//!
//! The training corpus deliberately mixes layers: each concept's
//! document is its surface tokens *plus* its interpreting primitives'
//! names *plus* the title tokens of its linked items, and each item's
//! document symmetrically pulls in its concepts' surfaces. That co-
//! occurrence is what closes the lexical gap — a query token that
//! appears only in item titles ("charcoal") lands near the concepts
//! those items are linked to ("outdoor barbecue") even though no
//! concept or primitive surface contains it, which token postings alone
//! can never do (PAPER.md's semantic-matching motivation).
//!
//! Everything downstream of the corpus is deterministic: the vocabulary
//! orders tokens by count then spelling, word2vec is seeded, documents
//! are visited in id order, and the HNSW build is byte-reproducible —
//! so `build_bundle` on the same net and config always encodes to the
//! same snapshot bytes.

use alicoco::{par, AliCoCo};
use alicoco_text::word2vec::{train, Word2VecConfig};
use alicoco_text::Vocab;

use crate::bundle::{AnnBundle, TokenTable};
use crate::hnsw::{Hnsw, HnswConfig};

/// Configuration for the embedding + index build.
#[derive(Clone, Debug, Default)]
pub struct EmbedConfig {
    /// word2vec training parameters (dimension, epochs, seed …).
    pub word2vec: Word2VecConfig,
    /// HNSW construction parameters.
    pub hnsw: HnswConfig,
}

/// The document of one concept: surface tokens, then interpreting
/// primitive names, then linked item title tokens — a deterministic
/// id-order traversal.
fn concept_doc(kg: &AliCoCo, id: alicoco::ids::ConceptId) -> Vec<String> {
    let node = kg.concept(id);
    let mut doc: Vec<String> = node.name.split_whitespace().map(str::to_string).collect();
    for &p in node.primitives {
        doc.extend(kg.primitive(p).name.split_whitespace().map(str::to_string));
    }
    for &(item, _) in node.items {
        doc.extend(kg.item(item).title.iter().cloned());
    }
    doc
}

/// The document of one item: title tokens, then the surfaces of the
/// concepts that suggest it, then its property primitives' names.
fn item_doc(kg: &AliCoCo, id: alicoco::ids::ItemId) -> Vec<String> {
    let node = kg.item(id);
    let mut doc: Vec<String> = node.title.clone();
    for &c in node.concepts {
        doc.extend(kg.concept(c).name.split_whitespace().map(str::to_string));
    }
    for &p in node.primitives {
        doc.extend(kg.primitive(p).name.split_whitespace().map(str::to_string));
    }
    doc
}

/// Train embeddings over the net's cross-layer corpus and build the
/// hybrid-retrieval bundle: a token table for query embedding plus one
/// HNSW index over concept vectors (ids = concept ordinals) and one
/// over item vectors (ids = item ordinals).
pub fn build_bundle(kg: &AliCoCo, cfg: &EmbedConfig) -> AnnBundle {
    let concept_docs: Vec<Vec<String>> = kg.concept_ids().map(|c| concept_doc(kg, c)).collect();
    let item_docs: Vec<Vec<String>> = kg.item_ids().map(|i| item_doc(kg, i)).collect();
    let corpus: Vec<&[String]> = concept_docs
        .iter()
        .chain(item_docs.iter())
        .map(Vec::as_slice)
        .collect();
    let vocab = Vocab::from_corpus(corpus.iter().copied(), 1);
    let sentences: Vec<Vec<usize>> = corpus.iter().map(|s| vocab.encode(s)).collect();
    let vectors = train(&vocab, &sentences, &cfg.word2vec);
    let dim = cfg.word2vec.dim.max(1);
    // Skip <unk> (id 0): unknown query tokens must contribute nothing.
    let table = TokenTable::new(
        dim,
        vocab
            .iter()
            .skip(1)
            .map(|(id, tok, _)| (tok.to_string(), vectors.vector(id).to_vec())),
    );
    // The two indexes are independent: each is inserted serially in id
    // order on its own core, so its bytes are the single-threaded ones.
    let index = |docs: &[Vec<String>]| {
        let mut hnsw = Hnsw::new(dim, cfg.hnsw);
        for doc in docs {
            hnsw.insert(&table.embed(doc).unwrap_or_else(|| vec![0.0; dim]));
        }
        hnsw
    };
    let (concepts, items) = par::join(|| index(&concept_docs), || index(&item_docs));
    AnnBundle::new(table, concepts, items)
}

/// Convenience: `build_bundle` with the default configuration.
pub fn build_default_bundle(kg: &AliCoCo) -> AnnBundle {
    build_bundle(kg, &EmbedConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small two-scenario world: barbecue concepts whose items carry
    /// title tokens ("charcoal") absent from every concept surface.
    fn sample_kg() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("root", None);
        let category = kg.add_class("Category", Some(root));
        let event = kg.add_class("Event", Some(root));
        let grill = kg.add_primitive("grill", category);
        let bbq = kg.add_primitive("barbecue", event);
        let yoga = kg.add_primitive("yoga", event);
        let outdoor = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(outdoor, grill);
        kg.link_concept_primitive(outdoor, bbq);
        let indoor = kg.add_concept("indoor yoga");
        kg.link_concept_primitive(indoor, yoga);
        let i1 = kg.add_item(&["charcoal".into(), "grill".into()]);
        let i2 = kg.add_item(&["yoga".into(), "mat".into()]);
        kg.link_concept_item(outdoor, i1, 0.9);
        kg.link_concept_item(indoor, i2, 0.8);
        kg
    }

    #[test]
    fn bundle_build_is_deterministic() {
        let kg = sample_kg();
        let a = build_default_bundle(&kg);
        let b = build_default_bundle(&kg);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.concepts().len(), kg.num_concepts());
        assert_eq!(a.items().len(), kg.num_items());
    }

    /// The default bundle of the sample world, byte for byte what commit
    /// 37f4a0a built (FNV-1a of the vocab, concept-index and item-index
    /// payloads): embeddings and both graphs are pinned across changes to
    /// the HNSW walk's scratch.
    #[test]
    fn default_bundle_encodes_to_the_golden_bytes() {
        let fnv = |bytes: Vec<u8>| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let (vocab, concepts, items) = build_default_bundle(&sample_kg()).encode();
        assert_eq!(fnv(vocab), 0xdc4f_b883_f75c_c73e);
        assert_eq!(fnv(concepts), 0x6574_b703_5c5b_8a06);
        assert_eq!(fnv(items), 0x4b1a_ee78_5b83_60bf);
    }

    #[test]
    fn item_title_tokens_reach_their_concepts() {
        // "charcoal" appears only in an item title, never in a concept
        // or primitive surface — the lexical-miss case. The cross-layer
        // corpus still embeds it, and the nearest concept must be the
        // one its item is linked to.
        let kg = sample_kg();
        let bundle = build_default_bundle(&kg);
        let q = bundle
            .embed_query("charcoal")
            .expect("title token is in the table");
        let hits = bundle.concepts().knn(&q, 1, 16);
        let outdoor = kg.concept_by_name("outdoor barbecue").unwrap();
        assert_eq!(
            hits.first().map(|&(id, _)| id as usize),
            Some(outdoor.index())
        );
    }
}
