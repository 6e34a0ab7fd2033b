//! The default hybrid bundle of a synthetic world big enough to reach what
//! the sample-world golden in `alicoco_ann::embed` cannot: a vocabulary of
//! ~240 tokens, so word2vec steps draw distinct targets, and an HNSW walk
//! whose heaps fill to `ef_construction`.

use alicoco_ann::build_default_bundle;
use alicoco_corpus::scale::scale_world;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the vocab, concept-index and item-index payloads, captured
/// at commit 4c9c69c before the HNSW walk moved to integer keys and
/// word2vec to interleaved dot products: both changes keep every byte.
#[test]
fn scale_world_bundle_encodes_to_the_golden_bytes() {
    let (vocab, concepts, items) = build_default_bundle(&scale_world(8000)).encode();
    assert_eq!(fnv1a64(&vocab), 0x1255_45f1_ace7_4dc2);
    assert_eq!(fnv1a64(&concepts), 0x2b01_77e8_5fbb_ec68);
    assert_eq!(fnv1a64(&items), 0x1f0e_80da_9a4b_a1e7);
}
