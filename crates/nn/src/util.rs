//! Small shared utilities: a fast non-cryptographic hasher (the FxHash
//! algorithm used by rustc) and seeded-RNG helpers.
//!
//! SipHash protects against HashDoS but is slow for the short integer and
//! string keys that dominate AliCoCo's indices; the graph is built from
//! trusted local data so the trade-off is easy.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The FxHash mixing constant (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHasher: multiply-rotate mixing, word at a time.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // Every chunk is eight bytes; the fallback never runs.
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap_or([0; 8])));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf.iter_mut().zip(rem).for_each(|(b, &r)| *b = r);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with FxHash.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with FxHash.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Deterministic RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fxhash_map_roundtrip() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("key{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m[&format!("key{i}")], i);
        }
    }

    #[test]
    fn fxhash_is_deterministic() {
        let h = |s: &str| {
            let mut hasher = FxHasher::default();
            hasher.write(s.as_bytes());
            hasher.finish()
        };
        assert_eq!(h("outdoor barbecue"), h("outdoor barbecue"));
        assert_ne!(h("outdoor barbecue"), h("indoor barbecue"));
    }

    #[test]
    fn seeded_rng_reproducible() {
        use rand::Rng;
        let a: u64 = seeded_rng(99).gen();
        let b: u64 = seeded_rng(99).gen();
        assert_eq!(a, b);
    }
}
