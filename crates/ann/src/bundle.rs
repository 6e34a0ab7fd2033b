//! The hybrid-retrieval bundle: everything serving needs to answer a
//! vector query — a token → embedding table for query encoding, one
//! [`Hnsw`] index over concept vectors and one over item vectors.
//!
//! The bundle is a *side-car* of the concept net, never part of
//! [`alicoco::AliCoCo`] itself: it serializes to three opaque byte
//! payloads that the `ALCC` snapshot codec carries as extra checksummed
//! sections (`AVOC`/`ACON`/`AITM`) and that [`AnnBundle::decode`]
//! reassembles. A snapshot without the sections is simply a net without
//! vector retrieval — every legacy path is untouched.

use alicoco::snapshot::binary::Cursor;
use alicoco::snapshot::LoadError;
use alicoco_nn::util::FxHashMap;

use crate::hnsw::{normalize, Hnsw};

/// Encoded-format version of the token-table payload.
const VOCAB_VERSION: u32 = 1;

/// A token → embedding-row table used to embed queries at serve time.
///
/// Rows are stored in a fixed id order (the training vocabulary's), so
/// encoding is deterministic; lookups go through a rebuilt hash index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TokenTable {
    dim: usize,
    tokens: Vec<String>,
    index: FxHashMap<String, u32>,
    /// `tokens.len() × dim`, row-major (raw, un-normalized vectors).
    vectors: Vec<f32>,
}

impl TokenTable {
    /// Build from parallel `(token, vector)` rows. Rows with a vector of
    /// the wrong length are zero-padded/truncated; duplicate tokens keep
    /// the first row.
    pub fn new(dim: usize, rows: impl IntoIterator<Item = (String, Vec<f32>)>) -> Self {
        let dim = dim.max(1);
        let mut t = TokenTable {
            dim,
            tokens: Vec::new(),
            index: FxHashMap::default(),
            vectors: Vec::new(),
        };
        for (token, v) in rows {
            if t.index.contains_key(&token) {
                continue;
            }
            t.index.insert(token.clone(), t.tokens.len() as u32);
            t.tokens.push(token);
            let mut row = vec![0.0f32; dim];
            for (dst, src) in row.iter_mut().zip(&v) {
                *dst = if src.is_finite() { *src } else { 0.0 };
            }
            t.vectors.extend_from_slice(&row);
        }
        t
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The stored vector for `token`, if present.
    pub fn vector(&self, token: &str) -> Option<&[f32]> {
        let row = *self.index.get(token)? as usize;
        self.vectors.get(row * self.dim..(row + 1) * self.dim)
    }

    /// Embed a token sequence as the L2-normalized mean of the known
    /// tokens' vectors, in the given order (so float summation order —
    /// and therefore the result — is deterministic). `None` when no
    /// token is known or the mean collapses to zero.
    pub fn embed<S: AsRef<str>>(&self, tokens: &[S]) -> Option<Vec<f32>> {
        let mut sum = vec![0.0f32; self.dim];
        let mut known = 0usize;
        for t in tokens {
            let Some(v) = self.vector(t.as_ref()) else {
                continue;
            };
            known += 1;
            for (dst, src) in sum.iter_mut().zip(v) {
                *dst += src;
            }
        }
        if known == 0 {
            return None;
        }
        normalize(&mut sum);
        if sum.iter().all(|&x| x == 0.0) {
            return None;
        }
        Some(sum)
    }

    /// Serialize: header, token strings (length-prefixed UTF-8 in row
    /// order), then the vector matrix.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&VOCAB_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.tokens.len() as u32).to_le_bytes());
        for t in &self.tokens {
            out.extend_from_slice(&(t.len() as u32).to_le_bytes());
            out.extend_from_slice(t.as_bytes());
        }
        for &x in &self.vectors {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Decode a table produced by [`encode`](Self::encode), validating
    /// counts, lengths and UTF-8; corrupt input is a typed error.
    pub fn decode(bytes: &[u8]) -> Result<TokenTable, LoadError> {
        let mut r = Cursor::new(bytes, "ann vocab");
        let version = r.u32()?;
        if version != VOCAB_VERSION {
            return Err(r.corrupt(format!("unsupported ann vocab version {version}")));
        }
        let dim = r.u32()? as usize;
        let n = r.u32()? as usize;
        if dim == 0 || dim > 4096 {
            return Err(r.corrupt("dimension out of range"));
        }
        let mut tokens = Vec::with_capacity(n.min(1 << 20));
        let mut index = FxHashMap::default();
        for i in 0..n {
            let len = r.u32()? as usize;
            if len > 4096 {
                return Err(r.corrupt("token longer than 4096 bytes"));
            }
            let raw = r.bytes(len)?;
            let token = std::str::from_utf8(raw).map_err(|_| r.corrupt("token is not UTF-8"))?;
            if index.insert(token.to_string(), i as u32).is_some() {
                return Err(r.corrupt(format!("duplicate token {token:?}")));
            }
            tokens.push(token.to_string());
        }
        let need = n
            .checked_mul(dim)
            .and_then(|c| c.checked_mul(4))
            .ok_or_else(|| r.corrupt("vector matrix overflows"))?;
        if r.remaining() != need {
            return Err(r.corrupt("vector matrix length mismatch"));
        }
        let mut vectors = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            let x = r.f32()?;
            if !x.is_finite() {
                return Err(r.corrupt("non-finite vector component"));
            }
            vectors.push(x);
        }
        r.expect_end()?;
        Ok(TokenTable {
            dim,
            tokens,
            index,
            vectors,
        })
    }
}

/// The serving-side hybrid-retrieval bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnBundle {
    tokens: TokenTable,
    concepts: Hnsw,
    items: Hnsw,
}

impl AnnBundle {
    /// Assemble from parts (see `embed::build_bundle` for the trained
    /// construction path).
    pub fn new(tokens: TokenTable, concepts: Hnsw, items: Hnsw) -> Self {
        AnnBundle {
            tokens,
            concepts,
            items,
        }
    }

    /// The query-embedding token table.
    pub fn tokens(&self) -> &TokenTable {
        &self.tokens
    }

    /// The concept-vector index (ids are concept-id ordinals).
    pub fn concepts(&self) -> &Hnsw {
        &self.concepts
    }

    /// The item-vector index (ids are item-id ordinals).
    pub fn items(&self) -> &Hnsw {
        &self.items
    }

    /// Embed a whitespace-tokenized query string. `None` when no query
    /// token is in the table.
    pub fn embed_query(&self, query: &str) -> Option<Vec<f32>> {
        let toks: Vec<&str> = query.split_whitespace().collect();
        self.tokens.embed(&toks)
    }

    /// Serialize into the three section payloads the `ALCC` codec
    /// carries: `(vocab, concept index, item index)`.
    pub fn encode(&self) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let mut vocab = Vec::new();
        self.tokens.encode(&mut vocab);
        let mut concepts = Vec::new();
        self.concepts.encode(&mut concepts);
        let mut items = Vec::new();
        self.items.encode(&mut items);
        (vocab, concepts, items)
    }

    /// Reassemble from the three section payloads. Cross-payload
    /// consistency (matching dimensions) is validated here; per-payload
    /// structure is validated by the part decoders.
    pub fn decode(vocab: &[u8], concepts: &[u8], items: &[u8]) -> Result<AnnBundle, LoadError> {
        let tokens = TokenTable::decode(vocab)?;
        let concepts = Hnsw::decode(concepts)?;
        let items = Hnsw::decode(items)?;
        if concepts.dim() != tokens.dim() || items.dim() != tokens.dim() {
            return Err(LoadError::Corrupt(
                "ann index",
                "index dimension disagrees with the vocab".into(),
            ));
        }
        Ok(AnnBundle {
            tokens,
            concepts,
            items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::HnswConfig;

    fn sample_table() -> TokenTable {
        TokenTable::new(
            4,
            [
                ("grill".to_string(), vec![1.0, 0.0, 0.0, 0.0]),
                ("charcoal".to_string(), vec![0.8, 0.2, 0.0, 0.0]),
                ("yoga".to_string(), vec![0.0, 0.0, 1.0, 0.0]),
            ],
        )
    }

    fn sample_bundle() -> AnnBundle {
        let table = sample_table();
        let mut concepts = Hnsw::new(4, HnswConfig::default());
        concepts.insert(&[1.0, 0.1, 0.0, 0.0]);
        concepts.insert(&[0.0, 0.0, 1.0, 0.2]);
        let mut items = Hnsw::new(4, HnswConfig::default());
        items.insert(&[0.9, 0.1, 0.0, 0.0]);
        AnnBundle::new(table, concepts, items)
    }

    #[test]
    fn embed_averages_known_tokens_in_order() {
        let t = sample_table();
        let v = t.embed(&["grill", "charcoal", "unknown"]).unwrap();
        assert_eq!(v.len(), 4);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert!(t.embed(&["nothing", "here"]).is_none());
        assert!(t.embed::<&str>(&[]).is_none());
        // Same tokens, same order ⇒ bitwise-identical embedding.
        assert_eq!(v, t.embed(&["grill", "charcoal"]).unwrap());
    }

    #[test]
    fn table_roundtrips_and_rejects_corruption() {
        let t = sample_table();
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let back = TokenTable::decode(&bytes).unwrap();
        assert_eq!(back, t);
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(bytes, again);
        for len in 0..bytes.len() {
            assert!(TokenTable::decode(&bytes[..len]).is_err(), "trunc {len}");
        }
        let mut b = bytes.clone();
        b.push(0);
        assert!(TokenTable::decode(&b).is_err());
    }

    #[test]
    fn bundle_roundtrips_through_the_three_payloads() {
        let bundle = sample_bundle();
        let (v, c, i) = bundle.encode();
        let back = AnnBundle::decode(&v, &c, &i).unwrap();
        assert_eq!(back, bundle);
        // Swapping a payload for one of a different dimension is caught.
        let mut other = Hnsw::new(7, HnswConfig::default());
        other.insert(&[1.0; 7]);
        let mut cbad = Vec::new();
        other.encode(&mut cbad);
        assert!(AnnBundle::decode(&v, &cbad, &i).is_err());
    }

    #[test]
    fn query_embedding_finds_the_right_concept() {
        let bundle = sample_bundle();
        let q = bundle.embed_query("charcoal grill").unwrap();
        let hits = bundle.concepts().knn(&q, 1, 8);
        assert_eq!(hits.first().map(|&(id, _)| id), Some(0));
        let q = bundle.embed_query("yoga").unwrap();
        let hits = bundle.concepts().knn(&q, 1, 8);
        assert_eq!(hits.first().map(|&(id, _)| id), Some(1));
        assert!(bundle.embed_query("quantum entanglement").is_none());
    }
}
