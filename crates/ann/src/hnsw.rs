//! A dependency-free, deterministic HNSW (Hierarchical Navigable Small
//! World) index over dense vectors.
//!
//! Determinism is the design constraint everything else bends around:
//!
//! - **Level assignment** is a pure hash of `(seed, id)` — not a draw from
//!   mutable RNG state — so a node's level never depends on insertion
//!   history.
//! - **Every ordering decision** (candidate frontier, result set, neighbor
//!   selection, greedy descent) goes through the workspace ranking order
//!   [`rank::by_score_then_id`] (similarity descending, id ascending), a
//!   total order even under NaN, so ties never depend on float luck or
//!   hash iteration. The walk compares it as integers:
//!   [`rank::rank_key`] encodes each `(id, similarity)` once.
//! - **Construction is single-threaded in id order**, which together with
//!   the above makes builds byte-reproducible: the same `(seed, inserts)`
//!   always [`encode`](Hnsw::encode)s to the same bytes — asserted by the
//!   determinism tests and relied on by the snapshot codec.
//!
//! The graph walk keeps its working set — the visited marks and the two
//! heaps of `Hnsw::search_layer` — in a per-thread scratch that outlives
//! the call, so neither `insert` nor `knn` hashes or allocates per node
//! visited. The scratch is not part of the index: it changes how set
//! membership is stored, never which nodes are members, so the built graph
//! and its bytes do not depend on it.
//!
//! Similarity is the dot product of stored vectors. [`Hnsw::insert`]
//! L2-normalizes the copy it stores, so with normalized queries the score
//! is cosine similarity. [`Hnsw::scan_knn`] is the exact brute-force
//! oracle the approximate [`Hnsw::knn`] is recall-gated against (same
//! oracle pattern as `SemanticSearch::search_scan`).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alicoco::snapshot::binary::Cursor;
use alicoco::snapshot::LoadError;
use alicoco_nn::rank::{self, from_rank_key, rank_key, TopK};

/// Hard cap on assigned levels; with `m ≥ 4` the geometric level
/// distribution makes reaching it astronomically unlikely, but the cap
/// keeps the encoded layout bounded regardless of seed.
const MAX_LEVEL: usize = 16;

/// Encoded-format version tag (the payload travels inside a checksummed
/// `ALCC` section, so this only guards against format evolution).
const VERSION: u32 = 1;

/// Construction parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbors per node on levels ≥ 1 (level 0 keeps `2·m`).
    pub m: usize,
    /// Candidate-frontier width during construction. The default of 200
    /// is calibrated on the serving bench's 100k clustered workload
    /// (`crates/ann/tests/calibration.rs`): 100 left recall@10 at ~0.81
    /// even with wide query-time `ef`, while 200 clears 0.93 at `ef=64`
    /// for ~1.5× the build cost.
    pub ef_construction: usize,
    /// Seed for the level-assignment hash.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 200,
            seed: 42,
        }
    }
}

/// The index: vectors plus one adjacency list per `(node, level)`, kept
/// in two fixed-stride tables.
#[derive(Clone, Debug, PartialEq)]
pub struct Hnsw {
    dim: usize,
    cfg: HnswConfig,
    /// Entry point for search — the highest-level node.
    entry: Option<u32>,
    /// Highest assigned level.
    max_level: usize,
    /// Assigned level per node.
    levels: Vec<u32>,
    /// L2-normalized vectors, `n × dim`, row-major.
    vectors: Vec<f32>,
    /// Level-0 neighbors: row `id`, `2·m` slots wide.
    base: Rows,
    /// Neighbors on levels ≥ 1, `m` slots wide: node `id`'s list at level
    /// `l` is row `upper_at[id] + l − 1`.
    upper: Rows,
    /// First `upper` row of each node: the sum of the levels before it.
    upper_at: Vec<u32>,
}

/// Neighbor lists as fixed-width rows of one buffer: row `r` holds its
/// `lens[r]` ids at the front of `ids[r·width .. (r + 1)·width]` and zeros
/// after them, so equal graphs compare equal however they were built.
#[derive(Clone, Debug, PartialEq)]
struct Rows {
    width: usize,
    ids: Vec<u32>,
    lens: Vec<u32>,
}

impl Rows {
    /// `rows` empty rows of `width` slots.
    fn new(width: usize, rows: usize) -> Self {
        Rows {
            width,
            ids: vec![0; rows * width],
            lens: vec![0; rows],
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.lens.len()
    }

    /// Append `count` empty rows.
    fn grow(&mut self, count: usize) {
        let rows = self.lens.len() + count;
        self.ids.resize(rows * self.width, 0);
        self.lens.resize(rows, 0);
    }

    /// The ids of row `r`; empty past the last row.
    fn get(&self, r: usize) -> &[u32] {
        let len = self.lens.get(r).map_or(0, |&len| len as usize);
        let start = r * self.width;
        self.ids.get(start..start + len).unwrap_or(&[])
    }

    /// Give row `r` `len` ids and return their slots, zeroed past the
    /// old length; `None` when `len` exceeds the width or `r` the rows.
    fn resize_row(&mut self, r: usize, len: usize) -> Option<&mut [u32]> {
        let start = r * self.width;
        let row = self.ids.get_mut(start..start + self.width)?;
        let kept = self.lens.get_mut(r)?;
        let (head, tail) = row.split_at_mut_checked(len)?;
        tail.fill(0);
        *kept = len as u32;
        Some(head)
    }

    /// Replace row `r` with `ids`, which fit its width.
    fn set(&mut self, r: usize, ids: &[u32]) {
        if let Some(slots) = self.resize_row(r, ids.len()) {
            slots.copy_from_slice(ids);
        }
    }

    /// Append `id` to row `r`, which has a free slot.
    fn push(&mut self, r: usize, id: u32) {
        let len = self.lens.get(r).map_or(0, |&len| len as usize);
        if let Some(last) = self.resize_row(r, len + 1).and_then(|row| row.last_mut()) {
            *last = id;
        }
    }
}

/// The `upper` row of `id`'s list at `level ≥ 1`; `None` above the
/// node's own level.
fn upper_row(levels: &[u32], upper_at: &[u32], id: usize, level: usize) -> Option<usize> {
    let own = *levels.get(id)? as usize;
    let first = *upper_at.get(id)? as usize;
    (1..=own).contains(&level).then(|| first + level - 1)
}

/// The working set of one [`Hnsw::search_layer`] call, kept per thread and
/// reused by every index searched on it (a serving worker walks the concept
/// and the item index alternately).
#[derive(Default)]
struct SearchScratch {
    /// `stamps[id] == generation` ⇔ `id` was visited by the current search.
    /// Grown to the largest index seen; never shrunk.
    stamps: Vec<u32>,
    /// Bumped per search, which un-visits every node at once.
    generation: u32,
    /// Max-heap of [`rank_key`]s, whose integer order *is* the ranking
    /// order: the root is the worst kept result.
    results: BinaryHeap<u64>,
    /// `Reverse` ⇒ pops the rank-best unexplored candidate first.
    frontier: BinaryHeap<Reverse<u64>>,
    /// The expanded node's neighbours this search had not visited, in
    /// list order.
    fresh: Vec<u32>,
    /// Their rank keys, in the same order.
    keys: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::default();
}

impl SearchScratch {
    /// Start a search over an index of `n` nodes with nothing visited.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: a stamp left by search 1 would read as visited now.
            self.stamps.fill(0);
            self.generation = 1;
        }
        self.results.clear();
        self.frontier.clear();
    }

    /// Mark `ids` visited and keep in `fresh`, in list order, those this
    /// search had not visited yet. No branch reads a stamp: each id is
    /// written to the next slot, which only a fresh one claims.
    fn visit(&mut self, ids: &[u32]) {
        self.fresh.resize(ids.len(), 0);
        let mut kept = 0;
        for &id in ids {
            if let (Some(stamp), Some(slot)) =
                (self.stamps.get_mut(id as usize), self.fresh.get_mut(kept))
            {
                *slot = id;
                kept += usize::from(*stamp != self.generation);
                *stamp = self.generation;
            }
        }
        self.fresh.truncate(kept);
    }
}

/// L2-normalize in place; zero vectors stay zero.
pub fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 && norm.is_finite() {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Dot product over the common prefix of two slices. Term `i` is added
/// into f32 lane `i mod 4`, in index order, and the lanes are then summed
/// in lane order: one fixed order on every machine, and one the compiler
/// keeps in a vector register. A prefix of at most four terms sums as a
/// plain left-to-right loop.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 4;
    let n = a.len().min(b.len());
    let (a, a_tail) = a.get(..n).unwrap_or_default().as_chunks::<LANES>();
    let (b, b_tail) = b.get(..n).unwrap_or_default().as_chunks::<LANES>();
    let mut lanes = [0.0f32; LANES];
    for (x, y) in a.iter().zip(b) {
        for ((lane, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *lane += x * y;
        }
    }
    for ((lane, x), y) in lanes.iter_mut().zip(a_tail).zip(b_tail) {
        *lane += x * y;
    }
    lanes.iter().sum()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Hnsw {
    /// Empty index over `dim`-dimensional vectors.
    pub fn new(dim: usize, cfg: HnswConfig) -> Self {
        let cfg = HnswConfig {
            m: cfg.m.clamp(2, 64),
            ef_construction: cfg.ef_construction.max(1),
            seed: cfg.seed,
        };
        Hnsw {
            dim: dim.max(1),
            cfg,
            entry: None,
            max_level: 0,
            levels: Vec::new(),
            vectors: Vec::new(),
            base: Rows::new(2 * cfg.m, 0),
            upper: Rows::new(cfg.m, 0),
            upper_at: Vec::new(),
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Construction parameters.
    pub fn config(&self) -> HnswConfig {
        self.cfg
    }

    /// The stored (normalized) vector of `id`; empty slice for an
    /// out-of-range id.
    pub fn vector(&self, id: u32) -> &[f32] {
        let start = (id as usize).saturating_mul(self.dim);
        self.vectors.get(start..start + self.dim).unwrap_or(&[])
    }

    /// Level assigned to `id` — a pure function of `(seed, id)`, so it is
    /// independent of insertion history.
    fn level_for(&self, id: u32) -> usize {
        let h = splitmix64(self.cfg.seed ^ u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // 53 uniform mantissa bits → u in (0, 1]; -ln(u)·ml is the usual
        // geometric-ish HNSW level draw with ml = 1/ln(m).
        let u = 1.0 - (h >> 11) as f64 / (1u64 << 53) as f64;
        let ml = 1.0 / (self.cfg.m as f64).ln();
        let lvl = (-u.ln() * ml) as usize;
        lvl.min(MAX_LEVEL)
    }

    fn neighbors(&self, id: u32, level: usize) -> &[u32] {
        if level == 0 {
            return self.base.get(id as usize);
        }
        upper_row(&self.levels, &self.upper_at, id as usize, level)
            .map_or(&[], |row| self.upper.get(row))
    }

    /// The table and row holding `id`'s list at `level`, if it has one.
    fn row_mut(&mut self, id: u32, level: usize) -> Option<(&mut Rows, usize)> {
        if level == 0 {
            return Some((&mut self.base, id as usize));
        }
        let row = upper_row(&self.levels, &self.upper_at, id as usize, level)?;
        Some((&mut self.upper, row))
    }

    /// Similarity of stored node `id` to a query slice — the dot product
    /// of the stored (normalized) vector with `q`, i.e. the cosine when
    /// `q` is normalized too. Out-of-range ids and shorter queries zip to
    /// fewer terms and score toward zero; nothing panics.
    pub fn sim_to(&self, id: u32, q: &[f32]) -> f32 {
        dot(self.vector(id), q)
    }

    /// Similarity between two stored nodes.
    fn sim_pair(&self, a: u32, b: u32) -> f32 {
        dot(self.vector(a), self.vector(b))
    }

    /// Copy `v` into a `dim`-sized normalized buffer (zero-padding or
    /// truncating a mismatched length, so no input shape can panic).
    fn fit(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        for (dst, src) in out.iter_mut().zip(v) {
            *dst = if src.is_finite() { *src } else { 0.0 };
        }
        normalize(&mut out);
        out
    }

    /// Greedy descent on one level: hill-climb to the rank-best neighbor
    /// until no neighbor improves. Ties go to the lower id via the
    /// ranking order, so the path is deterministic.
    fn greedy(&self, q: &[f32], ep: u32, level: usize) -> u32 {
        let mut best = rank_key(ep, self.sim_to(ep, q));
        loop {
            let mut improved = false;
            for &nb in self.neighbors(best as u32, level) {
                let key = rank_key(nb, self.sim_to(nb, q));
                if key < best {
                    best = key;
                    improved = true;
                }
            }
            if !improved {
                return best as u32;
            }
        }
    }

    /// The ef-bounded best-first search of one level, returning up to
    /// `ef` results best-first under the ranking order.
    ///
    /// Both heaps hold [`rank_key`]s, so a sift step compares integers. A
    /// node is expanded in three passes: mark its unvisited neighbours,
    /// score them, then offer them to the heaps in list order. Marking
    /// and scoring read no heap, so the same nodes are offered in the same
    /// order against the same heaps as when each neighbour was marked,
    /// scored and offered in turn.
    fn search_layer(&self, q: &[f32], eps: &[u32], ef: usize, level: usize) -> Vec<(u32, f32)> {
        let ef = ef.max(1);
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.begin(self.len());
            scratch.visit(eps);
            for &e in &scratch.fresh {
                let key = rank_key(e, self.sim_to(e, q));
                scratch.results.push(key);
                scratch.frontier.push(Reverse(key));
            }
            while scratch.results.len() > ef {
                scratch.results.pop();
            }
            while let Some(Reverse(cand)) = scratch.frontier.pop() {
                if scratch.results.len() >= ef {
                    match scratch.results.peek() {
                        Some(&worst) if cand > worst => break,
                        _ => {}
                    }
                }
                scratch.visit(self.neighbors(cand as u32, level));
                let SearchScratch {
                    results,
                    frontier,
                    fresh,
                    keys,
                    ..
                } = scratch;
                keys.clear();
                keys.extend(fresh.iter().map(|&nb| rank_key(nb, self.sim_to(nb, q))));
                for &key in keys.iter() {
                    let keep =
                        results.len() < ef || results.peek().is_none_or(|&worst| key < worst);
                    if keep {
                        frontier.push(Reverse(key));
                        results.push(key);
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
            // Ascending keys = best-first. The emptied buffer goes back so
            // the next search starts with its capacity.
            let mut sorted = std::mem::take(&mut scratch.results).into_sorted_vec();
            let out = sorted.iter().map(|&key| from_rank_key(key)).collect();
            sorted.clear();
            scratch.results = sorted.into();
            out
        })
    }

    /// The HNSW neighbor-selection heuristic, made deterministic: walk
    /// candidates best-first, keep one iff it is closer to the base than
    /// to every already-kept neighbor (diversity), then backfill with the
    /// best pruned ones up to `m`.
    fn select_neighbors(&self, cands: &[(u32, f32)], m: usize) -> Vec<(u32, f32)> {
        let mut selected: Vec<(u32, f32)> = Vec::with_capacity(m);
        let mut pruned: Vec<(u32, f32)> = Vec::new();
        for &(c, sim_c) in cands {
            if selected.len() >= m {
                break;
            }
            let diverse = selected.iter().all(|&(s, _)| self.sim_pair(c, s) <= sim_c);
            if diverse {
                selected.push((c, sim_c));
            } else {
                pruned.push((c, sim_c));
            }
        }
        for &(c, s) in &pruned {
            if selected.len() >= m {
                break;
            }
            selected.push((c, s));
        }
        selected
    }

    /// Insert a vector (stored L2-normalized) and return its id — always
    /// the current [`len`](Self::len), so ids are dense insertion
    /// ordinals. Single-threaded id-order insertion is what makes builds
    /// byte-reproducible.
    pub fn insert(&mut self, vector: &[f32]) -> u32 {
        let id = self.levels.len() as u32;
        let v = self.fit(vector);
        let level = self.level_for(id);
        self.vectors.extend_from_slice(&v);
        self.levels.push(level as u32);
        self.upper_at.push(self.upper.len() as u32);
        self.base.grow(1);
        self.upper.grow(level);
        let Some(mut ep) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return id;
        };
        // Descend greedily through levels above the node's own.
        for l in (level + 1..=self.max_level).rev() {
            ep = self.greedy(&v, ep, l);
        }
        // Connect on every level the node lives on.
        let mut eps = vec![ep];
        for l in (0..=level.min(self.max_level)).rev() {
            let cands = self.search_layer(&v, &eps, self.cfg.ef_construction, l);
            let selected: Vec<u32> = self
                .select_neighbors(&cands, self.cfg.m)
                .into_iter()
                .map(|(c, _)| c)
                .collect();
            if let Some((rows, row)) = self.row_mut(id, l) {
                rows.set(row, &selected);
            }
            for &nb in &selected {
                self.link_back(nb, id, l);
            }
            eps = cands.into_iter().map(|(c, _)| c).collect();
            if eps.is_empty() {
                eps = vec![ep];
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
        id
    }

    /// Add the back-edge `nb → id` at `level`, re-selecting `nb`'s
    /// neighbor list when it overflows the level's width (`2·m` on level
    /// 0, `m` above).
    fn link_back(&mut self, nb: u32, id: u32, level: usize) {
        let m_max = if level == 0 {
            self.base.width
        } else {
            self.upper.width
        };
        let current = self.neighbors(nb, level);
        if current.contains(&id) {
            return;
        }
        if current.len() < m_max {
            if let Some((rows, row)) = self.row_mut(nb, level) {
                rows.push(row, id);
            }
            return;
        }
        // Overflow: rank all candidates by similarity to `nb` and keep a
        // diverse `m_max` of them.
        let mut cands: Vec<(u32, f32)> = current
            .iter()
            .chain(std::iter::once(&id))
            .map(|&c| (c, self.sim_pair(c, nb)))
            .collect();
        cands.sort_by(rank::by_score_then_id);
        let kept: Vec<u32> = self
            .select_neighbors(&cands, m_max)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        if let Some((rows, row)) = self.row_mut(nb, level) {
            rows.set(row, &kept);
        }
    }

    /// Approximate k-nearest-neighbor search: the best `k` of an
    /// `ef`-wide level-0 frontier (`ef` is raised to `k` if below),
    /// best-first under the ranking order — similarity descending, id
    /// ascending, no duplicates.
    pub fn knn(&self, query: &[f32], k: usize, ef: usize) -> Vec<(u32, f32)> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let q = self.fit(query);
        let mut ep = entry;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy(&q, ep, l);
        }
        let mut out = self.search_layer(&q, &[ep], ef.max(k), 0);
        out.truncate(k);
        out
    }

    /// Exact brute-force kNN over every stored vector — the oracle
    /// [`knn`](Self::knn) is recall-gated against.
    pub fn scan_knn(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        let q = self.fit(query);
        let mut top = TopK::new(k);
        for id in 0..self.levels.len() as u32 {
            top.push(id, self.sim_to(id, &q));
        }
        top.into_sorted_vec()
    }

    // ---- codec -------------------------------------------------------------

    /// Serialize into `out`. The layout is fixed-stride little-endian
    /// (header, per-node levels, vectors, then one CSR adjacency per
    /// level), so equal indexes always produce equal bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let n = self.levels.len();
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.cfg.m as u32).to_le_bytes());
        out.extend_from_slice(&(self.cfg.ef_construction as u32).to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&self.entry.unwrap_or(u32::MAX).to_le_bytes());
        out.extend_from_slice(&(self.max_level as u32).to_le_bytes());
        out.extend_from_slice(&self.cfg.seed.to_le_bytes());
        for &l in &self.levels {
            out.extend_from_slice(&l.to_le_bytes());
        }
        for &x in &self.vectors {
            out.extend_from_slice(&x.to_le_bytes());
        }
        if n == 0 {
            return;
        }
        for level in 0..=self.max_level {
            let mut off = 0u32;
            out.extend_from_slice(&off.to_le_bytes());
            for id in 0..n as u32 {
                off = off.saturating_add(self.neighbors(id, level).len() as u32);
                out.extend_from_slice(&off.to_le_bytes());
            }
            for id in 0..n as u32 {
                for &nb in self.neighbors(id, level) {
                    out.extend_from_slice(&nb.to_le_bytes());
                }
            }
        }
    }

    /// Decode an index previously produced by [`encode`](Self::encode),
    /// validating every count, id and offset — corrupt input of any shape
    /// is a typed [`LoadError`], never a panic. `decode(encode(x)) == x`,
    /// and re-encoding reproduces the input bytes.
    pub fn decode(bytes: &[u8]) -> Result<Hnsw, LoadError> {
        let mut r = Cursor::new(bytes, "ann index");
        let version = r.u32()?;
        if version != VERSION {
            return Err(r.corrupt(format!("unsupported ann version {version}")));
        }
        let dim = r.u32()? as usize;
        let m = r.u32()? as usize;
        let ef_construction = r.u32()? as usize;
        let n = r.u32()? as usize;
        let entry_raw = r.u32()?;
        let max_level = r.u32()? as usize;
        let seed = r.u64()?;
        if dim == 0 || dim > 4096 {
            return Err(r.corrupt("dimension out of range"));
        }
        if !(2..=64).contains(&m) || max_level > MAX_LEVEL {
            return Err(r.corrupt("parameters out of range"));
        }
        // Counts are validated against the bytes actually present before
        // any allocation is sized from them.
        let need = n
            .checked_mul(4 + dim * 4)
            .ok_or_else(|| r.corrupt("node count overflows"))?;
        if r.remaining() < need {
            return Err(r.corrupt("truncated node data"));
        }
        let entry = if entry_raw == u32::MAX {
            None
        } else if (entry_raw as usize) < n {
            Some(entry_raw)
        } else {
            return Err(r.corrupt("entry point out of range"));
        };
        if entry.is_none() && n != 0 {
            return Err(r.corrupt("non-empty index without an entry point"));
        }
        let mut levels = Vec::with_capacity(n);
        for _ in 0..n {
            let l = r.u32()?;
            if l as usize > max_level {
                return Err(r.corrupt("node level above max level"));
            }
            levels.push(l);
        }
        if let Some(e) = entry {
            if levels.get(e as usize).copied() != Some(max_level as u32) {
                return Err(r.corrupt("entry point is not on the max level"));
            }
        }
        let mut vectors = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            let x = r.f32()?;
            if !x.is_finite() {
                return Err(r.corrupt("non-finite vector component"));
            }
            vectors.push(x);
        }
        // Each node's upper rows follow those of the nodes before it.
        let mut upper_at = Vec::with_capacity(n);
        let mut upper_rows = 0usize;
        for &l in &levels {
            let at = u32::try_from(upper_rows).map_err(|_| r.corrupt("too many upper rows"))?;
            upper_at.push(at);
            upper_rows += l as usize;
        }
        let mut base = Rows::new(2 * m, n);
        let mut upper = Rows::new(m, upper_rows);
        // One offsets buffer serves every level's CSR.
        let mut offsets = Vec::with_capacity(if n > 0 { n + 1 } else { 0 });
        for level in (0..=max_level).filter(|_| n > 0) {
            offsets.clear();
            for _ in 0..=n {
                offsets.push(r.u32()? as usize);
            }
            if offsets.first() != Some(&0) {
                return Err(r.corrupt("adjacency offsets must start at zero"));
            }
            let total = offsets.last().copied().unwrap_or(0);
            if total > r.remaining() / 4 {
                return Err(r.corrupt("adjacency longer than section"));
            }
            for id in 0..n {
                let (start, end) = match (offsets.get(id), offsets.get(id + 1)) {
                    (Some(&s), Some(&e)) if s <= e => (s, e),
                    _ => return Err(r.corrupt("adjacency offsets must be non-decreasing")),
                };
                let degree = end - start;
                if degree == 0 {
                    continue;
                }
                let (rows, row) = if level == 0 {
                    (&mut base, id)
                } else {
                    match upper_row(&levels, &upper_at, id, level) {
                        Some(row) => (&mut upper, row),
                        None => return Err(r.corrupt("neighbors above the node's level")),
                    }
                };
                let slots = rows
                    .resize_row(row, degree)
                    .ok_or_else(|| r.corrupt("more neighbors than the level holds"))?;
                for slot in slots {
                    let nb = r.u32()?;
                    if nb as usize >= n || nb as usize == id {
                        return Err(r.corrupt("neighbor id out of range"));
                    }
                    if levels.get(nb as usize).map_or(0, |&l| l as usize) < level {
                        return Err(r.corrupt("neighbor below this level"));
                    }
                    *slot = nb;
                }
            }
        }
        r.expect_end()?;
        Ok(Hnsw {
            dim,
            cfg: HnswConfig {
                m,
                ef_construction: ef_construction.max(1),
                seed,
            },
            entry,
            max_level,
            levels,
            vectors,
            base,
            upper,
            upper_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alicoco_nn::util::FxHashSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() - 0.5).collect())
            .collect()
    }

    fn build(vectors: &[Vec<f32>], cfg: HnswConfig) -> Hnsw {
        let dim = vectors.first().map_or(4, Vec::len);
        let mut h = Hnsw::new(dim, cfg);
        for v in vectors {
            h.insert(v);
        }
        h
    }

    #[test]
    fn empty_index_answers_empty() {
        let h = Hnsw::new(8, HnswConfig::default());
        assert!(h.knn(&[1.0; 8], 5, 32).is_empty());
        assert!(h.scan_knn(&[1.0; 8], 5).is_empty());
        let mut bytes = Vec::new();
        h.encode(&mut bytes);
        assert_eq!(Hnsw::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn knn_is_exact_on_small_sets() {
        // With ef ≥ n the frontier visits the whole connected graph, so
        // the approximate search must equal the scan oracle.
        let vectors = random_vectors(64, 8, 7);
        let h = build(&vectors, HnswConfig::default());
        for (qi, q) in vectors.iter().enumerate().step_by(9) {
            let approx = h.knn(q, 10, 64);
            let exact = h.scan_knn(q, 10);
            assert_eq!(approx, exact, "query {qi}");
            assert_eq!(approx.first().map(|&(id, _)| id), Some(qi as u32));
        }
    }

    #[test]
    fn results_are_rank_ordered_without_duplicates() {
        let vectors = random_vectors(200, 6, 3);
        let h = build(
            &vectors,
            HnswConfig {
                m: 8,
                ..HnswConfig::default()
            },
        );
        let out = h.knn(&vectors[17], 20, 40);
        assert!(!out.is_empty());
        let mut sorted = out.clone();
        sorted.sort_by(rank::by_score_then_id);
        assert_eq!(out, sorted, "results must follow the ranking order");
        let ids: FxHashSet<u32> = out.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), out.len(), "no duplicate ids");
    }

    #[test]
    fn same_inserts_same_seed_is_byte_identical() {
        let vectors = random_vectors(120, 8, 11);
        let cfg = HnswConfig {
            seed: 5,
            ..HnswConfig::default()
        };
        let (a, b) = (build(&vectors, cfg), build(&vectors, cfg));
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.encode(&mut ba);
        b.encode(&mut bb);
        assert_eq!(ba, bb, "same seed + inserts must be byte-identical");
        // A different seed re-rolls levels and produces different bytes.
        let c = build(&vectors, HnswConfig { seed: 6, ..cfg });
        let mut bc = Vec::new();
        c.encode(&mut bc);
        assert_ne!(ba, bc);
    }

    #[test]
    fn decode_roundtrips_and_reencodes_identically() {
        let vectors = random_vectors(90, 5, 23);
        let h = build(&vectors, HnswConfig::default());
        let mut bytes = Vec::new();
        h.encode(&mut bytes);
        let back = Hnsw::decode(&bytes).unwrap();
        assert_eq!(back, h);
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(bytes, again);
        // The decoded index answers identically.
        assert_eq!(back.knn(&vectors[3], 5, 50), h.knn(&vectors[3], 5, 50));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let h = build(&random_vectors(24, 4, 1), HnswConfig::default());
        let mut bytes = Vec::new();
        h.encode(&mut bytes);
        for len in 0..bytes.len() {
            assert!(Hnsw::decode(&bytes[..len]).is_err(), "truncation at {len}");
        }
    }

    #[test]
    fn corrupt_fields_are_typed_errors() {
        let h = build(&random_vectors(24, 4, 1), HnswConfig::default());
        let mut bytes = Vec::new();
        h.encode(&mut bytes);
        // Version.
        let mut b = bytes.clone();
        b[0] = 99;
        assert!(Hnsw::decode(&b).is_err());
        // Entry point beyond n.
        let mut b = bytes.clone();
        b[16..20].copy_from_slice(&1000u32.to_le_bytes());
        assert!(Hnsw::decode(&b).is_err());
        // A neighbor id in the adjacency tail flipped out of range.
        let mut b = bytes.clone();
        let tail = b.len() - 4;
        b[tail..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Hnsw::decode(&b).is_err());
        // Trailing garbage.
        let mut b = bytes.clone();
        b.push(0);
        assert!(Hnsw::decode(&b).is_err());
    }

    #[test]
    fn recall_is_high_on_clustered_data() {
        // Clustered vectors (the realistic embedding shape): recall@10
        // against the exact oracle must clear the CI gate's floor.
        let mut rng = StdRng::seed_from_u64(99);
        let dim = 16;
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() - 0.5).collect())
            .collect();
        let vectors: Vec<Vec<f32>> = (0..600)
            .map(|i| {
                let c = &centers[i % centers.len()];
                c.iter()
                    .map(|x| x + 0.1 * (rng.gen::<f32>() - 0.5))
                    .collect()
            })
            .collect();
        let h = build(&vectors, HnswConfig::default());
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in vectors.iter().step_by(13) {
            let approx: FxHashSet<u32> = h.knn(q, 10, 64).into_iter().map(|(id, _)| id).collect();
            for (id, _) in h.scan_knn(q, 10) {
                total += 1;
                hit += usize::from(approx.contains(&id));
            }
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.9, "recall@10 {recall} below the gate floor");
    }

    /// `knn` on a thread whose scratch nothing has touched yet.
    fn knn_on_fresh_thread(h: &Hnsw, q: &[f32], k: usize, ef: usize) -> Vec<(u32, f32)> {
        std::thread::scope(|s| s.spawn(|| h.knn(q, k, ef)).join().unwrap())
    }

    #[test]
    fn one_scratch_serves_indexes_of_different_sizes() {
        // A serving worker walks the concept and the item index in turn:
        // marks left by a search of the big index must not read as visited
        // in the small one, or the other way round.
        let big = build(&random_vectors(300, 8, 31), HnswConfig::default());
        let small = build(&random_vectors(40, 8, 32), HnswConfig::default());
        let queries = random_vectors(12, 8, 33);
        for q in &queries {
            assert_eq!(big.knn(q, 10, 64), knn_on_fresh_thread(&big, q, 10, 64));
            assert_eq!(small.knn(q, 10, 64), knn_on_fresh_thread(&small, q, 10, 64));
        }
    }

    #[test]
    fn generation_wraparound_unvisits_everything() {
        let vectors = random_vectors(80, 8, 41);
        let h = build(&vectors, HnswConfig::default());
        // What a generation-1 search that visited every node leaves behind,
        // with the counter about to wrap back onto it.
        SCRATCH.with_borrow_mut(|s| {
            s.begin(h.len());
            s.stamps.fill(1);
            s.generation = u32::MAX;
        });
        for q in vectors.iter().take(6) {
            assert_eq!(h.knn(q, 10, 80), h.scan_knn(q, 10));
        }
        SCRATCH.with_borrow(|s| assert_eq!(s.generation, 6, "the counter wrapped"));
    }

    #[test]
    fn knn_sees_nodes_inserted_after_the_scratch_was_sized() {
        let vectors = random_vectors(120, 8, 51);
        let mut h = build(&vectors[..30], HnswConfig::default());
        assert_eq!(h.knn(&vectors[3], 5, 30), h.scan_knn(&vectors[3], 5));
        for v in &vectors[30..] {
            h.insert(v);
        }
        for (qi, q) in vectors.iter().enumerate().skip(30).step_by(17) {
            let got = h.knn(q, 10, 120);
            assert_eq!(got, h.scan_knn(q, 10), "query {qi}");
            assert_eq!(got.first().map(|&(id, _)| id), Some(qi as u32));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Whatever is inserted and whatever `m`, every list fits its row
        /// — at most `2·m` on level 0 and `m` above —, holds distinct
        /// nodes on its level other than its owner, and the bytes decode
        /// to the same index.
        #[test]
        fn adjacency_fits_its_rows_and_round_trips(
            m in 2usize..=8,
            ef_construction in 1usize..24,
            raw in proptest::collection::vec(proptest::collection::vec(-8i8..8, 4), 1..120),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let vectors: Vec<Vec<f32>> = raw
                .iter()
                .map(|v| v.iter().map(|&x| f32::from(x)).collect())
                .collect();
            let h = build(&vectors, HnswConfig { m, ef_construction, seed });
            let n = h.len() as u32;
            for id in 0..n {
                let own = h.levels[id as usize] as usize;
                for level in 0..=own {
                    let nbs = h.neighbors(id, level);
                    let width = if level == 0 { 2 * m } else { m };
                    proptest::prop_assert!(nbs.len() <= width, "node {} level {}", id, level);
                    proptest::prop_assert!(!nbs.contains(&id), "node {} lists itself", id);
                    let distinct: FxHashSet<u32> = nbs.iter().copied().collect();
                    proptest::prop_assert_eq!(distinct.len(), nbs.len());
                    for &nb in nbs {
                        proptest::prop_assert!(nb < n && h.levels[nb as usize] as usize >= level);
                    }
                }
                proptest::prop_assert!(h.neighbors(id, own + 1).is_empty());
            }
            let mut bytes = Vec::new();
            h.encode(&mut bytes);
            proptest::prop_assert_eq!(Hnsw::decode(&bytes).unwrap(), h);
        }

        /// Whatever the lanes, `dot` rounds each product once and adds it
        /// at most `d − 1` times, so it is within `γ_d·Σ|aᵢbᵢ|` of the exact
        /// dot product of the common prefix (`d` terms, `u = 2⁻²⁴`),
        /// computed here in f64, where each product is exact. Lengths
        /// give every tail and many full chunks, and rarely agree.
        #[test]
        fn dot_is_within_the_summation_bound(
            a in proptest::collection::vec(-4.0f32..4.0, 0..=70),
            b in proptest::collection::vec(-4.0f32..4.0, 0..=70),
        ) {
            let terms: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).collect();
            let d = terms.len() as f64;
            let u = f64::from(f32::EPSILON) / 2.0;
            let bound = d * u / (1.0 - d * u) * terms.iter().map(|t| t.abs()).sum::<f64>();
            let error = (f64::from(dot(&a, &b)) - terms.iter().sum::<f64>()).abs();
            proptest::prop_assert!(error <= bound, "error {} > bound {}", error, bound);
            proptest::prop_assert_eq!(dot(&a, &b).to_bits(), dot(&b, &a).to_bits());
        }
    }

    #[test]
    fn mismatched_query_lengths_do_not_panic() {
        let h = build(&random_vectors(10, 4, 2), HnswConfig::default());
        assert!(!h.knn(&[1.0], 3, 8).is_empty());
        assert!(!h.knn(&[1.0; 64], 3, 8).is_empty());
        assert!(!h.knn(&[f32::NAN; 4], 3, 8).is_empty());
        assert_eq!(h.knn(&[], 3, 8).len(), 3);
    }
}
