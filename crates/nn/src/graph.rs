//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation applied during a forward pass as a
//! `Node` in a flat tape. Calling [`Graph::backward`] walks the tape in
//! reverse, accumulating gradients into each node and, for leaves created by
//! [`Graph::param`] / [`Graph::lookup`], into the external [`Param`] storage
//! that outlives the graph. A tape is built per training example; the
//! trainer keeps one [`Graph`] and [`Graph::reset`]s it between examples so
//! node storage and parameter snapshots are reused.
//!
//! Parameter reads are lock-free on the steady state: the tape caches each
//! parameter's snapshot pointer ([`Param::value_arc`]) keyed by
//! [`Param::version`], so recording a `param` node costs one atomic load
//! plus an `Arc` bump — no `RwLock` and no tensor copy. The cache refetches
//! under the (brief) read lock only on the first touch after an optimizer
//! step.

// Column-indexed pooling loops read more clearly as index loops.
#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use crate::param::Param;
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`] tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(pub(crate) usize);

/// A custom differentiable operation (used by the CRF layers, whose gradients
/// are computed analytically via forward–backward rather than by tracing).
pub trait CustomOp {
    /// Gradient contributions to each parent, given the upstream gradient and
    /// the parents' forward values. Must return one tensor per parent with
    /// the parent's shape.
    fn grads(&self, out_grad: &Tensor, parent_values: &[&Tensor]) -> Vec<Tensor>;
    /// Name for error messages.
    fn name(&self) -> &'static str {
        "custom"
    }
}

enum Op {
    /// Constant leaf.
    Input,
    /// Leaf tied to an external parameter.
    Param(Param),
    /// Embedding gather: rows of the parameter indexed by `indices`.
    Lookup {
        param: Param,
        indices: Vec<usize>,
    },
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    /// `(m,n) + (1,n)` broadcast over rows.
    AddRow(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f32),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    ConcatCols(Vec<NodeId>),
    ConcatRows(Vec<NodeId>),
    SliceRows(NodeId, usize),
    MeanRows(NodeId),
    /// Column-wise max over rows; caches the argmax row per column.
    MaxRows(NodeId, Vec<usize>),
    SumCols(NodeId),
    SumRows(NodeId),
    SumAll(NodeId),
    Transpose(NodeId),
    SoftmaxRows(NodeId),
    Reshape(NodeId),
    /// Vertically tile the parent `t` times: rows `[A; A; ...; A]`.
    RepeatTile(NodeId, usize),
    /// Repeat each parent row `t` times consecutively.
    RepeatInterleave(NodeId, usize),
    /// Mean binary cross-entropy with logits against fixed targets.
    BceWithLogits(NodeId, Vec<f32>),
    Custom {
        parents: Vec<NodeId>,
        op: Box<dyn CustomOp>,
    },
}

/// A node's forward value: either computed by (and owned by) the tape, or a
/// shared snapshot of a parameter — sharing the `Arc` is what removes the
/// per-example deep copy of every parameter matrix from the hot path.
#[derive(Clone)]
enum NodeValue {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl Deref for NodeValue {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            NodeValue::Owned(t) => t,
            NodeValue::Shared(a) => a,
        }
    }
}

struct Node {
    value: NodeValue,
    grad: Tensor,
    op: Op,
}

/// An autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Per-parameter snapshot cache: id → (version at fetch, snapshot).
    /// Survives [`Graph::reset`] so steady-state reads are lock-free.
    snapshots: HashMap<u64, (u64, Arc<Tensor>)>,
}

impl Graph {
    /// Create a new instance.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(64),
            snapshots: HashMap::new(),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear the tape for the next example, keeping node capacity and the
    /// parameter snapshot cache (arena reuse on the training path).
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// Current snapshot of `p`, revalidated by version. One `Acquire` load
    /// on the hit path; refetches under the read lock only after the
    /// parameter was written (at most once per param per optimizer step).
    ///
    /// A write racing between the version load and the snapshot fetch can
    /// cache a newer value under the older version; the next call then sees
    /// a version mismatch and refetches — the cache can run one step behind
    /// for one read, never serve a torn or stale-forever value.
    fn snapshot_of(&mut self, p: &Param) -> Arc<Tensor> {
        let version = p.version();
        match self.snapshots.get(&p.id()) {
            Some((v, arc)) if *v == version => Arc::clone(arc),
            _ => {
                let arc = p.value_arc();
                self.snapshots.insert(p.id(), (version, Arc::clone(&arc)));
                arc
            }
        }
    }

    fn push_value(&mut self, value: NodeValue, op: Op) -> NodeId {
        let (r, c) = value.shape();
        self.nodes.push(Node {
            value,
            grad: Tensor::zeros(r, c),
            op,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.push_value(NodeValue::Owned(value), op)
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Accumulated gradient of a node (after [`Graph::backward`]).
    pub fn grad(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].grad
    }

    // ---- leaves ---------------------------------------------------------

    /// Constant input leaf.
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Input)
    }

    /// Leaf reading a parameter's current value; gradients accumulate into
    /// the parameter on `backward`. The node shares the parameter's snapshot
    /// pointer — no lock on the cached path and no tensor copy.
    pub fn param(&mut self, p: &Param) -> NodeId {
        let value = self.snapshot_of(p);
        self.push_value(NodeValue::Shared(value), Op::Param(p.clone()))
    }

    /// Embedding lookup: gathers `indices` rows of `p` into an
    /// `(indices.len(), dim)` matrix. Gradients scatter-add back into `p`.
    /// The gather runs against the cached snapshot, not under a lock.
    pub fn lookup(&mut self, p: &Param, indices: &[usize]) -> NodeId {
        let out = self.gather(p, indices);
        self.push(
            out,
            Op::Lookup {
                param: p.clone(),
                indices: indices.to_vec(),
            },
        )
    }

    /// [`Graph::lookup`] from a frozen table: the same gathered rows, as a
    /// constant leaf, so no gradient ever reaches `p`.
    pub fn lookup_frozen(&mut self, p: &Param, indices: &[usize]) -> NodeId {
        let out = self.gather(p, indices);
        self.push(out, Op::Input)
    }

    fn gather(&mut self, p: &Param, indices: &[usize]) -> Tensor {
        let table = self.snapshot_of(p);
        let mut out = Tensor::zeros(indices.len(), table.cols());
        for (r, &ix) in indices.iter().enumerate() {
            assert!(
                ix < table.rows(),
                "lookup index {ix} out of range {}",
                table.rows()
            );
            out.row_slice_mut(r).copy_from_slice(table.row_slice(ix));
        }
        out
    }

    // ---- arithmetic ------------------------------------------------------

    /// Matmul.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Add.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast add: `a` is `(m,n)`, `b` is `(1,n)`.
    pub fn add_row(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        assert_eq!(
            self.value(b).shape(),
            (1, n),
            "add_row: bias must be (1,{n})"
        );
        let mut v = self.value(a).clone();
        for r in 0..m {
            let bias = self.nodes[b.0].value.row_slice(0).to_vec();
            for (x, bi) in v.row_slice_mut(r).iter_mut().zip(bias) {
                *x += bi;
            }
        }
        self.push(v, Op::AddRow(a, b))
    }

    /// Sub.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Mul.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Scale.
    pub fn scale(&mut self, a: NodeId, alpha: f32) -> NodeId {
        let v = self.value(a).scale(alpha);
        self.push(v, Op::Scale(a, alpha))
    }

    // ---- activations -----------------------------------------------------

    /// Sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Tanh.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Relu.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Softmax rows.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).softmax_rows();
        self.push(v, Op::SoftmaxRows(a))
    }

    // ---- shape ops -------------------------------------------------------

    /// Concat cols.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let values: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::hstack(&values);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Concat rows.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        let values: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::vstack(&values);
        self.push(v, Op::ConcatRows(parts.to_vec()))
    }

    /// Rows `[start, start+len)` of `a`.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let src = self.value(a);
        let cols = src.cols();
        assert!(start + len <= src.rows(), "slice_rows out of bounds");
        let mut v = Tensor::zeros(len, cols);
        for r in 0..len {
            v.row_slice_mut(r).copy_from_slice(src.row_slice(start + r));
        }
        self.push(v, Op::SliceRows(a, start))
    }

    /// Mean over rows: `(m,n) -> (1,n)`.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let src = self.value(a);
        let (m, n) = src.shape();
        let mut v = Tensor::zeros(1, n);
        for r in 0..m {
            for c in 0..n {
                v.data_mut()[c] += src.get(r, c);
            }
        }
        let v = v.scale(1.0 / m as f32);
        self.push(v, Op::MeanRows(a))
    }

    /// Column-wise max over rows: `(m,n) -> (1,n)`.
    pub fn max_rows(&mut self, a: NodeId) -> NodeId {
        let src = self.value(a);
        let (m, n) = src.shape();
        assert!(m > 0, "max_rows over empty tensor");
        let mut v = Tensor::full(1, n, f32::NEG_INFINITY);
        let mut arg = vec![0usize; n];
        for r in 0..m {
            for c in 0..n {
                let x = src.get(r, c);
                if x > v.get(0, c) {
                    v.put(0, c, x);
                    arg[c] = r;
                }
            }
        }
        self.push(v, Op::MaxRows(a, arg))
    }

    /// Row sums: `(m,n) -> (m,1)`.
    pub fn sum_cols(&mut self, a: NodeId) -> NodeId {
        let src = self.value(a);
        let (m, n) = src.shape();
        let mut v = Tensor::zeros(m, 1);
        for r in 0..m {
            let mut acc = 0.0;
            for c in 0..n {
                acc += src.get(r, c);
            }
            v.put(r, 0, acc);
        }
        self.push(v, Op::SumCols(a))
    }

    /// Column sums: `(m,n) -> (1,n)`.
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let src = self.value(a);
        let (m, n) = src.shape();
        let mut v = Tensor::zeros(1, n);
        for r in 0..m {
            for c in 0..n {
                v.data_mut()[c] += src.get(r, c);
            }
        }
        self.push(v, Op::SumRows(a))
    }

    /// Sum of all elements: `(m,n) -> (1,1)`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(v, Op::SumAll(a))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Reshape.
    pub fn reshape(&mut self, a: NodeId, rows: usize, cols: usize) -> NodeId {
        let v = self.value(a).reshape(rows, cols);
        self.push(v, Op::Reshape(a))
    }

    /// Vertically tile `a` `t` times: `(m,n) -> (t*m, n)` as `[A; A; ...]`.
    pub fn repeat_tile(&mut self, a: NodeId, t: usize) -> NodeId {
        let src = self.value(a);
        let refs: Vec<&Tensor> = (0..t).map(|_| src).collect();
        let v = Tensor::vstack(&refs);
        self.push(v, Op::RepeatTile(a, t))
    }

    /// Repeat each row of `a` `t` times consecutively: row order
    /// `a0,a0,..,a1,a1,..`.
    pub fn repeat_interleave(&mut self, a: NodeId, t: usize) -> NodeId {
        let src = self.value(a);
        let (m, n) = src.shape();
        let mut v = Tensor::zeros(m * t, n);
        for r in 0..m {
            for k in 0..t {
                v.row_slice_mut(r * t + k).copy_from_slice(src.row_slice(r));
            }
        }
        self.push(v, Op::RepeatInterleave(a, t))
    }

    // ---- losses ----------------------------------------------------------

    /// Mean binary cross-entropy with logits. `logits` is flattened; one
    /// target per element. Returns a scalar node.
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: &[f32]) -> NodeId {
        let x = self.value(logits);
        assert_eq!(
            x.len(),
            targets.len(),
            "bce: logits/targets length mismatch"
        );
        let mut loss = 0.0;
        for (&l, &t) in x.data().iter().zip(targets) {
            // Numerically stable: max(l,0) - l*t + ln(1+exp(-|l|)).
            loss += l.max(0.0) - l * t + (1.0 + (-l.abs()).exp()).ln();
        }
        loss /= targets.len() as f32;
        self.push(
            Tensor::scalar(loss),
            Op::BceWithLogits(logits, targets.to_vec()),
        )
    }

    /// Record a custom op with analytically computed gradients.
    pub fn custom(&mut self, parents: &[NodeId], value: Tensor, op: Box<dyn CustomOp>) -> NodeId {
        self.push(
            value,
            Op::Custom {
                parents: parents.to_vec(),
                op,
            },
        )
    }

    // ---- backward --------------------------------------------------------

    /// Backpropagate from `loss` (must be scalar). Gradients accumulate into
    /// each node and into any [`Param`] leaves.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward from non-scalar");
        self.nodes[loss.0].grad = Tensor::scalar(1.0);

        for i in (0..=loss.0).rev() {
            let g = self.nodes[i].grad.clone();
            if g.data().iter().all(|&v| v == 0.0) {
                continue;
            }
            // Collect (parent, contribution) pairs with only immutable access,
            // then apply. Keeps borrowck happy at the cost of small clones.
            let mut contrib: Vec<(usize, Tensor)> = Vec::new();
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(p) => p.grad_mut().add_assign(&g),
                Op::Lookup { param, indices } => {
                    let mut pg = param.grad_mut();
                    for (r, &ix) in indices.iter().enumerate() {
                        let src = g.row_slice(r);
                        for (dst, s) in pg.row_slice_mut(ix).iter_mut().zip(src) {
                            *dst += s;
                        }
                    }
                }
                Op::MatMul(a, b) => {
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    contrib.push((a.0, g.matmul_nt(bv)));
                    contrib.push((b.0, av.matmul_tn(&g)));
                }
                Op::Add(a, b) => {
                    contrib.push((a.0, g.clone()));
                    contrib.push((b.0, g.clone()));
                }
                Op::AddRow(a, b) => {
                    contrib.push((a.0, g.clone()));
                    let (m, n) = g.shape();
                    let mut gb = Tensor::zeros(1, n);
                    for r in 0..m {
                        for c in 0..n {
                            gb.data_mut()[c] += g.get(r, c);
                        }
                    }
                    contrib.push((b.0, gb));
                }
                Op::Sub(a, b) => {
                    contrib.push((a.0, g.clone()));
                    contrib.push((b.0, g.scale(-1.0)));
                }
                Op::Mul(a, b) => {
                    let av = self.nodes[a.0].value.clone();
                    let bv = self.nodes[b.0].value.clone();
                    contrib.push((a.0, g.mul(&bv)));
                    contrib.push((b.0, g.mul(&av)));
                }
                Op::Scale(a, alpha) => contrib.push((a.0, g.scale(*alpha))),
                Op::Sigmoid(a) => {
                    let y = &self.nodes[i].value;
                    let d = y.map(|v| v * (1.0 - v));
                    contrib.push((a.0, g.mul(&d)));
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let d = y.map(|v| 1.0 - v * v);
                    contrib.push((a.0, g.mul(&d)));
                }
                Op::Relu(a) => {
                    let x = &self.nodes[a.0].value;
                    let d = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    contrib.push((a.0, g.mul(&d)));
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[i].value;
                    let (m, n) = y.shape();
                    let mut ga = Tensor::zeros(m, n);
                    for r in 0..m {
                        let yr = y.row_slice(r);
                        let gr = g.row_slice(r);
                        let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                        for c in 0..n {
                            ga.put(r, c, yr[c] * (gr[c] - dot));
                        }
                    }
                    contrib.push((a.0, ga));
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    let rows = g.rows();
                    for &p in parts {
                        let pc = self.nodes[p.0].value.cols();
                        let mut gp = Tensor::zeros(rows, pc);
                        for r in 0..rows {
                            gp.row_slice_mut(r)
                                .copy_from_slice(&g.row_slice(r)[offset..offset + pc]);
                        }
                        contrib.push((p.0, gp));
                        offset += pc;
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let pr = self.nodes[p.0].value.rows();
                        let cols = g.cols();
                        let mut gp = Tensor::zeros(pr, cols);
                        for r in 0..pr {
                            gp.row_slice_mut(r).copy_from_slice(g.row_slice(offset + r));
                        }
                        contrib.push((p.0, gp));
                        offset += pr;
                    }
                }
                Op::SliceRows(a, start) => {
                    let (pr, pc) = self.nodes[a.0].value.shape();
                    let mut gp = Tensor::zeros(pr, pc);
                    for r in 0..g.rows() {
                        gp.row_slice_mut(start + r).copy_from_slice(g.row_slice(r));
                    }
                    contrib.push((a.0, gp));
                }
                Op::MeanRows(a) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    let mut gp = Tensor::zeros(m, n);
                    let inv = 1.0 / m as f32;
                    for r in 0..m {
                        for c in 0..n {
                            gp.put(r, c, g.get(0, c) * inv);
                        }
                    }
                    contrib.push((a.0, gp));
                }
                Op::MaxRows(a, arg) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    let mut gp = Tensor::zeros(m, n);
                    for c in 0..n {
                        gp.put(arg[c], c, g.get(0, c));
                    }
                    contrib.push((a.0, gp));
                }
                Op::SumCols(a) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    let mut gp = Tensor::zeros(m, n);
                    for r in 0..m {
                        for c in 0..n {
                            gp.put(r, c, g.get(r, 0));
                        }
                    }
                    contrib.push((a.0, gp));
                }
                Op::SumRows(a) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    let mut gp = Tensor::zeros(m, n);
                    for r in 0..m {
                        for c in 0..n {
                            gp.put(r, c, g.get(0, c));
                        }
                    }
                    contrib.push((a.0, gp));
                }
                Op::SumAll(a) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    contrib.push((a.0, Tensor::full(m, n, g.item())));
                }
                Op::Transpose(a) => contrib.push((a.0, g.transpose())),
                Op::Reshape(a) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    contrib.push((a.0, g.reshape(m, n)));
                }
                Op::RepeatTile(a, t) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    let mut gp = Tensor::zeros(m, n);
                    for k in 0..*t {
                        for r in 0..m {
                            for c in 0..n {
                                let v = gp.get(r, c) + g.get(k * m + r, c);
                                gp.put(r, c, v);
                            }
                        }
                    }
                    contrib.push((a.0, gp));
                }
                Op::RepeatInterleave(a, t) => {
                    let (m, n) = self.nodes[a.0].value.shape();
                    let mut gp = Tensor::zeros(m, n);
                    for r in 0..m {
                        for k in 0..*t {
                            for c in 0..n {
                                let v = gp.get(r, c) + g.get(r * t + k, c);
                                gp.put(r, c, v);
                            }
                        }
                    }
                    contrib.push((a.0, gp));
                }
                Op::BceWithLogits(a, targets) => {
                    let x = &self.nodes[a.0].value;
                    let (m, n) = x.shape();
                    let scale = g.item() / targets.len() as f32;
                    let mut gp = Tensor::zeros(m, n);
                    for (k, (&l, &t)) in x.data().iter().zip(targets).enumerate() {
                        let sig = 1.0 / (1.0 + (-l).exp());
                        gp.data_mut()[k] = scale * (sig - t);
                    }
                    contrib.push((a.0, gp));
                }
                Op::Custom { parents, op } => {
                    let values: Vec<&Tensor> =
                        parents.iter().map(|p| &*self.nodes[p.0].value).collect();
                    let grads = op.grads(&g, &values);
                    assert_eq!(
                        grads.len(),
                        parents.len(),
                        "{}: wrong grad count",
                        op.name()
                    );
                    for (&p, gp) in parents.iter().zip(grads) {
                        contrib.push((p.0, gp));
                    }
                }
            }
            for (pid, t) in contrib {
                self.nodes[pid].grad.add_assign(&t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use rand::SeedableRng;

    /// Finite-difference gradient check of `f` w.r.t. a parameter.
    fn grad_check(build: impl Fn(&mut Graph, &Param) -> NodeId, rows: usize, cols: usize) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let p = Param::new("p", Tensor::uniform(rows, cols, 0.5, &mut rng));
        let mut g = Graph::new();
        let loss = build(&mut g, &p);
        g.backward(loss);
        let analytic = p.grad().clone();
        let eps = 1e-3f32;
        for k in 0..rows * cols {
            let orig = p.value().data()[k];
            p.value_mut().data_mut()[k] = orig + eps;
            let mut g1 = Graph::new();
            let l1 = build(&mut g1, &p);
            let f1 = g1.value(l1).item();
            p.value_mut().data_mut()[k] = orig - eps;
            let mut g2 = Graph::new();
            let l2 = build(&mut g2, &p);
            let f2 = g2.value(l2).item();
            p.value_mut().data_mut()[k] = orig;
            let numeric = (f1 - f2) / (2.0 * eps);
            let a = analytic.data()[k];
            assert!(
                (a - numeric).abs() < 1e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad mismatch at {k}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul_chain() {
        grad_check(
            |g, p| {
                let x = g.input(Tensor::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]));
                let w = g.param(p);
                let y = g.matmul(x, w);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            3,
            2,
        );
    }

    #[test]
    fn grad_sigmoid_mul() {
        grad_check(
            |g, p| {
                let w = g.param(p);
                let s = g.sigmoid(w);
                let m = g.mul(s, w);
                g.sum_all(m)
            },
            2,
            2,
        );
    }

    #[test]
    fn grad_softmax_rows() {
        grad_check(
            |g, p| {
                let w = g.param(p);
                let s = g.softmax_rows(w);
                let x = g.input(Tensor::from_vec(2, 3, vec![1.0, -1.0, 2.0, 0.5, 0.3, -0.7]));
                let m = g.mul(s, x);
                g.sum_all(m)
            },
            2,
            3,
        );
    }

    #[test]
    fn grad_bce_with_logits() {
        grad_check(
            |g, p| {
                let w = g.param(p);
                g.bce_with_logits(w, &[1.0, 0.0, 1.0])
            },
            3,
            1,
        );
    }

    #[test]
    fn grad_pooling_and_concat() {
        grad_check(
            |g, p| {
                let w = g.param(p);
                let mx = g.max_rows(w);
                let mn = g.mean_rows(w);
                let cat = g.concat_cols(&[mx, mn]);
                let t = g.tanh(cat);
                g.sum_all(t)
            },
            3,
            2,
        );
    }

    #[test]
    fn grad_repeat_and_slice() {
        grad_check(
            |g, p| {
                let w = g.param(p);
                let tile = g.repeat_tile(w, 3);
                let inter = g.repeat_interleave(w, 3);
                let s = g.add(tile, inter);
                let sl = g.slice_rows(s, 1, 4);
                let t = g.sigmoid(sl);
                g.sum_all(t)
            },
            2,
            2,
        );
    }

    #[test]
    fn grad_add_row_broadcast() {
        grad_check(
            |g, p| {
                let x = g.input(Tensor::from_vec(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.0, -0.1]));
                let b = g.param(p);
                let y = g.add_row(x, b);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            1,
            2,
        );
    }

    #[test]
    fn grad_transpose_reshape() {
        grad_check(
            |g, p| {
                let w = g.param(p);
                let t = g.transpose(w);
                let r = g.reshape(t, 1, 6);
                let s = g.sigmoid(r);
                g.sum_all(s)
            },
            2,
            3,
        );
    }

    #[test]
    fn lookup_accumulates_into_rows() {
        let p = Param::new(
            "emb",
            Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        let mut g = Graph::new();
        let e = g.lookup(&p, &[0, 2, 0]);
        assert_eq!(g.value(e).row_slice(0), &[1.0, 2.0]);
        assert_eq!(g.value(e).row_slice(1), &[5.0, 6.0]);
        let loss = g.sum_all(e);
        g.backward(loss);
        // Row 0 used twice, row 1 unused, row 2 once.
        assert_eq!(p.grad().row_slice(0), &[2.0, 2.0]);
        assert_eq!(p.grad().row_slice(1), &[0.0, 0.0]);
        assert_eq!(p.grad().row_slice(2), &[1.0, 1.0]);
    }

    #[test]
    fn frozen_lookup_gathers_rows_but_takes_no_gradient() {
        let p = Param::new(
            "emb",
            Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        let mut g = Graph::new();
        let e = g.lookup_frozen(&p, &[2, 0]);
        assert_eq!(g.value(e).row_slice(0), &[5.0, 6.0]);
        assert_eq!(g.value(e).row_slice(1), &[1.0, 2.0]);
        let loss = g.sum_all(e);
        g.backward(loss);
        assert_eq!(
            g.grad(e).data(),
            &[1.0; 4],
            "the gather node still backprops"
        );
        assert_eq!(
            p.grad().data(),
            &[0.0; 6],
            "a frozen table collects no gradient"
        );
    }

    #[test]
    fn value_reuse_accumulates_gradient() {
        // y = w + w should give dy/dw = 2.
        let p = Param::new("w", Tensor::scalar(1.5));
        let mut g = Graph::new();
        let w = g.param(&p);
        let y = g.add(w, w);
        g.backward(y);
        assert_eq!(p.grad().item(), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-scalar")]
    fn backward_from_matrix_panics() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x);
    }

    #[test]
    fn reset_reuses_tape_and_matches_fresh_graph() {
        let p = Param::new("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let mut reused = Graph::new();
        for _ in 0..3 {
            reused.reset();
            let w = reused.param(&p);
            let s = reused.sigmoid(w);
            let loss = reused.sum_all(s);
            reused.backward(loss);

            let mut fresh = Graph::new();
            let w2 = fresh.param(&p);
            let s2 = fresh.sigmoid(w2);
            let loss2 = fresh.sum_all(s2);
            fresh.backward(loss2);

            assert_eq!(reused.value(loss).data(), fresh.value(loss2).data());
            assert_eq!(reused.len(), fresh.len());
        }
    }

    #[test]
    fn snapshot_cache_sees_writes_across_reset() {
        // The lock-free cached read must revalidate by version: a parameter
        // write between tapes has to be visible to the next `param` node.
        let p = Param::new("w", Tensor::scalar(1.0));
        let mut g = Graph::new();
        let w = g.param(&p);
        assert_eq!(g.value(w).item(), 1.0);
        *p.value_mut() = Tensor::scalar(5.0);
        g.reset();
        let w = g.param(&p);
        assert_eq!(g.value(w).item(), 5.0, "stale snapshot served after write");
        // And lookups go through the same cache.
        let e = g.lookup(&p, &[0]);
        assert_eq!(g.value(e).item(), 5.0);
    }
}
