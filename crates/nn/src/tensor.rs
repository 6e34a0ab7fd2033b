//! Dense 2-D `f32` tensors.
//!
//! Every value flowing through the autodiff graph is a row-major matrix.
//! Vectors are represented as `(1, n)` or `(n, 1)` matrices; scalars as
//! `(1, 1)`. This is all the paper's models need: sequences are `(len, dim)`
//! matrices, batches are processed one example at a time (the datasets are
//! synthetic and small, and the models are tiny by deep-learning standards).

use rand::Rng;

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Create a `(1, n)` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Tensor {
            rows: 1,
            cols,
            data,
        }
    }

    /// Create a `(1, 1)` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    /// Xavier/Glorot uniform initialization: `U(-a, a)` with
    /// `a = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect();
        Tensor { rows, cols, data }
    }

    /// Uniform initialization in `(-a, a)`.
    pub fn uniform<R: Rng>(rows: usize, cols: usize, a: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect();
        Tensor { rows, cols, data }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Cols.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Data mut.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    /// Write the entry at row `r`, column `c`.
    pub fn put(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    /// Row slice mut.
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `(1, 1)` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1x1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar tensor");
        self.data[0]
    }

    /// Matrix product `self x rhs`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: ({},{}) x ({},{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        // i-k-j loop order: the inner loop walks both `rhs` and `out` rows
        // contiguously, which matters once embedding tables get wide.
        for i in 0..self.rows {
            let out_row = i * rhs.cols;
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = k * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[out_row + j] += a * rhs.data[rhs_row + j];
                }
            }
        }
        out
    }

    /// `self^T x rhs` without materializing the transpose.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "matmul_tn shape mismatch");
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            for i in 0..self.cols {
                let a = self.data[k * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                let out_row = i * rhs.cols;
                let rhs_row = k * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[out_row + j] += a * rhs.data[rhs_row + j];
                }
            }
        }
        out
    }

    /// `self x rhs^T` without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_nt shape mismatch");
        let mut out = Tensor::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            for j in 0..rhs.rows {
                let mut acc = 0.0;
                let a_row = i * self.cols;
                let b_row = j * rhs.cols;
                for k in 0..self.cols {
                    acc += self.data[a_row + k] * rhs.data[b_row + k];
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise `self + rhs` (same shape).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise in-place accumulate.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise `self - rhs`.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "mul shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Apply `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Set all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Dot product of two tensors with identical shapes (flattened).
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "dot shape mismatch");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Reinterpret the buffer with a new shape (same element count).
    pub fn reshape(&self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(
            rows * cols,
            self.data.len(),
            "reshape element count mismatch"
        );
        Tensor {
            rows,
            cols,
            data: self.data.clone(),
        }
    }

    /// Stack `mats` vertically. All must share the column count.
    pub fn vstack(mats: &[&Tensor]) -> Tensor {
        assert!(!mats.is_empty(), "vstack of zero tensors");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Tensor { rows, cols, data }
    }

    /// Stack `mats` horizontally. All must share the row count.
    pub fn hstack(mats: &[&Tensor]) -> Tensor {
        assert!(!mats.is_empty(), "hstack of zero tensors");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in mats {
                assert_eq!(m.rows, rows, "hstack row mismatch");
                out.data[r * cols + offset..r * cols + offset + m.cols]
                    .copy_from_slice(m.row_slice(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Numerically stable softmax applied independently to each row.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = out.row_slice_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Index of the maximum element (row-major, first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }
}

/// Numerically stable `log(sum(exp(xs)))`.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    let sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Tensor::xavier(4, 3, &mut rng);
        let b = Tensor::xavier(4, 5, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Tensor::xavier(4, 3, &mut rng);
        let b = Tensor::xavier(5, 3, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn stacking() {
        let a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        let v = Tensor::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.data(), &[1.0, 2.0, 3.0, 4.0]);
        let h = Tensor::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // monotone within row
        assert!(s.get(0, 0) < s.get(0, 1) && s.get(0, 1) < s.get(0, 2));
    }

    #[test]
    fn softmax_rows_handles_large_values() {
        let t = Tensor::row(vec![1000.0, 1000.0]);
        let s = t.softmax_rows();
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_stability() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2.0f32.ln())).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[f32::NEG_INFINITY]), f32::NEG_INFINITY);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let t = Tensor::xavier(10, 10, &mut rng);
        let a = (6.0f32 / 20.0).sqrt();
        assert!(t.data().iter().all(|&v| v > -a && v < a));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshape(3, 2);
        assert_eq!(r.get(2, 1), 6.0);
        assert_eq!(r.reshape(2, 3), t);
    }
}
