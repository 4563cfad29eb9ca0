//! Dense row-major `f32` matrices with the kernels a tiny transformer needs.
//!
//! No SIMD intrinsics, no unsafe. The three matrix products are *blocked*
//! (cache-tiled over the inner and output-column dimensions) and
//! *row-parallel* over the workspace thread pool ([`minipool`]) once a
//! product is large enough to amortize the scoped-thread spawn; small
//! products run the serial kernel inline. Every kernel accumulates each
//! output element in ascending inner-dimension order regardless of tiling
//! or thread count, so results are bit-identical to the naive triple loop —
//! the workspace-wide determinism contract.

use minipool::ThreadPool;
use rand::Rng;

/// Tile height of the inner (`k`) dimension: one tile of the right-hand
/// matrix is `MM_BLOCK_K` rows long and stays cache-resident while a block
/// of output rows consumes it.
const MM_BLOCK_K: usize = 64;

/// Tile width of the output-column (`j`) dimension (with `MM_BLOCK_K` this
/// bounds the right-hand tile at 64 KiB of `f32`).
const MM_BLOCK_J: usize = 256;

/// Output rows handed to one worker at a time. Chosen so a row block's
/// accumulators stay in cache while it sweeps the shared right-hand tile.
const MM_BLOCK_I: usize = 16;

/// Minimum multiply-accumulate count before a product is worth
/// parallelizing; below this the scoped-thread spawn dominates.
const MM_PAR_MIN_MACS: usize = 1 << 15;

/// The pool for a product of `macs` multiply-accumulates over `rows`
/// output rows: the global pool when the work justifies spawning, else an
/// inline single-worker pool.
fn matmul_pool(rows: usize, macs: usize) -> ThreadPool {
    if rows > 1 && macs >= MM_PAR_MIN_MACS {
        ThreadPool::global()
    } else {
        ThreadPool::new(1)
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// A matrix with entries drawn i.i.d. from `N(0, std²)` (Box–Muller).
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Matrix {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.random::<f32>().max(1e-12);
            let u2: f32 = rng.random::<f32>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`, blocked and row-parallel.
    ///
    /// Output rows are computed in `MM_BLOCK_I`-row chunks distributed
    /// over the global pool; within a chunk the kernel tiles the inner and
    /// output-column dimensions so the active slice of `other` stays in
    /// cache. Per output element the accumulation runs in ascending-`k`
    /// order, so the result is bit-identical to the naive `i-k-j` loop at
    /// any thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        if n == 0 || self.rows == 0 {
            return out;
        }
        let pool = matmul_pool(self.rows, self.rows * self.cols * n);
        pool.run_chunks(&mut out.data, MM_BLOCK_I * n, |chunk_idx, out_chunk| {
            let r0 = chunk_idx * MM_BLOCK_I;
            let chunk_rows = out_chunk.len() / n;
            for jb in (0..n).step_by(MM_BLOCK_J) {
                let j_end = (jb + MM_BLOCK_J).min(n);
                for kb in (0..self.cols).step_by(MM_BLOCK_K) {
                    let k_end = (kb + MM_BLOCK_K).min(self.cols);
                    for i in 0..chunk_rows {
                        let a_row = self.row(r0 + i);
                        let out_row = &mut out_chunk[i * n + jb..i * n + j_end];
                        for (dk, &a) in a_row[kb..k_end].iter().enumerate() {
                            if a == 0.0 {
                                continue;
                            }
                            let k = kb + dk;
                            let b_row = &other.data[k * n + jb..k * n + j_end];
                            for (o, &b) in out_row.iter_mut().zip(b_row) {
                                *o += a * b;
                            }
                        }
                    }
                }
            }
        });
        out
    }

    /// Batched affine map `self · w + bias` (bias broadcast to every row),
    /// blocked and row-parallel like [`Matrix::matmul`].
    ///
    /// This is the kernel behind the KV-cached forward step: each row of
    /// `self` is one lane's activation, and each output row is computed on
    /// its own (initialize with `bias`, then accumulate `x[k] · w[k][j]` in
    /// ascending-`k` order, skipping `x[k] == 0.0`). Batching therefore
    /// changes how many rows share one sweep of `w`, never the float result
    /// of any individual row — the foundation of the workspace's
    /// "byte-identical at any `LEJIT_BATCH`" contract.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `bias` is not `1 × w.cols()`.
    pub fn affine(&self, w: &Matrix, bias: &Matrix) -> Matrix {
        assert_eq!(self.cols, w.rows, "affine dimension mismatch");
        assert_eq!(bias.rows, 1, "affine bias must be a row vector");
        assert_eq!(bias.cols, w.cols, "affine bias width mismatch");
        let n = w.cols;
        let mut out = Matrix::zeros(self.rows, n);
        if n == 0 || self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(bias.row(0));
        }
        let pool = matmul_pool(self.rows, self.rows * self.cols * n);
        pool.run_chunks(&mut out.data, MM_BLOCK_I * n, |chunk_idx, out_chunk| {
            let r0 = chunk_idx * MM_BLOCK_I;
            let chunk_rows = out_chunk.len() / n;
            for jb in (0..n).step_by(MM_BLOCK_J) {
                let j_end = (jb + MM_BLOCK_J).min(n);
                for kb in (0..self.cols).step_by(MM_BLOCK_K) {
                    let k_end = (kb + MM_BLOCK_K).min(self.cols);
                    for i in 0..chunk_rows {
                        let a_row = self.row(r0 + i);
                        let out_row = &mut out_chunk[i * n + jb..i * n + j_end];
                        for (dk, &a) in a_row[kb..k_end].iter().enumerate() {
                            if a == 0.0 {
                                continue;
                            }
                            let k = kb + dk;
                            let b_row = &w.data[k * n + jb..k * n + j_end];
                            for (o, &b) in out_row.iter_mut().zip(b_row) {
                                *o += a * b;
                            }
                        }
                    }
                }
            }
        });
        out
    }

    /// `self · otherᵀ` without materializing the transpose (blocked,
    /// row-parallel; bit-identical to the naive loop at any thread count).
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_bt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        let n = other.rows;
        if n == 0 || self.rows == 0 {
            return out;
        }
        let pool = matmul_pool(self.rows, self.rows * self.cols * n);
        pool.run_chunks(&mut out.data, MM_BLOCK_I * n, |chunk_idx, out_chunk| {
            let r0 = chunk_idx * MM_BLOCK_I;
            let chunk_rows = out_chunk.len() / n;
            for jb in (0..n).step_by(MM_BLOCK_J) {
                let j_end = (jb + MM_BLOCK_J).min(n);
                for i in 0..chunk_rows {
                    let a_row = self.row(r0 + i);
                    let out_row = &mut out_chunk[i * n..(i + 1) * n];
                    for (j, o) in out_row[jb..j_end].iter_mut().enumerate() {
                        let b_row = other.row(jb + j);
                        let mut acc = 0.0f32;
                        for (x, y) in a_row.iter().zip(b_row) {
                            acc += x * y;
                        }
                        *o = acc;
                    }
                }
            }
        });
        out
    }

    /// `selfᵀ · other` without materializing the transpose (blocked,
    /// row-parallel; bit-identical to the naive loop at any thread count).
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_at dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        if n == 0 || self.cols == 0 {
            return out;
        }
        let pool = matmul_pool(self.cols, self.rows * self.cols * n);
        pool.run_chunks(&mut out.data, MM_BLOCK_I * n, |chunk_idx, out_chunk| {
            let r0 = chunk_idx * MM_BLOCK_I;
            let chunk_rows = out_chunk.len() / n;
            for jb in (0..n).step_by(MM_BLOCK_J) {
                let j_end = (jb + MM_BLOCK_J).min(n);
                for kb in (0..self.rows).step_by(MM_BLOCK_K) {
                    let k_end = (kb + MM_BLOCK_K).min(self.rows);
                    for k in kb..k_end {
                        let a_row = self.row(k);
                        let b_row = &other.data[k * n + jb..k * n + j_end];
                        for i in 0..chunk_rows {
                            let a = a_row[r0 + i];
                            if a == 0.0 {
                                continue;
                            }
                            let out_row = &mut out_chunk[i * n + jb..i * n + j_end];
                            for (o, &b) in out_row.iter_mut().zip(b_row) {
                                *o += a * b;
                            }
                        }
                    }
                }
            }
        });
        out
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds `other` into `self` in place, scaled by `k`.
    pub fn add_scaled_inplace(&mut self, other: &Matrix, k: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Adds a row vector (1×cols) to every row.
    pub fn add_row_broadcast(&self, row_vec: &Matrix) -> Matrix {
        assert_eq!(row_vec.rows, 1);
        assert_eq!(row_vec.cols, self.cols);
        let mut out = self.clone();
        for r in 0..self.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&row_vec.data) {
                *o += b;
            }
        }
        out
    }

    /// Elementwise multiplication by a scalar.
    pub fn scale(&self, k: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * k).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sums rows into a 1×cols row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Copies columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols);
        let w = end - start;
        let mut out = Matrix::zeros(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + start..r * self.cols + end]);
        }
        out
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows));
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                out.data[r * cols + off..r * cols + off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }
}

/// Numerically stable in-place softmax of a slice.
pub fn softmax_inplace(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    } else {
        // All entries were -inf: fall back to uniform (callers must treat
        // this as "no valid option", but we avoid NaNs).
        let n = xs.len() as f32;
        for x in xs.iter_mut() {
            *x = 1.0 / n;
        }
    }
}

/// GELU activation (tanh approximation, as in GPT-2).
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`].
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn matmul_basic() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 1., 2., 1., 0., 0., 1., 2., 1., 1., 1.]);
        let direct = a.matmul_bt(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(direct, explicit);
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &[1., 0., 1., 2., 1., 0., 0., 1., 2., 1., 1., 1.]);
        let direct = a.matmul_at(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(direct, explicit);
    }

    #[test]
    fn broadcast_and_scale() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let bias = m(1, 2, &[10., 20.]);
        let out = a.add_row_broadcast(&bias);
        assert_eq!(out.data(), &[11., 22., 13., 24.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn sum_rows_and_norm() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_rows().data(), &[5., 7., 9.]);
        assert_eq!(a.sum(), 21.0);
        assert!((m(1, 2, &[3., 4.]).frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let a = m(2, 4, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let left = a.slice_cols(0, 2);
        let right = a.slice_cols(2, 4);
        assert_eq!(left.data(), &[1., 2., 5., 6.]);
        assert_eq!(right.data(), &[3., 4., 7., 8.]);
        let back = Matrix::concat_cols(&[&left, &right]);
        assert_eq!(back, a);
    }

    #[test]
    fn softmax_is_stable_and_normalized() {
        let mut xs = vec![1000.0, 1001.0, 1002.0];
        softmax_inplace(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_all_masked_does_not_nan() {
        let mut xs = vec![f32::NEG_INFINITY; 4];
        softmax_inplace(&mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: analytic {} vs fd {fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn randn_statistics() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = Matrix::randn(50, 50, 1.0, &mut rng);
        let n = 2500.0;
        let mean = a.sum() / n;
        let var = a
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.1, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn blocked_matmul_matches_naive_across_thread_counts() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Larger than every block constant in at least one dim, and above
        // the parallel threshold, so the tiled+parallel path is exercised.
        let a = Matrix::randn(70, 130, 1.0, &mut rng);
        let b = Matrix::randn(130, 300, 1.0, &mut rng);
        let mut naive = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(i, k);
                for j in 0..b.cols() {
                    let v = naive.get(i, j) + av * b.get(k, j);
                    naive.set(i, j, v);
                }
            }
        }
        for threads in [1, 2, 4] {
            minipool::set_global_threads(threads);
            assert_eq!(a.matmul(&b), naive, "threads={threads}");
        }
        minipool::set_global_threads(1);
    }

    #[test]
    fn affine_rows_match_naive_accumulation_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let x = Matrix::randn(9, 48, 1.0, &mut rng);
        let w = Matrix::randn(48, 144, 1.0, &mut rng);
        let b = Matrix::randn(1, 144, 1.0, &mut rng);
        let batched = x.affine(&w, &b);
        // Reference: the documented per-row accumulation order (bias init,
        // ascending k, skip zero inputs).
        for r in 0..x.rows() {
            let mut serial: Vec<f32> = b.row(0).to_vec();
            for (k, &xv) in x.row(r).iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                for (o, &wv) in serial.iter_mut().zip(w.row(k)) {
                    *o += xv * wv;
                }
            }
            assert_eq!(batched.row(r), serial.as_slice(), "row {r} diverged");
        }
        // And the single-row batch equals the corresponding multi-row row.
        for r in 0..x.rows() {
            let one = Matrix::from_vec(1, 48, x.row(r).to_vec());
            assert_eq!(one.affine(&w, &b).row(0), batched.row(r));
        }
    }

    #[test]
    fn affine_is_thread_count_invariant() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let x = Matrix::randn(40, 130, 1.0, &mut rng);
        let w = Matrix::randn(130, 300, 1.0, &mut rng);
        let b = Matrix::randn(1, 300, 1.0, &mut rng);
        minipool::set_global_threads(1);
        let reference = x.affine(&w, &b);
        for threads in [2, 4] {
            minipool::set_global_threads(threads);
            assert_eq!(x.affine(&w, &b), reference, "threads={threads}");
        }
        minipool::set_global_threads(1);
    }

    #[test]
    #[should_panic(expected = "bias must be a row vector")]
    fn affine_rejects_non_row_bias() {
        let x = m(1, 2, &[1., 2.]);
        let w = m(2, 2, &[1., 0., 0., 1.]);
        let b = m(2, 1, &[0., 0.]);
        let _ = x.affine(&w, &b);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = m(2, 3, &[0.; 6]);
        let b = m(2, 3, &[0.; 6]);
        let _ = a.matmul(&b);
    }
}
