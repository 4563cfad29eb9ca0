//! Property tests: the blocked, row-parallel matrix kernels are
//! *bit-identical* to naive reference loops for random shapes, values, and
//! thread counts.
//!
//! This is the workspace determinism contract at the tensor layer: blocking
//! and parallelism may change *where* and *when* an output element is
//! computed, but never the per-element ascending-`k` accumulation order, so
//! equality here is exact `f32` equality, not approximate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_lm::tensor::Matrix;

/// Naive reference `a · b` (plain i-k-j triple loop).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            for j in 0..b.cols() {
                let v = out.get(i, j) + av * b.get(k, j);
                out.set(i, j, v);
            }
        }
    }
    out
}

/// Naive reference `a · bᵀ`.
fn naive_matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(j, k);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Naive reference `aᵀ · b`.
fn naive_matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.rows() {
                acc += a.get(k, i) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// A random matrix with some exact zeros, to exercise the sparsity skip.
fn rand_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    use rand::Rng;
    let mut m = Matrix::randn(rows, cols, 1.0, rng);
    for v in m.data_mut() {
        if rng.random::<f32>() < 0.1 {
            *v = 0.0;
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked/parallel kernels equal the naive loops exactly, for shapes
    /// straddling the block boundaries and for thread counts 1/2/4.
    #[test]
    fn blocked_kernels_equal_naive(
        m_dim in 1usize..=40,
        k_dim in 1usize..=80,
        n_dim in 1usize..=70,
        seed in 0u64..=1_000_000,
        threads in 1usize..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(m_dim, k_dim, &mut rng);
        let b = rand_matrix(k_dim, n_dim, &mut rng);
        minipool::set_global_threads(threads);
        prop_assert_eq!(a.matmul(&b), naive_matmul(&a, &b));

        let bt = rand_matrix(n_dim, k_dim, &mut rng);
        prop_assert_eq!(a.matmul_bt(&bt), naive_matmul_bt(&a, &bt));

        let at = rand_matrix(m_dim, n_dim, &mut rng);
        let a_t = rand_matrix(m_dim, k_dim, &mut rng);
        prop_assert_eq!(a_t.matmul_at(&at), naive_matmul_at(&a_t, &at));
        minipool::set_global_threads(1);
    }
}
