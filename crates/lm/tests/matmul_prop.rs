//! Property tests: `matmul`, `matmul_bt`, `matmul_at` and `affine` are
//! *bit-identical* to one naive reference loop for generated shapes, values
//! and thread counts.
//!
//! The reference is the per-element order the product kernel documents:
//! start from the bias (or zero), add `a[i][k] · b[k][j]` in ascending `k`,
//! skip `a[i][k] == 0.0`. Shapes put the output width below, at, above and
//! off multiples of the kernel's 16-wide register tile, and the row count
//! past its 16-row chunks; left operands hold exact `0.0` and `-0.0`, and
//! sometimes a whole zero row, so an output element can be its bias
//! untouched. Equality is exact `f32` equality, not approximate.

use proptest::prelude::*;
use proptest::sample::select;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lejit_lm::tensor::Matrix;

/// The naive reference: `out[i][j] = init(j) + Σₖ a(i,k)·b(k,j)`, summed in
/// ascending `k` with zero `a` terms skipped.
fn reference(
    (m, kdim, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    init: impl Fn(usize) -> f32,
) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = init(j);
            for k in 0..kdim {
                let x = a(i, k);
                if x != 0.0 {
                    acc += x * b(k, j);
                }
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// A random matrix with ~10 % exact `0.0` and ~5 % `-0.0` entries.
fn rand_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::randn(rows, cols, 1.0, rng);
    for v in m.data_mut() {
        let u = rng.random::<f32>();
        if u < 0.10 {
            *v = 0.0;
        } else if u < 0.15 {
            *v = -0.0;
        }
    }
    m
}

/// `m` with row `r` (if in range) set to alternating `0.0` / `-0.0`.
fn with_zero_row(mut m: Matrix, r: usize) -> Matrix {
    if r < m.rows() {
        for (c, v) in m.row_mut(r).iter_mut().enumerate() {
            *v = if c % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    m
}

/// `f32` equality on the bits, so a `-0.0` / `+0.0` mix-up fails too.
fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn products_equal_the_naive_reference_at_1_2_4_threads(
        m_dim in 1usize..=40,
        k_dim in 1usize..=80,
        n_dim in select(vec![1usize, 7, 15, 16, 17, 31, 32, 33, 40, 48, 63, 70]),
        zero_row in 0usize..=60,
        seed in 0u64..=1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = with_zero_row(rand_matrix(m_dim, k_dim, &mut rng), zero_row);
        let b = rand_matrix(k_dim, n_dim, &mut rng);
        let bias = rand_matrix(1, n_dim, &mut rng);
        let b_t = rand_matrix(n_dim, k_dim, &mut rng); // for a · b_tᵀ
        let a_t = with_zero_row(rand_matrix(k_dim, m_dim, &mut rng), zero_row); // for a_tᵀ · b

        let shape = (m_dim, k_dim, n_dim);
        let want_mm = reference(shape, |i, k| a.get(i, k), |k, j| b.get(k, j), |_| 0.0);
        let want_affine = reference(shape, |i, k| a.get(i, k), |k, j| b.get(k, j), |j| bias.get(0, j));
        let want_bt = reference(shape, |i, k| a.get(i, k), |k, j| b_t.get(j, k), |_| 0.0);
        let want_at = reference(shape, |i, k| a_t.get(k, i), |k, j| b.get(k, j), |_| 0.0);
        for threads in [1, 2, 4] {
            minipool::set_global_threads(threads);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&want_mm), "matmul, threads={}", threads);
            prop_assert_eq!(bits(&a.affine(&b, &bias)), bits(&want_affine), "affine, threads={}", threads);
            prop_assert_eq!(bits(&a.matmul_bt(&b_t)), bits(&want_bt), "matmul_bt, threads={}", threads);
            prop_assert_eq!(bits(&a_t.matmul_at(&b)), bits(&want_at), "matmul_at, threads={}", threads);
        }
        minipool::set_global_threads(1);
    }
}
