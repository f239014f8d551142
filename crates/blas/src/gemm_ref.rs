//! Reference GEMM implementations used as the correctness oracle.
//!
//! Every kernel the code generator emits is checked against these (the
//! paper's "testing" stage: kernels that fail testing are not counted).
//! Three implementations of the same contract are provided so they can
//! cross-check each other:
//!
//! * [`gemm_naive`] — the textbook triple loop; trusted by inspection.
//! * [`gemm_blocked`] — cache-blocked serial version; fast enough for
//!   medium problem sizes in tests.
//! * [`gemm_parallel`] — thread-parallel over row panels; used for the
//!   large validation runs of the integration suite.
//!
//! All compute `C ← α·op(A)·op(B) + β·C` on [`Matrix`] operands of any
//! storage order.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::GemmType;

/// Validate GEMM operand shapes; returns `(m, n, k)`, or a description
/// of the first inconsistency.
///
/// # Errors
/// When `op(A)` and `op(B)` disagree on the inner dimension, or `C` is
/// not `m × n`.
pub fn try_check_shapes<T: Scalar>(
    ty: GemmType,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &Matrix<T>,
) -> Result<(usize, usize, usize), String> {
    let (am, ak) = a.dims_op(ty.ta);
    let (bk, bn) = b.dims_op(ty.tb);
    if ak != bk {
        return Err(format!(
            "inner dimensions disagree: op(A) is {am}x{ak}, op(B) is {bk}x{bn}"
        ));
    }
    if (c.rows(), c.cols()) != (am, bn) {
        return Err(format!(
            "C is {}x{}, expected {am}x{bn}",
            c.rows(),
            c.cols()
        ));
    }
    Ok((am, bn, ak))
}

/// Validate GEMM operand shapes; returns `(m, n, k)`.
///
/// # Panics
/// Panics with [`try_check_shapes`]'s message if the shapes are
/// inconsistent — mirrors the argument checks of the reference BLAS.
pub fn check_shapes<T: Scalar>(
    ty: GemmType,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &Matrix<T>,
) -> (usize, usize, usize) {
    try_check_shapes(ty, a, b, c).unwrap_or_else(|e| panic!("{e}"))
}

/// Textbook triple-loop GEMM. `O(MNK)` with no blocking; the slowest and
/// most obviously correct implementation.
pub fn gemm_naive<T: Scalar>(
    ty: GemmType,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, n, k) = check_shapes(ty, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc = a.at_op(ty.ta, i, p).mul_add(b.at_op(ty.tb, p, j), acc);
            }
            let old = c.at(i, j);
            *c.at_mut(i, j) = alpha * acc + beta * old;
        }
    }
}

/// Cache-blocked serial GEMM. Accumulates in `f64`-free native precision
/// with the same FMA contract as the naive version but visits operands in
/// `BS × BS` tiles for locality.
pub fn gemm_blocked<T: Scalar>(
    ty: GemmType,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    const BS: usize = 64;
    let (m, n, k) = check_shapes(ty, a, b, c);

    // Scale C by beta up front, then accumulate alpha * op(A)op(B).
    for i in 0..m {
        for j in 0..n {
            let old = c.at(i, j);
            *c.at_mut(i, j) = beta * old;
        }
    }
    for jj in (0..n).step_by(BS) {
        let jmax = (jj + BS).min(n);
        for pp in (0..k).step_by(BS) {
            let pmax = (pp + BS).min(k);
            for ii in (0..m).step_by(BS) {
                let imax = (ii + BS).min(m);
                for i in ii..imax {
                    for j in jj..jmax {
                        let mut acc = T::ZERO;
                        for p in pp..pmax {
                            acc = a.at_op(ty.ta, i, p).mul_add(b.at_op(ty.tb, p, j), acc);
                        }
                        let old = c.at(i, j);
                        *c.at_mut(i, j) = alpha.mul_add(acc, old);
                    }
                }
            }
        }
    }
}

/// Thread-parallel GEMM: operands are first normalised into contiguous
/// row-major panels, then row blocks of `C` are computed in parallel.
pub fn gemm_parallel<T: Scalar>(
    ty: GemmType,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, n, k) = check_shapes(ty, a, b, c);
    if m == 0 || n == 0 {
        return;
    }

    // Normalise to op-applied row-major copies so the hot loop is a pure
    // slice walk (Matrix::at_op per element would dominate otherwise).
    let at: Vec<T> = (0..m * k)
        .map(|idx| a.at_op(ty.ta, idx / k, idx % k))
        .collect();
    let bt: Vec<T> = (0..k * n)
        .map(|idx| b.at_op(ty.tb, idx / n, idx % n))
        .collect();

    let mut out = vec![T::ZERO; m * n];
    clgemm_shim::par::par_chunks_mut(&mut out, n, |i, row| {
        let arow = &at[i * k..(i + 1) * k];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == T::ZERO {
                continue;
            }
            let brow = &bt[p * n..(p + 1) * n];
            for (dst, &bval) in row.iter_mut().zip(brow) {
                *dst = aval.mul_add(bval, *dst);
            }
        }
    });

    for i in 0..m {
        for j in 0..n {
            let old = c.at(i, j);
            *c.at_mut(i, j) = alpha.mul_add(out[i * n + j], beta * old);
        }
    }
}

/// Convenience: number of floating-point operations a GEMM of the given
/// shape performs (the 2·M·N·K the paper's GFlop/s numbers are based on).
#[must_use]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StorageOrder, Trans};

    fn operands(
        ty: GemmType,
        m: usize,
        n: usize,
        k: usize,
        order: StorageOrder,
    ) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        let (ar, ac) = match ty.ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match ty.tb {
            Trans::No => (k, n),
            Trans::Yes => (n, k),
        };
        (
            Matrix::test_pattern(ar, ac, order, 1),
            Matrix::test_pattern(br, bc, order, 2),
            Matrix::test_pattern(m, n, order, 3),
        )
    }

    #[test]
    fn identity_times_identity() {
        let eye =
            Matrix::<f64>::from_fn(
                4,
                4,
                StorageOrder::ColMajor,
                |i, j| {
                    if i == j {
                        1.0
                    } else {
                        0.0
                    }
                },
            );
        let mut c = Matrix::<f64>::zeros(4, 4, StorageOrder::ColMajor);
        gemm_naive(GemmType::NN, 1.0, &eye, &eye, 0.0, &mut c);
        assert_eq!(c, eye);
    }

    #[test]
    fn all_three_impls_agree_for_all_types() {
        for ty in GemmType::ALL {
            let (a, b, c0) = operands(ty, 17, 13, 9, StorageOrder::ColMajor);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            let mut c3 = c0.clone();
            gemm_naive(ty, 0.75, &a, &b, -0.5, &mut c1);
            gemm_blocked(ty, 0.75, &a, &b, -0.5, &mut c2);
            gemm_parallel(ty, 0.75, &a, &b, -0.5, &mut c3);
            for i in 0..17 {
                for j in 0..13 {
                    assert!(
                        (c1.at(i, j) - c2.at(i, j)).abs() < 1e-12,
                        "{ty} blocked mismatch"
                    );
                    assert!(
                        (c1.at(i, j) - c3.at(i, j)).abs() < 1e-12,
                        "{ty} parallel mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_even_garbage_c() {
        // beta = 0 must not propagate pre-existing values.
        let (a, b, _) = operands(GemmType::NN, 5, 5, 5, StorageOrder::RowMajor);
        let mut c = Matrix::from_fn(5, 5, StorageOrder::RowMajor, |_, _| 1e300);
        gemm_naive(GemmType::NN, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.all_finite());
    }

    #[test]
    fn alpha_zero_scales_c_only() {
        let (a, b, c0) = operands(GemmType::TN, 6, 4, 3, StorageOrder::ColMajor);
        let mut c = c0.clone();
        gemm_blocked(GemmType::TN, 0.0, &a, &b, 2.0, &mut c);
        for i in 0..6 {
            for j in 0..4 {
                assert!((c.at(i, j) - 2.0 * c0.at(i, j)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn row_and_col_major_inputs_give_same_answer() {
        let ty = GemmType::NT;
        let (ac, bc, cc) = operands(ty, 8, 7, 6, StorageOrder::ColMajor);
        let ar = ac.to_order(StorageOrder::RowMajor);
        let br = bc.to_order(StorageOrder::RowMajor);
        let mut c1 = cc.clone();
        let mut c2 = cc.to_order(StorageOrder::RowMajor);
        gemm_naive(ty, 1.0, &ac, &bc, 1.0, &mut c1);
        gemm_naive(ty, 1.0, &ar, &br, 1.0, &mut c2);
        for i in 0..8 {
            for j in 0..7 {
                assert!((c1.at(i, j) - c2.at(i, j)).abs() < 1e-14);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 4, StorageOrder::ColMajor);
        let b = Matrix::<f64>::zeros(5, 2, StorageOrder::ColMajor);
        let mut c = Matrix::<f64>::zeros(3, 2, StorageOrder::ColMajor);
        gemm_naive(GemmType::NN, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
        assert_eq!(gemm_flops(0, 3, 4), 0.0);
    }

    #[test]
    fn empty_k_means_pure_beta_scaling() {
        let a = Matrix::<f64>::zeros(3, 0, StorageOrder::ColMajor);
        let b = Matrix::<f64>::zeros(0, 2, StorageOrder::ColMajor);
        let mut c = Matrix::from_fn(3, 2, StorageOrder::ColMajor, |i, j| (i + j) as f64);
        let expect = c.clone();
        gemm_parallel(GemmType::NN, 5.0, &a, &b, 1.0, &mut c);
        assert_eq!(c, expect);
    }
}
