//! BLAS-like kernels on small dense operands.
//!
//! These are the CPU stand-ins for the device code in the paper's Listing 1:
//! the rank-1 symmetric update that accumulates `A_u += θ_v·θ_vᵀ` and the
//! small matrix-vector products used to form `B_u = Θᵀ·R_{u*}ᵀ`.  Training
//! assembles through [`syr_axpy_x4`] — four ratings per pass over the lower
//! triangle — and [`syr_axpy`] for a row's last 0–3 ratings; both write the
//! lower triangle only.

/// Dot product of two equal-length vectors, accumulated in `f64` so that a
/// long sum keeps its small terms (predictions and norms; the row solver does
/// not use it).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += (*x as f64) * (*y as f64);
    }
    acc as f32
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a vector in place: `x *= alpha`.
#[inline]
pub fn scal(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Symmetric rank-1 update of a full `f × f` row-major matrix:
/// `a += x·xᵀ`, both triangles — the `f²` variant the paper keeps for a
/// downstream solver that "does not appreciate symmetricity".
///
/// Training runs [`syr_axpy`]; this and [`axpy`] stay as the full-matrix
/// reference the baselines use and the tests compare the kernel against.
#[inline]
pub fn syr_full(a: &mut [f32], x: &[f32]) {
    let f = x.len();
    debug_assert_eq!(a.len(), f * f);
    for i in 0..f {
        let xi = x[i];
        if xi == 0.0 {
            continue;
        }
        let row = &mut a[i * f..(i + 1) * f];
        for (j, aij) in row.iter_mut().enumerate() {
            *aij += xi * x[j];
        }
    }
}

/// One rating's Hermitian-assembly step, the per-rating body of the ALS
/// `get_hermitian` phase: `a[i][j] += x[i]·x[j]` for `j ≤ i` and
/// `b += val·x` — the `f(f+1)/2` multiply variant of Table 3.
///
/// **Contract:** only the lower triangle of `a` (diagonal included) is
/// updated; the strict upper triangle is unspecified and no caller may read
/// it.  [`crate::cholesky`] reads `j ≤ i` only.
///
/// On the lower triangle and `b` the result is **bit-identical** to
/// `syr_full(a, x); axpy(val, x, b);`: every element receives one
/// multiply-add per call, so there is no reduction to reorder, and the loops
/// are plain slice zips the compiler vectorises by itself.  There is no
/// zero-`x[i]` skip: adding `0·x[j]` leaves a finite accumulator that started
/// at `+0.0` unchanged (it can never hold `-0.0`).
#[inline]
pub fn syr_axpy(a: &mut [f32], b: &mut [f32], x: &[f32], val: f32) {
    let f = x.len();
    debug_assert_eq!(a.len(), f * f);
    debug_assert_eq!(b.len(), f);
    for (i, &xi) in x.iter().enumerate() {
        for (aij, &xj) in a[i * f..=i * f + i].iter_mut().zip(x) {
            *aij += xi * xj;
        }
    }
    axpy(val, x, b);
}

/// Four ratings' [`syr_axpy`] in one pass over the lower triangle — the
/// paper's `get_hermitian` reuse of each loaded piece of `A_u` across a bin
/// of `θ_v`, with a bin of four:
///
/// ```text
///   a[i][j] = a[i][j] + x0ᵢ·x0ⱼ + x1ᵢ·x1ⱼ + x2ᵢ·x2ⱼ + x3ᵢ·x3ⱼ     (j ≤ i)
///   b[i]    = b[i]    + v0·x0ᵢ  + v1·x1ᵢ  + v2·x2ᵢ  + v3·x3ᵢ
/// ```
///
/// evaluated left to right, so every element still receives one multiply-add
/// per rating in the order given: on the lower triangle and `b` the result is
/// **bit-identical** to four `syr_axpy` calls, while the triangle is loaded
/// and stored once instead of four times.  Same lower-triangle contract.
#[inline]
pub fn syr_axpy_x4(a: &mut [f32], b: &mut [f32], x: [&[f32]; 4], val: [f32; 4]) {
    let [x0, x1, x2, x3] = x;
    let f = x0.len();
    debug_assert_eq!(a.len(), f * f);
    debug_assert_eq!(b.len(), f);
    let (x1, x2, x3) = (&x1[..f], &x2[..f], &x3[..f]);
    for i in 0..f {
        let (p0, p1, p2, p3) = (x0[i], x1[i], x2[i], x3[i]);
        let cols = x0.iter().zip(x1).zip(x2).zip(x3);
        for (aij, (((&q0, &q1), &q2), &q3)) in a[i * f..=i * f + i].iter_mut().zip(cols) {
            *aij = *aij + p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3;
        }
    }
    let [v0, v1, v2, v3] = val;
    let cols = x0.iter().zip(x1).zip(x2).zip(x3);
    for (bi, (((&q0, &q1), &q2), &q3)) in b.iter_mut().zip(cols) {
        *bi = *bi + v0 * q0 + v1 * q1 + v2 * q2 + v3 * q3;
    }
}

/// Adds `lambda` to the diagonal of a row-major `f × f` matrix
/// (the `+ λ·n_{x_u}·I` regularization term of equation (2)).
#[inline]
pub fn add_diagonal(a: &mut [f32], f: usize, lambda: f32) {
    debug_assert_eq!(a.len(), f * f);
    for i in 0..f {
        a[i * f + i] += lambda;
    }
}

/// General matrix-vector product `y = A·x` for a row-major `rows × cols`
/// matrix.
#[inline]
pub fn gemv(a: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    for i in 0..rows {
        y[i] = dot(&a[i * cols..(i + 1) * cols], x);
    }
}

/// Small general matrix-matrix product `C = A·B` with row-major operands.
/// `A` is `m × k`, `B` is `k × n`, `C` is `m × n`.
pub fn gemm_small(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aip * b[p * n + j];
            }
        }
    }
}

/// Squared Euclidean norm of a vector.
#[inline]
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_and_scal() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scal(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
    }

    #[test]
    fn syr_full_matches_outer_product() {
        let x = [1.0, 2.0, 3.0];
        let mut a = vec![0.0; 9];
        syr_full(&mut a, &x);
        let expected = [1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 3.0, 6.0, 9.0];
        assert_eq!(a, expected);
        // Accumulation: applying again doubles everything.
        syr_full(&mut a, &x);
        assert_eq!(a[4], 8.0);
    }

    #[test]
    fn syr_axpy_is_bit_identical_to_syr_full_plus_axpy() {
        use crate::FactorMatrix;
        // Bit-identity (==, not tolerance) on the lower triangle and the
        // right-hand side, zeros in `x` included; the strict upper triangle
        // is outside the contract.
        for f in [1usize, 3, 4, 7, 8, 13, 32] {
            let gen = FactorMatrix::random(6, f, 1.0, 90 + f as u64);
            let mut a_ref = vec![0.0f32; f * f];
            let mut b_ref = vec![0.0f32; f];
            let mut a_new = vec![0.0f32; f * f];
            let mut b_new = vec![0.0f32; f];
            for r in 0..6 {
                let mut x = gen.vector(r).to_vec();
                if r % 2 == 0 {
                    x[r % f] = 0.0;
                }
                let val = 0.5 - r as f32;
                syr_full(&mut a_ref, &x);
                axpy(val, &x, &mut b_ref);
                syr_axpy(&mut a_new, &mut b_new, &x, val);
            }
            for i in 0..f {
                let lower = i * f..=i * f + i;
                assert_eq!(a_ref[lower.clone()], a_new[lower], "rank {f} row {i}");
            }
            assert_eq!(b_ref, b_new, "rank {f} rhs diverged");
        }
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = vec![0.0; 9];
        add_diagonal(&mut a, 3, 0.5);
        assert_eq!(a[0], 0.5);
        assert_eq!(a[4], 0.5);
        assert_eq!(a[8], 0.5);
        assert_eq!(a.iter().filter(|&&x| x != 0.0).count(), 3);
    }

    #[test]
    fn gemv_matches_manual() {
        // A = [[1,2],[3,4],[5,6]]
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0, -1.0];
        let mut y = [0.0; 3];
        gemv(&a, 3, 2, &x, &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
    }

    #[test]
    fn gemm_small_matches_dense_matmul() {
        use crate::dense::DenseMatrix;
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let expected = a.matmul(&b);
        let mut c = vec![0.0; 4];
        gemm_small(a.data(), b.data(), &mut c, 2, 3, 2);
        assert_eq!(c, expected.data());
    }
}
