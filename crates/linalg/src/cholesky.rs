//! Cholesky factorization and solve for the small SPD Hermitian systems of
//! ALS.
//!
//! The regularized normal-equation matrices `A_u = Σ θ_v θ_vᵀ + λ n_{x_u} I`
//! are symmetric positive definite whenever `λ > 0`, so Cholesky (`A = L·Lᵀ`)
//! is the natural solver — it is also what cuBLAS's batched POTRF/POTRS pair
//! would run on the real GPU.

use std::fmt;

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CholeskyError {
    /// The pivot index at which a non-positive diagonal was encountered.
    pub pivot: usize,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite (pivot {} is non-positive)",
            self.pivot
        )
    }
}

impl std::error::Error for CholeskyError {}

/// `s[r] − Σ_k rows[r][k]·v[k]` for four rows at once.  Each chain subtracts
/// in ascending `k`, as a lone chain would; four side by side overlap the
/// 4-cycle latency of one dependent f64 subtract with the other three.
#[inline]
fn sub_dot4(mut s: [f64; 4], rows: [&[f64]; 4], v: &[f64]) -> [f64; 4] {
    let n = v.len();
    let [r0, r1, r2, r3] = rows.map(|r| &r[..n]);
    for k in 0..n {
        s[0] -= r0[k] * v[k];
        s[1] -= r1[k] * v[k];
        s[2] -= r2[k] * v[k];
        s[3] -= r3[k] * v[k];
    }
    s
}

/// Factors `work` — an f64 copy of `a`, of which only the lower triangle
/// (`j ≤ i`) is read — in place, column by column, and stores the lower
/// triangle of `L` back to `a`.  Every entry is rounded through f32 as it is
/// stored, so the copy holds exactly the f32 factor's values: the chains
/// accumulate in f64 and would otherwise convert every operand on every use.
fn factor(a: &mut [f32], f: usize, work: &mut Vec<f64>) -> Result<(), CholeskyError> {
    debug_assert_eq!(a.len(), f * f);
    work.clear();
    work.extend(a.iter().map(|&v| v as f64));
    for j in 0..f {
        let (head, below) = work.split_at_mut((j + 1) * f);
        let row_j = &mut head[j * f..];
        let d = row_j[..j].iter().fold(row_j[j], |d, &l| d - l * l);
        if d <= 0.0 || !d.is_finite() {
            return Err(CholeskyError { pivot: j });
        }
        let d = d.sqrt();
        row_j[j] = d as f32 as f64;
        let inv_d = 1.0 / d;
        // Column below the diagonal, four rows per pass.  A short last group
        // repeats its last row; the duplicate chains compute the same value.
        for quad in below.chunks_mut(4 * f) {
            let last = quad.len() / f - 1;
            let at = [0, 1, 2, 3].map(|r| r.min(last) * f);
            let s = sub_dot4(
                at.map(|o| quad[o + j]),
                at.map(|o| &quad[o..o + j]),
                &row_j[..j],
            );
            for (o, s) in at.into_iter().zip(s) {
                quad[o + j] = (s * inv_d) as f32 as f64;
            }
        }
    }
    for i in 0..f {
        let lower = i * f..=i * f + i;
        for (dst, &src) in a[lower.clone()].iter_mut().zip(&work[lower]) {
            *dst = src as f32;
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place for an f64 factor copy `l`.
fn substitute(l: &[f64], f: usize, b: &mut [f32]) {
    debug_assert_eq!(b.len(), f);
    // Forward substitution: L·y = b.
    for i in 0..f {
        let mut s = b[i] as f64;
        for k in 0..i {
            s -= l[i * f + k] * b[k] as f64;
        }
        b[i] = (s / l[i * f + i]) as f32;
    }
    // Backward substitution: Lᵀ·x = y.
    for i in (0..f).rev() {
        let mut s = b[i] as f64;
        for k in (i + 1)..f {
            s -= l[k * f + i] * b[k] as f64;
        }
        b[i] = (s / l[i * f + i]) as f32;
    }
}

/// In-place Cholesky factorization of a row-major `f × f` SPD matrix, of
/// which only the lower triangle is read.
///
/// On success the lower triangle (including diagonal) of `a` holds `L` such
/// that `A = L·Lᵀ`; the strict upper triangle is left untouched.
pub fn cholesky_factor(a: &mut [f32], f: usize) -> Result<(), CholeskyError> {
    factor(a, f, &mut Vec::new())
}

/// Solves `L·Lᵀ·x = b` in place given a factor produced by
/// [`cholesky_factor`]; `b` is overwritten with the solution.
pub fn cholesky_solve_factored(l: &[f32], f: usize, b: &mut [f32]) {
    debug_assert_eq!(l.len(), f * f);
    let l: Vec<f64> = l.iter().map(|&v| v as f64).collect();
    substitute(&l, f, b);
}

/// Solves the SPD system `A·x = b`, destroying `a` (whose lower triangle
/// receives the Cholesky factor) and overwriting `b` with the solution `x`.
/// Only the lower triangle of `a` is read; on `Err`, `b` is untouched.
///
/// This is the per-row work item of the paper's `batch_solve` phase and
/// costs `O(f³)` as accounted in Table 3.
pub fn cholesky_solve(a: &mut [f32], f: usize, b: &mut [f32]) -> Result<(), CholeskyError> {
    cholesky_solve_in(a, f, b, &mut Vec::new())
}

/// [`cholesky_solve`] with a caller-owned workspace (any `Vec`; it is grown
/// as needed), so a loop over many systems allocates once.
pub fn cholesky_solve_in(
    a: &mut [f32],
    f: usize,
    b: &mut [f32],
    work: &mut Vec<f64>,
) -> Result<(), CholeskyError> {
    factor(a, f, work)?;
    substitute(work, f, b);
    Ok(())
}

/// Computes the residual `‖A·x − b‖₂` for testing/validation purposes, given
/// the original (unfactored) matrix.
pub fn residual_norm(a: &[f32], f: usize, x: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..f {
        let mut s = 0.0f64;
        for j in 0..f {
            s += (a[i * f + j] as f64) * (x[j] as f64);
        }
        let r = s - b[i] as f64;
        acc += r * r;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{add_diagonal, syr_full};

    use rand::prelude::*;

    /// Builds a random SPD matrix as a sum of rank-1 terms plus a ridge,
    /// exactly the structure ALS produces.
    fn random_spd(f: usize, terms: usize, lambda: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = vec![0.0f32; f * f];
        for _ in 0..terms {
            let x: Vec<f32> = (0..f).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
            syr_full(&mut a, &x);
        }
        add_diagonal(&mut a, f, lambda);
        a
    }

    #[test]
    fn solves_identity() {
        let mut a = vec![0.0f32; 9];
        add_diagonal(&mut a, 3, 1.0);
        let mut b = vec![2.0, -3.0, 4.0];
        cholesky_solve(&mut a, 3, &mut b).unwrap();
        assert_eq!(b, vec![2.0, -3.0, 4.0]);
    }

    #[test]
    fn solves_known_2x2() {
        // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5]
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        let mut b = vec![10.0, 8.0];
        cholesky_solve(&mut a, 2, &mut b).unwrap();
        assert!((b[0] - 1.75).abs() < 1e-5);
        assert!((b[1] - 1.5).abs() < 1e-5);
    }

    #[test]
    fn factor_of_non_spd_fails() {
        // Negative diagonal is not SPD.
        let mut a = vec![-1.0, 0.0, 0.0, 1.0];
        assert_eq!(cholesky_factor(&mut a, 2), Err(CholeskyError { pivot: 0 }));
        // Rank-deficient (no ridge) with fewer rank-1 terms than f.
        let mut rng = StdRng::seed_from_u64(1);
        let f = 6;
        let mut a = vec![0.0f32; f * f];
        let x: Vec<f32> = (0..f).map(|_| rng.random::<f32>()).collect();
        syr_full(&mut a, &x);
        assert!(cholesky_factor(&mut a, f).is_err());
    }

    #[test]
    fn random_spd_systems_have_small_residual() {
        for (f, terms, seed) in [
            (4usize, 10usize, 1u64),
            (16, 40, 2),
            (32, 100, 3),
            (64, 200, 4),
        ] {
            let a = random_spd(f, terms, 0.1, seed);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let b: Vec<f32> = (0..f).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
            let mut a_work = a.clone();
            let mut x = b.clone();
            cholesky_solve(&mut a_work, f, &mut x).unwrap();
            let res = residual_norm(&a, f, &x, &b);
            let scale = b.iter().map(|&v| (v as f64).abs()).sum::<f64>().max(1.0);
            assert!(res / scale < 1e-3, "f={f} residual {res}");
        }
    }

    #[test]
    fn factored_solve_reusable_for_multiple_rhs() {
        let f = 8;
        let a = random_spd(f, 20, 0.5, 9);
        let mut l = a.clone();
        cholesky_factor(&mut l, f).unwrap();
        for s in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(s);
            let b: Vec<f32> = (0..f).map(|_| rng.random::<f32>()).collect();
            let mut x = b.clone();
            cholesky_solve_factored(&l, f, &mut x);
            assert!(residual_norm(&a, f, &x, &b) < 1e-3);
        }
    }

    #[test]
    fn error_display() {
        let e = CholeskyError { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
    }
}
