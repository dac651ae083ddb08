//! Cholesky factorization and solve for the small SPD Hermitian systems of
//! ALS, in single precision and in place.
//!
//! The regularized normal-equation matrices `A_u = Σ θ_v θ_vᵀ + λ n_{x_u} I`
//! are symmetric positive definite whenever `λ > 0`, so Cholesky (`A = L·Lᵀ`)
//! is the natural solver — it is what cuBLAS's batched FP32 POTRF/POTRS pair
//! runs in the paper's `batch_solve` phase.
//!
//! **The kernel.** [`cholesky_factor`] is a right-looking blocked
//! factorisation on the row-major lower triangle, four columns per panel:
//! a scalar factor of the 4 × 4 diagonal block; then, for each row below it,
//! a 4-step triangular solve for the row's panel entries, which are also
//! written to the panel's rows of the strict upper triangle (so the upper
//! triangle ends up holding `Lᵀ`, and a column of `L` is contiguous without
//! any scratch); then the rank-4 update of the rest of that row, a plain
//! slice-zip loop the compiler vectorises.  Both substitutions walk rows:
//! forward along `Lᵀ`, backward along `L`.  Nothing is allocated.
//!
//! **The arithmetic is defined, not approximated.**  All of it is f32.  An
//! entry `(i, j)` subtracts its products `l_ik·l_jk` one at a time in
//! ascending `k` — one multiply, one subtract, never fused, never
//! reassociated into partial sums — and is then multiplied by the reciprocal
//! pivot `1/√d_j`.  Forward substitution takes `l_ik·y_k` out of `b_i` in
//! ascending `k`, backward takes `l_ki·x_k` out in descending `k`, and both
//! multiply by `1/l_ii`.  Blocking changes which instructions run, not which
//! operations reach an entry or in what order, so the kernel is bit-identical
//! to the straight-line scalar loop in `tests/proptest_linalg.rs`
//! (`cholesky_solve_reference`).
//!
//! **Why f32 suffices.**  With at most `n` ratings in a row and the weighted
//! ridge `λ·n`, `λ_max(A) ≤ n·‖θ‖²_max + λ·n` and `λ_min(A) ≥ λ·n`, so
//!
//! ```text
//!   κ₂(A) ≤ 1 + ‖θ‖²_max / λ        (‖θ‖_max = the longest θ_v in the row)
//! ```
//!
//! — the row degree cancels: a row of ten thousand ratings is conditioned no
//! worse than a row of ten.  The computed solution of a Cholesky solve
//! satisfies `‖x̂ − x‖/‖x‖ ≲ c·f·ε·κ₂(A)` with `ε = 2⁻²⁴`; the accuracy
//! proptest holds the kernel to `4·f·ε·(1 + ‖θ‖²_max/λ)` against an all-f64
//! solve — `3·10⁻⁴` at `f = 64`, `‖θ‖ = 1`, `λ = 0.05` — and the largest
//! error it has measured is under a tenth of the bound.
//!
//! **When a pivot can round to ≤ 0.**  Each computed pivot carries an
//! absolute error of at most about `f·ε·a_jj`, and the exact one is at least
//! `λ_min(A) ≥ λ·n`.  Factorisation therefore runs to completion whenever
//! `λ·n > f·ε·max_j a_jj`; since `a_jj ≤ n·‖θ‖²_max + λ·n`, that is every
//! row once `λ ≳ f·ε·‖θ‖²_max` (`4·10⁻⁶·‖θ‖²_max` at `f = 64`).  Below it —
//! `λ = 0` with fewer ratings than `f` is the usual way — a pivot may come
//! out non-positive; the solver then reports [`CholeskyError`] with that
//! pivot and the ALS row is zeroed, as any non-SPD row always was.

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

/// Columns per panel of the blocked factorisation.
const PANEL: usize = 4;

/// Factors the `w × w` diagonal block (`w ≤ PANEL`) that starts at column
/// `p0` of the `w` rows in `panel`, mirrors it into the upper triangle and
/// returns the reciprocals of its pivots.
fn factor_diagonal(
    panel: &mut [f32],
    f: usize,
    p0: usize,
    w: usize,
) -> Result<[f32; PANEL], CholeskyError> {
    let mut inv = [0.0f32; PANEL];
    for j in 0..w {
        let jj = j * f + p0;
        let d = (0..j).fold(panel[jj + j], |d, k| d - panel[jj + k] * panel[jj + k]);
        if d <= 0.0 || !d.is_finite() {
            return Err(CholeskyError { pivot: p0 + j });
        }
        let d = d.sqrt();
        panel[jj + j] = d;
        inv[j] = 1.0 / d;
        for i in j + 1..w {
            let ii = i * f + p0;
            let s = (0..j).fold(panel[ii + j], |s, k| s - panel[ii + k] * panel[jj + k]);
            let l = s * inv[j];
            panel[ii + j] = l;
            panel[jj + i] = l;
        }
    }
    Ok(inv)
}

/// `row[k] −= l[0]·c[0][k]`, then `l[1]·c[1][k]`, … — the rank-4 update of
/// one row right of a panel; one multiply and one subtract per term.
#[inline]
fn rank4_update(
    row: &mut [f32],
    [l0, l1, l2, l3]: [f32; PANEL],
    [c0, c1, c2, c3]: [&[f32]; PANEL],
) {
    let cols = c0.iter().zip(c1).zip(c2).zip(c3);
    for (r, (((&x0, &x1), &x2), &x3)) in row.iter_mut().zip(cols) {
        *r = *r - l0 * x0 - l1 * x1 - l2 * x2 - l3 * x3;
    }
}

/// In-place Cholesky factorization of a row-major `f × f` SPD matrix, of
/// which only the lower triangle is read.
///
/// On success the lower triangle (including diagonal) of `a` holds `L` such
/// that `A = L·Lᵀ` and the strict upper triangle holds `Lᵀ`, which is what
/// lets both substitutions of [`cholesky_solve_factored`] walk rows.  On
/// `Err` the contents of `a` are unspecified.
pub fn cholesky_factor(a: &mut [f32], f: usize) -> Result<(), CholeskyError> {
    assert_eq!(a.len(), f * f, "matrix is not f × f");
    for p0 in (0..f).step_by(PANEL) {
        let w = PANEL.min(f - p0);
        let (head, below) = a.split_at_mut((p0 + w) * f);
        let panel = &mut head[p0 * f..];
        let [i0, i1, i2, i3] = factor_diagonal(panel, f, p0, w)?;
        if below.is_empty() {
            break;
        }
        let at = |r: usize, c: usize| panel[r * f + p0 + c];
        let (d10, d20, d21) = (at(1, 0), at(2, 0), at(2, 1));
        let (d30, d31, d32) = (at(3, 0), at(3, 1), at(3, 2));
        // The panel's four columns of `L`, contiguous: they are the rows of
        // `Lᵀ` right of the diagonal block.
        let p1 = p0 + PANEL;
        let (c0, rest) = panel.split_at_mut(f);
        let (c1, rest) = rest.split_at_mut(f);
        let (c2, c3) = rest.split_at_mut(f);
        let (c0, c1, c2, c3) = (&mut c0[p1..], &mut c1[p1..], &mut c2[p1..], &mut c3[p1..]);
        for (n, row) in below.chunks_exact_mut(f).enumerate() {
            let l0 = row[p0] * i0;
            let l1 = (row[p0 + 1] - l0 * d10) * i1;
            let l2 = (row[p0 + 2] - l0 * d20 - l1 * d21) * i2;
            let l3 = (row[p0 + 3] - l0 * d30 - l1 * d31 - l2 * d32) * i3;
            let l = [l0, l1, l2, l3];
            row[p0..p1].copy_from_slice(&l);
            [c0[n], c1[n], c2[n], c3[n]] = l;
            let cols = [&c0[..=n], &c1[..=n], &c2[..=n], &c3[..=n]];
            rank4_update(&mut row[p1..=p1 + n], l, cols);
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place given a factor produced by
/// [`cholesky_factor`] (both triangles); `b` is overwritten with the
/// solution.
pub fn cholesky_solve_factored(l: &[f32], f: usize, b: &mut [f32]) {
    assert_eq!(l.len(), f * f, "factor is not f × f");
    assert_eq!(b.len(), f, "right-hand side is not f long");
    // Forward, L·y = b: once y_j is final, take it out of every later
    // entry along row j of Lᵀ.
    for j in 0..f {
        let row = &l[j * f..(j + 1) * f];
        let y = b[j] * (1.0 / row[j]);
        b[j] = y;
        for (bi, &lij) in b[j + 1..].iter_mut().zip(&row[j + 1..]) {
            *bi -= lij * y;
        }
    }
    // Backward, Lᵀ·x = y: the same along row i of L, last row first.
    for i in (0..f).rev() {
        let row = &l[i * f..=i * f + i];
        let x = b[i] * (1.0 / row[i]);
        b[i] = x;
        for (bk, &lik) in b[..i].iter_mut().zip(row) {
            *bk -= lik * x;
        }
    }
}

/// Solves the SPD system `A·x = b`, destroying `a` (which receives the
/// Cholesky factor) and overwriting `b` with the solution `x`.  Only the
/// lower triangle of `a` is read; on `Err`, `b` is untouched.
///
/// This is the per-row work item of the paper's `batch_solve` phase and
/// costs `O(f³)` as accounted in Table 3.  It allocates nothing.
pub fn cholesky_solve(a: &mut [f32], f: usize, b: &mut [f32]) -> Result<(), CholeskyError> {
    cholesky_factor(a, f)?;
    cholesky_solve_factored(a, f, b);
    Ok(())
}

/// Computes the residual `‖A·x − b‖₂` for testing/validation purposes, given
/// the original (unfactored) matrix, of which only the lower triangle is
/// read.
pub fn residual_norm(a: &[f32], f: usize, x: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..f {
        let mut s = 0.0f64;
        for j in 0..f {
            let a_ij = if j <= i { a[i * f + j] } else { a[j * f + i] };
            s += (a_ij as f64) * (x[j] as f64);
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
    fn residual_norm_reads_the_lower_triangle_only() {
        // Assemble the same Hermitian twice: in full with `syr_full`, and
        // with `syr_axpy` over a matrix whose strict upper triangle starts
        // out (and stays) NaN.  The residual of a solution must not differ.
        use crate::blas::syr_axpy;
        let f = 9;
        let mut rng = StdRng::seed_from_u64(21);
        let mut full = vec![0.0f32; f * f];
        let mut lower = vec![0.0f32; f * f];
        for i in 0..f {
            lower[i * f + i + 1..(i + 1) * f].fill(f32::NAN);
        }
        let mut b = vec![0.0f32; f];
        for _ in 0..2 * f {
            let x: Vec<f32> = (0..f).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
            syr_full(&mut full, &x);
            syr_axpy(&mut lower, &mut b, &x, 1.5);
        }
        add_diagonal(&mut full, f, 0.3);
        add_diagonal(&mut lower, f, 0.3);
        assert!(lower[1].is_nan(), "the poison must survive assembly");
        let mut x = b.clone();
        cholesky_solve(&mut lower.clone(), f, &mut x).unwrap();
        let res = residual_norm(&lower, f, &x, &b);
        assert_eq!(res, residual_norm(&full, f, &x, &b));
        assert!(res < 1e-3, "residual {res}");
    }

    #[test]
    fn factor_mirrors_l_into_the_upper_triangle() {
        for f in [1usize, 3, 4, 7, 13] {
            let mut l = random_spd(f, 2 * f, 0.2, f as u64);
            cholesky_factor(&mut l, f).unwrap();
            for i in 0..f {
                for j in 0..i {
                    assert_eq!(l[i * f + j].to_bits(), l[j * f + i].to_bits());
                }
            }
        }
    }

    #[test]
    fn error_display() {
        let e = CholeskyError { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
    }
}
