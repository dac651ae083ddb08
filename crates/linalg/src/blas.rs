//! BLAS-like kernels on small dense operands.
//!
//! These are the CPU stand-ins for the device code in the paper's Listing 1:
//! the rank-1 symmetric update that accumulates `A_u += θ_v·θ_vᵀ` and the
//! small matrix-vector products used to form `B_u = Θᵀ·R_{u*}ᵀ`.  Training
//! assembles through [`syr_axpy_bin`], which walks the lower triangle in
//! 4 × 8 register tiles while a gathered bin of `θ_v` streams past; it and
//! [`syr_axpy`], its one-rating form, write the lower triangle only.

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

/// Symmetric rank-1 update of a full `f × f` row-major matrix:
/// `a += x·xᵀ`, both triangles — the `f²` variant the paper keeps for a
/// downstream solver that "does not appreciate symmetricity".
///
/// Training runs [`syr_axpy_bin`]; this and [`axpy`] stay as the full-matrix
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

/// Rows of `A` in one register tile, and the `f32` lanes of the default
/// target's 128-bit vectors.
const TILE_ROWS: usize = 4;
/// Columns of `A` in one register tile; twice [`TILE_ROWS`], so a row
/// block's columns are whole tiles plus at most one [`TILE_ROWS`]-wide one.
const TILE_COLS: usize = 2 * TILE_ROWS;
/// Ratings whose row values one pass splats; longer bins are taken this
/// many at a time.
const SPLAT_BIN: usize = 64;

/// A row block's `x_i`, each repeated across a vector, for one rating.
type Splat = [[f32; TILE_ROWS]; TILE_ROWS];

/// A bin of ratings' [`syr_axpy`] in register tiles — the paper's
/// `get_hermitian` kernel (§3, Table 3): a block of `A_u` stays in
/// registers while the bin of `θ_v` streams past, so each loaded `θ`
/// element feeds many multiply-adds.
///
/// `bin` holds one gathered `θ_v` per rating, `vals.len() × f` row-major;
/// `vals` are the ratings.  The lower triangle is walked in row blocks of
/// four (the last one `f mod 4` rows when that is not 0).  A row block
/// first splats its `x_i` of every rating into a stack scratch, so a tile
/// loads them instead of shuffling them into place, then takes its columns
/// in 4 × 8 tiles up to the end of its diagonal block, with a 4-wide tile
/// and the square diagonal block where whole tiles do not reach.  Each
/// tile is loaded, takes every rating of the bin in order and is stored
/// once.  Then `b` takes the bin the same way, eight entries at a time, the
/// last `f mod 8` one rating at a time:
///
/// ```text
///   a[i][j] = (((a[i][j] + x0ᵢ·x0ⱼ) + x1ᵢ·x1ⱼ) + …)        (j ≤ i)
///   b[i]    = (((b[i]    + v0·x0ᵢ)  + v1·x1ᵢ)  + …)
/// ```
///
/// so every element still receives one multiply-add per rating in the order
/// given: on the lower triangle and `b` the result is **bit-identical** to
/// one `syr_axpy` per rating, and so to `syr_full` + `axpy`.  Same
/// lower-triangle contract: a tile that reaches the diagonal also writes
/// the strict upper triangle inside it, which no caller may read.
pub fn syr_axpy_bin(a: &mut [f32], b: &mut [f32], bin: &[f32], vals: &[f32]) {
    let f = b.len();
    assert_eq!(a.len(), f * f, "matrix is not f × f");
    assert_eq!(bin.len(), vals.len() * f, "bin is not one θ_v per rating");
    let mut splat = [[[0.0f32; TILE_ROWS]; TILE_ROWS]; SPLAT_BIN];
    for (bin, vals) in bin.chunks(SPLAT_BIN * f).zip(vals.chunks(SPLAT_BIN)) {
        let splat = &mut splat[..vals.len()];
        for i0 in (0..f).step_by(TILE_ROWS) {
            match f - i0 {
                1 => row_tiles::<1>(a, f, bin, splat, i0),
                2 => row_tiles::<2>(a, f, bin, splat, i0),
                3 => row_tiles::<3>(a, f, bin, splat, i0),
                _ => row_tiles::<TILE_ROWS>(a, f, bin, splat, i0),
            }
        }
        let full = f - f % TILE_COLS;
        for j0 in (0..full).step_by(TILE_COLS) {
            let b = &mut b[j0..j0 + TILE_COLS];
            let mut acc: [f32; TILE_COLS] = std::array::from_fn(|c| b[c]);
            for (x, &v) in bin.chunks_exact(f).zip(vals) {
                for (s, &xj) in acc.iter_mut().zip(&x[j0..j0 + TILE_COLS]) {
                    *s += v * xj;
                }
            }
            b.copy_from_slice(&acc);
        }
        for (x, &v) in bin.chunks_exact(f).zip(vals) {
            axpy(v, &x[full..], &mut b[full..]);
        }
    }
}

/// The tiles of the `R` rows from `i0`, after splatting their `x_i`.
#[inline(always)]
fn row_tiles<const R: usize>(a: &mut [f32], f: usize, bin: &[f32], splat: &mut [Splat], i0: usize) {
    for (splat, x) in splat.iter_mut().zip(bin.chunks_exact(f)) {
        for (lanes, &xi) in splat.iter_mut().zip(&x[i0..i0 + R]) {
            *lanes = [xi; TILE_ROWS];
        }
    }
    let mut j0 = 0;
    while j0 + TILE_COLS <= i0 + R {
        tile::<R, TILE_COLS>(a, f, bin, splat, i0, j0);
        j0 += TILE_COLS;
    }
    if j0 < i0 {
        tile::<R, TILE_ROWS>(a, f, bin, splat, i0, j0);
        j0 += TILE_ROWS;
    }
    if j0 < i0 + R {
        tile::<R, R>(a, f, bin, splat, i0, j0);
    }
}

/// `a[i][j] += x_i·x_j` for the `R × C` block at `(i0, j0)` and every `x`
/// of the bin in order, the block held in registers throughout.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &mut [f32],
    f: usize,
    bin: &[f32],
    splat: &[Splat],
    i0: usize,
    j0: usize,
) {
    let mut acc: [[f32; C]; R] = std::array::from_fn(|r| {
        let row = &a[(i0 + r) * f + j0..][..C];
        std::array::from_fn(|c| row[c])
    });
    for (x, splat) in bin.chunks_exact(f).zip(splat) {
        let q = &x[j0..j0 + C];
        for (acc, xi) in acc.iter_mut().zip(splat) {
            for (c, (s, &xj)) in acc.iter_mut().zip(q).enumerate() {
                *s += xi[c % TILE_ROWS] * xj;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        a[(i0 + r) * f + j0..][..C].copy_from_slice(acc);
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
    fn axpy_accumulates_into_y() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
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
    fn syr_axpy_bin_is_bit_identical_to_syr_full_plus_axpy_across_splat_passes() {
        use crate::FactorMatrix;
        // One bin of 150 ratings, longer than a splat pass, so the kernel
        // takes it in passes of 64, 64 and 22; zeros in `x` included.
        for f in [1usize, 3, 4, 5, 8, 12, 13, 32] {
            let gen = FactorMatrix::random(150, f, 1.0, 70 + f as u64);
            let mut bin = gen.data().to_vec();
            for (r, x) in bin.chunks_exact_mut(f).enumerate().step_by(3) {
                x[r % f] = 0.0;
            }
            let vals: Vec<f32> = (0..150).map(|r| 0.5 - (r % 7) as f32).collect();
            let (mut a_ref, mut b_ref) = (vec![0.0f32; f * f], vec![0.0f32; f]);
            for (x, &val) in bin.chunks_exact(f).zip(&vals) {
                syr_full(&mut a_ref, x);
                axpy(val, x, &mut b_ref);
            }
            let (mut a_new, mut b_new) = (vec![0.0f32; f * f], vec![0.0f32; f]);
            syr_axpy_bin(&mut a_new, &mut b_new, &bin, &vals);
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
}
