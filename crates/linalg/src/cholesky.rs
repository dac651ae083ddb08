//! Cholesky factorization and solve for the small SPD Hermitian systems of
//! ALS, in single precision and in place.
//!
//! The regularized normal-equation matrices `A_u = Σ θ_v θ_vᵀ + λ n_{x_u} I`
//! are symmetric positive definite whenever `λ > 0`, so Cholesky (`A = L·Lᵀ`)
//! is the natural solver — it is what cuBLAS's batched FP32 POTRF/POTRS pair
//! runs in the paper's `batch_solve` phase.
//!
//! Two kernels share one arithmetic: the single-system front door
//! ([`cholesky_solve`], below) and the [`GroupSolver`] the ALS row loop
//! runs, which factors four systems at once, one per SIMD lane, two rows
//! per pass, and is bit-identical to the front door lane for lane.
//!
//! **The single-system kernel.** [`cholesky_factor`] is a right-looking blocked
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
/// lets both substitutions of `cholesky_solve_factored` walk rows.  On
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
fn cholesky_solve_factored(l: &[f32], f: usize, b: &mut [f32]) {
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
/// This is one work item of the paper's `batch_solve` phase, `O(f³)` as
/// accounted in Table 3, for a caller with one system at a time (the
/// baselines, the probes, the tests); the ALS row loop takes four at a time
/// through [`GroupSolver`], to the same bits.  It allocates nothing.
pub fn cholesky_solve(a: &mut [f32], f: usize, b: &mut [f32]) -> Result<(), CholeskyError> {
    cholesky_factor(a, f)?;
    cholesky_solve_factored(a, f, b);
    Ok(())
}

/// Systems a [`GroupSolver`] factors per pass: one per lane of the default
/// target's 128-bit vectors.
pub const GROUP: usize = 4;

/// One entry of every system in a group.
type Lanes = [f32; GROUP];

/// Offset of row `i` in a packed lower triangle.
#[inline(always)]
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// `s −= a·b` per lane: one multiply, one subtract.
#[inline(always)]
fn mul_sub(s: &mut Lanes, a: &Lanes, b: &Lanes) {
    for ((s, a), b) in s.iter_mut().zip(a).zip(b) {
        *s -= a * b;
    }
}

#[inline(always)]
fn mul(a: &Lanes, b: &Lanes) -> Lanes {
    [a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]]
}

/// Finishes columns `j0..j0 + W` of the row `row` (row `i` of the packed
/// triangle, `done` holding rows `..i` complete and `row[..j0]` final):
/// `W` accumulators share the one `l_ik` load per `k < j0`, then the block's
/// `W × W` triangle is finished in registers.  With `DIAG` the block ends at
/// the diagonal (`j0 + W == i`) and the pivot's `d −= l_ik²` chain rides
/// along in the same pass, leaving `d` in `row[i]`.
#[inline(always)]
fn row_block<const W: usize, const DIAG: bool>(
    done: &[Lanes],
    row: &mut [Lanes],
    inv: &[Lanes],
    j0: usize,
) {
    let (head, blk) = row.split_at_mut(j0);
    let head = &head[..j0];
    let cols: [&[Lanes]; W] = std::array::from_fn(|c| &done[tri(j0 + c)..][..j0]);
    let mut s: [Lanes; W] = std::array::from_fn(|c| blk[c]);
    let mut d = if DIAG { blk[W] } else { [0.0; GROUP] };
    for k in 0..j0 {
        let x = &head[k];
        for c in 0..W {
            mul_sub(&mut s[c], x, &cols[c][k]);
        }
        if DIAG {
            mul_sub(&mut d, x, x);
        }
    }
    finish_block::<W, DIAG>(done, blk, s, d, inv, j0);
}

/// [`row_block`] for the four columns `j0..j0 + 4` of two consecutive
/// rows at once (`row` is row `i`, `next` row `i + 1`, and `j0 + 4 ≤ i`):
/// the eight accumulators share each column's one `l_jk` load per
/// `k < j0`, then each row finishes its block triangle on its own.
#[inline(always)]
fn pair_block(done: &[Lanes], row: &mut [Lanes], next: &mut [Lanes], inv: &[Lanes], j0: usize) {
    let (head0, blk0) = row.split_at_mut(j0);
    let (head1, blk1) = next.split_at_mut(j0);
    let (head0, head1) = (&head0[..j0], &head1[..j0]);
    let cols: [&[Lanes]; 4] = std::array::from_fn(|c| &done[tri(j0 + c)..][..j0]);
    let mut s0: [Lanes; 4] = std::array::from_fn(|c| blk0[c]);
    let mut s1: [Lanes; 4] = std::array::from_fn(|c| blk1[c]);
    for k in 0..j0 {
        let (x0, x1) = (&head0[k], &head1[k]);
        for c in 0..4 {
            let l = &cols[c][k];
            mul_sub(&mut s0[c], x0, l);
            mul_sub(&mut s1[c], x1, l);
        }
    }
    finish_block::<4, false>(done, blk0, s0, [0.0; GROUP], inv, j0);
    finish_block::<4, false>(done, blk1, s1, [0.0; GROUP], inv, j0);
}

/// The in-register end of a block: `s` holds columns `j0..j0 + W` of one
/// row with every `k < j0` taken out (and `d` the pivot's chain so far);
/// finishes the block's `W × W` triangle and stores it into `blk`.
#[inline(always)]
fn finish_block<const W: usize, const DIAG: bool>(
    done: &[Lanes],
    blk: &mut [Lanes],
    mut s: [Lanes; W],
    mut d: Lanes,
    inv: &[Lanes],
    j0: usize,
) {
    for c in 0..W {
        let above = &done[tri(j0 + c) + j0..][..c];
        for (c2, t) in above.iter().enumerate() {
            let l = s[c2];
            mul_sub(&mut s[c], &l, t);
        }
        s[c] = mul(&s[c], &inv[j0 + c]);
        if DIAG {
            let l = s[c];
            mul_sub(&mut d, &l, &l);
        }
        blk[c] = s[c];
    }
    if DIAG {
        blk[W] = d;
    }
}

/// Factors and solves up to [`GROUP`] independent `f × f` SPD systems at
/// once, one per SIMD lane — the CPU shape of the paper's batched FP32
/// POTRF/POTRS.
///
/// **Layout.**  The systems are packed into one lane-interleaved lower
/// triangle: entry `(i, j)` of all four systems sits in one `[f32; 4]` at
/// `i(i+1)/2 + j`, and the right-hand sides ride along as row `f`:
///
/// ```text
///   row 0   [a00]
///   row 1   [a10][a11]                 each [..] = [sys0, sys1, sys2, sys3]
///   row 2   [a20][a21][a22]
///    ⋮
///   row f   [b0 ][b1 ][b2 ] … [b_f-1][pad]
/// ```
///
/// so every vector operation is full-width whatever `f` is, no row is too
/// short to vectorise, and forward substitution *is* the factorisation's
/// last row (`y_j = (b_j − Σ_{k<j} y_k·l_jk)·(1/l_jj)` is the entry rule of
/// row `f`).
///
/// **Arithmetic.**  Row-oriented, two rows at a time: rows `i` and `i + 1`
/// take the column blocks of four that both hold in full in one shared
/// pass (`pair_block`: each `l_jk` loaded once for eight accumulators),
/// then each row finishes on its own — any block of four left to it
/// (`row_block`), and one tail pass that carries the remaining 0–3 columns
/// together with the pivot's chain.  Per entry and per lane the
/// operations and their order are exactly those of [`cholesky_solve`] (and
/// of the scalar `cholesky_solve_reference` the proptests hold both to):
/// ascending-`k` multiply-then-subtract, times the reciprocal pivot;
/// backward substitution in descending `k`.  A lane's result is therefore
/// **bit-identical** to solving that system alone.
///
/// **Failure is per lane.**  A lane whose pivot comes out `≤ 0` or
/// non-finite records that pivot (its first) and carries on with a
/// substitute pivot of 1, so the instruction stream of the other lanes does
/// not change; its right-hand side is left untouched.
#[derive(Debug, Clone)]
pub struct GroupSolver {
    f: usize,
    /// The packed triangle, rows `0..=f`.
    l: Vec<Lanes>,
    /// Reciprocal pivots `1/l_jj`.
    inv: Vec<Lanes>,
}

impl GroupSolver {
    /// Scratch for systems of order `f > 0`; reusable across
    /// [`Self::solve`] calls, which allocate nothing.
    pub fn new(f: usize) -> Self {
        assert!(f > 0, "latent dimension must be positive");
        Self {
            f,
            l: vec![[0.0; GROUP]; tri(f + 1)],
            inv: vec![[0.0; GROUP]; f],
        }
    }

    /// Solves the `n = b.len() / f ≤ GROUP` systems `A_s·x_s = b_s`, with
    /// `a` their concatenated row-major matrices (only lower triangles are
    /// read) and `b` their concatenated right-hand sides.  A solved system's
    /// `b_s` is overwritten with `x_s`; a failed one's is untouched and its
    /// slot of the result names the failing pivot.  Idle lanes (`n..GROUP`)
    /// hold the identity system, so a short group runs the same code.
    pub fn solve(&mut self, a: &[f32], b: &mut [f32]) -> [Result<(), CholeskyError>; GROUP] {
        let f = self.f;
        let n = b.len() / f;
        assert!(n <= GROUP, "more systems than lanes");
        assert_eq!(b.len(), n * f, "right-hand sides are not f long");
        assert_eq!(a.len(), n * f * f, "matrices are not f × f");
        let mut status = [Ok(()); GROUP];
        if n == 0 {
            return status;
        }
        self.pack(a, b, n);

        for i in (0..=f).step_by(2) {
            let mut j0 = 0;
            if i < f {
                let (done, rest) = self.l.split_at_mut(tri(i));
                let (row, next) = rest.split_at_mut(i + 1);
                while j0 + 4 <= i {
                    pair_block(done, row, &mut next[..=i + 1], &self.inv, j0);
                    j0 += 4;
                }
            }
            for row in i..=f.min(i + 1) {
                self.finish_row(row, j0, &mut status);
            }
        }

        // Backward, Lᵀ·x = y, along row i of L, last row first.
        let (rows, y) = self.l.split_at_mut(tri(f));
        for i in (0..f).rev() {
            let x = mul(&y[i], &self.inv[i]);
            y[i] = x;
            for (yk, lik) in y[..i].iter_mut().zip(&rows[tri(i)..]) {
                mul_sub(yk, lik, &x);
            }
        }

        for (lane, x) in b.chunks_exact_mut(f).enumerate() {
            if status[lane].is_ok() {
                for (x, y) in x.iter_mut().zip(y.iter()) {
                    *x = y[lane];
                }
            }
        }
        status
    }

    /// Finishes row `i` from column `j0` on (a multiple of four, with
    /// `row[..j0]` final): its remaining blocks of four, the tail of 0–3
    /// columns with the pivot's chain, and — except on the right-hand
    /// side's row `f` — the pivot itself, recording a lane whose pivot
    /// fails.
    fn finish_row(
        &mut self,
        i: usize,
        mut j0: usize,
        status: &mut [Result<(), CholeskyError>; GROUP],
    ) {
        let (done, rest) = self.l.split_at_mut(tri(i));
        let row = &mut rest[..=i];
        while j0 + 4 <= i {
            row_block::<4, false>(done, row, &self.inv, j0);
            j0 += 4;
        }
        match i - j0 {
            0 => row_block::<0, true>(done, row, &self.inv, j0),
            1 => row_block::<1, true>(done, row, &self.inv, j0),
            2 => row_block::<2, true>(done, row, &self.inv, j0),
            _ => row_block::<3, true>(done, row, &self.inv, j0),
        }
        if i == self.f {
            return; // the right-hand side's row has no pivot
        }
        let mut d = row[i];
        for (lane, d) in d.iter_mut().enumerate() {
            if *d <= 0.0 || !d.is_finite() {
                if status[lane].is_ok() {
                    status[lane] = Err(CholeskyError { pivot: i });
                }
                *d = 1.0;
            }
        }
        let root = d.map(f32::sqrt);
        row[i] = root;
        self.inv[i] = root.map(|r| 1.0 / r);
    }

    /// Interleaves the lower triangles and right-hand sides of `n` systems
    /// into the lanes, and the identity system into the rest.
    fn pack(&mut self, a: &[f32], b: &[f32], n: usize) {
        let f = self.f;
        // An idle lane first copies system 0, so the loops below are the
        // same for every group size.
        let sys = |lane: usize| if lane < n { lane } else { 0 };
        let [a0, a1, a2, a3]: [&[f32]; GROUP] =
            std::array::from_fn(|lane| &a[sys(lane) * f * f..][..f * f]);
        for i in 0..f {
            let rows = a0[i * f..=i * f + i]
                .iter()
                .zip(&a1[i * f..=i * f + i])
                .zip(&a2[i * f..=i * f + i])
                .zip(&a3[i * f..=i * f + i]);
            for (l, (((&v0, &v1), &v2), &v3)) in self.l[tri(i)..].iter_mut().zip(rows) {
                *l = [v0, v1, v2, v3];
            }
        }
        let [b0, b1, b2, b3]: [&[f32]; GROUP] =
            std::array::from_fn(|lane| &b[sys(lane) * f..][..f]);
        let rhs = b0.iter().zip(b1).zip(b2).zip(b3);
        for (l, (((&v0, &v1), &v2), &v3)) in self.l[tri(f)..].iter_mut().zip(rhs) {
            *l = [v0, v1, v2, v3];
        }
        self.l[tri(f) + f] = [0.0; GROUP];
        for lane in n..GROUP {
            for i in 0..=f {
                for (j, l) in self.l[tri(i)..=tri(i) + i].iter_mut().enumerate() {
                    l[lane] = if i == j && i < f { 1.0 } else { 0.0 };
                }
            }
        }
    }
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
