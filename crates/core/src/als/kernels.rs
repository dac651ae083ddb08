//! The ALS row loop every engine runs.
//!
//! All three of the paper's algorithms compute the same update
//! (equation (2)):
//!
//! ```text
//!   (Σ_{r_uv≠0} θ_v θ_vᵀ  +  λ·n_{x_u}·I) · x_u  =  Σ_{r_uv≠0} r_uv·θ_v
//! ```
//!
//! [`solve_rows`] is that update, row by row.  The only thing a placement
//! changes about it is the order of the sum: SU-ALS splits `Θᵀ` into `p`
//! column partitions and sums one partial Hermitian per partition
//! (equation (5)), which the row loop reproduces given the partition's
//! cuts.  Where the bytes move on the simulated GPU is priced separately,
//! in [`crate::als::mo`] and [`crate::als::su`].
//!
//! Both halves of a row's update run in registers, as the paper's MO-ALS
//! kernel does.  Assembly gathers up to `BIN` (64) of the row's `θ_v` into
//! scratch and streams each bin past register tiles of the lower triangle
//! (`blas::syr_axpy_bin`).  The solve takes the non-empty rows four at a
//! time, one per SIMD lane of the [`GroupSolver`], which factors two rows
//! of the packed systems per pass.  Every element of a row's factors is
//! the same sequence of f32 operations as in the one-rating, one-system
//! scalar reference, so the factors are bit-identical to it.

use crate::instrument::TrainMetrics;
use cumf_linalg::blas::{add_diagonal, syr_axpy_bin};
use cumf_linalg::cholesky::{GroupSolver, GROUP};
use cumf_linalg::FactorMatrix;
use cumf_obs::ns_between;
use cumf_sparse::Csr;
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// Rows a worker solves with one set of scratch buffers; also the grain of
/// the parallel split.
const ROWS_PER_CHUNK: usize = 32;

/// Ratings per bin of [`assemble`]: 64 gathered `θ_v` are 16 KiB at
/// `f = 64`, half of a typical L1 data cache, beside the tile being built.
const BIN: usize = 64;

/// The crate's only Hermitian assembly loop: `a += Σ θ_v·θ_vᵀ` (lower
/// triangle only — [`syr_axpy_bin`]'s contract) and `b += Σ r_uv·θ_v` over
/// one row's ratings in CSR order; `theta_of` maps a column id to its
/// `θ_v`.  Up to [`BIN`] ratings' `θ_v` at a time are gathered into `bin`
/// (`BIN · f` scratch) and streamed past the register tiles of
/// [`syr_axpy_bin`]; each element receives one multiply-add per rating, in
/// CSR order.
fn assemble<'t>(
    a: &mut [f32],
    b: &mut [f32],
    bin: &mut [f32],
    (cols, vals): (&[u32], &[f32]),
    theta_of: impl Fn(u32) -> &'t [f32],
) {
    let f = b.len();
    for (cols, vals) in cols.chunks(BIN).zip(vals.chunks(BIN)) {
        let bin = &mut bin[..cols.len() * f];
        for (theta_v, &v) in bin.chunks_exact_mut(f).zip(cols) {
            theta_v.copy_from_slice(theta_of(v));
        }
        syr_axpy_bin(a, b, bin, vals);
    }
}

/// The ranges of `cols` (one row's sorted column ids) that fall in each
/// part of the column partition cut at `col_cuts`: one range per part, in
/// order, empty where the row has no rating in that part.
pub(crate) fn split_row<'a>(
    cols: &'a [u32],
    col_cuts: &'a [u32],
) -> impl Iterator<Item = Range<usize>> + 'a {
    let ends = col_cuts.iter().map(|&c| cols.partition_point(|&v| v < c));
    let mut start = 0;
    ends.chain([cols.len()]).map(move |end| {
        let part = start..end;
        start = end;
        part
    })
}

/// The exact per-row ALS update — assemble, ridge `λ · n_{x_u}`, Cholesky
/// solve — over every row of `r`, against factor vectors looked up through
/// `theta_of` (column id → `θ_v`, each `f` long): the one row loop behind
/// every training half-iteration and both fold-in paths.  Rows with no
/// ratings get a zero vector (their system is singular under weighted
/// regularization, matching the original cuMF), and so do numerically
/// singular systems rather than propagating NaNs.
///
/// `col_cuts` are the interior boundaries of the fixed side's column
/// partition, ascending: none for a single partition (the reference,
/// MO-ALS and fold-in), `p − 1` for SU-ALS's `Θᵀ(1..p)`.  With no cuts a
/// row assembles straight into its group's buffer.  With cuts, each part's
/// ratings assemble into a zeroed scratch — that part's partial Hermitian
/// and right-hand side, equation (5) — which is added onto the sum of the
/// parts before it; the ridge uses the whole row's degree.
///
/// The non-empty rows of a chunk are solved [`GROUP`] at a time, one per
/// lane of the [`GroupSolver`]; an empty row takes no lane, and the last
/// group of a chunk may be short (its idle lanes hold the identity).  Each
/// row's factors are bit-identical to solving that row alone.
///
/// With `metrics`, each non-empty row records its Hermitian-assembly phase
/// and an equal share of its group's solve phase, and the whole call lands
/// in the `solve_side` histogram; with `None` the timing branches compile to
/// nothing on the hot path.
pub fn solve_rows<'t>(
    r: &Csr,
    f: usize,
    theta_of: impl Fn(u32) -> &'t [f32] + Sync,
    col_cuts: &[u32],
    lambda: f32,
    metrics: Option<&TrainMetrics>,
) -> FactorMatrix {
    let call_start = metrics.map(|_| Instant::now());
    let mut out = FactorMatrix::zeros(r.n_rows() as usize, f);
    out.data_mut()
        .par_chunks_mut(f * ROWS_PER_CHUNK)
        .enumerate()
        .for_each(|(chunk, rows)| {
            // One group's Hermitians and right-hand sides, one bin of
            // gathered θ_v, one partial for a partitioned row, and the
            // solver's packed triangle, allocated once per chunk.
            let (mut a, mut b) = (vec![0.0f32; GROUP * f * f], vec![0.0f32; GROUP * f]);
            let mut bin = vec![0.0f32; BIN * f];
            let scratch = if col_cuts.is_empty() { 0 } else { f };
            let (mut part_a, mut part_b) = (vec![0.0f32; scratch * f], vec![0.0f32; scratch]);
            let mut solver = GroupSolver::new(f);
            let first_row = chunk * ROWS_PER_CHUNK;
            let occupied: Vec<usize> = (0..rows.len() / f)
                .filter(|&i| r.nnz_row((first_row + i) as u32) > 0)
                .collect();
            for group in occupied.chunks(GROUP) {
                let n = group.len();
                let group_start = metrics.map(|_| Instant::now());
                let mut assembly_ns = [0u64; GROUP];
                for (lane, &i) in group.iter().enumerate() {
                    let (cols, vals) = r.row((first_row + i) as u32);
                    let (a, b) = (&mut a[lane * f * f..][..f * f], &mut b[lane * f..][..f]);
                    let row_start = metrics.map(|_| Instant::now());
                    a.fill(0.0);
                    b.fill(0.0);
                    // The first part (the whole row without cuts) goes
                    // straight into the lane; each later one into the
                    // zeroed scratch, then onto the lane.
                    let mut parts = split_row(cols, col_cuts).map(|p| (&cols[p.clone()], &vals[p]));
                    assemble(
                        a,
                        b,
                        &mut bin,
                        parts.next().expect("one part more than cuts"),
                        &theta_of,
                    );
                    for part in parts {
                        part_a.fill(0.0);
                        part_b.fill(0.0);
                        assemble(&mut part_a, &mut part_b, &mut bin, part, &theta_of);
                        a.iter_mut().zip(&part_a).for_each(|(acc, p)| *acc += p);
                        b.iter_mut().zip(&part_b).for_each(|(acc, p)| *acc += p);
                    }
                    if let Some(t0) = row_start {
                        assembly_ns[lane] = ns_between(t0, Instant::now());
                    }
                    add_diagonal(a, f, lambda * cols.len() as f32);
                }
                let status = solver.solve(&a[..n * f * f], &mut b[..n * f]);
                for ((&i, x_u), status) in group.iter().zip(b.chunks_exact(f)).zip(status) {
                    if status.is_ok() {
                        rows[i * f..][..f].copy_from_slice(x_u);
                    }
                }
                if let (Some(m), Some(t0)) = (metrics, group_start) {
                    m.record_group(&assembly_ns[..n], ns_between(t0, Instant::now()));
                }
            }
        });
    if let (Some(m), Some(t0)) = (metrics, call_start) {
        m.record_solve_side(t0.elapsed());
    }
    out
}

/// Solves one side of the ALS update over a single column partition: for
/// each row `u` of `r`, builds the regularized Hermitian and right-hand side
/// and solves it ([`solve_rows`] with no cuts).
///
/// * `r` — ratings with the *solved* entities as rows (pass `R` to update
///   `X`, `Rᵀ` to update `Θ`).
/// * `fixed` — the factor matrix of the other side, indexed by `r`'s columns.
/// * `lambda` — weighted-λ regularization; each row's ridge is
///   `λ · n_{x_u}`.
/// * `metrics` — optional per-row phase timing (see [`solve_rows`]); `None`
///   records nothing.
pub fn solve_side(
    r: &Csr,
    fixed: &FactorMatrix,
    lambda: f32,
    metrics: Option<&TrainMetrics>,
) -> FactorMatrix {
    solve_rows(
        r,
        fixed.rank(),
        |v| fixed.vector(v as usize),
        &[],
        lambda,
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::Phase;
    use cumf_data::synth::SyntheticConfig;
    use cumf_sparse::Coo;

    fn small_problem() -> (Csr, FactorMatrix) {
        let data = SyntheticConfig {
            m: 120,
            n: 60,
            nnz: 2400,
            rank: 4,
            ..Default::default()
        }
        .generate();
        let r = data.to_csr();
        let theta = FactorMatrix::random(60, 8, 0.5, 11);
        (r, theta)
    }

    #[test]
    fn solve_side_reduces_training_error() {
        let (r, theta) = small_problem();
        let x0 = FactorMatrix::random(r.n_rows() as usize, 8, 0.5, 3);
        let before = crate::loss::rmse_csr(&x0, &theta, &r);
        let x1 = solve_side(&r, &theta, 0.05, None);
        let after = crate::loss::rmse_csr(&x1, &theta, &r);
        assert!(
            after < before,
            "solving X should reduce RMSE: {before} -> {after}"
        );
    }

    #[test]
    fn solve_side_is_exact_for_rank1_noiseless_data() {
        // r_uv = u_factor * v_factor with no noise and lambda ~ 0: ALS
        // recovers X exactly given the true Θ.
        let theta = FactorMatrix::from_vec(3, 1, vec![1.0, 2.0, 4.0]);
        let mut coo = Coo::new(2, 3);
        for u in 0..2u32 {
            for v in 0..3u32 {
                coo.push(u, v, (u + 1) as f32 * theta.vector(v as usize)[0])
                    .unwrap();
            }
        }
        let r = coo.to_csr();
        let x = solve_side(&r, &theta, 1e-9, None);
        assert!((x.vector(0)[0] - 1.0).abs() < 1e-4);
        assert!((x.vector(1)[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn empty_rows_get_zero_vectors() {
        let mut coo = Coo::new(3, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(2, 1, 2.0).unwrap();
        let r = coo.to_csr();
        let theta = FactorMatrix::random(2, 4, 1.0, 5);
        let x = solve_side(&r, &theta, 0.1, None);
        assert!(x.vector(1).iter().all(|&v| v == 0.0));
        assert!(x.vector(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn vectorized_assembly_matches_the_scalar_reference_exactly() {
        // Rebuild every row's system with the scalar, full-matrix
        // syr_full + axpy pair and solve it: solve_side's triangular kernel
        // must reproduce each factor vector bit-for-bit (zero tolerance),
        // because per element the assembly performs the same multiply-adds
        // in the same rating order and the solver reads the lower triangle
        // only.  Row degrees sit on, beside and far from the vector widths.
        use cumf_linalg::blas::{axpy, syr_full};
        use cumf_linalg::cholesky::cholesky_solve;
        let (r, _) = small_problem();
        let mut coo = Coo::new(5, r.n_cols());
        for (u, degree) in [1u32, 3, 4, 5, 33].into_iter().enumerate() {
            for v in 0..degree {
                let item = (7 * v + u as u32) % r.n_cols();
                coo.push(u as u32, item, 1.0 + (v % 5) as f32).unwrap();
            }
        }
        let by_degree = coo.to_csr();
        let lambda = 0.05f32;
        for f in [8usize, 32, 64] {
            let theta = FactorMatrix::random(r.n_cols() as usize, f, 0.5, 11);
            for r in [&r, &by_degree] {
                let got = solve_side(r, &theta, lambda, None);
                for u in 0..r.n_rows() {
                    let (cols, vals) = r.row(u);
                    if cols.is_empty() {
                        continue;
                    }
                    let mut a = vec![0.0f32; f * f];
                    let mut b = vec![0.0f32; f];
                    for (&v, &val) in cols.iter().zip(vals.iter()) {
                        let theta_v = theta.vector(v as usize);
                        syr_full(&mut a, theta_v);
                        axpy(val, theta_v, &mut b);
                    }
                    add_diagonal(&mut a, f, lambda * cols.len() as f32);
                    cholesky_solve(&mut a, f, &mut b).unwrap();
                    assert_eq!(got.vector(u as usize), &b[..], "f {f} row {u} diverged");
                }
            }
        }
    }

    /// One row's factors by the scalar, full-matrix route: `syr_full` +
    /// `axpy` per rating, ridge, single-system `cholesky_solve`; `None`
    /// when the row's system does not factor.
    fn solve_row_reference(
        row: (&[u32], &[f32]),
        theta: &FactorMatrix,
        lambda: f32,
    ) -> Option<Vec<f32>> {
        solve_row_reference_cut(row, theta, lambda, &[])
    }

    /// [`solve_row_reference`] over a column partition cut at `cuts`: each
    /// part's ratings build a partial system from zero, added onto the sum
    /// of the parts before it (equation (5)), then one ridge and solve.
    fn solve_row_reference_cut(
        (cols, vals): (&[u32], &[f32]),
        theta: &FactorMatrix,
        lambda: f32,
        cuts: &[u32],
    ) -> Option<Vec<f32>> {
        use cumf_linalg::blas::{axpy, syr_full};
        use cumf_linalg::cholesky::cholesky_solve;
        let f = theta.rank();
        let (mut a, mut b) = (vec![0.0f32; f * f], vec![0.0f32; f]);
        for (k, part) in split_row(cols, cuts).enumerate() {
            let (mut pa, mut pb) = (vec![0.0f32; f * f], vec![0.0f32; f]);
            for (&v, &val) in cols[part.clone()].iter().zip(&vals[part]) {
                syr_full(&mut pa, theta.vector(v as usize));
                axpy(val, theta.vector(v as usize), &mut pb);
            }
            if k == 0 {
                (a, b) = (pa, pb);
            } else {
                a.iter_mut().zip(&pa).for_each(|(acc, p)| *acc += p);
                b.iter_mut().zip(&pb).for_each(|(acc, p)| *acc += p);
            }
        }
        add_diagonal(&mut a, f, lambda * cols.len() as f32);
        cholesky_solve(&mut a, f, &mut b).ok().map(|()| b)
    }

    #[test]
    fn a_row_that_fails_to_factor_is_zero_on_both_paths() {
        // λ = 0 and one rating at f = 4: the Hermitian θθᵀ has rank 1 and
        // does not factor.  Both the whole-row path and the partitioned one
        // (three column parts, p > 1) leave such a row at zero rather than
        // its raw Σ r·θ_v.  The failing row takes every lane position of a
        // group whose other three rows (eight ratings each, so full rank
        // without a ridge) are well-posed: they must come out exactly as
        // when solved alone.  Row 2 is empty — it takes no lane and must not
        // shift a result to the wrong row on either path.
        let theta = FactorMatrix::random(8, 4, 1.0, 5);
        let occupied = [0u32, 1, 3, 4];
        let cuts = [3u32, 5];
        for failing_lane in 0..occupied.len() {
            let mut coo = Coo::new(5, 8);
            for (lane, &u) in occupied.iter().enumerate() {
                if lane == failing_lane {
                    coo.push(u, 1, 4.0).unwrap();
                } else {
                    for v in 0..8 {
                        coo.push(u, v, 1.0 + ((u + v) % 5) as f32).unwrap();
                    }
                }
            }
            let r = coo.to_csr();
            for (path, cuts) in [("whole", &[][..]), ("partitioned", &cuts[..])] {
                let got = solve_rows(&r, 4, |v| theta.vector(v as usize), cuts, 0.0, None);
                for u in 0..5u32 {
                    let expect = solve_row_reference_cut(r.row(u), &theta, 0.0, cuts);
                    let well_posed = u != 2 && u != occupied[failing_lane];
                    assert_eq!(expect.is_some(), well_posed, "{path} path, row {u}");
                    let expect = expect.unwrap_or(vec![0.0; 4]);
                    assert_eq!(
                        got.vector(u as usize),
                        &expect[..],
                        "{path} path, failing lane {failing_lane}, row {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_rows_match_the_per_row_reference_across_chunk_boundaries() {
        // 67 rows — two full chunks of 32 and three rows — with empty rows
        // scattered so that groups of four non-empty rows start and end at
        // different offsets in every chunk, never on a chunk boundary, and
        // the last group of each chunk is short.
        let f = 13;
        let theta = FactorMatrix::random(40, f, 0.5, 21);
        let mut coo = Coo::new(67, 40);
        for u in 0..67u32 {
            if u % 5 == 3 || u % 11 == 0 {
                continue;
            }
            for k in 0..1 + (u * 7) % 23 {
                coo.push(u, (u + 3 * k) % 40, 1.0 + ((u + k) % 5) as f32)
                    .unwrap();
            }
        }
        let r = coo.to_csr();
        let got = solve_side(&r, &theta, 0.05, None);
        for u in 0..67u32 {
            let expect = if r.nnz_row(u) == 0 {
                vec![0.0; f]
            } else {
                solve_row_reference(r.row(u), &theta, 0.05).expect("ridged rows factor")
            };
            assert_eq!(got.vector(u as usize), &expect[..], "row {u}");
        }
    }

    #[test]
    fn instrumented_rows_split_their_groups_solve_time() {
        // Five non-empty rows and two empty ones in one chunk: a group of
        // four and a group of one.  Every non-empty row is one assembly
        // sample and one solve sample; a group's solve time is split equally
        // over its rows, so the samples add up to the two groups' measured
        // time less at most `rows − 1` ns of integer-division remainder —
        // and, the call being one sequential chunk, to no more than the
        // whole call took.
        let theta = FactorMatrix::random(6, 8, 0.5, 2);
        let mut coo = Coo::new(7, 6);
        for u in [0u32, 1, 3, 4, 6] {
            for v in 0..1 + u % 4 {
                coo.push(u, (u + v) % 6, 2.0).unwrap();
            }
        }
        let metrics = TrainMetrics::new();
        let x = solve_side(&coo.to_csr(), &theta, 0.05, Some(&metrics));
        assert!(x.vector(2).iter().all(|&v| v == 0.0));
        let report = metrics.report();
        assert_eq!(report.rows_solved(), 5);
        assert_eq!(report[Phase::Assembly].count(), 5);
        assert_eq!(report[Phase::Solve].count(), 5);
        assert_eq!(report[Phase::SolveSide].count(), 1);
        assert!(report[Phase::Solve].sum_ns() > 0);
        assert!(
            report[Phase::Assembly].sum_ns() + report[Phase::Solve].sum_ns()
                <= report[Phase::SolveSide].sum_ns(),
            "{report}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `assemble` against the scalar full-matrix pair, one rating at a
        /// time in CSR order: bit for bit on the lower triangle and `b`, at
        /// ranks on and off every tile width (so every edge tile), with
        /// degrees that fill, cross and leave a remainder of the bin (and
        /// no rating at all) and exact zeros in `θ`.  Only bites under the
        /// optimiser.
        #[test]
        fn tiled_bin_assembly_is_bit_identical_to_syr_full_plus_axpy(
            (f, thetas, zeros, vals) in {
                use proptest::prelude::*;
                (1usize..=70, 0usize..=150).prop_flat_map(|(f, degree)| (
                    Just(f),
                    proptest::collection::vec(-2.0f32..2.0, degree * f),
                    proptest::collection::vec(0u8..4, degree * f),
                    proptest::collection::vec(-5.0f32..5.0, degree),
                ))
            },
        ) {
            use cumf_linalg::blas::{axpy, syr_full};
            let thetas: Vec<f32> = thetas
                .iter()
                .zip(&zeros)
                .map(|(&v, &z)| if z == 0 { 0.0 } else { v })
                .collect();
            let cols: Vec<u32> = (0..vals.len() as u32).collect();
            let (mut a_ref, mut b_ref) = (vec![0.0f32; f * f], vec![0.0f32; f]);
            let (mut a_new, mut b_new) = (a_ref.clone(), b_ref.clone());
            for (theta_v, &val) in thetas.chunks(f).zip(&vals) {
                syr_full(&mut a_ref, theta_v);
                axpy(val, theta_v, &mut b_ref);
            }
            let mut bin = vec![f32::NAN; BIN * f];
            assemble(&mut a_new, &mut b_new, &mut bin, (&cols, &vals), |v| {
                &thetas[v as usize * f..][..f]
            });
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for i in 0..f {
                let lower = i * f..=i * f + i;
                proptest::prop_assert_eq!(
                    bits(&a_ref[lower.clone()]), bits(&a_new[lower]), "f={} row {}", f, i
                );
            }
            proptest::prop_assert_eq!(bits(&b_ref), bits(&b_new), "f={}", f);
        }
    }

    #[test]
    fn partials_over_column_partitions_sum_to_the_whole() {
        // Equation (5): the row loop cut into column parts sums each part's
        // partial system onto the parts before it — bit for bit what the
        // per-row reference does in that order, including parts a row has
        // no rating in, a cut at 0 and a cut past the last column — and
        // lands within rounding of the uncut solve.
        let (r, theta) = small_problem();
        let whole = solve_side(&r, &theta, 0.05, None);
        for cuts in [&[30u32][..], &[0, 7, 8, 41], &[13, 26, 39, 52, 60]] {
            let got = solve_rows(&r, 8, |v| theta.vector(v as usize), cuts, 0.05, None);
            for u in 0..r.n_rows() {
                let expect = if r.nnz_row(u) == 0 {
                    vec![0.0; 8]
                } else {
                    solve_row_reference_cut(r.row(u), &theta, 0.05, cuts).expect("ridged")
                };
                assert_eq!(got.vector(u as usize), &expect[..], "cuts {cuts:?} row {u}");
            }
            let diff = got.max_abs_diff(&whole);
            assert!(diff < 1e-3, "cuts {cuts:?}: {diff} from the uncut solve");
        }
    }
}
