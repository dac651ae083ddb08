//! Numerical kernels shared by every ALS engine.
//!
//! Every engine in this crate — the reference CPU ALS, MO-ALS and SU-ALS —
//! computes exactly the same update (equation (2) of the paper):
//!
//! ```text
//!   (Σ_{r_uv≠0} θ_v θ_vᵀ  +  λ·n_{x_u}·I) · x_u  =  Σ_{r_uv≠0} r_uv·θ_v
//! ```
//!
//! What differs between engines is *where the bytes move on the simulated
//! GPU*, which is handled by the traffic models in [`crate::als::mo`] and
//! [`crate::als::su`].  Keeping the numerics in one place guarantees the
//! engines agree bit-for-bit up to floating-point summation order, which the
//! integration tests check.

use crate::instrument::TrainMetrics;
use cumf_linalg::batch::batch_solve;
use cumf_linalg::blas::{add_diagonal, syr_axpy, syr_axpy_x4};
use cumf_linalg::cholesky::{GroupSolver, GROUP};
use cumf_linalg::FactorMatrix;
use cumf_obs::ns_between;
use cumf_sparse::Csr;
use rayon::prelude::*;
use std::time::Instant;

/// Rows a worker solves with one set of scratch buffers; also the grain of
/// the parallel split.
const ROWS_PER_CHUNK: usize = 32;

/// The crate's only Hermitian assembly loop: `a += Σ θ_v·θ_vᵀ` (lower
/// triangle only — [`syr_axpy`]'s contract) and `b += Σ r_uv·θ_v` over one
/// row's ratings in CSR order; `theta_of` maps a column id to its `θ_v`.
/// Four ratings share each pass over the triangle ([`syr_axpy_x4`]) and the
/// last 0–3 go one at a time; either way an element receives one
/// multiply-add per rating, in CSR order.
fn assemble<'t>(
    a: &mut [f32],
    b: &mut [f32],
    (cols, vals): (&[u32], &[f32]),
    theta_of: impl Fn(u32) -> &'t [f32],
) {
    let (mut cols4, mut vals4) = (cols.chunks_exact(4), vals.chunks_exact(4));
    for (c, v) in (&mut cols4).zip(&mut vals4) {
        let thetas = [
            theta_of(c[0]),
            theta_of(c[1]),
            theta_of(c[2]),
            theta_of(c[3]),
        ];
        syr_axpy_x4(a, b, thetas, [v[0], v[1], v[2], v[3]]);
    }
    for (&v, &val) in cols4.remainder().iter().zip(vals4.remainder()) {
        syr_axpy(a, b, theta_of(v), val);
    }
}

/// The exact per-row ALS update — assemble, ridge `λ · n_{x_u}`, Cholesky
/// solve — over every row of `r`, against factor vectors looked up through
/// `theta_of` (column id → `θ_v`, each `f` long): the one row loop behind
/// training half-iterations and both fold-in paths.  Rows with no ratings
/// get a zero vector (their system is singular under weighted
/// regularization, matching the original cuMF), and so do numerically
/// singular systems rather than propagating NaNs.
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
    lambda: f32,
    metrics: Option<&TrainMetrics>,
) -> FactorMatrix {
    let call_start = metrics.map(|_| Instant::now());
    let mut out = FactorMatrix::zeros(r.n_rows() as usize, f);
    out.data_mut()
        .par_chunks_mut(f * ROWS_PER_CHUNK)
        .enumerate()
        .for_each(|(chunk, rows)| {
            // One group's Hermitians and right-hand sides and the solver's
            // packed triangle, allocated once per chunk.
            let (mut a, mut b) = (vec![0.0f32; GROUP * f * f], vec![0.0f32; GROUP * f]);
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
                    let row = r.row((first_row + i) as u32);
                    let (a, b) = (&mut a[lane * f * f..][..f * f], &mut b[lane * f..][..f]);
                    let row_start = metrics.map(|_| Instant::now());
                    a.fill(0.0);
                    b.fill(0.0);
                    assemble(a, b, row, &theta_of);
                    if let Some(t0) = row_start {
                        assembly_ns[lane] = ns_between(t0, Instant::now());
                    }
                    add_diagonal(a, f, lambda * row.0.len() as f32);
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

/// Solves one side of the ALS update with the fused per-row kernel: for each
/// row `u` of `r`, builds the regularized Hermitian and right-hand side and
/// solves it immediately.
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
        lambda,
        metrics,
    )
}

/// Per-row partial Hermitians and right-hand sides over a *block* of `R`
/// (the data-parallel half of SU-ALS, equation (5)/(6)/(7) of the paper).
///
/// `block` is a block of `R` with block-local column indices; `fixed_part`
/// holds the factor vectors of exactly those local columns.  No
/// regularization is added here — that happens after the cross-GPU reduction
/// in [`finalize_and_solve`], because `n_{x_u}` is a property of the whole
/// row, not of one block.
///
/// Returns `(hermitians, rhs)` with `hermitians.len() == rows · f²` and
/// `rhs.len() == rows · f`.  Only the lower triangle of each Hermitian is
/// accumulated ([`syr_axpy`]'s contract); nothing downstream reads the rest.
pub fn partial_hermitians(
    block: &Csr,
    fixed_part: &FactorMatrix,
    f: usize,
) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(fixed_part.rank(), f, "fixed factor rank mismatch");
    let rows = block.n_rows() as usize;
    let mut hermitians = vec![0.0f32; rows * f * f];
    let mut rhs = vec![0.0f32; rows * f];

    hermitians
        .par_chunks_mut(f * f)
        .zip(rhs.par_chunks_mut(f))
        .enumerate()
        .for_each(|(u, (a, b))| {
            assemble(a, b, block.row(u as u32), |v| fixed_part.vector(v as usize));
        });
    (hermitians, rhs)
}

/// Element-wise accumulation of partial Hermitians/right-hand sides coming
/// from different column partitions (the reduction of Algorithm 3,
/// lines 15–16).
pub fn accumulate_partials(acc_a: &mut [f32], acc_b: &mut [f32], part_a: &[f32], part_b: &[f32]) {
    assert_eq!(
        acc_a.len(),
        part_a.len(),
        "hermitian partial length mismatch"
    );
    assert_eq!(acc_b.len(), part_b.len(), "rhs partial length mismatch");
    acc_a
        .par_iter_mut()
        .zip(part_a.par_iter())
        .for_each(|(acc, p)| *acc += p);
    acc_b
        .par_iter_mut()
        .zip(part_b.par_iter())
        .for_each(|(acc, p)| *acc += p);
}

/// Adds the weighted-λ ridge to every reduced Hermitian and solves the batch
/// (Algorithm 3 line 17).
///
/// `row_degrees[u]` must be the row's total number of ratings across *all*
/// column partitions.
pub fn finalize_and_solve(
    hermitians: &mut [f32],
    rhs: &mut [f32],
    row_degrees: &[usize],
    lambda: f32,
    f: usize,
) -> FactorMatrix {
    let rows = row_degrees.len();
    assert_eq!(
        hermitians.len(),
        rows * f * f,
        "hermitian buffer size mismatch"
    );
    assert_eq!(rhs.len(), rows * f, "rhs buffer size mismatch");

    hermitians
        .par_chunks_mut(f * f)
        .zip(row_degrees.par_iter())
        .for_each(|(a, &degree)| add_diagonal(a, f, lambda * degree as f32));

    let report = batch_solve(hermitians, rhs, f);

    // A system that failed to factor still holds its raw right-hand side
    // `Σ r·θ_v` in `rhs`; such a row gets zeros, exactly as in `solve_rows`.
    // A row with no ratings is one of them: its Hermitian is all zero.
    let mut out = FactorMatrix::zeros(rows, f);
    out.data_mut().copy_from_slice(rhs);
    for u in report.failed {
        out.vector_mut(u).fill(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;
    use cumf_sparse::{vertical_partition, Coo};

    /// One full update of a side through the partial-Hermitian path with a
    /// single (trivial) partition, to check the blocked path against
    /// [`solve_side`].
    fn solve_by_partials(r: &Csr, fixed: &FactorMatrix, lambda: f32) -> FactorMatrix {
        let f = fixed.rank();
        let (mut a, mut b) = partial_hermitians(r, fixed, f);
        let degrees: Vec<usize> = (0..r.n_rows()).map(|u| r.nnz_row(u)).collect();
        finalize_and_solve(&mut a, &mut b, &degrees, lambda, f)
    }

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
        (cols, vals): (&[u32], &[f32]),
        theta: &FactorMatrix,
        lambda: f32,
    ) -> Option<Vec<f32>> {
        use cumf_linalg::blas::{axpy, syr_full};
        use cumf_linalg::cholesky::cholesky_solve;
        let f = theta.rank();
        let (mut a, mut b) = (vec![0.0f32; f * f], vec![0.0f32; f]);
        for (&v, &val) in cols.iter().zip(vals) {
            syr_full(&mut a, theta.vector(v as usize));
            axpy(val, theta.vector(v as usize), &mut b);
        }
        add_diagonal(&mut a, f, lambda * cols.len() as f32);
        cholesky_solve(&mut a, f, &mut b).ok().map(|()| b)
    }

    #[test]
    fn a_row_that_fails_to_factor_is_zero_on_both_paths() {
        // λ = 0 and one rating at f = 4: the Hermitian θθᵀ has rank 1 and
        // does not factor.  The fused path leaves such a row at zero; the
        // partial-Hermitian path must too, not hand back its raw Σ r·θ_v.
        // The failing row takes every lane position of a group whose other
        // three rows (eight ratings each, so full rank without a ridge) are
        // well-posed: they must come out exactly as when solved alone.  Row 2
        // is empty — it takes no lane on the fused path, is one more failing
        // system on the partial path, and must not shift a result to the
        // wrong row on either.
        let theta = FactorMatrix::random(8, 4, 1.0, 5);
        let occupied = [0u32, 1, 3, 4];
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
            let fused = solve_side(&r, &theta, 0.0, None);
            let partial = solve_by_partials(&r, &theta, 0.0);
            for u in 0..5u32 {
                let expect = solve_row_reference(r.row(u), &theta, 0.0);
                let well_posed = u != 2 && u != occupied[failing_lane];
                assert_eq!(expect.is_some(), well_posed, "row {u}");
                let expect = expect.unwrap_or(vec![0.0; 4]);
                for (path, got) in [("fused", &fused), ("partial", &partial)] {
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
        assert_eq!(report.rows_solved, 5);
        assert_eq!(report.assembly.count(), 5);
        assert_eq!(report.solve.count(), 5);
        assert_eq!(report.solve_side.count(), 1);
        assert!(report.solve.sum_ns() > 0);
        assert!(
            report.assembly.sum_ns() + report.solve.sum_ns() <= report.solve_side.sum_ns(),
            "{report}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `assemble` against the scalar full-matrix pair, one rating at a
        /// time in CSR order: bit for bit on the lower triangle and `b`, at
        /// ranks on and off every vector width, with every remainder 0–3 of
        /// the four-rating pass (and no rating at all) and exact zeros in
        /// `θ`.  Only bites under the optimiser.
        #[test]
        fn four_per_pass_assembly_is_bit_identical_to_syr_full_plus_axpy(
            (f, thetas, zeros, vals) in {
                use proptest::prelude::*;
                (1usize..=70, 0usize..=13).prop_flat_map(|(f, degree)| (
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
            assemble(&mut a_new, &mut b_new, (&cols, &vals), |v| {
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
    fn partial_path_matches_fused_path() {
        let (r, theta) = small_problem();
        let fused = solve_side(&r, &theta, 0.05, None);
        let partial = solve_by_partials(&r, &theta, 0.05);
        assert!(
            fused.max_abs_diff(&partial) < 1e-4,
            "fused and partial paths should agree"
        );
    }

    #[test]
    fn partials_over_column_partitions_sum_to_the_whole() {
        let (r, theta) = small_problem();
        let f = theta.rank();
        let (full_a, full_b) = partial_hermitians(&r, &theta, f);

        // Split columns into 3 partitions and accumulate the per-partition
        // partials: the result must equal the unpartitioned computation.
        let blocks = vertical_partition(&r, 3).unwrap();
        let rows = r.n_rows() as usize;
        let mut acc_a = vec![0.0f32; rows * f * f];
        let mut acc_b = vec![0.0f32; rows * f];
        for block in &blocks {
            // Factor vectors for this partition's columns.
            let cs = block.col_start as usize;
            let cols = block.n_cols() as usize;
            let mut part = FactorMatrix::zeros(cols, f);
            for c in 0..cols {
                part.vector_mut(c).copy_from_slice(theta.vector(cs + c));
            }
            let (pa, pb) = partial_hermitians(&block.csr, &part, f);
            accumulate_partials(&mut acc_a, &mut acc_b, &pa, &pb);
        }
        let max_a = full_a
            .iter()
            .zip(acc_a.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        let max_b = full_b
            .iter()
            .zip(acc_b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_a < 1e-3, "hermitian mismatch {max_a}");
        assert!(max_b < 1e-3, "rhs mismatch {max_b}");
    }

    #[test]
    fn finalize_zeroes_empty_rows() {
        let f = 4;
        let mut a = vec![0.0f32; 2 * f * f];
        let mut b = vec![0.0f32; 2 * f];
        // Row 0 has data, row 1 is empty.
        for i in 0..f {
            a[i * f + i] = 2.0;
            b[i] = 1.0;
        }
        let out = finalize_and_solve(&mut a, &mut b, &[3, 0], 0.1, f);
        assert!(out.vector(0).iter().any(|&v| v != 0.0));
        assert!(out.vector(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulate_rejects_mismatched_buffers() {
        let mut a = vec![0.0f32; 4];
        let mut b = vec![0.0f32; 2];
        accumulate_partials(&mut a, &mut b, &[0.0; 8], &[0.0; 2]);
    }
}
