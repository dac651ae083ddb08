//! Property-based tests for the dense linear-algebra substrate.

use cumf_linalg::blas::{add_diagonal, axpy, dot, gemv, norm_sq, syr_axpy, syr_full};
use cumf_linalg::cholesky::{cholesky_solve, residual_norm, CholeskyError, GroupSolver, GROUP};
use cumf_linalg::{
    batch_score_block, batch_score_rows_quant, block_max_norms, f16_bits_to_f32, f32_to_f16_bits,
    item_norms, merge_top_k, scan_top_k, score_dot, ApproxPolicy, DenseMatrix, EncodedSlab,
    FactorMatrix, Precision, PruneStats, ScoreKind, SegmentView, TopK, F16_REL_ERR,
    F16_SUBNORMAL_ABS,
};
use proptest::prelude::*;

/// How one segment of a [`SegmentedCatalog`] is stored.
#[derive(Debug, Clone, Copy)]
struct SegmentSpec {
    /// Global offset one past the segment's last item.
    end: usize,
    item_block: usize,
    /// Rows sorted by exact norm, descending, with an id remap.
    norm_descending: bool,
    precision: Precision,
    /// Norm tables over the decoded rows (as `cumf-serve` keeps them)
    /// rather than the exact ones; either way a bound that holds for one
    /// holds for the other once widened by the codec's error.
    decoded_tables: bool,
}

/// Owned backing storage for a set of segment views over one catalog: the
/// (possibly permuted) slabs, their encodings, norms, block-max tables, and
/// id remaps, plus the rows a scan actually scores.
struct SegmentedCatalog {
    slabs: Vec<Vec<f32>>,
    encoded: Vec<Option<EncodedSlab>>,
    /// The decoded rows of an encoded segment, the slab itself otherwise.
    scored: Vec<Vec<f32>>,
    norms: Vec<Vec<f32>>,
    tables: Vec<Vec<f32>>,
    ids: Vec<Option<Vec<u32>>>,
    firsts: Vec<u32>,
    blocks: Vec<usize>,
}

impl SegmentedCatalog {
    /// Splits `theta` at `cuts` (global item offsets, ending at `n`) into
    /// f32 segments blocked at `item_block`; when `norm_descending` each
    /// segment's rows are stored sorted by norm (descending) with an id
    /// remap, mirroring the serve-tier layout.
    fn build(
        theta: &FactorMatrix,
        cuts: &[usize],
        item_block: usize,
        norm_descending: bool,
    ) -> Self {
        let specs: Vec<SegmentSpec> = cuts[1..]
            .iter()
            .map(|&end| SegmentSpec {
                end,
                item_block,
                norm_descending,
                precision: Precision::F32,
                decoded_tables: false,
            })
            .collect();
        Self::build_specs(theta.data(), theta.rank(), &specs)
    }

    /// One segment per spec over the row-major `rows`, in order.
    fn build_specs(rows: &[f32], f: usize, specs: &[SegmentSpec]) -> Self {
        let all_norms = item_norms(rows, f);
        let mut out = SegmentedCatalog {
            slabs: Vec::new(),
            encoded: Vec::new(),
            scored: Vec::new(),
            norms: Vec::new(),
            tables: Vec::new(),
            ids: Vec::new(),
            firsts: Vec::new(),
            blocks: Vec::new(),
        };
        let mut lo = 0;
        for spec in specs {
            let hi = spec.end;
            let mut order: Vec<usize> = (lo..hi).collect();
            if spec.norm_descending {
                order.sort_by(|&a, &b| {
                    all_norms[b]
                        .partial_cmp(&all_norms[a])
                        .unwrap()
                        .then(a.cmp(&b))
                });
            }
            let mut slab = Vec::with_capacity((hi - lo) * f);
            for &v in &order {
                slab.extend_from_slice(&rows[v * f..(v + 1) * f]);
            }
            let encoded = EncodedSlab::encode(&slab, f, spec.item_block, spec.precision);
            let scored = encoded
                .as_ref()
                .map_or_else(|| slab.clone(), |e| e.decode_all());
            let norms = item_norms(if spec.decoded_tables { &scored } else { &slab }, f);
            out.tables.push(block_max_norms(&norms, spec.item_block));
            out.slabs.push(slab);
            out.encoded.push(encoded);
            out.scored.push(scored);
            out.norms.push(norms);
            out.ids.push(if spec.norm_descending {
                Some(order.iter().map(|&v| v as u32).collect())
            } else {
                None
            });
            out.firsts.push(lo as u32);
            out.blocks.push(spec.item_block);
            lo = hi;
        }
        out
    }

    fn views(&self) -> Vec<SegmentView<'_>> {
        (0..self.slabs.len())
            .map(|i| SegmentView {
                items: &self.slabs[i],
                norms: &self.norms[i],
                block_max: &self.tables[i],
                item_block: self.blocks[i],
                first_id: self.firsts[i],
                ids: self.ids[i].as_deref(),
                pos: None,
                encoded: self.encoded[i].as_ref(),
            })
            .collect()
    }

    /// Every `(global id, stored row as scored, stored norm)` of the catalog.
    fn rows(&self, f: usize) -> Vec<(u32, &[f32], f32)> {
        let mut out = Vec::new();
        for (i, scored) in self.scored.iter().enumerate() {
            for (r, row) in scored.chunks_exact(f).enumerate() {
                let id = self.ids[i]
                    .as_ref()
                    .map_or(self.firsts[i] + r as u32, |ids| ids[r]);
                out.push((id, row, self.norms[i][r]));
            }
        }
        out
    }
}

/// One user's top-`k` through [`scan_top_k`] — a tile of one over every
/// block of `views`.
fn scan_segments_approx(
    user: &[f32],
    f: usize,
    k: usize,
    views: &[SegmentView<'_>],
    skip: impl Fn(u32) -> bool,
    policy: &ApproxPolicy,
    stats: &mut PruneStats,
) -> Vec<(u32, f32)> {
    let mut heaps = [Some(TopK::new(k))];
    let all = 0..usize::MAX;
    let scan = scan_top_k(
        user,
        f,
        &mut heaps,
        views,
        all,
        ScoreKind::Dot,
        policy,
        |_, v| skip(v),
    );
    stats.merge(&scan);
    heaps[0]
        .take()
        .map(TopK::into_sorted_vec)
        .unwrap_or_default()
}

/// [`scan_segments_approx`] under the exact policy.
fn scan_segments(
    user: &[f32],
    f: usize,
    k: usize,
    views: &[SegmentView<'_>],
    skip: impl Fn(u32) -> bool,
    stats: &mut PruneStats,
) -> Vec<(u32, f32)> {
    scan_segments_approx(user, f, k, views, skip, &ApproxPolicy::exact(), stats)
}

/// A factor coefficient that exercises the codecs' whole input domain:
/// ordinary magnitudes, both signed zeros, values in binary16's subnormal
/// range, and values so small they underflow f16 entirely.
fn arb_codec_value() -> impl Strategy<Value = f32> {
    (0u32..10, -8.0f32..8.0).prop_map(|(class, u)| match class {
        0 => 0.0,
        1 => -0.0,
        // Inside f16's subnormal band (below 2⁻¹⁴ ≈ 6.1e-5).
        2 => u * (3.0e-5 / 8.0),
        // Far below the smallest f16 subnormal — must round to ±0.
        3 => u * (1.0e-30 / 8.0),
        _ => u,
    })
}

/// A row-major slab whose length is a multiple of the latent dimension.
fn arb_codec_slab() -> impl Strategy<Value = (usize, Vec<f32>)> {
    (1usize..12).prop_flat_map(|f| {
        (
            Just(f),
            proptest::collection::vec(arb_codec_value(), f..=40 * f).prop_map(move |mut v| {
                v.truncate(v.len() / f * f);
                v
            }),
        )
    })
}

/// `(f, n_items, n_users, users, items)` reaching every path of the row-tiled
/// score kernel: every `f mod 4` and `f < 4` (no full lane chunk), and every
/// row remainder of its 4-row tile up to two full tiles plus three, the
/// empty block included.
fn arb_score_block() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (1usize..=70, 0usize..=11, 1usize..=9).prop_flat_map(|(f, n_items, n_users)| {
        (
            Just(f),
            Just(n_items),
            Just(n_users),
            proptest::collection::vec(-8.0f32..8.0, n_users * f),
            proptest::collection::vec(arb_codec_value(), n_items * f),
        )
    })
}

/// `Σ x·xᵀ + ridge·I` over the `f`-long vectors in `vecs`, and the bound
/// `1 + n·‖x‖²_max / ridge` on its condition number.
fn ridge_system(f: usize, vecs: &[f32], ridge: f32) -> (Vec<f32>, f64) {
    let mut a = vec![0.0f32; f * f];
    let mut max_norm_sq = 0.0f32;
    for x in vecs.chunks(f) {
        syr_full(&mut a, x);
        max_norm_sq = max_norm_sq.max(norm_sq(x));
    }
    add_diagonal(&mut a, f, ridge);
    let kappa = 1.0 + (vecs.len() / f) as f64 * (max_norm_sq / ridge) as f64;
    (a, kappa)
}

/// A strategy for an SPD system of order `f` built the way ALS builds them —
/// a sum of `2f` rank-1 outer products plus a positive ridge — with the
/// bound on its condition number.
fn spd_system_of_order(f: usize) -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>, f64)> {
    (
        proptest::collection::vec(-1.0f32..1.0, 2 * f * f),
        proptest::collection::vec(-1.0f32..1.0, f),
        0.05f32..2.0,
    )
        .prop_map(move |(vecs, b, lambda)| {
            let (a, kappa) = ridge_system(f, &vecs, lambda);
            (f, a, b, kappa)
        })
}

/// [`spd_system_of_order`] at any order up to `max_f`.
fn arb_spd_system_conditioned(
    max_f: usize,
) -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>, f64)> {
    (1..=max_f).prop_flat_map(spd_system_of_order)
}

/// [`arb_spd_system_conditioned`] without the bound.
fn arb_spd_system(max_f: usize) -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>)> {
    arb_spd_system_conditioned(max_f).prop_map(|(f, a, b, _)| (f, a, b))
}

/// A strategy for one ALS row's system of order `f`: `n` ratings (`1..=4f`,
/// so both under- and over-determined rows), the right-hand side `Σ r·θ_v`
/// and the weighted ridge `λ·n` with `λ ∈ [0.01, 2]`.
fn als_system_of_order(f: usize) -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>, f64)> {
    (1..=4 * f)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec(-1.0f32..1.0, n * f),
                proptest::collection::vec(1.0f32..5.0, n),
                0.01f32..2.0,
            )
        })
        .prop_map(move |(thetas, ratings, lambda)| {
            let (a, kappa) = ridge_system(f, &thetas, lambda * ratings.len() as f32);
            let mut b = vec![0.0f32; f];
            for (theta, &r) in thetas.chunks(f).zip(&ratings) {
                axpy(r, theta, &mut b);
            }
            (f, a, b, kappa)
        })
}

/// [`als_system_of_order`] at any order up to `max_f`.
fn arb_als_system(max_f: usize) -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>, f64)> {
    (1..=max_f).prop_flat_map(als_system_of_order)
}

/// `(f, a, b)`: one to [`GROUP`] systems of one order `f ≤ max_f`,
/// concatenated the way [`GroupSolver::solve`] takes them, each ALS-shaped
/// or plain-ridge.
fn arb_group(max_f: usize) -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>)> {
    (1..=max_f, 1..=GROUP)
        .prop_flat_map(|(f, n)| {
            (
                proptest::collection::vec(spd_system_of_order(f), n),
                proptest::collection::vec(als_system_of_order(f), n),
                proptest::collection::vec(0u8..2, n),
            )
        })
        .prop_map(|(ridge, als, pick)| {
            let f = ridge[0].0;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for ((ridge, als), pick) in ridge.into_iter().zip(als).zip(pick) {
                let system = if pick == 0 { ridge } else { als };
                a.extend(system.1);
                b.extend(system.2);
            }
            (f, a, b)
        })
}

/// The arithmetic of the production solver as a straight-line scalar f32
/// loop, which the blocked kernel must reproduce bit for bit: every entry
/// subtracts its products one at a time in ascending `k` (one multiply, one
/// subtract, no fused or reassociated step) and is scaled by the reciprocal
/// pivot `1/√d`; forward substitution takes `y_k` out of `b_i` in ascending
/// `k`, backward takes `x_k` out in descending `k`, both scaling by `1/l_ii`.
fn cholesky_solve_reference(a: &mut [f32], f: usize, b: &mut [f32]) -> Result<(), CholeskyError> {
    for j in 0..f {
        let mut d = a[j * f + j];
        for k in 0..j {
            d -= a[j * f + k] * a[j * f + k];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(CholeskyError { pivot: j });
        }
        a[j * f + j] = d.sqrt();
        let inv_d = 1.0 / a[j * f + j];
        for i in (j + 1)..f {
            let mut s = a[i * f + j];
            for k in 0..j {
                s -= a[i * f + k] * a[j * f + k];
            }
            a[i * f + j] = s * inv_d;
        }
    }
    for i in 0..f {
        let mut s = b[i];
        for k in 0..i {
            s -= a[i * f + k] * b[k];
        }
        b[i] = s * (1.0 / a[i * f + i]);
    }
    for i in (0..f).rev() {
        let mut s = b[i];
        for k in ((i + 1)..f).rev() {
            s -= a[k * f + i] * b[k];
        }
        b[i] = s * (1.0 / a[i * f + i]);
    }
    Ok(())
}

/// The accuracy oracle: the same factorisation and substitutions with every
/// value held in f64.
fn cholesky_solve_f64(a: &[f32], f: usize, b: &[f32]) -> Vec<f64> {
    let mut l: Vec<f64> = a.iter().map(|&v| v as f64).collect();
    let mut x: Vec<f64> = b.iter().map(|&v| v as f64).collect();
    for j in 0..f {
        let d = (0..j).fold(l[j * f + j], |d, k| d - l[j * f + k] * l[j * f + k]);
        assert!(d > 0.0, "the oracle's system is positive definite");
        l[j * f + j] = d.sqrt();
        for i in (j + 1)..f {
            let s = (0..j).fold(l[i * f + j], |s, k| s - l[i * f + k] * l[j * f + k]);
            l[i * f + j] = s / l[j * f + j];
        }
    }
    for i in 0..f {
        x[i] = (0..i).fold(x[i], |s, k| s - l[i * f + k] * x[k]) / l[i * f + i];
    }
    for i in (0..f).rev() {
        x[i] = ((i + 1)..f).fold(x[i], |s, k| s - l[k * f + i] * x[k]) / l[i * f + i];
    }
    x
}

fn norm2(v: impl Iterator<Item = f64>) -> f64 {
    v.map(|d| d * d).sum::<f64>().sqrt()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cholesky_solves_als_style_systems((f, a, b) in arb_spd_system(24)) {
        let mut a_work = a.clone();
        let mut x = b.clone();
        cholesky_solve(&mut a_work, f, &mut x).unwrap();
        let res = residual_norm(&a, f, &x, &b);
        let scale = b.iter().map(|&v| (v as f64).abs()).sum::<f64>().max(1.0);
        prop_assert!(res / scale < 5e-3, "f={} residual={}", f, res);
    }

    /// The triangular assembly kernel against the full-matrix reference:
    /// bit for bit on the lower triangle and the right-hand side, at ranks
    /// on and off every vector width, exact zeros in `x` included.
    #[test]
    fn syr_axpy_lower_triangle_is_bit_identical_to_syr_full_plus_axpy(
        (f, xs, zeros, vals) in (1usize..=70).prop_flat_map(|f| (
            Just(f),
            proptest::collection::vec(-2.0f32..2.0, 5 * f),
            proptest::collection::vec(0u8..4, 5 * f),
            proptest::collection::vec(-5.0f32..5.0, 5),
        )),
    ) {
        let mut a_ref = vec![0.0f32; f * f];
        let mut b_ref = vec![0.0f32; f];
        let mut a_new = a_ref.clone();
        let mut b_new = b_ref.clone();
        for ((x, zero), &val) in xs.chunks(f).zip(zeros.chunks(f)).zip(&vals) {
            let x: Vec<f32> = x
                .iter()
                .zip(zero)
                .map(|(&v, &z)| if z == 0 { 0.0 } else { v })
                .collect();
            syr_full(&mut a_ref, &x);
            axpy(val, &x, &mut b_ref);
            syr_axpy(&mut a_new, &mut b_new, &x, val);
        }
        for i in 0..f {
            for j in 0..=i {
                prop_assert_eq!(a_ref[i * f + j].to_bits(), a_new[i * f + j].to_bits());
            }
        }
        prop_assert_eq!(bits(&b_ref), bits(&b_new));
    }

    /// The blocked right-looking solver against the straight-line scalar
    /// loop: same solution and same factor, bit for bit, at every panel
    /// remainder `f mod 4` and below one panel.
    #[test]
    fn cholesky_solve_is_bit_identical_to_the_scalar_reference(
        (f, a, b) in arb_spd_system(70),
    ) {
        let (mut a_ref, mut x_ref) = (a.clone(), b.clone());
        let (mut a_new, mut x_new) = (a, b);
        prop_assert_eq!(cholesky_solve_reference(&mut a_ref, f, &mut x_ref), Ok(()));
        prop_assert_eq!(cholesky_solve(&mut a_new, f, &mut x_new), Ok(()));
        prop_assert_eq!(bits(&x_ref), bits(&x_new));
        for i in 0..f {
            for j in 0..=i {
                prop_assert_eq!(a_ref[i * f + j].to_bits(), a_new[i * f + j].to_bits());
            }
        }
    }

    /// The f32 solver against an all-f64 solve of the same f32 system:
    /// relative solution error within `4·f·ε₃₂·κ`, with `κ` bounded by
    /// `1 + n·‖θ‖²_max / ridge` — `1 + ‖θ‖²_max/λ` under the weighted ridge
    /// `λ·n`, whatever the row degree `n`.
    #[test]
    fn cholesky_solve_is_within_the_stated_bound_of_an_f64_solve(
        spd in arb_spd_system_conditioned(70),
        als in arb_als_system(70),
    ) {
        for (f, a, b, kappa) in [spd, als] {
            let want = cholesky_solve_f64(&a, f, &b);
            let (mut a, mut got) = (a, b);
            prop_assert_eq!(cholesky_solve(&mut a, f, &mut got), Ok(()));
            let err = norm2(got.iter().zip(&want).map(|(&g, &w)| g as f64 - w));
            let norm = norm2(want.iter().copied());
            let bound = 4.0 * f as f64 * (f32::EPSILON as f64 / 2.0) * kappa;
            prop_assert!(
                err <= bound * norm,
                "f={} relative error {:e} over the bound {:e} (kappa {:e})",
                f, err / norm, bound, kappa
            );
        }
    }

    /// A rank-deficient system (fewer rank-1 terms than `f`, no ridge) fails
    /// at the same pivot in both, and leaves the right-hand side alone.
    #[test]
    fn cholesky_solve_reports_the_reference_pivot_on_non_spd_input(
        (f, terms, vecs, b) in (1usize..=70).prop_flat_map(|f| (
            Just(f),
            0..f,
            proptest::collection::vec(-1.0f32..1.0, f * f),
            proptest::collection::vec(-1.0f32..1.0, f),
        )),
    ) {
        let mut a = vec![0.0f32; f * f];
        for x in vecs.chunks(f).take(terms) {
            syr_full(&mut a, x);
        }
        // Rounding can leave a tiny positive pivot where the exact one is
        // zero; a negative diagonal entry makes the failure certain.
        a[f * f - 1] = -1.0;
        let (mut a_ref, mut x_ref) = (a.clone(), b.clone());
        let (mut a_new, mut x_new) = (a, b.clone());
        let expect = cholesky_solve_reference(&mut a_ref, f, &mut x_ref);
        prop_assert!(expect.is_err());
        prop_assert_eq!(cholesky_solve(&mut a_new, f, &mut x_new), expect);
        prop_assert_eq!(bits(&x_new), bits(&b));
    }

    /// A lane of the group solver against the straight-line scalar loop on
    /// that lane's system alone: same solution bits, for every order (so
    /// every tail width and `f < 4`), every group size, and either shape of
    /// system in any lane.  Only bites under the optimiser.
    #[test]
    fn group_solve_is_bit_identical_to_the_scalar_reference((f, a, b) in arb_group(70)) {
        let mut x = b.clone();
        let status = GroupSolver::new(f).solve(&a, &mut x);
        prop_assert_eq!(status, [Ok(()); GROUP]);
        for (lane, (a, b)) in a.chunks(f * f).zip(b.chunks(f)).enumerate() {
            let (mut a_ref, mut x_ref) = (a.to_vec(), b.to_vec());
            prop_assert_eq!(cholesky_solve_reference(&mut a_ref, f, &mut x_ref), Ok(()));
            prop_assert_eq!(bits(&x_ref), bits(&x[lane * f..][..f]), "f={} lane {}", f, lane);
        }
    }

    /// One or two lanes of a group are not positive definite: each reports
    /// the pivot the scalar reference fails at and keeps its right-hand
    /// side, and the other lanes' solutions are what they are without them.
    #[test]
    fn group_solve_reports_the_reference_pivot_per_lane(
        (f, a, b) in arb_group(70),
        bad in proptest::collection::vec((0..GROUP, 0usize..70, 0u8..2), 1..=2),
    ) {
        let n = b.len() / f;
        let mut a = a;
        for &(lane, at, negative) in &bad {
            // A zero or negative diagonal entry makes a pivot at or before
            // `at` fail for certain.
            let (lane, at) = (lane % n, at % f);
            a[lane * f * f + at * (f + 1)] = if negative == 1 { -1.0 } else { 0.0 };
        }
        let mut x = b.clone();
        let status = GroupSolver::new(f).solve(&a, &mut x);
        for (lane, (a, b)) in a.chunks(f * f).zip(b.chunks(f)).enumerate() {
            let (mut a_ref, mut x_ref) = (a.to_vec(), b.to_vec());
            let expect = cholesky_solve_reference(&mut a_ref, f, &mut x_ref);
            let is_bad = bad.iter().any(|&(l, _, _)| l % n == lane);
            prop_assert_eq!(expect.is_err(), is_bad);
            prop_assert_eq!(status[lane], expect, "f={} lane {}", f, lane);
            // On failure the reference returns before touching `x_ref`.
            prop_assert_eq!(bits(&x_ref), bits(&x[lane * f..][..f]), "f={} lane {}", f, lane);
            if is_bad {
                prop_assert_eq!(bits(b), bits(&x[lane * f..][..f]), "f={} lane {}", f, lane);
            }
        }
        prop_assert!(status[n..].iter().all(|s| s.is_ok()), "an idle lane failed");
    }

    /// A score *is* `score_dot`: the row-tiled kernel batches the horizontal
    /// sums of several rows, which may change the instructions but not one
    /// operation or its order.  Only bites under the optimiser (CI's
    /// "Test (release, kernels)" step).
    #[test]
    fn batch_score_block_is_bit_identical_to_score_dot_per_pair(
        (f, n_items, n_users, users, items) in arb_score_block(),
    ) {
        let mut out = vec![f32::NAN; n_users * n_items];
        batch_score_block(&users, n_users, &items, n_items, f, &mut out);
        for (u, x_u) in users.chunks_exact(f).enumerate() {
            for (v, theta_v) in items.chunks_exact(f).enumerate() {
                prop_assert_eq!(
                    out[u * n_items + v].to_bits(),
                    score_dot(x_u, theta_v).to_bits(),
                    "f={} n_items={} pair ({}, {})", f, n_items, u, v
                );
            }
        }
    }

    /// The quantized scan ends in the same kernel: scoring an encoded row
    /// window equals decoding it and taking `score_dot` per pair.
    #[test]
    fn batch_score_rows_quant_is_bit_identical_to_decode_then_score_dot(
        (f, n_items, n_users, users, items) in arb_score_block(),
        quant_block in 1usize..6,
        skip_rows in 0usize..4,
    ) {
        let start = skip_rows.min(n_items);
        let rows = n_items - start;
        for precision in [Precision::F16, Precision::I8] {
            let slab = EncodedSlab::encode(&items, f, quant_block, precision).unwrap();
            let mut decoded = vec![0.0f32; rows * f];
            slab.decode_rows(start, n_items, &mut decoded);
            let mut out = vec![f32::NAN; n_users * rows];
            let mut scratch = Vec::new();
            batch_score_rows_quant(
                &users, n_users, &slab, start, n_items, f, &mut scratch, &mut out,
            );
            for (u, x_u) in users.chunks_exact(f).enumerate() {
                for (v, theta_v) in decoded.chunks_exact(f).enumerate() {
                    prop_assert_eq!(
                        out[u * rows + v].to_bits(),
                        score_dot(x_u, theta_v).to_bits(),
                        "{} f={} rows={} pair ({}, {})", precision, f, rows, u, v
                    );
                }
            }
        }
    }

    #[test]
    fn dot_is_commutative_and_bilinear(
        x in proptest::collection::vec(-10.0f32..10.0, 1..32),
        alpha in -3.0f32..3.0,
    ) {
        let y: Vec<f32> = x.iter().rev().copied().collect();
        prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-3);
        let scaled: Vec<f32> = x.iter().map(|v| v * alpha).collect();
        prop_assert!((dot(&scaled, &y) - alpha * dot(&x, &y)).abs() < 2e-2 * (1.0 + dot(&x, &y).abs()));
    }

    #[test]
    fn gemv_matches_dense_matmul(
        rows in 1usize..8, cols in 1usize..8,
        seed in 0u64..1000,
    ) {
        let a = FactorMatrix::random(rows, cols, 1.0, seed);
        let x = FactorMatrix::random(1, cols, 1.0, seed + 1);
        let mut y = vec![0.0f32; rows];
        gemv(a.data(), rows, cols, x.vector(0), &mut y);
        let am = DenseMatrix::from_vec(rows, cols, a.data().to_vec());
        let xm = DenseMatrix::from_vec(cols, 1, x.data().to_vec());
        let expect = am.matmul(&xm);
        for (i, &yi) in y.iter().enumerate() {
            prop_assert!((yi - expect.get(i, 0)).abs() < 1e-4);
        }
    }

    /// Satellite invariant: `epsilon = 0` with an unlimited block budget is
    /// bit-identical to exact segmented retrieval for any segmentation,
    /// blocking, and layout (catalog-order or norm-descending-with-remap).
    #[test]
    fn approx_epsilon_zero_is_bit_identical_to_exact(
        (n, f, seed) in (100usize..500, 3usize..9, 0u64..300),
        cut_a in 1usize..80,
        cut_b in 0usize..80,
        k in 1usize..12,
        block_sel in 0usize..3,
    ) {
        let item_block = [16usize, 33, 64][block_sel];
        let theta = FactorMatrix::random(n, f, 1.0, seed);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, seed + 1).data().to_vec();
        let mut cuts = vec![0, cut_a.min(n - 1).max(1), (cut_a + cut_b).min(n - 1).max(1), n];
        cuts.dedup();
        for norm_descending in [false, true] {
            let catalog = SegmentedCatalog::build(&theta, &cuts, item_block, norm_descending);
            let views = catalog.views();
            let mut exact_stats = PruneStats::default();
            let exact = scan_segments(
                &user, f, k, &views, |v| v % 11 == 0, &mut exact_stats,
            );
            let mut approx_stats = PruneStats::default();
            let approx = scan_segments_approx(
                &user, f, k, &views, |v| v % 11 == 0,
                &ApproxPolicy::exact(), &mut approx_stats,
            );
            prop_assert_eq!(
                &approx, &exact,
                "eps=0 diverged: norm_descending={} cuts={:?} block={}",
                norm_descending, cuts, item_block
            );
            // It must also do exactly the same amount of work — the
            // termination bound with zero slack can only fire where every
            // remaining block would have been pruned anyway.
            prop_assert_eq!(approx_stats.blocks_scored, exact_stats.blocks_scored);
        }
    }

    /// Satellite invariant: on a norm-descending catalog, recall@k is
    /// monotone non-increasing in epsilon and the scan never grows.
    #[test]
    fn approx_recall_is_monotone_non_increasing_in_epsilon(
        seed in 0u64..300,
        k in 1usize..10,
    ) {
        let f = 8;
        let n = 2000;
        // Skew the norms so early termination has something to exploit.
        let mut theta = FactorMatrix::random(n, f, 1.0, seed);
        for v in 0..n {
            let h = (v as u32).wrapping_mul(2654435761) % 64;
            let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
            for x in theta.vector_mut(v) {
                *x *= scale;
            }
        }
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, seed + 1).data().to_vec();
        let catalog = SegmentedCatalog::build(&theta, &[0, n], 64, true);
        let views = catalog.views();
        let mut exact_stats = PruneStats::default();
        let exact = scan_segments(&user, f, k, &views, |_| false, &mut exact_stats);
        let truth: std::collections::HashSet<u32> = exact.iter().map(|&(v, _)| v).collect();
        let mut prev_recall = f64::INFINITY;
        let mut prev_scored = u64::MAX;
        for eps in [0.0f32, 0.05, 0.1, 0.25, 0.5, 0.9] {
            let mut stats = PruneStats::default();
            let got = scan_segments_approx(
                &user, f, k, &views, |_| false,
                &ApproxPolicy { epsilon: eps, ..ApproxPolicy::default() }, &mut stats,
            );
            prop_assert_eq!(got.len(), exact.len(), "approx list must stay full-length");
            let recall = if truth.is_empty() {
                1.0
            } else {
                got.iter().filter(|&&(v, _)| truth.contains(&v)).count() as f64
                    / truth.len() as f64
            };
            prop_assert!(
                recall <= prev_recall + 1e-12,
                "recall rose from {} to {} at eps {}", prev_recall, recall, eps
            );
            prop_assert!(
                stats.blocks_scored <= prev_scored,
                "scan grew from {} to {} blocks at eps {}",
                prev_scored, stats.blocks_scored, eps
            );
            prev_recall = recall;
            prev_scored = stats.blocks_scored;
        }
    }

    /// The scan against brute force: a tile of users (some slots empty) over
    /// a randomly segmented, permuted and encoded catalog, scanned part by
    /// part over a random partition of its blocks and merged, returns per
    /// user exactly the sorted top-`k` of `score_dot` over every scored row
    /// (decoded for encoded segments), finished with the stored norm, bits
    /// included.  With `plant`, every user points along an i8 row that
    /// decodes 0.3 % longer than its block's exact-norm bound, behind an f32
    /// row that beats the unwidened bound: only the codec's error term keeps
    /// that block from being pruned.
    #[test]
    fn scan_top_k_matches_a_brute_force_oracle(
        (f, n, seed) in (1usize..=8, 0usize..160, 0u64..1000),
        segs in proptest::collection::vec(
            (0usize..=160, 0usize..4, 0u8..2, 0usize..3, 0u8..2),
            0..5,
        ),
        tile in proptest::collection::vec((0usize..=170, 0u32..4), 1..=9),
        shard_cuts in proptest::collection::vec(0usize..64, 0..4),
        (cosine, plant) in (0u8..2, 0u8..2),
    ) {
        let (cosine, plant) = (cosine == 1, plant == 1 && f >= 3);
        let score = if cosine { ScoreKind::Cosine } else { ScoreKind::Dot };
        let mut rows = FactorMatrix::random(n, f, 1.0, seed).data().to_vec();
        let mut specs = Vec::new();
        let spec = |end, (_, block, desc, prec, decoded): (usize, usize, u8, usize, u8)| {
            SegmentSpec {
                end,
                item_block: [1usize, 3, 16, 64][block],
                norm_descending: desc == 1,
                precision: [Precision::F32, Precision::F16, Precision::I8][prec],
                decoded_tables: decoded == 1,
            }
        };
        let s = 1.0 + (seed % 3) as f32;
        let row = |head: [f32; 3]| {
            let mut r = vec![0.0f32; f];
            for (r, h) in r.iter_mut().zip(head) {
                *r = h * s;
            }
            r
        };
        let v = row([126.51, 10.49, 10.49]);
        let offset = usize::from(plant);
        if plant {
            // z (f32, its own segment, scanned first) scores between the
            // unwidened bound of the [w, v] block and v's decoded score; w
            // sets the block's i8 scale so v's head rounds up to 127.
            let z: Vec<f32> = v.iter().map(|x| x * (127.63 / 127.38)).collect();
            rows.splice(0..0, z);
            rows.extend(row([127.0, 0.0, 0.0]));
            rows.extend(&v);
            specs.push(spec(1, (0, 0, 0, 0, 0)));
        }
        let mut cuts: Vec<usize> = segs.iter().map(|c| offset + c.0 % (n + 1)).collect();
        cuts.sort_unstable();
        for (&end, &c) in cuts.iter().zip(&segs) {
            specs.push(spec(end, c));
        }
        specs.push(spec(offset + n, segs.last().copied().unwrap_or((0, 2, 1, 2, 1))));
        if plant {
            let block = 2 + seed as usize % 3;
            specs.push(SegmentSpec {
                end: n + 3,
                item_block: block,
                norm_descending: seed % 2 == 0,
                precision: Precision::I8,
                decoded_tables: false,
            });
        }
        let catalog = SegmentedCatalog::build_specs(&rows, f, &specs);
        let views = catalog.views();
        let n_rows = rows.len() / f;

        let mut users = FactorMatrix::random(tile.len(), f, 1.0, seed + 1).data().to_vec();
        let mut ks: Vec<Option<usize>> = tile.iter().map(|&(k, _)| (k > 0).then_some(k)).collect();
        let mut mods: Vec<u32> = tile.iter().map(|&(_, m)| m).collect();
        let total: usize = views.iter().map(|v| v.block_max.len()).sum();
        let mut bounds: Vec<usize> = shard_cuts.iter().map(|c| c % (total + 1)).collect();
        if plant {
            // A block is pruned only when every heap of the tile agrees, and
            // z must share v's part: every user points along v and keeps its
            // best item, and the blocks are scanned whole.
            for (i, x) in users.chunks_exact_mut(f).enumerate() {
                let c = 0.5 + 0.25 * (i % 4) as f32;
                x.iter_mut().zip(&v).for_each(|(x, v)| *x = v * c);
                ks[i] = ks[i].map(|_| 1);
                mods[i] = 0;
            }
            ks[0] = Some(1);
            bounds.clear();
        }
        bounds.sort_unstable();
        bounds.dedup();
        let excluded = |i: usize, item: u32| {
            mods[i] > 0 && (item + i as u32).is_multiple_of(mods[i] + 1)
        };
        let mut parts: Vec<Vec<Vec<(u32, f32)>>> = vec![Vec::new(); tile.len()];
        let starts = std::iter::once(0).chain(bounds.iter().copied());
        let ends = bounds.iter().copied().chain(std::iter::once(usize::MAX));
        for range in starts.zip(ends).map(|(a, b)| a..b) {
            let mut heaps: Vec<Option<TopK>> = ks.iter().map(|k| k.map(TopK::new)).collect();
            let exact = ApproxPolicy::exact();
            scan_top_k(&users, f, &mut heaps, &views, range, score, &exact, excluded);
            for (part, heap) in parts.iter_mut().zip(heaps) {
                part.extend(heap.map(TopK::into_sorted_vec));
            }
        }

        let catalog_rows = catalog.rows(f);
        for (i, x) in users.chunks_exact(f).enumerate() {
            let got = ks[i].map_or_else(Vec::new, |k| merge_top_k(&parts[i], k));
            let mut want: Vec<(u32, f32)> = catalog_rows
                .iter()
                .filter(|&&(id, _, _)| ks[i].is_some() && !excluded(i, id))
                .map(|&(id, row, norm)| (id, score.finish(score_dot(x, row), norm)))
                .collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            want.truncate(ks[i].unwrap_or(0));
            let bits = |l: &[(u32, f32)]| -> Vec<(u32, u32)> {
                l.iter().map(|&(v, s)| (v, s.to_bits())).collect()
            };
            prop_assert_eq!(
                bits(&got), bits(&want),
                "user {} of {} rows, {:?}, blocks {:?} of {}", i, n_rows, score, bounds, total
            );
        }
    }

    /// Codec satellite: the scalar f16 round trip stays within the
    /// documented bound for every input class — normals within
    /// `F16_REL_ERR · |x|`, subnormals within `F16_SUBNORMAL_ABS`, and the
    /// sign (including signed zero) always survives.
    #[test]
    fn f16_round_trip_error_within_documented_bound(x in arb_codec_value()) {
        let back = f16_bits_to_f32(f32_to_f16_bits(x));
        let err = (back - x).abs();
        prop_assert!(
            err <= F16_REL_ERR * x.abs() + F16_SUBNORMAL_ABS,
            "x={x:e} decoded {back:e} err {err:e}"
        );
        prop_assert_eq!(
            back.is_sign_negative(), x.is_sign_negative(),
            "sign flipped: {} -> {}", x, back
        );
        if x == 0.0 {
            // ±0 must round-trip bit-exactly, not just within tolerance.
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    /// Codec satellite: for both codecs, every decoded row of an encoded
    /// slab sits within [`EncodedSlab::err_bound`] of its exact source row
    /// (the bound the pruning path folds into Cauchy–Schwarz), and for I8
    /// each coefficient is within half the block's independently recomputed
    /// scale.  Inputs include zeros, negatives, and subnormal-range values.
    #[test]
    fn encoded_slab_round_trip_stays_within_err_bound(
        (f, items) in arb_codec_slab(),
        quant_block in 1usize..17,
    ) {
        let rows = items.len() / f;
        for precision in [Precision::F16, Precision::I8] {
            let slab = EncodedSlab::encode(&items, f, quant_block, precision).unwrap();
            prop_assert_eq!(slab.rows(), rows);
            prop_assert_eq!(slab.precision(), precision);
            let decoded = slab.decode_all();
            for b in 0..rows.div_ceil(quant_block) {
                let (s, e) = (b * quant_block, ((b + 1) * quant_block).min(rows));
                let max_norm = decoded[s * f..e * f]
                    .chunks(f)
                    .map(|r| r.iter().map(|&v| v * v).sum::<f32>().sqrt())
                    .fold(0.0f32, f32::max);
                let bound = slab.err_bound(s, e, max_norm);
                for r in s..e {
                    let err = (0..f)
                        .map(|d| {
                            let delta = decoded[r * f + d] - items[r * f + d];
                            delta * delta
                        })
                        .sum::<f32>()
                        .sqrt();
                    prop_assert!(
                        err <= bound * (1.0 + 1e-5) + 1e-12,
                        "{precision}: row {r} err {err:e} > bound {bound:e}"
                    );
                }
                if precision == Precision::I8 {
                    // Re-derive the block scale independently of the codec
                    // and hold every coefficient to the documented scale/2.
                    let scale = items[s * f..e * f]
                        .iter()
                        .fold(0.0f32, |m, &x| m.max(x.abs()))
                        / 127.0;
                    for (x, d) in items[s * f..e * f].iter().zip(&decoded[s * f..e * f]) {
                        // The f32 divide inside the encoder can tip an
                        // exact-halfway case, so allow half an ulp of slack
                        // on top of the documented scale/2.
                        prop_assert!(
                            (d - x).abs() <= scale * 0.5 * (1.0 + 1e-4) + 1e-7,
                            "i8 block {b}: x {x:e} decoded {d:e} scale {scale:e}"
                        );
                    }
                }
            }
        }
    }

    /// Codec satellite: windowed decode is exactly the matching slice of the
    /// full decode (the scan's tile-by-tile path cannot drift from the
    /// whole-slab path), and all-zero blocks decode to exact zeros.
    #[test]
    fn windowed_decode_matches_full_decode(
        (f, mut items) in arb_codec_slab(),
        quant_block in 1usize..9,
        window in 0usize..64,
    ) {
        // Zero the first row so at least one exact-zero region exists.
        for x in items.iter_mut().take(f) {
            *x = 0.0;
        }
        let rows = items.len() / f;
        for precision in [Precision::F16, Precision::I8] {
            let slab = EncodedSlab::encode(&items, f, quant_block, precision).unwrap();
            let full = slab.decode_all();
            let start = window % rows;
            let end = (start + 1 + window % 7).min(rows);
            let mut out = vec![0.0f32; (end - start) * f];
            slab.decode_rows(start, end, &mut out);
            prop_assert_eq!(&out[..], &full[start * f..end * f], "{}", precision);
            prop_assert_eq!(
                &full[..f], &vec![0.0f32; f][..],
                "{}: zero row must decode to exact zeros", precision
            );
        }
    }

    #[test]
    fn transpose_involution_dense(rows in 1usize..10, cols in 1usize..10, seed in 0u64..100) {
        let fm = FactorMatrix::random(rows, cols, 1.0, seed);
        let m = DenseMatrix::from_vec(rows, cols, fm.data().to_vec());
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}

/// A group of no systems: every lane reports success and nothing is read
/// or written.
#[test]
fn group_solve_of_no_systems_is_all_ok() {
    for f in [1usize, 5, 32] {
        let mut x: Vec<f32> = Vec::new();
        assert_eq!(GroupSolver::new(f).solve(&[], &mut x), [Ok(()); GROUP]);
    }
}
