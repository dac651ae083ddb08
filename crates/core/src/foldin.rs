//! Incremental user fold-in: solving new-or-updated users against frozen
//! item factors.
//!
//! The ALS update of equation (2) solves every user's factors from an
//! *independent* per-user Hermitian system — nothing couples user `u`'s
//! solve to any other user once `Θ` is fixed.  That independence is what
//! makes incremental serving cheap: a new user (or a user with fresh
//! ratings) can be **folded in** by solving just their normal equations
//! against the already-trained `Θ`, without touching the other `m − 1` users
//! and without retraining.  The result feeds a serving-side delta
//! publication (`cumf-serve`'s `SnapshotDelta`), which is the paper-scale
//! point: at production sizes, moving whole factor matrices dominates cost,
//! so an update that touches `u` users should move `O(u·f)` bytes.
//!
//! The solve itself is [`crate::als::kernels::solve_rows`] — the same
//! per-row kernel every training engine uses, parallel over users via
//! rayon — so a folded-in user gets *exactly* the factors one more
//! update-`X` half-iteration would have given them.  The contiguous
//! ([`fold_in_users`]) and the segmented ([`fold_in_users_segmented`]) path
//! differ only in how a rating's item id finds its `θ_v`; both take an
//! optional [`TrainMetrics`] sink, and `None` records nothing.

use crate::als::kernels::{solve_rows, solve_side};
use crate::instrument::TrainMetrics;
use cumf_linalg::batch::SegmentView;
use cumf_linalg::FactorMatrix;
use cumf_sparse::{Coo, Csr};
use std::time::Instant;

/// Solves the ALS normal equations for a batch of users against frozen item
/// factors.
///
/// * `ratings` — one row per folded-in user over the **full catalog** column
///   space (`n_cols == theta.len()`); build it with [`ratings_rows`] from
///   per-user rating lists.
/// * `theta` — the frozen item factors.
/// * `lambda` — the same weighted-λ regularization used in training: each
///   row's ridge is `λ · n_u`.
/// * `metrics` — optional batch-latency recording: the whole batch's wall
///   time lands in the [`TrainMetrics`] `fold_in` histogram and each
///   non-empty row records its assembly/solve phases, exactly like an
///   instrumented training half-iteration.  `None` records nothing.
///
/// Returns one factor row per input row (row `i` of the result belongs to
/// row `i` of `ratings`).  Users with no ratings get a zero vector, exactly
/// like an empty row in training.
///
/// # Panics
/// Panics if `ratings.n_cols() != theta.len()`.
pub fn fold_in_users(
    ratings: &Csr,
    theta: &FactorMatrix,
    lambda: f32,
    metrics: Option<&TrainMetrics>,
) -> FactorMatrix {
    assert_eq!(
        ratings.n_cols() as usize,
        theta.len(),
        "fold-in ratings must span the item catalog"
    );
    let started = metrics.map(|_| Instant::now());
    let out = solve_side(ratings, theta, lambda, metrics);
    if let (Some(m), Some(t0)) = (metrics, started) {
        m.record_fold_in(t0.elapsed());
    }
    out
}

/// [`fold_in_users`] against a **segmented** item catalog: assembles each
/// user's Hermitian by resolving rating item ids through the segment views
/// (`Arc`-shared slabs in whatever stored order the serving layout chose),
/// so the incremental path never materializes a contiguous catalog-order
/// `Θ` — killing the `O(n·f)` `ItemStore::to_matrix()` copy per batch.
///
/// * `segments` — views tiling the catalog `[0, ratings.n_cols())` in
///   ascending `first_id` order, e.g. the serving tier's
///   `ItemStore::views()`.  Permuted segments must carry their `pos`
///   inverse remap.
/// * `f` — the latent rank (views carry slabs, not ranks).
/// * `metrics` — the same optional recording as [`fold_in_users`].
///
/// Per row, ratings are visited in the same CSR order as the contiguous
/// path, so results are **bit-identical** to
/// `fold_in_users(ratings, &store.to_matrix(), lambda, None)`.
///
/// # Panics
/// Panics if the segments do not tile the catalog or a slab disagrees with
/// `f`.
pub fn fold_in_users_segmented(
    ratings: &Csr,
    segments: &[SegmentView<'_>],
    f: usize,
    lambda: f32,
    metrics: Option<&TrainMetrics>,
) -> FactorMatrix {
    assert!(f > 0, "latent dimension must be positive");
    let mut covered = 0usize;
    for seg in segments {
        assert_eq!(
            seg.first_id as usize, covered,
            "fold-in segments must tile the catalog contiguously"
        );
        assert_eq!(seg.items.len(), seg.n_items() * f, "segment slab rank");
        covered += seg.n_items();
    }
    assert_eq!(
        covered,
        ratings.n_cols() as usize,
        "fold-in ratings must span the item catalog"
    );

    let started = metrics.map(|_| Instant::now());
    // Rating item ids arrive in catalog order per row; each resolves to
    // (segment, stored row) with two u32 lookups — no catalog-order slab
    // exists anywhere.
    let theta_of = |v: u32| {
        let i = segments
            .partition_point(|s| s.first_id <= v)
            .saturating_sub(1);
        segments[i].vector_of(v, f)
    };
    let out = solve_rows(ratings, f, theta_of, &[], lambda, metrics);
    if let (Some(m), Some(t0)) = (metrics, started) {
        m.record_fold_in(t0.elapsed());
    }
    out
}

/// Builds the fold-in ratings matrix from per-user `(item, rating)` lists:
/// row `i` holds `rows[i]` over an `n_items`-column space.
///
/// # Panics
/// Panics if any item id is out of range.
pub fn ratings_rows(rows: &[Vec<(u32, f32)>], n_items: u32) -> Csr {
    let mut coo = Coo::with_capacity(rows.len() as u32, n_items, rows.iter().map(Vec::len).sum());
    for (u, row) in rows.iter().enumerate() {
        for &(item, rating) in row {
            coo.push(u as u32, item, rating)
                .expect("fold-in item id out of range");
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::AlsEngine;
    use crate::config::AlsConfig;
    use crate::instrument::Phase;
    use cumf_data::synth::SyntheticConfig;

    fn trained() -> (Csr, AlsEngine) {
        let data = SyntheticConfig {
            m: 150,
            n: 80,
            nnz: 4000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate();
        let r = data.to_csr();
        let mut engine = AlsEngine::new(
            AlsConfig {
                f: 8,
                lambda: 0.05,
                iterations: 4,
                ..Default::default()
            },
            r.clone(),
        );
        for _ in 0..4 {
            engine.iterate();
        }
        (r, engine)
    }

    #[test]
    fn folding_in_training_rows_matches_one_more_half_iteration() {
        // fold_in_users solves the same system as update_x: feeding the
        // training matrix back in must reproduce solve_side's X exactly.
        let (r, mut engine) = trained();
        let folded = fold_in_users(&r, engine.theta(), engine.config().lambda, None);
        engine.update_side(true);
        assert_eq!(folded.max_abs_diff(engine.x()), 0.0);
    }

    #[test]
    fn folded_in_user_predicts_their_ratings() {
        // A brand-new user whose ratings follow an existing user's row gets
        // factors that reconstruct those ratings about as well as training
        // did for the original user.
        let (r, engine) = trained();
        let (items, vals) = r.row(3);
        let rows = vec![items.iter().copied().zip(vals.iter().copied()).collect()];
        let batch = ratings_rows(&rows, r.n_cols());
        let folded = fold_in_users(&batch, engine.theta(), engine.config().lambda, None);
        assert_eq!(folded.len(), 1);
        let mse: f64 = items
            .iter()
            .zip(vals.iter())
            .map(|(&v, &rating)| {
                let p = cumf_linalg::blas::dot(folded.vector(0), engine.theta().vector(v as usize));
                ((p - rating) as f64).powi(2)
            })
            .sum::<f64>()
            / items.len() as f64;
        assert!(mse.sqrt() < 0.5, "fold-in RMSE too high: {}", mse.sqrt());
    }

    #[test]
    fn empty_rating_rows_fold_to_zero_vectors() {
        let (r, engine) = trained();
        let rows = vec![Vec::new(), vec![(0u32, 4.0f32)]];
        let batch = ratings_rows(&rows, r.n_cols());
        let folded = fold_in_users(&batch, engine.theta(), 0.05, None);
        assert!(folded.vector(0).iter().all(|&v| v == 0.0));
        assert!(folded.vector(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "must span the item catalog")]
    fn catalog_width_mismatch_panics() {
        let (_, engine) = trained();
        let batch = ratings_rows(&[vec![(0, 1.0)]], 10);
        fold_in_users(&batch, engine.theta(), 0.05, None);
    }

    /// Splits `theta` at the given cuts into segments, permuting each
    /// segment's stored order norm-descending with `ids`/`pos` remaps —
    /// the same shape the serving `ItemStore` produces.
    struct SegmentedTheta {
        slabs: Vec<Vec<f32>>,
        norms: Vec<Vec<f32>>,
        tables: Vec<Vec<f32>>,
        ids: Vec<Vec<u32>>,
        pos: Vec<Vec<u32>>,
        firsts: Vec<u32>,
    }

    impl SegmentedTheta {
        fn build(theta: &FactorMatrix, cuts: &[usize]) -> Self {
            let f = theta.rank();
            let all_norms = cumf_linalg::item_norms(theta.data(), f);
            let mut out = Self {
                slabs: Vec::new(),
                norms: Vec::new(),
                tables: Vec::new(),
                ids: Vec::new(),
                pos: Vec::new(),
                firsts: Vec::new(),
            };
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let mut order: Vec<usize> = (lo..hi).collect();
                order.sort_by(|&a, &b| all_norms[b].total_cmp(&all_norms[a]).then(a.cmp(&b)));
                let mut slab = Vec::with_capacity((hi - lo) * f);
                let mut norms = Vec::with_capacity(hi - lo);
                let mut pos = vec![0u32; hi - lo];
                for (row, &g) in order.iter().enumerate() {
                    slab.extend_from_slice(theta.vector(g));
                    norms.push(all_norms[g]);
                    pos[g - lo] = row as u32;
                }
                out.tables.push(cumf_linalg::block_max_norms(&norms, 16));
                out.slabs.push(slab);
                out.norms.push(norms);
                out.ids.push(order.iter().map(|&g| g as u32).collect());
                out.pos.push(pos);
                out.firsts.push(lo as u32);
            }
            out
        }

        fn views(&self) -> Vec<SegmentView<'_>> {
            (0..self.slabs.len())
                .map(|i| SegmentView {
                    items: &self.slabs[i],
                    norms: &self.norms[i],
                    block_max: &self.tables[i],
                    item_block: 16,
                    first_id: self.firsts[i],
                    ids: Some(&self.ids[i]),
                    pos: Some(&self.pos[i]),
                    encoded: None,
                })
                .collect()
        }
    }

    #[test]
    fn segmented_fold_in_is_bit_identical_to_the_contiguous_path() {
        let (r, engine) = trained();
        let n = r.n_cols() as usize;
        let f = engine.theta().rank();
        // Fold the whole training matrix plus an empty row, across several
        // segmentations including single-segment and ragged cuts.
        let mut rows: Vec<Vec<(u32, f32)>> = (0..r.n_rows())
            .map(|u| {
                let (items, vals) = r.row(u);
                items.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        rows.push(Vec::new());
        let batch = ratings_rows(&rows, r.n_cols());
        let expect = fold_in_users(&batch, engine.theta(), 0.05, None);
        for cuts in [vec![0usize, n], vec![0, 17, n], vec![0, 1, 2, 40, n]] {
            let seg = SegmentedTheta::build(engine.theta(), &cuts);
            let views = seg.views();
            let got = fold_in_users_segmented(&batch, &views, f, 0.05, None);
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "cuts {cuts:?} must be bit-identical"
            );
        }
    }

    #[test]
    fn segmented_fold_in_records_metrics_like_the_contiguous_path() {
        let (r, engine) = trained();
        let seg = SegmentedTheta::build(engine.theta(), &[0, r.n_cols() as usize]);
        let views = seg.views();
        let batch = ratings_rows(&[vec![(0, 4.0), (3, 2.0)]], r.n_cols());
        let metrics = TrainMetrics::new();
        fold_in_users_segmented(&batch, &views, engine.theta().rank(), 0.05, Some(&metrics));
        let report = metrics.report();
        assert_eq!(report[Phase::FoldIn].count(), 1);
        assert_eq!(report[Phase::SolveSide].count(), 1);
        assert_eq!(report.rows_solved(), 1);
    }

    #[test]
    #[should_panic(expected = "tile the catalog contiguously")]
    fn segmented_fold_in_rejects_gapped_segments() {
        let (r, engine) = trained();
        let seg = SegmentedTheta::build(engine.theta(), &[0, 10, r.n_cols() as usize]);
        let mut views = seg.views();
        views.remove(0);
        let batch = ratings_rows(&[vec![(0, 1.0)]], r.n_cols());
        fold_in_users_segmented(&batch, &views, engine.theta().rank(), 0.05, None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_item_panics() {
        ratings_rows(&[vec![(99, 1.0)]], 10);
    }
}
