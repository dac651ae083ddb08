//! Blocked retrieval-time scoring: [`batch_score_block`], the kernel
//! every top-k scan ends in, and [`SegmentView`], the borrowed view of one
//! item-factor segment that the scan walks.
//!
//! The paper's `batch_solve` phase (cuBLAS's batched POTRF/POTRS) has no
//! batch driver here: the ALS row loop hands its systems four at a time to
//! [`crate::cholesky::GroupSolver`] itself.

use crate::quant::EncodedSlab;

/// Scores a micro-batch of user vectors against a block of item vectors —
/// the retrieval-time counterpart of the training-time batched GEMM: the
/// same item block is reused across every user in the batch, which is the
/// cache (and, on a GPU, shared-memory) win batched serving exploits.
///
/// * `users` — `n_users` row-major user vectors, `n_users · f` long.
/// * `items` — `n_items` row-major item vectors, `n_items · f` long.
/// * `out` — `n_users · n_items` scores, written as
///   `out[i · n_items + j] = users[i] · items[j]`.
///
/// The loop order (item-major inner loop per user) streams each item block
/// once per user while the user vector stays register/L1-resident.
///
/// **A score is [`score_dot`]**, bit for bit.  `ROWS` item rows are scored
/// per pass: each fills its own four lanes with `score_dot`'s plain loop,
/// then the `ROWS` horizontal sums and scalar tails run together — a
/// transpose and vertical adds instead of one dependent scalar reduction per
/// row, which is what kept the scan compute-bound (no FMA on the default
/// target; a row's chain is latency-bound).  Same operations, same order.
pub fn batch_score_block(
    users: &[f32],
    n_users: usize,
    items: &[f32],
    n_items: usize,
    f: usize,
    out: &mut [f32],
) {
    assert!(f > 0, "latent dimension must be positive");
    assert_eq!(users.len(), n_users * f, "user buffer size mismatch");
    assert_eq!(items.len(), n_items * f, "item buffer size mismatch");
    assert_eq!(out.len(), n_users * n_items, "score buffer size mismatch");
    let f4 = f & !3;
    for (i, x_u) in users.chunks_exact(f).enumerate() {
        let (x4, x_tail) = x_u.split_at(f4);
        let mut scores = out[i * n_items..(i + 1) * n_items].chunks_exact_mut(ROWS);
        let mut tiles = items.chunks_exact(ROWS * f);
        for (s, tile) in (&mut scores).zip(&mut tiles) {
            let mut acc = [[0.0f32; 4]; ROWS];
            for (a, theta_v) in acc.iter_mut().zip(tile.chunks_exact(f)) {
                for (xc, yc) in x4.chunks_exact(4).zip(theta_v[..f4].chunks_exact(4)) {
                    a[0] += xc[0] * yc[0];
                    a[1] += xc[1] * yc[1];
                    a[2] += xc[2] * yc[2];
                    a[3] += xc[3] * yc[3];
                }
            }
            for (s, a) in s.iter_mut().zip(&acc) {
                *s = (a[0] + a[1]) + (a[2] + a[3]);
            }
            for (s, theta_v) in s.iter_mut().zip(tile.chunks_exact(f)) {
                for (a, b) in x_tail.iter().zip(&theta_v[f4..]) {
                    *s += a * b;
                }
            }
        }
        let rest = scores.into_remainder().iter_mut();
        for (s, theta_v) in rest.zip(tiles.remainder().chunks_exact(f)) {
            *s = score_dot(x_u, theta_v);
        }
    }
}

/// Item rows [`batch_score_block`] reduces together: with 4, `perf`'s
/// `serve_scan` streams at the host rate; 2 and 8 measured within noise of it.
const ROWS: usize = 4;

/// A borrowed, scoring-ready view of one **item-factor segment**: a
/// contiguous run of catalog items stored in their own row-major slab, in an
/// order that may differ from catalog order (norm-descending layouts), plus
/// the tables retrieval needs to prune blocks and to remap stored rows back
/// to global item ids.
///
/// A segmented catalog (base slab + appended tails) is scored by walking a
/// slice of views — each segment is block-aligned on its own, so the blocked
/// kernels never straddle a segment boundary.  The stored order never
/// changes a score (`x_u · θ_v` depends only on the two vectors) and the
/// top-k heap's tie-break is a total order on `(score, global id)`, so
/// segmentation and permutation are layout-only: results are bit-identical
/// to scoring one contiguous catalog-order slab.
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    /// Row-major item factors in *stored* order (`n_items · f` floats).
    pub items: &'a [f32],
    /// Per-stored-row L2 norms (threshold pruning, Cosine scoring).
    pub norms: &'a [f32],
    /// Per-block norm maxima over the stored order, at `item_block`
    /// granularity (`block_max_norms` over `norms`).
    pub block_max: &'a [f32],
    /// Items per block of this segment's `block_max` table.
    pub item_block: usize,
    /// Global id of stored row `i` when `ids` is `None`: `first_id + i`.
    pub first_id: u32,
    /// Stored-row → global-id remap for permuted segments (`None` =
    /// identity off `first_id`).
    pub ids: Option<&'a [u32]>,
    /// Global-offset → stored-row inverse of `ids` (`pos[id - first_id]`
    /// is the stored row of catalog item `id`; `None` = identity).  Point
    /// lookups — notably the segment-aware fold-in, which walks rating item
    /// ids — resolve through this instead of materializing a contiguous
    /// catalog-order slab.
    pub pos: Option<&'a [u32]>,
    /// Compressed copy of `items` when the segment stores a reduced
    /// precision ([`crate::quant::Precision`]).  The blocked scan streams
    /// this slab (decoding tile-by-tile) instead of `items`; `items` stays
    /// the retained **exact** f32 rows that point lookups, fold-in
    /// Hermitian assembly, and the serving rerank pass read.  `None` = the
    /// segment is full-precision and every path reads `items`.
    pub encoded: Option<&'a EncodedSlab>,
}

impl<'a> SegmentView<'a> {
    /// Number of items in this segment.
    pub fn n_items(&self) -> usize {
        self.norms.len()
    }

    /// Global item id of stored row `row`.
    #[inline]
    pub fn global_id(&self, row: usize) -> u32 {
        match self.ids {
            Some(ids) => ids[row],
            None => self.first_id + row as u32,
        }
    }

    /// Stored row holding global item id `id`, which must lie in this
    /// segment's `[first_id, first_id + n_items)` range.
    ///
    /// # Panics
    /// Panics if `id` is outside the segment, or if the segment is permuted
    /// (`ids` present) but was built without its `pos` inverse remap.
    #[inline]
    pub fn stored_row(&self, id: u32) -> usize {
        let offset = (id - self.first_id) as usize;
        assert!(offset < self.n_items(), "item {id} outside segment");
        match (self.pos, self.ids) {
            (Some(pos), _) => pos[offset] as usize,
            (None, None) => offset,
            (None, Some(_)) => panic!("permuted segment view lacks its position remap"),
        }
    }

    /// Factor vector of global item id `id` (rank `f`), resolved through
    /// the stored-order slab — the point-lookup counterpart of the blocked
    /// scoring kernels.
    #[inline]
    pub fn vector_of(&self, id: u32, f: usize) -> &'a [f32] {
        let row = self.stored_row(id);
        &self.items[row * f..(row + 1) * f]
    }

    /// Checks the view's internal consistency for rank `f`.
    ///
    /// # Panics
    /// Panics if the slab, norms, remap, or block-max table disagree.
    pub fn validate(&self, f: usize) {
        assert!(f > 0, "latent dimension must be positive");
        assert!(self.item_block > 0, "item block must be positive");
        assert_eq!(
            self.items.len(),
            self.norms.len() * f,
            "segment slab does not match its norms"
        );
        assert_eq!(
            self.block_max.len(),
            self.n_items().div_ceil(self.item_block),
            "segment block maxima do not match its blocking"
        );
        if let Some(ids) = self.ids {
            assert_eq!(ids.len(), self.n_items(), "segment id remap length");
        }
        if let Some(pos) = self.pos {
            assert_eq!(pos.len(), self.n_items(), "segment position remap length");
        }
        if let Some(encoded) = self.encoded {
            assert_eq!(encoded.rows(), self.n_items(), "encoded slab row count");
            assert_eq!(encoded.rank(), f, "encoded slab rank");
        }
    }
}

/// Four-lane `f32` dot product for retrieval scoring.  Public so the
/// serving rerank pass can rescore candidates with the *same* accumulation
/// order the blocked scan uses — an exact-f32 rescore then reproduces the
/// scan's score bit-for-bit instead of differing in the last ulp.
#[inline]
pub fn score_dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let (x4, x_tail) = x.split_at(x.len() & !3);
    let (y4, y_tail) = y.split_at(x4.len());
    for (xc, yc) in x4.chunks_exact(4).zip(y4.chunks_exact(4)) {
        acc[0] += xc[0] * yc[0];
        acc[1] += xc[1] * yc[1];
        acc[2] += xc[2] * yc[2];
        acc[3] += xc[3] * yc[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (a, b) in x_tail.iter().zip(y_tail.iter()) {
        s += a * b;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{scan_top_k, ApproxPolicy, ScoreKind, TopK};
    use crate::FactorMatrix;

    #[test]
    fn score_block_matches_per_pair_dots() {
        use crate::blas::dot;
        let f = 6; // not a multiple of 4: exercises the unroll tail
        let users = FactorMatrix::random(4, f, 1.0, 21);
        let items = FactorMatrix::random(9, f, 1.0, 22);
        let mut out = vec![0.0f32; 4 * 9];
        batch_score_block(users.data(), 4, items.data(), 9, f, &mut out);
        for u in 0..4 {
            for v in 0..9 {
                let expect = dot(users.vector(u), items.vector(v));
                let got = out[u * 9 + v];
                // The scoring kernel re-associates the f32 sum; equality up
                // to a few ulps of the f64-accumulated reference.
                assert!(
                    (got - expect).abs() <= 1e-5 * (1.0 + expect.abs()),
                    "score ({u}, {v}): {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn segment_view_scores_and_remaps_like_the_flat_kernel() {
        let f = 5;
        let items = FactorMatrix::random(12, f, 1.0, 31);
        let norms: Vec<f32> = items
            .data()
            .chunks_exact(f)
            .map(|v| crate::blas::norm_sq(v).sqrt())
            .collect();
        let block_max = crate::topk::block_max_norms(&norms, 4);
        let ids: Vec<u32> = (0..12u32).map(|i| 100 + i * 2).collect();
        let seg = SegmentView {
            items: items.data(),
            norms: &norms,
            block_max: &block_max,
            item_block: 4,
            first_id: 0,
            ids: Some(&ids),
            pos: None,
            encoded: None,
        };
        seg.validate(f);
        assert_eq!(seg.n_items(), 12);
        assert_eq!(seg.global_id(3), 106);
        let no_remap = SegmentView {
            ids: None,
            first_id: 7,
            ..seg
        };
        assert_eq!(no_remap.global_id(3), 10);

        // A tile of two over the whole view keeps every row, remapped.
        let users = FactorMatrix::random(2, f, 1.0, 32);
        let mut heaps = [Some(TopK::new(12)), Some(TopK::new(12))];
        let exact = ApproxPolicy::exact();
        scan_top_k(
            users.data(),
            f,
            &mut heaps,
            &[seg],
            0..3,
            ScoreKind::Dot,
            &exact,
            |_, _| false,
        );
        let mut flat_out = vec![0.0f32; 2 * 12];
        batch_score_block(users.data(), 2, items.data(), 12, f, &mut flat_out);
        for (heap, flat) in heaps.into_iter().zip(flat_out.chunks(12)) {
            let mut got = heap.unwrap().into_sorted_vec();
            got.sort_by_key(|&(id, _)| id);
            let expect: Vec<(u32, f32)> = ids.iter().copied().zip(flat.iter().copied()).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    #[should_panic(expected = "block maxima")]
    fn segment_view_rejects_mismatched_block_max() {
        let seg = SegmentView {
            items: &[0.0; 8],
            norms: &[0.0; 4],
            block_max: &[0.0; 3],
            item_block: 2,
            first_id: 0,
            ids: None,
            pos: None,
            encoded: None,
        };
        seg.validate(2);
    }

    #[test]
    fn stored_row_resolves_through_the_position_remap() {
        let f = 3;
        // Stored order [2, 0, 1] of a 3-item segment starting at id 10.
        let items = FactorMatrix::random(3, f, 1.0, 41);
        let norms = crate::topk::item_norms(items.data(), f);
        let bm = crate::topk::block_max_norms(&norms, 2);
        let ids = [12u32, 10, 11];
        let pos = [1u32, 2, 0];
        let seg = SegmentView {
            items: items.data(),
            norms: &norms,
            block_max: &bm,
            item_block: 2,
            first_id: 10,
            ids: Some(&ids),
            pos: Some(&pos),
            encoded: None,
        };
        seg.validate(f);
        for id in 10..13u32 {
            let row = seg.stored_row(id);
            assert_eq!(seg.global_id(row), id, "ids/pos must be inverses");
            assert_eq!(seg.vector_of(id, f), items.vector(row));
        }
        // Identity segment: stored row is the global offset.
        let plain = SegmentView {
            ids: None,
            pos: None,
            first_id: 5,
            ..seg
        };
        assert_eq!(plain.stored_row(6), 1);
        assert_eq!(plain.vector_of(7, f), items.vector(2));
    }

    #[test]
    #[should_panic(expected = "lacks its position remap")]
    fn permuted_view_without_pos_rejects_point_lookups() {
        let ids = [1u32, 0];
        let seg = SegmentView {
            items: &[0.0; 4],
            norms: &[0.0; 2],
            block_max: &[0.0; 1],
            item_block: 2,
            first_id: 0,
            ids: Some(&ids),
            pos: None,
            encoded: None,
        };
        let _ = seg.stored_row(0);
    }

    #[test]
    fn score_block_empty_items_is_ok() {
        let mut out = vec![];
        batch_score_block(&[1.0, 2.0], 1, &[], 0, 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "score buffer size mismatch")]
    fn score_block_rejects_bad_output_len() {
        let mut out = vec![0.0f32; 3];
        batch_score_block(&[1.0, 2.0], 1, &[1.0, 2.0], 1, 2, &mut out);
    }
}
