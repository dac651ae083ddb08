//! Bounded top-k selection over scored items, and the one blocked scan that
//! feeds it.
//!
//! Retrieval ranks every candidate item for a user but only ever returns the
//! `k` best.  Sorting all `n` scores costs `O(n log n)` and materializes the
//! whole score vector; the bounded min-heap here costs `O(n log k)` with
//! `O(k)` state.  Every retrieval in the tree — `cumf-serve`'s sharded
//! micro-batches, `FactorSnapshot::recommend_one` (a batch of one) and
//! `MatrixFactorizer::recommend` (a tile of one over Θ) — is [`scan_top_k`]:
//! per item block one prune decision, one kernel call
//! ([`crate::batch::batch_score_block`], or
//! [`crate::quant::batch_score_rows_quant`] over an encoded slab) and one heap
//! feed per user (`TopK::offer_block`).  Callers differ only in the tile,
//! the segments, the block range and the [`ApproxPolicy`].

use crate::batch::{batch_score_block, SegmentView};
use crate::quant::batch_score_rows_quant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Default items per scored block — the granularity of the block-max pruning
/// tables and the scans' scratch rows.  512 vectors of `f ≤ 128` floats stay
/// within L2, where a multi-user tile re-reads them.
pub const DEFAULT_ITEM_BLOCK: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    item: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower score = "greater" so BinaryHeap (a max-heap) keeps the
        // *worst* kept item at the top, ready for eviction.  Ties break
        // toward evicting the larger item id, so results prefer small ids —
        // deterministic regardless of scoring order.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.item.cmp(&other.item))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded min-heap keeping the `k` highest-scored items seen so far.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Scored>,
}

impl TopK {
    /// Creates an accumulator for the best `k` items.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one scored item; keeps it only if it beats the current k-th
    /// best.  NaN scores are rejected.
    #[inline]
    pub fn push(&mut self, item: u32, score: f32) {
        if score.is_nan() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Scored { score, item });
            return;
        }
        let worst = self.heap.peek().expect("heap is non-empty when full");
        let candidate = Scored { score, item };
        // `worst` sorts "greater" when its score is lower (see `Ord`).
        if *worst > candidate {
            self.heap.pop();
            self.heap.push(candidate);
        }
    }

    /// Offers one scored block — the one feed every blocked scan ends in:
    /// `scores[j]` belongs to item `id_of(j)`; items `skip` accepts are
    /// excluded.  Same heap as `push`ing each non-skipped item in order, but
    /// **threshold-first**: with a full heap, `s < t` drops a score with one
    /// compare, before the id remap, the exclusion lookup or the heap are
    /// touched.  Exact: `s < t` implies `total_cmp == Less`, which
    /// [`TopK::push`] refuses; ties, `±0.0` and NaN are not `<` and reach
    /// `push`; `t` is re-read after every push (ARCHITECTURE.md, scan kernel).
    fn offer_block(
        &mut self,
        scores: &[f32],
        id_of: impl Fn(usize) -> u32,
        mut skip: impl FnMut(u32) -> bool,
    ) {
        // No score is `< -inf`, so a heap that is still filling admits all.
        let mut t = self.threshold().unwrap_or(f32::NEG_INFINITY);
        for (j, &s) in scores.iter().enumerate() {
            if s < t {
                continue;
            }
            let item = id_of(j);
            if !skip(item) {
                self.push(item, s);
                t = self.threshold().unwrap_or(f32::NEG_INFINITY);
            }
        }
    }

    /// Lowest score currently kept, if the heap is full (useful for
    /// short-circuiting whole blocks of low-scoring candidates).
    fn threshold(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|s| s.score)
        }
    }

    /// Number of items currently held (`≤ k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no item has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the heap, returning `(item, score)` sorted by score
    /// descending (ties by item id ascending).
    pub fn into_sorted_vec(self) -> Vec<(u32, f32)> {
        let mut v: Vec<Scored> = self.heap.into_vec();
        v.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
        v.into_iter().map(|s| (s.item, s.score)).collect()
    }
}

/// Relative slack applied to the Cauchy–Schwarz bound `‖x‖·max‖θ‖` before
/// comparing it against a heap `TopK::threshold`.  The exact bound already
/// dominates every exact dot product in the block; the slack additionally
/// covers the `O(f·ε)` rounding of the four-lane f32 kernel (and of the
/// norms themselves), so a block is only ever skipped when **no** computed
/// score in it could enter the heap — pruning never changes results.
pub const NORM_BOUND_SLACK: f32 = 1.0 + 1e-3;

/// Per-block maxima of item L2 norms for `item_block`-sized blocks — the
/// precomputed side of threshold pruning ([`scan_top_k`]): block
/// `b` covers items `[b·item_block, (b+1)·item_block)` and no item in it can
/// score above `‖x_u‖ · block_max[b]`.
pub fn block_max_norms(item_norms: &[f32], item_block: usize) -> Vec<f32> {
    assert!(item_block > 0, "item block must be positive");
    item_norms
        .chunks(item_block)
        .map(|block| block.iter().fold(0.0f32, |m, &n| m.max(n)))
        .collect()
}

/// L2 norms of every row of a row-major factor table (`‖θ_v‖` per item).
pub fn item_norms(items: &[f32], f: usize) -> Vec<f32> {
    assert!(f > 0, "latent dimension must be positive");
    assert_eq!(items.len() % f, 0, "item buffer not a multiple of f");
    items
        .chunks_exact(f)
        .map(|v| crate::blas::norm_sq(v).sqrt())
        .collect()
}

/// Effectiveness counters of whole-block threshold pruning: how many item
/// blocks were actually scored versus skipped on the Cauchy–Schwarz bound.
///
/// A norm-descending item layout clusters high-norm items into the first
/// blocks, so the heap threshold rises early and the long low-norm tail is
/// skipped **systematically**; in catalog order the same pruning is
/// data-dependent.  These counters make that difference measurable (and
/// testable) without changing a single result — pruning is exact either
/// way.
///
/// Approximate retrieval ([`scan_top_k`] under a non-exact policy) adds a third
/// outcome: blocks skipped because an [`ApproxPolicy`] **terminated** the
/// scan early.  Those skips may change results (that is the point of
/// approximation), so they are counted in their own field — an exact-mode
/// pruning rate (`blocks_pruned` over every block visited) stays truthful
/// when a deployment mixes in approximate traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Item blocks whose factors were streamed and scored.
    pub blocks_scored: u64,
    /// Item blocks skipped whole on the norm bound — an **exact** decision
    /// that can never change results.
    pub blocks_pruned: u64,
    /// Item blocks skipped because an [`ApproxPolicy`] ended the scan early
    /// (epsilon slack or block budget) — an **approximate** decision; 0
    /// under an exact policy.
    pub blocks_terminated: u64,
    /// Factor bytes streamed from memory by the scan: f32 bytes for plain
    /// segments, encoded bytes (plus scales) for quantized ones, and the
    /// exact f32 rows re-read by the rerank pass.  The numerator of the
    /// bytes-per-query metric the quantized path exists to shrink.
    pub bytes_scanned: u64,
    /// Candidates rescored against exact f32 rows by a quantized scan's
    /// rerank pass; always 0 on full-precision paths.
    pub rerank_candidates: u64,
    /// Wall nanoseconds the rerank pass took (filled by the serving tier's
    /// scorer; 0 when no rerank ran).  Merging sums, so a batch-level value
    /// is the total rerank time across its tiles.
    pub rerank_ns: u64,
}

impl PruneStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &PruneStats) {
        self.blocks_scored += other.blocks_scored;
        self.blocks_pruned += other.blocks_pruned;
        self.blocks_terminated += other.blocks_terminated;
        self.bytes_scanned += other.bytes_scanned;
        self.rerank_candidates += other.rerank_candidates;
        self.rerank_ns += other.rerank_ns;
    }
}

/// Knobs of approximate top-k retrieval: trade a bounded score loss for an
/// early end to the block scan.
///
/// Exact retrieval must keep scanning until every remaining block's
/// Cauchy–Schwarz bound `‖x_u‖ · max‖θ_v‖` falls below the heap threshold
/// `t`.  Approximate retrieval discounts that bound by `1 − epsilon` before
/// comparing: the scan of a segment stops at the first block `b` where
///
/// ```text
/// ‖x_u‖ · suffix_max[b] · NORM_BOUND_SLACK · (1 − epsilon) < t
/// ```
///
/// (`suffix_max[b]` = the largest block-max norm from `b` to the end of the
/// segment, so the rule is safe for **any** stored order; in a
/// norm-descending layout it equals `block_max[b]` and fires
/// systematically).  Every item the stop can drop satisfies
/// `score < t / (1 − epsilon)` — the score loss is bounded relative to the
/// k-th best already found, which is why small epsilons cost little recall.
/// At `epsilon = 0` the stop rule coincides with exact per-block pruning
/// and results are **bit-identical** to the exact path.
///
/// `max_blocks` is an orthogonal hard budget on blocks *scored* per
/// retrieval.  Both mechanisms only engage once the heap holds `k` items —
/// a `k ≥ catalog` request (the heap never fills) or a zero-norm user
/// (threshold stuck at 0, bound 0 everywhere) always scans exhaustively and
/// returns full exact results, never a short list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxPolicy {
    /// Relative slack on the termination bound, in `[0, 1)`.  `0` keeps the
    /// scan exact; larger values stop earlier and lose more recall.
    pub epsilon: f32,
    /// Hard budget of blocks scored per retrieval once the heap is full
    /// (`0` = unlimited).
    pub max_blocks: usize,
    /// Advisory recall floor for measurement harnesses and smoke gates —
    /// does not influence the scan itself.
    pub target_recall: f64,
}

/// Default `epsilon` of [`ApproxPolicy::default`] — chosen so the recall
/// harness stays ≥ 0.95 on skewed-norm catalogs while the scan stops
/// measurably earlier than exact pruning.
pub const DEFAULT_APPROX_EPSILON: f32 = 0.1;

impl Default for ApproxPolicy {
    fn default() -> Self {
        Self {
            epsilon: DEFAULT_APPROX_EPSILON,
            max_blocks: 0,
            target_recall: 0.95,
        }
    }
}

impl ApproxPolicy {
    /// A policy equivalent to exact retrieval (`epsilon = 0`, no budget).
    pub fn exact() -> Self {
        Self {
            epsilon: 0.0,
            max_blocks: 0,
            target_recall: 1.0,
        }
    }

    /// True when this policy cannot change results (`epsilon ≤ 0` and no
    /// block budget) — such a policy may share cache entries and micro-
    /// batches with exact requests.
    pub fn is_exact(&self) -> bool {
        self.epsilon <= 0.0 && self.max_blocks == 0
    }

    /// Asserts the policy is usable.
    ///
    /// # Panics
    /// Panics when `epsilon` is outside `[0, 1)` or not finite.
    pub fn validate(&self) {
        assert!(
            self.epsilon.is_finite() && (0.0..1.0).contains(&self.epsilon),
            "approx epsilon must lie in [0, 1), got {}",
            self.epsilon
        );
    }

    /// The multiplier applied to the Cauchy–Schwarz bound before the
    /// termination comparison (slack for f32 rounding included).
    fn termination_slack(&self) -> f32 {
        NORM_BOUND_SLACK * (1.0 - self.epsilon)
    }
}

/// Largest block-max norm from each block to the end of the segment:
/// `suffix_max[b] = max(block_max[b..])`.  The early-termination rule
/// compares against this (not `block_max[b]`) so stopping a segment scan is
/// safe for any stored order; for a norm-descending layout the two tables
/// coincide.
pub(crate) fn suffix_max_norms(block_max: &[f32]) -> Vec<f32> {
    let mut suffix = block_max.to_vec();
    for b in (0..suffix.len().saturating_sub(1)).rev() {
        suffix[b] = suffix[b].max(suffix[b + 1]);
    }
    suffix
}

/// Merges per-shard partial top-k lists into the final top-`k`.
///
/// Exactness: the [`TopK`] tie-break is a total order (score descending,
/// item id ascending), so the kept set is independent of push order — as
/// long as every item that would survive the unsharded heap appears in some
/// partial list (guaranteed when each shard keeps its own top-`k`, and the
/// shards may span any mix of catalog segments), the merged result is
/// bit-identical to scoring the shards as one run.
pub fn merge_top_k(parts: &[Vec<(u32, f32)>], k: usize) -> Vec<(u32, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let mut topk = TopK::new(k);
    for part in parts {
        for &(item, score) in part {
            topk.push(item, score);
        }
    }
    topk.into_sorted_vec()
}

/// How a candidate item is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreKind {
    /// Raw inner product `x_u · θ_v` (predicted rating).
    #[default]
    Dot,
    /// Inner product divided by `‖θ_v‖` — stops high-norm (popular) items
    /// from dominating every list.  The user-norm factor is constant per
    /// request and cannot change the ranking, so it is skipped.  Zero-norm
    /// (cold, never trained) items score 0.0 rather than being dropped, so a
    /// request never comes back shorter than `k` just because the catalog
    /// has cold entries.
    Cosine,
}

impl ScoreKind {
    /// The ranked score of an item from its inner product with the user and
    /// its norm — the one definition the scan and an exact rescore share.
    #[inline]
    pub fn finish(self, dot: f32, norm: f32) -> f32 {
        match self {
            ScoreKind::Dot => dot,
            ScoreKind::Cosine if norm > 0.0 => dot / norm,
            ScoreKind::Cosine => 0.0,
        }
    }
}

/// True when every fed heap is full and `below(i, t)` holds for heap `i`'s
/// threshold `t` (an empty slot never holds a block back).
fn all_full(heaps: &[Option<TopK>], below: impl Fn(usize, f32) -> bool) -> bool {
    heaps.iter().enumerate().all(|(i, h)| {
        h.as_ref()
            .is_none_or(|h| h.threshold().is_some_and(|t| below(i, t)))
    })
}

/// The blocked top-k scan: one tile of users against the blocks `blocks` of
/// a segmented catalog, feeding each user's heap.  Every retrieval in the
/// tree is a call of this — a served micro-batch is one call per
/// `(tile, shard)`, a single request and `MatrixFactorizer::recommend` are a
/// tile of one.
///
/// * `users` — `heaps.len()` row-major user vectors.  A `None` heap is a
///   slot with nothing to rank (unknown user, `k = 0`): never fed, and never
///   holds a block back.
/// * `blocks` — a range of the global block numbering, which runs over
///   `segments` in order, each contributing its `block_max.len()` blocks of
///   `item_block` stored rows (no block straddles a segment boundary).  A
///   range past the last block is clamped.
/// * `skip(i, item)` — excludes `item` from user `i`'s heap.
///
/// Each block is decided for the whole tile, in this order:
///
/// 1. **Terminate** (Dot, non-exact `policy` only): when every heap has
///    `(‖x‖ · suffix[b]) · policy.termination_slack() < t`, with `suffix[b]`
///    the largest bound from `b` to the segment's end, the rest of the
///    segment's share of `blocks` is counted terminated.  Under an exact
///    policy the prune below already implies it.
/// 2. **Prune** (Dot): when every heap has `‖x‖ · (bound[b] ·`
///    [`NORM_BOUND_SLACK`]`) < t`, the block is counted pruned.  `bound[b] =
///    block_max[b] + err_b`: `block_max` describes the rows the scan
///    streams and `err_b` ([`crate::quant::EncodedSlab::err_bound`], 0 for
///    f32 rows) how
///    much longer an exact row may be, so a skip is admissible against
///    exact scores for every precision.
/// 3. **Budget**: once `policy.max_blocks > 0` blocks were scored by this
///    call and every heap is full, the block is counted terminated.
///
/// Otherwise the block is scored for the tile with one kernel call —
/// [`batch_score_rows_quant`] over an encoded slab, [`batch_score_block`]
/// over f32 rows — Cosine scores are finished with the stored norms
/// ([`ScoreKind::finish`]), and each heap takes its row through
/// `TopK::offer_block`.  Every skip waits for full heaps, so a
/// `k ≥ catalog` request or a zero-norm user always gets a full list.
/// Under an exact policy each heap ends holding the exact top-k of the
/// streamed scores for any segmentation, stored order, blocking and block
/// partition (partials merged with [`merge_top_k`]).
#[allow(clippy::too_many_arguments)]
pub fn scan_top_k(
    users: &[f32],
    f: usize,
    heaps: &mut [Option<TopK>],
    segments: &[SegmentView<'_>],
    blocks: Range<usize>,
    score: ScoreKind,
    policy: &ApproxPolicy,
    mut skip: impl FnMut(usize, u32) -> bool,
) -> PruneStats {
    assert!(f > 0, "latent dimension must be positive");
    assert_eq!(users.len(), heaps.len() * f, "user buffer size mismatch");
    policy.validate();
    let tile = heaps.len();
    let norms: Vec<f32> = users
        .chunks_exact(f)
        .map(|x| crate::blas::norm_sq(x).sqrt())
        .collect();
    let terminate = score == ScoreKind::Dot && !policy.is_exact();
    let term_slack = policy.termination_slack();
    let max_rows = segments.iter().map(|s| s.item_block.min(s.n_items()));
    let mut scores = vec![0.0f32; tile * max_rows.max().unwrap_or(0)];
    let mut dequant = Vec::new();
    let mut stats = PruneStats::default();
    let mut first = 0;
    for seg in segments {
        seg.validate(f);
        let (n, block, n_blocks) = (seg.n_items(), seg.item_block, seg.block_max.len());
        let lo = blocks.start.max(first) - first;
        let hi = blocks.end.min(first + n_blocks).saturating_sub(first);
        first += n_blocks;
        if lo >= hi {
            continue;
        }
        let rows = |b: usize| b * block..((b + 1) * block).min(n);
        let bound = |b: usize| {
            let (m, r) = (seg.block_max[b], rows(b));
            seg.encoded
                .map_or(m, |slab| m + slab.err_bound(r.start, r.end, m))
        };
        // Largest bound from each block to the segment's end; empty unless
        // the policy terminates.
        let suffix = if terminate {
            suffix_max_norms(&(0..n_blocks).map(bound).collect::<Vec<_>>())
        } else {
            Vec::new()
        };
        for b in lo..hi {
            if score == ScoreKind::Dot {
                let rest = suffix.get(b).copied();
                if rest.is_some_and(|m| all_full(heaps, |i, t| norms[i] * m * term_slack < t)) {
                    stats.blocks_terminated += (hi - b) as u64;
                    break;
                }
                let bound = bound(b) * NORM_BOUND_SLACK;
                if all_full(heaps, |i, t| norms[i] * bound < t) {
                    stats.blocks_pruned += 1;
                    continue;
                }
            }
            let over_budget =
                policy.max_blocks > 0 && stats.blocks_scored >= policy.max_blocks as u64;
            if over_budget && all_full(heaps, |_, _| true) {
                stats.blocks_terminated += 1;
                continue;
            }
            stats.blocks_scored += 1;
            let r = rows(b);
            let out = &mut scores[..tile * r.len()];
            match seg.encoded {
                Some(slab) => {
                    stats.bytes_scanned += slab.scan_bytes(r.start, r.end);
                    batch_score_rows_quant(users, tile, slab, r.start, r.end, f, &mut dequant, out);
                }
                None => {
                    stats.bytes_scanned += (r.len() * f * std::mem::size_of::<f32>()) as u64;
                    let items = &seg.items[r.start * f..r.end * f];
                    batch_score_block(users, tile, items, r.len(), f, out);
                }
            }
            for (i, (heap, row)) in heaps
                .iter_mut()
                .zip(out.chunks_exact_mut(r.len()))
                .enumerate()
            {
                let Some(heap) = heap else { continue };
                if score == ScoreKind::Cosine {
                    for (s, &norm) in row.iter_mut().zip(&seg.norms[r.clone()]) {
                        *s = score.finish(*s, norm);
                    }
                }
                heap.offer_block(row, |j| seg.global_id(r.start + j), |item| skip(i, item));
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactorMatrix;

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
        if k == 0 {
            return Vec::new();
        }
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

    /// Catalog-order `items` as one view pruned against `block_max`.
    fn scan_flat_pruned(
        user: &[f32],
        items: &[f32],
        f: usize,
        k: usize,
        item_block: usize,
        block_max: &[f32],
        skip: impl Fn(u32) -> bool,
    ) -> Vec<(u32, f32)> {
        let norms = vec![0.0f32; items.len() / f];
        let view = SegmentView {
            items,
            norms: &norms,
            block_max,
            item_block,
            first_id: 0,
            ids: None,
            pos: None,
            encoded: None,
        };
        let mut stats = PruneStats::default();
        scan_segments(user, f, k, &[view], skip, &mut stats)
    }

    /// [`scan_flat_pruned`] against infinite block maxima: nothing pruned.
    fn scan_flat(
        user: &[f32],
        items: &[f32],
        f: usize,
        k: usize,
        item_block: usize,
        skip: impl Fn(u32) -> bool,
    ) -> Vec<(u32, f32)> {
        let unbounded = vec![f32::INFINITY; (items.len() / f).div_ceil(item_block)];
        scan_flat_pruned(user, items, f, k, item_block, &unbounded, skip)
    }

    #[test]
    fn keeps_the_k_best_sorted() {
        let mut t = TopK::new(3);
        for (i, s) in [1.0f32, 5.0, 3.0, 4.0, 2.0].iter().enumerate() {
            t.push(i as u32, *s);
        }
        assert_eq!(t.into_sorted_vec(), vec![(1, 5.0), (3, 4.0), (2, 3.0)]);
    }

    #[test]
    fn fewer_items_than_k_returns_all() {
        let mut t = TopK::new(10);
        t.push(7, 0.5);
        t.push(3, 1.5);
        assert_eq!(t.into_sorted_vec(), vec![(3, 1.5), (7, 0.5)]);
    }

    #[test]
    fn ties_prefer_small_item_ids() {
        let mut t = TopK::new(2);
        for item in [9u32, 1, 5, 3] {
            t.push(item, 1.0);
        }
        assert_eq!(t.into_sorted_vec(), vec![(1, 1.0), (3, 1.0)]);
    }

    #[test]
    fn threshold_tracks_the_kth_score() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), None);
        t.push(0, 1.0);
        assert_eq!(t.threshold(), None);
        t.push(1, 3.0);
        assert_eq!(t.threshold(), Some(1.0));
        t.push(2, 2.0);
        assert_eq!(t.threshold(), Some(2.0));
    }

    #[test]
    fn nan_scores_are_ignored() {
        let mut t = TopK::new(2);
        t.push(0, f32::NAN);
        t.push(1, 1.0);
        assert_eq!(t.into_sorted_vec(), vec![(1, 1.0)]);
    }

    /// Feeds `blocks` (ids count up across blocks, remapped by `id_of`) to
    /// one heap through [`TopK::offer_block`] and to another through the
    /// per-item `push` loop it replaced, and requires bit-equal heaps after
    /// every block and the same `skip` answer wherever both asked.
    fn assert_feed_matches_push_loop(
        k: usize,
        blocks: &[&[f32]],
        id_of: impl Fn(usize) -> u32,
        skip: impl Fn(u32) -> bool,
    ) {
        let bits = |t: &TopK| -> Vec<(u32, u32)> {
            let sorted = t.clone().into_sorted_vec();
            sorted.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
        };
        let (mut fed, mut pushed) = (TopK::new(k), TopK::new(k));
        let mut start = 0;
        for (b, block) in blocks.iter().enumerate() {
            let mut asked = Vec::new();
            fed.offer_block(
                block,
                |j| id_of(start + j),
                |v| {
                    let excluded = skip(v);
                    asked.push((v, excluded));
                    excluded
                },
            );
            let mut reference = Vec::new();
            for (j, &s) in block.iter().enumerate() {
                let item = id_of(start + j);
                let excluded = skip(item);
                reference.push((item, excluded));
                if !excluded {
                    pushed.push(item, s);
                }
            }
            assert_eq!(bits(&fed), bits(&pushed), "k {k} after block {b}");
            assert_eq!(
                fed.threshold().map(f32::to_bits),
                pushed.threshold().map(f32::to_bits)
            );
            assert!(
                asked.iter().all(|a| reference.contains(a)),
                "k {k} block {b}"
            );
            start += block.len();
        }
    }

    #[test]
    fn offer_block_matches_the_push_loop_on_adversarial_blocks() {
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let ascending: Vec<f32> = (0..40).map(|i| i as f32 * 0.25 - 3.0).collect();
        let descending: Vec<f32> = ascending.iter().rev().copied().collect();
        let cases: [&[&[f32]]; 7] = [
            // Every score beats the last threshold: a stale cache would
            // still be exact, a wrongly *raised* one would drop winners.
            &[&ascending, &ascending],
            &[&descending, &ascending],
            // Ties at the threshold, arriving before and after it fills.
            &[&[1.0, 1.0, 1.0, 2.0], &[1.0, 2.0, 1.0, 1.0, 0.5, 2.0]],
            // Signed zeros straddle the threshold: `-0.0 < 0.0` is false but
            // `total_cmp` orders them, so both must reach `push`.
            &[&[0.0, -0.0, 0.0], &[-0.0, 0.0, -0.0, 0.0, -1.0, -0.0]],
            &[&[-0.0, -0.0], &[0.0, -0.0, 0.0]],
            // NaN is never kept, infinities are ordinary scores.
            &[
                &[nan, 1.0, -inf, nan],
                &[inf, nan, -inf, 3.0, inf, -inf, nan],
            ],
            &[&[-inf, -inf, -inf], &[-inf, nan, -inf, -1e30]],
        ];
        // Reversed ids make later ties the *smaller* id (they must evict);
        // the skip set excludes items on both sides of any threshold.
        let forward = |j: usize| j as u32;
        let reversed = |j: usize| 1000 - j as u32;
        for blocks in cases {
            // k = 100 exceeds every case's length: the heap never fills.
            for k in [1usize, 2, 3, 5, 100] {
                assert_feed_matches_push_loop(k, blocks, forward, |_| false);
                assert_feed_matches_push_loop(k, blocks, reversed, |_| false);
                assert_feed_matches_push_loop(k, blocks, forward, |v| v % 3 == 0);
                assert_feed_matches_push_loop(k, blocks, reversed, |v| v % 2 == 0);
            }
        }
    }

    #[test]
    fn offer_block_skips_winners_and_never_asks_about_losers() {
        // Items 4..8 outscore everything but are excluded; after the heap
        // fills with (1, 2.0) and (0, 1.0) nothing below 1.0 may reach
        // `skip`, and the threshold must move up with each accepted push.
        let scores = [
            1.0f32, 2.0, 0.5, 0.25, 9.0, 9.0, 9.0, 9.0, 3.0, 1.5, 2.5, 0.75,
        ];
        let mut topk = TopK::new(2);
        let mut asked = Vec::new();
        topk.offer_block(
            &scores,
            |j| j as u32,
            |v| {
                asked.push(v);
                (4..8).contains(&v)
            },
        );
        assert_eq!(topk.into_sorted_vec(), vec![(8, 3.0), (10, 2.5)]);
        // 9 (1.5) and 11 (0.75) fall below the refreshed threshold of 2.0.
        assert_eq!(asked, vec![0, 1, 4, 5, 6, 7, 8, 10]);
    }

    #[test]
    fn retrieve_matches_full_sort_reference() {
        let f = 8;
        let n = 1000;
        let theta = FactorMatrix::random(n, f, 1.0, 42);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 7).data().to_vec();
        let got = scan_flat(&user, theta.data(), f, 10, 64, |v| v % 97 == 0);

        // Reference: score the whole table with the same kernel, then fully
        // sort — the heap must select exactly the same winners.
        let mut all_scores = vec![0.0f32; n];
        batch_score_block(&user, 1, theta.data(), n, f, &mut all_scores);
        let mut reference: Vec<(u32, f32)> = (0..n as u32)
            .filter(|v| v % 97 != 0)
            .map(|v| (v, all_scores[v as usize]))
            .collect();
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        reference.truncate(10);
        assert_eq!(got, reference);
    }

    #[test]
    fn block_size_does_not_change_results() {
        let f = 4;
        let theta = FactorMatrix::random(333, f, 1.0, 3);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 9).data().to_vec();
        let a = scan_flat(&user, theta.data(), f, 7, 8, |_| false);
        let b = scan_flat(&user, theta.data(), f, 7, 1000, |_| false);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        TopK::new(0);
    }

    #[test]
    fn block_max_norms_cover_every_block() {
        let norms = vec![1.0f32, 3.0, 2.0, 0.5, 7.0, 0.0, 4.0];
        assert_eq!(block_max_norms(&norms, 3), vec![3.0, 7.0, 4.0]);
        assert_eq!(block_max_norms(&norms, 100), vec![7.0]);
        assert!(block_max_norms(&[], 4).is_empty());
    }

    #[test]
    fn item_norms_match_per_row_norms() {
        let theta = FactorMatrix::random(37, 5, 1.0, 21);
        let norms = item_norms(theta.data(), 5);
        assert_eq!(norms.len(), 37);
        for (v, &norm) in norms.iter().enumerate() {
            let expect = crate::blas::norm_sq(theta.vector(v)).sqrt();
            assert_eq!(norm, expect);
        }
        assert!(item_norms(&[], 5).is_empty());
    }

    #[test]
    fn merge_of_shard_partials_matches_single_run() {
        let f = 8;
        let n = 600;
        let theta = FactorMatrix::random(n, f, 1.0, 17);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 18).data().to_vec();
        let whole = scan_flat(&user, theta.data(), f, 9, 64, |_| false);
        // Split the catalog into 4 uneven shards, keep top-9 per shard,
        // merge: bit-identical to the single run.
        let cuts = [0usize, 150, 151, 400, n];
        let parts: Vec<Vec<(u32, f32)>> = cuts
            .windows(2)
            .map(|w| {
                let part = scan_flat(&user, &theta.data()[w[0] * f..w[1] * f], f, 9, 64, |_| {
                    false
                });
                part.into_iter()
                    .map(|(v, s)| (v + w[0] as u32, s))
                    .collect()
            })
            .collect();
        assert_eq!(merge_top_k(&parts, 9), whole);
    }

    #[test]
    fn merge_top_k_handles_edge_shapes() {
        assert!(merge_top_k(&[], 5).is_empty());
        assert!(merge_top_k(&[vec![(1, 1.0)]], 0).is_empty());
        // Duplicate items across parts keep a single entry per push order
        // invariance (the heap dedupes nothing — callers shard disjointly —
        // but ties still prefer small ids deterministically).
        let merged = merge_top_k(&[vec![(3, 1.0), (1, 1.0)], vec![(2, 1.0)]], 2);
        assert_eq!(merged, vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn pruned_retrieval_is_bit_identical_to_unpruned() {
        let f = 6;
        let n = 1111;
        for seed in 0..4u64 {
            let theta = FactorMatrix::random(n, f, 1.0, seed);
            let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 100 + seed).data().to_vec();
            let norms: Vec<f32> = theta
                .data()
                .chunks_exact(f)
                .map(|v| crate::blas::norm_sq(v).sqrt())
                .collect();
            for item_block in [7usize, 64, 2000] {
                let bm = block_max_norms(&norms, item_block);
                let plain = scan_flat(&user, theta.data(), f, 10, item_block, |v| v % 31 == 0);
                let pruned =
                    scan_flat_pruned(&user, theta.data(), f, 10, item_block, &bm, |v| v % 31 == 0);
                assert_eq!(plain, pruned, "seed {seed} block {item_block}");
            }
        }
    }

    #[test]
    fn pruning_skips_low_norm_blocks_without_changing_winners() {
        // First block holds all the mass; the long tail of near-zero blocks
        // is prunable once the heap fills.  The result must still match the
        // unpruned reference exactly.
        let f = 4;
        let n = 512;
        let mut data = vec![1e-6f32; n * f];
        for v in 0..8 {
            for d in 0..f {
                data[v * f + d] = (v + 2) as f32;
            }
        }
        let theta = FactorMatrix::from_vec(n, f, data);
        let user = vec![1.0f32; f];
        let norms: Vec<f32> = theta
            .data()
            .chunks_exact(f)
            .map(|v| crate::blas::norm_sq(v).sqrt())
            .collect();
        let bm = block_max_norms(&norms, 16);
        let plain = scan_flat(&user, theta.data(), f, 5, 16, |_| false);
        let pruned = scan_flat_pruned(&user, theta.data(), f, 5, 16, &bm, |_| false);
        assert_eq!(plain, pruned);
        assert_eq!(pruned[0].0, 9 - 2, "largest seeded item wins");
    }

    /// Builds catalog-order segment views over `theta` split at `cuts`
    /// (global item offsets), each blocked at `item_block`.
    fn views_at<'a>(
        theta: &'a FactorMatrix,
        cuts: &[usize],
        item_block: usize,
        norms: &'a [f32],
        tables: &'a mut Vec<Vec<f32>>,
    ) -> Vec<SegmentView<'a>> {
        let f = theta.rank();
        tables.clear();
        for w in cuts.windows(2) {
            tables.push(block_max_norms(&norms[w[0]..w[1]], item_block));
        }
        cuts.windows(2)
            .zip(tables.iter())
            .map(|(w, bm)| SegmentView {
                items: &theta.data()[w[0] * f..w[1] * f],
                norms: &norms[w[0]..w[1]],
                block_max: bm,
                item_block,
                first_id: w[0] as u32,
                ids: None,
                pos: None,
                encoded: None,
            })
            .collect()
    }

    #[test]
    fn segmented_retrieval_matches_contiguous_for_any_split() {
        let f = 6;
        let n = 777;
        let theta = FactorMatrix::random(n, f, 1.0, 51);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 52).data().to_vec();
        let norms = item_norms(theta.data(), f);
        let bm = block_max_norms(&norms, 64);
        let expect = scan_flat_pruned(&user, theta.data(), f, 9, 64, &bm, |v| v % 13 == 0);
        for cuts in [
            vec![0usize, n],
            vec![0, 100, n],
            vec![0, 64, 65, 300, n],
            vec![0, 1, 2, 3, n],
        ] {
            let mut tables = Vec::new();
            let views = views_at(&theta, &cuts, 64, &norms, &mut tables);
            let mut stats = PruneStats::default();
            let got = scan_segments(&user, f, 9, &views, |v| v % 13 == 0, &mut stats);
            assert_eq!(got, expect, "cuts {cuts:?}");
            assert!(
                stats.blocks_scored + stats.blocks_pruned > 0,
                "counters must see every block decision"
            );
        }
    }

    #[test]
    fn segmented_retrieval_remaps_permuted_rows_to_global_ids() {
        // Store the catalog in reverse order with an explicit id remap: the
        // returned ids and scores must match the catalog-order run exactly.
        let f = 4;
        let n = 120;
        let theta = FactorMatrix::random(n, f, 1.0, 61);
        let norms = item_norms(theta.data(), f);
        let mut rev_data = Vec::with_capacity(n * f);
        let mut rev_norms = Vec::with_capacity(n);
        let ids: Vec<u32> = (0..n as u32).rev().collect();
        for &g in &ids {
            rev_data.extend_from_slice(theta.vector(g as usize));
            rev_norms.push(norms[g as usize]);
        }
        let bm = block_max_norms(&rev_norms, 16);
        let view = SegmentView {
            items: &rev_data,
            norms: &rev_norms,
            block_max: &bm,
            item_block: 16,
            first_id: 0,
            ids: Some(&ids),
            pos: None,
            encoded: None,
        };
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 62).data().to_vec();
        let plain_bm = block_max_norms(&norms, 16);
        let expect = scan_flat_pruned(&user, theta.data(), f, 7, 16, &plain_bm, |_| false);
        let mut stats = PruneStats::default();
        let got = scan_segments(&user, f, 7, &[view], |_| false, &mut stats);
        assert_eq!(got, expect);
    }

    #[test]
    fn prune_stats_merge_and_fraction() {
        let mut a = PruneStats {
            blocks_scored: 3,
            blocks_pruned: 1,
            blocks_terminated: 2,
            ..Default::default()
        };
        a.merge(&PruneStats {
            blocks_scored: 1,
            blocks_pruned: 3,
            blocks_terminated: 4,
            bytes_scanned: 100,
            rerank_candidates: 5,
            rerank_ns: 40,
        });
        assert_eq!(a.blocks_scored, 4);
        assert_eq!(a.blocks_pruned, 4);
        assert_eq!(a.blocks_terminated, 6);
        assert_eq!(a.bytes_scanned, 100);
        assert_eq!(a.rerank_candidates, 5);
    }

    #[test]
    fn suffix_max_runs_right_to_left() {
        assert_eq!(
            suffix_max_norms(&[1.0, 5.0, 2.0, 4.0, 3.0]),
            vec![5.0, 5.0, 4.0, 4.0, 3.0]
        );
        // Already descending: suffix max coincides with the table itself.
        let desc = [7.0f32, 6.0, 2.0, 1.0];
        assert_eq!(suffix_max_norms(&desc), desc.to_vec());
        assert!(suffix_max_norms(&[]).is_empty());
    }

    #[test]
    fn approx_policy_shapes() {
        assert!(ApproxPolicy::exact().is_exact());
        assert!(ApproxPolicy {
            epsilon: 0.0,
            ..ApproxPolicy::default()
        }
        .is_exact());
        assert!(!ApproxPolicy {
            epsilon: 0.05,
            ..ApproxPolicy::default()
        }
        .is_exact());
        assert!(!ApproxPolicy {
            epsilon: 0.0,
            max_blocks: 3,
            target_recall: 1.0,
        }
        .is_exact());
        assert_eq!(ApproxPolicy::exact().termination_slack(), NORM_BOUND_SLACK);
    }

    #[test]
    #[should_panic(expected = "approx epsilon must lie in [0, 1)")]
    fn approx_policy_rejects_epsilon_of_one() {
        ApproxPolicy {
            epsilon: 1.0,
            ..ApproxPolicy::default()
        }
        .validate();
    }

    /// Sorts `theta` rows by norm descending and returns the permuted data,
    /// norms, and the global-id remap — a hand-rolled norm-descending
    /// segment like the serve-side `ItemStore` builds.
    fn norm_descending(theta: &FactorMatrix) -> (Vec<f32>, Vec<f32>, Vec<u32>) {
        let f = theta.rank();
        let norms = item_norms(theta.data(), f);
        let mut order: Vec<u32> = (0..norms.len() as u32).collect();
        order.sort_by(|&a, &b| {
            norms[b as usize]
                .total_cmp(&norms[a as usize])
                .then(a.cmp(&b))
        });
        let mut data = Vec::with_capacity(theta.data().len());
        let mut perm_norms = Vec::with_capacity(norms.len());
        for &g in &order {
            data.extend_from_slice(theta.vector(g as usize));
            perm_norms.push(norms[g as usize]);
        }
        (data, perm_norms, order)
    }

    #[test]
    fn approx_with_zero_epsilon_is_bit_identical_for_any_split() {
        let f = 6;
        let n = 777;
        let theta = FactorMatrix::random(n, f, 1.0, 51);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 52).data().to_vec();
        let norms = item_norms(theta.data(), f);
        for cuts in [vec![0usize, n], vec![0, 100, n], vec![0, 64, 65, 300, n]] {
            let mut tables = Vec::new();
            let views = views_at(&theta, &cuts, 64, &norms, &mut tables);
            let mut exact_stats = PruneStats::default();
            let expect = scan_segments(&user, f, 9, &views, |v| v % 13 == 0, &mut exact_stats);
            let mut stats = PruneStats::default();
            let got = scan_segments_approx(
                &user,
                f,
                9,
                &views,
                |v| v % 13 == 0,
                &ApproxPolicy::exact(),
                &mut stats,
            );
            assert_eq!(got, expect, "cuts {cuts:?}");
            // At epsilon = 0 termination only fires where exact pruning
            // would skip every remaining block — never on blocks that would
            // have been scored.
            assert_eq!(
                stats.blocks_scored, exact_stats.blocks_scored,
                "cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn approx_scans_monotonically_fewer_blocks_as_epsilon_grows() {
        // Skewed norms, stored norm-descending (one segment) — exactly the
        // serving-side layout that makes epsilon termination systematic.
        let f = 8;
        let n = 4096;
        let base = FactorMatrix::random(n, f, 1.0, 77);
        let mut data = base.data().to_vec();
        for v in 0..n {
            let h = (v as u32).wrapping_mul(2654435761) % 64;
            let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
            for d in 0..f {
                data[v * f + d] *= scale;
            }
        }
        let theta = FactorMatrix::from_vec(n, f, data);
        let (perm_data, perm_norms, order) = norm_descending(&theta);
        let bm = block_max_norms(&perm_norms, 64);
        let view = SegmentView {
            items: &perm_data,
            norms: &perm_norms,
            block_max: &bm,
            item_block: 64,
            first_id: 0,
            ids: Some(&order),
            pos: None,
            encoded: None,
        };
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 78).data().to_vec();
        let mut prev_scored = u64::MAX;
        for eps in [0.0f32, 0.05, 0.1, 0.3, 0.6] {
            let mut stats = PruneStats::default();
            let got = scan_segments_approx(
                &user,
                f,
                10,
                std::slice::from_ref(&view),
                |_| false,
                &ApproxPolicy {
                    epsilon: eps,
                    ..ApproxPolicy::default()
                },
                &mut stats,
            );
            assert_eq!(got.len(), 10, "eps {eps}");
            assert!(
                stats.blocks_scored <= prev_scored,
                "eps {eps}: scored {} after {} at the smaller epsilon",
                stats.blocks_scored,
                prev_scored
            );
            prev_scored = stats.blocks_scored;
        }
        // A coarse epsilon on a skewed catalog must actually terminate.
        assert!(prev_scored < bm.len() as u64);
    }

    #[test]
    fn approx_block_budget_caps_scored_blocks_only_once_full() {
        let f = 4;
        let n = 640; // 10 blocks of 64
        let theta = FactorMatrix::random(n, f, 1.0, 90);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 91).data().to_vec();
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let views = views_at(&theta, &[0, n], 64, &norms, &mut tables);
        let policy = ApproxPolicy {
            epsilon: 0.0,
            max_blocks: 2,
            target_recall: 1.0,
        };
        let mut stats = PruneStats::default();
        let got = scan_segments_approx(&user, f, 5, &views, |_| false, &policy, &mut stats);
        assert_eq!(got.len(), 5, "budgeted scan still returns a full list");
        assert_eq!(stats.blocks_scored, 2);
        assert!(stats.blocks_terminated > 0);

        // k ≥ catalog: the heap never fills, so the budget never engages and
        // every item comes back — never a short list.
        let mut stats = PruneStats::default();
        let all = scan_segments_approx(&user, f, n + 5, &views, |_| false, &policy, &mut stats);
        assert_eq!(all.len(), n);
        assert_eq!(stats.blocks_scored, 10);
        assert_eq!(stats.blocks_terminated, 0);
        let mut exact_stats = PruneStats::default();
        let exact = scan_segments(&user, f, n + 5, &views, |_| false, &mut exact_stats);
        assert_eq!(all, exact);
    }

    #[test]
    fn approx_zero_norm_user_degrades_to_full_exact_scan() {
        let f = 4;
        let n = 320;
        let theta = FactorMatrix::random(n, f, 1.0, 93);
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let views = views_at(&theta, &[0, n], 64, &norms, &mut tables);
        let user = vec![0.0f32; f];
        let policy = ApproxPolicy {
            epsilon: 0.5,
            ..ApproxPolicy::default()
        };
        let mut stats = PruneStats::default();
        let got = scan_segments_approx(&user, f, 7, &views, |_| false, &policy, &mut stats);
        let mut exact_stats = PruneStats::default();
        let exact = scan_segments(&user, f, 7, &views, |_| false, &mut exact_stats);
        // Bound and threshold are both 0; `0 < 0` never holds, so nothing
        // is pruned or terminated and the results are the exact ones.
        assert_eq!(got, exact);
        assert_eq!(got.len(), 7);
        assert_eq!(stats.blocks_terminated, 0);
        assert_eq!(stats.blocks_scored, 5);
    }

    #[test]
    #[should_panic(expected = "block maxima do not match")]
    fn pruned_retrieval_rejects_mismatched_blocking() {
        let theta = FactorMatrix::random(64, 4, 1.0, 1);
        let user = vec![1.0f32; 4];
        scan_flat_pruned(&user, theta.data(), 4, 3, 16, &[1.0; 2], |_| false);
    }
}
