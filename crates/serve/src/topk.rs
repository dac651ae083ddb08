//! Batched, item-sharded top-k scoring against one snapshot.
//!
//! The training-time insight of the paper — batch many independent small
//! problems into one regular, blocked kernel — applied at serving time: a
//! micro-batch of user requests is scored tile by tile through
//! [`cumf_linalg::scan_top_k`], so each item block comes from memory once
//! per *tile of users* instead of once per request, and each user's block
//! scores go through one threshold-first heap feed, never materializing the
//! full score vector.  The scan is the same one a single request
//! ([`FactorSnapshot::recommend_one`], a batch of one through this module)
//! and `MatrixFactorizer::recommend` run.
//!
//! Two levers scale the scorer past one core per batch:
//!
//! * **User tiles** — queries are split into `USER_TILE`-sized tiles that
//!   score independently.
//! * **Item shards** — the catalog's item blocks (spanning every
//!   [`crate::itemstore::ItemStore`] segment, base and appended tails
//!   alike) are partitioned into `shards` contiguous runs; each
//!   `(tile, shard)` pair scores independently into a per-shard bounded
//!   heap and the partial top-k lists are merged with
//!   [`cumf_linalg::merge_top_k`].  The heap tie-break is a total order, so
//!   results are **bit-identical for every shard count** — sharding is purely
//!   a parallelism knob.
//!
//! Dot-product scoring also skips whole low-scoring blocks on the
//! Cauchy–Schwarz bound, widened by a quantized segment's codec error (see
//! [`cumf_linalg::scan_top_k`]); each segment prunes against its own
//! block-max table — which a norm-descending layout makes fire
//! systematically — and the skipped/scored decisions are counted in a
//! [`PruneStats`] ([`TopKIndex::query_batch_stats`]).

use crate::batcher::ServeConfig;
use crate::snapshot::FactorSnapshot;
use crate::sync::Arc;
use cumf_linalg::{
    block_max_norms, merge_top_k, scan_top_k, ApproxPolicy, PruneStats, SegmentView, TopK,
};
use rayon::prelude::*;
use std::collections::HashSet;
use std::ops::Range;
use std::time::Instant;

pub use cumf_linalg::ScoreKind;

/// Default candidate over-fetch multiplier for quantized scans: the blocked
/// scan keeps `ceil(k · rerank_factor)` candidates per query so the exact
/// rerank can repair orderings the quantization error perturbed near the
/// `k`-th score.  Full-precision scans ignore it entirely.
pub const DEFAULT_RERANK_FACTOR: f32 = 2.0;

/// One shard's partial output for a user tile: per-query top-k lists plus
/// the shard's pruning counters.
type TilePartials = (Vec<Vec<(u32, f32)>>, PruneStats);

/// One top-k retrieval request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// User to recommend for.
    pub user: u32,
    /// Number of items wanted.
    pub k: usize,
    /// Items to exclude (typically the user's already-rated items).
    pub exclude: Vec<u32>,
}

impl Query {
    /// A query with no exclusions.
    pub fn new(user: u32, k: usize) -> Self {
        Self {
            user,
            k,
            exclude: Vec::new(),
        }
    }
}

/// Number of users scored together against each item block.  Eight user
/// vectors of `f ≤ 128` floats fit comfortably in L1 next to the item block.
const USER_TILE: usize = 8;

/// Per-tile scoring state computed once and shared by every item shard the
/// tile is scored against: the gathered contiguous user operand, validity
/// flags, and the exclusion hash sets — hashing a heavy exclusion list per
/// shard would erode the parallelism sharding buys.
struct TileCtx {
    f: usize,
    users: Vec<f32>,
    valid: Vec<bool>,
    excluded: Vec<HashSet<u32>>,
}

impl TileCtx {
    fn new(tile: &[Query], snap: &FactorSnapshot) -> Self {
        let f = snap.rank();
        // Gather the tile's user vectors into one contiguous buffer so the
        // block scorer sees a dense (tile × f) operand.  Out-of-range users
        // keep a zero vector and are marked invalid.
        let mut users = vec![0.0f32; tile.len() * f];
        let mut valid = vec![false; tile.len()];
        for (i, q) in tile.iter().enumerate() {
            if let Some(x_u) = snap.user_vector(q.user) {
                users[i * f..(i + 1) * f].copy_from_slice(x_u);
                valid[i] = true;
            }
        }
        let excluded = tile
            .iter()
            .map(|q| q.exclude.iter().copied().collect())
            .collect();
        Self {
            f,
            users,
            valid,
            excluded,
        }
    }
}

/// A [`TopKIndex`]'s configuration resolved against one snapshot's
/// segments, apart from the snapshot itself — so a borrowed snapshot
/// ([`FactorSnapshot::recommend_one`]) runs exactly the index's code.
#[derive(Debug, Clone)]
pub(crate) struct ScanPlan {
    score: ScoreKind,
    shards: usize,
    /// Early-termination policy; `None` keeps the scan exact.
    approx: Option<ApproxPolicy>,
    /// Candidate over-fetch multiplier for the exact rerank (≥ 1.0; only
    /// consulted when `quantized`).
    rerank_factor: f32,
    /// Whether any store segment carries an encoded slab — the switch that
    /// turns on over-fetch + exact rerank.  All-f32 stores take the exact
    /// path untouched (bit-identical to the pre-quantization scorer).
    quantized: bool,
    /// Items per block, before clamping to each segment's size.
    item_block: usize,
    /// Per segment, the block maxima at `item_block` when that differs from
    /// the segment's precomputed blocking (`None` reuses the segment's own
    /// table — the common case: `ServeConfig` builds an index per
    /// micro-batch).
    tables: Vec<Option<Vec<f32>>>,
    /// Total blocks across all segments (what shards partition).
    n_blocks: usize,
}

impl ScanPlan {
    /// Resolves `config`'s index fields (`item_block`, `score`, `shards`,
    /// `rerank_factor`) and the effective policy `approx` against
    /// `snapshot`'s segments.  This is the one place those fields are
    /// validated: [`crate::TopKService::start`] builds a plan over its
    /// initial snapshot before any worker spawns.
    ///
    /// # Panics
    /// Panics on a zero `item_block`, a `rerank_factor` that is not a
    /// finite multiplier ≥ 1.0, or an `approx` policy that fails
    /// [`ApproxPolicy::validate`].
    pub(crate) fn new(
        snapshot: &FactorSnapshot,
        config: &ServeConfig,
        approx: Option<ApproxPolicy>,
    ) -> Self {
        let &ServeConfig {
            item_block,
            score,
            shards,
            rerank_factor,
            ..
        } = config;
        assert!(item_block > 0, "item block must be positive");
        assert!(
            rerank_factor.is_finite() && rerank_factor >= 1.0,
            "rerank factor must be a finite multiplier >= 1.0, got {rerank_factor}"
        );
        if let Some(p) = &approx {
            p.validate();
        }
        let segments = snapshot.items().segments();
        let tables: Vec<Option<Vec<f32>>> = segments
            .iter()
            .map(|seg| {
                let block = item_block.min(seg.len().max(1));
                (block != seg.default_block()).then(|| block_max_norms(seg.norms(), block))
            })
            .collect();
        let n_blocks = segments
            .iter()
            .zip(&tables)
            .map(|(seg, t)| t.as_ref().map_or(seg.block_max().len(), Vec::len))
            .sum();
        Self {
            score,
            shards: shards.max(1),
            approx,
            rerank_factor,
            quantized: segments.iter().any(|seg| seg.encoded().is_some()),
            item_block,
            tables,
            n_blocks,
        }
    }

    /// The snapshot's segments as scan views at this plan's blocking.
    fn views<'a>(&'a self, snapshot: &'a FactorSnapshot) -> Vec<SegmentView<'a>> {
        let segments = snapshot.items().segments().iter();
        segments
            .zip(&self.tables)
            .map(|(seg, table)| match table {
                Some(t) => seg.view_with(self.item_block.min(seg.len().max(1)), t),
                None => seg.view(),
            })
            .collect()
    }

    /// Contiguous block ranges, one per non-empty shard.
    fn shard_ranges(&self) -> Vec<Range<usize>> {
        let n_blocks = self.n_blocks;
        let shards = self.shards.min(n_blocks.max(1));
        let base = n_blocks / shards;
        let rem = n_blocks % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < rem);
            if len == 0 {
                continue;
            }
            ranges.push(start..start + len);
            start += len;
        }
        if ranges.is_empty() {
            ranges.push(0..0);
        }
        ranges
    }

    /// [`TopKIndex::query_batch_stats`] against `snapshot`, which must be
    /// the snapshot this plan was resolved for.
    pub(crate) fn query_batch_stats(
        &self,
        snapshot: &FactorSnapshot,
        queries: &[Query],
    ) -> (Vec<Vec<(u32, f32)>>, PruneStats) {
        let views = self.views(snapshot);
        let ranges = self.shard_ranges();
        if ranges.len() == 1 {
            // lint-ok: serve-unwrap guarded by the ranges.len() == 1 branch
            let range = ranges.into_iter().next().expect("one shard");
            let tiles: Vec<TilePartials> = queries
                .par_chunks(USER_TILE)
                .map(|tile| {
                    let ctx = TileCtx::new(tile, snapshot);
                    self.score_tile(&views, tile, &ctx, range.clone())
                })
                .collect();
            let mut stats = PruneStats::default();
            let mut results = Vec::with_capacity(queries.len());
            for (tile_results, tile_stats) in tiles {
                stats.merge(&tile_stats);
                results.extend(tile_results);
            }
            let results = self.rerank_exact(snapshot, queries, results, &mut stats);
            return (results, stats);
        }

        let n_shards = ranges.len();
        let n_tiles = queries.len().div_ceil(USER_TILE);
        // The per-tile setup (user gather, exclusion sets) is shared across
        // that tile's shard units — heavy exclusion lists are hashed once
        // per tile, not once per shard.
        let contexts: Vec<TileCtx> = queries
            .par_chunks(USER_TILE)
            .map(|tile| TileCtx::new(tile, snapshot))
            .collect();
        let units: Vec<(usize, usize)> = (0..n_tiles)
            .flat_map(|t| (0..n_shards).map(move |s| (t, s)))
            .collect();
        let mut partials: Vec<TilePartials> = units
            .par_iter()
            .map(|&(t, s)| {
                let tile = &queries[t * USER_TILE..((t + 1) * USER_TILE).min(queries.len())];
                self.score_tile(&views, tile, &contexts[t], ranges[s].clone())
            })
            .collect();
        let mut stats = PruneStats::default();
        for (_, s) in &partials {
            stats.merge(s);
        }
        let results = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let (t, i) = (qi / USER_TILE, qi % USER_TILE);
                let parts: Vec<Vec<(u32, f32)>> = (0..n_shards)
                    .map(|s| std::mem::take(&mut partials[t * n_shards + s].0[i]))
                    .collect();
                merge_top_k(&parts, self.k_eff(q.k))
            })
            .collect();
        let results = self.rerank_exact(snapshot, queries, results, &mut stats);
        (results, stats)
    }

    /// Candidates the blocked scan keeps per query: `k` on an all-f32 store,
    /// `ceil(k · rerank_factor)` when any segment is quantized — the
    /// over-fetch margin the exact rerank draws its replacements from.
    fn k_eff(&self, k: usize) -> usize {
        if self.quantized && k > 0 {
            ((k as f64) * f64::from(self.rerank_factor)).ceil() as usize
        } else {
            k
        }
    }

    /// Exact-f32 rerank over quantized-scan candidates: rescores each
    /// query's `k_eff` survivors against the retained exact rows, re-sorts
    /// under the same (score desc, id asc) total order the heaps use, and
    /// truncates back to `k`.  A no-op (queries pass through untouched) on
    /// an all-f32 store, so the full-precision path stays bit-identical to
    /// the pre-quantization scorer.  Timing and candidate/byte counts fold
    /// into `stats`.
    fn rerank_exact(
        &self,
        snapshot: &FactorSnapshot,
        queries: &[Query],
        results: Vec<Vec<(u32, f32)>>,
        stats: &mut PruneStats,
    ) -> Vec<Vec<(u32, f32)>> {
        if !self.quantized {
            return results;
        }
        let started = Instant::now();
        let f = snapshot.rank();
        let items = snapshot.items();
        let mut rerank = PruneStats::default();
        let out: Vec<Vec<(u32, f32)>> = queries
            .iter()
            .zip(results)
            .map(|(q, list)| {
                let Some(x_u) = snapshot.user_vector(q.user) else {
                    return list;
                };
                if list.is_empty() {
                    return list;
                }
                rerank.rerank_candidates += list.len() as u64;
                rerank.bytes_scanned += (list.len() * f * std::mem::size_of::<f32>()) as u64;
                let mut rescored: Vec<(u32, f32)> = list
                    .into_iter()
                    .map(|(v, _)| {
                        let row = items.vector(v as usize);
                        let norm = cumf_linalg::blas::norm_sq(row).sqrt();
                        (v, self.score.finish(cumf_linalg::score_dot(x_u, row), norm))
                    })
                    .collect();
                rescored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                rescored.truncate(q.k);
                rescored
            })
            .collect();
        if rerank.rerank_candidates > 0 {
            rerank.rerank_ns = started.elapsed().as_nanos() as u64;
        }
        stats.merge(&rerank);
        out
    }

    /// Scores one user tile against the global block range `blocks` (the
    /// shard-partitioned numbering spanning every store segment), returning
    /// each query's top-k **within that shard** plus the shard's pruning
    /// counters.
    fn score_tile(
        &self,
        views: &[SegmentView<'_>],
        tile: &[Query],
        ctx: &TileCtx,
        blocks: Range<usize>,
    ) -> TilePartials {
        let mut heaps: Vec<Option<TopK>> = tile
            .iter()
            .zip(&ctx.valid)
            .map(|(q, &ok)| (ok && q.k > 0).then(|| TopK::new(self.k_eff(q.k))))
            .collect();
        let policy = self.approx.unwrap_or_else(ApproxPolicy::exact);
        let stats = scan_top_k(
            &ctx.users,
            ctx.f,
            &mut heaps,
            views,
            blocks,
            self.score,
            &policy,
            |i, item| ctx.excluded[i].contains(&item),
        );
        let results = heaps
            .into_iter()
            .map(|h| h.map(TopK::into_sorted_vec).unwrap_or_default())
            .collect();
        (results, stats)
    }
}

/// Batched blocked top-k scorer over one immutable snapshot.
///
/// All queries of a [`TopKIndex::query_batch_stats`] call are answered from
/// the same snapshot generation — the index holds its own `Arc`, so a
/// concurrent hot-swap cannot tear a batch.
#[derive(Debug, Clone)]
pub struct TopKIndex {
    snapshot: Arc<FactorSnapshot>,
    plan: ScanPlan,
}

impl TopKIndex {
    /// Creates an index over `snapshot` from the five index fields of
    /// `config` — the ones a [`crate::TopKService`] scans with; every other
    /// field is ignored:
    ///
    /// * `item_block` — items scored per block (must be positive).
    /// * `score` — the scoring function.
    /// * `shards` — the catalog's item blocks, across every store segment,
    ///   are partitioned into this many contiguous runs scored in parallel
    ///   (clamped to at least 1 and at most one shard per block).  Results
    ///   are bit-identical for every shard count.
    /// * `approx` — an optional early-termination policy.  With
    ///   `Some(policy)` the scorer may stop scanning a segment once the
    ///   discounted Cauchy–Schwarz bound says nothing left in it can improve
    ///   any tile heap by more than the policy's epsilon slack, and may cap
    ///   scored blocks at `policy.max_blocks` per `(tile, shard)` scan.  Both
    ///   rules only engage once every heap in the tile holds its `k` items,
    ///   so result lists never come back short.  A policy with
    ///   `epsilon = 0` and no budget is bit-identical to the exact index.
    ///   Epsilon termination applies to [`ScoreKind::Dot`] only (a
    ///   norm-divided score has no per-block bound); the block budget
    ///   applies to both score kinds.
    /// * `rerank_factor` — when any store segment is quantized the scan
    ///   keeps `ceil(k · rerank_factor)` candidates per query and a final
    ///   pass rescores them against the retained exact f32 rows, truncating
    ///   back to `k` under the same (score desc, id asc) total order.  Must
    ///   be ≥ 1.0; ignored on all-f32 stores.
    ///
    /// # Panics
    /// Panics on a zero `item_block`, a `rerank_factor` that is not a
    /// finite multiplier ≥ 1.0, or an `approx` policy that fails
    /// [`ApproxPolicy::validate`].
    pub fn new(snapshot: Arc<FactorSnapshot>, config: &ServeConfig) -> Self {
        let plan = ScanPlan::new(&snapshot, config, config.approx);
        Self { snapshot, plan }
    }

    /// The snapshot this index serves from.
    pub fn snapshot(&self) -> &Arc<FactorSnapshot> {
        &self.snapshot
    }

    /// Number of item shards the catalog is partitioned into (≥ 1; the
    /// effective count is further capped by the number of item blocks).
    pub fn shards(&self) -> usize {
        self.plan.shards
    }

    /// The early-termination policy, if this index scans approximately.
    pub fn approx(&self) -> Option<&ApproxPolicy> {
        self.plan.approx.as_ref()
    }

    /// Scores a micro-batch of queries, returning one ranked
    /// `(item, score)` list per query, in query order, and the batch's
    /// aggregated block-pruning counters — the observable half of the
    /// norm-ordered layout's value (more blocks skipped, same results).
    /// `(tile, shard)` pairs are scored in parallel; within each pair every
    /// item block is scored for all tile users with one blocked kernel
    /// call, and each query's per-shard partial top-k lists are merged into
    /// the final ranking.
    pub fn query_batch_stats(&self, queries: &[Query]) -> (Vec<Vec<(u32, f32)>>, PruneStats) {
        self.plan.query_batch_stats(&self.snapshot, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemLayout;
    use cumf_linalg::{FactorMatrix, Precision};

    /// A config whose index fields are the given ones, the rest default.
    fn config(item_block: usize, score: ScoreKind, shards: usize) -> ServeConfig {
        ServeConfig {
            item_block,
            score,
            shards,
            ..Default::default()
        }
    }

    fn index(seed: u64, n_users: usize, n_items: usize, score: ScoreKind) -> TopKIndex {
        let snap = FactorSnapshot::from_factors(
            FactorMatrix::random(n_users, 8, 1.0, seed),
            FactorMatrix::random(n_items, 8, 1.0, seed + 1),
        );
        TopKIndex::new(Arc::new(snap), &config(64, score, 1))
    }

    #[test]
    fn batch_matches_single_request_path() {
        let idx = index(7, 30, 500, ScoreKind::Dot);
        let queries: Vec<Query> = (0..30u32)
            .map(|u| Query {
                user: u,
                k: 5,
                exclude: vec![u % 11, u % 23],
            })
            .collect();
        let batched = idx.query_batch_stats(&queries).0;
        assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(batched.iter()) {
            let single = idx.snapshot().recommend_one(q.user, q.k, &q.exclude);
            assert_eq!(got, &single, "user {}", q.user);
        }
    }

    #[test]
    fn exclusions_and_invalid_users_are_handled() {
        let idx = index(9, 10, 100, ScoreKind::Dot);
        let queries = vec![
            Query {
                user: 0,
                k: 3,
                exclude: (0..97).collect(),
            },
            Query::new(9999, 3), // out of range
            Query {
                user: 1,
                k: 0,
                exclude: vec![],
            },
        ];
        let out = idx.query_batch_stats(&queries).0;
        assert_eq!(out[0].len(), 3);
        assert!(out[0].iter().all(|(v, _)| *v >= 97));
        assert!(out[1].is_empty());
        assert!(out[2].is_empty());
    }

    #[test]
    fn cosine_divides_by_item_norm() {
        // Item 0 has a huge norm; under Dot it wins, under Cosine it ties
        // with the identically-directed item 1.
        let x = FactorMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let theta = FactorMatrix::from_vec(3, 2, vec![10.0, 0.0, 1.0, 0.0, 0.0, 5.0]);
        let snap = Arc::new(FactorSnapshot::from_factors(x, theta));
        let dot = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1));
        let cos = TopKIndex::new(snap, &config(64, ScoreKind::Cosine, 1));
        let q = vec![Query::new(0, 2)];
        assert_eq!(dot.query_batch_stats(&q).0[0], vec![(0, 10.0), (1, 1.0)]);
        // Cosine: items 0 and 1 both score 1.0; ties prefer small ids.
        assert_eq!(cos.query_batch_stats(&q).0[0], vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn cosine_keeps_zero_norm_items_at_score_zero() {
        // A catalog with cold (zero-vector, hence zero-norm) items: both
        // score kinds must still return exactly k results when k ≤ catalog
        // size, and cosine scores the cold items 0.0.
        let x = FactorMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let mut theta = FactorMatrix::zeros(5, 2);
        theta.vector_mut(1).copy_from_slice(&[2.0, 0.0]);
        theta.vector_mut(3).copy_from_slice(&[0.5, 0.0]);
        // Items 0, 2, 4 stay zero vectors (never trained).
        let snap = Arc::new(FactorSnapshot::from_factors(x, theta));
        let q = vec![Query::new(0, 5)];
        let dot = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1))
            .query_batch_stats(&q)
            .0;
        let cos = TopKIndex::new(snap, &config(64, ScoreKind::Cosine, 1))
            .query_batch_stats(&q)
            .0;
        assert_eq!(
            dot[0].len(),
            cos[0].len(),
            "Dot and Cosine must return the same number of results"
        );
        assert_eq!(cos[0].len(), 5, "cold items must not shrink the result");
        assert_eq!(cos[0][0], (1, 1.0));
        assert_eq!(cos[0][1], (3, 1.0));
        // The cold items trail at exactly 0.0, smallest ids first.
        assert_eq!(&cos[0][2..], &[(0, 0.0), (2, 0.0), (4, 0.0)]);
    }

    #[test]
    fn cosine_cold_rows_tie_at_a_full_heaps_threshold() {
        // Three items point the user's way, every third item is cold (zero
        // row, Cosine score exactly 0.0) and the rest point away.  With
        // k = 8 the heap fills and its threshold sits *at* the cold rows'
        // 0.0: the feed must divide before it compares, and must let the
        // ties through so the smallest cold ids win — for any blocking,
        // layout and shard count.
        let n = 60;
        let mut theta = FactorMatrix::zeros(n, 2);
        for v in (0..n).filter(|v| v % 3 != 1) {
            theta
                .vector_mut(v)
                .copy_from_slice(&[-1.0 - 0.01 * v as f32, 0.5]);
        }
        theta.vector_mut(5).copy_from_slice(&[3.0, 4.0]);
        theta.vector_mut(17).copy_from_slice(&[1.0, 0.0]);
        theta.vector_mut(44).copy_from_slice(&[4.0, 3.0]);
        let x = FactorMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let expect = vec![
            (17, 1.0),
            (44, 0.8),
            (5, 0.6),
            (1, 0.0),
            (4, 0.0),
            (7, 0.0),
            (10, 0.0),
            (13, 0.0),
        ];
        for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
            let snap = Arc::new(FactorSnapshot::from_factors_with_layout(
                x.clone(),
                theta.clone(),
                layout,
            ));
            for (item_block, shards) in [(1usize, 1usize), (4, 1), (4, 3), (64, 1)] {
                let idx = TopKIndex::new(
                    Arc::clone(&snap),
                    &config(item_block, ScoreKind::Cosine, shards),
                );
                let got = idx.query_batch_stats(&[Query::new(0, 8)]).0;
                assert_eq!(
                    got[0], expect,
                    "{layout:?} block {item_block} shards {shards}"
                );
            }
        }
    }

    #[test]
    fn block_size_is_result_invariant() {
        let snap = Arc::new(FactorSnapshot::from_factors(
            FactorMatrix::random(5, 4, 1.0, 3),
            FactorMatrix::random(777, 4, 1.0, 4),
        ));
        let q: Vec<Query> = (0..5u32).map(|u| Query::new(u, 9)).collect();
        let small = TopKIndex::new(Arc::clone(&snap), &config(3, ScoreKind::Dot, 1))
            .query_batch_stats(&q)
            .0;
        let large = TopKIndex::new(snap, &config(10_000, ScoreKind::Dot, 1))
            .query_batch_stats(&q)
            .0;
        assert_eq!(small, large);
    }

    #[test]
    fn shard_count_is_result_invariant() {
        for score in [ScoreKind::Dot, ScoreKind::Cosine] {
            let snap = Arc::new(FactorSnapshot::from_factors(
                FactorMatrix::random(20, 6, 1.0, 5),
                FactorMatrix::random(999, 6, 1.0, 6),
            ));
            let queries: Vec<Query> = (0..20u32)
                .map(|u| Query {
                    user: u,
                    k: 7,
                    exclude: vec![u % 13, u % 7],
                })
                .collect();
            let baseline = TopKIndex::new(Arc::clone(&snap), &config(64, score, 1))
                .query_batch_stats(&queries)
                .0;
            // 999 items in 64-blocks = 16 blocks; 7 shards split unevenly,
            // 100 shards clamp to one per block.
            for shards in [2usize, 3, 7, 16, 100] {
                let sharded = TopKIndex::new(Arc::clone(&snap), &config(64, score, shards))
                    .query_batch_stats(&queries)
                    .0;
                assert_eq!(sharded, baseline, "score {score:?} shards {shards}");
            }
        }
    }

    /// A skewed-norm catalog (a few heavy items, a long light tail) — the
    /// shape that makes early termination effective under the
    /// norm-descending default layout.
    fn skewed_snapshot(n_users: usize, n_items: usize, seed: u64) -> Arc<FactorSnapshot> {
        let f = 8;
        let base = FactorMatrix::random(n_items, f, 1.0, seed);
        let mut data = base.data().to_vec();
        for v in 0..n_items {
            let h = (v as u32).wrapping_mul(2654435761) % 64;
            let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
            for d in 0..f {
                data[v * f + d] *= scale;
            }
        }
        Arc::new(FactorSnapshot::from_factors(
            FactorMatrix::random(n_users, f, 1.0, seed + 1),
            FactorMatrix::from_vec(n_items, f, data),
        ))
    }

    #[test]
    fn approx_index_with_exact_policy_is_bit_identical() {
        let snap = skewed_snapshot(20, 2000, 30);
        let queries: Vec<Query> = (0..20u32)
            .map(|u| Query {
                user: u,
                k: 10,
                exclude: vec![u % 17],
            })
            .collect();
        for shards in [1usize, 3, 8] {
            let exact = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, shards))
                .query_batch_stats(&queries)
                .0;
            let approx = TopKIndex::new(
                Arc::clone(&snap),
                &ServeConfig {
                    approx: Some(ApproxPolicy::exact()),
                    ..config(64, ScoreKind::Dot, shards)
                },
            )
            .query_batch_stats(&queries)
            .0;
            assert_eq!(approx, exact, "shards {shards}");
        }
    }

    #[test]
    fn approx_index_terminates_early_on_skewed_norm_descending_catalog() {
        let snap = skewed_snapshot(16, 8192, 33);
        let queries: Vec<Query> = (0..16u32).map(|u| Query::new(u, 10)).collect();
        let (exact_res, exact_stats) =
            TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1))
                .query_batch_stats(&queries);
        let (approx_res, approx_stats) = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                approx: Some(ApproxPolicy::default()),
                ..config(64, ScoreKind::Dot, 1)
            },
        )
        .query_batch_stats(&queries);
        assert_eq!(exact_stats.blocks_terminated, 0, "exact never terminates");
        assert!(
            approx_stats.blocks_scored < exact_stats.blocks_scored,
            "default epsilon must scan fewer blocks: approx {} vs exact {}",
            approx_stats.blocks_scored,
            exact_stats.blocks_scored
        );
        assert!(approx_stats.blocks_terminated > 0);
        for (e, a) in exact_res.iter().zip(&approx_res) {
            assert_eq!(a.len(), e.len(), "approximate lists must not shrink");
        }
    }

    #[test]
    fn approx_block_budget_never_shortens_results() {
        let snap = skewed_snapshot(8, 500, 36);
        let budget = ApproxPolicy {
            epsilon: 0.0,
            max_blocks: 1,
            target_recall: 0.0,
        };
        // k ≥ catalog: the heap never fills, the budget never engages —
        // every item comes back, exactly.
        let q = vec![Query::new(0, 1000)];
        let exact = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1))
            .query_batch_stats(&q)
            .0;
        let capped = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                approx: Some(budget),
                ..config(64, ScoreKind::Dot, 1)
            },
        )
        .query_batch_stats(&q)
        .0;
        assert_eq!(capped, exact);
        assert_eq!(capped[0].len(), 500);
        // Small k: the budget truncates the scan but the list stays full
        // length.
        let q = vec![Query::new(0, 5)];
        let (capped, stats) = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                approx: Some(budget),
                ..config(64, ScoreKind::Dot, 1)
            },
        )
        .query_batch_stats(&q);
        assert_eq!(capped[0].len(), 5);
        assert!(stats.blocks_terminated > 0);
        // The budget also bounds Cosine scans (no epsilon bound there).
        let (cos, cos_stats) = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                approx: Some(budget),
                ..config(64, ScoreKind::Cosine, 1)
            },
        )
        .query_batch_stats(&q);
        assert_eq!(cos[0].len(), 5);
        assert!(cos_stats.blocks_terminated > 0);
    }

    #[test]
    fn approx_zero_norm_user_gets_full_exact_results() {
        // A user whose factor row is all zeros: every score is 0, the
        // threshold pins at 0, and no termination rule may fire — the
        // approximate path must return the same full list as the exact one.
        let f = 6;
        let mut x = FactorMatrix::random(4, f, 1.0, 44);
        x.vector_mut(2).fill(0.0);
        let snap = Arc::new(FactorSnapshot::from_factors(
            x,
            FactorMatrix::random(300, f, 1.0, 45),
        ));
        let q = vec![Query::new(2, 9)];
        let exact = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1))
            .query_batch_stats(&q)
            .0;
        let (approx, stats) = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                approx: Some(ApproxPolicy {
                    epsilon: 0.5,
                    ..ApproxPolicy::default()
                }),
                ..config(64, ScoreKind::Dot, 1)
            },
        )
        .query_batch_stats(&q);
        assert_eq!(approx, exact);
        assert_eq!(approx[0].len(), 9, "zero-norm user still gets k items");
        assert_eq!(stats.blocks_terminated, 0, "0 < 0 must never terminate");
    }

    #[test]
    fn reencoding_at_f32_is_bit_identical_and_rerank_free() {
        let snap = skewed_snapshot(20, 3000, 71);
        let re = Arc::new(snap.reencoded(Precision::F32));
        let queries: Vec<Query> = (0..20u32)
            .map(|u| Query {
                user: u,
                k: 10,
                exclude: vec![u % 7],
            })
            .collect();
        let (base, base_stats) = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 3))
            .query_batch_stats(&queries);
        let (same, stats) =
            TopKIndex::new(re, &config(64, ScoreKind::Dot, 3)).query_batch_stats(&queries);
        assert_eq!(same, base, "F32 re-encode must not change results");
        assert_eq!(stats.rerank_candidates, 0, "no rerank on an all-f32 store");
        assert_eq!(stats.rerank_ns, 0);
        assert_eq!(stats.bytes_scanned, base_stats.bytes_scanned);
        assert!(stats.bytes_scanned > 0, "exact scans are priced too");
    }

    #[test]
    fn f16_scan_with_rerank_reproduces_the_exact_lists() {
        let snap = skewed_snapshot(16, 4096, 72);
        let queries: Vec<Query> = (0..16u32)
            .map(|u| Query {
                user: u,
                k: 10,
                exclude: vec![u % 5],
            })
            .collect();
        let exact = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1))
            .query_batch_stats(&queries)
            .0;
        let f16 = Arc::new(snap.reencoded(Precision::F16));
        for shards in [1usize, 3, 8] {
            let (got, stats) =
                TopKIndex::new(Arc::clone(&f16), &config(64, ScoreKind::Dot, shards))
                    .query_batch_stats(&queries);
            // The rerank rescores with the same 4-lane kernel the exact scan
            // uses, so a complete candidate set reproduces the exact lists
            // bit-for-bit — items and scores.
            assert_eq!(got, exact, "shards {shards}");
            assert!(stats.rerank_candidates > 0, "quantized scans must rerank");
            // Blocked-scan bytes (excluding the rerank's exact-row reads,
            // which scale with k, not catalog size) must roughly halve
            // against an exact scan producing the same candidate count —
            // over-fetch weakens the heap threshold, so the fair baseline
            // is exact retrieval at k_eff, not at k.
            let scan = stats.bytes_scanned - stats.rerank_candidates * (snap.rank() as u64) * 4;
            let wide: Vec<Query> = queries
                .iter()
                .map(|q| Query {
                    user: q.user,
                    k: 2 * q.k,
                    exclude: q.exclude.clone(),
                })
                .collect();
            let (_, exact_wide) =
                TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, shards))
                    .query_batch_stats(&wide);
            let block_bytes = 64 * snap.rank() as u64 * 4;
            assert!(
                scan * 2 <= exact_wide.bytes_scanned + 2 * block_bytes,
                "f16 scan must halve bytes at matched candidate count: {} vs {}",
                scan,
                exact_wide.bytes_scanned
            );
        }
    }

    #[test]
    fn i8_scan_cuts_bytes_and_keeps_recall() {
        let snap = skewed_snapshot(16, 4096, 73);
        let queries: Vec<Query> = (0..16u32).map(|u| Query::new(u, 10)).collect();
        let exact = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1))
            .query_batch_stats(&queries)
            .0;
        // Byte baseline at the quantized path's candidate count (see the
        // f16 test for why k_eff, not k, is the fair comparison).
        let wide: Vec<Query> = (0..16u32).map(|u| Query::new(u, 20)).collect();
        let (_, exact_wide) = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Dot, 1))
            .query_batch_stats(&wide);
        let i8 = Arc::new(snap.reencoded(Precision::I8));
        let (got, stats) =
            TopKIndex::new(i8, &config(64, ScoreKind::Dot, 1)).query_batch_stats(&queries);
        let scan = stats.bytes_scanned - stats.rerank_candidates * (snap.rank() as u64) * 4;
        assert!(
            scan * 2 < exact_wide.bytes_scanned,
            "i8 scan must at least halve bytes moved: {} vs {}",
            scan,
            exact_wide.bytes_scanned
        );
        let mut hits = 0usize;
        let mut total = 0usize;
        for (e, g) in exact.iter().zip(&got) {
            assert_eq!(g.len(), e.len(), "quantized lists must stay full-length");
            let truth: HashSet<u32> = e.iter().map(|&(v, _)| v).collect();
            hits += g.iter().filter(|&&(v, _)| truth.contains(&v)).count();
            total += e.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.99, "i8 post-rerank recall {recall} < 0.99");
    }

    #[test]
    fn quantized_cosine_reranks_with_exact_norms() {
        let snap = skewed_snapshot(8, 1000, 74);
        let queries: Vec<Query> = (0..8u32).map(|u| Query::new(u, 8)).collect();
        let exact = TopKIndex::new(Arc::clone(&snap), &config(64, ScoreKind::Cosine, 1))
            .query_batch_stats(&queries)
            .0;
        let f16 = Arc::new(snap.reencoded(Precision::F16));
        let got = TopKIndex::new(f16, &config(64, ScoreKind::Cosine, 1))
            .query_batch_stats(&queries)
            .0;
        assert_eq!(got.len(), exact.len());
        for (e, g) in exact.iter().zip(&got) {
            assert_eq!(g.len(), e.len());
            let truth: HashSet<u32> = e.iter().map(|&(v, _)| v).collect();
            let overlap = g.iter().filter(|&&(v, _)| truth.contains(&v)).count();
            assert!(
                overlap + 1 >= e.len(),
                "cosine recall collapsed: {overlap}/{}",
                e.len()
            );
        }
    }

    #[test]
    fn rerank_factor_one_still_returns_full_lists() {
        let snap = Arc::new(skewed_snapshot(4, 300, 75).reencoded(Precision::I8));
        let queries = vec![Query::new(0, 7), Query::new(9999, 3), Query::new(1, 0)];
        let (got, stats) = TopKIndex::new(
            snap,
            &ServeConfig {
                rerank_factor: 1.0,
                ..config(64, ScoreKind::Dot, 1)
            },
        )
        .query_batch_stats(&queries);
        assert_eq!(got[0].len(), 7);
        assert!(got[1].is_empty(), "invalid user skips the rerank");
        assert!(got[2].is_empty());
        assert_eq!(stats.rerank_candidates, 7, "factor 1.0 reranks exactly k");
    }

    #[test]
    fn sharding_an_empty_or_tiny_catalog_is_safe() {
        let snap = Arc::new(FactorSnapshot::from_factors(
            FactorMatrix::random(3, 4, 1.0, 8),
            FactorMatrix::random(2, 4, 1.0, 9),
        ));
        let q = vec![Query::new(0, 5), Query::new(1, 1)];
        let one = TopKIndex::new(Arc::clone(&snap), &config(512, ScoreKind::Dot, 1))
            .query_batch_stats(&q)
            .0;
        let many = TopKIndex::new(Arc::clone(&snap), &config(512, ScoreKind::Dot, 8))
            .query_batch_stats(&q)
            .0;
        assert_eq!(one, many);
        assert_eq!(one[0].len(), 2, "catalog smaller than k returns all");
    }
}
