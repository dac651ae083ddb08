//! The segmented, norm-ordered ItemStore's contract:
//!
//! 1. **Bit-identity** — retrieval over {one segment, base + appended
//!    tails, post-compaction} × {catalog-order, norm-descending} × shard
//!    counts returns byte-for-byte the same rankings as a contiguous
//!    catalog-order rebuild.
//! 2. **Id remap round trip** — a permuted store resolves every catalog id
//!    back to the original factor row, and rankings carry catalog ids.
//! 3. **O(a·f) item appends** — an item-appending delta copies exactly the
//!    appended rows' bytes (`DeltaStats`), never the whole Θ slab.
//! 4. **Systematic pruning** — on a skewed-norm catalog the
//!    norm-descending layout skips strictly more blocks than catalog order
//!    (the new pruning counters), with identical results.
//! 5. **Fold-in in place** — solving users against the store's segment
//!    views equals solving them against the materialized catalog, bit for
//!    bit.

use cumf_core::foldin::{fold_in_users, fold_in_users_segmented, ratings_rows};
use cumf_linalg::FactorMatrix;
use cumf_serve::{
    ApproxPolicy, Counter, FactorSnapshot, ItemLayout, Query, ScoreKind, ServeConfig, TopKIndex,
    TopKService,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic factors.
fn factors(seed: u64, m: usize, n: usize, f: usize) -> (FactorMatrix, FactorMatrix) {
    (
        FactorMatrix::random(m, f, 1.0, seed),
        FactorMatrix::random(n, f, 1.0, seed + 1),
    )
}

/// A catalog whose item norms are heavily skewed (a few heavy items, a long
/// near-zero tail) with the heavy items **scattered** across the id space —
/// the case where catalog-order pruning is data-dependent and a
/// norm-descending layout pays off.
fn skewed_norm_theta(n: usize, f: usize, seed: u64) -> FactorMatrix {
    let mut theta = FactorMatrix::random(n, f, 1.0, seed);
    for v in 0..n {
        // Pseudo-random scatter of the norm mass: ~1/64 of items keep a
        // large norm, everyone else shrinks toward zero.
        let h = (v.wrapping_mul(2654435761)) % 64;
        let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
        for x in theta.vector_mut(v) {
            *x *= scale;
        }
    }
    theta
}

/// Builds the same catalog three ways per layout: monolithic, grown via
/// item-appending deltas (tail segments), and compacted back down.
fn variants(
    x: &FactorMatrix,
    theta: &FactorMatrix,
    cuts: &[usize],
    layout: ItemLayout,
) -> Vec<(&'static str, FactorSnapshot)> {
    let f = x.rank();
    let monolithic = FactorSnapshot::from_factors_with_layout(x.clone(), theta.clone(), layout);

    let n0 = cuts[0];
    let base_theta = FactorMatrix::from_vec(n0, f, theta.data()[..n0 * f].to_vec());
    let mut grown = FactorSnapshot::from_factors_with_layout(x.clone(), base_theta, layout);
    for w in cuts.windows(2) {
        let rows =
            FactorMatrix::from_vec(w[1] - w[0], f, theta.data()[w[0] * f..w[1] * f].to_vec());
        let mut delta = grown.delta();
        delta.append_items(&rows);
        let (next, stats) = grown.apply_delta(&delta).expect("append applies");
        assert_eq!(
            stats.item_factor_bytes_copied,
            (w[1] - w[0]) * f * 4,
            "append must copy exactly the appended rows"
        );
        grown = next;
    }
    assert_eq!(grown.n_items(), theta.len());
    assert_eq!(grown.items().segment_count(), cuts.len());

    let compacted = grown.compacted();
    assert_eq!(compacted.items().segment_count(), 1);

    vec![
        ("monolithic", monolithic),
        ("grown", grown),
        ("compacted", compacted),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Acceptance invariant: every (variant, layout, shard count, score
    /// kind) combination is bit-identical to the contiguous catalog-order
    /// baseline — and approximate retrieval with `epsilon = 0` and no
    /// block budget is bit-identical to all of them.
    #[test]
    fn segmented_and_permuted_retrieval_is_bit_identical(
        (m, n, f, seed) in (20usize..60, 200usize..600, 4usize..10, 0u64..500),
        cut_a in 1usize..100,
        cut_b in 0usize..100,
        k in 1usize..10,
        cosine in 0u8..2,
    ) {
        let (x, theta) = factors(seed, m, n, f);
        let score = if cosine == 1 { ScoreKind::Cosine } else { ScoreKind::Dot };
        // Segment boundaries strictly inside the catalog, unsorted input.
        let mut cuts = vec![cut_a.min(n - 1).max(1), (cut_a + cut_b).min(n - 1).max(1), n];
        cuts.dedup();
        let queries: Vec<Query> = (0..m as u32)
            .map(|u| Query { user: u, k, exclude: vec![u % 19, u % 7] })
            .collect();
        // The baseline is the contiguous catalog-order store — explicit,
        // since the construction default is norm-descending now.
        let baseline_snap =
            FactorSnapshot::from_factors_with_layout(x.clone(), theta.clone(), ItemLayout::CatalogOrder);
        let config = ServeConfig { item_block: 64, score, ..Default::default() };
        let baseline = TopKIndex::new(Arc::new(baseline_snap), &config).query_batch_stats(&queries).0;

        for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
            for (name, snap) in variants(&x, &theta, &cuts, layout) {
                let snap = Arc::new(snap);
                for shards in [1usize, 3, 7] {
                    let sharded = ServeConfig { shards, ..config.clone() };
                    let got = TopKIndex::new(Arc::clone(&snap), &sharded).query_batch_stats(&queries).0;
                    prop_assert_eq!(
                        &got, &baseline,
                        "{} {:?} shards {} score {:?}", name, layout, shards, score
                    );
                    // Epsilon-zero approximate mode must not change a bit
                    // either, for any segmentation × layout × shard count ×
                    // score kind.
                    let exact_policy = ServeConfig { approx: Some(ApproxPolicy::exact()), ..sharded };
                    let approx = TopKIndex::new(Arc::clone(&snap), &exact_policy)
                        .query_batch_stats(&queries).0;
                    prop_assert_eq!(
                        &approx, &baseline,
                        "approx eps=0 {} {:?} shards {} score {:?}", name, layout, shards, score
                    );
                }
                // The single-request path agrees too.
                let one = snap.recommend_one(0, k, &[0, 19]);
                prop_assert_eq!(
                    one,
                    variants(&x, &theta, &cuts, ItemLayout::CatalogOrder)
                        .remove(0).1.recommend_one(0, k, &[0, 19]),
                    "recommend_one {} {:?}", name, layout
                );
            }
        }
    }

    /// Recall degrades monotonically in epsilon on a fixed seeded catalog:
    /// a larger epsilon never scans more blocks and never recalls more of
    /// the exact top-k (single compacted segment — the scanned item set
    /// shrinks as epsilon grows, so recall is monotone non-increasing).
    #[test]
    fn recall_is_monotone_non_increasing_in_epsilon(
        seed in 0u64..200,
        k in 1usize..12,
    ) {
        let x = FactorMatrix::random(12, 8, 1.0, seed);
        let theta = skewed_norm_theta(3000, 8, seed + 1);
        let snap = Arc::new(FactorSnapshot::from_factors_with_layout(
            x, theta, ItemLayout::NormDescending,
        ));
        let queries: Vec<Query> = (0..12u32).map(|u| Query::new(u, k)).collect();
        let config = ServeConfig { item_block: 64, score: ScoreKind::Dot, ..Default::default() };
        let mut prev_recall = f64::INFINITY;
        let mut prev_scored = u64::MAX;
        for eps in [0.0f32, 0.05, 0.1, 0.2, 0.4, 0.8] {
            let report = cumf_serve::measure_recall(
                &snap, &queries, &config, &ApproxPolicy { epsilon: eps, ..ApproxPolicy::default() },
            );
            prop_assert!(
                report.mean_recall <= prev_recall + 1e-12,
                "recall rose from {} to {} at eps {}", prev_recall, report.mean_recall, eps
            );
            prop_assert!(
                report.approx_stats.blocks_scored <= prev_scored,
                "scan grew from {} to {} blocks at eps {}",
                prev_scored, report.approx_stats.blocks_scored, eps
            );
            // Full-length lists at every epsilon (never short, never empty).
            prop_assert!(report.queries == 12);
            prev_recall = report.mean_recall;
            prev_scored = report.approx_stats.blocks_scored;
        }
    }
}

/// Id-remap round trip: a norm-permuted, segmented store must resolve every
/// catalog id to the original row (point lookups, predictions, and the
/// materialized matrix), and its rankings must carry catalog ids.
#[test]
fn id_remap_round_trips_through_permuted_segments() {
    let (x, theta) = factors(33, 25, 300, 6);
    let cuts = [120usize, 200, 300];
    for (name, snap) in variants(&x, &theta, &cuts, ItemLayout::NormDescending) {
        for v in 0..300u32 {
            assert_eq!(
                snap.item_vector(v).unwrap(),
                theta.vector(v as usize),
                "{name} item {v}"
            );
        }
        assert_eq!(snap.items().to_matrix(), theta, "{name}");
        for u in [0u32, 7, 24] {
            for v in [0u32, 119, 120, 299] {
                let expect = cumf_linalg::blas::dot(x.vector(u as usize), theta.vector(v as usize));
                assert_eq!(snap.predict(u, v), Some(expect), "{name} ({u}, {v})");
            }
        }
        assert_eq!(snap.item_vector(300), None, "{name}");
    }
}

/// Acceptance criterion: an item-appending delta copies `O(a·f)` item
/// bytes — asserted via `DeltaStats` against a catalog three orders of
/// magnitude larger than the append.
#[test]
fn item_append_copies_o_of_a_f_bytes_not_theta() {
    let (m, n, f, a) = (50usize, 50_000usize, 16usize, 64usize);
    for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
        let (x, theta) = factors(91, m, n, f);
        let base = FactorSnapshot::from_factors_with_layout(x, theta, layout);
        let mut delta = base.delta();
        delta.append_items(&FactorMatrix::random(a, f, 1.0, 92));
        let (next, stats) = base.apply_delta(&delta).unwrap();
        // Exactly the appended rows, nothing proportional to n.
        assert_eq!(stats.item_factor_bytes_copied, a * f * 4, "{layout:?}");
        assert!(
            stats.item_factor_bytes_copied * 100 < n * f * 4,
            "{layout:?}: an append must not approach a full Θ copy"
        );
        assert_eq!(stats.norms_recomputed, a, "{layout:?}");
        assert_eq!(next.items().segment_count(), 2, "{layout:?}");
        assert_eq!(next.n_items(), n + a);
    }
}

/// The online loop folds users in against the serving store's segment
/// views, never a contiguous copy of Θ.  That must not change a bit: for
/// every layout and every segmentation the store goes through (one
/// segment, appended tails, compacted), the segmented solve equals the
/// solve against the materialized catalog-order Θ.
#[test]
fn segmented_fold_in_equals_materialized_fold_in_bit_for_bit() {
    let (f, n) = (8usize, 900usize);
    let (x, theta) = factors(71, 10, n, f);
    let rating_lists: Vec<Vec<(u32, f32)>> = (0..24u32)
        .map(|u| {
            (0..(u % 7) * 5)
                .map(|j| ((u * 131 + j * 97) % n as u32, 1.0 + (u + j) as f32 % 4.0))
                .collect()
        })
        .collect();
    let ratings = ratings_rows(&rating_lists, n as u32);
    for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
        for (name, snap) in variants(&x, &theta, &[500, 700, n], layout) {
            let materialized = fold_in_users(&ratings, &snap.items().to_matrix(), 0.05, None);
            let segmented = fold_in_users_segmented(&ratings, &snap.items().views(), f, 0.05, None);
            assert_eq!(segmented, materialized, "{name} {layout:?}");
        }
    }
}

/// Acceptance criterion: on a skewed-norm catalog the norm-descending
/// layout prunes **strictly more** blocks than catalog order, while the
/// results stay bit-identical.
#[test]
fn norm_ordered_layout_prunes_strictly_more_blocks() {
    let f = 16;
    let n = 20_000;
    let x = FactorMatrix::random(40, f, 1.0, 5);
    let theta = skewed_norm_theta(n, f, 6);
    let queries: Vec<Query> = (0..40u32).map(|u| Query::new(u, 10)).collect();

    let plain = Arc::new(FactorSnapshot::from_factors_with_layout(
        x.clone(),
        theta.clone(),
        ItemLayout::CatalogOrder,
    ));
    let permuted = Arc::new(FactorSnapshot::from_factors_with_layout(
        x,
        theta,
        ItemLayout::NormDescending,
    ));
    let (plain_results, plain_stats) = TopKIndex::new(
        Arc::clone(&plain),
        &ServeConfig {
            item_block: 512,
            score: ScoreKind::Dot,
            ..Default::default()
        },
    )
    .query_batch_stats(&queries);
    let (permuted_results, permuted_stats) = TopKIndex::new(
        Arc::clone(&permuted),
        &ServeConfig {
            item_block: 512,
            score: ScoreKind::Dot,
            ..Default::default()
        },
    )
    .query_batch_stats(&queries);

    assert_eq!(
        permuted_results, plain_results,
        "layout must not change results"
    );
    assert!(
        permuted_stats.blocks_pruned > plain_stats.blocks_pruned,
        "norm-descending must skip strictly more blocks: permuted {} vs catalog {}",
        permuted_stats.blocks_pruned,
        plain_stats.blocks_pruned
    );
    // Same total block-visit decisions either way.
    assert_eq!(
        permuted_stats.blocks_scored + permuted_stats.blocks_pruned,
        plain_stats.blocks_scored + plain_stats.blocks_pruned
    );
    // And the permuted layout skips the overwhelming majority of the
    // catalog here — the "systematic" half of the claim.
    assert!(
        permuted_stats.blocks_pruned > permuted_stats.blocks_scored,
        "expected most blocks pruned, got {:.1}%",
        100.0 * permuted_stats.blocks_pruned as f64
            / (permuted_stats.blocks_pruned + permuted_stats.blocks_scored) as f64
    );
}

/// The blocked scan's heap feed consults the exclusion set only for scores
/// that clear the heap's threshold, so the hard case is a query that
/// excludes exactly its own unfiltered top-k: every early winner is refused
/// and the reply must be ranks `k+1..=2k` of a brute-force ranking, bit for
/// bit, on every path.
#[test]
fn excluding_the_entire_unfiltered_top_k_returns_the_next_k() {
    let (f, n, k) = (8, 3000, 10);
    let (x, theta) = factors(91, 12, n, f);
    let norms = cumf_linalg::item_norms(theta.data(), f);
    for score in [ScoreKind::Dot, ScoreKind::Cosine] {
        let ranked: Vec<Vec<(u32, f32)>> = (0..x.len())
            .map(|u| {
                let mut all: Vec<(u32, f32)> = (0..n)
                    .map(|v| {
                        let s = cumf_linalg::score_dot(x.vector(u), theta.vector(v));
                        match score {
                            ScoreKind::Dot => (v as u32, s),
                            ScoreKind::Cosine => (v as u32, s / norms[v]),
                        }
                    })
                    .collect();
                all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                all.truncate(2 * k);
                all
            })
            .collect();
        let queries: Vec<Query> = ranked
            .iter()
            .enumerate()
            .map(|(u, r)| Query {
                user: u as u32,
                k,
                exclude: r[..k].iter().map(|&(v, _)| v).collect(),
            })
            .collect();
        for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
            let snap = Arc::new(FactorSnapshot::from_factors_with_layout(
                x.clone(),
                theta.clone(),
                layout,
            ));
            for shards in [1usize, 3] {
                let got = TopKIndex::new(
                    Arc::clone(&snap),
                    &ServeConfig {
                        item_block: 64,
                        score,
                        shards,
                        ..Default::default()
                    },
                )
                .query_batch_stats(&queries)
                .0;
                for (u, reply) in got.iter().enumerate() {
                    assert_eq!(
                        reply[..],
                        ranked[u][k..],
                        "{score:?} {layout:?} shards {shards} user {u}"
                    );
                }
            }
            if score == ScoreKind::Dot {
                for q in &queries {
                    let one = snap.recommend_one(q.user, k, &q.exclude);
                    assert_eq!(
                        one[..],
                        ranked[q.user as usize][k..],
                        "{layout:?} recommend_one"
                    );
                }
            }
        }
    }
}

/// Service-level: sustained item-appending deltas auto-compact once past
/// `max_item_segments`, replies keep matching a contiguous rebuild, and
/// unchanged users' cache entries survive the compaction (it changes
/// nothing observable).
#[test]
fn service_auto_compacts_under_sustained_appends() {
    let (x, theta) = factors(71, 30, 200, 6);
    let f = 6;
    let service = TopKService::start(
        FactorSnapshot::from_factors_with_layout(
            x.clone(),
            theta.clone(),
            ItemLayout::NormDescending,
        ),
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            max_item_segments: 3,
            ..Default::default()
        },
    );
    let client = service.client();

    let mut full_theta = theta;
    for round in 0..6u64 {
        let rows = FactorMatrix::random(10, f, 1.0, 100 + round);
        full_theta.append_rows(&rows);
        let mut delta = service.snapshot().delta();
        delta.append_items(&rows);
        service.publish_delta(&delta).unwrap();

        let reference = FactorSnapshot::from_factors(x.clone(), full_theta.clone());
        for u in [0u32, 13, 29] {
            assert_eq!(
                client.recommend(u, 8, &[u]).unwrap(),
                reference.recommend_one(u, 8, &[u]),
                "round {round} user {u}"
            );
        }
        assert!(
            service.snapshot().items().segment_count() <= 4,
            "segment count must stay bounded, round {round}: {}",
            service.snapshot().items().segment_count()
        );
    }
    let m = service.metrics();
    assert!(
        m[Counter::ItemCompactions] >= 1,
        "auto-compaction must have fired"
    );
    assert_eq!(service.poisoned(), None);

    // An explicit compaction retains cached entries: same user, same reply,
    // no extra cache miss.
    let before = client.recommend(5, 6, &[]).unwrap();
    let misses = service.metrics()[Counter::CacheMisses];
    let mut delta = service.snapshot().delta();
    delta.append_items(&FactorMatrix::random(1, f, 1.0, 999));
    service.publish_delta(&delta).unwrap(); // appends invalidate lazily...
    let _ = client.recommend(5, 6, &[]).unwrap(); // ...rescore once
    assert!(service.metrics()[Counter::CacheMisses] > misses);
    // The worker inserts the rescored entry *after* replying; wait for the
    // entry to actually land (a later identical request hits) so the
    // compaction below restamps it rather than racing the insert.
    let hits_goal = service.metrics()[Counter::CacheHits] + 1;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.metrics()[Counter::CacheHits] < hits_goal {
        assert!(std::time::Instant::now() < deadline, "entry never cached");
        let _ = client.recommend(5, 6, &[]).unwrap();
    }
    let misses_before_compaction = service.metrics()[Counter::CacheMisses];
    service.compact_items();
    let after = client.recommend(5, 6, &[]).unwrap();
    assert_eq!(
        service.metrics()[Counter::CacheMisses],
        misses_before_compaction,
        "compaction must retain the cache (no rescoring)"
    );
    assert_eq!(after.len(), before.len());
}
