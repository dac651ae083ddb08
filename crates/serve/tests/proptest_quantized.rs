//! Property pin for the quantized-segment acceptance criterion: a store
//! re-encoded at [`Precision::F32`] served through the rerank-capable index
//! with an `epsilon = 0` policy is **bit-identical** to the pre-quantization
//! exact path — across random segmentations (delta-appended tails), both
//! item layouts, shard counts, and blockings.  F32 really is the identity
//! codec, not merely a close approximation.  Beside it, the reduced
//! precisions' floors: f16 reads at least 1.8× fewer bytes than the exact
//! scan with recall 1.0, and i8 at least 3.5× fewer with recall ≥ 0.99.

use cumf_linalg::{FactorMatrix, Precision};
use cumf_serve::{
    report_from_lists, ApproxPolicy, FactorSnapshot, ItemLayout, Query, ScoreKind, ServeConfig,
    TopKIndex,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a snapshot over `n` base items plus up to two delta-appended
/// tails, so the store is genuinely multi-segment when the tails are
/// non-empty.
fn segmented_snapshot(
    n: usize,
    f: usize,
    seed: u64,
    layout: ItemLayout,
    tails: &[usize],
) -> FactorSnapshot {
    let x = FactorMatrix::random(24, f, 1.0, seed);
    let theta = FactorMatrix::random(n, f, 1.0, seed + 1);
    let mut snap = FactorSnapshot::from_factors_with_layout(x, theta, layout);
    for (i, &tail) in tails.iter().enumerate() {
        if tail == 0 {
            continue;
        }
        let mut delta = snap.delta();
        delta.append_items(&FactorMatrix::random(tail, f, 1.0, seed + 2 + i as u64));
        snap = snap.apply_delta(&delta).expect("delta applies").0;
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f32_precision_and_epsilon_zero_match_the_exact_path_bit_for_bit(
        n in 60usize..300,
        f in 3usize..9,
        seed in 0u64..500,
        tail_a in 0usize..40,
        tail_b in 0usize..40,
        k in 1usize..12,
        layout_sel in 0usize..2,
        shards in 1usize..5,
        block_sel in 0usize..3,
    ) {
        let item_block = [16usize, 33, 64][block_sel];
        let layout = [ItemLayout::CatalogOrder, ItemLayout::NormDescending][layout_sel];
        let snap = Arc::new(segmented_snapshot(n, f, seed, layout, &[tail_a, tail_b]));
        // Round-tripping through the codec layer at F32 must be the
        // identity on the store.
        let re = Arc::new(snap.reencoded(Precision::F32));
        prop_assert_eq!(re.items().precision(), Precision::F32);
        prop_assert!(re.items().segments().iter().all(|s| s.encoded().is_none()));

        let queries: Vec<Query> = (0..24u32)
            .map(|u| Query {
                user: u,
                k,
                // A deterministic sprinkle of exclusions per user.
                exclude: (0..n as u32).filter(|v| (v + u) % 37 == 0).collect(),
            })
            .collect();
        for score in [ScoreKind::Dot, ScoreKind::Cosine] {
            let config = ServeConfig { item_block, score, shards, ..Default::default() };
            // The pre-quantization path: plain sharded exact index.
            let exact = TopKIndex::new(Arc::clone(&snap), &config);
            let (want, want_stats) = exact.query_batch_stats(&queries);
            // The new path: rerank-capable index over the re-encoded store
            // with a zero-slack policy and an over-fetch factor armed.
            let quant = TopKIndex::new(
                Arc::clone(&re),
                &ServeConfig { approx: Some(ApproxPolicy::exact()), rerank_factor: 2.0, ..config },
            );
            let (got, got_stats) = quant.query_batch_stats(&queries);
            prop_assert_eq!(
                &got, &want,
                "diverged: layout={:?} shards={} block={} k={} score={:?}",
                layout, shards, item_block, k, score
            );
            // Identity means identical work too: same blocks scored, no
            // rerank pass, and no quantized bytes on an all-f32 store.
            prop_assert_eq!(got_stats.blocks_scored, want_stats.blocks_scored);
            prop_assert_eq!(got_stats.rerank_candidates, 0);
            prop_assert_eq!(got_stats.bytes_scanned, want_stats.bytes_scanned);
        }
    }
}

/// The byte and recall floors of the reduced precisions, on a 50 000-item
/// catalog whose norms are skewed (a few heavy items scattered across the
/// ids, a long light tail) and stored norm-descending.  The bytes are the
/// whole query's, the rerank's exact-row reads included, against the exact
/// scan at the caller's `k`: the quantized scan keeps `k · rerank_factor`
/// candidates, whose weaker heap threshold visits more blocks, so this is
/// the end-to-end accounting and harder to meet than a matched-candidate
/// comparison.  The floors hold with little room (1.85× and 3.52× here),
/// and smaller catalogs fall below them, because the rerank's reads do not
/// shrink with the catalog.
#[test]
fn f16_and_i8_read_fewer_bytes_at_their_recall_floors() {
    let (n, f) = (50_000usize, 32usize);
    let mut theta = FactorMatrix::random(n, f, 0.5, 62);
    for v in 0..n {
        let h = (v as u32).wrapping_mul(2654435761) % 64;
        let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
        for x in theta.vector_mut(v) {
            *x *= scale;
        }
    }
    let snap = Arc::new(FactorSnapshot::from_factors_with_layout(
        FactorMatrix::random(1000, f, 0.5, 61),
        theta,
        ItemLayout::NormDescending,
    ));
    let queries: Vec<Query> = (0..64u32).map(|i| Query::new(i * 37 % 1000, 10)).collect();
    let config = ServeConfig {
        item_block: 512,
        score: ScoreKind::Dot,
        shards: 4,
        ..Default::default()
    };
    let (want, want_stats) = TopKIndex::new(Arc::clone(&snap), &config).query_batch_stats(&queries);
    for (precision, min_ratio, recall_floor) in
        [(Precision::F16, 1.8, 1.0), (Precision::I8, 3.5, 0.99)]
    {
        let re = Arc::new(snap.reencoded(precision));
        let (got, stats) = TopKIndex::new(re, &config).query_batch_stats(&queries);
        let report = report_from_lists(&want, &got, want_stats, stats);
        assert!(
            report.mean_recall >= recall_floor,
            "{precision}: post-rerank recall {:.4} below the {recall_floor} floor",
            report.mean_recall
        );
        let ratio = want_stats.bytes_scanned as f64 / stats.bytes_scanned as f64;
        assert!(
            ratio >= min_ratio,
            "{precision}: {ratio:.3}x fewer bytes, below the {min_ratio}x floor ({} vs {})",
            stats.bytes_scanned,
            want_stats.bytes_scanned
        );
    }
}
