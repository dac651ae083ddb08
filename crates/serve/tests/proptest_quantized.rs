//! Property pin for the quantized-segment acceptance criterion: a store
//! re-encoded at [`Precision::F32`] served through the rerank-capable index
//! with an `epsilon = 0` policy is **bit-identical** to the pre-quantization
//! exact path — across random segmentations (delta-appended tails), both
//! item layouts, shard counts, and blockings.  F32 really is the identity
//! codec, not merely a close approximation.

use cumf_linalg::{FactorMatrix, Precision};
use cumf_serve::{
    ApproxPolicy, FactorSnapshot, ItemLayout, Query, ScoreKind, ServeConfig, TopKIndex,
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
