//! Statistical guarantees of approximate retrieval.
//!
//! The contract under test: at the **default** [`ApproxPolicy`], measured
//! recall@k stays at or above the policy's `target_recall` on both a
//! skewed-norm catalog (where early termination fires hard) and a uniform
//! one (where it barely fires and recall should be near-perfect) — and a
//! live [`TopKService`] mixing exact and approximate traffic never lets one
//! mode's results leak into the other's.  Degenerate inputs — a zero-norm
//! user, `k` at or past the catalog size — must come back complete and
//! exact even under an aggressive policy.

use cumf_linalg::FactorMatrix;
use cumf_serve::{
    measure_recall, ApproxPolicy, Counter, FactorSnapshot, ItemLayout, Query, ScoreKind,
    ServeConfig, TopKIndex, TopKService,
};
use std::sync::Arc;
use std::time::Duration;

/// Item factors whose norms follow a skewed multiplicative profile: a few
/// heavy hitters, a long cheap tail — the regime norm-descending layout and
/// early termination are built for.
fn skewed_theta(n: usize, f: usize, seed: u64) -> FactorMatrix {
    let mut theta = FactorMatrix::random(n, f, 1.0, seed);
    for v in 0..n {
        let h = (v as u32).wrapping_mul(2654435761) % 64;
        let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
        for x in theta.vector_mut(v) {
            *x *= scale;
        }
    }
    theta
}

/// Item factors with mildly skewed norms, spread evenly over `[1, 2)`: no
/// heavy hitters, so the exact top 10 spans several norm-sorted blocks
/// and a policy looser than the default loses recall.
fn mildly_skewed_theta(n: usize, f: usize, seed: u64) -> FactorMatrix {
    let mut theta = FactorMatrix::random(n, f, 1.0, seed);
    for v in 0..n {
        let h = (v as u32).wrapping_mul(2654435761) % 64;
        let norm = theta.vector(v).iter().map(|x| x * x).sum::<f32>().sqrt();
        let scale = (1.0 + h as f32 / 64.0) / norm;
        for x in theta.vector_mut(v) {
            *x *= scale;
        }
    }
    theta
}

fn snapshot(x: FactorMatrix, theta: FactorMatrix) -> Arc<FactorSnapshot> {
    Arc::new(FactorSnapshot::from_factors_with_layout(
        x,
        theta,
        ItemLayout::NormDescending,
    ))
}

fn service_config(approx: Option<ApproxPolicy>) -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        workers: 2,
        shards: 2,
        approx,
        ..ServeConfig::default()
    }
}

/// The headline statistical guarantee: at the default policy, mean
/// recall@k ≥ `target_recall` on a skewed and a mildly skewed catalog
/// *while scanning measurably fewer blocks*, and ≥ the same floor on a
/// uniform catalog.  On the first and the last the exact top 10 sits in
/// the first norm-sorted block, so only the mildly skewed one fails a
/// default ε of 0.9 or a one-block budget (recall 0.89 under either).
#[test]
fn default_policy_meets_target_recall_on_skewed_and_uniform_catalogs() {
    let policy = ApproxPolicy::default();
    let queries: Vec<Query> = (0..64u32).map(|u| Query::new(u, 10)).collect();
    let config = ServeConfig {
        item_block: 512,
        score: ScoreKind::Dot,
        shards: 2,
        ..Default::default()
    };

    // Skewed: termination fires — require the saving AND the recall floor.
    let skewed = snapshot(
        FactorMatrix::random(64, 8, 1.0, 900),
        skewed_theta(8192, 8, 901),
    );
    let report = measure_recall(&skewed, &queries, &config, &policy);
    assert!(
        report.mean_recall >= policy.target_recall,
        "skewed catalog recall below target: {report}"
    );
    assert!(
        report.approx_stats.blocks_scored < report.exact_stats.blocks_scored,
        "approximation saved nothing on the skewed catalog: {report}"
    );
    assert!(
        report.approx_stats.blocks_terminated > 0,
        "no early termination on the skewed catalog: {report}"
    );

    // Mildly skewed, f = 32: the top 10 spreads over several blocks, and
    // termination still saves about half of them.
    let mild = snapshot(
        FactorMatrix::random(64, 32, 1.0, 904),
        mildly_skewed_theta(8192, 32, 905),
    );
    let report = measure_recall(&mild, &queries, &config, &policy);
    assert!(
        report.mean_recall >= policy.target_recall,
        "mildly skewed catalog recall below target: {report}"
    );
    assert!(
        report.approx_stats.blocks_scored < report.exact_stats.blocks_scored,
        "approximation saved nothing on the mildly skewed catalog: {report}"
    );

    // Uniform: little to terminate, so recall must stay at least as high.
    let uniform = snapshot(
        FactorMatrix::random(64, 8, 1.0, 902),
        FactorMatrix::random(8192, 8, 1.0, 903),
    );
    let report = measure_recall(&uniform, &queries, &config, &policy);
    assert!(
        report.mean_recall >= policy.target_recall,
        "uniform catalog recall below target: {report}"
    );
}

/// Recall holds across shard counts — sharding re-partitions the scan but
/// must not change what the policy is allowed to skip.
#[test]
fn default_policy_recall_holds_for_every_shard_count() {
    let policy = ApproxPolicy::default();
    let snap = snapshot(
        FactorMatrix::random(32, 8, 1.0, 910),
        skewed_theta(4096, 8, 911),
    );
    let queries: Vec<Query> = (0..32u32).map(|u| Query::new(u, 10)).collect();
    for shards in [1usize, 3, 8] {
        let report = measure_recall(
            &snap,
            &queries,
            &ServeConfig {
                item_block: 512,
                score: ScoreKind::Dot,
                shards,
                ..Default::default()
            },
            &policy,
        );
        assert!(
            report.mean_recall >= policy.target_recall,
            "shards {shards}: {report}"
        );
    }
}

/// A live service under a service-wide approximate policy: exact-mode
/// requests return ground truth bit-for-bit, inherit-mode requests are
/// full-length and within the recall floor, and an `epsilon = 0` override
/// equals exact — even though all three interleave on the same workers,
/// queue, and cache.
#[test]
fn live_service_exact_and_approx_traffic_do_not_cross_contaminate() {
    // Aggressive epsilon so approximate answers actually diverge; if exact
    // traffic ever rode in an approximate micro-batch or cache slot, the
    // ground-truth comparison below would catch it.
    let policy = ApproxPolicy {
        epsilon: 0.5,
        ..ApproxPolicy::default()
    };
    let x = FactorMatrix::random(48, 8, 1.0, 920);
    let theta = skewed_theta(4096, 8, 921);
    let snap = snapshot(x.clone(), theta.clone());
    let truth = TopKIndex::new(
        Arc::clone(&snap),
        &ServeConfig {
            item_block: 512,
            score: ScoreKind::Dot,
            ..Default::default()
        },
    );

    let service = TopKService::start(
        FactorSnapshot::from_factors_with_layout(x, theta, ItemLayout::NormDescending),
        service_config(Some(policy)),
    );
    let client = service.client();

    for u in 0..48u32 {
        let expect = truth.query_batch_stats(&[Query::new(u, 10)]).0.remove(0);
        let exact = client.recommend_exact(u, 10, &[]).unwrap();
        assert_eq!(exact, expect, "exact request contaminated for user {u}");
        let eps0 = client
            .recommend_approx(u, 10, &[], ApproxPolicy::exact())
            .unwrap();
        assert_eq!(eps0, expect, "epsilon-0 override diverged for user {u}");
        let approx = client.recommend(u, 10, &[]).unwrap();
        assert_eq!(approx.len(), 10, "approximate list came back short");
    }
    let m = service.metrics();
    assert_eq!(
        m[Counter::ApproxRequests],
        48,
        "only the inherit-mode requests are approximate"
    );
    // The approximate path really ran: scans terminated early, yet every
    // exact-mode answer above still matched ground truth bit-for-bit.
    assert!(
        m[Counter::BlocksTerminated] > 0,
        "epsilon 0.5 never terminated a scan — approximate path idle: {m:?}"
    );
}

/// Degenerate inputs stay exact under an aggressive policy: a zero-norm
/// user (bound pins at 0, termination can never fire) and `k ≥ catalog`
/// (heaps never fill, so neither termination nor the block budget may
/// shorten the scan).
#[test]
fn zero_norm_user_and_oversized_k_return_full_exact_results() {
    let n = 700;
    let mut x = FactorMatrix::random(8, 8, 1.0, 930);
    for v in x.vector_mut(0) {
        *v = 0.0;
    }
    let theta = skewed_theta(n, 8, 931);
    let snap = snapshot(x.clone(), theta.clone());
    let truth = TopKIndex::new(
        Arc::clone(&snap),
        &ServeConfig {
            item_block: 64,
            score: ScoreKind::Dot,
            ..Default::default()
        },
    );

    let aggressive = ApproxPolicy {
        epsilon: 0.9,
        max_blocks: 1,
        ..ApproxPolicy::default()
    };
    let service = TopKService::start(
        FactorSnapshot::from_factors_with_layout(x, theta, ItemLayout::NormDescending),
        service_config(Some(aggressive)),
    );
    let client = service.client();

    // Zero-norm user: every score is 0, the threshold pins at 0, and the
    // strict `bound < threshold` comparison never fires — full exact scan.
    let expect = truth.query_batch_stats(&[Query::new(0, 10)]).0.remove(0);
    let got = client.recommend(0, 10, &[]).unwrap();
    assert_eq!(got, expect, "zero-norm user must get exact results");
    assert_eq!(got.len(), 10);
    assert!(got.iter().all(|&(_, s)| s == 0.0));

    // k ≥ catalog: the heap never fills, so the whole catalog comes back
    // in exact order despite epsilon 0.9 and a 1-block budget.
    let expect = truth
        .query_batch_stats(&[Query::new(1, n + 50)])
        .0
        .remove(0);
    let got = client.recommend(1, n + 50, &[]).unwrap();
    assert_eq!(got.len(), n);
    assert_eq!(
        got, expect,
        "oversized k must return the full exact catalog"
    );
}
