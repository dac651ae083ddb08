//! Recall measurement: approximate retrieval scored against exact ground
//! truth on the same snapshot.
//!
//! "Approximate" is only trustworthy when the approximation is *measured*:
//! this module runs the same queries through an exact and an approximate
//! scan of one snapshot — the scan a [`crate::TopKIndex`] runs — and reports
//! recall@k plus the block-scan counters of each side.  The statistical
//! recall tests (`tests/serve_approx.rs`) and the ε = 0 identity check all
//! measure through it, so every epsilon→recall claim the tests make comes
//! from one code path.
//!
//! Recall@k here is set overlap: `|approx ∩ exact| / |exact|` per query,
//! where both sides are the item-id sets of the returned lists.  Scores are
//! deliberately ignored — early termination may drop a true top-k item, but
//! it never changes the score of an item it did return.

use crate::batcher::ServeConfig;
use crate::snapshot::FactorSnapshot;
use crate::topk::{Query, ScanPlan};
use cumf_linalg::{ApproxPolicy, PruneStats};

/// Outcome of one [`measure_recall`] run: per-query recall aggregates plus
/// both sides' block-scan counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallReport {
    /// Queries measured.
    pub queries: usize,
    /// Mean recall@k across queries (1.0 when there were none).
    pub mean_recall: f64,
    /// Worst single-query recall@k (1.0 when there were none).
    pub min_recall: f64,
    /// Queries whose approximate list matched the exact list item-for-item
    /// (same ids, same order).
    pub identical: usize,
    /// Block counters of the exact side.
    pub exact_stats: PruneStats,
    /// Block counters of the approximate side.
    pub approx_stats: PruneStats,
}

impl std::fmt::Display for RecallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recall@k over {} queries: mean {:.4}, min {:.4}, {} identical; \
             blocks scored exact {} vs approx {} ({} terminated)",
            self.queries,
            self.mean_recall,
            self.min_recall,
            self.identical,
            self.exact_stats.blocks_scored,
            self.approx_stats.blocks_scored,
            self.approx_stats.blocks_terminated,
        )
    }
}

/// Recall@k of one approximate result list against its exact ground truth:
/// `|approx ∩ exact| / |exact|` over item ids.  An empty exact list means
/// there was nothing to recall — that counts as 1.0, so out-of-range users
/// and `k = 0` queries do not drag an aggregate down.
pub(crate) fn recall_at_k(exact: &[(u32, f32)], approx: &[(u32, f32)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let truth: std::collections::HashSet<u32> = exact.iter().map(|&(v, _)| v).collect();
    let hit = approx.iter().filter(|&&(v, _)| truth.contains(&v)).count();
    hit as f64 / truth.len() as f64
}

/// Runs `queries` through an exact and a `policy`-approximate scan over the
/// same `snapshot` and aggregates recall@k.
///
/// Both sides take their index fields (`item_block`, `score`, `shards`,
/// `rerank_factor`) from `config` — the scan a [`crate::TopKIndex`] built from it
/// runs — and ignore `config.approx`: the exact side runs no policy and the
/// approximate side runs `policy`, so the *only* difference between the two
/// is the early-termination policy and the measured recall isolates
/// exactly what approximation costs.
///
/// # Panics
/// Panics if `config`'s index fields or `policy` fail validation (see
/// [`crate::TopKIndex::new`]).
pub fn measure_recall(
    snapshot: &FactorSnapshot,
    queries: &[Query],
    config: &ServeConfig,
    policy: &ApproxPolicy,
) -> RecallReport {
    let (exact_results, exact_stats) =
        ScanPlan::new(snapshot, config, None).query_batch_stats(snapshot, queries);
    let (approx_results, approx_stats) =
        ScanPlan::new(snapshot, config, Some(*policy)).query_batch_stats(snapshot, queries);
    report_from_lists(&exact_results, &approx_results, exact_stats, approx_stats)
}

/// Aggregates paired exact/approximate result lists into a
/// [`RecallReport`] — the measurement half of [`measure_recall`], usable
/// when the lists were produced elsewhere (e.g. through a live
/// [`crate::batcher::TopKService`] rather than bare indexes).
///
/// # Panics
/// Panics when the two sides disagree on the query count — pairing them
/// would silently misattribute recall.
pub fn report_from_lists(
    exact: &[Vec<(u32, f32)>],
    approx: &[Vec<(u32, f32)>],
    exact_stats: PruneStats,
    approx_stats: PruneStats,
) -> RecallReport {
    assert_eq!(
        exact.len(),
        approx.len(),
        "exact and approximate result counts differ"
    );
    let mut sum = 0.0f64;
    let mut min = 1.0f64;
    let mut identical = 0usize;
    for (e, a) in exact.iter().zip(approx) {
        let r = recall_at_k(e, a);
        sum += r;
        min = min.min(r);
        if e == a {
            identical += 1;
        }
    }
    let queries = exact.len();
    RecallReport {
        queries,
        mean_recall: if queries > 0 {
            sum / queries as f64
        } else {
            1.0
        },
        min_recall: min,
        identical,
        exact_stats,
        approx_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_linalg::FactorMatrix;

    #[test]
    fn recall_at_k_counts_set_overlap() {
        let exact = vec![(1, 3.0), (2, 2.0), (3, 1.0), (4, 0.5)];
        assert_eq!(recall_at_k(&exact, &exact), 1.0);
        // Order does not matter, only membership.
        let shuffled = vec![(4, 0.5), (3, 1.0), (2, 2.0), (1, 3.0)];
        assert_eq!(recall_at_k(&exact, &shuffled), 1.0);
        let half = vec![(1, 3.0), (3, 1.0)];
        assert_eq!(recall_at_k(&exact, &half), 0.5);
        assert_eq!(recall_at_k(&exact, &[]), 0.0);
        // Nothing to recall counts as perfect.
        assert_eq!(recall_at_k(&[], &half), 1.0);
    }

    #[test]
    fn report_aggregates_mean_min_and_identical() {
        let exact = vec![vec![(1, 2.0), (2, 1.0)], vec![(3, 2.0), (4, 1.0)]];
        let approx = vec![vec![(1, 2.0), (2, 1.0)], vec![(3, 2.0), (9, 1.0)]];
        let r = report_from_lists(
            &exact,
            &approx,
            PruneStats::default(),
            PruneStats::default(),
        );
        assert_eq!(r.queries, 2);
        assert_eq!(r.identical, 1);
        assert!(r.identical < r.queries);
        assert!((r.mean_recall - 0.75).abs() < 1e-12);
        assert!((r.min_recall - 0.5).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("mean 0.75"));
    }

    #[test]
    fn zero_queries_report_perfect_recall() {
        let r = report_from_lists(&[], &[], PruneStats::default(), PruneStats::default());
        assert_eq!(r.queries, 0);
        assert_eq!(r.mean_recall, 1.0);
        assert_eq!(r.min_recall, 1.0);
        assert_eq!(r.identical, r.queries);
    }

    #[test]
    fn measure_recall_is_perfect_and_identical_at_epsilon_zero() {
        let snap = FactorSnapshot::from_factors(
            FactorMatrix::random(16, 8, 1.0, 40),
            FactorMatrix::random(600, 8, 1.0, 41),
        );
        let queries: Vec<Query> = (0..16u32).map(|u| Query::new(u, 10)).collect();
        let config = ServeConfig {
            item_block: 64,
            score: crate::ScoreKind::Dot,
            shards: 2,
            ..Default::default()
        };
        let r = measure_recall(&snap, &queries, &config, &ApproxPolicy::exact());
        assert_eq!(r.queries, 16);
        assert_eq!(r.identical, r.queries, "epsilon 0 must be bit-identical");
        assert_eq!(r.mean_recall, 1.0);
        assert_eq!(r.min_recall, 1.0);
    }
}
