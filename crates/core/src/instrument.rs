//! Trainer-side observability: wait-free latency histograms for the ALS
//! hot path, each declared once in `PHASES`.
//!
//! The paper's performance story lives in two phases of the per-row update
//! (equation (2)): assembling the Hermitian `A = Σ θ_v θ_vᵀ` (the
//! `get_hermitian` kernel) and solving the regularized system (the
//! `batch_solve` kernel).  [`TrainMetrics`] reports both **per row** from
//! inside [`crate::als::kernels::solve_rows`], plus whole
//! [`crate::als::kernels::solve_side`] calls and incremental fold-in batches
//! ([`crate::foldin::fold_in_users`], [`crate::foldin::fold_in_users_segmented`])
//! — giving the host-side analogue of the kernel split the simulator prices.
//! Each [`Phase`] is one row of `PHASES` (its exporter key and help text);
//! the report, the exporter and `Display` are loops over it, and
//! `train_rows_solved` is the assembly histogram's count, since a solved row
//! records exactly one assembly sample.
//!
//! Assembly is timed row by row.  The solve is not: up to four rows are
//! factored together, one per SIMD lane, so a row has no solve time of its
//! own.  A group's time outside its rows' assemblies — ridge, pack, factor,
//! substitute, write-back — is split **equally** over the rows in it
//! ([`TrainMetrics::record_group`]).  Counts and sums keep their meaning
//! (`train_rows_solved` rows, `train_solve_sum_ns` the time spent solving, to
//! under a nanosecond per row of integer division); a solve *sample* is a
//! row's share of a group, so the histogram's spread is that of groups.
//!
//! Recording is wait-free ([`cumf_obs::Histogram`] relaxed atomics), so the
//! rayon row loop stays embarrassingly parallel.  Every entry point takes
//! the sink as an `Option<&TrainMetrics>`: an uninstrumented call passes
//! `None` and pays no timing overhead at all.

use cumf_obs::{Exporter, Histogram, HistogramSnapshot, MetricValue};
use std::ops::Index;
use std::time::Duration;

/// Every training latency histogram; a [`TrainMetricsReport`] is indexed by
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Per-row Hermitian assembly (zeroing the row's system, gathering its
    /// ratings' `θ_v` bin by bin and `syr_axpy_bin` over each bin —
    /// `get_hermitian` in the paper).
    Assembly,
    /// Per-row ridge + Cholesky solve (`batch_solve` in the paper).
    Solve,
    /// Whole `solve_side` calls (one half-iteration each).
    SolveSide,
    /// Incremental fold-in batches (the serving-facing training path).
    FoldIn,
}

const PHASE_COUNT: usize = Phase::FoldIn as usize + 1;

/// The exporter key and help text of `train_rows_solved`, then of every
/// phase, in exporter order.
const ROWS_SOLVED: (&str, &str) = (
    "train_rows_solved",
    "non-empty rows solved across instrumented calls",
);
#[rustfmt::skip]
const PHASES: [(Phase, &str, &str); PHASE_COUNT] = [
    (Phase::Assembly, "train_assembly", "per-row Hermitian assembly latency"),
    (Phase::Solve, "train_solve", "per-row ridge + Cholesky solve latency"),
    (Phase::SolveSide, "train_solve_side", "whole solve_side call latency"),
    (Phase::FoldIn, "train_fold_in", "incremental fold-in batch latency"),
];

/// Latency histograms of the training hot path; shared by every engine a
/// [`crate::trainer::MatrixFactorizer`] builds.
///
/// All recording methods take `&self` and are wait-free, so one instance
/// can be shared across the rayon workers of a `solve_side` call.
#[derive(Debug, Default)]
pub struct TrainMetrics {
    phases: [Histogram; PHASE_COUNT],
}

impl TrainMetrics {
    /// A fresh, all-zero metrics sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one solved row: its Hermitian-assembly phase and its solve
    /// phase — for a row solved in a group, its equal share of the group's
    /// ([`Self::record_group`]).
    fn record_row(&self, assembly_ns: u64, solve_ns: u64) {
        self.phases[Phase::Assembly as usize].record_ns(assembly_ns);
        self.phases[Phase::Solve as usize].record_ns(solve_ns);
    }

    /// Records the rows of one group solved together: `assembly_ns[i]` is
    /// row `i`'s own assembly time and `group_ns` the group's whole time,
    /// first assembly to last write-back.  What the assemblies leave of it
    /// is the group's solve phase, split equally: each row records
    /// `(group_ns − Σ assembly_ns) / rows`, so the solve samples sum to the
    /// group's solve time less at most `rows − 1` ns.
    pub fn record_group(&self, assembly_ns: &[u64], group_ns: u64) {
        let solve_ns = group_ns.saturating_sub(assembly_ns.iter().sum());
        for &ns in assembly_ns {
            self.record_row(ns, solve_ns / assembly_ns.len() as u64);
        }
    }

    /// Records one whole `solve_side` call.
    pub(crate) fn record_solve_side(&self, elapsed: Duration) {
        self.phases[Phase::SolveSide as usize].record(elapsed);
    }

    /// Records one fold-in batch.
    pub(crate) fn record_fold_in(&self, elapsed: Duration) {
        self.phases[Phase::FoldIn as usize].record(elapsed);
    }

    /// A point-in-time snapshot of every histogram.
    pub fn report(&self) -> TrainMetricsReport {
        TrainMetricsReport {
            phases: std::array::from_fn(|i| self.phases[i].snapshot()),
        }
    }
}

/// Immutable snapshot of [`TrainMetrics`], indexed by [`Phase`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainMetricsReport {
    phases: [HistogramSnapshot; PHASE_COUNT],
}

impl Index<Phase> for TrainMetricsReport {
    type Output = HistogramSnapshot;

    fn index(&self, phase: Phase) -> &HistogramSnapshot {
        &self.phases[phase as usize]
    }
}

impl TrainMetricsReport {
    /// Non-empty rows solved: each records exactly one assembly sample.
    pub fn rows_solved(&self) -> u64 {
        self[Phase::Assembly].count()
    }

    /// The machine-readable view: `train_*` metrics for the
    /// Prometheus/JSON exporter, pinned in `crates/core/METRICS.txt`.
    pub fn exporter(&self) -> Exporter {
        let mut e = Exporter::new();
        let (key, help) = ROWS_SOLVED;
        e.push(key, help, MetricValue::Counter(self.rows_solved()));
        for (phase, key, help) in PHASES {
            e.push(key, help, MetricValue::Histogram(self[phase].clone()));
        }
        e
    }
}

/// `train_rows_solved`, then the percentile table of the phases.
impl std::fmt::Display for TrainMetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.exporter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reflects_recorded_rows_and_calls() {
        let m = TrainMetrics::new();
        for i in 1..=100u64 {
            m.record_row(i * 10, i * 5);
        }
        m.record_solve_side(Duration::from_micros(300));
        m.record_fold_in(Duration::from_micros(40));

        let r = m.report();
        assert_eq!(r.rows_solved(), 100);
        assert_eq!(r[Phase::Assembly].count(), 100);
        assert_eq!(r[Phase::Solve].count(), 100);
        assert_eq!(r[Phase::SolveSide].count(), 1);
        assert_eq!(r[Phase::FoldIn].count(), 1);
        assert_eq!(r[Phase::Assembly].max_ns(), 1000);
        assert_eq!(r[Phase::Solve].max_ns(), 500);
        // Assembly was recorded at exactly twice the solve duration per
        // row, so the exact sums keep that ratio.
        assert_eq!(r[Phase::Assembly].sum_ns(), 2 * r[Phase::Solve].sum_ns());
    }

    #[test]
    fn a_groups_solve_time_is_split_equally_over_its_rows() {
        let m = TrainMetrics::new();
        // 1 003 ns of which 650 assembling: 353 ns of solve over four rows
        // is 88 each, one nanosecond lost to the division.
        m.record_group(&[100, 200, 300, 50], 1_003);
        // A short group of one keeps its whole solve time.
        m.record_group(&[40], 90);
        let r = m.report();
        assert_eq!(r.rows_solved(), 5);
        assert_eq!(r[Phase::Assembly].count(), 5);
        assert_eq!(r[Phase::Solve].count(), 5);
        assert_eq!(r[Phase::Assembly].sum_ns(), 650 + 40);
        assert_eq!(r[Phase::Solve].sum_ns(), 4 * 88 + 50);
        assert_eq!(r[Phase::Solve].max_ns(), 88);
        // A clock that steps backwards cannot make a share negative.
        m.record_group(&[10, 10], 5);
        assert_eq!(m.report()[Phase::Solve].sum_ns(), 4 * 88 + 50);
    }

    #[test]
    fn exporter_emits_the_train_keys() {
        let m = TrainMetrics::new();
        m.record_row(1_000, 2_000);
        m.record_solve_side(Duration::from_micros(10));
        let json = m.report().exporter().to_json();
        for key in [
            "\"train_rows_solved\":1",
            "\"train_assembly_count\":1",
            "\"train_assembly_p50_ns\":",
            "\"train_solve_p99_ns\":",
            "\"train_solve_side_max_ns\":",
            "\"train_fold_in_count\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn display_prints_the_percentile_table() {
        let m = TrainMetrics::new();
        m.record_row(500, 700);
        let text = m.report().to_string();
        assert!(text
            .lines()
            .any(|l| l.split_whitespace().eq(["train_rows_solved", "1"])));
        for row in ["assembly", "solve", "solve_side", "fold_in"] {
            assert!(text.contains(row), "missing {row} row in:\n{text}");
        }
        assert!(text.contains("p99"));
    }

    #[test]
    fn concurrent_row_records_count_exactly() {
        let m = TrainMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1_000u64 {
                        m.record_row(i, i);
                    }
                });
            }
        });
        assert_eq!(m.report().rows_solved(), 4_000);
        assert_eq!(m.report()[Phase::Assembly].count(), 4_000);
    }
}
