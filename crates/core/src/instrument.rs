//! Trainer-side observability: wait-free latency histograms for the ALS
//! hot path.
//!
//! The paper's performance story lives in two phases of the per-row update
//! (equation (2)): assembling the Hermitian `A = Σ θ_v θ_vᵀ` (the
//! `get_hermitian` kernel) and solving the regularized system (the
//! `batch_solve` kernel).  [`TrainMetrics`] reports both **per row** from
//! inside [`crate::als::kernels::solve_rows`], plus whole
//! [`crate::als::kernels::solve_side`] calls and incremental fold-in batches
//! ([`crate::foldin::fold_in_users`], [`crate::foldin::fold_in_users_segmented`])
//! — giving the host-side analogue of the kernel split the simulator prices.
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

use cumf_obs::{Exporter, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Latency histograms of the training hot path; shared by every engine a
/// [`crate::trainer::MatrixFactorizer`] builds.
///
/// All recording methods take `&self` and are wait-free, so one instance
/// can be shared across the rayon workers of a `solve_side` call.
#[derive(Debug, Default)]
pub struct TrainMetrics {
    /// Per-row Hermitian assembly (zeroing the row's system, gathering its
    /// ratings' `θ_v` bin by bin and `syr_axpy_bin` over each bin —
    /// `get_hermitian` in the paper).
    assembly: Histogram,
    /// Per-row ridge + Cholesky solve (`batch_solve` in the paper).
    solve: Histogram,
    /// Whole `solve_side` calls (one half-iteration each).
    solve_side: Histogram,
    /// Incremental fold-in batches (the serving-facing training path).
    fold_in: Histogram,
    /// Non-empty rows solved across all instrumented calls.
    rows_solved: AtomicU64,
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
        self.assembly.record_ns(assembly_ns);
        self.solve.record_ns(solve_ns);
        self.rows_solved.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic progress counter
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
        self.solve_side.record(elapsed);
    }

    /// Records one fold-in batch.
    pub(crate) fn record_fold_in(&self, elapsed: Duration) {
        self.fold_in.record(elapsed);
    }

    /// Non-empty rows solved so far.
    fn rows_solved(&self) -> u64 {
        self.rows_solved.load(Ordering::Relaxed) // relaxed-ok: monotonic progress counter read
    }

    /// A point-in-time snapshot of every histogram and counter.
    pub fn report(&self) -> TrainMetricsReport {
        TrainMetricsReport {
            rows_solved: self.rows_solved(),
            assembly: self.assembly.snapshot(),
            solve: self.solve.snapshot(),
            solve_side: self.solve_side.snapshot(),
            fold_in: self.fold_in.snapshot(),
        }
    }
}

/// Immutable snapshot of [`TrainMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainMetricsReport {
    /// Non-empty rows solved.
    pub rows_solved: u64,
    /// Per-row Hermitian assembly latency.
    pub assembly: HistogramSnapshot,
    /// Per-row solve latency.
    pub solve: HistogramSnapshot,
    /// Whole `solve_side` call latency.
    pub solve_side: HistogramSnapshot,
    /// Fold-in batch latency.
    pub fold_in: HistogramSnapshot,
}

impl TrainMetricsReport {
    /// The machine-readable view: `train_*` metrics for the
    /// Prometheus/JSON exporter.
    pub fn exporter(&self) -> Exporter {
        let mut e = Exporter::new();
        e.counter(
            "train_rows_solved",
            "non-empty rows solved across instrumented calls",
            self.rows_solved,
        )
        .histogram(
            "train_assembly",
            "per-row Hermitian assembly latency",
            self.assembly.clone(),
        )
        .histogram(
            "train_solve",
            "per-row ridge + Cholesky solve latency",
            self.solve.clone(),
        )
        .histogram(
            "train_solve_side",
            "whole solve_side call latency",
            self.solve_side.clone(),
        )
        .histogram(
            "train_fold_in",
            "incremental fold-in batch latency",
            self.fold_in.clone(),
        );
        e
    }
}

fn fmt_ns(ns: u64) -> String {
    format!("{:?}", Duration::from_nanos(ns))
}

impl std::fmt::Display for TrainMetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "rows solved: {}", self.rows_solved)?;
        writeln!(
            f,
            "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "phase", "p50", "p90", "p99", "max", "count"
        )?;
        for (name, h) in [
            ("assembly", &self.assembly),
            ("solve", &self.solve),
            ("solve_side", &self.solve_side),
            ("fold_in", &self.fold_in),
        ] {
            writeln!(
                f,
                "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>9}",
                name,
                fmt_ns(h.quantile(0.5)),
                fmt_ns(h.quantile(0.9)),
                fmt_ns(h.quantile(0.99)),
                fmt_ns(h.max_ns()),
                h.count()
            )?;
        }
        Ok(())
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
        assert_eq!(r.rows_solved, 100);
        assert_eq!(r.assembly.count(), 100);
        assert_eq!(r.solve.count(), 100);
        assert_eq!(r.solve_side.count(), 1);
        assert_eq!(r.fold_in.count(), 1);
        assert_eq!(r.assembly.max_ns(), 1000);
        assert_eq!(r.solve.max_ns(), 500);
        // Assembly was recorded at exactly twice the solve duration per
        // row, so the exact sums keep that ratio.
        assert_eq!(r.assembly.sum_ns(), 2 * r.solve.sum_ns());
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
        assert_eq!(r.rows_solved, 5);
        assert_eq!(r.assembly.count(), 5);
        assert_eq!(r.solve.count(), 5);
        assert_eq!(r.assembly.sum_ns(), 650 + 40);
        assert_eq!(r.solve.sum_ns(), 4 * 88 + 50);
        assert_eq!(r.solve.max_ns(), 88);
        // A clock that steps backwards cannot make a share negative.
        m.record_group(&[10, 10], 5);
        assert_eq!(m.report().solve.sum_ns(), 4 * 88 + 50);
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
        assert!(text.contains("rows solved: 1"));
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
        assert_eq!(m.rows_solved(), 4_000);
        assert_eq!(m.report().assembly.count(), 4_000);
    }
}
