//! # cumf-obs — observability substrate for cumf-rs
//!
//! The source paper's speedups were found with a profiler: the Hermitian
//! assembly was memory-bound, the factor transfers aliased, and the fixes
//! followed from *measuring where time went*.  This crate is the
//! reproduction's equivalent substrate — the serving tier and the trainer
//! both stamp their stage timings into it, and every later performance or
//! freshness claim in the roadmap is measured through it.
//!
//! Three small, dependency-free modules:
//!
//! * [`histogram`] — wait-free, log-bucketed HDR-style histograms
//!   ([`Histogram::record_ns`] from any thread, `quantile(p)` within
//!   6.25 %, exact counts/sums/max, mergeable, windowed diffing via
//!   [`HistogramSnapshot::since`]).
//! * [`span`] — per-request [`Trace`]s with origin-relative [`TraceEvent`]s, 1-in-N [`Sampler`] admission so hot
//!   paths stay allocation-free, and a ring-buffer [`TraceLog`] rendering
//!   JSONL.
//! * [`exporter`] — renders metric sets as Prometheus text, a flat JSON
//!   object with CI-assertable keys (`foo_p50_ns`, `foo_p99_ns`, …), or a
//!   human-readable `Display` (scalars, then one percentile table).

#![forbid(unsafe_code)]
pub mod exporter;
pub mod histogram;
pub mod span;
pub mod sync;

pub use exporter::{Exporter, MetricValue, EXPORT_QUANTILES};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS, SUB_BUCKET_BITS};
pub use span::{ns_between, Sampler, Trace, TraceEvent, TraceLog};
