//! # cumf-serve — batched, cached top-k retrieval over factor snapshots
//!
//! Training produces factors; traffic wants rankings.  This crate turns a
//! fitted [`cumf_core::trainer::MatrixFactorizer`]'s factors (or a saved
//! [`cumf_core::checkpoint::Checkpoint`]'s) into a production-shaped
//! retrieval service, reusing the paper's central trick — batch many small
//! independent problems into one regular blocked kernel — at serving time:
//!
//! * [`itemstore::ItemStore`] — the item factors Θ as block-aligned,
//!   `Arc`-shared **segments** (base + appended tails), each with its own
//!   precomputed norms and block-max pruning tables, optionally stored
//!   **norm-descending** ([`itemstore::ItemLayout`]) with an id remap on
//!   output so block pruning fires systematically; `compact()` folds tails
//!   back into one base.
//! * [`snapshot::FactorSnapshot`] — an immutable, generation-stamped view
//!   of the factors: `Arc`-shared copy-on-write user blocks over a
//!   segmented item store; [`snapshot::SnapshotStore`] hot-swaps snapshots
//!   (`Arc` pointer swap) so a retrain publishes under load without
//!   stalling in-flight batches, and
//!   [`snapshot::SnapshotStore::publish_delta`] publishes an incremental
//!   [`snapshot::SnapshotDelta`] copying only `O(u·f)` bytes for `u`
//!   changed users and `O(a·f)` (one tail segment) for `a` appended items.
//! * [`topk::TopKIndex`] — scores micro-batches of requests as blocked
//!   matrix-vector products, a tile of users at a time through
//!   [`cumf_linalg::scan_top_k`] (the one scan every retrieval runs), with a
//!   bounded heap per user and seen-item exclusion; the catalog's blocks —
//!   spanning every segment — can be partitioned into item **shards**
//!   scored in parallel and merged ([`cumf_linalg::merge_top_k`]) with
//!   bit-identical results, whole low-scoring blocks are skipped via
//!   norm-bound threshold pruning, and every skip/score decision is
//!   counted ([`cumf_linalg::PruneStats`]).
//! * [`batcher::TopKService`] — a pool of `workers` scorer threads
//!   coalescing concurrent requests into size- and deadline-bounded
//!   micro-batches (identical in-flight requests are scored once), fronted
//!   by a sharded, byte-budgeted LRU result cache
//!   ([`cache::ShardedResultCache`]) invalidated by snapshot generation
//!   and refreshed, per changed user, by delta publishes.
//!   A panicking worker fails its batch with
//!   [`batcher::ServeError::WorkerPanicked`] and restarts within the
//!   pool-wide [`batcher::ServeConfig::panic_budget`]; past the budget the
//!   pool poisons.  Item-appending deltas auto-compact past
//!   [`batcher::ServeConfig::max_item_segments`].
//! * [`metrics::ServeMetrics`] — one relaxed atomic per
//!   [`metrics::Counter`] (requests, cache hits and misses, swaps, worker
//!   panics, block-pruning and early-termination counts, the batch-size
//!   histogram, the queue-depth high-water mark, …) and one wait-free
//!   [`cumf_obs`] histogram per [`metrics::Latency`]: every pipeline
//!   [`metrics::Stage`] (queue-wait → coalesce → score → merge → reply,
//!   summing exactly to the end-to-end request latency), end to end,
//!   batch, publish, freshness and rerank.  Each metric is one row of a
//!   table that drives the report, the windowed since-last-poll report
//!   ([`metrics::ServeMetrics::window_report`]), the Prometheus/JSON
//!   [`metrics::MetricsReport::exporter`] (keys pinned in `METRICS.txt`)
//!   and `Display`.  1-in-N sampled per-request traces come from
//!   [`batcher::Tracer`] and [`batcher::TopKService::traces_jsonl`].
//! * **Approximate retrieval** — an opt-in
//!   [`cumf_linalg::ApproxPolicy`] (service-wide via
//!   [`batcher::ServeConfig::approx`], per request via
//!   [`batcher::ServeClient::recommend_approx`]) lets the scorer stop a
//!   norm-descending segment scan once the discounted Cauchy–Schwarz
//!   bound says nothing left can improve the heap by more than `epsilon`;
//!   requests under different policies never share a micro-batch or cache
//!   entry, and [`recall::measure_recall`] reports the measured
//!   recall@k/blocks-scanned tradeoff against exact ground truth.
//! * [`online::OnlineLoop`] — the **closed online loop**: drains
//!   time-ordered rating mini-batches from a
//!   [`cumf_data::stream::StreamBatcher`], updates the touched users
//!   incrementally (segment-aware fold-in,
//!   [`cumf_core::foldin::fold_in_users_segmented`] at an
//!   [`cumf_core::IncrementalEngine`]'s λ, or streaming SGD via
//!   [`cumf_core::sgd::SgdEngine::absorb`]) and publishes each batch as a
//!   [`snapshot::SnapshotDelta`] under live traffic, recording every
//!   rating's ingest→publish **freshness** into the `serve_freshness_*`
//!   histogram.
//!
//! ## Quick start
//!
//! ```
//! use cumf_core::config::AlsConfig;
//! use cumf_core::trainer::{Backend, MatrixFactorizer};
//! use cumf_data::synth::SyntheticConfig;
//! use cumf_serve::{FactorSnapshot, ServeConfig, TopKService};
//!
//! let data = SyntheticConfig { m: 200, n: 100, nnz: 4000, ..Default::default() }.generate();
//! let train = data.to_csr();
//! let mut model = MatrixFactorizer::new(
//!     AlsConfig { f: 8, iterations: 3, ..Default::default() },
//!     Backend::Reference,
//! );
//! model.fit(&train, &[]);
//!
//! let snapshot = FactorSnapshot::from_factors(model.x().clone(), model.theta().clone());
//! let service = TopKService::start(snapshot, ServeConfig::default());
//! let client = service.client();
//! let (seen, _) = train.row(0);
//! let recs = client.recommend(0, 10, seen).unwrap();
//! assert_eq!(recs.len(), 10);
//! assert!(recs.iter().all(|(item, _)| !seen.contains(item)));
//! ```

#![forbid(unsafe_code)]
pub mod batcher;
pub mod cache;
pub mod itemstore;
pub mod metrics;
pub mod online;
pub mod recall;
pub mod snapshot;
pub mod sync;
pub mod topk;

pub use batcher::{RequestMode, ServeClient, ServeConfig, ServeError, TopKService, Tracer};
pub use cache::{CacheKey, ResultCache, ShardedResultCache};
pub use cumf_linalg::{ApproxPolicy, PruneStats, DEFAULT_APPROX_EPSILON};
pub use cumf_obs::{Exporter, Histogram, HistogramSnapshot, Trace, TraceEvent};
pub use itemstore::{ItemLayout, ItemSegment, ItemStore};
pub use metrics::{Counter, Latency, MetricsReport, ServeMetrics, Stage, WindowedReport};
pub use online::{DeltaPublisher, OnlineLoop, OnlineLoopConfig, OnlineReport, StepOutcome};
pub use recall::{measure_recall, report_from_lists, RecallReport};
pub use snapshot::{
    DeltaError, DeltaStats, FactorSnapshot, SnapshotDelta, SnapshotStore, USER_COW_ROWS,
};
pub use topk::{Query, ScoreKind, TopKIndex};
