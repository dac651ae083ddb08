//! Lock-free serving metrics with per-stage latency histograms.
//!
//! Counters a production retrieval tier exports: request/response counts,
//! cache hit rate, a power-of-two micro-batch-size histogram (how well the
//! batcher coalesces), snapshot swaps — plus, since the observability
//! layer, full [`cumf_obs::Histogram`] latency distributions for every
//! pipeline [`Stage`] a request passes through and for the end-to-end
//! request latency itself.  All writers are relaxed atomics — the worker
//! records on the hot path without locks — and [`ServeMetrics::report`]
//! takes a coherent-enough snapshot for dashboards/tests.
//!
//! ## Stage partition
//!
//! The batcher stamps each request's journey so that, per request,
//!
//! ```text
//! e2e = queue_wait + coalesce + score + merge + reply    (exactly)
//! ```
//!
//! because adjacent stages share their boundary timestamps.  The serving
//! observability test pins this: the sum of stage means equals the e2e
//! mean up to float rounding.
//!
//! ## Windowed reports
//!
//! `batch_latency_ns_max` used to be cumulative-only, so a dashboard
//! polling [`report`](ServeMetrics::report) could never see a spike clear.
//! [`ServeMetrics::window_report`] returns both the **cumulative** report
//! and the **window** since the previous `window_report` call, diffed
//! bucket-by-bucket via [`HistogramSnapshot::since`].

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use cumf_linalg::PruneStats;
use cumf_obs::{Exporter, Histogram, HistogramSnapshot};
use std::time::Duration;

/// Number of histogram buckets: batch sizes `1, 2–3, 4–7, …, ≥128`.
pub const BATCH_SIZE_BUCKETS: usize = 8;

/// The pipeline stages every served request passes through, in order.
/// Adjacent stages share boundary timestamps, so per request the stage
/// durations sum exactly to the end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Enqueue into the batcher channel → popped by a worker.
    QueueWait = 0,
    /// Popped → the micro-batch is sealed (coalescing window).
    Coalesce = 1,
    /// Batch sealed → all top-k scoring done (cache lookups included).
    Score = 2,
    /// Scoring done → per-request results distributed to reply slots and
    /// cached.
    Merge = 3,
    /// Results distributed → this request's reply handed to the channel.
    Reply = 4,
}

/// Number of pipeline stages.
pub const STAGES: usize = 5;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::QueueWait,
        Stage::Coalesce,
        Stage::Score,
        Stage::Merge,
        Stage::Reply,
    ];

    /// Stable snake_case name (used in exporter keys and trace stages).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Coalesce => "coalesce",
            Stage::Score => "score",
            Stage::Merge => "merge",
            Stage::Reply => "reply",
        }
    }
}

/// Shared, lock-free serving counters and latency histograms.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: AtomicU64,
    responses: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_refreshes: AtomicU64,
    batches: AtomicU64,
    batch_items: AtomicU64,
    batch_size_hist: [AtomicU64; BATCH_SIZE_BUCKETS],
    /// Per-batch serve_batch wall time (exact sum/max live inside).
    batch_latency: Histogram,
    /// Per-request latency of each pipeline stage.
    stages: [Histogram; STAGES],
    /// Per-request end-to-end latency (enqueue → reply sent).
    request_e2e: Histogram,
    /// Publisher-observed snapshot/delta publish latency.
    publish_latency: Histogram,
    /// Rating-ingest instant → first snapshot whose results reflect it.
    freshness: Histogram,
    /// Per-batch exact-f32 rerank pass over quantized-scan candidates
    /// (recorded only when a rerank actually ran — all-f32 batches skip it).
    rerank: Histogram,
    /// Bytes streamed by the blocked scorer: encoded slab bytes (+ scale
    /// tables) for quantized segments, raw f32 bytes for exact ones, plus
    /// the exact rows the rerank re-reads.  The bytes/query numerator.
    bytes_scanned: AtomicU64,
    /// Candidates rescored against retained exact f32 rows by the rerank.
    rerank_candidates: AtomicU64,
    /// Requests currently sitting in the batcher channel.
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth` since startup.
    queue_depth_hwm: AtomicU64,
    snapshot_swaps: AtomicU64,
    delta_publishes: AtomicU64,
    item_compactions: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    blocks_scored: AtomicU64,
    blocks_pruned: AtomicU64,
    blocks_terminated: AtomicU64,
    approx_requests: AtomicU64,
    /// Baseline of the previous `window_report` call.
    window_baseline: Mutex<Option<MetricsReport>>,
}

impl ServeMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request entering the batcher.
    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records one reply sent.
    pub(crate) fn record_response(&self) {
        self.responses.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records a result served from the cache.
    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records a result that had to be scored.
    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records `n` cached replies re-scored by a delta publish.
    pub(crate) fn record_cache_refreshes(&self, n: u64) {
        self.cache_refreshes.fetch_add(n, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records one coalesced micro-batch of `size` requests scored in
    /// `latency`.
    pub(crate) fn record_batch(&self, size: usize, latency: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        self.batch_items.fetch_add(size as u64, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        let bucket = (usize::BITS - 1)
            .saturating_sub(size.max(1).leading_zeros())
            .min(BATCH_SIZE_BUCKETS as u32 - 1) as usize;
        self.batch_size_hist[bucket].fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        self.batch_latency.record(latency);
    }

    /// Records one request's time in `stage`, in nanoseconds.
    pub(crate) fn record_stage_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record_ns(ns);
    }

    /// Records one request's end-to-end latency (enqueue → reply sent).
    pub(crate) fn record_request_e2e_ns(&self, ns: u64) {
        self.request_e2e.record_ns(ns);
    }

    /// Records a request entering the batcher queue.  Call **before** the
    /// channel send: the worker's matching [`record_queue_exit`] can then
    /// only observe a depth its own message contributed to, so the gauge
    /// never underflows.
    ///
    /// [`record_queue_exit`]: ServeMetrics::record_queue_exit
    pub fn record_queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: atomic +1 keeps the gauge balanced; no payload is published through it
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed); // relaxed-ok: monotonic max of this thread's own post-increment depth
    }

    /// Records a request leaving the batcher queue (popped by a worker, or
    /// un-counts a failed send).
    pub fn record_queue_exit(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed); // relaxed-ok: the matching -1; atomicity alone keeps the gauge balanced
    }

    /// Requests currently queued (an instantaneous gauge).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed) // relaxed-ok: instantaneous gauge read, report-only
    }

    /// Records a snapshot hot-swap.
    pub(crate) fn record_swap(&self) {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records a swap that went through the incremental delta path (also
    /// counted in `snapshot_swaps`).
    pub(crate) fn record_delta_publish(&self) {
        self.delta_publishes.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records how long a snapshot/delta publication took from the
    /// publisher's point of view (build + swap, not reader visibility lag).
    pub(crate) fn record_publish_latency(&self, latency: Duration) {
        self.publish_latency.record(latency);
    }

    /// Records one rating's **freshness**: the wall time from the instant
    /// the rating was ingested from the stream to the instant the first
    /// snapshot generation reflecting it was published.  Serving traffic
    /// admitted after that publish sees the update, so this is the online
    /// loop's end-to-end staleness bound.
    pub(crate) fn record_freshness_ns(&self, ns: u64) {
        self.freshness.record_ns(ns);
    }

    /// Records an item-segment compaction republish (also counted in
    /// `snapshot_swaps`).
    pub(crate) fn record_item_compaction(&self) {
        self.item_compactions.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records a scorer worker panicking while scoring — the panicked batch
    /// was dropped; whether capacity was lost depends on the restart
    /// budget (`worker_restarts` counts the recoveries).
    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records a panicked worker resuming within its panic budget.
    pub(crate) fn record_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records one batch's block-scan outcome: how many item blocks the
    /// scorer streamed, skipped exactly on the norm bound, and skipped by
    /// approximate early termination.  Keeping the three counts separate is
    /// what keeps [`MetricsReport::pruned_block_rate`] truthful when exact
    /// and approximate traffic mix.
    pub(crate) fn record_pruning(&self, stats: &PruneStats) {
        self.blocks_scored
            .fetch_add(stats.blocks_scored, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        self.blocks_pruned
            .fetch_add(stats.blocks_pruned, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        self.blocks_terminated
            .fetch_add(stats.blocks_terminated, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        self.bytes_scanned
            .fetch_add(stats.bytes_scanned, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        self.rerank_candidates
            .fetch_add(stats.rerank_candidates, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records one batch's exact-f32 rerank pass wall time, in nanoseconds.
    /// The rerank runs **inside** the [`Stage::Score`] span (so the
    /// five-stage telescoping identity is untouched); this histogram breaks
    /// its cost out the way `serve_freshness` breaks out staleness.
    pub(crate) fn record_rerank_ns(&self, ns: u64) {
        self.rerank.record_ns(ns);
    }

    /// Records `n` requests scored under an approximate policy (cache hits
    /// of approximate entries included — the caller counts what it serves).
    pub(crate) fn record_approx_requests(&self, n: u64) {
        self.approx_requests.fetch_add(n, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// A point-in-time copy of all counters plus derived rates.  Cumulative
    /// since startup; see [`window_report`](ServeMetrics::window_report)
    /// for since-last-poll semantics.
    pub fn report(&self) -> MetricsReport {
        let requests = self.requests.load(Ordering::Relaxed); // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
        let hits = self.cache_hits.load(Ordering::Relaxed); // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
        let misses = self.cache_misses.load(Ordering::Relaxed); // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
        let batches = self.batches.load(Ordering::Relaxed); // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
        let batch_items = self.batch_items.load(Ordering::Relaxed); // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
        let batch_latency = self.batch_latency.snapshot();
        MetricsReport {
            requests,
            responses: self.responses.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            cache_hits: hits,
            cache_misses: misses,
            cache_refreshes: self.cache_refreshes.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            batches,
            batch_size_hist: std::array::from_fn(|i| {
                self.batch_size_hist[i].load(Ordering::Relaxed) // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            }),
            mean_batch_size: if batches > 0 {
                batch_items as f64 / batches as f64
            } else {
                0.0
            },
            batch_items,
            cache_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            mean_batch_latency: Duration::from_nanos(
                batch_latency.sum_ns().checked_div(batches).unwrap_or(0),
            ),
            max_batch_latency: Duration::from_nanos(batch_latency.max_ns()),
            batch_latency,
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            request_e2e: self.request_e2e.snapshot(),
            publish_latency: self.publish_latency.snapshot(),
            freshness: self.freshness.snapshot(),
            rerank: self.rerank.snapshot(),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            rerank_candidates: self.rerank_candidates.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            queue_depth_high_water: self.queue_depth_hwm.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            delta_publishes: self.delta_publishes.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            item_compactions: self.item_compactions.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            worker_panics: self.worker_panics.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            blocks_scored: self.blocks_scored.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            blocks_pruned: self.blocks_pruned.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            blocks_terminated: self.blocks_terminated.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            approx_requests: self.approx_requests.load(Ordering::Relaxed), // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
        }
    }

    /// Takes a cumulative report **and** the window since the previous
    /// `window_report` call (the whole history on the first call).  This is
    /// what a periodic poller should use: cumulative maxima never reset, so
    /// only the window shows a latency spike clearing.
    pub fn window_report(&self) -> WindowedReport {
        let cumulative = self.report();
        let mut baseline = self
            .window_baseline
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let window = match baseline.as_ref() {
            Some(prev) => cumulative.since(prev),
            None => cumulative.clone(),
        };
        *baseline = Some(cumulative.clone());
        WindowedReport { window, cumulative }
    }
}

/// A paired since-last-poll and since-startup report from
/// [`ServeMetrics::window_report`].
#[derive(Debug, Clone)]
pub struct WindowedReport {
    /// Activity since the previous `window_report` call.
    pub window: MetricsReport,
    /// Activity since startup.
    pub cumulative: MetricsReport,
}

/// Read-side copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Requests accepted by the batcher.
    pub requests: u64,
    /// Replies delivered.
    pub responses: u64,
    /// Results served from the cache.
    pub cache_hits: u64,
    /// Results scored against a snapshot.
    pub cache_misses: u64,
    /// Cached replies of changed users re-scored on the publishing thread
    /// by a delta publish (not requests: counted in neither hits nor
    /// misses, and their scans are not in the block or byte counters).
    pub cache_refreshes: u64,
    /// Coalesced micro-batches scored.
    pub batches: u64,
    /// Total requests across all micro-batches.
    pub batch_items: u64,
    /// Batch-size histogram (buckets `1, 2–3, 4–7, …, ≥128`).
    pub batch_size_hist: [u64; BATCH_SIZE_BUCKETS],
    /// Mean requests per micro-batch.
    pub mean_batch_size: f64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// Mean scoring latency per micro-batch (exact — from the histogram's
    /// exact sum).
    pub mean_batch_latency: Duration,
    /// Worst scoring latency of any micro-batch (exact in a cumulative
    /// report; bucket-bounded in a window).
    pub max_batch_latency: Duration,
    /// Full per-batch scoring latency distribution.
    pub batch_latency: HistogramSnapshot,
    /// Per-request latency distribution of each pipeline stage, indexed by
    /// `Stage as usize` (see [`MetricsReport::stage`]).
    pub stages: [HistogramSnapshot; STAGES],
    /// Per-request end-to-end latency distribution (enqueue → reply sent).
    pub request_e2e: HistogramSnapshot,
    /// Publisher-side snapshot/delta publish latency distribution.
    pub publish_latency: HistogramSnapshot,
    /// Rating freshness distribution: stream-ingest instant → first
    /// snapshot publish reflecting the rating (recorded by the online
    /// loop's [`crate::online::OnlineLoop`]).
    pub freshness: HistogramSnapshot,
    /// Per-batch exact-f32 rerank pass latency (inside the Score stage;
    /// recorded only for batches that actually reranked).
    pub rerank: HistogramSnapshot,
    /// Bytes streamed by the blocked scorer (encoded slab + scale tables
    /// for quantized segments, f32 rows for exact ones, plus the exact rows
    /// the rerank re-reads).
    pub bytes_scanned: u64,
    /// Candidates rescored against retained exact f32 rows by the rerank.
    pub rerank_candidates: u64,
    /// Most requests ever simultaneously queued in the batcher channel.
    pub queue_depth_high_water: u64,
    /// Snapshot generations published.
    pub snapshot_swaps: u64,
    /// Publications that went through the incremental delta path (a subset
    /// of `snapshot_swaps`).
    pub delta_publishes: u64,
    /// Item-segment compaction republishes (a subset of `snapshot_swaps`).
    pub item_compactions: u64,
    /// Scoring panics caught in workers (0 in a healthy service).
    pub worker_panics: u64,
    /// Panicked workers restarted within the panic budget (`worker_panics -
    /// worker_restarts` workers died for good).
    pub worker_restarts: u64,
    /// Item blocks streamed and scored by the blocked scorer.
    pub blocks_scored: u64,
    /// Item blocks skipped whole on the Cauchy–Schwarz norm bound — the
    /// pruning-effectiveness counter a norm-descending layout drives up.
    /// An **exact** decision; never changes results.
    pub blocks_pruned: u64,
    /// Item blocks skipped by approximate early termination (epsilon slack
    /// or block budget) — a result-affecting skip, counted apart from
    /// `blocks_pruned` so the exact-pruning rate stays honest.
    pub blocks_terminated: u64,
    /// Requests scored (or served from cache) under an approximate policy.
    pub approx_requests: u64,
}

impl MetricsReport {
    /// The latency distribution of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Fraction of visited item blocks skipped by **exact** threshold
    /// pruning (`0.0` when nothing was scored).  Terminated blocks widen
    /// the denominator but never the numerator.
    fn pruned_block_rate(&self) -> f64 {
        let total = self.blocks_scored + self.blocks_pruned + self.blocks_terminated;
        if total == 0 {
            0.0
        } else {
            self.blocks_pruned as f64 / total as f64
        }
    }

    /// Fraction of visited item blocks skipped by **approximate** early
    /// termination (`0.0` when nothing was scored).
    fn terminated_block_rate(&self) -> f64 {
        let total = self.blocks_scored + self.blocks_pruned + self.blocks_terminated;
        if total == 0 {
            0.0
        } else {
            self.blocks_terminated as f64 / total as f64
        }
    }

    /// The activity between `baseline` and `self`, where `baseline` is an
    /// earlier report from the same [`ServeMetrics`].  Counters subtract;
    /// histograms diff bucket-by-bucket ([`HistogramSnapshot::since`]), so
    /// window quantiles and means are exact while window maxima are
    /// bucket-bounded.  `queue_depth_high_water` stays cumulative (a
    /// high-water mark has no meaningful difference).
    fn since(&self, baseline: &MetricsReport) -> MetricsReport {
        let requests = self.requests.saturating_sub(baseline.requests);
        let hits = self.cache_hits.saturating_sub(baseline.cache_hits);
        let misses = self.cache_misses.saturating_sub(baseline.cache_misses);
        let batches = self.batches.saturating_sub(baseline.batches);
        let batch_items = self.batch_items.saturating_sub(baseline.batch_items);
        let batch_latency = self.batch_latency.since(&baseline.batch_latency);
        MetricsReport {
            requests,
            responses: self.responses.saturating_sub(baseline.responses),
            cache_hits: hits,
            cache_misses: misses,
            cache_refreshes: self
                .cache_refreshes
                .saturating_sub(baseline.cache_refreshes),
            batches,
            batch_items,
            batch_size_hist: std::array::from_fn(|i| {
                self.batch_size_hist[i].saturating_sub(baseline.batch_size_hist[i])
            }),
            mean_batch_size: if batches > 0 {
                batch_items as f64 / batches as f64
            } else {
                0.0
            },
            cache_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            mean_batch_latency: Duration::from_nanos(
                batch_latency.sum_ns().checked_div(batches).unwrap_or(0),
            ),
            max_batch_latency: Duration::from_nanos(batch_latency.max_ns()),
            batch_latency,
            stages: std::array::from_fn(|i| self.stages[i].since(&baseline.stages[i])),
            request_e2e: self.request_e2e.since(&baseline.request_e2e),
            publish_latency: self.publish_latency.since(&baseline.publish_latency),
            freshness: self.freshness.since(&baseline.freshness),
            rerank: self.rerank.since(&baseline.rerank),
            bytes_scanned: self.bytes_scanned.saturating_sub(baseline.bytes_scanned),
            rerank_candidates: self
                .rerank_candidates
                .saturating_sub(baseline.rerank_candidates),
            queue_depth_high_water: self.queue_depth_high_water,
            snapshot_swaps: self.snapshot_swaps.saturating_sub(baseline.snapshot_swaps),
            delta_publishes: self
                .delta_publishes
                .saturating_sub(baseline.delta_publishes),
            item_compactions: self
                .item_compactions
                .saturating_sub(baseline.item_compactions),
            worker_panics: self.worker_panics.saturating_sub(baseline.worker_panics),
            worker_restarts: self
                .worker_restarts
                .saturating_sub(baseline.worker_restarts),
            blocks_scored: self.blocks_scored.saturating_sub(baseline.blocks_scored),
            blocks_pruned: self.blocks_pruned.saturating_sub(baseline.blocks_pruned),
            blocks_terminated: self
                .blocks_terminated
                .saturating_sub(baseline.blocks_terminated),
            approx_requests: self
                .approx_requests
                .saturating_sub(baseline.approx_requests),
        }
    }

    /// Renders this report as a [`cumf_obs::Exporter`] metric set with
    /// stable `serve_*` names (`serve_stage_<name>` histograms expand to
    /// `serve_stage_<name>_p50_ns` etc. in the JSON rendering — the keys CI
    /// asserts on).
    pub fn exporter(&self) -> Exporter {
        let mut e = Exporter::new();
        e.counter(
            "serve_requests",
            "requests accepted by the batcher",
            self.requests,
        )
        .counter("serve_responses", "replies delivered", self.responses)
        .counter(
            "serve_cache_hits",
            "results served from cache",
            self.cache_hits,
        )
        .counter("serve_cache_misses", "results scored", self.cache_misses)
        .counter(
            "serve_cache_refreshes",
            "cached replies re-scored by delta publishes",
            self.cache_refreshes,
        )
        .counter("serve_batches", "micro-batches scored", self.batches)
        .gauge(
            "serve_cache_hit_rate",
            "hits / (hits + misses)",
            self.cache_hit_rate,
        )
        .gauge(
            "serve_mean_batch_size",
            "mean requests per micro-batch",
            self.mean_batch_size,
        )
        .counter(
            "serve_queue_depth_high_water",
            "most requests ever simultaneously queued",
            self.queue_depth_high_water,
        )
        .counter(
            "serve_snapshot_swaps",
            "snapshot generations published",
            self.snapshot_swaps,
        )
        .counter(
            "serve_delta_publishes",
            "publications through the delta path",
            self.delta_publishes,
        )
        .counter(
            "serve_item_compactions",
            "item-segment compaction republishes",
            self.item_compactions,
        )
        .counter(
            "serve_worker_panics",
            "scoring panics caught",
            self.worker_panics,
        )
        .counter(
            "serve_worker_restarts",
            "panicked workers restarted",
            self.worker_restarts,
        )
        .counter(
            "serve_blocks_scored",
            "item blocks streamed and scored",
            self.blocks_scored,
        )
        .counter(
            "serve_blocks_pruned",
            "item blocks skipped exactly",
            self.blocks_pruned,
        )
        .counter(
            "serve_blocks_terminated",
            "item blocks skipped approximately",
            self.blocks_terminated,
        )
        .counter(
            "serve_approx_requests",
            "requests served under an approximate policy",
            self.approx_requests,
        )
        .counter(
            "serve_bytes_scanned",
            "bytes streamed by the blocked scorer (encoded + rerank rows)",
            self.bytes_scanned,
        )
        .counter(
            "serve_rerank_candidates",
            "candidates rescored against exact f32 rows",
            self.rerank_candidates,
        );
        for stage in Stage::ALL {
            e.histogram(
                &format!("serve_stage_{}", stage.name()),
                &format!("per-request {} stage latency", stage.name()),
                self.stage(stage).clone(),
            );
        }
        e.histogram(
            "serve_request_e2e",
            "per-request end-to-end latency (enqueue to reply)",
            self.request_e2e.clone(),
        )
        .histogram(
            "serve_batch_latency",
            "per-micro-batch scoring wall time",
            self.batch_latency.clone(),
        )
        .histogram(
            "serve_delta_publish",
            "publisher-side snapshot/delta publish latency",
            self.publish_latency.clone(),
        )
        .histogram(
            "serve_freshness",
            "rating ingest to first reflecting snapshot publish",
            self.freshness.clone(),
        )
        .histogram(
            "serve_rerank",
            "per-batch exact-f32 rerank pass latency (inside Score)",
            self.rerank.clone(),
        );
        e
    }
}

/// Formats nanoseconds as a humane `Duration` debug string.
fn fmt_ns(ns: u64) -> String {
    format!("{:?}", Duration::from_nanos(ns))
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {}  responses: {}  batches: {}  mean batch {:.2}",
            self.requests, self.responses, self.batches, self.mean_batch_size
        )?;
        writeln!(
            f,
            "cache: {:.1}% hit ({} hit / {} miss)  swaps: {} ({} delta, {} compaction)  \
             worker panics: {} ({} restarted)",
            100.0 * self.cache_hit_rate,
            self.cache_hits,
            self.cache_misses,
            self.snapshot_swaps,
            self.delta_publishes,
            self.item_compactions,
            self.worker_panics,
            self.worker_restarts
        )?;
        writeln!(
            f,
            "cache refreshes: {} (changed users' replies re-scored at delta publish)",
            self.cache_refreshes
        )?;
        writeln!(
            f,
            "pruning: {} blocks scored, {} pruned ({:.1}% exact skip), \
             {} terminated ({:.1}% approx skip)  approx requests: {}",
            self.blocks_scored,
            self.blocks_pruned,
            100.0 * self.pruned_block_rate(),
            self.blocks_terminated,
            100.0 * self.terminated_block_rate(),
            self.approx_requests
        )?;
        writeln!(
            f,
            "scan: {} bytes streamed  rerank: {} candidates rescored",
            self.bytes_scanned, self.rerank_candidates
        )?;
        writeln!(
            f,
            "batch latency: mean {:?}  max {:?}",
            self.mean_batch_latency, self.max_batch_latency
        )?;
        writeln!(
            f,
            "batch sizes [1,2,4,8,16,32,64,128+]: {:?}",
            self.batch_size_hist
        )?;
        writeln!(f, "queue depth high-water: {}", self.queue_depth_high_water)?;
        writeln!(
            f,
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "stage", "p50", "p90", "p99", "max", "count"
        )?;
        let mut rows: Vec<(&str, &HistogramSnapshot)> = Stage::ALL
            .iter()
            .map(|&s| (s.name(), self.stage(s)))
            .collect();
        rows.push(("e2e", &self.request_e2e));
        rows.push(("batch", &self.batch_latency));
        rows.push(("publish", &self.publish_latency));
        rows.push(("freshness", &self.freshness));
        rows.push(("rerank", &self.rerank));
        for (name, h) in rows {
            writeln!(
                f,
                "{:<12} {:>10} {:>10} {:>10} {:>10} {:>8}",
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
    fn batch_sizes_land_in_power_of_two_buckets() {
        let m = ServeMetrics::new();
        for size in [1usize, 2, 3, 4, 7, 8, 127, 128, 4096] {
            m.record_batch(size, Duration::from_micros(10));
        }
        let r = m.report();
        assert_eq!(r.batches, 9);
        assert_eq!(r.batch_size_hist[0], 1); // 1
        assert_eq!(r.batch_size_hist[1], 2); // 2, 3
        assert_eq!(r.batch_size_hist[2], 2); // 4, 7
        assert_eq!(r.batch_size_hist[3], 1); // 8
        assert_eq!(r.batch_size_hist[6], 1); // 127 → bucket 64..127
        assert_eq!(r.batch_size_hist[7], 2); // 128 and 4096 clamp to last
    }

    #[test]
    fn rates_and_latencies_are_derived() {
        let m = ServeMetrics::new();
        for _ in 0..3 {
            m.record_request();
            m.record_response();
        }
        m.record_cache_hit();
        m.record_cache_miss();
        m.record_cache_miss();
        m.record_batch(3, Duration::from_millis(2));
        m.record_batch(1, Duration::from_millis(4));
        m.record_swap();
        let r = m.report();
        assert_eq!(r.requests, 3);
        assert!((r.cache_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.mean_batch_size, 2.0);
        assert_eq!(r.mean_batch_latency, Duration::from_millis(3));
        assert_eq!(r.max_batch_latency, Duration::from_millis(4));
        assert_eq!(r.snapshot_swaps, 1);
    }

    #[test]
    fn empty_metrics_report_is_zeroed() {
        let r = ServeMetrics::new().report();
        assert_eq!(r.requests, 0);
        assert_eq!(r.cache_hit_rate, 0.0);
        assert_eq!(r.mean_batch_latency, Duration::ZERO);
        assert_eq!(r.request_e2e.count(), 0);
        assert_eq!(r.queue_depth_high_water, 0);
    }

    #[test]
    fn stage_histograms_accumulate_and_export() {
        let m = ServeMetrics::new();
        for ns in [1_000u64, 2_000, 10_000] {
            m.record_stage_ns(Stage::QueueWait, ns);
            m.record_stage_ns(Stage::Score, ns * 2);
            m.record_request_e2e_ns(ns * 3);
        }
        let r = m.report();
        assert_eq!(r.stage(Stage::QueueWait).count(), 3);
        assert_eq!(r.stage(Stage::Score).sum_ns(), 26_000);
        assert_eq!(r.stage(Stage::Coalesce).count(), 0);
        assert_eq!(r.request_e2e.max_ns(), 30_000);
        let json = r.exporter().to_json();
        for key in [
            "\"serve_requests\":",
            "\"serve_stage_queue_wait_p50_ns\":",
            "\"serve_stage_queue_wait_p99_ns\":",
            "\"serve_stage_score_p99_ns\":",
            "\"serve_stage_coalesce_count\":0",
            "\"serve_request_e2e_p50_ns\":",
            "\"serve_request_e2e_max_ns\":30000",
            "\"serve_batch_latency_count\":",
            "\"serve_delta_publish_count\":",
            "\"serve_queue_depth_high_water\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let prom = r.exporter().to_prometheus();
        assert!(prom.contains("# TYPE serve_stage_score summary"));
        assert!(prom.contains("serve_request_e2e_count 3"));
    }

    #[test]
    fn windowed_report_resets_the_latency_view() {
        let m = ServeMetrics::new();
        m.record_batch(1, Duration::from_millis(50)); // the spike
        m.record_request();
        let first = m.window_report();
        assert_eq!(first.window.batches, 1);
        assert_eq!(first.window.requests, 1);
        assert_eq!(
            first.cumulative.max_batch_latency,
            Duration::from_millis(50)
        );

        // Quiet window with one fast batch: the window max clears the
        // spike (bucket-bounded around 1 ms), the cumulative max does not.
        m.record_batch(1, Duration::from_millis(1));
        let second = m.window_report();
        assert_eq!(second.window.batches, 1);
        assert_eq!(second.window.requests, 0);
        assert!(second.window.max_batch_latency <= Duration::from_micros(1100));
        assert_eq!(
            second.cumulative.max_batch_latency,
            Duration::from_millis(50)
        );
        assert_eq!(second.cumulative.batches, 2);

        // Idle window: everything zero.
        let third = m.window_report();
        assert_eq!(third.window.batches, 0);
        assert_eq!(third.window.batch_latency.count(), 0);
        assert_eq!(third.window.mean_batch_latency, Duration::ZERO);
    }

    #[test]
    fn queue_depth_tracks_the_high_water_mark() {
        let m = ServeMetrics::new();
        m.record_queue_enter();
        m.record_queue_enter();
        m.record_queue_enter();
        m.record_queue_exit();
        m.record_queue_enter();
        assert_eq!(m.queue_depth(), 3);
        assert_eq!(m.report().queue_depth_high_water, 3);
        m.record_queue_exit();
        m.record_queue_exit();
        m.record_queue_exit();
        assert_eq!(m.queue_depth(), 0);
        // The mark survives the drain.
        assert_eq!(m.report().queue_depth_high_water, 3);
    }

    #[test]
    fn pruning_and_supervisor_counters_accumulate() {
        let m = ServeMetrics::new();
        m.record_pruning(&PruneStats {
            blocks_scored: 6,
            blocks_pruned: 2,
            blocks_terminated: 0,
            ..Default::default()
        });
        m.record_pruning(&PruneStats {
            blocks_scored: 0,
            blocks_pruned: 8,
            blocks_terminated: 0,
            ..Default::default()
        });
        m.record_worker_panic();
        m.record_worker_restart();
        m.record_item_compaction();
        let r = m.report();
        assert_eq!((r.blocks_scored, r.blocks_pruned), (6, 10));
        assert!((r.pruned_block_rate() - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!((r.worker_panics, r.worker_restarts), (1, 1));
        assert_eq!(r.item_compactions, 1);
        assert_eq!(ServeMetrics::new().report().pruned_block_rate(), 0.0);
    }

    #[test]
    fn terminated_blocks_do_not_inflate_the_exact_pruning_rate() {
        // 4 scored + 4 pruned + 8 terminated: the exact skip rate must be
        // 4/16, not 12/16 — the display would otherwise credit approximate
        // truncation to the (result-preserving) norm bound.
        let m = ServeMetrics::new();
        m.record_pruning(&PruneStats {
            blocks_scored: 4,
            blocks_pruned: 4,
            blocks_terminated: 8,
            ..Default::default()
        });
        m.record_approx_requests(3);
        let r = m.report();
        assert_eq!(r.blocks_terminated, 8);
        assert_eq!(r.approx_requests, 3);
        assert!((r.pruned_block_rate() - 4.0 / 16.0).abs() < 1e-12);
        assert!((r.terminated_block_rate() - 8.0 / 16.0).abs() < 1e-12);
        assert_eq!(ServeMetrics::new().report().terminated_block_rate(), 0.0);
        let text = r.to_string();
        assert!(text.contains("8 terminated"));
        assert!(text.contains("approx requests: 3"));
    }

    #[test]
    fn rerank_and_bytes_scanned_flow_to_reports_and_exporter() {
        let m = ServeMetrics::new();
        m.record_pruning(&PruneStats {
            blocks_scored: 3,
            bytes_scanned: 4096,
            rerank_candidates: 20,
            ..Default::default()
        });
        m.record_rerank_ns(5_000);
        m.record_rerank_ns(9_000);
        let first = m.window_report();
        assert_eq!(first.cumulative.bytes_scanned, 4096);
        assert_eq!(first.cumulative.rerank_candidates, 20);
        assert_eq!(first.cumulative.rerank.count(), 2);
        assert_eq!(first.cumulative.rerank.sum_ns(), 14_000);

        // The window diff subtracts counters and diffs the histogram.
        m.record_pruning(&PruneStats {
            bytes_scanned: 100,
            ..Default::default()
        });
        m.record_rerank_ns(1_000);
        let second = m.window_report();
        assert_eq!(second.window.bytes_scanned, 100);
        assert_eq!(second.window.rerank_candidates, 0);
        assert_eq!(second.window.rerank.count(), 1);

        let json = second.cumulative.exporter().to_json();
        for key in [
            "\"serve_bytes_scanned\":4196",
            "\"serve_rerank_candidates\":20",
            "\"serve_rerank_count\":3",
            "\"serve_rerank_p50_ns\":",
            "\"serve_rerank_p99_ns\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = second.cumulative.to_string();
        assert!(text.contains("4196 bytes streamed"));
        assert!(text.contains("20 candidates rescored"));
        assert!(text.contains("rerank"));
    }

    #[test]
    fn cache_refreshes_flow_to_reports_exporter_and_display() {
        let m = ServeMetrics::new();
        m.record_cache_refreshes(3);
        let first = m.window_report();
        m.record_cache_refreshes(2);
        let second = m.window_report();
        assert_eq!(first.cumulative.cache_refreshes, 3);
        assert_eq!(second.window.cache_refreshes, 2);
        assert_eq!(second.cumulative.cache_refreshes, 5);
        let json = second.cumulative.exporter().to_json();
        assert!(json.contains("\"serve_cache_refreshes\":5"), "{json}");
        assert!(second.cumulative.to_string().contains("cache refreshes: 5"));
    }

    #[test]
    fn display_is_humane() {
        let m = ServeMetrics::new();
        m.record_batch(2, Duration::from_micros(500));
        m.record_stage_ns(Stage::Score, 250_000);
        m.record_request_e2e_ns(400_000);
        let text = m.report().to_string();
        assert!(text.contains("batches: 1"));
        assert!(text.contains("cache"));
        // The percentile table lists every stage plus e2e.
        for row in ["queue_wait", "coalesce", "score", "merge", "reply", "e2e"] {
            assert!(text.contains(row), "missing {row} row in:\n{text}");
        }
        assert!(text.contains("queue depth high-water"));
    }
}
