//! Lock-free serving metrics, each declared once in a table.
//!
//! A serve metric is one table row: `ROWS` holds the exporter key, help
//! text and window rule of every [`Counter`] and of every value derived
//! from the counts, and `LATENCIES` holds the key and help text of every
//! [`Latency`] histogram — the five pipeline [`Stage`]s, end to end, batch,
//! publish, freshness and rerank.  [`ServeMetrics`] keeps one relaxed
//! atomic per counter and one [`cumf_obs::Histogram`] per latency, so the
//! workers record on the hot path without locks; [`ServeMetrics::report`],
//! the window diff, [`MetricsReport::exporter`] and `Display` are each a
//! loop over the tables.  A new metric is its variant, its row and its
//! record site.
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
//! [`ServeMetrics::window_report`] returns both the **cumulative** report
//! and the **window** since the previous `window_report` call: counters
//! subtract and histograms diff bucket by bucket
//! ([`HistogramSnapshot::since`]), so a dashboard polling it sees a latency
//! spike clear.  A high-water mark (`serve_queue_depth_high_water`) stays
//! cumulative inside windows: a maximum has no meaningful difference.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use cumf_linalg::PruneStats;
use cumf_obs::{Exporter, Histogram, HistogramSnapshot, MetricValue};
use std::ops::Index;
use std::time::Duration;

/// Every stored serve count; a [`MetricsReport`] is indexed by it.  A
/// variant's exporter key and help text are its row of the `ROWS` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    Requests,
    Responses,
    CacheHits,
    CacheMisses,
    /// Cached replies of changed users re-scored on the publishing thread
    /// by a delta publish: not requests, so counted in neither hits nor
    /// misses, and their scans are not in the block or byte counters.
    CacheRefreshes,
    QueueDepthHighWater,
    SnapshotSwaps,
    /// A subset of `SnapshotSwaps`.
    DeltaPublishes,
    /// A subset of `SnapshotSwaps`.
    ItemCompactions,
    WorkerPanics,
    /// `WorkerPanics - WorkerRestarts` workers died for good.
    WorkerRestarts,
    BlocksScored,
    /// Skipped whole on the Cauchy–Schwarz norm bound: an exact skip that
    /// never changes results.
    BlocksPruned,
    /// Skipped by approximate early termination (epsilon slack or block
    /// budget), counted apart from `BlocksPruned` so the exact-pruning
    /// rate stays honest.
    BlocksTerminated,
    /// Requests scored or served from cache under an approximate policy.
    ApproxRequests,
    /// Encoded slab bytes (+ scale tables) of quantized segments, f32 rows
    /// of exact ones, plus the exact rows the rerank re-reads.
    BytesScanned,
    RerankCandidates,
    BatchItems,
    /// Batches of 1 request.  This and the next seven variants are the
    /// power-of-two batch-size histogram (1, 2–3, 4–7, …, ≥ 128), in order.
    BatchSize1,
    BatchSize2,
    BatchSize4,
    BatchSize8,
    BatchSize16,
    BatchSize32,
    BatchSize64,
    BatchSize128,
}

const COUNTERS: usize = Counter::BatchSize128 as usize + 1;

/// Every serve latency histogram; a [`MetricsReport`] is indexed by it.  A
/// variant's exporter key and help text are its row of the `LATENCIES`
/// table.  The first five are the [`Stage`]s, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    QueueWait,
    Coalesce,
    Score,
    Merge,
    Reply,
    RequestE2e,
    Batch,
    Publish,
    /// Stream-ingest instant → first snapshot publish reflecting the
    /// rating, recorded by [`crate::online::OnlineLoop`].
    Freshness,
    /// The exact-f32 rerank of quantized-scan candidates, inside the
    /// [`Stage::Score`] span; recorded only for batches that reranked.
    Rerank,
}

const LATENCY_COUNT: usize = Latency::Rerank as usize + 1;

/// The pipeline stages every served request passes through, in order.
/// Adjacent stages share boundary timestamps, so per request the stage
/// durations sum exactly to the end-to-end latency.  A stage's
/// discriminant is its [`Latency`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Enqueue into the batcher channel → popped by a worker.
    QueueWait = Latency::QueueWait as isize,
    /// Popped → the micro-batch is sealed (coalescing window).
    Coalesce = Latency::Coalesce as isize,
    /// Batch sealed → all top-k scoring done (cache lookups included).
    Score = Latency::Score as isize,
    /// Scoring done → per-request results distributed to reply slots and
    /// cached.
    Merge = Latency::Merge as isize,
    /// Results distributed → this request's reply handed to the channel.
    Reply = Latency::Reply as isize,
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

    /// Stable snake_case name (the trace stage name).
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

/// Where a row's value comes from, and what a window makes of it.
#[derive(Clone, Copy)]
enum Value {
    /// A stored count; a window reports its increase.
    Count(Counter),
    /// A stored high-water mark; a window reports it whole.
    HighWater(Counter),
    /// Computed from the rest of the report.
    Derived(fn(&MetricsReport) -> MetricValue),
}

use Value::{Count, Derived, HighWater};

/// One scalar metric: its key, help text and value, and whether
/// [`MetricsReport::exporter`] emits it (`Display` shows every row).
struct Row {
    key: &'static str,
    help: &'static str,
    value: Value,
    export: bool,
}

const fn exported(key: &'static str, help: &'static str, value: Value) -> Row {
    Row {
        key,
        help,
        value,
        export: true,
    }
}

const fn shown(key: &'static str, help: &'static str, value: Value) -> Row {
    Row {
        key,
        help,
        value,
        export: false,
    }
}

/// Every scalar serve metric, in exporter order.
#[rustfmt::skip]
const ROWS: [Row; 31] = [
    exported("serve_requests", "requests accepted by the batcher", Count(Counter::Requests)),
    exported("serve_responses", "replies delivered", Count(Counter::Responses)),
    exported("serve_cache_hits", "results served from cache", Count(Counter::CacheHits)),
    exported("serve_cache_misses", "results scored", Count(Counter::CacheMisses)),
    exported("serve_cache_refreshes", "cached replies re-scored by delta publishes", Count(Counter::CacheRefreshes)),
    exported("serve_batches", "micro-batches scored", Derived(|r| MetricValue::Counter(r.batches()))),
    exported("serve_cache_hit_rate", "hits / (hits + misses)", Derived(|r| MetricValue::Gauge(r.cache_hit_rate()))),
    exported("serve_mean_batch_size", "mean requests per micro-batch", Derived(|r| MetricValue::Gauge(r.mean_batch_size()))),
    exported("serve_queue_depth_high_water", "most requests ever simultaneously queued", HighWater(Counter::QueueDepthHighWater)),
    exported("serve_snapshot_swaps", "snapshot generations published", Count(Counter::SnapshotSwaps)),
    exported("serve_delta_publishes", "publications through the delta path", Count(Counter::DeltaPublishes)),
    exported("serve_item_compactions", "item-segment compaction republishes", Count(Counter::ItemCompactions)),
    exported("serve_worker_panics", "scoring panics caught", Count(Counter::WorkerPanics)),
    exported("serve_worker_restarts", "panicked workers restarted", Count(Counter::WorkerRestarts)),
    exported("serve_blocks_scored", "item blocks streamed and scored", Count(Counter::BlocksScored)),
    exported("serve_blocks_pruned", "item blocks skipped exactly", Count(Counter::BlocksPruned)),
    exported("serve_blocks_terminated", "item blocks skipped approximately", Count(Counter::BlocksTerminated)),
    exported("serve_approx_requests", "requests served under an approximate policy", Count(Counter::ApproxRequests)),
    exported("serve_bytes_scanned", "bytes streamed by the blocked scorer (encoded + rerank rows)", Count(Counter::BytesScanned)),
    exported("serve_rerank_candidates", "candidates rescored against exact f32 rows", Count(Counter::RerankCandidates)),
    shown("serve_pruned_block_rate", "share of visited blocks skipped exactly", Derived(|r| MetricValue::Gauge(r.block_share(Counter::BlocksPruned)))),
    shown("serve_terminated_block_rate", "share of visited blocks skipped approximately", Derived(|r| MetricValue::Gauge(r.block_share(Counter::BlocksTerminated)))),
    shown("serve_batch_items", "requests across all micro-batches", Count(Counter::BatchItems)),
    shown("serve_batch_size_1", "micro-batches of 1 request", Count(Counter::BatchSize1)),
    shown("serve_batch_size_2", "micro-batches of 2-3 requests", Count(Counter::BatchSize2)),
    shown("serve_batch_size_4", "micro-batches of 4-7 requests", Count(Counter::BatchSize4)),
    shown("serve_batch_size_8", "micro-batches of 8-15 requests", Count(Counter::BatchSize8)),
    shown("serve_batch_size_16", "micro-batches of 16-31 requests", Count(Counter::BatchSize16)),
    shown("serve_batch_size_32", "micro-batches of 32-63 requests", Count(Counter::BatchSize32)),
    shown("serve_batch_size_64", "micro-batches of 64-127 requests", Count(Counter::BatchSize64)),
    shown("serve_batch_size_128", "micro-batches of 128+ requests", Count(Counter::BatchSize128)),
];

/// Every serve latency histogram, in exporter order.
#[rustfmt::skip]
const LATENCIES: [(Latency, &str, &str); LATENCY_COUNT] = [
    (Latency::QueueWait, "serve_stage_queue_wait", "per-request queue_wait stage latency"),
    (Latency::Coalesce, "serve_stage_coalesce", "per-request coalesce stage latency"),
    (Latency::Score, "serve_stage_score", "per-request score stage latency"),
    (Latency::Merge, "serve_stage_merge", "per-request merge stage latency"),
    (Latency::Reply, "serve_stage_reply", "per-request reply stage latency"),
    (Latency::RequestE2e, "serve_request_e2e", "per-request end-to-end latency (enqueue to reply)"),
    (Latency::Batch, "serve_batch_latency", "per-micro-batch scoring wall time"),
    (Latency::Publish, "serve_delta_publish", "publisher-side snapshot/delta publish latency"),
    (Latency::Freshness, "serve_freshness", "rating ingest to first reflecting snapshot publish"),
    (Latency::Rerank, "serve_rerank", "per-batch exact-f32 rerank pass latency (inside Score)"),
];

/// Shared, lock-free serving counters and latency histograms.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    counters: [AtomicU64; COUNTERS],
    latencies: [Histogram; LATENCY_COUNT],
    /// Requests currently sitting in the batcher channel (a live gauge,
    /// not reported; its high-water mark is).
    queue_depth: AtomicU64,
    /// Baseline of the previous `window_report` call.
    window_baseline: Mutex<Option<MetricsReport>>,
}

impl ServeMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// Records one `latency` sample, in nanoseconds.
    pub(crate) fn record_ns(&self, latency: Latency, ns: u64) {
        self.latencies[latency as usize].record_ns(ns);
    }

    /// Records one `latency` sample.
    pub(crate) fn record(&self, latency: Latency, d: Duration) {
        self.latencies[latency as usize].record(d);
    }

    /// Records one coalesced micro-batch of `size` requests scored in
    /// `latency`.
    pub(crate) fn record_batch(&self, size: usize, latency: Duration) {
        self.add(Counter::BatchItems, size as u64);
        let bucket = (usize::BITS - 1 - size.max(1).leading_zeros()) as usize;
        let slot = (Counter::BatchSize1 as usize + bucket).min(Counter::BatchSize128 as usize);
        self.counters[slot].fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
        self.record(Latency::Batch, latency);
    }

    /// Records a request entering the batcher queue.  Call **before** the
    /// channel send: the worker's matching [`record_queue_exit`] can then
    /// only observe a depth its own message contributed to, so the gauge
    /// never underflows.
    ///
    /// [`record_queue_exit`]: ServeMetrics::record_queue_exit
    pub fn record_queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: atomic +1 keeps the gauge balanced; no payload is published through it
        let high_water = &self.counters[Counter::QueueDepthHighWater as usize];
        high_water.fetch_max(depth, Ordering::Relaxed); // relaxed-ok: monotonic max of this thread's own post-increment depth
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

    /// Records one batch's block-scan outcome: how many item blocks the
    /// scorer streamed, skipped exactly on the norm bound, and skipped by
    /// approximate early termination, plus the bytes it streamed and the
    /// candidates its rerank rescored.
    pub(crate) fn record_pruning(&self, stats: &PruneStats) {
        self.add(Counter::BlocksScored, stats.blocks_scored);
        self.add(Counter::BlocksPruned, stats.blocks_pruned);
        self.add(Counter::BlocksTerminated, stats.blocks_terminated);
        self.add(Counter::BytesScanned, stats.bytes_scanned);
        self.add(Counter::RerankCandidates, stats.rerank_candidates);
    }

    /// A point-in-time copy of every counter and histogram.  Cumulative
    /// since startup; see [`window_report`](ServeMetrics::window_report)
    /// for since-last-poll semantics.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            counters: std::array::from_fn(|i| {
                self.counters[i].load(Ordering::Relaxed) // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
            }),
            latencies: std::array::from_fn(|i| self.latencies[i].snapshot()),
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

/// Read-side copy of [`ServeMetrics`], indexed by [`Counter`] and
/// [`Latency`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    counters: [u64; COUNTERS],
    latencies: [HistogramSnapshot; LATENCY_COUNT],
}

impl Index<Counter> for MetricsReport {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.counters[counter as usize]
    }
}

impl Index<Latency> for MetricsReport {
    type Output = HistogramSnapshot;

    fn index(&self, latency: Latency) -> &HistogramSnapshot {
        &self.latencies[latency as usize]
    }
}

impl MetricsReport {
    /// The latency distribution of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.latencies[stage as usize]
    }

    /// Coalesced micro-batches scored (each records one batch latency).
    pub fn batches(&self) -> u64 {
        self[Latency::Batch].count()
    }

    /// Mean requests per micro-batch (`0.0` before the first).
    pub fn mean_batch_size(&self) -> f64 {
        ratio(self[Counter::BatchItems], self.batches())
    }

    /// `hits / (hits + misses)` (`0.0` before the first lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self[Counter::CacheHits];
        ratio(hits, hits + self[Counter::CacheMisses])
    }

    /// Mean scoring latency per micro-batch (exact: from the histogram's
    /// exact sum).
    pub fn mean_batch_latency(&self) -> Duration {
        Duration::from_nanos(
            self[Latency::Batch]
                .sum_ns()
                .checked_div(self.batches())
                .unwrap_or(0),
        )
    }

    /// Worst scoring latency of any micro-batch (exact in a cumulative
    /// report; bucket-bounded in a window).
    pub fn max_batch_latency(&self) -> Duration {
        Duration::from_nanos(self[Latency::Batch].max_ns())
    }

    /// The share of visited item blocks counted in `blocks` (`0.0` when
    /// nothing was visited).  Terminated blocks widen the exact-pruning
    /// denominator but never its numerator.
    fn block_share(&self, blocks: Counter) -> f64 {
        let visited = self[Counter::BlocksScored]
            + self[Counter::BlocksPruned]
            + self[Counter::BlocksTerminated];
        ratio(self[blocks], visited)
    }

    /// The activity between `baseline` and `self`, where `baseline` is an
    /// earlier report from the same [`ServeMetrics`].  Counters subtract;
    /// histograms diff bucket-by-bucket ([`HistogramSnapshot::since`]), so
    /// window quantiles and means are exact while window maxima are
    /// bucket-bounded.  High-water marks stay cumulative.
    fn since(&self, baseline: &MetricsReport) -> MetricsReport {
        let mut window = MetricsReport {
            counters: std::array::from_fn(|i| {
                self.counters[i].saturating_sub(baseline.counters[i])
            }),
            latencies: std::array::from_fn(|i| self.latencies[i].since(&baseline.latencies[i])),
        };
        for row in &ROWS {
            if let HighWater(counter) = row.value {
                window.counters[counter as usize] = self[counter];
            }
        }
        window
    }

    /// The table's rows as a metric set: the exported ones, or all of them.
    fn rows(&self, all: bool) -> Exporter {
        let mut e = Exporter::new();
        for row in ROWS.iter().filter(|row| all || row.export) {
            let value = match row.value {
                Count(counter) | HighWater(counter) => MetricValue::Counter(self[counter]),
                Derived(derive) => derive(self),
            };
            e.push(row.key, row.help, value);
        }
        for (latency, key, help) in LATENCIES {
            e.push(key, help, MetricValue::Histogram(self[latency].clone()));
        }
        e
    }

    /// Renders this report as a [`cumf_obs::Exporter`] metric set with
    /// stable `serve_*` names (`serve_stage_<name>` histograms expand to
    /// `serve_stage_<name>_p50_ns` etc. in the JSON rendering).  The keys
    /// are pinned in `crates/serve/METRICS.txt`.
    pub fn exporter(&self) -> Exporter {
        self.rows(false)
    }
}

/// `num / den`, or `0.0` when `den` is zero.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every row, exported or not, then the percentile table.
impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.rows(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value `Display` shows on `key`'s line.
    fn shown_value<'a>(text: &'a str, key: &str) -> &'a str {
        text.lines()
            .find_map(|line| {
                let mut words = line.split_whitespace();
                (words.next() == Some(key)).then(|| words.next().unwrap_or(""))
            })
            .unwrap_or_else(|| panic!("no {key} line in:\n{text}"))
    }

    /// How `Display` renders a latency.
    fn fmt_duration(ns: u64) -> String {
        format!("{:?}", Duration::from_nanos(ns))
    }

    #[test]
    fn batch_sizes_land_in_power_of_two_buckets() {
        let m = ServeMetrics::new();
        for size in [1usize, 2, 3, 4, 7, 8, 127, 128, 4096] {
            m.record_batch(size, Duration::from_micros(10));
        }
        let r = m.report();
        assert_eq!(r.batches(), 9);
        assert_eq!(r[Counter::BatchSize1], 1); // 1
        assert_eq!(r[Counter::BatchSize2], 2); // 2, 3
        assert_eq!(r[Counter::BatchSize4], 2); // 4, 7
        assert_eq!(r[Counter::BatchSize8], 1); // 8
        assert_eq!(r[Counter::BatchSize64], 1); // 127 → bucket 64..127
        assert_eq!(r[Counter::BatchSize128], 2); // 128 and 4096 clamp to last
    }

    #[test]
    fn rates_and_latencies_are_derived() {
        let m = ServeMetrics::new();
        for _ in 0..3 {
            m.add(Counter::Requests, 1);
            m.add(Counter::Responses, 1);
        }
        m.add(Counter::CacheHits, 1);
        m.add(Counter::CacheMisses, 1);
        m.add(Counter::CacheMisses, 1);
        m.record_batch(3, Duration::from_millis(2));
        m.record_batch(1, Duration::from_millis(4));
        m.add(Counter::SnapshotSwaps, 1);
        let r = m.report();
        assert_eq!(r[Counter::Requests], 3);
        assert!((r.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.mean_batch_size(), 2.0);
        assert_eq!(r.mean_batch_latency(), Duration::from_millis(3));
        assert_eq!(r.max_batch_latency(), Duration::from_millis(4));
        assert_eq!(r[Counter::SnapshotSwaps], 1);
    }

    #[test]
    fn empty_metrics_report_is_zeroed() {
        let r = ServeMetrics::new().report();
        assert_eq!(r[Counter::Requests], 0);
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.mean_batch_latency(), Duration::ZERO);
        assert_eq!(r[Latency::RequestE2e].count(), 0);
        assert_eq!(r[Counter::QueueDepthHighWater], 0);
    }

    #[test]
    fn stage_histograms_accumulate_and_export() {
        let m = ServeMetrics::new();
        for ns in [1_000u64, 2_000, 10_000] {
            m.record_ns(Latency::QueueWait, ns);
            m.record_ns(Latency::Score, ns * 2);
            m.record_ns(Latency::RequestE2e, ns * 3);
        }
        let r = m.report();
        assert_eq!(r.stage(Stage::QueueWait).count(), 3);
        assert_eq!(r.stage(Stage::Score).sum_ns(), 26_000);
        assert_eq!(r.stage(Stage::Coalesce).count(), 0);
        assert_eq!(r[Latency::RequestE2e].max_ns(), 30_000);
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
        m.add(Counter::Requests, 1);
        let first = m.window_report();
        assert_eq!(first.window.batches(), 1);
        assert_eq!(first.window[Counter::Requests], 1);
        assert_eq!(
            first.cumulative.max_batch_latency(),
            Duration::from_millis(50)
        );

        // Quiet window with one fast batch: the window max clears the
        // spike (bucket-bounded around 1 ms), the cumulative max does not.
        m.record_batch(1, Duration::from_millis(1));
        let second = m.window_report();
        assert_eq!(second.window.batches(), 1);
        assert_eq!(second.window[Counter::Requests], 0);
        assert!(second.window.max_batch_latency() <= Duration::from_micros(1100));
        assert_eq!(
            second.cumulative.max_batch_latency(),
            Duration::from_millis(50)
        );
        assert_eq!(second.cumulative.batches(), 2);

        // Idle window: everything zero.
        let third = m.window_report();
        assert_eq!(third.window.batches(), 0);
        assert_eq!(third.window[Latency::Batch].count(), 0);
        assert_eq!(third.window.mean_batch_latency(), Duration::ZERO);
    }

    #[test]
    fn every_metric_windows_exports_and_displays() {
        // Every storage slot gets its own value, recorded twice around a
        // window poll: the cumulative report carries twice it, the window
        // once (a high-water mark: twice, it stays cumulative).
        let counter_value = |i: usize| 1_000 + 7 * i as u64;
        let latency_ns = |i: usize| 10_000 * (i as u64 + 1);
        let m = ServeMetrics::new();
        let record = || {
            for (i, counter) in m.counters.iter().enumerate() {
                counter.fetch_add(counter_value(i), Ordering::Relaxed);
            }
            for (i, histogram) in m.latencies.iter().enumerate() {
                histogram.record_ns(latency_ns(i));
            }
        };
        record();
        let first = m.window_report();
        record();
        let WindowedReport { window, cumulative } = m.window_report();

        // Every counter and histogram has exactly one table row.
        let mut rows = [0; COUNTERS];
        for row in &ROWS {
            let (counter, high_water) = match row.value {
                Count(counter) => (counter, false),
                HighWater(counter) => (counter, true),
                Derived(_) => continue,
            };
            rows[counter as usize] += 1;
            let (key, v) = (row.key, counter_value(counter as usize));
            assert_eq!(cumulative[counter], 2 * v, "{key}");
            let diff = cumulative[counter] - first.cumulative[counter];
            let expect = if high_water { 2 * v } else { diff };
            assert_eq!((window[counter], diff), (expect, v), "{key} in the window");
        }
        assert_eq!(rows, [1; COUNTERS], "a counter lacks a row or has two");
        let latencies: Vec<usize> = LATENCIES.iter().map(|&(l, _, _)| l as usize).collect();
        assert_eq!(latencies, (0..LATENCY_COUNT).collect::<Vec<_>>());

        for i in 0..LATENCY_COUNT {
            let ns = latency_ns(i);
            let (c, w) = (&cumulative.latencies[i], &window.latencies[i]);
            assert_eq!((c.count(), c.sum_ns()), (2, 2 * ns), "latency {i}");
            assert_eq!(
                (w.count(), w.sum_ns()),
                (1, ns),
                "latency {i} in the window"
            );
            assert_eq!(*w, c.since(&first.cumulative.latencies[i]));
        }

        let json = cumulative.exporter().to_json();
        let text = cumulative.to_string();
        for row in &ROWS {
            let value = match row.value {
                Count(counter) | HighWater(counter) => cumulative[counter].to_string(),
                Derived(derive) => match derive(&cumulative) {
                    MetricValue::Counter(v) => v.to_string(),
                    MetricValue::Gauge(v) => format!("{v:.4}"),
                    MetricValue::Histogram(_) => unreachable!("rows are scalars"),
                },
            };
            assert_eq!(shown_value(&text, row.key), value, "{}", row.key);
            let exported = json.contains(&format!("\"{}\":", row.key));
            assert_eq!(exported, row.export, "{} in {json}", row.key);
        }
        for (latency, key, _) in LATENCIES {
            let count = format!("\"{key}_count\":{}", cumulative[latency].count());
            assert!(json.contains(&count), "missing {count} in {json}");
            assert_eq!(
                shown_value(&text, key),
                fmt_duration(cumulative[latency].quantile(0.5))
            );
        }
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
        assert_eq!(m.report()[Counter::QueueDepthHighWater], 3);
        m.record_queue_exit();
        m.record_queue_exit();
        m.record_queue_exit();
        assert_eq!(m.queue_depth(), 0);
        // The mark survives the drain.
        assert_eq!(m.report()[Counter::QueueDepthHighWater], 3);
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
        m.add(Counter::WorkerPanics, 1);
        m.add(Counter::WorkerRestarts, 1);
        m.add(Counter::ItemCompactions, 1);
        let r = m.report();
        assert_eq!(
            (r[Counter::BlocksScored], r[Counter::BlocksPruned]),
            (6, 10)
        );
        assert!((r.block_share(Counter::BlocksPruned) - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!(
            (r[Counter::WorkerPanics], r[Counter::WorkerRestarts]),
            (1, 1)
        );
        assert_eq!(r[Counter::ItemCompactions], 1);
        let empty = ServeMetrics::new().report();
        assert_eq!(empty.block_share(Counter::BlocksPruned), 0.0);
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
        m.add(Counter::ApproxRequests, 3);
        let r = m.report();
        assert_eq!(r[Counter::BlocksTerminated], 8);
        assert_eq!(r[Counter::ApproxRequests], 3);
        assert!((r.block_share(Counter::BlocksPruned) - 4.0 / 16.0).abs() < 1e-12);
        assert!((r.block_share(Counter::BlocksTerminated) - 8.0 / 16.0).abs() < 1e-12);
        let empty = ServeMetrics::new().report();
        assert_eq!(empty.block_share(Counter::BlocksTerminated), 0.0);
        let text = r.to_string();
        assert_eq!(shown_value(&text, "serve_blocks_terminated"), "8");
        assert_eq!(shown_value(&text, "serve_pruned_block_rate"), "0.2500");
        assert_eq!(shown_value(&text, "serve_approx_requests"), "3");
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
        m.record_ns(Latency::Rerank, 5_000);
        m.record_ns(Latency::Rerank, 9_000);
        let first = m.window_report();
        assert_eq!(first.cumulative[Counter::BytesScanned], 4096);
        assert_eq!(first.cumulative[Counter::RerankCandidates], 20);
        assert_eq!(first.cumulative[Latency::Rerank].count(), 2);
        assert_eq!(first.cumulative[Latency::Rerank].sum_ns(), 14_000);

        // The window diff subtracts counters and diffs the histogram.
        m.record_pruning(&PruneStats {
            bytes_scanned: 100,
            ..Default::default()
        });
        m.record_ns(Latency::Rerank, 1_000);
        let second = m.window_report();
        assert_eq!(second.window[Counter::BytesScanned], 100);
        assert_eq!(second.window[Counter::RerankCandidates], 0);
        assert_eq!(second.window[Latency::Rerank].count(), 1);

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
        assert_eq!(shown_value(&text, "serve_bytes_scanned"), "4196");
        assert_eq!(shown_value(&text, "serve_rerank_candidates"), "20");
        assert!(text.contains("rerank"));
    }

    #[test]
    fn cache_refreshes_flow_to_reports_exporter_and_display() {
        let m = ServeMetrics::new();
        m.add(Counter::CacheRefreshes, 3);
        let first = m.window_report();
        m.add(Counter::CacheRefreshes, 2);
        let second = m.window_report();
        assert_eq!(first.cumulative[Counter::CacheRefreshes], 3);
        assert_eq!(second.window[Counter::CacheRefreshes], 2);
        assert_eq!(second.cumulative[Counter::CacheRefreshes], 5);
        let json = second.cumulative.exporter().to_json();
        assert!(json.contains("\"serve_cache_refreshes\":5"), "{json}");
        let text = second.cumulative.to_string();
        assert_eq!(shown_value(&text, "serve_cache_refreshes"), "5");
    }

    #[test]
    fn display_is_humane() {
        let m = ServeMetrics::new();
        m.record_batch(2, Duration::from_micros(500));
        m.record_ns(Latency::Score, 250_000);
        m.record_ns(Latency::RequestE2e, 400_000);
        let text = m.report().to_string();
        assert_eq!(shown_value(&text, "serve_batches"), "1");
        assert!(text.contains("cache"));
        // The percentile table lists every stage plus e2e.
        for row in ["queue_wait", "coalesce", "score", "merge", "reply", "e2e"] {
            assert!(text.contains(row), "missing {row} row in:\n{text}");
        }
        assert!(text.contains("queue_depth_high_water"));
    }
}
