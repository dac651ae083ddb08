//! Request coalescing: many concurrent clients, a pool of blocked scorers.
//!
//! [`TopKService`] owns a pool of `workers` scorer threads fed by one MPMC
//! channel.  Each worker assembles micro-batches that are **size-bounded**
//! (`max_batch`) and **deadline-bounded** (`max_delay` from the first
//! request of the batch), the standard dynamic-batching policy of inference
//! servers: under load, batches fill instantly and scoring runs at full
//! blocked throughput on every worker; when idle, a lone request waits at
//! most `max_delay`.  A sharded result cache
//! ([`crate::cache::ShardedResultCache`]) sits behind the whole pool, so a
//! result scored by one worker is a cache hit for every other.
//!
//! Per batch the worker captures the current snapshot `Arc` **once** —
//! every request in the batch is answered from that generation, so a
//! concurrent [`TopKService::publish`] can never produce a mixed-generation
//! response.  Identical `(user, k, exclusions)` requests that coalesce into
//! the same micro-batch are **scored once** and fanned out to every waiter
//! (the duplicates count as cache hits).  Results are cached with the
//! generation stamped in; a full publish invalidates lazily through the
//! generation check, and a user-only delta publish re-scores the changed
//! users' cached replies on the publishing thread, so the cache stays warm.
//!
//! A panicking worker never fails silently: the panic is caught and its
//! message recorded, the batch it was scoring fails with
//! [`ServeError::WorkerPanicked`] carrying the original message — and then
//! a **supervisor policy** decides what happens to the worker.  Each panic
//! consumes one unit of the pool-wide [`ServeConfig::panic_budget`]; while
//! budget remains the worker resumes its loop (a restart: full capacity,
//! no dead thread, `worker_restarts` metric), and once the budget is
//! exhausted the original poison path applies — that worker exits for good
//! and [`TopKService::poisoned`] reports the cause.  Surviving workers
//! keep serving at reduced capacity (a health check should watch
//! `poisoned()`/`worker_panics`, not wait for requests to fail); only once
//! every worker has died does each request fail with the recorded cause.
//! A crash-looping scorer therefore degrades loudly instead of either
//! dying on the first transient or looping forever.

use crate::cache::{CacheKey, ShardedResultCache};
use crate::metrics::{MetricsReport, ServeMetrics, Stage, WindowedReport};
use crate::snapshot::{DeltaError, DeltaStats, FactorSnapshot, SnapshotDelta, SnapshotStore};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};
use crate::topk::{Query, ScanPlan, ScoreKind, DEFAULT_RERANK_FACTOR};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use cumf_linalg::topk::DEFAULT_ITEM_BLOCK;
use cumf_linalg::{ApproxPolicy, Precision, PruneStats};
use cumf_obs::{ns_between, Sampler, Trace, TraceLog};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`TopKService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Largest micro-batch a worker scores at once.
    pub max_batch: usize,
    /// Longest a batch waits for co-travellers after its first request.
    /// `Duration::MAX` sets no deadline: a batch seals at `max_batch`.
    pub max_delay: Duration,
    /// Scorer worker threads pulling micro-batches off the shared queue
    /// (clamped to at least 1).  One worker reproduces the single-threaded
    /// batcher; more workers scale scoring past one core's budget and keep
    /// serving while another worker is mid-batch.
    pub workers: usize,
    /// Item shards per scoring pass (see [`crate::TopKIndex::new`]):
    /// partitions Θ into contiguous shards scored in parallel and merged.
    /// Results are bit-identical for every value; > 1 buys parallelism for
    /// small batches over large catalogs.
    pub shards: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Result-cache byte budget: each entry is charged `k · 8` result bytes
    /// plus `4` per excluded item, so heavy-`k` / heavy-exclusion traffic
    /// evicts instead of growing memory without bound.  0 means no byte
    /// budget (entry capacity only).
    pub cache_budget_bytes: usize,
    /// Items scored per block (see [`cumf_linalg::batch_score_block`]).
    pub item_block: usize,
    /// Scoring function.
    pub score: ScoreKind,
    /// Depth of the request queue; senders block (back-pressure) when the
    /// workers fall this far behind.
    pub queue_depth: usize,
    /// Pool-wide scoring-panic budget: how many worker panics are absorbed
    /// by restarting the worker (capacity restored, `worker_restarts`
    /// metric) before the pool falls back to the poison path and stays
    /// degraded.  0 poisons on the first panic (the pre-supervisor
    /// behaviour).
    pub panic_budget: usize,
    /// Item-segment bound for automatic compaction: after an
    /// item-appending delta publish leaves the snapshot with more than this
    /// many segments, [`TopKService::compact_items`] runs inline (0 = never
    /// auto-compact).
    pub max_item_segments: usize,
    /// Service-wide retrieval policy: `None` (the default) scores every
    /// request exactly; `Some(policy)` lets the scorer terminate block
    /// scans early within the policy's epsilon/budget.  Individual requests
    /// override it ([`ServeClient::recommend_exact`],
    /// [`ServeClient::recommend_approx`]); requests under different
    /// effective policies never share a scoring micro-batch or a cache
    /// entry.
    pub approx: Option<ApproxPolicy>,
    /// Storage precision of the served item factors.  At startup (and on
    /// every full-snapshot [`TopKService::publish`]) the catalog is
    /// re-encoded to this precision; item-appending deltas re-encode their
    /// tails through [`crate::itemstore::ItemStore::append`].  Quantized
    /// precisions stream the compressed slab through the blocked scan and
    /// rescore the over-fetched candidates against retained exact f32 rows
    /// (see [`ServeConfig::rerank_factor`]); `F32` (the default) is
    /// bit-identical to the pre-quantization service.
    pub precision: Precision,
    /// Per-segment precision overrides `(segment index, precision)` applied
    /// on top of [`ServeConfig::precision`] when the catalog is re-encoded,
    /// so mixed catalogs work: a norm-descending store keeps its hot head
    /// segment (index 0) at `F32` while cold tail segments quantize to
    /// `I8`.  Indices past the snapshot's segment list are ignored.
    pub precision_overrides: Vec<(usize, Precision)>,
    /// Over-fetch margin of the quantized-scan rerank pass: heaps keep
    /// `ceil(k · rerank_factor)` candidates and the exact rescore truncates
    /// back to `k` (see [`crate::TopKIndex::new`]).  Ignored when every
    /// segment is exact f32.  Must be finite and ≥ 1.
    pub rerank_factor: f32,
    /// Trace one request in `trace_sample` (0 disables tracing, 1 traces
    /// everything).  Only sampled requests allocate a per-request
    /// [`Trace`]; everyone else pays one relaxed counter increment.
    pub trace_sample: u64,
    /// How many completed traces the in-memory ring buffer retains
    /// ([`TopKService::traces_jsonl`] drains the most recent window).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            workers: 1,
            shards: 1,
            cache_capacity: 4096,
            cache_budget_bytes: 16 << 20,
            item_block: DEFAULT_ITEM_BLOCK,
            score: ScoreKind::Dot,
            queue_depth: 1024,
            panic_budget: 2,
            max_item_segments: 8,
            approx: None,
            precision: Precision::F32,
            precision_overrides: Vec::new(),
            rerank_factor: DEFAULT_RERANK_FACTOR,
            trace_sample: 64,
            trace_capacity: 1024,
        }
    }
}

/// Sampled request tracing shared by every client and worker: a 1-in-N
/// [`Sampler`] decides at enqueue whether a request carries a [`Trace`];
/// the worker stamps the stage timings onto it and the completed trace
/// lands in a bounded ring ([`TraceLog`]).
#[derive(Debug)]
pub struct Tracer {
    sampler: Sampler,
    log: TraceLog,
    next_id: AtomicU64,
}

impl Tracer {
    fn new(sample: u64, capacity: usize) -> Self {
        Self {
            sampler: Sampler::new(sample),
            log: TraceLog::new(capacity),
            next_id: AtomicU64::new(0),
        }
    }

    /// Admission decision for one request (boxed so the unsampled hot path
    /// carries only a null-ish `Option`).
    fn begin(&self) -> Option<Box<Trace>> {
        // relaxed-ok: trace ids only need uniqueness, not order
        self.sampler
            .sample()
            .then(|| Box::new(Trace::begin(self.next_id.fetch_add(1, Ordering::Relaxed))))
    }

    /// Files a completed trace into the ring.
    fn finish(&self, trace: Trace) {
        self.log.push(trace);
    }

    /// The retained traces, oldest first.
    pub fn traces(&self) -> Vec<Trace> {
        self.log.snapshot()
    }

    /// The retained traces rendered as JSONL.
    fn to_jsonl(&self) -> String {
        self.log.to_jsonl()
    }
}

/// Per-request retrieval-mode override carried alongside the query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RequestMode {
    /// Score under the service-wide policy ([`ServeConfig::approx`]).
    #[default]
    Inherit,
    /// Force exact retrieval regardless of the service default.
    Exact,
    /// Force this approximate policy for this request only.
    Approx(ApproxPolicy),
}

impl RequestMode {
    /// The policy this request actually scores under, given the service
    /// default.  A policy that cannot change results (`epsilon = 0`, no
    /// budget) normalizes to `None`, so epsilon-zero traffic shares cache
    /// entries and micro-batches with exact traffic — their results are
    /// bit-identical by construction.
    fn effective(&self, service_default: &Option<ApproxPolicy>) -> Option<ApproxPolicy> {
        let policy = match self {
            RequestMode::Inherit => *service_default,
            RequestMode::Exact => None,
            RequestMode::Approx(p) => Some(*p),
        };
        policy.filter(|p| !p.is_exact())
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service was dropped; its workers have shut down cleanly.
    Shutdown,
    /// A scorer worker died to a panic (message attached) and this request
    /// can no longer be served.
    WorkerPanicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shutdown => f.write_str("serving workers have shut down"),
            ServeError::WorkerPanicked(msg) => {
                write!(f, "serving worker panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Pool lifecycle shared by the service handle, the workers, and every
/// client: a first-panic-wins panic record, the restart budget, the
/// poisoned flag (budget exhausted — permanently degraded), the live-worker
/// count, and the closed flag the drop path raises once every worker has
/// been joined.
///
/// The liveness flags exist because of a shutdown race inherent to the MPMC
/// queue: a request enqueued *after* the shutdown markers (or after the
/// last worker died to a panic) is never popped, so its client would block
/// on the reply channel forever.  Clients therefore wait with a timeout and
/// bail out as soon as the pool can no longer serve them.
#[derive(Debug, Default)]
struct PoolState {
    /// First panic message recorded, restarted or not — the cause attached
    /// to [`ServeError::WorkerPanicked`].
    panic: Mutex<Option<String>>,
    /// Restarts consumed so far out of [`ServeConfig::panic_budget`].
    restarts_used: AtomicUsize,
    /// Budget exhausted: a worker has died and stays dead.
    poisoned: AtomicBool,
    alive_workers: AtomicUsize,
    closed: AtomicBool,
}

impl PoolState {
    fn record_panic(&self, message: String) {
        let mut slot = self
            .panic
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if slot.is_none() {
            *slot = Some(message);
        }
    }

    fn panic_cause(&self) -> Option<String> {
        self.panic
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Consumes one restart from the budget; `false` once exhausted (the
    /// caller must take the poison path).
    fn try_restart(&self, budget: usize) -> bool {
        // ordering-ok: AcqRel CAS serializes restart claims; the Acquire
        // failure load sees the final count
        self.restarts_used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                (used < budget).then_some(used + 1)
            })
            .is_ok()
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release); // ordering-ok: Release publishes the verdict before is_poisoned()'s Acquire load
    }

    /// True once a worker has died for good (restart budget exhausted).
    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) // ordering-ok: pairs with poison()'s Release store
    }

    /// True once no worker can ever pop another request.
    fn dead(&self) -> bool {
        // ordering-ok: Acquire pairs with the Release writes in
        // close()/AliveGuard, so dead() implies no future pop
        self.closed.load(Ordering::Acquire) || self.alive_workers.load(Ordering::Acquire) == 0
    }
}

/// Decrements the live-worker count when a worker exits by any path —
/// including an unwind that somehow escapes the scoring guard.
struct AliveGuard<'a>(&'a PoolState);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.alive_workers.fetch_sub(1, Ordering::AcqRel); // ordering-ok: AcqRel orders the worker's final queue pop before dead() can observe zero
    }
}

/// How often a waiting client rechecks pool liveness.  Purely a bound on
/// how long a request stranded by a racing shutdown waits; replies that
/// arrive wake the client immediately.
const LIVENESS_POLL: Duration = Duration::from_millis(25);

/// Best-effort text of a panic payload (`panic!` with a string or format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

struct Request {
    query: Query,
    mode: RequestMode,
    reply: Sender<Vec<(u32, f32)>>,
    /// When the client handed this request to the channel — the start of
    /// the queue-wait stage and of the end-to-end clock.
    enqueued_at: Instant,
    /// Present iff the sampler admitted this request at enqueue.
    trace: Option<Box<Trace>>,
}

/// A request plus the instant a worker popped it off the queue (the
/// queue-wait / coalesce stage boundary).
struct Popped {
    request: Request,
    popped_at: Instant,
}

enum Msg {
    Request(Request),
    /// Sent once per worker by [`TopKService::drop`]; a worker finishes the
    /// batch in hand and exits even while client handles are still alive.
    Shutdown,
}

/// Test-only fault injection: a predicate that makes the scorer panic on
/// matching queries, standing in for data-dependent scoring bugs the
/// supervisor must survive.  Always `None` in production (not reachable
/// from the public constructors' config).
type FaultHook = Arc<dyn Fn(&Query) -> bool + Send + Sync>;

/// A batched, cached top-k retrieval service over hot-swappable snapshots.
pub struct TopKService {
    tx: Option<Sender<Msg>>,
    store: Arc<SnapshotStore>,
    metrics: Arc<ServeMetrics>,
    cache: Arc<ShardedResultCache>,
    state: Arc<PoolState>,
    tracer: Arc<Tracer>,
    workers: Vec<JoinHandle<()>>,
    /// The service's configuration: the serving precision re-applied to
    /// every published full snapshot, the auto-compaction bound, and the
    /// index fields a delta publish re-scores cached replies with.
    config: ServeConfig,
}

/// Re-encodes `snapshot`'s catalog to the configured serving precision:
/// the store-wide default first (which future appends inherit), then any
/// per-segment overrides (hot head at f32, cold tails at i8).  Segments
/// already at their target are `Arc`-shared, so re-publishing an
/// already-encoded snapshot copies nothing.
fn encode_to_serving_precision(
    snapshot: FactorSnapshot,
    precision: Precision,
    overrides: &[(usize, Precision)],
) -> FactorSnapshot {
    if overrides.is_empty() && snapshot.items().precision() == precision {
        return snapshot;
    }
    let mut out = snapshot.reencoded(precision);
    if !overrides.is_empty() {
        out = out.reencoded_with(|i, seg| {
            overrides
                .iter()
                .find(|(j, _)| *j == i)
                .map_or_else(|| seg.precision(), |&(_, p)| p)
        });
    }
    out
}

/// Scores each `(policy, query)` against `snapshot`, policy group by policy
/// group: exact and approximate requests (or two different epsilons) score
/// as separate micro-batches, each against a plan carrying its own policy.
/// The group count is bounded by the distinct policies among the queries —
/// almost always 1 or 2.  Returns the replies in input order and the summed
/// pruning counts.
fn score_by_policy<'q>(
    snapshot: &FactorSnapshot,
    config: &ServeConfig,
    queries: impl Iterator<Item = (Option<ApproxPolicy>, &'q Query)>,
) -> (Vec<Vec<(u32, f32)>>, PruneStats) {
    let mut groups: Vec<(Option<ApproxPolicy>, Vec<usize>, Vec<Query>)> = Vec::new();
    for (i, (policy, query)) in queries.enumerate() {
        match groups.iter_mut().find(|(p, _, _)| *p == policy) {
            Some((_, members, group)) => {
                members.push(i);
                group.push(query.clone());
            }
            None => groups.push((policy, vec![i], vec![query.clone()])),
        }
    }
    let n = groups.iter().map(|(_, members, _)| members.len()).sum();
    let mut results: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
    let mut prune = PruneStats::default();
    for (policy, members, group) in groups {
        let (group_results, group_prune) =
            ScanPlan::new(snapshot, config, policy).query_batch_stats(snapshot, &group);
        prune.merge(&group_prune);
        for (i, result) in members.into_iter().zip(group_results) {
            results[i] = result;
        }
    }
    (results, prune)
}

impl TopKService {
    /// Starts `config.workers` scorer workers serving `initial` under
    /// `config`.
    pub fn start(initial: FactorSnapshot, config: ServeConfig) -> Self {
        Self::start_with_fault(initial, config, None)
    }

    fn start_with_fault(
        initial: FactorSnapshot,
        config: ServeConfig,
        fault: Option<FaultHook>,
    ) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        let n_workers = config.workers.max(1);
        let initial =
            encode_to_serving_precision(initial, config.precision, &config.precision_overrides);
        // Every batch builds its plan from `config`: building one here
        // rejects bad index fields before a worker could panic on them.
        let _ = ScanPlan::new(&initial, &config, config.approx);
        let store = Arc::new(SnapshotStore::new(initial));
        let metrics = Arc::new(ServeMetrics::new());
        let state = Arc::new(PoolState::default());
        state.alive_workers.store(n_workers, Ordering::Release); // ordering-ok: publishes the worker count before any AliveGuard can decrement it
        let budget = if config.cache_budget_bytes == 0 {
            usize::MAX
        } else {
            config.cache_budget_bytes
        };
        let cache = Arc::new(ShardedResultCache::new(
            n_workers,
            config.cache_capacity,
            budget,
        ));
        cache.publish(store.generation());
        let (tx, rx) = bounded::<Msg>(config.queue_depth.max(1));
        let tracer = Arc::new(Tracer::new(config.trace_sample, config.trace_capacity));
        let workers = (0..n_workers)
            .map(|_| {
                let rx = rx.clone();
                let store = Arc::clone(&store);
                let metrics = Arc::clone(&metrics);
                let cache = Arc::clone(&cache);
                let state = Arc::clone(&state);
                let tracer = Arc::clone(&tracer);
                let config = config.clone();
                let fault = fault.clone();
                std::thread::spawn(move || {
                    let _alive = AliveGuard(&state);
                    Self::worker_loop(
                        &rx, &store, &metrics, &cache, &state, &tracer, &config, &fault,
                    )
                })
            })
            .collect();
        Self {
            tx: Some(tx),
            store,
            metrics,
            cache,
            state,
            tracer,
            workers,
            config,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        rx: &Receiver<Msg>,
        store: &SnapshotStore,
        metrics: &ServeMetrics,
        cache: &ShardedResultCache,
        state: &PoolState,
        tracer: &Tracer,
        config: &ServeConfig,
        fault: &Option<FaultHook>,
    ) {
        // Stamps the queue-exit instant (the queue-wait / coalesce stage
        // boundary) and un-counts the request from the queue-depth gauge.
        let pop = |request: Request| {
            metrics.record_queue_exit();
            Popped {
                request,
                popped_at: Instant::now(),
            }
        };
        let mut shutdown = false;
        while !shutdown {
            // Block for the batch's first request.
            let first = match rx.recv() {
                Ok(Msg::Request(r)) => pop(r),
                Ok(Msg::Shutdown) | Err(_) => return,
            };
            let mut batch = vec![first];
            // A `max_delay` too long to add to an instant (`Duration::MAX`)
            // has no deadline: the batch waits until it holds `max_batch`.
            let deadline = Instant::now().checked_add(config.max_delay);
            while batch.len() < config.max_batch {
                let left = match deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        deadline - now
                    }
                    None => Duration::MAX,
                };
                match rx.recv_timeout(left) {
                    Ok(Msg::Request(r)) => batch.push(pop(r)),
                    Ok(Msg::Shutdown) => {
                        shutdown = true;
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // Serve what was coalesced, even on the way out.  A panic while
            // scoring must not vanish into the thread: record the message
            // *and* the supervisor's verdict before the batch (and its
            // reply channels) drops, so waiters waking to a closed channel
            // already see the cause, the restart count and `poisoned()`.
            // The panicked batch itself always fails — the supervisor policy
            // only decides whether the *worker* survives: within the
            // pool-wide panic budget it resumes the loop (a restart); once
            // the budget is spent it takes the original poison path and the
            // pool stays degraded.
            let scored = catch_unwind(AssertUnwindSafe(|| {
                Self::serve_batch(&mut batch, store, metrics, cache, tracer, config, fault)
            }));
            if let Err(payload) = scored {
                state.record_panic(panic_message(payload.as_ref()));
                metrics.record_worker_panic();
                let restart = state.try_restart(config.panic_budget);
                if restart {
                    metrics.record_worker_restart();
                } else {
                    state.poison();
                }
                drop(batch); // only now fail this batch's waiters
                if !restart {
                    return;
                }
            }
        }
    }

    /// Stamps one finished request's stage timings, end-to-end latency, and
    /// (if sampled) its trace.  Adjacent stages share the phase instants
    /// `sealed ≤ scored ≤ merged ≤ replied`, so per request
    /// `queue_wait + coalesce + score + merge + reply = e2e` **exactly** —
    /// the identity the observability test pins.  Cache hits pass
    /// `sealed` for `scored`/`merged` (their score and merge stages are
    /// zero-width by construction).
    fn finish_request(
        popped: &mut Popped,
        metrics: &ServeMetrics,
        tracer: &Tracer,
        sealed: Instant,
        scored: Instant,
        merged: Instant,
        replied: Instant,
    ) {
        let enqueued = popped.request.enqueued_at;
        let popped_at = popped.popped_at;
        metrics.record_stage_ns(Stage::QueueWait, ns_between(enqueued, popped_at));
        metrics.record_stage_ns(Stage::Coalesce, ns_between(popped_at, sealed));
        metrics.record_stage_ns(Stage::Score, ns_between(sealed, scored));
        metrics.record_stage_ns(Stage::Merge, ns_between(scored, merged));
        metrics.record_stage_ns(Stage::Reply, ns_between(merged, replied));
        metrics.record_request_e2e_ns(ns_between(enqueued, replied));
        if let Some(mut trace) = popped.request.trace.take() {
            trace.event_between(Stage::QueueWait.name(), enqueued, popped_at);
            trace.event_between(Stage::Coalesce.name(), popped_at, sealed);
            trace.event_between(Stage::Score.name(), sealed, scored);
            trace.event_between(Stage::Merge.name(), scored, merged);
            trace.event_between(Stage::Reply.name(), merged, replied);
            tracer.finish(*trace);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_batch(
        batch: &mut [Popped],
        store: &SnapshotStore,
        metrics: &ServeMetrics,
        cache: &ShardedResultCache,
        tracer: &Tracer,
        config: &ServeConfig,
        fault: &Option<FaultHook>,
    ) {
        // The batch is sealed: coalescing ends here for every member.
        let sealed = Instant::now();
        if let Some(fault) = fault {
            if let Some(p) = batch.iter().find(|p| fault(&p.request.query)) {
                panic!("injected fault on user {}", p.request.query.user);
            }
        }
        // One snapshot per batch: the no-mixed-generations invariant.
        let snapshot = store.load();
        let generation = snapshot.generation();
        // Stamped into every cache key: a re-encoded snapshot keeps its
        // generation, so precision needs its own discriminator.
        let precision = snapshot.items().precision().code();

        // Keys are built once per request and carried through to the insert
        // after scoring — hashing a heavy user's exclusion list is not free.
        // Identical keys within the batch collapse onto one slot: the first
        // occurrence is the scored one, later ones just wait for its result
        // (in-flight dedupe; the duplicates count as cache hits).  The key
        // carries the request's effective retrieval policy, so an exact
        // request can never be answered by an approximate result — not from
        // the cache and not by riding along on a deduped slot.
        let policies: Vec<Option<ApproxPolicy>> = batch
            .iter()
            .map(|p| p.request.mode.effective(&config.approx))
            .collect();
        let mut pending: HashMap<CacheKey, usize> = HashMap::new();
        let mut slots: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, popped) in batch.iter_mut().enumerate() {
            let req = &popped.request;
            metrics.record_request();
            let key = match &policies[i] {
                None => CacheKey::new(req.query.user, req.query.k, &req.query.exclude),
                Some(p) => {
                    metrics.record_approx_requests(1);
                    CacheKey::new_approx(
                        req.query.user,
                        req.query.k,
                        &req.query.exclude,
                        p.epsilon,
                        p.max_blocks,
                    )
                }
            }
            .with_precision(precision);
            if let Some(hit) = cache.get(&key, generation) {
                metrics.record_cache_hit();
                // Counted (and stage-stamped) before the send: the client
                // may observe its reply — and a test may read the metrics —
                // immediately after.  The reply stage therefore measures up
                // to the hand-off, not the channel send itself.
                metrics.record_response();
                let replied = Instant::now();
                Self::finish_request(popped, metrics, tracer, sealed, sealed, sealed, replied);
                let _ = popped.request.reply.send(hit);
                continue;
            }
            match pending.entry(key) {
                Entry::Occupied(entry) => {
                    metrics.record_cache_hit();
                    slots[*entry.get()].1.push(i);
                }
                Entry::Vacant(entry) => {
                    metrics.record_cache_miss();
                    entry.insert(slots.len());
                    slots.push((i, Vec::new()));
                }
            }
        }

        if !slots.is_empty() {
            let (results, prune) = score_by_policy(
                &snapshot,
                config,
                slots
                    .iter()
                    .map(|&(first, _)| (policies[first], &batch[first].request.query)),
            );
            metrics.record_pruning(&prune);
            // The rerank ran inside the scoring pass (still in the Score
            // span); break its wall time out per batch when it actually ran.
            if prune.rerank_candidates > 0 {
                metrics.record_rerank_ns(prune.rerank_ns);
            }
            // Scoring ends, merging begins: fan each scored slot's result
            // out to its recipients (the scored request plus its in-flight
            // duplicates).
            let scored = Instant::now();
            let mut outgoing: Vec<(usize, Vec<(u32, f32)>)> = Vec::with_capacity(batch.len());
            for ((first, extras), result) in slots.iter().zip(&results) {
                outgoing.push((*first, result.clone()));
                for &i in extras {
                    outgoing.push((i, result.clone()));
                }
            }
            let merged = Instant::now();
            for (i, result) in outgoing {
                // Stamped before the send, like record_response: the reply
                // stage measures up to the hand-off.
                metrics.record_response();
                let replied = Instant::now();
                Self::finish_request(
                    &mut batch[i],
                    metrics,
                    tracer,
                    sealed,
                    scored,
                    merged,
                    replied,
                );
                let _ = batch[i].request.reply.send(result);
            }
            // One cache insert per unique key; `pending` still owns the
            // keys, so no key is cloned on the way in.  Deliberately after
            // the replies: insert time is not on any request's e2e clock.
            for (key, slot) in pending {
                cache.insert(key, generation, results[slot].clone());
            }
        }
        metrics.record_batch(batch.len(), sealed.elapsed());
    }

    /// A cloneable client handle.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            tx: self
                .tx
                .as_ref()
                // lint-ok: serve-unwrap tx is Some until Drop takes it; clients
                // cannot be minted from a dropped service
                .expect("service sender lives until drop")
                .clone(),
            state: Arc::clone(&self.state),
            metrics: Arc::clone(&self.metrics),
            tracer: Arc::clone(&self.tracer),
        }
    }

    /// Publishes new factors under load; returns the new generation.
    /// In-flight batches finish on the previous snapshot; cached results of
    /// older generations stop being served immediately (lazy eviction).
    /// The catalog is re-encoded to the serving precision
    /// ([`ServeConfig::precision`] plus overrides) on the way in, so a
    /// training loop can hand over exact f32 factors.
    pub fn publish(&self, snapshot: FactorSnapshot) -> u64 {
        let started = Instant::now();
        let snapshot = encode_to_serving_precision(
            snapshot,
            self.config.precision,
            &self.config.precision_overrides,
        );
        let generation = self.store.publish(snapshot);
        self.cache.publish(generation);
        self.metrics.record_swap();
        self.metrics.record_publish_latency(started.elapsed());
        generation
    }

    /// Publishes an incremental [`SnapshotDelta`] under load: the next
    /// snapshot shares every factor block the delta did not touch (a
    /// `u`-user fold-in copies `O(u·f)` bytes, not `O(m·f)`), and the
    /// result cache is updated **targetedly**, in `O(changed users)`: every
    /// cached reply of a changed or appended user is re-scored on the new
    /// snapshot before this returns (so the call's latency includes those
    /// scans), and everyone else's cached top-k keeps serving.  A delta
    /// that appends catalog items skips the targeted path (a new item can
    /// enter any user's top-k), falling back to lazy whole-cache
    /// invalidation through the generation check.
    pub fn publish_delta(&self, delta: &SnapshotDelta) -> Result<(u64, DeltaStats), DeltaError> {
        let started = Instant::now();
        let (generation, stats) = self.store.publish_delta(delta)?;
        self.metrics.record_swap();
        self.metrics.record_delta_publish();
        self.metrics.record_publish_latency(started.elapsed());
        if delta.touches_items() {
            self.cache.publish(generation);
            if self.config.max_item_segments > 0
                && self.store.load().items().segment_count() > self.config.max_item_segments
            {
                // Sustained item appends grew the segment list past the
                // bound: fold the tails back into one base.  Best-effort —
                // a racing publish simply wins and the next append retries.
                let _ = self.compact_items();
            }
        } else {
            // Appended users were previously out of range; their (empty)
            // results may be cached and are now wrong too.
            let mut changed = delta.changed_users().to_vec();
            changed.extend((0..stats.appended_users).map(|i| (stats.user_base + i) as u32));
            let keys = self
                .cache
                .publish_users(delta.base_generation(), generation, &changed);
            self.refresh(keys);
        }
        Ok((generation, stats))
    }

    /// Merges the published snapshot's item segments back into one base and
    /// republishes ([`SnapshotStore::compact_items`]).  Retrieval results
    /// are bit-identical, so the entire result cache is **retained**: to
    /// the cache the compaction is a delta that changed no user, which
    /// moves its current generation and touches no entry.  Returns the new
    /// generation, or `None` when the catalog is already one segment or a
    /// concurrent publish won the race.
    pub fn compact_items(&self) -> Option<u64> {
        match self.store.compact_items() {
            Ok(Some((base_generation, generation))) => {
                self.metrics.record_swap();
                self.metrics.record_item_compaction();
                // Nothing changed observably: a delta that changed no user.
                self.cache.publish_users(base_generation, generation, &[]);
                Some(generation)
            }
            Ok(None) | Err(_) => None,
        }
    }

    /// Re-scores the cached replies `keys` (taken out of the cache by a
    /// user-only delta publish) on the published snapshot — the same scan
    /// a worker's miss runs, under each key's own `k`, exclusions and
    /// policy — and caches each reply at that snapshot's generation.  Keys
    /// scored at another storage precision than the snapshot's are dropped,
    /// not refreshed: their request is served at that precision, not this.
    fn refresh(&self, mut keys: Vec<CacheKey>) {
        let snapshot = self.store.load();
        let precision = snapshot.items().precision().code();
        keys.retain(|key| key.precision() == precision);
        if keys.is_empty() {
            return;
        }
        let queries: Vec<(Option<ApproxPolicy>, Query)> =
            keys.iter().map(|key| (key.policy(), key.query())).collect();
        let (results, _) = score_by_policy(
            &snapshot,
            &self.config,
            queries.iter().map(|(policy, query)| (*policy, query)),
        );
        self.metrics.record_cache_refreshes(keys.len() as u64);
        for (key, result) in keys.into_iter().zip(results) {
            self.cache.insert(key, snapshot.generation(), result);
        }
    }

    /// The currently-published snapshot.
    pub fn snapshot(&self) -> Arc<FactorSnapshot> {
        self.store.load()
    }

    /// Point-in-time serving metrics (cumulative since startup).
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Cumulative metrics plus the window since the previous
    /// `window_report` call — what a periodic poller should use.
    pub fn window_report(&self) -> WindowedReport {
        self.metrics.window_report()
    }

    /// The live metrics registry shared with workers and clients, for
    /// pollers that outlive this handle's borrows.
    pub fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The request tracer (sampled stage-timing traces).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The retained sampled traces rendered as JSONL, oldest first.
    pub fn traces_jsonl(&self) -> String {
        self.tracer.to_jsonl()
    }

    /// The first recorded panic once a worker has died **for good** (its
    /// restart budget exhausted); `None` while the pool is healthy or
    /// recovering within budget.
    pub fn poisoned(&self) -> Option<String> {
        self.state.is_poisoned().then(|| {
            self.state
                .panic_cause()
                .unwrap_or_else(|| "worker died without a recorded panic".to_string())
        })
    }
}

impl Drop for TopKService {
    fn drop(&mut self) {
        // One explicit shutdown message per worker (rather than sender
        // disconnect) lets the pool drain even while client handles are
        // still alive; their next send fails with [`ServeError::Shutdown`].
        // The queue is FIFO, so every request enqueued before the drop is
        // still popped — and served — ahead of the shutdown markers.
        if let Some(tx) = self.tx.take() {
            for _ in 0..self.workers.len() {
                let _ = tx.send(Msg::Shutdown);
            }
        }
        for worker in self.workers.drain(..) {
            // A panic that somehow escaped the scoring guard still
            // surfaces here instead of being swallowed.
            if let Err(payload) = worker.join() {
                self.state.record_panic(panic_message(payload.as_ref()));
                self.state.poison();
                self.metrics.record_worker_panic();
            }
        }
        // From here on no request can ever be popped; clients stranded
        // behind the shutdown markers stop waiting at their next liveness
        // poll.
        self.state.closed.store(true, Ordering::Release); // ordering-ok: Release pairs with dead()'s Acquire; after this no pop can be ordered later
    }
}

/// Client handle: blocking request/response against the worker pool.
#[derive(Clone)]
pub struct ServeClient {
    tx: Sender<Msg>,
    state: Arc<PoolState>,
    metrics: Arc<ServeMetrics>,
    tracer: Arc<Tracer>,
}

impl ServeClient {
    /// Requests the top-`k` items for `user`, excluding `exclude`, under
    /// the service-wide retrieval policy ([`ServeConfig::approx`]).
    /// Blocks until a worker replies (one micro-batch of latency).
    pub fn recommend(
        &self,
        user: u32,
        k: usize,
        exclude: &[u32],
    ) -> Result<Vec<(u32, f32)>, ServeError> {
        self.recommend_with_mode(user, k, exclude, RequestMode::Inherit)
    }

    /// [`ServeClient::recommend`] forced exact, regardless of the service's
    /// default policy — the escape hatch for traffic that must not trade
    /// recall for latency.
    pub fn recommend_exact(
        &self,
        user: u32,
        k: usize,
        exclude: &[u32],
    ) -> Result<Vec<(u32, f32)>, ServeError> {
        self.recommend_with_mode(user, k, exclude, RequestMode::Exact)
    }

    /// [`ServeClient::recommend`] under an explicit per-request
    /// [`ApproxPolicy`], overriding the service default.
    pub fn recommend_approx(
        &self,
        user: u32,
        k: usize,
        exclude: &[u32],
        policy: ApproxPolicy,
    ) -> Result<Vec<(u32, f32)>, ServeError> {
        policy.validate();
        self.recommend_with_mode(user, k, exclude, RequestMode::Approx(policy))
    }

    fn recommend_with_mode(
        &self,
        user: u32,
        k: usize,
        exclude: &[u32],
        mode: RequestMode,
    ) -> Result<Vec<(u32, f32)>, ServeError> {
        let (reply_tx, reply_rx) = bounded(1);
        let trace = self.tracer.begin();
        // A sampled request's enqueue instant IS its trace origin, so the
        // trace's stage events tile [0, total_ns] with no gap before the
        // queue-wait stage.
        let enqueued_at = trace.as_ref().map_or_else(Instant::now, |t| t.origin());
        let request = Msg::Request(Request {
            query: Query {
                user,
                k,
                exclude: exclude.to_vec(),
            },
            mode,
            reply: reply_tx,
            enqueued_at,
            trace,
        });
        // Depth is counted *before* the send: the channel's happens-before
        // guarantees the worker's matching exit never observes a depth its
        // own message hasn't raised, so the gauge cannot underflow.
        self.metrics.record_queue_enter();
        if self.tx.send(request).is_err() {
            self.metrics.record_queue_exit();
            return Err(self.death_cause());
        }
        loop {
            match reply_rx.recv_timeout(LIVENESS_POLL) {
                Ok(result) => return Ok(result),
                Err(RecvTimeoutError::Disconnected) => return Err(self.death_cause()),
                Err(RecvTimeoutError::Timeout) => {
                    if self.state.dead() {
                        // The request may sit unreachable behind the
                        // shutdown markers — but a worker may also have
                        // replied in the instant before the pool died, so
                        // give the reply channel one last look.
                        return match reply_rx.try_recv() {
                            Ok(result) => Ok(result),
                            Err(TryRecvError::Empty) => {
                                // No reply and the reply sender still lives:
                                // the request sits in the queue, unpopped.
                                // `dead()` is permanent (workers only leave
                                // it, never rejoin), so the worker-side
                                // `record_queue_exit` will never run for
                                // this message — un-count it here or the
                                // gauge leaks one slot per stranded request
                                // for the rest of the process.
                                self.metrics.record_queue_exit();
                                Err(self.death_cause())
                            }
                            // Disconnected: a worker popped the request
                            // (recording the exit) and dropped the reply
                            // with its panicked batch — nothing to undo.
                            Err(TryRecvError::Disconnected) => Err(self.death_cause()),
                        };
                    }
                }
            }
        }
    }

    /// Distinguishes a clean shutdown from a panic: a request whose batch
    /// died to a caught panic (reply channel dropped while the pool lives
    /// on — the restart path) and a pool whose workers died for good both
    /// carry the recorded panic message; only a panic-free pool reports
    /// [`ServeError::Shutdown`].
    fn death_cause(&self) -> ServeError {
        match self.state.panic_cause() {
            Some(message) => ServeError::WorkerPanicked(message),
            None => ServeError::Shutdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_linalg::FactorMatrix;

    fn snapshot(seed: u64) -> FactorSnapshot {
        FactorSnapshot::from_factors(
            FactorMatrix::random(40, 8, 1.0, seed),
            FactorMatrix::random(200, 8, 1.0, seed + 1),
        )
    }

    fn config() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(4),
            ..Default::default()
        }
    }

    #[test]
    fn replies_match_the_single_request_path() {
        let service = TopKService::start(snapshot(1), config());
        let reference = service.snapshot();
        let client = service.client();
        for user in 0..40u32 {
            let got = client.recommend(user, 7, &[user % 5]).unwrap();
            assert_eq!(got, reference.recommend_one(user, 7, &[user % 5]));
        }
    }

    #[test]
    fn concurrent_clients_coalesce_into_batches() {
        let service = TopKService::start(snapshot(2), config());
        std::thread::scope(|s| {
            for t in 0..8 {
                let client = service.client();
                s.spawn(move || {
                    for i in 0..25u32 {
                        let user = (t * 25 + i) % 40;
                        let r = client.recommend(user, 5, &[]).unwrap();
                        assert_eq!(r.len(), 5);
                    }
                });
            }
        });
        let m = service.metrics();
        assert_eq!(m.requests, 200);
        assert_eq!(m.responses, 200);
        assert!(
            m.batches < m.requests,
            "expected coalescing: {} batches for {} requests",
            m.batches,
            m.requests
        );
        assert!(m.mean_batch_size > 1.0);
    }

    #[test]
    fn pool_answers_from_every_worker() {
        let service = TopKService::start(
            snapshot(7),
            ServeConfig {
                workers: 4,
                shards: 3,
                ..config()
            },
        );
        let reference = service.snapshot();
        std::thread::scope(|s| {
            for t in 0..4 {
                let client = service.client();
                let reference = &reference;
                s.spawn(move || {
                    for i in 0..50u32 {
                        let user = (t * 50 + i) % 40;
                        let got = client.recommend(user, 6, &[user % 3]).unwrap();
                        assert_eq!(got, reference.recommend_one(user, 6, &[user % 3]));
                    }
                });
            }
        });
        let m = service.metrics();
        assert_eq!(m.requests, 200);
        assert_eq!(m.responses, 200);
        assert_eq!(m.worker_panics, 0);
        assert_eq!(service.poisoned(), None);
    }

    #[test]
    fn identical_requests_hit_the_cache() {
        let service = TopKService::start(snapshot(3), config());
        let client = service.client();
        let a = client.recommend(7, 5, &[1, 2]).unwrap();
        let b = client.recommend(7, 5, &[1, 2]).unwrap();
        assert_eq!(a, b);
        let m = service.metrics();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
    }

    #[test]
    fn duplicate_requests_in_one_batch_are_scored_once() {
        // Cache disabled: any recorded hit can only come from in-flight
        // dedupe.  Two identical requests coalesce (max_batch 2, generous
        // deadline), are scored once, and both waiters get the reply.
        let service = TopKService::start(
            snapshot(4),
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::from_secs(2),
                cache_capacity: 0,
                ..Default::default()
            },
        );
        let reference = service.snapshot().recommend_one(9, 4, &[2]);
        let (a, b) = std::thread::scope(|s| {
            let ca = service.client();
            let cb = service.client();
            let ha = s.spawn(move || ca.recommend(9, 4, &[2]).unwrap());
            let hb = s.spawn(move || cb.recommend(9, 4, &[2]).unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(a, reference);
        assert_eq!(b, reference);
        let m = service.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.responses, 2);
        assert_eq!(
            (m.cache_misses, m.cache_hits),
            (1, 1),
            "one scored, one deduped"
        );
    }

    #[test]
    fn near_duplicates_are_not_deduped() {
        // Same user, different exclusions: must be scored independently.
        let service = TopKService::start(
            snapshot(5),
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::from_secs(2),
                cache_capacity: 0,
                ..Default::default()
            },
        );
        let (a, b) = std::thread::scope(|s| {
            let ca = service.client();
            let cb = service.client();
            let ha = s.spawn(move || ca.recommend(9, 4, &[0]).unwrap());
            let hb = s.spawn(move || cb.recommend(9, 4, &[1]).unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(a.iter().all(|(v, _)| *v != 0));
        assert!(b.iter().all(|(v, _)| *v != 1));
        let m = service.metrics();
        assert_eq!(m.cache_misses, 2);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn publish_invalidates_cached_results() {
        let service = TopKService::start(snapshot(4), config());
        let client = service.client();
        let old = client.recommend(3, 5, &[]).unwrap();
        service.publish(snapshot(99));
        let new = client.recommend(3, 5, &[]).unwrap();
        let expect = service.snapshot().recommend_one(3, 5, &[]);
        assert_eq!(new, expect);
        assert_ne!(old, new, "stale cached result served after publish");
        assert_eq!(service.metrics().snapshot_swaps, 1);
    }

    #[test]
    fn single_request_is_flushed_by_the_deadline() {
        let service = TopKService::start(
            snapshot(5),
            ServeConfig {
                max_batch: 1024,
                max_delay: Duration::from_millis(5),
                ..Default::default()
            },
        );
        let client = service.client();
        let start = Instant::now();
        let r = client.recommend(0, 3, &[]).unwrap();
        assert_eq!(r.len(), 3);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline flush took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn a_max_delay_of_duration_max_waits_for_a_full_batch() {
        // `Instant + Duration::MAX` overflows; the worker must not die on
        // it.  With no deadline a batch seals when it holds `max_batch`:
        // at once for a batch of one, and once the second client arrives
        // for a batch of two.
        let service = TopKService::start(
            snapshot(5),
            ServeConfig {
                max_batch: 1,
                max_delay: Duration::MAX,
                ..Default::default()
            },
        );
        let reference = service.snapshot();
        let client = service.client();
        assert_eq!(
            client.recommend(0, 3, &[]).unwrap(),
            reference.recommend_one(0, 3, &[])
        );
        assert_eq!(service.metrics().worker_panics, 0);

        let service = TopKService::start(
            snapshot(5),
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::MAX,
                ..Default::default()
            },
        );
        let (a, b) = std::thread::scope(|s| {
            let ca = service.client();
            let cb = service.client();
            let ha = s.spawn(move || ca.recommend(1, 3, &[]).unwrap());
            let hb = s.spawn(move || cb.recommend(2, 3, &[]).unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(a, reference.recommend_one(1, 3, &[]));
        assert_eq!(b, reference.recommend_one(2, 3, &[]));
        let m = service.metrics();
        assert_eq!((m.batches, m.requests), (1, 2));
    }

    #[test]
    fn clients_error_cleanly_after_shutdown() {
        let service = TopKService::start(snapshot(6), config());
        let client = service.client();
        drop(service);
        assert_eq!(client.recommend(0, 3, &[]), Err(ServeError::Shutdown));
    }

    #[test]
    fn stranded_requests_do_not_leak_the_queue_gauge() {
        // A request enqueued after shutdown sits behind the markers forever:
        // no worker records its queue exit, so the bailing client must —
        // otherwise every stranded request inflates the depth gauge for the
        // life of the process (and drags the high-water mark with it).
        let service = TopKService::start(snapshot(6), config());
        let client = service.client();
        let metrics = service.metrics_handle();
        drop(service);
        for _ in 0..3 {
            assert_eq!(client.recommend(0, 3, &[]), Err(ServeError::Shutdown));
        }
        assert_eq!(
            metrics.queue_depth(),
            0,
            "stranded requests leaked the queue-depth gauge"
        );
    }

    #[test]
    fn worker_panic_is_surfaced_with_its_message() {
        // A fault on every batch stands in for any scoring-time panic.  With
        // a zero panic budget (the pre-supervisor policy) the request that
        // triggered it and every later request must fail with the panic's
        // message, not a silent Shutdown.
        let fault: super::FaultHook = Arc::new(|_: &Query| true);
        let service = TopKService::start_with_fault(
            snapshot(8),
            ServeConfig {
                max_delay: Duration::from_millis(1),
                panic_budget: 0,
                ..Default::default()
            },
            Some(fault),
        );
        let client = service.client();
        let err = client.recommend(0, 3, &[]).unwrap_err();
        match &err {
            ServeError::WorkerPanicked(msg) => {
                assert!(msg.contains("injected fault"), "unexpected message: {msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The poison is sticky: later requests see the same cause.
        assert_eq!(client.recommend(1, 3, &[]), Err(err.clone()));
        assert!(service.poisoned().is_some());
        let m = service.metrics();
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.worker_restarts, 0);
        // The error formats with its cause attached.
        assert!(err.to_string().contains("injected fault"));
    }

    /// A bad index field fails `start` on the caller's thread, before any
    /// worker spawns — instead of panicking inside the pool on every batch
    /// and poisoning it.
    #[test]
    #[should_panic(expected = "item block must be positive")]
    fn start_rejects_a_zero_item_block() {
        TopKService::start(
            snapshot(8),
            ServeConfig {
                item_block: 0,
                ..config()
            },
        );
    }

    /// A data-dependent scoring panic within the budget costs only the
    /// panicked batch: the worker restarts, later requests are served at
    /// full capacity, and the pool is not poisoned.
    #[test]
    fn worker_restarts_within_the_panic_budget() {
        let fault: super::FaultHook = Arc::new(|q: &Query| q.user == 13);
        let service = TopKService::start_with_fault(
            snapshot(9),
            ServeConfig {
                workers: 1,
                panic_budget: 2,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
            Some(fault),
        );
        let reference = service.snapshot();
        let client = service.client();

        // Poisoned batch fails with the cause...
        match client.recommend(13, 3, &[]) {
            Err(ServeError::WorkerPanicked(msg)) => {
                assert!(msg.contains("injected fault"), "{msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // ...but the worker came back: healthy requests serve correctly.
        assert_eq!(
            client.recommend(1, 3, &[]).unwrap(),
            reference.recommend_one(1, 3, &[])
        );
        assert_eq!(service.poisoned(), None, "restart must not poison");
        let m = service.metrics();
        assert_eq!((m.worker_panics, m.worker_restarts), (1, 1));

        // Second panic: budget still covers it.
        assert!(client.recommend(13, 3, &[]).is_err());
        assert_eq!(
            client.recommend(2, 3, &[]).unwrap(),
            reference.recommend_one(2, 3, &[])
        );
        assert_eq!(service.poisoned(), None);

        // Third panic exhausts the budget: the existing poison path.
        assert!(client.recommend(13, 3, &[]).is_err());
        assert!(service.poisoned().is_some(), "budget exhausted ⇒ poisoned");
        assert!(matches!(
            client.recommend(3, 3, &[]),
            Err(ServeError::WorkerPanicked(_))
        ));
        let m = service.metrics();
        assert_eq!((m.worker_panics, m.worker_restarts), (3, 2));
    }

    #[test]
    fn approx_and_exact_requests_do_not_share_cache_entries() {
        // Exact first, approximate second, for the same (user, k, exclude):
        // the cached exact result must not answer the approximate request —
        // both must be scored (two misses, zero hits).
        let service = TopKService::start(snapshot(11), config());
        let client = service.client();
        let exact = client.recommend_exact(5, 6, &[1]).unwrap();
        let coarse = ApproxPolicy {
            epsilon: 0.6,
            max_blocks: 0,
            target_recall: 0.0,
        };
        let approx = client.recommend_approx(5, 6, &[1], coarse).unwrap();
        assert_eq!(exact.len(), 6);
        assert_eq!(approx.len(), 6, "approximate list must not shrink");
        let m = service.metrics();
        assert_eq!((m.cache_misses, m.cache_hits), (2, 0));
        assert_eq!(m.approx_requests, 1);
        // Repeats of each mode now hit their own entries.
        assert_eq!(client.recommend_exact(5, 6, &[1]).unwrap(), exact);
        assert_eq!(client.recommend_approx(5, 6, &[1], coarse).unwrap(), approx);
        let m = service.metrics();
        assert_eq!((m.cache_misses, m.cache_hits), (2, 2));
    }

    #[test]
    fn mixed_batch_scores_exact_and_approx_in_separate_micro_batches() {
        // Two identical (user, k, exclude) requests — one exact, one under a
        // coarse policy — coalesce into one popped batch (max_batch 2, long
        // deadline).  They must NOT dedupe onto one slot: the exact reply
        // must equal the exact reference even though an approximate request
        // rode in the same batch.
        let service = TopKService::start(
            snapshot(12),
            ServeConfig {
                max_batch: 2,
                max_delay: Duration::from_secs(2),
                cache_capacity: 0,
                ..Default::default()
            },
        );
        let reference = service.snapshot().recommend_one(9, 5, &[2]);
        let coarse = ApproxPolicy {
            epsilon: 0.9,
            max_blocks: 1,
            target_recall: 0.0,
        };
        let (exact, approx) = std::thread::scope(|s| {
            let ca = service.client();
            let cb = service.client();
            let ha = s.spawn(move || ca.recommend_exact(9, 5, &[2]).unwrap());
            let hb = s.spawn(move || cb.recommend_approx(9, 5, &[2], coarse).unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(exact, reference, "exact result contaminated by approx");
        assert_eq!(approx.len(), 5);
        let m = service.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(
            (m.cache_misses, m.cache_hits),
            (2, 0),
            "different policies must not dedupe onto one slot"
        );
        assert_eq!(m.approx_requests, 1);
    }

    #[test]
    fn service_wide_policy_applies_to_inherit_and_is_overridable() {
        // A service defaulting to a coarse policy: plain recommend() scans
        // approximately (terminated blocks show up in the metrics), while
        // recommend_exact() still matches the exact single-request path.
        let service = TopKService::start(
            snapshot(13),
            ServeConfig {
                approx: Some(ApproxPolicy {
                    epsilon: 0.8,
                    max_blocks: 0,
                    target_recall: 0.0,
                }),
                cache_capacity: 0,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        );
        let client = service.client();
        let exact = client.recommend_exact(3, 5, &[]).unwrap();
        assert_eq!(exact, service.snapshot().recommend_one(3, 5, &[]));
        let inherited = client.recommend(3, 5, &[]).unwrap();
        assert_eq!(inherited.len(), 5);
        let m = service.metrics();
        assert_eq!(m.approx_requests, 1, "only the inherit request is approx");
    }

    #[test]
    fn epsilon_zero_policy_normalizes_to_exact_and_shares_the_cache() {
        // ApproxPolicy::exact() cannot change results, so it must coalesce
        // with exact traffic: the second request is a cache hit, not a
        // second scoring pass.
        let service = TopKService::start(snapshot(14), config());
        let client = service.client();
        let a = client.recommend_exact(4, 5, &[]).unwrap();
        let b = client
            .recommend_approx(4, 5, &[], ApproxPolicy::exact())
            .unwrap();
        assert_eq!(a, b);
        let m = service.metrics();
        assert_eq!((m.cache_misses, m.cache_hits), (1, 1));
        assert_eq!(m.approx_requests, 0, "exact-equivalent policy is exact");
    }

    #[test]
    fn quantized_service_matches_exact_replies_and_records_rerank() {
        // F16 storage + exact rerank reproduces the exact service's lists
        // bit-for-bit on this catalog (the scorer's own tests pin the same
        // property per shard count), while the quantized-path metrics —
        // rerank histogram, bytes scanned, candidates rescored — all flow.
        let service = TopKService::start(
            snapshot(21),
            ServeConfig {
                precision: Precision::F16,
                cache_capacity: 0,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        );
        assert_eq!(service.snapshot().items().precision(), Precision::F16);
        let reference = snapshot(21); // same factors, exact f32
        let client = service.client();
        for user in 0..20u32 {
            let got = client.recommend(user, 6, &[user % 7]).unwrap();
            assert_eq!(got, reference.recommend_one(user, 6, &[user % 7]));
        }
        let m = service.metrics();
        assert!(m.rerank.count() > 0, "rerank histogram must be recorded");
        assert!(m.rerank_candidates > 0);
        assert!(m.bytes_scanned > 0);
    }

    #[test]
    fn exact_service_records_no_rerank() {
        let service = TopKService::start(snapshot(22), config());
        let client = service.client();
        let _ = client.recommend(1, 5, &[]).unwrap();
        let m = service.metrics();
        assert_eq!(m.rerank.count(), 0);
        assert_eq!(m.rerank_candidates, 0);
        assert!(m.bytes_scanned > 0, "exact scans still count bytes");
    }

    #[test]
    fn publish_reencodes_full_snapshots_to_the_serving_precision() {
        // A training loop hands over plain f32 factors; the service must
        // keep serving at its configured precision across the swap.
        let service = TopKService::start(
            snapshot(23),
            ServeConfig {
                precision: Precision::I8,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        );
        service.publish(snapshot(24));
        let swapped = service.snapshot();
        assert_eq!(swapped.items().precision(), Precision::I8);
        assert!(
            swapped.items().segments()[0].encoded().is_some(),
            "published catalog must carry a compressed slab"
        );
        let client = service.client();
        assert_eq!(client.recommend(3, 5, &[]).unwrap().len(), 5);
    }

    #[test]
    fn per_segment_overrides_keep_the_hot_head_exact() {
        // Store default I8, head segment pinned to F32: the mixed catalog
        // serves, and an item-appending delta's tail encodes at the store
        // default (cold tails quantize, the hot head stays exact).
        let service = TopKService::start(
            snapshot(25),
            ServeConfig {
                precision: Precision::I8,
                precision_overrides: vec![(0, Precision::F32)],
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        );
        let items = service.snapshot();
        assert_eq!(items.items().precision(), Precision::I8);
        assert_eq!(items.items().segments()[0].precision(), Precision::F32);
        let mut delta = items.delta();
        delta.append_items(&FactorMatrix::random(30, 8, 1.0, 77));
        service.publish_delta(&delta).unwrap();
        let after = service.snapshot();
        assert_eq!(after.items().segments()[0].precision(), Precision::F32);
        assert_eq!(
            after.items().segments().last().unwrap().precision(),
            Precision::I8,
            "appended tail must encode at the store default"
        );
        let client = service.client();
        assert_eq!(client.recommend(2, 8, &[]).unwrap().len(), 8);
    }

    #[test]
    fn delta_publish_drops_keys_at_another_precision_without_refreshing_them() {
        // The service stamps every key with the catalog's precision, so a
        // key at another one is planted by hand: scored at i8 while the
        // service serves f32.  The delta takes both of user 3's keys out
        // and re-scores only the f32 one.
        let service = TopKService::start(snapshot(30), config());
        let client = service.client();
        client.recommend(3, 5, &[]).unwrap();
        // The worker caches after replying; the next reply fences it.
        client.recommend(0, 1, &[]).unwrap();
        let own = CacheKey::new(3, 5, &[]);
        let foreign = own.clone().with_precision(Precision::I8.code());
        assert!(service.cache.get(&own, 1).is_some());
        service.cache.insert(foreign.clone(), 1, vec![(0, 1.0)]);
        let mut delta = service.snapshot().delta();
        delta.update_user(3, &[1.0; 8]);
        let (generation, _) = service.publish_delta(&delta).unwrap();
        assert_eq!(service.metrics().cache_refreshes, 1);
        assert_eq!(service.cache.get(&foreign, generation), None);
        assert_eq!(
            service.cache.get(&own, generation),
            Some(service.snapshot().recommend_one(3, 5, &[]))
        );
    }

    /// The panic budget is pool-wide: restarts on different workers draw
    /// from the same budget, and a healthy pool keeps serving meanwhile.
    #[test]
    fn restart_budget_is_shared_across_the_pool() {
        let fault: super::FaultHook = Arc::new(|q: &Query| q.user >= 1000);
        let service = TopKService::start_with_fault(
            snapshot(10),
            ServeConfig {
                workers: 3,
                panic_budget: 4,
                max_delay: Duration::from_millis(1),
                cache_capacity: 0,
                ..Default::default()
            },
            Some(fault),
        );
        let client = service.client();
        for round in 0..4u32 {
            let _ = client.recommend(1000 + round, 3, &[]);
            assert_eq!(client.recommend(round % 40, 3, &[]).unwrap().len(), 3);
        }
        assert_eq!(service.poisoned(), None);
        assert_eq!(service.metrics().worker_restarts, 4);
    }
}

/// Model-checked regression for the PR 3 shutdown-vs-enqueue race.
///
/// The race: a request enqueued concurrently with the drop path's shutdown
/// markers can land *behind* the marker in the MPMC queue; the worker exits
/// at the marker, so the request is never popped and — before PR 3 — its
/// client waited on the reply channel forever.  The fix gave clients the
/// [`PoolState`] liveness signal ([`PoolState::dead`]): once the pool can
/// no longer serve, the timeout loop bails.
///
/// The model abstracts the crossbeam channel as a loom-`Mutex`ed FIFO (the
/// channel itself is uninstrumented and FIFO is its only property used
/// here) but runs the **real** [`PoolState`]/[`AliveGuard`] liveness
/// machinery.  One thread races the client's enqueue; the other plays the
/// drop path: marker enqueue, worker drain-until-marker, worker exit,
/// closed flag.  At quiescence the client is exactly in the state the wait
/// loop would be stuck in, so the pinned invariant is:
/// `reply_received || dead()` — no interleaving may leave a client with
/// no reply *and* no liveness signal.
#[cfg(all(test, cumf_model_check))]
mod model_tests {
    use super::PoolState;
    use crate::sync::atomic::{AtomicBool, Ordering};
    use crate::sync::{Arc, Mutex};
    use loom::thread;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Item {
        Request,
        ShutdownMarker,
    }

    /// Runs the scenario; `liveness_signal` gates whether the client gets
    /// to consult [`PoolState::dead`] (true = PR 3 behaviour, false = the
    /// pre-fix client that only ever waits for a reply).
    fn run_shutdown_scenario(liveness_signal: bool) -> loom::Stats {
        loom::Builder::new().preemption_bound(3).check(move || {
            let state = Arc::new(PoolState::default());
            state.alive_workers.store(1, Ordering::Release);
            let queue: Arc<Mutex<Vec<Item>>> = Arc::new(Mutex::new(Vec::new()));
            let reply_received = Arc::new(AtomicBool::new(false));

            let (q2, s2, r2) = (
                Arc::clone(&queue),
                Arc::clone(&state),
                Arc::clone(&reply_received),
            );
            // Drop path + worker: marker in, drain to the marker (serving
            // anything queued ahead of it), worker exit, closed flag.
            let shutdown = thread::spawn(move || {
                q2.lock().expect("model queue").push(Item::ShutdownMarker);
                let drained = std::mem::take(&mut *q2.lock().expect("model queue"));
                for item in drained {
                    match item {
                        Item::Request => r2.store(true, Ordering::Release),
                        Item::ShutdownMarker => break,
                    }
                }
                s2.alive_workers.fetch_sub(1, Ordering::AcqRel); // AliveGuard drop
                s2.closed.store(true, Ordering::Release);
            });

            // Client: enqueue races the marker; then observe the terminal
            // state of the wait loop.
            queue.lock().expect("model queue").push(Item::Request);
            // Two bounded wait-loop polls (the real client's timeout ticks)
            // racing the drop path's flag writes — mid-shutdown reads of
            // `dead()` are part of the explored window, not just its final
            // value at quiescence.
            for _ in 0..2 {
                if reply_received.load(Ordering::Acquire) || (liveness_signal && state.dead()) {
                    break;
                }
            }
            shutdown.join().expect("model thread");
            let got_reply = reply_received.load(Ordering::Acquire);
            let can_bail = liveness_signal && state.dead();
            assert!(
                got_reply || can_bail,
                "client stranded: no reply and no liveness signal"
            );
        })
    }

    #[test]
    fn shutdown_race_clients_always_get_reply_or_liveness_signal() {
        let stats = run_shutdown_scenario(true);
        assert!(
            stats.interleavings >= 100,
            "scenario explored only {} interleavings",
            stats.interleavings
        );
        assert!(!stats.nondeterminism);
    }

    /// Mutation direction: strip the liveness signal (the pre-PR 3 client)
    /// and the checker must find a stranding interleaving — proving the
    /// scenario actually exercises the race rather than vacuously passing.
    #[test]
    fn checker_finds_stranded_client_without_liveness_signal() {
        let result = std::panic::catch_unwind(|| run_shutdown_scenario(false));
        let payload = result.expect_err("pre-PR 3 client must strand in some interleaving");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("failure carries a message");
        assert!(
            message.contains("client stranded"),
            "unexpected failure: {message}"
        );
    }
}
