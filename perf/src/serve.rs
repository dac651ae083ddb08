//! The `serve_*` workloads: one op is one `recommend(user, 10, &[])` reply
//! to a single closed-loop client.
//!
//! `serve_scan` turns the result cache off and draws users uniformly, so an
//! op is the blocked f32 scan.  `serve_online` keeps the default cache,
//! reads a warmed hot set, and after every 64 reads runs one step of the
//! online loop (a 16-event fold-in and delta publish), so an op is dispatch
//! plus a cache hit and the write path competes for the same wall clock.

use crate::api::{self, Entry, FactorMatrix, FactorSnapshot, OnlineLoop, ServeClient, TopKService};
use crate::api::{RatingStream, Scan, TrainMetrics};
use crate::json::Json;
use crate::measure::Ops;
use crate::spec::Workload;
use crate::stats::{percentile, Rng};
use crate::trace::{Traced, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const K: usize = 10;
const F: usize = 32;
/// Reads between two steps of the online loop.
const READS_PER_STEP: u32 = 64;
/// Events per step: one hot user and fifteen cold ones.
const STEP_EVENTS: usize = 16;
/// Items each user re-rates from, so histories — and with them the fold-in
/// cost — stay the same size however long the run.
const POOL_ITEMS: u32 = 16;
const WARM_UP_READS: u32 = 256;
const WARM_UP_CYCLES: u32 = 32;

// Independent generator streams fed by the one `--seed`.
const STREAM_USERS: u64 = 1;
const STREAM_ITEMS: u64 = 2;
const STREAM_REQUESTS: u64 = 3;
const STREAM_VERIFY: u64 = 4;
const STREAM_HISTORY: u64 = 5;
const STREAM_EVENTS: u64 = 6;

#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub n_users: u32,
    pub n_items: u32,
    /// Users the reads draw from; 0 on `serve_scan`, where reads draw from
    /// everyone and nothing is written.
    pub hot_users: u32,
}

impl ServeSpec {
    fn online(&self) -> bool {
        self.hot_users > 0
    }
}

pub fn spec(workload: Workload, quick: bool) -> ServeSpec {
    let shrink = if quick { 5 } else { 1 };
    match workload {
        Workload::ServeScan => ServeSpec {
            n_users: 10_000 / shrink,
            n_items: 100_000 / shrink,
            hot_users: 0,
        },
        Workload::ServeOnline => ServeSpec {
            n_users: 10_000 / shrink,
            n_items: 20_000 / shrink,
            hot_users: 2_000 / shrink,
        },
        _ => unreachable!("{} is not a serve workload", workload.name()),
    }
}

/// Uniform user factors, and item factors whose rows are scaled by
/// lognormal(σ = 0.3) norms: with equal norms block pruning never fires,
/// with widely spread ones it always does; this spread has the exact scan
/// visit about half the blocks.
fn catalog(spec: &ServeSpec, seed: u64) -> (FactorMatrix, FactorMatrix) {
    let scale = 1.0 / (F as f32).sqrt();
    let mut rng = Rng::new(seed, STREAM_USERS);
    let users: Vec<f32> = (0..spec.n_users as usize * F)
        .map(|_| (2.0 * rng.unit() - 1.0) * scale)
        .collect();
    let mut rng = Rng::new(seed, STREAM_ITEMS);
    let mut items = Vec::with_capacity(spec.n_items as usize * F);
    for _ in 0..spec.n_items {
        let norm = (0.3 * rng.gaussian()).exp() * scale;
        items.extend((0..F).map(|_| (2.0 * rng.unit() - 1.0) * norm));
    }
    (
        FactorMatrix::from_vec(spec.n_users as usize, F, users),
        FactorMatrix::from_vec(spec.n_items as usize, F, items),
    )
}

/// Builds the catalog and snapshot and starts the service.  With
/// `trace_requests`, every request is traced and that many traces are kept.
pub fn start(
    spec: &ServeSpec,
    seed: u64,
    trace_requests: Option<usize>,
    tr: &mut Tracer,
) -> TopKService {
    let (users, items) = catalog(spec, seed);
    let snapshot = tr.span("serve.snapshot_build", 0, |_| {
        api::snapshot_from_factors(users, items)
    });
    let cache = if spec.online() { None } else { Some(0) };
    tr.span("serve.service_start", 0, |_| {
        api::service_start(snapshot, cache, Scan::Exact, trace_requests)
    })
}

/// The brute-force oracle: the scan's own dot product over every item,
/// ordered by score descending, then id ascending.
pub fn oracle(snapshot: &FactorSnapshot, user: u32, k: usize) -> Vec<(u32, f32)> {
    let Some(x) = snapshot.user_vector(user) else {
        return Vec::new();
    };
    let mut scored: Vec<(u32, f32)> = (0..snapshot.n_items() as u32)
        .map(|v| {
            let theta = snapshot
                .item_vector(v)
                .expect("item ids below n_items resolve");
            (v, api::score_dot(x, theta))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

fn pool_item(user: u32, slot: u32, n_items: u32) -> u32 {
    // 7919 is prime and no catalog size here is a multiple of it, so a
    // user's sixteen consecutive pool indices land on distinct items.
    ((u64::from(user) * u64::from(POOL_ITEMS) + u64::from(slot)) * 7919 % u64::from(n_items)) as u32
}

/// The rating stream of `serve_online` as a pure function of the event
/// index, so the harness knows which users a step of `events` events
/// touched: event `i` belongs to batch `i / 16`; its first slot re-rates
/// for one hot user, the other fifteen walk through the cold users.
fn event_at(spec: &ServeSpec, seed: u64, i: u64) -> Entry {
    let (batch, slot) = (i / STEP_EVENTS as u64, i % STEP_EVENTS as u64);
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93), STREAM_EVENTS);
    let user = if slot == 0 {
        rng.below(spec.hot_users)
    } else {
        let cold = u64::from(spec.n_users - spec.hot_users);
        spec.hot_users + ((batch * (STEP_EVENTS as u64 - 1) + slot - 1) % cold) as u32
    };
    Entry::new(
        user,
        pool_item(user, rng.below(POOL_ITEMS), spec.n_items),
        1.0 + 4.0 * rng.unit(),
    )
}

struct PoolStream {
    spec: ServeSpec,
    seed: u64,
    next: u64,
}

impl RatingStream for PoolStream {
    fn n_items(&self) -> u32 {
        self.spec.n_items
    }

    fn next_rating(&mut self) -> Option<Entry> {
        let event = event_at(&self.spec, self.seed, self.next);
        self.next += 1;
        Some(event)
    }
}

/// The write side of `serve_online`.
struct Online<'a> {
    online: OnlineLoop<'a>,
    reads_since_step: u32,
    /// Events the loop has consumed: the index of the next batch's first.
    consumed: u64,
    steps: u64,
    failed_steps: u64,
    step_s: f64,
    user_bytes: u64,
}

/// The load generator of a `serve_*` workload, and its tracer.
pub struct ServeLoad<'a> {
    spec: ServeSpec,
    seed: u64,
    service: &'a TopKService,
    client: ServeClient,
    requests: Rng,
    online: Option<Online<'a>>,
    /// Requests admitted since the service started; with every request
    /// traced this is the id of the next request's trace.
    admitted: u64,
    /// `(client span, trace id)` of every traced request.
    request_spans: Vec<(u32, u64)>,
    pub tracer: Tracer,
}

impl<'a> ServeLoad<'a> {
    /// `fold_in_metrics` is attached to the fold-in engine of the online
    /// loop (traced passes only).
    pub fn new(
        service: &'a TopKService,
        spec: ServeSpec,
        seed: u64,
        tracer: Tracer,
        fold_in_metrics: Option<Arc<TrainMetrics>>,
    ) -> Self {
        let online = spec.online().then(|| {
            let mut rng = Rng::new(seed, STREAM_HISTORY);
            let history: Vec<Entry> = (0..spec.n_users)
                .flat_map(|u| (0..POOL_ITEMS).map(move |j| (u, j)))
                .map(|(u, j)| Entry::new(u, pool_item(u, j, spec.n_items), 1.0 + 4.0 * rng.unit()))
                .collect();
            let history = api::csr_from_triplets(spec.n_users, spec.n_items, history);
            // The engine only lends fold-in its λ and rank; the item
            // factors it solves against are the served snapshot's.
            let mut engine = api::engine_new(F, 0.05, seed, history.clone());
            if let Some(metrics) = fold_in_metrics {
                engine.attach_metrics(metrics);
            }
            let stream = PoolStream {
                spec,
                seed,
                next: 0,
            };
            Online {
                online: api::online_fold_in(engine, &history, stream, STEP_EVENTS, service),
                reads_since_step: 0,
                consumed: 0,
                steps: 0,
                failed_steps: 0,
                step_s: 0.0,
                user_bytes: 0,
            }
        });
        Self {
            spec,
            seed,
            service,
            client: service.client(),
            requests: Rng::new(seed, STREAM_REQUESTS),
            online,
            admitted: 0,
            request_spans: Vec::new(),
            tracer,
        }
    }

    fn next_user(&mut self) -> u32 {
        let population = if self.spec.online() {
            self.spec.hot_users
        } else {
            self.spec.n_users
        };
        self.requests.below(population)
    }

    fn read(&mut self, user: u32) -> Option<Vec<(u32, f32)>> {
        let client = &self.client;
        let trace_id = self.admitted;
        self.admitted += 1;
        let reply = self.tracer.span("serve.request", trace_id as u32, |_| {
            api::recommend(client, user, K)
        });
        if self.tracer.enabled() {
            self.request_spans
                .push((self.tracer.spans().len() as u32 - 1, trace_id));
        }
        reply.filter(|r| r.len() == K)
    }

    /// One step of the online loop; returns the hot users it updated.
    fn step(&mut self) -> Vec<u32> {
        let (spec, seed) = (self.spec, self.seed);
        let o = self
            .online
            .as_mut()
            .expect("steps only run on serve_online");
        o.reads_since_step = 0;
        let started = Instant::now();
        let online = &mut o.online;
        let step = self.tracer.span("serve.online_step", o.steps as u32, |_| {
            api::online_step(online)
        });
        o.step_s += started.elapsed().as_secs_f64();
        o.steps += 1;
        let Some(step) = step else {
            o.failed_steps += 1;
            return Vec::new();
        };
        let batch = o.consumed..o.consumed + step.events as u64;
        o.consumed = batch.end;
        o.user_bytes += step.user_bytes as u64;
        batch
            .map(|i| event_at(&spec, seed, i).row)
            .filter(|&u| u < spec.hot_users)
            .collect()
    }

    /// Warms the service up and checks the workload's shape; panics when
    /// the workload is not what its name says.  The bands are wide on
    /// purpose (measured: 0.50 of blocks visited, hit ratio 0.986, write
    /// share 0.29 to 0.32): they hold through timing noise and through an
    /// optimisation of the scan or the write path, and trip when the cache
    /// is off, nothing is written, or pruning never or always fires.
    pub fn warm_up(&mut self, check_shape: bool) {
        let before = api::serve_metrics_json(self.service);
        if self.spec.online() {
            for user in 0..self.spec.hot_users {
                assert!(
                    self.read(user).is_some(),
                    "warm-up read of user {user} failed"
                );
            }
            let warmed = api::serve_metrics_json(self.service);
            let started = Instant::now();
            for _ in 0..WARM_UP_CYCLES * READS_PER_STEP {
                self.op();
                self.after_op();
            }
            let wall_s = started.elapsed().as_secs_f64();
            let after = api::serve_metrics_json(self.service);
            let hit_ratio = hit_ratio(&warmed, &after);
            let write_share = self.online.as_ref().map(|o| o.step_s / wall_s);
            if check_shape {
                assert!(
                    hit_ratio.is_some_and(|r| r >= 0.97),
                    "serve_online: cache hit ratio {hit_ratio:?} is below 0.97"
                );
                assert!(
                    write_share.is_some_and(|s| (0.05..=0.5).contains(&s)),
                    "serve_online: the write path takes {write_share:?} of wall time, outside [0.05, 0.5]"
                );
            }
        } else {
            for _ in 0..WARM_UP_READS {
                let user = self.next_user();
                assert!(
                    self.read(user).is_some(),
                    "warm-up read of user {user} failed"
                );
            }
            let after = api::serve_metrics_json(self.service);
            let visited = visited_share(&before, &after);
            if check_shape {
                assert!(
                    visited.is_some_and(|v| (0.2..=0.8).contains(&v)),
                    "serve_scan: the exact scan visits {visited:?} of the blocks, outside [0.2, 0.8]"
                );
            }
        }
    }

    /// The untimed verify phase: `ops` replies checked against the oracle;
    /// returns how many disagreed.
    ///
    /// On `serve_scan` the users come from their own generator stream.  On
    /// `serve_online` each check is the first read of a hot user the step
    /// just before it updated, against the oracle on the snapshot now
    /// published — the read-your-write path through cache invalidation.
    pub fn verify(&mut self, ops: u32) -> u64 {
        let mut verify_users = Rng::new(self.seed, STREAM_VERIFY);
        let mut mismatches = 0;
        let mut checked = 0;
        while checked < ops {
            let users = if self.spec.online() {
                self.step()
            } else {
                vec![verify_users.below(self.spec.n_users)]
            };
            for user in users {
                let reply = self.read(user);
                let expected = oracle(&api::current_snapshot(self.service), user, K);
                mismatches += u64::from(reply.as_ref() != Some(&expected));
                checked += 1;
            }
        }
        mismatches + self.online.as_ref().map_or(0, |o| o.failed_steps)
    }
}

impl Ops for ServeLoad<'_> {
    fn op(&mut self) -> bool {
        let user = self.next_user();
        self.read(user).is_some()
    }

    fn after_op(&mut self) {
        let due = self.online.as_mut().is_some_and(|o| {
            o.reads_since_step += 1;
            o.reads_since_step == READS_PER_STEP
        });
        if due {
            self.step();
        }
    }
}

fn delta(before: &Json, after: &Json, key: &str) -> Option<f64> {
    Some(after.num(key)? - before.num(key)?)
}

fn hit_ratio(before: &Json, after: &Json) -> Option<f64> {
    let hits = delta(before, after, "serve_cache_hits")?;
    let misses = delta(before, after, "serve_cache_misses")?;
    (hits + misses > 0.0).then(|| hits / (hits + misses))
}

fn visited_share(before: &Json, after: &Json) -> Option<f64> {
    let scored = delta(before, after, "serve_blocks_scored")?;
    let pruned = delta(before, after, "serve_blocks_pruned")?;
    (scored + pruned > 0.0).then(|| scored / (scored + pruned))
}

/// What a fixed-count pass of reads did.
pub struct Pass {
    pub ops_per_s: f64,
    /// The user and the reply of each read, in order.
    pub replies: Vec<(u32, Vec<u32>)>,
    before: Json,
    after: Json,
    wall_s: f64,
    step_s: f64,
}

impl ServeLoad<'_> {
    /// `reads` reads (with the online steps between them), outside any
    /// round: the traced pass and its untraced twin.
    pub fn fixed_pass(&mut self, reads: u32) -> Pass {
        let before = api::serve_metrics_json(self.service);
        let step_s0 = self.online.as_ref().map_or(0.0, |o| o.step_s);
        let mut replies = Vec::with_capacity(reads as usize);
        let started = Instant::now();
        for _ in 0..reads {
            let user = self.next_user();
            let reply = self.read(user).unwrap_or_default();
            replies.push((user, reply.into_iter().map(|(item, _)| item).collect()));
            self.after_op();
        }
        let wall_s = started.elapsed().as_secs_f64();
        Pass {
            ops_per_s: f64::from(reads) / wall_s,
            replies,
            before,
            after: api::serve_metrics_json(self.service),
            wall_s,
            step_s: self.online.as_ref().map_or(0.0, |o| o.step_s) - step_s0,
        }
    }

    /// Joins the service's stage traces under the client spans and derives
    /// the per-layer values of a traced pass.
    pub fn derive(&mut self, pass: &Pass, fold_in: &TrainMetrics) -> BTreeMap<&'static str, f64> {
        let traces: BTreeMap<u64, Json> = api::traces(self.service)
            .into_iter()
            .filter_map(|t| Some((t.num("trace")? as u64, t)))
            .collect();
        for &(span, trace_id) in &self.request_spans {
            if let Some(trace) = traces.get(&trace_id) {
                self.tracer.join_stages(span, trace);
            }
        }
        let tr = &self.tracer;
        let reads = pass.replies.len() as f64;
        // Percentiles over the pass only: the request spans of the warm-up
        // come first and are skipped.
        let skip = self.request_spans.len() - pass.replies.len();
        let first = self.request_spans.get(skip).map_or(0, |&(span, _)| span);
        let of_pass = |name: &str| -> Vec<f64> {
            tr.spans()
                .iter()
                .filter(|s| s.name == name && s.parent.is_some_and(|p| p >= first))
                .map(|s| s.dur_ns() as f64)
                .collect()
        };
        let p50_us =
            |samples: &[f64]| (!samples.is_empty()).then(|| percentile(samples, 0.5) / 1e3);

        let mut out = BTreeMap::new();
        let mut put = |name: &'static str, value: Option<f64>| {
            if let Some(v) = value {
                out.insert(name, v);
            }
        };
        let first_ms = |name: &str| tr.durations_ns(name).first().map(|ns| ns / 1e6);
        put("serve.snapshot_build_ms", first_ms("serve.snapshot_build"));
        put("serve.service_start_ms", first_ms("serve.service_start"));

        let stages = [
            ("serve.stage_queue_wait_us_p50", "serve.stage.queue_wait"),
            ("serve.stage_coalesce_us_p50", "serve.stage.coalesce"),
            ("serve.stage_score_us_p50", "serve.stage.score"),
            ("serve.stage_merge_us_p50", "serve.stage.merge"),
            ("serve.stage_reply_us_p50", "serve.stage.reply"),
        ];
        for (metric, span) in stages {
            put(metric, p50_us(&of_pass(span)));
        }
        // Per request: the client's round trip, what the service itself
        // accounts for (its stages tile enqueue → reply), and the rest —
        // the client span's self time — which is dispatch: channel hops and
        // thread wake-ups on the way in and out.
        let self_ns = tr.self_times_ns("serve.request");
        let all_request_ids = tr.ids_named("serve.request");
        let mut dispatch = Vec::new();
        let mut e2e = Vec::new();
        for (id, own) in all_request_ids.iter().zip(&self_ns) {
            if *id >= first {
                let span = &tr.spans()[*id as usize];
                dispatch.push(*own);
                e2e.push(span.dur_ns() as f64 - own);
            }
        }
        put("serve.request_e2e_us_p50", p50_us(&e2e));
        put("serve.dispatch_us_p50", p50_us(&dispatch));

        let counter = |key: &str| delta(&pass.before, &pass.after, key);
        put(
            "serve.blocks_scored_per_query",
            counter("serve_blocks_scored").map(|v| v / reads),
        );
        put(
            "serve.blocks_pruned_per_query",
            counter("serve_blocks_pruned").map(|v| v / reads),
        );
        put(
            "serve.bytes_scanned_per_query",
            counter("serve_bytes_scanned").map(|v| v / reads),
        );
        let score_ns: f64 = of_pass("serve.stage.score").iter().sum();
        put(
            "serve.scan_gbps",
            counter("serve_bytes_scanned")
                .filter(|_| score_ns > 0.0)
                .map(|b| b / score_ns),
        );
        put(
            "serve.cache_hit_ratio",
            hit_ratio(&pass.before, &pass.after).or(Some(0.0)),
        );

        if let Some(o) = &self.online {
            put(
                "serve.online_step_ms_p50",
                p50_us(&tr.durations_ns("serve.online_step")).map(|us| us / 1e3),
            );
            put("serve.online_write_share", Some(pass.step_s / pass.wall_s));
            put(
                "serve.freshness_ms_p50",
                pass.after.num("serve_freshness_p50_ns").map(|ns| ns / 1e6),
            );
            put(
                "serve.delta_user_bytes_per_publish",
                (o.steps > o.failed_steps)
                    .then(|| o.user_bytes as f64 / (o.steps - o.failed_steps) as f64),
            );
            put(
                "core.fold_in_us_p50",
                api::train_metrics_json(fold_in)
                    .num("train_fold_in_p50_ns")
                    .map(|ns| ns / 1e3),
            );
        }
        out
    }
}

/// In-thread scans of the published snapshot, and one full publish.
fn snapshot_probes(
    service: &TopKService,
    spec: &ServeSpec,
    seed: u64,
    users: &[u32],
    tr: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let snapshot = api::current_snapshot(service);
    for (i, &user) in users.iter().enumerate() {
        tr.span("serve.recommend_one", i as u32, |_| {
            api::recommend_one(&snapshot, user, K)
        });
    }
    let (x, theta) = catalog(spec, seed);
    let fresh = api::snapshot_from_factors(x, theta);
    tr.span("serve.publish_full", 0, |_| api::publish(service, fresh));
    BTreeMap::from([
        (
            "serve.recommend_one_us_p50",
            percentile(&tr.durations_ns("serve.recommend_one"), 0.5) / 1e3,
        ),
        (
            "serve.publish_full_ms",
            tr.durations_ns("serve.publish_full")[0] / 1e6,
        ),
    ])
}

/// Replays `requests` on a service that stores or scans the same catalog
/// differently (`kind` is `i8` or `approx`), and compares its replies with
/// the exact ones.
fn replay(
    snapshot: &FactorSnapshot,
    scan: Scan,
    requests: &[(u32, Vec<u32>)],
) -> BTreeMap<&'static str, f64> {
    let started = Instant::now();
    let service = api::service_start(snapshot.clone(), Some(0), scan, None);
    let start_ms = started.elapsed().as_secs_f64() * 1e3;
    let client = service.client();
    let before = api::serve_metrics_json(&service);
    let mut latency_ns = Vec::with_capacity(requests.len());
    let mut found = 0usize;
    for (user, exact) in requests {
        let t = Instant::now();
        let reply = api::recommend(&client, *user, K).unwrap_or_default();
        latency_ns.push(t.elapsed().as_nanos() as f64);
        found += reply
            .iter()
            .filter(|(item, _)| exact.contains(item))
            .count();
    }
    let after = api::serve_metrics_json(&service);
    let p50_us = percentile(&latency_ns, 0.5) / 1e3;
    let recall = found as f64 / (requests.len() * K) as f64;
    match scan {
        Scan::Approx => BTreeMap::from([
            ("serve.scan_approx_us_p50", p50_us),
            ("serve.recall_at_k_approx", recall),
        ]),
        _ => {
            let mut out = BTreeMap::from([
                ("serve.scan_i8_us_p50", p50_us),
                ("serve.recall_at_k_i8", recall),
                // Starting the service re-encodes the catalog; the rest of
                // `start` is spawning one thread.
                ("serve.reencode_i8_ms", start_ms),
            ]);
            out.extend(delta(&before, &after, "serve_bytes_scanned").map(|b| {
                (
                    "serve.bytes_scanned_per_query_i8",
                    b / requests.len() as f64,
                )
            }));
            out
        }
    }
}

/// The traced pass: set-up with every request traced, `reads` reads (and
/// the online steps between them), the service's stage events joined under
/// the client spans, and the per-layer values derived from them.  On
/// `serve_scan` the first `replayed` requests are then replayed on an I8
/// and on an approximate service.  With `untraced_twin`, the same pass once
/// more on a fresh service with tracing off.
pub fn traced(
    workload: Workload,
    quick: bool,
    seed: u64,
    reads: u32,
    replayed: usize,
    untraced_twin: bool,
) -> Traced {
    let spec = spec(workload, quick);
    let mut tr = Tracer::new(true);
    // Room for the warm-up's traces too: none may fall out of the ring.
    let capacity = reads as usize + 8_192;
    let service = start(&spec, seed, Some(capacity), &mut tr);
    let fold_in = Arc::new(TrainMetrics::new());
    let mut load = ServeLoad::new(&service, spec, seed, tr, Some(Arc::clone(&fold_in)));
    load.warm_up(!quick);
    let pass = load.fixed_pass(reads);
    let mut metrics = load.derive(&pass, &fold_in);
    let mut tr = std::mem::replace(&mut load.tracer, Tracer::new(false));
    drop(load);

    if workload == Workload::ServeScan {
        let snapshot = api::current_snapshot(&service);
        let requests = &pass.replies[..replayed.min(pass.replies.len())];
        metrics.extend(replay(&snapshot, Scan::I8, requests));
        metrics.extend(replay(&snapshot, Scan::Approx, requests));
    }
    let probe_users: Vec<u32> = pass.replies.iter().take(512).map(|(u, _)| *u).collect();
    metrics.extend(snapshot_probes(
        &service,
        &spec,
        seed,
        &probe_users,
        &mut tr,
    ));

    let untraced_ops_per_s = untraced_twin.then(|| {
        let service = start(&spec, seed, None, &mut Tracer::new(false));
        let mut twin = ServeLoad::new(&service, spec, seed, Tracer::new(false), None);
        twin.warm_up(false);
        twin.fixed_pass(reads).ops_per_s
    });
    Traced {
        metrics,
        attempted: u64::from(reads),
        failed: pass.replies.iter().filter(|(_, r)| r.len() != K).count() as u64,
        ops_per_s: pass.ops_per_s,
        untraced_ops_per_s,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_agrees_with_recommend_one_on_a_small_catalog() {
        let spec = ServeSpec {
            n_users: 50,
            n_items: 1_000,
            hot_users: 0,
        };
        let (users, items) = catalog(&spec, 7);
        let snapshot = api::snapshot_from_factors(users, items);
        for user in 0..spec.n_users {
            let got = api::recommend_one(&snapshot, user, K);
            assert_eq!(got, oracle(&snapshot, user, K), "user {user}");
            assert_eq!(got.len(), K);
            assert!(got.windows(2).all(|w| w[0].1 >= w[1].1));
        }
        assert!(oracle(&snapshot, spec.n_users, K).is_empty());
    }

    #[test]
    fn event_stream_is_a_pure_function_with_one_hot_user_per_batch() {
        let spec = spec(Workload::ServeOnline, true);
        for batch in 0..50u64 {
            let events: Vec<Entry> = (0..STEP_EVENTS as u64)
                .map(|s| event_at(&spec, 7, batch * STEP_EVENTS as u64 + s))
                .collect();
            assert!(events[0].row < spec.hot_users);
            let mut cold: Vec<u32> = events[1..].iter().map(|e| e.row).collect();
            assert!(cold
                .iter()
                .all(|&u| u >= spec.hot_users && u < spec.n_users));
            cold.dedup();
            assert_eq!(
                cold.len(),
                STEP_EVENTS - 1,
                "cold users of a batch are distinct"
            );
            for e in &events {
                assert!((0..POOL_ITEMS).any(|j| pool_item(e.row, j, spec.n_items) == e.col));
                assert!((1.0..=5.0).contains(&e.val));
                assert_eq!(
                    *e,
                    event_at(
                        &spec,
                        7,
                        batch * STEP_EVENTS as u64
                            + events.iter().position(|x| x == e).unwrap() as u64
                    )
                );
            }
        }
        let mut stream = PoolStream {
            spec,
            seed: 7,
            next: 0,
        };
        assert_eq!(stream.next_rating(), Some(event_at(&spec, 7, 0)));
        assert_eq!(stream.next_rating(), Some(event_at(&spec, 7, 1)));
    }

    #[test]
    fn pool_items_of_a_user_are_distinct() {
        for n_items in [4_000u32, 20_000, 100_000] {
            for user in [0u32, 1, 1_999, 9_999] {
                let mut pool: Vec<u32> = (0..POOL_ITEMS)
                    .map(|j| pool_item(user, j, n_items))
                    .collect();
                pool.sort_unstable();
                pool.dedup();
                assert_eq!(pool.len(), POOL_ITEMS as usize);
            }
        }
    }

    #[test]
    fn quick_serve_online_reads_its_own_writes() {
        let spec = spec(Workload::ServeOnline, true);
        let service = start(&spec, 7, None, &mut Tracer::new(false));
        let mut load = ServeLoad::new(&service, spec, 7, Tracer::new(false), None);
        load.warm_up(false);
        assert_eq!(load.verify(8), 0);
        let online = load.online.as_ref().unwrap();
        assert!(online.steps >= 8 && online.failed_steps == 0 && online.step_s > 0.0);
    }
}
