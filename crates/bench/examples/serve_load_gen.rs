//! Closed-loop load generator for the `cumf-serve` retrieval service.
//!
//! Spawns N client threads that each keep exactly one request in flight
//! (closed loop), against a batching top-k service over a synthetic factor
//! snapshot; user popularity is skewed so the LRU cache sees realistic
//! traffic.  While the clients run, the main thread hot-swaps fresh
//! snapshots to exercise publication under load.  Finishes by printing the
//! achieved throughput, the service's own metrics, and a comparison against
//! naive per-request full-catalog scoring.
//!
//! `--workers` sizes the scorer worker pool and `--shards` the item
//! sharding of each scoring pass (both default to 1, the PR 2 baseline).
//! `--fold-in N` additionally performs N **incremental delta publishes**
//! mid-load: each one genuinely solves a batch of users' normal equations
//! directly against the serving snapshot's item *segments*
//! (`cumf_core::foldin::fold_in_users_segmented` — no contiguous
//! catalog-order Θ is ever materialized) and publishes the changed rows
//! through the `O(u·f)` copy-on-write path, which re-scores the changed
//! users' cached replies.
//!
//! `--stream N` closes the online loop end to end: N synthetic rating
//! events (a skewed re-rate mix plus a trickle of brand-new users past the
//! catalog edge) are replayed through `cumf_serve::OnlineLoop` —
//! mini-batched ingestion → incremental update → delta publish — against
//! the live service while the clients keep reading.  `--stream-mode`
//! selects the updater (`fold-in`, the default, or `sgd`), and every
//! event's ingest→publish latency lands in the `serve_freshness` histogram
//! of the exported metrics.  The run fails if any event goes missing from
//! the freshness histogram or if a streamed delta copies item factors.
//!
//! The run **fails** (non-zero exit) if any worker panicked, if any request
//! on this warm catalog (every item trained, no exclusions, catalog ≥ k)
//! came back with fewer than `k` results — the result-shrink regression
//! class the pre-PR-3 Cosine bug belonged to — or if a fold-in delta was
//! rejected.
//!
//! `--recall FLOOR` adds an approximate-retrieval gate after the load
//! phase: recall@k of the `--approx-epsilon` policy (default
//! [`cumf_serve::DEFAULT_APPROX_EPSILON`]) is measured against exact
//! ground truth on the live snapshot, and the run fails if mean recall
//! falls below `FLOOR`, if any exact-mode request through the live service
//! diverges from ground truth, or if any approximate list comes back
//! short.
//!
//! `--precision f32|f16|i8` serves the catalog at the given storage
//! precision (quantized segments decoded tile-by-tile at scan time, with
//! the exact-f32 rerank re-scoring the over-fetched candidates).  With a
//! quantized precision, `--recall FLOOR` gates the **post-rerank** recall
//! of the quantized path against the exact-f32 ground truth instead of the
//! epsilon gate, asserts the quantized scan moved strictly fewer bytes than
//! the exact baseline, and requires the `serve_rerank` histogram to have
//! recorded the load-phase traffic.
//!
//! `--metrics-json PATH` turns on the observability reporter: a sidecar
//! thread polls [`cumf_serve::TopKService::window_report`] every 250 ms and
//! prints a one-line since-last-poll summary (requests, e2e p50/p99, queue
//! depth) while the load runs, and on completion the **cumulative** metrics
//! — per-stage latency percentiles included — are exported as flat JSON to
//! `PATH` for CI to assert on.  `--trace-jsonl PATH` additionally dumps the
//! sampled per-request stage traces (1-in-`trace_sample`) as JSONL.
//!
//! ```text
//! usage: serve_load_gen [--users N] [--items N] [--f F] [--requests N]
//!                       [--clients N] [--k K] [--publishes N] [--fold-in N]
//!                       [--stream N] [--stream-mode fold-in|sgd]
//!                       [--naive-sample N] [--workers N] [--shards N]
//!                       [--recall FLOOR] [--approx-epsilon EPS]
//!                       [--precision f32|f16|i8]
//!                       [--metrics-json PATH] [--trace-jsonl PATH]
//! ```
//!
//! CI runs `--requests 200 --workers 4 --shards 4 --fold-in 2 --stream 96
//! --recall 0.95` as an end-to-end smoke test of the sharded-pool serving
//! path, the incremental fold-in → delta-publish path, the closed online
//! loop with its freshness histogram, and the approximate-retrieval recall
//! floor.

use cumf_core::als::AlsEngine;
use cumf_core::config::AlsConfig;
use cumf_core::foldin::{fold_in_users_segmented, ratings_rows};
use cumf_core::sgd::{SgdConfig, SgdEngine};
use cumf_data::stream::{ReplayStream, StreamBatcher};
use cumf_linalg::blas::dot;
use cumf_linalg::{FactorMatrix, Precision};
use cumf_serve::{
    measure_recall, report_from_lists, ApproxPolicy, FactorSnapshot, OnlineLoop, OnlineLoopConfig,
    OnlineReport, Query, ServeConfig, TopKIndex, TopKService, DEFAULT_APPROX_EPSILON,
};
use cumf_sparse::{Csr, Entry};
use rand::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which incremental updater `--stream` drives through the online loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamMode {
    FoldIn,
    Sgd,
}

impl StreamMode {
    fn name(self) -> &'static str {
        match self {
            StreamMode::FoldIn => "fold-in",
            StreamMode::Sgd => "sgd",
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    users: usize,
    items: usize,
    f: usize,
    requests: usize,
    clients: usize,
    k: usize,
    publishes: usize,
    fold_in: usize,
    /// Rating events to replay through the closed online loop (0 = off).
    stream: usize,
    /// Incremental updater for the `--stream` loop.
    stream_mode: StreamMode,
    naive_sample: usize,
    workers: usize,
    shards: usize,
    /// Mean-recall floor for the post-load approximate gate (`None` skips
    /// the gate entirely).
    recall: Option<f64>,
    /// Epsilon of the policy the recall gate measures.
    approx_epsilon: f32,
    /// Storage precision of the served item segments.
    precision: Precision,
    /// Where to write the final cumulative metrics as flat JSON (also
    /// enables the 250 ms windowed reporter while the load runs).
    metrics_json: Option<std::path::PathBuf>,
    /// Where to dump the sampled per-request stage traces as JSONL.
    trace_jsonl: Option<std::path::PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            users: 10_000,
            items: 100_000,
            f: 32,
            requests: 10_000,
            clients: 8,
            k: 10,
            publishes: 2,
            fold_in: 0,
            stream: 0,
            stream_mode: StreamMode::FoldIn,
            naive_sample: 50,
            workers: 1,
            shards: 1,
            recall: None,
            approx_epsilon: DEFAULT_APPROX_EPSILON,
            precision: Precision::F32,
            metrics_json: None,
            trace_jsonl: None,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            println!(
                "usage: serve_load_gen [--users N] [--items N] [--f F] [--requests N] \
                 [--clients N] [--k K] [--publishes N] [--fold-in N] [--stream N] \
                 [--stream-mode fold-in|sgd] [--naive-sample N] \
                 [--workers N] [--shards N] [--recall FLOOR] [--approx-epsilon EPS] \
                 [--precision f32|f16|i8] [--metrics-json PATH] [--trace-jsonl PATH]"
            );
            std::process::exit(0);
        }
        let raw = argv
            .get(i + 1)
            .unwrap_or_else(|| panic!("missing value for {flag}"));
        let int = |raw: &str| {
            raw.parse::<usize>()
                .unwrap_or_else(|e| panic!("bad value for {flag}: {e}"))
        };
        let float = |raw: &str| {
            raw.parse::<f64>()
                .unwrap_or_else(|e| panic!("bad value for {flag}: {e}"))
        };
        match flag {
            "--users" => args.users = int(raw),
            "--items" => args.items = int(raw),
            "--f" => args.f = int(raw),
            "--requests" => args.requests = int(raw),
            "--clients" => args.clients = int(raw).max(1),
            "--k" => args.k = int(raw),
            "--publishes" => args.publishes = int(raw),
            "--fold-in" => args.fold_in = int(raw),
            "--stream" => args.stream = int(raw),
            "--stream-mode" => {
                args.stream_mode = match raw.as_str() {
                    "fold-in" => StreamMode::FoldIn,
                    "sgd" => StreamMode::Sgd,
                    other => panic!("bad value for --stream-mode: {other} (fold-in|sgd)"),
                }
            }
            "--naive-sample" => args.naive_sample = int(raw),
            "--workers" => args.workers = int(raw).max(1),
            "--shards" => args.shards = int(raw).max(1),
            "--recall" => {
                let floor = float(raw);
                assert!(
                    (0.0..=1.0).contains(&floor),
                    "--recall must be within [0, 1], got {floor}"
                );
                args.recall = Some(floor);
            }
            "--approx-epsilon" => args.approx_epsilon = float(raw) as f32,
            "--precision" => {
                args.precision = Precision::parse(raw)
                    .unwrap_or_else(|| panic!("bad value for --precision: {raw} (f32|f16|i8)"))
            }
            "--metrics-json" => args.metrics_json = Some(raw.into()),
            "--trace-jsonl" => args.trace_jsonl = Some(raw.into()),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    args
}

fn snapshot(args: &Args, seed: u64) -> FactorSnapshot {
    FactorSnapshot::from_factors(
        FactorMatrix::random(args.users, args.f, 0.5, seed),
        FactorMatrix::random(args.items, args.f, 0.5, seed ^ 0xABCD),
    )
}

/// Zipf-ish skew: squaring a uniform sample concentrates traffic on low
/// user ids, the way real request logs concentrate on active users.
fn skewed_user(rng: &mut StdRng, users: usize) -> u32 {
    let u: f64 = rng.random::<f64>();
    ((u * u * users as f64) as usize).min(users - 1) as u32
}

fn main() {
    let args = parse_args();
    println!(
        "serve_load_gen: {} requests, {} clients, catalog {} items, {} users, f={}, k={}, \
         {} workers, {} item shards, {} item segments",
        args.requests,
        args.clients,
        args.items,
        args.users,
        args.f,
        args.k,
        args.workers,
        args.shards,
        args.precision,
    );

    let initial = snapshot(&args, 1);

    // Naive baseline: score the whole catalog and sort, per request.
    let naive_sample = args.naive_sample.min(args.requests).max(1);
    let naive_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(7);
    let naive_theta = initial.item_factors_matrix();
    for _ in 0..naive_sample {
        let user = skewed_user(&mut rng, args.users);
        let x_u = initial.user_vector(user).expect("user in range");
        let theta = &naive_theta;
        let mut scored: Vec<(u32, f32)> = (0..theta.len() as u32)
            .map(|v| (v, dot(x_u, theta.vector(v as usize))))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(args.k);
        std::hint::black_box(scored);
    }
    let naive_per_request = naive_start.elapsed() / naive_sample as u32;
    let naive_rps = 1.0 / naive_per_request.as_secs_f64();
    println!(
        "naive per-request scoring: {naive_per_request:?}/request ({naive_rps:.0} req/s single-threaded, {naive_sample} sampled)"
    );

    // Batched serving under closed-loop load, on the configured pool.
    let service = TopKService::start(
        initial,
        ServeConfig {
            workers: args.workers,
            shards: args.shards,
            precision: args.precision,
            ..Default::default()
        },
    );
    let served = AtomicU64::new(0);
    let short_results = AtomicU64::new(0);
    let mut fold_in_failures = 0u64;
    let mut stream_report: Option<OnlineReport> = None;
    let start = Instant::now();
    let per_client = args.requests / args.clients;
    let remainder = args.requests % args.clients;
    std::thread::scope(|s| {
        // Windowed observability reporter: a since-last-poll view of the
        // pipeline every 250 ms while the clients run.  Exits once every
        // request has been served, so the scope can join.
        if args.metrics_json.is_some() {
            let service = &service;
            let served = &served;
            let total = args.requests as u64;
            s.spawn(move || loop {
                std::thread::sleep(Duration::from_millis(250));
                let done = served.load(Ordering::Relaxed) >= total;
                let w = service.window_report();
                println!(
                    "[window] {} req  e2e p50 {:?} p99 {:?}  score p99 {:?}  queue hwm {}",
                    w.window.requests,
                    Duration::from_nanos(w.window.request_e2e.quantile(0.5)),
                    Duration::from_nanos(w.window.request_e2e.quantile(0.99)),
                    Duration::from_nanos(w.window.stage(cumf_serve::Stage::Score).quantile(0.99)),
                    w.cumulative.queue_depth_high_water
                );
                if done {
                    break;
                }
            });
        }
        for c in 0..args.clients {
            let client = service.client();
            let served = &served;
            let short_results = &short_results;
            let args = &args;
            let budget = per_client + usize::from(c < remainder);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + c as u64);
                for _ in 0..budget {
                    let user = skewed_user(&mut rng, args.users);
                    let recs = client
                        .recommend(user, args.k, &[])
                        .expect("service alive for the whole run");
                    assert!(recs.len() <= args.k);
                    // Warm catalog, no exclusions, catalog >= k: anything
                    // short of k results is a shrink regression.
                    if recs.len() < args.k.min(args.items) {
                        short_results.fetch_add(1, Ordering::Relaxed);
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Hot-swap fresh snapshots while the clients hammer the service.
        for p in 0..args.publishes {
            std::thread::sleep(Duration::from_millis(20));
            let generation = service.publish(snapshot(&args, 2 + p as u64));
            println!("published snapshot generation {generation} mid-load");
        }
        // Incremental fold-ins: solve a small batch of users' normal
        // equations against the frozen item factors and publish only their
        // rows through the copy-on-write delta path.
        let mut rng = StdRng::seed_from_u64(4242);
        for fi in 0..args.fold_in {
            std::thread::sleep(Duration::from_millis(20));
            let snap = service.snapshot();
            let batch_users: Vec<u32> =
                (0..16).map(|_| skewed_user(&mut rng, args.users)).collect();
            let rating_lists: Vec<Vec<(u32, f32)>> = batch_users
                .iter()
                .map(|_| {
                    (0..20)
                        .map(|_| {
                            let item = ((rng.random::<f64>() * args.items as f64) as u32)
                                .min(args.items as u32 - 1);
                            (item, 1.0 + rng.random::<f32>() * 4.0)
                        })
                        .collect()
                })
                .collect();
            let ratings = ratings_rows(&rating_lists, args.items as u32);
            // The segmented solve reads the serving segments in place —
            // no contiguous catalog-order Θ is ever materialized.
            let rows = fold_in_users_segmented(&ratings, &snap.items().views(), args.f, 0.05, None);
            let mut delta = snap.delta();
            for (i, &u) in batch_users.iter().enumerate() {
                delta.update_user(u, rows.vector(i));
            }
            match service.publish_delta(&delta) {
                Ok((generation, stats)) => {
                    if stats.item_factor_bytes_copied != 0 {
                        fold_in_failures += 1;
                        eprintln!(
                            "fold-in {fi}: copied {} item factor bytes — the incremental \
                             path must never touch Θ",
                            stats.item_factor_bytes_copied
                        );
                    }
                    println!(
                        "fold-in {fi}: delta generation {generation} ({} users, \
                         {} factor bytes copied, {} blocks shared)",
                        stats.changed_users,
                        stats.user_factor_bytes_copied,
                        stats.user_blocks_shared
                    )
                }
                Err(e) => {
                    fold_in_failures += 1;
                    eprintln!("fold-in {fi} rejected: {e}");
                }
            }
        }
        // Closed online loop: replay synthetic rating events through
        // ingestion → incremental update → delta publish against the live
        // service, so every event's ingest→publish freshness lands in the
        // exported `serve_freshness` histogram while clients keep reading.
        if args.stream > 0 {
            let mut rng = StdRng::seed_from_u64(9898);
            let events: Vec<Entry> = (0..args.stream)
                .map(|i| {
                    // Mostly re-rates from the skewed existing population,
                    // plus a trickle of brand-new users past the catalog
                    // edge to exercise the append path.
                    let row = if i % 16 == 15 {
                        (args.users + i % 4) as u32
                    } else {
                        skewed_user(&mut rng, args.users)
                    };
                    let col = ((rng.random::<f64>() * args.items as f64) as u32)
                        .min(args.items as u32 - 1);
                    Entry {
                        row,
                        col,
                        val: 1.0 + rng.random::<f32>() * 4.0,
                    }
                })
                .collect();
            let batcher =
                StreamBatcher::spawn(ReplayStream::from_entries(events, args.items as u32), 256);
            // The loop's engine contributes only its rank and λ: fold-in
            // re-solves against the *published snapshot's* item segments
            // and SGD absorbs the stream itself, so an empty training
            // matrix over the catalog is the honest seed.
            let empty = Csr::from_raw(0, args.items as u32, vec![0], vec![], vec![])
                .expect("empty training matrix");
            let config = OnlineLoopConfig {
                max_batch_events: 64,
                ..Default::default()
            };
            let metrics = service.metrics_handle();
            let report = match args.stream_mode {
                StreamMode::FoldIn => OnlineLoop::fold_in(
                    Box::new(AlsEngine::new(
                        AlsConfig {
                            f: args.f,
                            lambda: 0.05,
                            ..Default::default()
                        },
                        empty.clone(),
                    )),
                    &empty,
                    batcher,
                    &service,
                    metrics,
                    config,
                )
                .run(),
                StreamMode::Sgd => OnlineLoop::sgd(
                    SgdEngine::new(
                        SgdConfig {
                            f: args.f,
                            lambda: 0.05,
                            ..Default::default()
                        },
                        empty,
                    ),
                    batcher,
                    &service,
                    metrics,
                    config,
                )
                .run(),
            }
            .expect("online stream publish failed");
            println!(
                "stream[{}]: {} events in {} batches → {} delta publishes \
                 ({} user rows updated, {} appended), generation {}",
                args.stream_mode.name(),
                report.events,
                report.batches,
                report.publishes,
                report.users_updated,
                report.users_appended,
                report.last_generation
            );
            stream_report = Some(report);
        }
    });
    let elapsed = start.elapsed();
    let total = served.load(Ordering::Relaxed);
    let rps = total as f64 / elapsed.as_secs_f64();

    println!("batched serving: {total} requests in {elapsed:.2?} → {rps:.0} req/s");
    println!(
        "speedup over naive single-threaded scoring: {:.1}×",
        rps / naive_rps
    );
    println!("--- service metrics ---");
    let metrics = service.metrics();
    println!("{metrics}");

    // Machine-readable exports for CI and offline analysis.
    if let Some(path) = &args.metrics_json {
        let json = metrics.exporter().to_json();
        std::fs::write(path, &json).expect("write --metrics-json file");
        println!("wrote cumulative metrics JSON to {}", path.display());
    }
    if let Some(path) = &args.trace_jsonl {
        let jsonl = service.traces_jsonl();
        std::fs::write(path, &jsonl).expect("write --trace-jsonl file");
        println!(
            "wrote {} sampled stage traces to {}",
            jsonl.lines().count(),
            path.display()
        );
    }

    assert_eq!(
        total as usize, args.requests,
        "every request must be served"
    );
    // A worker panic is a failed run even if every request squeaked through
    // on the survivors: CI smoke treats this as the red flag it is.
    if metrics.worker_panics > 0 {
        eprintln!(
            "FAIL: {} worker(s) panicked during the run: {:?}",
            metrics.worker_panics,
            service.poisoned()
        );
        std::process::exit(1);
    }
    // Every item in this catalog is trained and no request excludes
    // anything, so a result shorter than k is a shrink regression (the
    // pre-PR-3 Cosine zero-norm bug class) — fail the smoke run on it.
    let short = short_results.load(Ordering::Relaxed);
    if short > 0 {
        eprintln!(
            "FAIL: {short} request(s) returned fewer than k={} results on a warm catalog",
            args.k
        );
        std::process::exit(1);
    }
    if fold_in_failures > 0 {
        eprintln!("FAIL: {fold_in_failures} fold-in delta publish(es) were rejected");
        std::process::exit(1);
    }
    // Closed-loop gate: every streamed rating must have been reflected in a
    // published snapshot exactly once, with a well-formed freshness
    // distribution.
    if let Some(report) = stream_report {
        let fresh = &metrics.freshness;
        println!(
            "stream freshness: {} events, ingest→publish p50 {:?} p99 {:?} max {:?}",
            fresh.count(),
            Duration::from_nanos(fresh.quantile(0.5)),
            Duration::from_nanos(fresh.quantile(0.99)),
            Duration::from_nanos(fresh.max_ns()),
        );
        if report.events != args.stream as u64 || fresh.count() != args.stream as u64 {
            eprintln!(
                "FAIL: streamed {} events but the loop reflected {} and the freshness \
                 histogram recorded {}",
                args.stream,
                report.events,
                fresh.count()
            );
            std::process::exit(1);
        }
        if fresh.quantile(0.99) < fresh.quantile(0.5) {
            eprintln!("FAIL: freshness histogram is malformed (p99 below p50)");
            std::process::exit(1);
        }
    }

    // Approximate-retrieval gate: measured recall@k of the configured
    // epsilon against exact ground truth on the snapshot the service is
    // actually serving, plus a live-service divergence check — exact-mode
    // requests must match ground truth bit-for-bit even when approximate
    // traffic shares the same workers and cache.
    // Quantized-serving gate: post-rerank recall of the quantized path
    // against exact-f32 ground truth (re-derived from the retained exact
    // rows), a strict bytes-moved win, full-length live replies, and a
    // populated rerank histogram.
    if let Some(floor) = args.recall.filter(|_| args.precision != Precision::F32) {
        let snap = service.snapshot();
        assert_eq!(
            snap.items().precision(),
            args.precision,
            "service must be serving the requested precision"
        );
        let exact_snap = Arc::new(snap.reencoded(Precision::F32));
        let config = ServeConfig {
            shards: args.shards,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(777);
        let queries: Vec<Query> = (0..128)
            .map(|_| Query::new(skewed_user(&mut rng, args.users), args.k))
            .collect();
        let truth = TopKIndex::new(Arc::clone(&exact_snap), &config);
        let quant = TopKIndex::new(Arc::clone(&snap), &config);
        let (want, want_stats) = truth.query_batch_stats(&queries);
        let (got, got_stats) = quant.query_batch_stats(&queries);
        let quant_bytes = got_stats.bytes_scanned;
        let report = report_from_lists(&want, &got, want_stats, got_stats);
        println!(
            "quantized recall gate ({}, floor {floor:.2}): {report}; bytes {quant_bytes} vs \
             exact {} ({:.2}x)",
            args.precision,
            want_stats.bytes_scanned,
            want_stats.bytes_scanned as f64 / quant_bytes as f64,
        );
        if report.mean_recall < floor {
            eprintln!(
                "FAIL: {} post-rerank mean recall {:.4} below the {floor:.2} floor",
                args.precision, report.mean_recall
            );
            std::process::exit(1);
        }
        if quant_bytes >= want_stats.bytes_scanned {
            eprintln!(
                "FAIL: {} scan moved {quant_bytes} bytes, not fewer than the exact {}",
                args.precision, want_stats.bytes_scanned
            );
            std::process::exit(1);
        }
        let client = service.client();
        let mut short_quant = 0u64;
        for q in queries.iter().take(32) {
            let recs = client
                .recommend(q.user, q.k, &[])
                .expect("service alive for the gate");
            if recs.len() < args.k.min(args.items) {
                short_quant += 1;
            }
        }
        if short_quant > 0 {
            eprintln!(
                "FAIL: {short_quant} quantized request(s) came back short through the service"
            );
            std::process::exit(1);
        }
        // The load phase itself must have exercised the rerank: every
        // scored batch over a quantized store rescoring its over-fetch.
        if metrics.rerank.count() == 0 || metrics.rerank_candidates == 0 {
            eprintln!(
                "FAIL: quantized load recorded no rerank activity (count {}, candidates {})",
                metrics.rerank.count(),
                metrics.rerank_candidates
            );
            std::process::exit(1);
        }
        if metrics.bytes_scanned == 0 {
            eprintln!("FAIL: quantized load recorded no scanned bytes");
            std::process::exit(1);
        }
    }

    if let Some(floor) = args.recall.filter(|_| args.precision == Precision::F32) {
        let policy = ApproxPolicy {
            epsilon: args.approx_epsilon,
            target_recall: floor,
            ..ApproxPolicy::default()
        };
        let snap = service.snapshot();
        let mut rng = StdRng::seed_from_u64(777);
        let queries: Vec<Query> = (0..128)
            .map(|_| Query::new(skewed_user(&mut rng, args.users), args.k))
            .collect();
        let config = ServeConfig {
            shards: args.shards,
            ..Default::default()
        };
        let report = measure_recall(&snap, &queries, &config, &policy);
        println!(
            "recall gate (epsilon {:.2}, floor {floor:.2}): {report}",
            args.approx_epsilon
        );
        if report.mean_recall < floor {
            eprintln!(
                "FAIL: mean recall {:.4} below the {floor:.2} floor at epsilon {:.2}",
                report.mean_recall, args.approx_epsilon
            );
            std::process::exit(1);
        }
        let truth = TopKIndex::new(Arc::clone(&snap), &config);
        let client = service.client();
        let mut exact_divergent = 0u64;
        let mut short_approx = 0u64;
        for q in queries.iter().take(32) {
            let expect = truth.query_batch(std::slice::from_ref(q)).remove(0);
            let exact = client
                .recommend_exact(q.user, q.k, &[])
                .expect("service alive for the gate");
            if exact != expect {
                exact_divergent += 1;
            }
            let approx = client
                .recommend_approx(q.user, q.k, &[], policy)
                .expect("service alive for the gate");
            if approx.len() < expect.len() {
                short_approx += 1;
            }
        }
        if exact_divergent > 0 {
            eprintln!("FAIL: {exact_divergent} exact-mode request(s) diverged from ground truth");
            std::process::exit(1);
        }
        if short_approx > 0 {
            eprintln!(
                "FAIL: {short_approx} approximate request(s) returned fewer results than exact"
            );
            std::process::exit(1);
        }
    }
}
