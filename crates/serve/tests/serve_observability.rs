//! End-to-end observability contract of the serving tier.
//!
//! The load-bearing claim: the five pipeline stages partition each
//! request's end-to-end latency, because adjacent stages share their
//! boundary timestamps inside the batcher.  The acceptance test pins that
//! the **sum of stage means equals the e2e mean** (within 10 %, though the
//! construction makes it exact up to float rounding) on a synthetic load.
//! Around it: queue-depth high-water, windowed report semantics through
//! the service handle, trace sampling, and the exported JSON contract: its
//! keys after a closed online loop, a loaded service that stays whole
//! through publishes, fold-ins and a stream, and the rerank and byte
//! counters of quantized serving.

use cumf_core::als::AlsEngine;
use cumf_core::config::AlsConfig;
use cumf_core::foldin::{fold_in_users_segmented, ratings_rows};
use cumf_data::stream::{ReplayStream, StreamBatcher};
use cumf_linalg::{FactorMatrix, Precision};
use cumf_serve::{
    Counter, FactorSnapshot, Latency, OnlineLoop, OnlineLoopConfig, OnlineReport, ServeConfig,
    Stage, TopKService,
};
use cumf_sparse::{Csr, Entry};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn snapshot(seed: u64) -> FactorSnapshot {
    FactorSnapshot::from_factors(
        FactorMatrix::random(64, 8, 1.0, seed),
        FactorMatrix::random(400, 8, 1.0, seed + 1),
    )
}

/// The value of `key` in the exporter's flat JSON; panics if it is absent.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("missing {key}")) + pat.len();
    json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Replays `events` rating events through a fold-in [`OnlineLoop`]
/// against the live `service`: re-rates spread over its first `users`
/// users, and every sixteenth event from one of four new users past them.
fn stream(service: &TopKService, users: usize, events: usize) -> OnlineReport {
    let snap = service.snapshot();
    let items = snap.n_items() as u32;
    let entries: Vec<Entry> = (0..events)
        .map(|i| Entry {
            row: if i % 16 == 15 {
                (users + i % 4) as u32
            } else {
                (i * 7 % users) as u32
            },
            col: (i as u32 * 131) % items,
            val: 1.0 + (i % 5) as f32,
        })
        .collect();
    // Fold-in reads only the engine's rank and λ: users are solved against
    // the published snapshot's item segments.
    let empty = Csr::from_raw(0, items, vec![0], vec![], vec![]).expect("empty training matrix");
    let engine = AlsEngine::new(
        AlsConfig {
            f: snap.rank(),
            lambda: 0.05,
            ..Default::default()
        },
        empty.clone(),
    );
    OnlineLoop::fold_in(
        Box::new(engine),
        &empty,
        StreamBatcher::spawn(ReplayStream::from_entries(entries, items), 256),
        service,
        service.metrics_handle(),
        OnlineLoopConfig {
            max_batch_events: 64,
            ..Default::default()
        },
    )
    .run()
    .expect("every streamed delta publishes")
}

/// Cache off so every request takes the full score path; the stage
/// partition holds either way, but an all-miss load exercises every stage
/// with non-trivial durations.
fn observability_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        workers: 2,
        cache_capacity: 0,
        trace_sample: 1,
        trace_capacity: 64,
        ..Default::default()
    }
}

#[test]
fn stage_means_sum_to_the_e2e_mean() {
    let service = TopKService::start(snapshot(21), observability_config());
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let client = service.client();
            s.spawn(move || {
                for i in 0..50u32 {
                    let user = (t * 50 + i) % 64;
                    client.recommend(user, 5, &[]).unwrap();
                }
            });
        }
    });
    let r = service.metrics();
    assert_eq!(r[Counter::Requests], 200);
    assert_eq!(
        r[Latency::RequestE2e].count(),
        200,
        "every request records an e2e"
    );
    for stage in Stage::ALL {
        assert_eq!(
            r.stage(stage).count(),
            200,
            "every request records stage {}",
            stage.name()
        );
    }
    let stage_mean_sum: f64 = Stage::ALL.iter().map(|&s| r.stage(s).mean_ns()).sum();
    let e2e_mean = r[Latency::RequestE2e].mean_ns();
    assert!(e2e_mean > 0.0);
    let rel = (stage_mean_sum - e2e_mean).abs() / e2e_mean;
    assert!(
        rel < 0.10,
        "stage means sum {stage_mean_sum:.0} ns vs e2e mean {e2e_mean:.0} ns ({rel:.4} off)"
    );
    // The construction is exact, not just within 10%: stage sums (exact
    // integers) telescope to the e2e sum per request.
    let stage_sum: u64 = Stage::ALL.iter().map(|&s| r.stage(s).sum_ns()).sum();
    assert_eq!(
        stage_sum,
        r[Latency::RequestE2e].sum_ns(),
        "partition must be exact"
    );
}

#[test]
fn cache_hits_keep_the_partition_exact() {
    // With the cache on and repeated identical requests, hits take the
    // zero-width score/merge path — the partition identity must survive
    // the mix.
    let service = TopKService::start(
        snapshot(22),
        ServeConfig {
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let client = service.client();
    for _ in 0..3 {
        for user in 0..10u32 {
            client.recommend(user, 5, &[]).unwrap();
        }
    }
    let r = service.metrics();
    assert!(r[Counter::CacheHits] > 0, "repeats must hit the cache");
    let stage_sum: u64 = Stage::ALL.iter().map(|&s| r.stage(s).sum_ns()).sum();
    assert_eq!(stage_sum, r[Latency::RequestE2e].sum_ns());
}

#[test]
fn queue_depth_high_water_reflects_concurrency() {
    let service = TopKService::start(snapshot(23), observability_config());
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let client = service.client();
            s.spawn(move || {
                for i in 0..20u32 {
                    client.recommend((t * 20 + i) % 64, 4, &[]).unwrap();
                }
            });
        }
    });
    let r = service.metrics();
    let hwm = r[Counter::QueueDepthHighWater];
    assert!(hwm >= 1, "something must have queued");
    assert!(hwm <= 160, "high-water {hwm} exceeds total requests");
}

#[test]
fn window_report_through_the_service_handle() {
    let service = TopKService::start(snapshot(24), observability_config());
    let metrics = service.metrics_handle();
    let client = service.client();
    for user in 0..10u32 {
        client.recommend(user, 5, &[]).unwrap();
    }
    let first = metrics.window_report();
    assert_eq!(first.window[Counter::Requests], 10);
    assert_eq!(first.cumulative[Counter::Requests], 10);

    for user in 0..4u32 {
        client.recommend(user + 30, 5, &[]).unwrap();
    }
    let second = metrics.window_report();
    assert_eq!(
        second.window[Counter::Requests],
        4,
        "window counts only the delta"
    );
    assert_eq!(second.cumulative[Counter::Requests], 14);
    assert_eq!(second.window[Latency::RequestE2e].count(), 4);

    let idle = metrics.window_report();
    assert_eq!(idle.window[Counter::Requests], 0);
    assert_eq!(idle.window[Latency::RequestE2e].count(), 0);
}

#[test]
fn sampled_traces_cover_every_stage() {
    // trace_sample = 1: every request is traced.
    let service = TopKService::start(snapshot(25), observability_config());
    let client = service.client();
    for user in 0..12u32 {
        client.recommend(user, 5, &[]).unwrap();
    }
    let traces = service.tracer().traces();
    assert_eq!(traces.len(), 12);
    for t in &traces {
        let stages: Vec<&str> = t.events.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec!["queue_wait", "coalesce", "score", "merge", "reply"],
            "trace {} missing stages",
            t.id
        );
        // Events tile the trace: each starts where the previous ended.
        for w in t.events.windows(2) {
            assert_eq!(w[0].start_ns + w[0].dur_ns, w[1].start_ns);
        }
    }
    let jsonl = service.traces_jsonl();
    assert_eq!(jsonl.lines().count(), 12);
    assert!(jsonl.contains("\"queue_wait\""));
    assert!(jsonl.contains("\"total_ns\""));
}

#[test]
fn sampling_rate_bounds_the_trace_count() {
    let service = TopKService::start(
        snapshot(26),
        ServeConfig {
            trace_sample: 4,
            cache_capacity: 0,
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let client = service.client();
    for user in 0..40u32 {
        client.recommend(user % 64, 4, &[]).unwrap();
    }
    let n = service.tracer().traces().len();
    assert_eq!(n, 10, "1-in-4 sampling of 40 sequential requests");

    // trace_sample = 0 disables tracing entirely.
    let off = TopKService::start(
        snapshot(27),
        ServeConfig {
            trace_sample: 0,
            ..Default::default()
        },
    );
    let client = off.client();
    for user in 0..5u32 {
        client.recommend(user, 3, &[]).unwrap();
    }
    assert!(off.tracer().traces().is_empty());
}

/// The exported JSON's contract: every key a dashboard reads is present
/// after a 96-event closed online loop, the stage and end-to-end
/// percentiles are ordered, every streamed rating is one freshness sample,
/// and an f32 catalog exports its rerank keys at zero while its byte
/// meter runs.
#[test]
fn exported_json_carries_the_ci_contract_keys() {
    let service = TopKService::start(snapshot(28), observability_config());
    let client = service.client();
    for user in 0..30u32 {
        client.recommend(user, 5, &[]).unwrap();
    }
    assert_eq!(stream(&service, 64, 96).events, 96);
    let json = service.metrics().exporter().to_json();
    let grab = |key: &str| json_u64(&json, key);
    for key in [
        "serve_requests",
        "serve_stage_queue_wait_p50_ns",
        "serve_stage_queue_wait_p99_ns",
        "serve_stage_score_p50_ns",
        "serve_stage_score_p99_ns",
        "serve_request_e2e_p50_ns",
        "serve_request_e2e_p99_ns",
        "serve_queue_depth_high_water",
        "serve_freshness_count",
        "serve_freshness_p50_ns",
        "serve_freshness_p99_ns",
        "serve_rerank_count",
        "serve_rerank_p50_ns",
        "serve_rerank_p99_ns",
        "serve_bytes_scanned",
        "serve_rerank_candidates",
        "serve_cache_refreshes",
    ] {
        grab(key);
    }
    assert_eq!(grab("serve_requests"), 30);
    for stage in ["queue_wait", "coalesce", "score", "merge", "reply"] {
        let p50 = grab(&format!("serve_stage_{stage}_p50_ns"));
        let p99 = grab(&format!("serve_stage_{stage}_p99_ns"));
        assert!(p99 >= p50, "{stage}: p99 {p99} < p50 {p50}");
    }
    let (p50, p99) = (
        grab("serve_request_e2e_p50_ns"),
        grab("serve_request_e2e_p99_ns"),
    );
    assert!(p99 >= p50 && p50 > 0, "e2e p50 {p50} p99 {p99}");
    assert_eq!(grab("serve_request_e2e_count"), 30);
    // Every streamed rating is recorded exactly once.
    assert_eq!(grab("serve_freshness_count"), 96);
    let (p50, p99) = (
        grab("serve_freshness_p50_ns"),
        grab("serve_freshness_p99_ns"),
    );
    assert!(p99 >= p50 && p50 > 0, "freshness p50 {p50} p99 {p99}");
    // An f32 catalog has nothing to rerank, but its scans are metered.
    assert_eq!(grab("serve_rerank_count"), 0);
    assert_eq!(grab("serve_rerank_candidates"), 0);
    assert!(grab("serve_bytes_scanned") > 0);
    // The cache is off, so no delta publish had an entry to refresh.
    assert_eq!(grab("serve_cache_refreshes"), 0);
}

/// A sharded worker pool under closed-loop load from four clients, while
/// the caller publishes two full snapshots, folds two batches of users in
/// against the serving segments and streams 96 ratings through the online
/// loop: every request is answered, every reply is a full `k` on this warm
/// catalog, no worker panics, no delta is rejected or copies item factors,
/// and every streamed rating lands in the freshness histogram.
#[test]
fn a_loaded_service_stays_whole_through_publishes_fold_ins_and_a_stream() {
    let (users, items, f, k) = (400usize, 4000usize, 16usize, 10usize);
    let factors = |seed: u64| {
        FactorSnapshot::from_factors(
            FactorMatrix::random(users, f, 0.5, seed),
            FactorMatrix::random(items, f, 0.5, seed ^ 0xABCD),
        )
    };
    let service = TopKService::start(
        factors(1),
        ServeConfig {
            workers: 4,
            shards: 4,
            ..Default::default()
        },
    );
    let (served, short) = (AtomicU64::new(0), AtomicU64::new(0));
    let report = std::thread::scope(|s| {
        for c in 0..4u32 {
            let client = service.client();
            let (served, short) = (&served, &short);
            s.spawn(move || {
                for i in 0..50u32 {
                    // Squared ids skew the traffic towards low users.
                    let user = (c * 50 + i) * (c * 50 + i) % users as u32;
                    let recs = client.recommend(user, k, &[]).unwrap();
                    if recs.len() != k {
                        short.fetch_add(1, Ordering::Relaxed);
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for seed in [2, 3] {
            service.publish(factors(seed));
        }
        for batch in 0..2u32 {
            let snap = service.snapshot();
            let changed: Vec<u32> = (0..16).map(|i| (batch * 16 + i) * 13 % 400).collect();
            let rating_lists: Vec<Vec<(u32, f32)>> = changed
                .iter()
                .map(|&u| {
                    (0..20)
                        .map(|j| ((u * 31 + j * 197) % items as u32, 1.0 + (j % 4) as f32))
                        .collect()
                })
                .collect();
            let ratings = ratings_rows(&rating_lists, items as u32);
            let rows = fold_in_users_segmented(&ratings, &snap.items().views(), f, 0.05, None);
            let mut delta = snap.delta();
            for (i, &u) in changed.iter().enumerate() {
                delta.update_user(u, rows.vector(i));
            }
            let (_, stats) = service
                .publish_delta(&delta)
                .expect("fold-in delta publishes");
            assert_eq!(stats.item_factor_bytes_copied, 0, "a fold-in copied Θ");
        }
        stream(&service, users, 96)
    });
    assert_eq!(
        served.load(Ordering::Relaxed),
        200,
        "every request is served"
    );
    assert_eq!(short.load(Ordering::Relaxed), 0, "replies shorter than k");
    let m = service.metrics();
    assert_eq!((m[Counter::Requests], m[Counter::Responses]), (200, 200));
    assert_eq!(m[Counter::WorkerPanics], 0);
    assert_eq!(m[Counter::DeltaPublishes], 2 + report.publishes);
    assert_eq!(report.events, 96);
    assert_eq!(
        m[Latency::Freshness].count(),
        96,
        "a streamed rating left no sample"
    );
    assert!(m[Latency::Freshness].quantile(0.99) >= m[Latency::Freshness].quantile(0.5));
}

/// The same requests served from an f32, an f16 and an i8 catalog: the
/// quantized services rerank every scored batch (candidates counted,
/// rerank percentiles ordered and non-zero), scan strictly fewer bytes
/// than f32, and keep post-rerank recall at 0.99 (f16) and 0.95 (i8)
/// against the f32 replies.
#[test]
fn quantized_services_rerank_and_scan_fewer_bytes_than_f32() {
    let factors = || {
        FactorSnapshot::from_factors(
            FactorMatrix::random(200, 16, 0.5, 31),
            FactorMatrix::random(4000, 16, 0.5, 32),
        )
    };
    let serve = |precision: Precision| {
        let service = TopKService::start(
            factors(),
            ServeConfig {
                precision,
                workers: 2,
                shards: 2,
                ..Default::default()
            },
        );
        assert_eq!(service.snapshot().items().precision(), precision);
        let client = service.client();
        let replies: Vec<Vec<(u32, f32)>> = (0..64u32)
            .map(|user| client.recommend(user * 3, 10, &[]).unwrap())
            .collect();
        (replies, service.metrics().exporter().to_json())
    };
    let (exact, exact_json) = serve(Precision::F32);
    for (precision, floor) in [(Precision::F16, 0.99), (Precision::I8, 0.95)] {
        let (got, json) = serve(precision);
        let grab = |key: &str| json_u64(&json, key);
        assert!(grab("serve_rerank_count") > 0, "{precision}");
        assert!(grab("serve_rerank_candidates") > 0, "{precision}");
        let (p50, p99) = (grab("serve_rerank_p50_ns"), grab("serve_rerank_p99_ns"));
        assert!(
            p99 >= p50 && p50 > 0,
            "{precision}: rerank p50 {p50} p99 {p99}"
        );
        let (bytes, f32_bytes) = (
            grab("serve_bytes_scanned"),
            json_u64(&exact_json, "serve_bytes_scanned"),
        );
        assert!(
            0 < bytes && bytes < f32_bytes,
            "{precision}: {bytes} bytes scanned against f32's {f32_bytes}"
        );
        let (mut hits, mut total) = (0usize, 0usize);
        for (want, got) in exact.iter().zip(&got) {
            assert_eq!(got.len(), want.len(), "{precision}: a short reply");
            let truth: HashSet<u32> = want.iter().map(|&(v, _)| v).collect();
            hits += got.iter().filter(|(v, _)| truth.contains(v)).count();
            total += want.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(
            recall >= floor,
            "{precision}: recall {recall:.4} below {floor}"
        );
    }
}
