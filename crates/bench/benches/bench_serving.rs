//! Serving-path benchmark, eight rungs up the same ladder:
//!
//! 1. naive per-request scoring (score every item, sort the whole catalog —
//!    what `recommend()` did before the serving subsystem),
//! 2. the batched blocked top-k scorer of `cumf-serve` (PR 2), unsharded
//!    and item-sharded,
//! 3. the full `TopKService` under closed-loop concurrent load: the
//!    single-worker PR 2 baseline versus the sharded scorer worker pool,
//! 4. publication cost: a **full snapshot republication** versus a
//!    **delta publish** folding in ≤1% of users on the same catalog — the
//!    `O(m·f)` vs `O(u·f)` comparison the incremental path exists for,
//! 5. pruning effectiveness: catalog-order versus **norm-descending** item
//!    layout on a skewed-norm catalog, with the blocks-scored/blocks-pruned
//!    counters printed into the bench report (results are bit-identical;
//!    the permuted layout must skip strictly more blocks),
//! 6. approximation: the epsilon → (recall@k, blocks scanned, latency)
//!    tradeoff curve of early-terminated retrieval on the skewed-norm
//!    catalog, with epsilon-0 bit-identity and the default epsilon's
//!    recall target asserted by the run itself,
//! 7. item-append publication: pushing an `O(a·f)` tail **segment** versus
//!    the full-Θ-copy rebuild the pre-segmented store paid,
//! 8. fold-in: solving a user batch's normal equations **directly against
//!    the store's segment views** versus first materializing a contiguous
//!    catalog-order Θ (bit-identical results asserted) — the zero-Θ-copy
//!    invariant the online loop's incremental path rides on,
//! 9. quantization: the same skewed catalog served at f32 / f16 / i8, with
//!    bytes-per-query, post-rerank recall@k, and latency for every
//!    precision printed into the report — and the tentpole's byte-ratio and
//!    recall floors (≥1.8× at f16 with recall 1.0, ≥3.5× at i8 with recall
//!    ≥ 0.99) asserted by the run itself.
//!
//! Catalog sizes reach the ≥100k-item regime the paper's deployments imply.
//! Throughput is reported in requests/sec.  Pool/shard sizing for rung 3
//! follows `--workers N` / `--shards N` (after `--` in `cargo bench`),
//! defaulting to 4×4; on a single-core runner the pool shows no speedup —
//! the ≥2× claim is for multicore runners.  `--quick` (used by the CI
//! bench-smoke job) trims catalog sizes and skips the slow naive baseline
//! at the largest size so the whole suite lands in seconds while still
//! exercising every rung, including the delta-vs-full and
//! permuted-vs-catalog comparisons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cumf_core::foldin::{fold_in_users, fold_in_users_segmented, ratings_rows};
use cumf_linalg::blas::dot;
use cumf_linalg::FactorMatrix;
use cumf_linalg::Precision;
use cumf_serve::{
    measure_recall, report_from_lists, ApproxPolicy, FactorSnapshot, ItemLayout, Query, ScoreKind,
    ServeConfig, SnapshotStore, TopKIndex, TopKService, DEFAULT_APPROX_EPSILON,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const F: usize = 32;
const N_USERS: usize = 1_000;
const REQUESTS: usize = 64;
const CLIENTS: usize = 8;
const K: usize = 10;
/// Users in the delta-publish benchmark's snapshot (the publish cost under
/// test scales with this for the full path, with the changed-user count for
/// the delta path).
const PUBLISH_USERS: usize = 50_000;

/// Pool sizing for the service-level benchmarks, overridable from the
/// command line: `cargo bench --bench bench_serving -- --workers 8 --shards 8`.
fn pool_args() -> (usize, usize) {
    let argv: Vec<String> = std::env::args().collect();
    let lookup = |flag: &str, default: usize| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(default)
            .max(1)
    };
    (lookup("--workers", 4), lookup("--shards", 4))
}

/// CI smoke mode: `cargo bench --bench bench_serving -- --quick`.
fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn snapshot(n_items: usize) -> Arc<FactorSnapshot> {
    Arc::new(FactorSnapshot::from_factors(
        FactorMatrix::random(N_USERS, F, 0.5, 11),
        FactorMatrix::random(n_items, F, 0.5, 12),
    ))
}

fn queries() -> Vec<Query> {
    (0..REQUESTS as u32)
        .map(|i| Query::new((i * 37) % N_USERS as u32, K))
        .collect()
}

/// The pre-serving path: score the full catalog into a vector and sort it,
/// once per request.  `theta` is the materialized catalog
/// (`snap.item_factors_matrix()`), hoisted out so the naive baseline does
/// not pay the segmented store's materialization per request.
fn naive_recommend(
    snap: &FactorSnapshot,
    theta: &cumf_linalg::FactorMatrix,
    user: u32,
    k: usize,
) -> Vec<(u32, f32)> {
    let x_u = snap.user_vector(user).expect("user in range");
    let mut scored: Vec<(u32, f32)> = (0..theta.len() as u32)
        .map(|v| (v, dot(x_u, theta.vector(v as usize))))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored
}

fn bench_serving(c: &mut Criterion) {
    let (_, shards) = pool_args();
    let quick = quick_mode();
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 250_000]
    };
    let mut group = c.benchmark_group("serving_topk");
    group.sample_size(if quick { 3 } else { 10 });
    for &n_items in sizes {
        let snap = snapshot(n_items);
        let qs = queries();
        group.throughput(Throughput::Elements(REQUESTS as u64));
        if !(quick && n_items > 10_000) {
            let theta = snap.item_factors_matrix();
            group.bench_with_input(
                BenchmarkId::new("naive_per_request", n_items),
                &n_items,
                |b, _| {
                    b.iter(|| {
                        for q in &qs {
                            black_box(naive_recommend(&snap, &theta, q.user, q.k));
                        }
                    });
                },
            );
        }
        let index = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                item_block: 512,
                score: ScoreKind::Dot,
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched_blocked", n_items),
            &n_items,
            |b, _| {
                b.iter(|| black_box(index.query_batch(&qs)));
            },
        );
        let sharded = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                item_block: 512,
                score: ScoreKind::Dot,
                shards,
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("batched_sharded{shards}"), n_items),
            &n_items,
            |b, _| {
                b.iter(|| black_box(sharded.query_batch(&qs)));
            },
        );
    }
    group.finish();
}

/// Drives a running service with `REQUESTS` closed-loop requests from
/// `CLIENTS` client threads and waits for every reply.
fn drive_service(service: &TopKService) {
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let client = service.client();
            s.spawn(move || {
                let per_client = REQUESTS / CLIENTS;
                for i in 0..per_client {
                    let user = ((t * per_client + i) as u32 * 37) % N_USERS as u32;
                    let r = client
                        .recommend(user, K, &[])
                        .expect("service alive during bench");
                    black_box(r);
                }
            });
        }
    });
}

/// Pool comparison: one worker + one shard (the PR 2 service) versus the
/// sharded worker pool, both scoring every request (cache off) at the
/// 250k-item catalog size (100k in quick mode).
fn bench_service_pool(c: &mut Criterion) {
    let (workers, shards) = pool_args();
    let quick = quick_mode();
    let n_items = if quick { 100_000 } else { 250_000 };
    let mut group = c.benchmark_group("serving_service");
    group.sample_size(if quick { 3 } else { 10 });
    group.throughput(Throughput::Elements(REQUESTS as u64));
    let mut configs = vec![(1usize, 1usize)];
    if (workers, shards) != (1, 1) {
        configs.push((workers, shards));
    }
    for (workers, shards) in configs {
        let snap = snapshot(n_items);
        let service = TopKService::start(
            Arc::try_unwrap(snap).expect("sole owner"),
            ServeConfig {
                workers,
                shards,
                cache_capacity: 0, // every request must hit the scorer
                max_batch: 16,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("workers{workers}_shards{shards}"), n_items),
            &n_items,
            |b, _| {
                b.iter(|| drive_service(&service));
            },
        );
        let metrics = service.metrics();
        assert_eq!(metrics.worker_panics, 0);
        // The stage percentile table (queue-wait → reply + e2e) lands in
        // the captured bench report, so per-PR latency-breakdown
        // trajectories are recorded alongside throughput.
        println!("--- service metrics (workers{workers}_shards{shards}) ---\n{metrics}");
    }
    group.finish();
}

/// The incremental-update comparison: full snapshot republication (clone
/// both factor matrices, recompute every item norm, swap) versus a delta
/// publish folding in 0.1% / 1% of users against the same catalog.  The
/// full path moves `O((m+n)·f)` bytes per publish; the delta path `O(u·f)`
/// — at ≤1% changed users the delta must win by orders of magnitude.
fn bench_publish(c: &mut Criterion) {
    let quick = quick_mode();
    let (m, n_items) = if quick {
        (PUBLISH_USERS / 5, 50_000)
    } else {
        (PUBLISH_USERS, 250_000)
    };
    let x = FactorMatrix::random(m, F, 0.5, 21);
    let theta = FactorMatrix::random(n_items, F, 0.5, 22);
    let store = SnapshotStore::new(FactorSnapshot::from_factors(x.clone(), theta.clone()));

    let mut group = c.benchmark_group("serving_publish");
    group.sample_size(if quick { 3 } else { 10 });
    group.throughput(Throughput::Bytes(((m + n_items) * F * 4) as u64));
    group.bench_with_input(
        BenchmarkId::new("full_publish", n_items),
        &n_items,
        |b, _| {
            b.iter(|| {
                // A full republication pays for fresh factor copies and a
                // complete norm recompute, every time.
                store.publish(FactorSnapshot::from_factors(x.clone(), theta.clone()))
            });
        },
    );

    for ppm in [1_000u64, 10_000] {
        let u = (m as u64 * ppm / 1_000_000) as usize;
        let rows = FactorMatrix::random(u, F, 0.5, 23);
        group.throughput(Throughput::Bytes((u * F * 4) as u64));
        group.bench_with_input(
            BenchmarkId::new(
                format!("delta_publish_{}pct_users", ppm as f64 / 10_000.0),
                n_items,
            ),
            &n_items,
            |b, _| {
                b.iter(|| {
                    let base = store.load();
                    let mut delta = base.delta();
                    for i in 0..u {
                        delta.update_user(((i * 997) % m) as u32, rows.vector(i));
                    }
                    store.publish_delta(&delta).expect("sole publisher")
                });
            },
        );
    }
    group.finish();
}

/// Pruning-effectiveness comparison: the same skewed-norm catalog stored in
/// catalog order versus norm-descending order.  Results are bit-identical
/// (asserted); the permuted layout must skip strictly more blocks
/// (asserted), and both layouts' blocks-scored / blocks-pruned counters are
/// printed so the CI bench artifact records the pruning win alongside the
/// throughput numbers.
fn bench_pruning(c: &mut Criterion) {
    let quick = quick_mode();
    let n_items = if quick { 50_000 } else { 200_000 };
    let x = FactorMatrix::random(N_USERS, F, 0.5, 31);
    // Skewed norms with the heavy items scattered across the id space: the
    // worst case for catalog-order pruning, the motivating case for the
    // norm-descending layout.
    let theta = skewed_theta(n_items, 32);
    let qs = queries();
    let layouts = [
        ("catalog_order", ItemLayout::CatalogOrder),
        ("norm_descending", ItemLayout::NormDescending),
    ];
    let mut group = c.benchmark_group("serving_pruning");
    group.sample_size(if quick { 3 } else { 10 });
    group.throughput(Throughput::Elements(REQUESTS as u64));
    let mut stats = Vec::new();
    let mut results = Vec::new();
    for (name, layout) in layouts {
        let snap = Arc::new(FactorSnapshot::from_factors_with_layout(
            x.clone(),
            theta.clone(),
            layout,
        ));
        let index = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                item_block: 512,
                score: ScoreKind::Dot,
                ..Default::default()
            },
        );
        let (res, prune) = index.query_batch_stats(&qs);
        println!(
            "pruning[{name}]: {} blocks scored, {} pruned ({:.1}% skipped) over {} requests",
            prune.blocks_scored,
            prune.blocks_pruned,
            100.0 * prune.pruned_fraction(),
            qs.len()
        );
        stats.push(prune);
        results.push(res);
        group.bench_with_input(BenchmarkId::new(name, n_items), &n_items, |b, _| {
            b.iter(|| black_box(index.query_batch(&qs)));
        });
    }
    group.finish();
    assert_eq!(results[0], results[1], "layouts must agree bit-for-bit");
    assert!(
        stats[1].blocks_pruned > stats[0].blocks_pruned,
        "norm-descending must skip strictly more blocks: {} vs {}",
        stats[1].blocks_pruned,
        stats[0].blocks_pruned
    );
}

/// Skewed-norm item factors: a few heavy hitters scattered across the id
/// space, a long cheap tail — shared by the pruning and approximation
/// benchmarks.
fn skewed_theta(n_items: usize, seed: u64) -> FactorMatrix {
    let mut theta = FactorMatrix::random(n_items, F, 0.5, seed);
    for v in 0..n_items {
        let h = (v as u32).wrapping_mul(2654435761) % 64;
        let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
        for e in theta.vector_mut(v) {
            *e *= scale;
        }
    }
    theta
}

/// The approximation tradeoff curve: for a ladder of epsilons on the
/// skewed-norm, norm-descending catalog, print measured recall@k and
/// blocks scanned (via [`measure_recall`], the same harness the tests and
/// the load-gen gate use) and benchmark the retrieval latency — so the CI
/// artifact records the full epsilon → (recall, blocks, latency) table.
/// The run itself asserts the repo's acceptance criteria: epsilon 0 is
/// bit-identical, and the default epsilon meets its recall target while
/// scanning strictly fewer blocks than exact.
fn bench_approximate(c: &mut Criterion) {
    let quick = quick_mode();
    let (_, shards) = pool_args();
    let n_items = if quick { 50_000 } else { 200_000 };
    let x = FactorMatrix::random(N_USERS, F, 0.5, 51);
    let snap = Arc::new(FactorSnapshot::from_factors_with_layout(
        x,
        skewed_theta(n_items, 52),
        ItemLayout::NormDescending,
    ));
    let qs = queries();
    let mut group = c.benchmark_group("serving_approximate");
    group.sample_size(if quick { 3 } else { 10 });
    group.throughput(Throughput::Elements(REQUESTS as u64));
    let mut default_report = None;
    for eps in [0.0f32, 0.05, DEFAULT_APPROX_EPSILON, 0.25, 0.5] {
        let policy = ApproxPolicy::with_epsilon(eps);
        let report = measure_recall(
            &snap,
            &qs,
            &ServeConfig {
                item_block: 512,
                score: ScoreKind::Dot,
                shards,
                ..Default::default()
            },
            &policy,
        );
        println!(
            "approximate[eps={eps:.2}]: mean recall {:.4}, min {:.4}, blocks {} (exact {}), {} terminated",
            report.mean_recall,
            report.min_recall,
            report.approx_stats.blocks_scored,
            report.exact_stats.blocks_scored,
            report.approx_stats.blocks_terminated,
        );
        if eps == 0.0 {
            assert!(
                report.all_identical(),
                "epsilon 0 must be bit-identical to exact: {report}"
            );
        }
        if eps == DEFAULT_APPROX_EPSILON {
            default_report = Some((policy, report));
        }
        let index = TopKIndex::new(
            Arc::clone(&snap),
            &ServeConfig {
                item_block: 512,
                score: ScoreKind::Dot,
                shards,
                approx: Some(policy),
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("eps{eps:.2}"), n_items),
            &n_items,
            |b, _| {
                b.iter(|| black_box(index.query_batch(&qs)));
            },
        );
    }
    group.finish();
    let (policy, report) = default_report.expect("default epsilon is in the ladder");
    assert!(
        report.mean_recall >= policy.target_recall,
        "default epsilon misses its recall target: {report}"
    );
    assert!(
        report.approx_stats.blocks_scored < report.exact_stats.blocks_scored,
        "default epsilon saved no scanning on the skewed catalog: {report}"
    );
}

/// The quantization rung: the skewed-norm, norm-descending catalog served
/// at every [`Precision`], same queries, same blocking.  For each reduced
/// precision the run prints bytes-per-query (total, and scan-only with the
/// rerank's exact-row fetches subtracted), post-rerank recall@k against the
/// exact f32 lists, and the rerank candidate volume — then asserts the
/// tentpole's floors: f16 moves ≥ 1.8× fewer bytes with recall 1.0, i8
/// ≥ 3.5× fewer with recall ≥ 0.99.  The latency of each precision lands in
/// the criterion report alongside.
///
/// Note the over-fetch asymmetry: the quantized scan keeps
/// `k · rerank_factor` candidates, which weakens its heap threshold
/// relative to the exact scan at plain `k`, so the byte ratios here are
/// measured against the exact baseline *at the user's k* — the honest
/// end-to-end accounting, strictly harder than a matched-candidate-count
/// comparison.
fn bench_quantized(c: &mut Criterion) {
    let quick = quick_mode();
    let (_, shards) = pool_args();
    let n_items = if quick { 50_000 } else { 200_000 };
    let x = FactorMatrix::random(N_USERS, F, 0.5, 61);
    let snap = Arc::new(FactorSnapshot::from_factors_with_layout(
        x,
        skewed_theta(n_items, 62),
        ItemLayout::NormDescending,
    ));
    let qs = queries();
    let exact = TopKIndex::new(
        Arc::clone(&snap),
        &ServeConfig {
            item_block: 512,
            score: ScoreKind::Dot,
            shards,
            ..Default::default()
        },
    );
    let (exact_results, exact_stats) = exact.query_batch_stats(&qs);

    let mut group = c.benchmark_group("serving_quantized");
    group.sample_size(if quick { 3 } else { 10 });
    group.throughput(Throughput::Elements(REQUESTS as u64));
    println!(
        "quantized[f32]: {} bytes/query (baseline), {} blocks scored",
        exact_stats.bytes_scanned / qs.len() as u64,
        exact_stats.blocks_scored,
    );
    group.bench_with_input(BenchmarkId::new("f32", n_items), &n_items, |b, _| {
        b.iter(|| black_box(exact.query_batch(&qs)));
    });
    for (precision, min_ratio, recall_floor) in
        [(Precision::F16, 1.8, 1.0), (Precision::I8, 3.5, 0.99)]
    {
        let re = Arc::new(snap.reencoded(precision));
        let index = TopKIndex::new(
            Arc::clone(&re),
            &ServeConfig {
                item_block: 512,
                score: ScoreKind::Dot,
                shards,
                ..Default::default()
            },
        );
        let (got, stats) = index.query_batch_stats(&qs);
        let report = report_from_lists(&exact_results, &got, exact_stats, stats);
        let scan_only = stats.bytes_scanned - stats.rerank_candidates * (F as u64) * 4;
        let ratio = exact_stats.bytes_scanned as f64 / stats.bytes_scanned as f64;
        println!(
            "quantized[{precision}]: {:.2}x bytes/query ({} vs {} per query; scan-only {}), \
             mean recall {:.4} (min {:.4}), {} rerank candidates over {} requests",
            ratio,
            stats.bytes_scanned / qs.len() as u64,
            exact_stats.bytes_scanned / qs.len() as u64,
            scan_only / qs.len() as u64,
            report.mean_recall,
            report.min_recall,
            stats.rerank_candidates,
            qs.len(),
        );
        assert!(
            report.mean_recall >= recall_floor,
            "{precision}: post-rerank recall {:.4} below the {recall_floor} floor",
            report.mean_recall
        );
        assert!(
            ratio >= min_ratio,
            "{precision}: byte ratio {ratio:.2}x below the {min_ratio}x floor \
             ({} vs {} bytes)",
            stats.bytes_scanned,
            exact_stats.bytes_scanned
        );
        group.bench_with_input(
            BenchmarkId::new(precision.name(), n_items),
            &n_items,
            |b, _| {
                b.iter(|| black_box(index.query_batch(&qs)));
            },
        );
    }
    group.finish();
}

/// Item-append publication cost: pushing an `a`-row tail segment
/// (`O(a·f)`, the segmented store's delta path) versus rebuilding the
/// snapshot around a full Θ copy (`O(n·f)`, what the pre-segmented store
/// had to do).  At a ≪ n the segment push must win by orders of magnitude.
fn bench_item_append(c: &mut Criterion) {
    let quick = quick_mode();
    let n_items = if quick { 50_000 } else { 250_000 };
    let appended = 1_024usize;
    let x = FactorMatrix::random(N_USERS, F, 0.5, 41);
    let theta = FactorMatrix::random(n_items, F, 0.5, 42);
    let rows = FactorMatrix::random(appended, F, 0.5, 43);
    let base = FactorSnapshot::from_factors(x.clone(), theta.clone());
    let mut delta = base.delta();
    delta.append_items(&rows);
    // Sanity + artifact line: the segment push copies exactly O(a·f).
    let (_, stats) = base.apply_delta(&delta).expect("append applies");
    assert_eq!(stats.item_factor_bytes_copied, appended * F * 4);
    println!(
        "item_append: {} appended rows copy {} bytes (full Θ would be {} bytes)",
        appended,
        stats.item_factor_bytes_copied,
        (n_items + appended) * F * 4
    );

    let mut group = c.benchmark_group("serving_item_append");
    group.sample_size(if quick { 3 } else { 10 });
    group.throughput(Throughput::Bytes((appended * F * 4) as u64));
    group.bench_with_input(
        BenchmarkId::new("segment_push", n_items),
        &n_items,
        |b, _| {
            b.iter(|| black_box(base.apply_delta(&delta).expect("append applies")));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("full_theta_copy", n_items),
        &n_items,
        |b, _| {
            b.iter(|| {
                // The pre-segmented path: materialize the grown catalog and
                // rebuild the snapshot (norms recomputed for every item).
                let mut grown = theta.clone();
                grown.append_rows(&rows);
                black_box(FactorSnapshot::from_factors(x.clone(), grown))
            });
        },
    );
    group.finish();
}

/// Fold-in against the serving catalog, two ways: materializing a
/// contiguous catalog-order Θ from the segmented store and solving against
/// it (the pre-online-loop path, `O(n·f)` copy per batch regardless of
/// batch size) versus solving directly against the store's segment views
/// (`fold_in_users_segmented`, zero Θ bytes copied).  Results are
/// bit-identical — asserted before timing — so the rung isolates the pure
/// materialization overhead the online loop's zero-copy invariant removes.
fn bench_fold_in(c: &mut Criterion) {
    let quick = quick_mode();
    let n_items = if quick { 50_000 } else { 200_000 };
    let batch_users = 64usize;
    let snap = snapshot(n_items);
    let mut rng_state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        // xorshift*: deterministic rating placement without pulling rand in.
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        rng_state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let rating_lists: Vec<Vec<(u32, f32)>> = (0..batch_users)
        .map(|_| {
            (0..32)
                .map(|_| {
                    let item = (next() % n_items as u64) as u32;
                    (item, 1.0 + (next() % 400) as f32 / 100.0)
                })
                .collect()
        })
        .collect();
    let ratings = ratings_rows(&rating_lists, n_items as u32);
    let lambda = 0.05;

    let materialized = fold_in_users(&ratings, &snap.item_factors_matrix(), lambda, None);
    let segmented = fold_in_users_segmented(&ratings, &snap.items().views(), F, lambda, None);
    for u in 0..batch_users {
        assert_eq!(
            materialized.vector(u),
            segmented.vector(u),
            "fold-in paths must agree bit-for-bit"
        );
    }

    let mut group = c.benchmark_group("serving_fold_in");
    group.sample_size(if quick { 3 } else { 10 });
    group.throughput(Throughput::Elements(batch_users as u64));
    group.bench_with_input(
        BenchmarkId::new("materialized_theta", n_items),
        &n_items,
        |b, _| {
            b.iter(|| {
                // The pre-online-loop path: copy the whole segmented
                // catalog into one contiguous Θ, then solve.
                black_box(fold_in_users(
                    &ratings,
                    &snap.item_factors_matrix(),
                    lambda,
                    None,
                ))
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("segmented_in_place", n_items),
        &n_items,
        |b, _| {
            b.iter(|| {
                black_box(fold_in_users_segmented(
                    &ratings,
                    &snap.items().views(),
                    F,
                    lambda,
                    None,
                ))
            });
        },
    );
    group.finish();
}

criterion_group!(
    serving,
    bench_serving,
    bench_service_pool,
    bench_publish,
    bench_fold_in,
    bench_pruning,
    bench_approximate,
    bench_quantized,
    bench_item_append
);
criterion_main!(serving);
