//! The scale-out invariants of the sharded worker pool: every shard count ×
//! worker count combination must reply **bit-identically** to the
//! single-worker, single-shard PR 2 baseline; shutdown must drain what was
//! queued and reject what comes later; and the byte-budgeted cache must
//! bound memory under heavy-exclusion traffic without changing replies.

use cumf_linalg::{FactorMatrix, Precision};
use cumf_serve::{
    ApproxPolicy, Counter, FactorSnapshot, Query, ScoreKind, ServeConfig, ServeError, TopKIndex,
    TopKService,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn snapshot(seed: u64, n_users: usize, n_items: usize, f: usize) -> FactorSnapshot {
    FactorSnapshot::from_factors(
        FactorMatrix::random(n_users, f, 1.0, seed),
        FactorMatrix::random(n_items, f, 1.0, seed + 1),
    )
}

fn test_queries(n_users: usize) -> Vec<Query> {
    let mut queries: Vec<Query> = (0..n_users as u32)
        .map(|u| Query {
            user: u,
            k: 7,
            exclude: vec![u % 13, u % 7, u % 29],
        })
        .collect();
    queries.push(Query::new(u32::MAX, 7)); // out-of-range user
    queries.push(Query {
        user: 0,
        k: 0,
        exclude: vec![],
    });
    queries
}

/// Replies gathered by pushing every query through a service sequentially.
fn serve_all(service: &TopKService, queries: &[Query]) -> Vec<Vec<(u32, f32)>> {
    let client = service.client();
    queries
        .iter()
        .map(|q| client.recommend(q.user, q.k, &q.exclude).unwrap())
        .collect()
}

#[test]
fn shard_and_worker_counts_are_reply_invariant() {
    let snap = snapshot(42, 48, 999, 8);
    let queries = test_queries(48);

    // PR 2 baseline: one worker, one shard.
    let baseline = {
        let service = TopKService::start(
            snap.clone(),
            ServeConfig {
                workers: 1,
                shards: 1,
                cache_capacity: 0, // force the scorer on every request
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        );
        serve_all(&service, &queries)
    };
    for reply in &baseline[..48] {
        assert_eq!(reply.len(), 7);
    }

    for shards in [1usize, 2, 7] {
        for workers in [1usize, 4] {
            let service = TopKService::start(
                snap.clone(),
                ServeConfig {
                    workers,
                    shards,
                    cache_capacity: 0,
                    max_delay: Duration::from_millis(1),
                    ..Default::default()
                },
            );
            let got = serve_all(&service, &queries);
            assert_eq!(
                got, baseline,
                "replies drifted at shards={shards} workers={workers}"
            );
            assert_eq!(service.metrics()[Counter::WorkerPanics], 0);
        }
    }

    // The index a config builds is the service's scorer: for non-default
    // index fields, every reply is bit-identical to a `TopKIndex` built from
    // the same config over the served (re-encoded) snapshot.  Requests go
    // through the service one at a time, so each is a batch of one; the
    // index is queried the same way, because approximate termination is
    // decided per user tile.
    let base = ServeConfig {
        cache_capacity: 0,
        max_delay: Duration::from_millis(1),
        ..Default::default()
    };
    let configs = [
        ServeConfig {
            item_block: 16,
            ..base.clone()
        },
        ServeConfig {
            shards: 3,
            ..base.clone()
        },
        ServeConfig {
            score: ScoreKind::Cosine,
            ..base.clone()
        },
        ServeConfig {
            approx: Some(ApproxPolicy::default()),
            ..base.clone()
        },
        ServeConfig {
            precision: Precision::I8,
            rerank_factor: 2.0,
            ..base.clone()
        },
        ServeConfig {
            item_block: 16,
            shards: 3,
            score: ScoreKind::Cosine,
            approx: Some(ApproxPolicy::default()),
            precision: Precision::I8,
            rerank_factor: 2.0,
            ..base
        },
    ];
    let bits = |replies: &[Vec<(u32, f32)>]| -> Vec<Vec<(u32, u32)>> {
        replies
            .iter()
            .map(|r| r.iter().map(|&(v, s)| (v, s.to_bits())).collect())
            .collect()
    };
    for config in configs {
        let service = TopKService::start(snap.clone(), config.clone());
        let got = serve_all(&service, &queries);
        let index = TopKIndex::new(service.snapshot(), &config);
        let expect: Vec<Vec<(u32, f32)>> = queries
            .iter()
            .map(|q| index.query_batch_stats(std::slice::from_ref(q)).0.remove(0))
            .collect();
        assert_eq!(bits(&got), bits(&expect), "{config:?}");
        assert_eq!(service.metrics()[Counter::WorkerPanics], 0);
    }
}

#[test]
fn concurrent_pool_traffic_stays_bit_identical() {
    // Same invariance, but with the requests racing through 4 workers from
    // 6 client threads — replies must still match the sequential baseline
    // per query.
    let snap = snapshot(77, 30, 500, 8);
    let reference = Arc::new(snap.clone());
    let service = TopKService::start(
        snap,
        ServeConfig {
            workers: 4,
            shards: 4,
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for t in 0..6u32 {
            let client = service.client();
            let reference = Arc::clone(&reference);
            s.spawn(move || {
                for i in 0..40 {
                    let user = (t * 40 + i) % 30;
                    let got = client.recommend(user, 5, &[user % 3]).unwrap();
                    assert_eq!(got, reference.recommend_one(user, 5, &[user % 3]));
                }
            });
        }
    });
    let m = service.metrics();
    assert_eq!(m[Counter::Requests], 240);
    assert_eq!(m[Counter::Responses], 240);
    assert_eq!(m[Counter::WorkerPanics], 0);
}

#[test]
fn shutdown_drains_queued_requests_and_rejects_later_ones() {
    let service = TopKService::start(
        snapshot(5, 20, 300, 8),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let clients: Vec<_> = (0..6).map(|_| service.client()).collect();

    // Clients hammer the service while the main thread drops it.  Every
    // reply is either a correct full result (request made it in before the
    // shutdown markers) or a clean Shutdown error — never a hang, never a
    // mixed/truncated result, and strictly no Ok after the first error.
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(t, client)| {
            std::thread::spawn(move || {
                let mut oks = 0usize;
                let mut errored = false;
                for i in 0..200u32 {
                    match client.recommend((t as u32 + i) % 20, 5, &[]) {
                        Ok(r) => {
                            assert!(!errored, "Ok reply after a Shutdown error");
                            assert_eq!(r.len(), 5);
                            oks += 1;
                        }
                        Err(ServeError::Shutdown) => errored = true,
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
                oks
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    drop(service);
    let served: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(served > 0, "shutdown raced ahead of every request");
}

#[test]
fn byte_budget_bounds_cache_without_changing_replies() {
    // Heavy exclusion lists: each entry charges ~4 KiB of key cost, so a
    // 16 KiB budget keeps only a handful of the 30 users cached.  Replies
    // must be unaffected — eviction only ever costs rescoring.
    let snap = snapshot(11, 30, 400, 8);
    let heavy_exclude: Vec<u32> = (0..1000).collect();
    let config = ServeConfig {
        workers: 2,
        cache_capacity: 4096,
        cache_budget_bytes: 16 << 10,
        max_delay: Duration::from_millis(1),
        ..Default::default()
    };
    let service = TopKService::start(snap.clone(), config);
    let client = service.client();
    let reference = Arc::new(snap);
    for round in 0..3 {
        for user in 0..30u32 {
            let got = client.recommend(user, 5, &heavy_exclude).unwrap();
            assert_eq!(
                got,
                reference.recommend_one(user, 5, &heavy_exclude),
                "round {round} user {user}"
            );
        }
    }
    let m = service.metrics();
    assert_eq!(m[Counter::Responses], 90);
    // The budget fits ~4 heavy entries per cache shard (2 shards): far
    // fewer than the 30 the entry capacity alone would keep, so most
    // repeat requests miss and rescore.
    assert!(
        m[Counter::CacheMisses] > 30,
        "expected budget-driven rescoring, got {} misses",
        m[Counter::CacheMisses]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Index-level property: for random snapshots, random blockings and
    /// random shard counts, the sharded scorer is bit-identical to the
    /// unsharded one (both score kinds).
    #[test]
    fn sharded_index_matches_unsharded(
        seed in 0u64..1_000,
        n_items in 1usize..400,
        item_block in 1usize..96,
        shards in 1usize..10,
        k in 1usize..12,
        cosine in 0u8..2,
    ) {
        let score = if cosine == 1 { ScoreKind::Cosine } else { ScoreKind::Dot };
        let snap = Arc::new(snapshot(seed, 12, n_items, 6));
        let queries: Vec<Query> = (0..12u32)
            .map(|u| Query { user: u, k, exclude: vec![u % 5, u % 3] })
            .collect();
        let config = ServeConfig { item_block, score, ..Default::default() };
        let baseline = TopKIndex::new(Arc::clone(&snap), &config).query_batch_stats(&queries).0;
        let sharded = TopKIndex::new(Arc::clone(&snap), &ServeConfig { shards, ..config })
            .query_batch_stats(&queries).0;
        prop_assert_eq!(baseline, sharded);
    }
}
