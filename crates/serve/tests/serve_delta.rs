//! Correctness of the incremental delta-publication path.
//!
//! The contract under test: a [`SnapshotDelta`] applied through
//! `publish_delta` must be **observationally identical** to tearing the
//! snapshot down and rebuilding it from the post-delta factor matrices —
//! for every shard count, every worker count, with the targeted cache
//! refresh in between — while physically copying only `O(u·f)` user
//! factor bytes (the byte-accounting test) and surviving interleaved full
//! and delta publishes under concurrent load (the hot-swap test).

use cumf_linalg::{ApproxPolicy, FactorMatrix};
use cumf_serve::{
    Counter, DeltaError, FactorSnapshot, Query, ScoreKind, ServeConfig, SnapshotDelta, TopKIndex,
    TopKService, USER_COW_ROWS,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic base factors.
fn base_factors(seed: u64, m: usize, n: usize, f: usize) -> (FactorMatrix, FactorMatrix) {
    (
        FactorMatrix::random(m, f, 1.0, seed),
        FactorMatrix::random(n, f, 1.0, seed + 1),
    )
}

/// The delta's content, described declaratively so the same content can be
/// chained onto any base generation (the service stamps its own).
#[derive(Debug, Clone)]
struct DeltaSpec {
    changed: Vec<u32>,
    appended_users: usize,
    appended_items: usize,
    seed: u64,
}

impl DeltaSpec {
    fn build(&self, base_generation: u64, f: usize) -> SnapshotDelta {
        let mut delta = SnapshotDelta::new(base_generation, f);
        let rows = FactorMatrix::random(self.changed.len().max(1), f, 1.0, self.seed);
        for (i, &u) in self.changed.iter().enumerate() {
            delta.update_user(u, rows.vector(i));
        }
        if self.appended_users > 0 {
            delta.append_users(&FactorMatrix::random(
                self.appended_users,
                f,
                1.0,
                self.seed + 1,
            ));
        }
        if self.appended_items > 0 {
            delta.append_items(&FactorMatrix::random(
                self.appended_items,
                f,
                1.0,
                self.seed + 2,
            ));
        }
        delta
    }

    /// The post-delta factors, materialized the expensive way: full copies.
    fn rebuild(&self, x: &FactorMatrix, theta: &FactorMatrix) -> (FactorMatrix, FactorMatrix) {
        let f = x.rank();
        let mut x_data = x.data().to_vec();
        let rows = FactorMatrix::random(self.changed.len().max(1), f, 1.0, self.seed);
        for (i, &u) in self.changed.iter().enumerate() {
            x_data[u as usize * f..(u as usize + 1) * f].copy_from_slice(rows.vector(i));
        }
        let mut m = x.len();
        if self.appended_users > 0 {
            let app = FactorMatrix::random(self.appended_users, f, 1.0, self.seed + 1);
            x_data.extend_from_slice(app.data());
            m += self.appended_users;
        }
        let mut theta_data = theta.data().to_vec();
        let mut n = theta.len();
        if self.appended_items > 0 {
            let app = FactorMatrix::random(self.appended_items, f, 1.0, self.seed + 2);
            theta_data.extend_from_slice(app.data());
            n += self.appended_items;
        }
        (
            FactorMatrix::from_vec(m, f, x_data),
            FactorMatrix::from_vec(n, f, theta_data),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance invariant: retrieval after `apply_delta` is bit-identical
    /// to a full snapshot rebuild with the same factors, for every shard
    /// count.
    #[test]
    fn delta_retrieval_is_bit_identical_to_full_rebuild(
        (m, n, f, seed) in (70usize..200, 150usize..700, 4usize..12, 0u64..1000),
        n_changed in 0usize..12,
        appended_users in 0usize..6,
        appended_items in 0usize..6,
    ) {
        let (x, theta) = base_factors(seed, m, n, f);
        let spec = DeltaSpec {
            changed: (0..n_changed).map(|i| ((i * 31 + seed as usize) % m) as u32).collect(),
            appended_users,
            appended_items,
            seed: seed ^ 0x5EED,
        };
        let base = FactorSnapshot::from_factors(x.clone(), theta.clone());
        let delta = spec.build(base.generation(), f);
        let (next, _) = base.apply_delta(&delta).expect("delta applies");

        let (x_full, theta_full) = spec.rebuild(&x, &theta);
        let rebuilt = FactorSnapshot::from_factors(x_full, theta_full);

        prop_assert_eq!(next.n_users(), rebuilt.n_users());
        prop_assert_eq!(next.n_items(), rebuilt.n_items());
        for v in 0..next.n_items() as u32 {
            prop_assert_eq!(next.item_norm(v), rebuilt.item_norm(v), "item {}", v);
            prop_assert_eq!(next.item_vector(v), rebuilt.item_vector(v), "item {}", v);
        }
        for u in 0..next.n_users() as u32 {
            prop_assert_eq!(next.user_vector(u), rebuilt.user_vector(u), "user {}", u);
        }

        // Batched, sharded retrieval over the delta-built snapshot is
        // bit-identical to the rebuilt snapshot for every shard count.
        let queries: Vec<Query> = (0..next.n_users() as u32)
            .map(|u| Query { user: u, k: 8, exclude: vec![u % 17] })
            .collect();
        let config = ServeConfig { item_block: 64, score: ScoreKind::Dot, ..Default::default() };
        let expected = TopKIndex::new(Arc::new(rebuilt), &config).query_batch_stats(&queries).0;
        for shards in [1usize, 2, 5] {
            let sharded = ServeConfig { shards, ..config.clone() };
            let got = TopKIndex::new(Arc::new(next.clone()), &sharded).query_batch_stats(&queries).0;
            prop_assert_eq!(&got, &expected, "shards {}", shards);
        }
    }
}

/// Service-level bit-identity across worker × shard combinations, with the
/// targeted cache refresh on the path.
#[test]
fn service_replies_after_delta_match_full_rebuild_for_every_pool_shape() {
    let (m, n, f) = (90usize, 400usize, 8usize);
    let (x, theta) = base_factors(7, m, n, f);
    let spec = DeltaSpec {
        changed: vec![3, 40, 41, 88],
        appended_users: 5,
        appended_items: 3,
        seed: 99,
    };
    let (x_full, theta_full) = spec.rebuild(&x, &theta);
    let rebuilt = FactorSnapshot::from_factors(x_full, theta_full);

    for (workers, shards) in [(1usize, 1usize), (1, 4), (3, 1), (4, 3)] {
        let service = TopKService::start(
            FactorSnapshot::from_factors(x.clone(), theta.clone()),
            ServeConfig {
                workers,
                shards,
                max_batch: 8,
                max_delay: Duration::from_millis(1),
                ..Default::default()
            },
        );
        let client = service.client();
        // Warm the cache (including a soon-to-be-appended user id, whose
        // empty result must not survive the delta).
        for u in [0u32, 3, 88, m as u32 + 2] {
            let _ = client.recommend(u, 6, &[]).unwrap();
        }
        let delta = spec.build(service.snapshot().generation(), f);
        let (generation, stats) = service.publish_delta(&delta).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(stats.changed_users, 4);

        for u in 0..rebuilt.n_users() as u32 {
            let got = client.recommend(u, 6, &[]).unwrap();
            let expect = rebuilt.recommend_one(u, 6, &[]);
            assert_eq!(got, expect, "workers {workers} shards {shards} user {u}");
        }
        assert_eq!(service.metrics()[Counter::DeltaPublishes], 1);
        assert_eq!(service.poisoned(), None);
    }
}

/// Acceptance invariant: a `u`-user delta copies `O(u·f)` factor bytes —
/// bounded by `u` COW blocks — not the `O(m·f)` of a full republication.
#[test]
fn delta_publish_copies_o_of_u_f_bytes() {
    let (m, n, f) = (USER_COW_ROWS * 512, 1000usize, 16usize);
    let (x, theta) = base_factors(5, m, n, f);
    let base = FactorSnapshot::from_factors(x, theta);
    let full_bytes = m * f * 4;

    for u in [1usize, 7, 32] {
        let mut delta = base.delta();
        let rows = FactorMatrix::random(u, f, 1.0, 1234);
        for i in 0..u {
            // Spread the users across distinct COW blocks — the worst case
            // for the sharing (every changed user pays a whole block).
            delta.update_user((i * USER_COW_ROWS * 7 % m) as u32, rows.vector(i));
        }
        let (_, stats) = base.apply_delta(&delta).unwrap();
        assert_eq!(stats.changed_users, u);
        // The O(u·f) bound, with the COW block size as the constant...
        assert!(
            stats.user_factor_bytes_copied <= u * USER_COW_ROWS * f * 4,
            "u={u}: copied {} > bound {}",
            stats.user_factor_bytes_copied,
            u * USER_COW_ROWS * f * 4
        );
        // ...and nowhere near a full copy: 512 blocks total, at most 32
        // touched.
        assert!(
            stats.user_factor_bytes_copied * 8 <= full_bytes,
            "u={u}: copied {} vs full {}",
            stats.user_factor_bytes_copied,
            full_bytes
        );
        assert_eq!(stats.item_factor_bytes_copied, 0, "item side is shared");
        assert_eq!(
            stats.user_blocks_shared,
            m / USER_COW_ROWS - u,
            "exactly {u} blocks unshared"
        );
    }
}

/// Targeted invalidation: after a delta publish, unchanged users' cached
/// results keep serving (cache hits), and changed users' cached results are
/// re-scored against the new factors by the publish itself, so their next
/// read is a hit too.
#[test]
fn delta_publish_keeps_unrelated_cache_entries_hot() {
    let (x, theta) = base_factors(11, 60, 300, 8);
    let service = TopKService::start(
        FactorSnapshot::from_factors(x, theta),
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let client = service.client();
    let a_before = client.recommend(5, 7, &[]).unwrap();
    let b_before = client.recommend(20, 7, &[]).unwrap();
    let misses_before = service.metrics()[Counter::CacheMisses];

    // Change user 20 only.
    let mut delta = service.snapshot().delta();
    delta.update_user(20, &[2.0; 8]);
    service.publish_delta(&delta).unwrap();

    // User 5's entry survived the publish: a hit, same result.
    let a_after = client.recommend(5, 7, &[]).unwrap();
    assert_eq!(a_after, a_before);
    assert_eq!(
        service.metrics()[Counter::CacheMisses],
        misses_before,
        "unchanged user was rescored after a targeted delta publish"
    );

    // User 20's cached reply was re-scored against the new factors by the
    // publish: a hit, equal to the new snapshot's reply.
    let b_after = client.recommend(20, 7, &[]).unwrap();
    let expect = service.snapshot().recommend_one(20, 7, &[]);
    assert_eq!(b_after, expect);
    assert_ne!(b_after, b_before, "the delta must move user 20's reply");
    let m = service.metrics();
    assert_eq!(
        m[Counter::CacheMisses],
        misses_before,
        "changed user's re-read missed: the publish did not refresh it"
    );
    assert_eq!(m[Counter::CacheRefreshes], 1);

    // A full publish still invalidates everything, delta retention or not.
    let (x2, theta2) = base_factors(77, 60, 300, 8);
    service.publish(FactorSnapshot::from_factors(x2, theta2));
    let a_fresh = client.recommend(5, 7, &[]).unwrap();
    assert_eq!(a_fresh, service.snapshot().recommend_one(5, 7, &[]));
    assert_ne!(a_fresh, a_before, "stale entry served after full publish");
}

/// Every kind of cached key a delta refreshes — one with an exclusion
/// list, one scored under an approximate policy, and an appended user's
/// cached empty reply — must come back from the cache equal to what a
/// cache-off service scores on the same snapshot.
#[test]
fn refreshed_replies_equal_a_cache_off_service() {
    let (m, n, f) = (70usize, 500usize, 8usize);
    let (x, theta) = base_factors(41, m, n, f);
    let coarse = ApproxPolicy {
        epsilon: 0.5,
        max_blocks: 1,
        target_recall: 0.0,
    };
    let config = ServeConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        item_block: 16,
        ..Default::default()
    };
    let cached = TopKService::start(
        FactorSnapshot::from_factors(x.clone(), theta.clone()),
        config.clone(),
    );
    let uncached = TopKService::start(
        FactorSnapshot::from_factors(x, theta),
        ServeConfig {
            cache_capacity: 0,
            ..config
        },
    );
    let appended = m as u32;
    let reads = |client: &cumf_serve::ServeClient| {
        vec![
            client.recommend(9, 6, &[3, 1, 4, 1, 5]).unwrap(),
            client.recommend_approx(9, 6, &[2], coarse).unwrap(),
            client.recommend(12, 4, &[]).unwrap(),
            client.recommend(appended, 5, &[]).unwrap(),
        ]
    };
    let client = cached.client();
    let before = reads(&client);
    assert!(before[3].is_empty(), "user {appended} does not exist yet");

    let spec = DeltaSpec {
        changed: vec![9, 12],
        appended_users: 1,
        appended_items: 0,
        seed: 5,
    };
    for service in [&cached, &uncached] {
        let delta = spec.build(service.snapshot().generation(), f);
        service.publish_delta(&delta).unwrap();
    }
    let misses = cached.metrics()[Counter::CacheMisses];
    assert_eq!(cached.metrics()[Counter::CacheRefreshes], 4);
    let after = reads(&client);
    assert_eq!(after, reads(&uncached.client()));
    assert_eq!(after[3].len(), 5, "the appended user's reply is refreshed");
    assert_ne!(
        after[1],
        cached.snapshot().recommend_one(9, 6, &[2]),
        "the approximate key must score differently from an exact one"
    );
    assert_ne!(after, before);
    assert_eq!(
        cached.metrics()[Counter::CacheMisses],
        misses,
        "a refreshed key missed"
    );
}

/// An item-appending delta keeps the lazy whole-cache path: nothing is
/// re-scored on the publishing thread, and the next read of a changed user
/// misses and scores against the new catalog.
#[test]
fn item_appending_delta_refreshes_nothing() {
    let (x, theta) = base_factors(43, 30, 200, 6);
    let service = TopKService::start(
        FactorSnapshot::from_factors(x, theta),
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let client = service.client();
    client.recommend(4, 5, &[]).unwrap();
    client.recommend(7, 5, &[]).unwrap();
    let misses = service.metrics()[Counter::CacheMisses];
    let mut delta = service.snapshot().delta();
    delta.update_user(4, &[1.0; 6]);
    delta.append_items(&FactorMatrix::random(3, 6, 1.0, 9));
    service.publish_delta(&delta).unwrap();
    assert_eq!(service.metrics()[Counter::CacheRefreshes], 0);
    for user in [4, 7] {
        let got = client.recommend(user, 5, &[]).unwrap();
        assert_eq!(got, service.snapshot().recommend_one(user, 5, &[]));
    }
    assert_eq!(service.metrics()[Counter::CacheMisses], misses + 2);
}

/// A delta appending catalog items must invalidate every cached ranking —
/// the new item can enter anyone's top-k.
#[test]
fn item_appending_delta_invalidates_all_users() {
    let (x, theta) = base_factors(21, 30, 200, 6);
    let service = TopKService::start(
        FactorSnapshot::from_factors(x, theta),
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let client = service.client();
    let before = client.recommend(4, 5, &[]).unwrap();

    // Append an item that dominates every dot product.
    let mut delta = service.snapshot().delta();
    delta.append_items(&FactorMatrix::from_vec(1, 6, vec![50.0; 6]));
    service.publish_delta(&delta).unwrap();

    let after = client.recommend(4, 5, &[]).unwrap();
    assert_ne!(after, before);
    assert_eq!(after[0].0, 200, "appended beacon item must rank first");
}

/// Stale deltas are rejected, not silently applied over a newer publish.
#[test]
fn stale_delta_is_rejected_by_the_service() {
    let (x, theta) = base_factors(31, 20, 100, 4);
    let service = TopKService::start(
        FactorSnapshot::from_factors(x.clone(), theta.clone()),
        ServeConfig::default(),
    );
    let mut delta = service.snapshot().delta();
    delta.update_user(0, &[1.0; 4]);
    service.publish(FactorSnapshot::from_factors(x, theta)); // generation 2
    assert_eq!(
        service.publish_delta(&delta),
        Err(DeltaError::StaleBase {
            delta: 1,
            current: 2
        })
    );
}

/// Hot-swap under load with **interleaved full and delta publishes**: every
/// reply must match exactly one published state — never a mix — and after
/// the last publish only the final state may be served.
#[test]
fn interleaved_full_and_delta_publishes_never_mix_states() {
    const N_USERS: usize = 16;
    const N_ITEMS: usize = 400;
    const F: usize = 8;
    const K: usize = 3;

    // Build the state sequence offline: alternating full republications
    // (fresh beacon snapshot) and deltas that re-point every user at a new
    // beacon item.  All users share one factor row per state, so one
    // expected result covers every query in that state.
    fn beacon_snapshot(tag: usize) -> FactorSnapshot {
        let x = FactorMatrix::from_vec(N_USERS, F, vec![1.0; N_USERS * F]);
        let mut theta = FactorMatrix::zeros(N_ITEMS, F);
        for v in 0..N_ITEMS {
            theta.vector_mut(v).fill(1e-3 * (1.0 + (v % 7) as f32));
        }
        theta.vector_mut(tag).fill(100.0 + tag as f32);
        FactorSnapshot::from_factors(x, theta)
    }
    /// A delta that rescales every user's shared factor row by `2 + step`:
    /// the ranking keeps the current beacon, but every score changes, so
    /// the state is distinguishable from its base.
    fn all_users_delta(base_generation: u64, step: usize) -> SnapshotDelta {
        let mut delta = SnapshotDelta::new(base_generation, F);
        let row = vec![(2 + step) as f32; F];
        for u in 0..N_USERS as u32 {
            delta.update_user(u, &row);
        }
        delta
    }

    // States: 0 full(0), 1 delta, 2 full(2), 3 delta, 4 full(4), 5 delta.
    let mut states: Vec<FactorSnapshot> = Vec::new();
    states.push(beacon_snapshot(0));
    for step in 1..6 {
        if step % 2 == 0 {
            states.push(beacon_snapshot(step));
        } else {
            let base = states.last().unwrap();
            let delta = all_users_delta(base.generation(), step);
            let (next, _) = base.apply_delta(&delta).unwrap();
            states.push(next);
        }
    }
    let expected: Vec<Vec<(u32, f32)>> =
        states.iter().map(|s| s.recommend_one(0, K, &[])).collect();
    // Sanity: every state is distinguishable.
    for (i, a) in expected.iter().enumerate() {
        for b in expected.iter().skip(i + 1) {
            assert_ne!(a, b, "states must differ for the test to bite");
        }
    }

    let service = TopKService::start(
        states[0].clone(),
        ServeConfig {
            workers: 2,
            shards: 2,
            max_batch: 16,
            max_delay: Duration::from_millis(1),
            ..Default::default()
        },
    );

    std::thread::scope(|s| {
        for t in 0..4usize {
            let client = service.client();
            let expected = &expected;
            s.spawn(move || {
                for i in 0..150u32 {
                    let user = (t as u32 * 5 + i) % N_USERS as u32;
                    let got = client.recommend(user, K, &[]).unwrap();
                    assert!(
                        expected.iter().any(|e| e == &got),
                        "reply matches no single published state (mixed?): {got:?}"
                    );
                }
            });
        }
        // Interleave full and delta publishes while the clients hammer.
        for step in 1..6 {
            std::thread::sleep(Duration::from_millis(3));
            if step % 2 == 0 {
                service.publish(beacon_snapshot(step));
            } else {
                let delta = all_users_delta(service.snapshot().generation(), step);
                service.publish_delta(&delta).unwrap();
            }
        }
    });

    // Only the final state may be served after the last publish.
    let client = service.client();
    for user in 0..N_USERS as u32 {
        let got = client.recommend(user, K, &[]).unwrap();
        assert_eq!(got, expected[5], "stale state served after final publish");
    }
    let m = service.metrics();
    assert_eq!(m[Counter::Requests], m[Counter::Responses]);
    assert_eq!(m[Counter::SnapshotSwaps], 5);
    assert_eq!(m[Counter::DeltaPublishes], 3, "deltas at steps 1, 3, 5");
    assert_eq!(m[Counter::WorkerPanics], 0);
}
