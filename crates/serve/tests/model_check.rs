//! Schedule-exploring model checks for the serving tier's lock-free
//! structures: the `SnapshotStore` CAS publish, the generation-stamped
//! result cache (the PR 4 regression and the delta-publish refresh), and
//! the queue-depth gauge.
//!
//! Compiled only under `--cfg cumf_model_check` (see
//! `crates/serve/src/sync.rs`).  Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg cumf_model_check" CARGO_TARGET_DIR=target/model \
//!     cargo test -p cumf-serve --test model_check
//! ```
#![cfg(cumf_model_check)]

use cumf_linalg::FactorMatrix;
use cumf_serve::metrics::ServeMetrics;
use cumf_serve::snapshot::{DeltaError, FactorSnapshot, SnapshotStore};
use cumf_serve::{CacheKey, ShardedResultCache};
use loom::sync::Arc;
use loom::thread;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn tiny_snapshot(seed: u64) -> FactorSnapshot {
    FactorSnapshot::from_factors(
        FactorMatrix::random(4, 3, 1.0, seed),
        FactorMatrix::random(6, 3, 1.0, seed + 1),
    )
}

/// Invariant: `publish_if_current` is an atomic compare-and-swap on the
/// generation — two publishers racing from the same base can never both
/// win, and the loser's work is reported stale rather than silently
/// clobbering the winner's.
#[test]
fn publish_if_current_has_exactly_one_winner() {
    let stats = loom::Builder::new().preemption_bound(3).check(|| {
        let store = Arc::new(SnapshotStore::new(tiny_snapshot(7)));
        // Both publishers derive their work from the SAME base — the
        // delta-apply / compaction pattern the CAS protects.
        let base_generation = store.load().generation();
        let store2 = Arc::clone(&store);
        let t =
            thread::spawn(move || store2.publish_if_current(tiny_snapshot(100), base_generation));
        // A concurrent query: the generation counter is bumped under the
        // same write lock as the pointer swap, so a load() issued after
        // reading the counter can never observe an *older* snapshot.
        let store3 = Arc::clone(&store);
        let reader = thread::spawn(move || {
            let seen = store3.generation();
            let snap = store3.load();
            assert!(
                snap.generation() >= seen,
                "load() returned generation {} after generation() read {}",
                snap.generation(),
                seen
            );
        });
        let mine = store.publish_if_current(tiny_snapshot(200), base_generation);
        let theirs = t.join().expect("model thread");
        reader.join().expect("model thread");
        let outcomes = [&mine, &theirs];
        let wins = outcomes.iter().filter(|r| r.is_ok()).count();
        assert_eq!(
            wins, 1,
            "CAS publish must have exactly one winner: {mine:?} vs {theirs:?}"
        );
        for r in outcomes {
            match r {
                Ok(generation) => assert_eq!(*generation, 2),
                Err(DeltaError::StaleBase { delta, current }) => {
                    assert_eq!((*delta, *current), (1, 2));
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(store.generation(), 2);
    });
    assert!(
        stats.interleavings >= 100,
        "scenario explored only {} interleavings",
        stats.interleavings
    );
}

/// PR 4 regression, model-checked: an in-flight batch that computed its
/// result against an **older** snapshot generation must not clobber a
/// fresher cached result, in any interleaving of the two inserts.  The
/// generation guard in `ResultCache::insert` is what makes the stale
/// insert lose; before PR 4 the last writer won unconditionally.
#[test]
fn stale_inflight_batch_never_clobbers_newer_cache_entry() {
    let old_result = vec![(1u32, 0.5f32)];
    let new_result = vec![(2u32, 0.9f32)];
    let stats = loom::Builder::new().preemption_bound(3).check(|| {
        let cache = Arc::new(ShardedResultCache::new(1, 64, usize::MAX));
        let cache2 = Arc::clone(&cache);
        let old2 = old_result.clone();
        // The straggler: a batch scored against generation 1, completing
        // after a hot-swap already published generation 2 results.
        let t = thread::spawn(move || {
            cache2.insert(CacheKey::new(1, 1, &[]), 1, old2);
        });
        // A generation-2 lookup racing both inserts: a miss is fine, the
        // stale list is not.
        let cache3 = Arc::clone(&cache);
        let old3 = old_result.clone();
        let racer = thread::spawn(move || {
            let mid_race = cache3.get(&CacheKey::new(1, 1, &[]), 2);
            assert_ne!(
                mid_race.as_ref(),
                Some(&old3),
                "mid-race generation-2 lookup served a generation-1 result"
            );
        });
        cache.insert(CacheKey::new(1, 1, &[]), 2, new_result.clone());
        t.join().expect("model thread");
        racer.join().expect("model thread");
        let served = cache.get(&CacheKey::new(1, 1, &[]), 2);
        assert_ne!(
            served.as_ref(),
            Some(&old_result),
            "generation-2 lookup served a generation-1 result"
        );
        // A miss (stale insert landed last and was rejected, or evicted the
        // slot) is acceptable — serving the *old* list is the bug.
    });
    assert!(stats.interleavings >= 100);
}

/// The delta-publish refresh, model-checked: user 7's reply is cached at
/// generation 1; a worker batch that scored user 7 on the generation-1
/// snapshot inserts its (old) reply while the publisher moves the cache to
/// generation 2, takes user 7's keys out and re-inserts them re-scored,
/// and a batch on the generation-2 snapshot reads concurrently.  In no
/// interleaving may a generation-2 read get the old reply, and once the
/// publish returns the refreshed reply must be what generation 2 serves.
/// The guard that makes the straggler lose is `ResultCache::insert`
/// dropping inserts computed before the current generation.
#[test]
fn delta_refresh_racing_a_stale_batch_never_serves_the_old_reply() {
    let old_reply = vec![(1u32, 0.5f32)];
    let new_reply = vec![(2u32, 0.9f32)];
    let stats = loom::Builder::new().preemption_bound(3).check(|| {
        let cache = Arc::new(ShardedResultCache::new(1, 64, usize::MAX));
        let key = CacheKey::new(7, 1, &[]);
        cache.publish(1);
        cache.insert(key.clone(), 1, old_reply.clone());
        let (cache2, key2, old2) = (Arc::clone(&cache), key.clone(), old_reply.clone());
        let straggler = thread::spawn(move || cache2.insert(key2, 1, old2));
        let (cache3, key3, old3) = (Arc::clone(&cache), key.clone(), old_reply.clone());
        let reader = thread::spawn(move || {
            assert_ne!(
                cache3.get(&key3, 2),
                Some(old3),
                "mid-refresh generation-2 read served the generation-1 reply"
            );
        });
        let taken = cache.publish_users(1, 2, &[7]);
        assert_eq!(taken, vec![key.clone()], "the cached key is refreshed");
        for k in taken {
            cache.insert(k, 2, new_reply.clone());
        }
        straggler.join().expect("model thread");
        reader.join().expect("model thread");
        assert_eq!(
            cache.get(&key, 2),
            Some(new_reply.clone()),
            "generation 2 must serve the refreshed reply"
        );
    });
    assert!(
        stats.interleavings >= 100,
        "scenario explored only {} interleavings",
        stats.interleavings
    );
}

/// Mutation direction for the PR 4 regression: the same race run against a
/// guard-less last-writer-wins cache (the pre-PR 4 behaviour, modeled
/// inline) must be *caught* by the checker — and caught deterministically,
/// failing on the same interleaving with the same schedule trace across
/// runs.
#[test]
fn checker_catches_guardless_cache_and_reproduces_deterministically() {
    let run = || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            loom::model(|| {
                // Pre-PR 4 model: generation ignored, last insert wins.
                let slot = Arc::new(loom::sync::Mutex::new((0u64, 0u32)));
                let slot2 = Arc::clone(&slot);
                let t = thread::spawn(move || {
                    *slot2.lock().expect("model mutex") = (1, 10); // stale batch
                });
                *slot.lock().expect("model mutex") = (2, 20); // fresh batch
                t.join().expect("model thread");
                let (generation, value) = *slot.lock().expect("model mutex");
                assert!(
                    !(generation == 1 && value == 10),
                    "stale generation-1 result clobbered the fresh one"
                );
            });
        }));
        let payload = result.expect_err("guard-less cache must fail the model");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("failure carries a message")
    };
    let first = run();
    let second = run();
    assert!(first.contains("clobbered"), "wrong failure: {first}");
    assert!(
        first.contains("schedule trace"),
        "failure must carry its trace: {first}"
    );
    assert_eq!(first, second, "found race must reproduce bit-for-bit");
}

/// Invariant: the queue-depth gauge balances to zero once every enter has
/// a matching exit, and the high-water mark brackets the true concurrent
/// occupancy (each enter publishes its own post-increment depth via
/// `fetch_max`, so the mark can neither miss a peak nor exceed the number
/// of concurrent requests).
#[test]
fn queue_gauge_balances_and_high_water_brackets_occupancy() {
    let stats = loom::Builder::new().preemption_bound(3).check(|| {
        let metrics = Arc::new(ServeMetrics::new());
        let m2 = Arc::clone(&metrics);
        let t = thread::spawn(move || {
            m2.record_queue_enter();
            m2.record_queue_exit();
            m2.record_queue_enter();
            m2.record_queue_exit();
        });
        metrics.record_queue_enter();
        // A mid-flight gauge read must stay inside the occupancy envelope
        // (no transient underflow wrap, no phantom occupants).
        let depth = metrics.queue_depth();
        assert!(depth <= 2, "transient depth {depth} outside envelope");
        metrics.record_queue_exit();
        t.join().expect("model thread");
        assert_eq!(metrics.queue_depth(), 0, "gauge leaked");
        let hwm = metrics.report().queue_depth_high_water;
        assert!(
            (1..=2).contains(&hwm),
            "high-water {hwm} outside the 1..=2 occupancy envelope"
        );
    });
    assert!(stats.interleavings >= 100);
}
