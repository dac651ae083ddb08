//! Hot-swap under fire: concurrent clients query while snapshots are
//! republished.  The acceptance bar: no panics, every reply is internally
//! consistent with exactly one published generation (never a mix), and the
//! cache stops serving a generation the moment the next one is published.

use cumf_linalg::FactorMatrix;
use cumf_serve::{Counter, FactorSnapshot, ServeConfig, TopKService};
use std::time::Duration;

const N_ITEMS: usize = 500;
const N_USERS: usize = 16;
const F: usize = 8;
const K: usize = 3;
const GENERATIONS: usize = 8;

/// Builds a snapshot whose entire top-k result encodes `tag`: every item
/// score scales with `tag + 1`, and item `tag` is a beacon that outranks
/// everything.  Any mix of two generations' scores would produce a result
/// list matching neither expectation.
fn tagged_snapshot(tag: usize) -> FactorSnapshot {
    let x = FactorMatrix::from_vec(N_USERS, F, vec![1.0; N_USERS * F]);
    let mut theta = FactorMatrix::zeros(N_ITEMS, F);
    for v in 0..N_ITEMS {
        let base = (tag + 1) as f32 * (1.0 + (v % 13) as f32) * 1e-3;
        theta.vector_mut(v).fill(base);
    }
    theta.vector_mut(tag).fill(100.0 + tag as f32);
    FactorSnapshot::from_factors(x, theta)
}

#[test]
fn hot_swap_under_concurrent_queries_never_mixes_generations() {
    let snapshots: Vec<FactorSnapshot> = (0..GENERATIONS).map(tagged_snapshot).collect();
    // All users share the same factor vector, so one expected result per
    // snapshot covers every query.
    let expected: Vec<Vec<(u32, f32)>> = snapshots
        .iter()
        .map(|s| s.recommend_one(0, K, &[]))
        .collect();
    for (tag, exp) in expected.iter().enumerate() {
        assert_eq!(exp[0].0 as usize, tag, "beacon item must rank first");
    }

    let service = TopKService::start(
        snapshots[0].clone(),
        ServeConfig {
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
                for i in 0..200u32 {
                    let user = (t as u32 * 7 + i) % N_USERS as u32;
                    let got = client.recommend(user, K, &[]).unwrap();
                    assert!(
                        expected.iter().any(|e| e == &got),
                        "reply matches no single generation (mixed?): {got:?}"
                    );
                }
            });
        }
        // Publish the remaining generations while the clients hammer away.
        for snap in &snapshots[1..] {
            std::thread::sleep(Duration::from_millis(2));
            service.publish(snap.clone());
        }
    });

    // After the last publish every further query — cached or scored — must
    // come from the final generation: the cache may not serve stale entries.
    let client = service.client();
    for user in 0..N_USERS as u32 {
        let got = client.recommend(user, K, &[]).unwrap();
        assert_eq!(
            got,
            expected[GENERATIONS - 1],
            "stale generation served after final publish (user {user})"
        );
    }

    let m = service.metrics();
    assert_eq!(
        m[Counter::Requests],
        m[Counter::Responses],
        "every request was answered"
    );
    assert_eq!(m[Counter::SnapshotSwaps] as usize, GENERATIONS - 1);
}

#[test]
fn publish_does_not_block_in_flight_reads() {
    // A reader holding the old Arc keeps a coherent view across publishes.
    let service = TopKService::start(tagged_snapshot(0), ServeConfig::default());
    let before = service.snapshot();
    let g0 = before.generation();
    service.publish(tagged_snapshot(1));
    service.publish(tagged_snapshot(2));
    assert_eq!(before.generation(), g0, "held snapshot mutated by publish");
    assert_eq!(before.recommend_one(0, 1, &[])[0].0, 0);
    assert_eq!(service.snapshot().recommend_one(0, 1, &[])[0].0, 2);
}
