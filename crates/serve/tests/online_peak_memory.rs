//! Memory held by a fold-in online loop.  `OnlineLoop::fold_in` keeps only
//! the engine's λ, rank and metrics sink and drops the engine — its factors
//! and both copies of the training matrix — before it builds the per-user
//! rating history, one item-sorted `(item, rating)` list per user.  The
//! history reuses the engine's memory, so building the loop does not raise
//! the resident set past where it stood.  A loop that kept its engine, or
//! built the history before dropping it, raises it by the whole history,
//! and one that stored the history as a nested tree map (~450 B per
//! 16-rating user instead of ~150 B) by more than that.
//!
//! One test in this binary on purpose: `VmHWM` is a process-wide high-water
//! mark, so nothing else may allocate while it measures.

#[cfg(target_os = "linux")]
#[test]
fn fold_in_loop_holds_the_history_not_the_engine() {
    use cumf_core::als::AlsEngine;
    use cumf_core::config::AlsConfig;
    use cumf_data::stream::{ReplayStream, StreamBatcher};
    use cumf_serve::{FactorSnapshot, OnlineLoop, OnlineLoopConfig, ServeMetrics, SnapshotStore};
    use cumf_sparse::Csr;
    use std::sync::Arc;

    const USERS: u32 = 50_000;
    const ITEMS: u32 = 2_000;
    const PER_USER: u32 = 16;
    // Every user rates PER_USER distinct items spread over the catalog.
    let nnz = (USERS * PER_USER) as usize;
    let row_ptr = (0..=USERS as usize)
        .map(|u| u * PER_USER as usize)
        .collect();
    let col_idx = (0..USERS)
        .flat_map(|u| {
            let mut row: Vec<u32> = (0..PER_USER).map(|j| (u * 7 + j * 101) % ITEMS).collect();
            row.sort_unstable();
            row
        })
        .collect();
    let values = (0..nnz).map(|i| 1.0 + (i % 5) as f32).collect();
    let training = Csr::from_raw(USERS, ITEMS, row_ptr, col_idx, values).unwrap();
    let engine = AlsEngine::new(
        AlsConfig {
            f: 8,
            ..Default::default()
        },
        training.clone(),
    );
    let store = SnapshotStore::new(FactorSnapshot::from_factors(
        engine.x().clone(),
        engine.theta().clone(),
    ));
    let batcher = StreamBatcher::spawn(ReplayStream::from_entries(Vec::new(), ITEMS), 16);
    // The packed `(item, rating)` payload of the history alone.
    let history_bytes = nnz * 8;

    // Set-up peaked higher than it holds now; start the mark from here.
    std::fs::write("/proc/self/clear_refs", "5").expect("resetting VmHWM needs Linux 4.0+");
    let before = status_bytes("VmRSS:");
    let online = OnlineLoop::fold_in(
        Box::new(engine),
        &training,
        batcher,
        &store,
        Arc::new(ServeMetrics::new()),
        OnlineLoopConfig::default(),
    );
    let rise = status_bytes("VmHWM:").saturating_sub(before);
    drop(online);

    assert!(
        rise < history_bytes / 2,
        "building the fold-in loop took the peak RSS {rise} B past its start, {:.2}x the {history_bytes} B history payload",
        rise as f64 / history_bytes as f64
    );
}

/// A `kB` line of `/proc/self/status` (`VmRSS:` resident now, `VmHWM:` peak
/// resident), in bytes.
#[cfg(target_os = "linux")]
fn status_bytes(key: &str) -> usize {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: usize = status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status carries {key} in kB"));
    kib * 1024
}
