//! Peak memory of a snapshot build.  The norm-descending layout permutes
//! the caller's item rows in place and the user matrix is freed before the
//! item store is built, so building a `FactorSnapshot` holds one copy of
//! the catalog: the process high-water mark rises by the build's per-item
//! side tables (norms, sort order, id maps), not by a second `n·f` slab.
//!
//! One test in this binary on purpose: `VmHWM` is a process-wide high-water
//! mark, so nothing else may allocate while it measures.

#[cfg(target_os = "linux")]
#[test]
fn snapshot_build_holds_one_copy_of_the_catalog() {
    use cumf_linalg::FactorMatrix;
    use cumf_serve::FactorSnapshot;

    const N_ITEMS: usize = 200_000;
    const F: usize = 32;
    let catalog_bytes = N_ITEMS * F * 4;
    let x = FactorMatrix::random(1_000, F, 1.0, 1);
    let theta = FactorMatrix::random(N_ITEMS, F, 1.0, 2);

    let before = peak_rss_bytes();
    let snapshot = FactorSnapshot::from_factors(x, theta);
    let rise = peak_rss_bytes().saturating_sub(before);

    assert_eq!(snapshot.n_items(), N_ITEMS);
    assert!(
        rise < catalog_bytes / 4,
        "building the snapshot raised the peak RSS by {rise} B, {:.2}x the {catalog_bytes} B catalog",
        rise as f64 / catalog_bytes as f64
    );
}

/// `VmHWM` (peak resident set) of this process, in bytes.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> usize {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("/proc/self/status carries VmHWM in kB");
    kib * 1024
}
