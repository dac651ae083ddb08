//! An out-of-core "run" that spills more batches than the prefetcher keeps
//! in flight: 12 vertical partitions of `R` stream through a 2-deep
//! [`Prefetcher`] while the consumer accumulates partial Hermitians, and
//! the result must equal the in-core fused solve.

use cumf_core::als::kernels::{accumulate_partials, finalize_and_solve, partial_hermitians};
use cumf_core::oocore::Prefetcher;
use cumf_data::synth::SyntheticConfig;
use cumf_linalg::FactorMatrix;
use cumf_sparse::vertical_partition;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const N_BATCHES: usize = 12;
const IN_FLIGHT: usize = 2;

#[test]
fn streamed_partials_with_bounded_prefetch_match_in_core_solve() {
    let data = SyntheticConfig {
        m: 200,
        n: 240,
        nnz: 8_000,
        ..Default::default()
    }
    .generate();
    let r = data.to_csr();
    let f = 8;
    let lambda = 0.05;
    let theta = FactorMatrix::random(240, f, 0.5, 3);

    let blocks = vertical_partition(&r, N_BATCHES).unwrap();
    assert!(
        blocks.len() > IN_FLIGHT,
        "scenario must spill: {} batches vs {IN_FLIGHT} in flight",
        blocks.len()
    );

    // Package each partition as the data an out-of-core loader would
    // materialize: the block of R plus the matching slice of Θ.
    let batches: Vec<(cumf_sparse::Csr, FactorMatrix)> = blocks
        .iter()
        .map(|b| {
            let cs = b.col_start as usize;
            let cols = b.n_cols() as usize;
            let mut part = FactorMatrix::zeros(cols, f);
            for c in 0..cols {
                part.vector_mut(c).copy_from_slice(theta.vector(cs + c));
            }
            (b.csr.clone(), part)
        })
        .collect();
    let n_batches = batches.len();

    let produced = Arc::new(AtomicUsize::new(0));
    let produced_in_loader = Arc::clone(&produced);
    let mut prefetcher = Prefetcher::start(n_batches, IN_FLIGHT, move |i| {
        produced_in_loader.fetch_add(1, Ordering::SeqCst);
        // Simulate disk latency so the consumer genuinely overlaps.
        std::thread::sleep(std::time::Duration::from_millis(1));
        batches[i].clone()
    });

    let rows = r.n_rows() as usize;
    let mut acc_a = vec![0.0f32; rows * f * f];
    let mut acc_b = vec![0.0f32; rows * f];
    let mut consumed = 0usize;
    while let Some((block, part)) = prefetcher.next_batch() {
        consumed += 1;
        // The bounded channel is the double buffer: the loader may only run
        // ahead by the channel capacity plus the batch it is producing.
        let ahead = produced.load(Ordering::SeqCst).saturating_sub(consumed);
        assert!(
            ahead <= IN_FLIGHT + 1,
            "prefetcher ran {ahead} batches ahead with in_flight={IN_FLIGHT}"
        );
        let (pa, pb) = partial_hermitians(&block, &part, f);
        accumulate_partials(&mut acc_a, &mut acc_b, &pa, &pb);
    }
    assert_eq!(consumed, n_batches, "every spilled batch must arrive");

    let degrees: Vec<usize> = (0..r.n_rows()).map(|u| r.nnz_row(u)).collect();
    let streamed = finalize_and_solve(&mut acc_a, &mut acc_b, &degrees, lambda, f);

    let in_core = cumf_core::als::kernels::solve_side(&r, &theta, lambda, None);
    let diff = streamed.max_abs_diff(&in_core);
    assert!(
        diff < 1e-3,
        "streamed out-of-core update diverged from in-core solve: {diff}"
    );
}
