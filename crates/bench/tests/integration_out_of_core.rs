//! An out-of-core "run" that spills more batches than the prefetcher keeps
//! in flight: `R` in 12 horizontal batches — SU-ALS's `X(j)`, solved in
//! sequence — streams through a 2-deep [`Prefetcher`] while the consumer
//! solves each batch's rows against `Θ`.  Every row is solved on its own,
//! so the streamed `X` must equal the in-core solve bit for bit.

use cumf_core::als::kernels::solve_side;
use cumf_core::oocore::Prefetcher;
use cumf_data::synth::SyntheticConfig;
use cumf_linalg::FactorMatrix;
use cumf_sparse::horizontal_partition;
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

    // Each batch is what an out-of-core loader would materialize: a block
    // of R's rows over the whole catalog.
    let batches = horizontal_partition(&r, N_BATCHES).unwrap();
    let n_batches = batches.len();
    assert!(
        n_batches > IN_FLIGHT,
        "scenario must spill: {n_batches} batches vs {IN_FLIGHT} in flight"
    );

    let produced = Arc::new(AtomicUsize::new(0));
    let produced_in_loader = Arc::clone(&produced);
    let mut prefetcher = Prefetcher::start(n_batches, IN_FLIGHT, move |i| {
        produced_in_loader.fetch_add(1, Ordering::SeqCst);
        // Simulate disk latency so the consumer genuinely overlaps.
        std::thread::sleep(std::time::Duration::from_millis(1));
        batches[i].clone()
    });

    let mut streamed = FactorMatrix::zeros(r.n_rows() as usize, f);
    let mut consumed = 0usize;
    while let Some(batch) = prefetcher.next_batch() {
        consumed += 1;
        // The bounded channel is the double buffer: the loader may only run
        // ahead by the channel capacity plus the batch it is producing.
        let ahead = produced.load(Ordering::SeqCst).saturating_sub(consumed);
        assert!(
            ahead <= IN_FLIGHT + 1,
            "prefetcher ran {ahead} batches ahead with in_flight={IN_FLIGHT}"
        );
        let x = solve_side(&batch.csr, &theta, lambda, None);
        for local in 0..batch.n_rows() {
            streamed
                .vector_mut(batch.global_row(local) as usize)
                .copy_from_slice(x.vector(local as usize));
        }
    }
    assert_eq!(consumed, n_batches, "every spilled batch must arrive");

    let in_core = solve_side(&r, &theta, lambda, None);
    let bits = |m: &FactorMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&streamed),
        bits(&in_core),
        "streamed out-of-core update diverged from the in-core solve"
    );
}
