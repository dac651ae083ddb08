//! An out-of-core "run": `R` in 12 horizontal batches — SU-ALS's `X(j)` —
//! solved one batch at a time against `Θ`, the way an out-of-core loader
//! would hand them over.  Every row is solved on its own, so the assembled
//! `X` must equal the in-core solve bit for bit.

use cumf_core::als::kernels::solve_side;
use cumf_data::synth::SyntheticConfig;
use cumf_linalg::FactorMatrix;
use cumf_sparse::horizontal_partition;

const N_BATCHES: usize = 12;

#[test]
fn batch_at_a_time_solve_matches_in_core_solve_bit_for_bit() {
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
    assert_eq!(batches.len(), N_BATCHES);

    let mut assembled = FactorMatrix::zeros(r.n_rows() as usize, f);
    for batch in &batches {
        let x = solve_side(&batch.csr, &theta, lambda, None);
        for local in 0..batch.n_rows() {
            assembled
                .vector_mut(batch.global_row(local) as usize)
                .copy_from_slice(x.vector(local as usize));
        }
    }

    let in_core = solve_side(&r, &theta, lambda, None);
    let bits = |m: &FactorMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&assembled),
        bits(&in_core),
        "batch-at-a-time out-of-core update diverged from the in-core solve"
    );
}
