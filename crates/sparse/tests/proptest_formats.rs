//! Property-based tests on the sparse-matrix substrate: format round trips,
//! transpose involution, and partition completeness.

use cumf_sparse::{horizontal_partition, Coo, Csr, Entry};
use proptest::prelude::*;

/// Strategy producing a random de-duplicated COO matrix with the given
/// maximum shape and density.
fn arb_coo(max_rows: u32, max_cols: u32, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(move |(m, n)| {
        proptest::collection::vec(
            (0..m, 0..n, -10.0f32..10.0f32).prop_map(|(r, c, v)| Entry::new(r, c, v)),
            0..=max_nnz,
        )
        .prop_map(move |entries| {
            let mut coo = Coo::from_entries(m, n, entries).unwrap();
            coo.dedup();
            coo
        })
    })
}

fn sorted_triplets(csr: &Csr) -> Vec<(u32, u32, f32)> {
    let mut t: Vec<(u32, u32, f32)> = csr.iter().map(|e| (e.row, e.col, e.val)).collect();
    t.sort_by_key(|a| (a.0, a.1));
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csr_roundtrip_preserves_entries(coo in arb_coo(40, 40, 200)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.nnz(), coo.nnz());
        let mut original: Vec<(u32, u32, f32)> =
            coo.entries().iter().map(|e| (e.row, e.col, e.val)).collect();
        original.sort_by_key(|a| (a.0, a.1));
        prop_assert_eq!(original, sorted_triplets(&csr));
    }

    #[test]
    fn csr_csc_roundtrip(coo in arb_coo(30, 30, 150)) {
        let csr = coo.to_csr();
        let back = csr.to_csc().to_csr();
        prop_assert_eq!(csr, back);
    }

    #[test]
    fn transpose_is_involution(coo in arb_coo(30, 30, 150)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.clone(), csr.transpose().transpose());
    }

    #[test]
    fn transpose_swaps_coordinates(coo in arb_coo(20, 20, 80)) {
        let csr = coo.to_csr();
        let t = csr.transpose();
        for e in csr.iter() {
            prop_assert_eq!(t.get(e.col, e.row), Some(e.val));
        }
    }

    #[test]
    fn horizontal_partition_is_complete(
        coo in arb_coo(32, 32, 150),
        q in 1usize..6,
    ) {
        let csr = coo.to_csr();
        let q = q.min(csr.n_rows() as usize).max(1);
        let blocks = horizontal_partition(&csr, q).unwrap();
        let total: usize = blocks.iter().map(|b| b.csr.nnz()).sum();
        prop_assert_eq!(total, csr.nnz());
        // Each entry is recoverable at its translated position.
        for e in csr.iter() {
            let hits = blocks.iter().filter(|b| {
                e.row >= b.row_start && e.row < b.row_start + b.n_rows()
                    && b.csr.get(e.row - b.row_start, e.col) == Some(e.val)
            }).count();
            prop_assert_eq!(hits, 1);
        }
    }

    #[test]
    fn row_and_col_degrees_sum_to_nnz(coo in arb_coo(30, 30, 150)) {
        let csr = coo.to_csr();
        let rs: usize = cumf_sparse::stats::row_degrees(&csr).iter().sum();
        let cs: usize = cumf_sparse::stats::col_degrees(&csr).iter().sum();
        prop_assert_eq!(rs, csr.nnz());
        prop_assert_eq!(cs, csr.nnz());
    }
}
