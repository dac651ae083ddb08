//! Degree statistics of a rating matrix.
//!
//! The cuMF paper's cost model (Table 3) is driven by `n_{x_u}` and
//! `n_{θ_v}`, the number of ratings per user and per item.  These helpers
//! compute them.

use crate::Csr;

/// Per-row non-zero counts (`n_{x_u}` for every user `u`).
pub fn row_degrees(r: &Csr) -> Vec<usize> {
    (0..r.n_rows()).map(|u| r.nnz_row(u)).collect()
}

/// Per-column non-zero counts (`n_{θ_v}` for every item `v`).
pub fn col_degrees(r: &Csr) -> Vec<usize> {
    let mut counts = vec![0usize; r.n_cols() as usize];
    for &c in r.col_idx() {
        counts[c as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr {
        // Row degrees: 3, 1, 0, 2
        let mut c = Coo::new(4, 5);
        c.push(0, 0, 1.0).unwrap();
        c.push(0, 1, 1.0).unwrap();
        c.push(0, 4, 1.0).unwrap();
        c.push(1, 2, 1.0).unwrap();
        c.push(3, 0, 1.0).unwrap();
        c.push(3, 3, 1.0).unwrap();
        c.to_csr()
    }

    #[test]
    fn row_degrees_and_stats() {
        assert_eq!(row_degrees(&sample()), vec![3, 1, 0, 2]);
    }

    #[test]
    fn col_degrees_and_stats() {
        assert_eq!(col_degrees(&sample()), vec![2, 1, 1, 1, 1]);
    }

    #[test]
    fn empty_matrix_stats() {
        let r = Coo::new(0, 0).to_csr();
        assert!(row_degrees(&r).is_empty());
        assert!(col_degrees(&r).is_empty());
    }
}
