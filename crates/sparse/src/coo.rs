//! Coordinate-list (COO) sparse matrix.
//!
//! COO is the construction format: data generators and file readers append
//! `(row, col, value)` triplets, which are then converted to [`Csr`] /
//! [`Csc`](crate::Csc) for computation.

use crate::{Csr, Entry, SparseError};

/// A sparse matrix stored as a list of `(row, col, value)` triplets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Coo {
    n_rows: u32,
    n_cols: u32,
    entries: Vec<Entry>,
}

impl Coo {
    /// Creates an empty COO matrix with the given shape.
    pub fn new(n_rows: u32, n_cols: u32) -> Self {
        Self {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with the given shape and reserved capacity.
    pub fn with_capacity(n_rows: u32, n_cols: u32, nnz: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Builds a COO matrix from raw triplets, validating index ranges.
    pub fn from_entries(
        n_rows: u32,
        n_cols: u32,
        entries: Vec<Entry>,
    ) -> Result<Self, SparseError> {
        for e in &entries {
            if e.row >= n_rows {
                return Err(SparseError::RowOutOfBounds { row: e.row, n_rows });
            }
            if e.col >= n_cols {
                return Err(SparseError::ColOutOfBounds { col: e.col, n_cols });
            }
        }
        Ok(Self {
            n_rows,
            n_cols,
            entries,
        })
    }

    /// Appends one entry, validating its indices.
    pub fn push(&mut self, row: u32, col: u32, val: f32) -> Result<(), SparseError> {
        if row >= self.n_rows {
            return Err(SparseError::RowOutOfBounds {
                row,
                n_rows: self.n_rows,
            });
        }
        if col >= self.n_cols {
            return Err(SparseError::ColOutOfBounds {
                col,
                n_cols: self.n_cols,
            });
        }
        self.entries.push(Entry::new(row, col, val));
        Ok(())
    }

    /// Number of rows `m`.
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns `n`.
    pub fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// Number of stored entries `Nz` (duplicates counted until [`Coo::dedup`]).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns the stored entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Sorts entries by `(row, col)`.
    pub fn sort(&mut self) {
        self.entries.sort_unstable_by_key(|e| (e.row, e.col));
    }

    /// Sorts and merges duplicate `(row, col)` coordinates by summing values.
    pub fn dedup(&mut self) {
        self.sort();
        let mut out: Vec<Entry> = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            match out.last_mut() {
                Some(last) if last.row == e.row && last.col == e.col => last.val += e.val,
                _ => out.push(e),
            }
        }
        self.entries = out;
    }

    /// Converts to CSR form. Entries need not be sorted.
    pub fn to_csr(&self) -> Csr {
        Csr::from_coo(self)
    }

    /// Returns the transpose as a new COO matrix (rows and columns swapped).
    pub fn transpose(&self) -> Coo {
        let entries = self
            .entries
            .iter()
            .map(|e| Entry::new(e.col, e.row, e.val))
            .collect();
        Coo {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        let mut c = Coo::new(3, 4);
        c.push(0, 1, 1.0).unwrap();
        c.push(2, 3, 2.0).unwrap();
        c.push(1, 0, 3.0).unwrap();
        c.push(0, 0, 4.0).unwrap();
        c
    }

    #[test]
    fn push_and_shape() {
        let c = sample();
        assert_eq!(c.n_rows(), 3);
        assert_eq!(c.n_cols(), 4);
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut c = Coo::new(2, 2);
        assert_eq!(
            c.push(2, 0, 1.0),
            Err(SparseError::RowOutOfBounds { row: 2, n_rows: 2 })
        );
        assert_eq!(
            c.push(0, 5, 1.0),
            Err(SparseError::ColOutOfBounds { col: 5, n_cols: 2 })
        );
    }

    #[test]
    fn from_entries_validates() {
        let bad = vec![Entry::new(0, 0, 1.0), Entry::new(9, 0, 1.0)];
        assert!(Coo::from_entries(2, 2, bad).is_err());
        let good = vec![Entry::new(0, 0, 1.0), Entry::new(1, 1, 1.0)];
        assert_eq!(Coo::from_entries(2, 2, good).unwrap().nnz(), 2);
    }

    #[test]
    fn sort_orders_by_row_then_col() {
        let mut c = sample();
        c.sort();
        let keys: Vec<(u32, u32)> = c.entries().iter().map(|e| (e.row, e.col)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (2, 3)]);
    }

    #[test]
    fn dedup_sums_duplicates() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push(0, 0, 2.5).unwrap();
        c.push(1, 1, 1.0).unwrap();
        c.dedup();
        assert_eq!(c.nnz(), 2);
        assert!((c.entries()[0].val - 3.5).abs() < 1e-6);
    }

    #[test]
    fn transpose_swaps_shape_and_indices() {
        let t = sample().transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        assert!(t.entries().iter().any(|e| e.row == 3 && e.col == 2));
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let c = Coo::new(5, 7);
        let csr = c.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.n_rows(), 5);
        assert_eq!(csr.n_cols(), 7);
    }
}
