//! Compressed Sparse Row (CSR) matrix.
//!
//! CSR is the format the cuMF `get_hermitian_x` kernel walks: for each row
//! `u` it gathers the columns `θ_v` with `r_uv ≠ 0` from `Θᵀ`.  The paper's
//! memory-footprint formula `2·Nz + m + 1` (Table 3) corresponds exactly to
//! this layout (values + column indices + row pointers).

use crate::{Coo, Csc, Entry, SparseError};

/// A sparse matrix in Compressed Sparse Row form.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: u32,
    n_cols: u32,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from raw arrays, validating structural invariants.
    pub fn from_raw(
        n_rows: u32,
        n_cols: u32,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != n_rows as usize + 1 {
            return Err(SparseError::InconsistentLength {
                what: "row_ptr",
                expected: n_rows as usize + 1,
                got: row_ptr.len(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::InconsistentLength {
                what: "col_idx/values",
                expected: values.len(),
                got: col_idx.len(),
            });
        }
        if *row_ptr.last().unwrap_or(&0) != values.len() {
            return Err(SparseError::InconsistentLength {
                what: "row_ptr[last]",
                expected: values.len(),
                got: *row_ptr.last().unwrap_or(&0),
            });
        }
        for (i, w) in row_ptr.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(SparseError::NonMonotonicPtr { at: i + 1 });
            }
        }
        for &c in &col_idx {
            if c >= n_cols {
                return Err(SparseError::ColOutOfBounds { col: c, n_cols });
            }
        }
        // `get`, the partitioners and the ALS row loop slice rows by binary
        // search; duplicates are allowed, as `from_coo` keeps them.
        for (row, w) in row_ptr.windows(2).enumerate() {
            if col_idx[w[0]..w[1]].windows(2).any(|c| c[1] < c[0]) {
                return Err(SparseError::UnsortedRow { row: row as u32 });
            }
        }
        Ok(Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix from a COO matrix (entries may be unsorted;
    /// duplicates are kept as distinct stored elements).
    pub(crate) fn from_coo(coo: &Coo) -> Self {
        let n_rows = coo.n_rows();
        let n_cols = coo.n_cols();
        let nnz = coo.nnz();
        let mut row_counts = vec![0usize; n_rows as usize + 1];
        for e in coo.entries() {
            row_counts[e.row as usize + 1] += 1;
        }
        for i in 1..row_counts.len() {
            row_counts[i] += row_counts[i - 1];
        }
        let row_ptr = row_counts.clone();
        let mut cursor = row_counts;
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        for e in coo.entries() {
            let pos = cursor[e.row as usize];
            col_idx[pos] = e.col;
            values[pos] = e.val;
            cursor[e.row as usize] += 1;
        }
        // Sort each row's columns for deterministic iteration order.
        let mut csr = Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        };
        csr.sort_rows();
        csr
    }

    fn sort_rows(&mut self) {
        for u in 0..self.n_rows as usize {
            let (s, e) = (self.row_ptr[u], self.row_ptr[u + 1]);
            let mut pairs: Vec<(u32, f32)> = self.col_idx[s..e]
                .iter()
                .copied()
                .zip(self.values[s..e].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|p| p.0);
            for (k, (c, v)) in pairs.into_iter().enumerate() {
                self.col_idx[s + k] = c;
                self.values[s + k] = v;
            }
        }
    }

    /// Number of rows `m`.
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns `n`.
    pub fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// Number of stored non-zeros `Nz`.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`m + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (`Nz` entries).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value array (`Nz` entries).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of non-zeros in row `u` (the paper's `n_{x_u}`).
    pub fn nnz_row(&self, u: u32) -> usize {
        let u = u as usize;
        self.row_ptr[u + 1] - self.row_ptr[u]
    }

    /// Returns row `u` as parallel slices of column indices and values.
    pub fn row(&self, u: u32) -> (&[u32], &[f32]) {
        let u = u as usize;
        let (s, e) = (self.row_ptr[u], self.row_ptr[u + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.n_rows).flat_map(move |u| {
            let (cols, vals) = self.row(u);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, &v)| Entry::new(u, c, v))
        })
    }

    /// Converts to CSC form (column-major compressed).
    pub fn to_csc(&self) -> Csc {
        Csc::from_csr(self)
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// `Rᵀ` in CSR is structurally identical to `R` in CSC, so the update-Θ
    /// pass can either use this or [`Csr::to_csc`] directly.
    pub fn transpose(&self) -> Csr {
        let csc = self.to_csc();
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr: csc.col_ptr().to_vec(),
            col_idx: csc.row_idx().to_vec(),
            values: csc.values().to_vec(),
        }
    }

    /// Value at `(u, v)` if stored.
    pub fn get(&self, u: u32, v: u32) -> Option<f32> {
        let (cols, vals) = self.row(u);
        cols.binary_search(&v).ok().map(|i| vals[i])
    }

    /// Memory footprint of this matrix in 4-byte words, matching Table 3's
    /// `2·Nz + m + 1` accounting (values + column indices + row pointers).
    pub fn footprint_words(&self) -> usize {
        2 * self.nnz() + self.n_rows as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo {
        // 3x4 matrix:
        // [ 4 1 . . ]
        // [ 3 . . . ]
        // [ . . . 2 ]
        let mut c = Coo::new(3, 4);
        c.push(0, 1, 1.0).unwrap();
        c.push(2, 3, 2.0).unwrap();
        c.push(1, 0, 3.0).unwrap();
        c.push(0, 0, 4.0).unwrap();
        c
    }

    #[test]
    fn from_coo_builds_sorted_rows() {
        let csr = sample_coo().to_csr();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row_ptr(), &[0, 2, 3, 4]);
        assert_eq!(csr.row(0).0, &[0, 1]);
        assert_eq!(csr.row(0).1, &[4.0, 1.0]);
        assert_eq!(csr.nnz_row(1), 1);
        assert_eq!(csr.get(2, 3), Some(2.0));
        assert_eq!(csr.get(2, 0), None);
    }

    #[test]
    fn roundtrip_coo_csr_coo() {
        let mut original = sample_coo();
        original.sort();
        let csr = original.to_csr();
        let mut back = Coo::from_entries(csr.n_rows(), csr.n_cols(), csr.iter().collect()).unwrap();
        back.sort();
        assert_eq!(original.entries(), back.entries());
    }

    #[test]
    fn transpose_is_involution() {
        let csr = sample_coo().to_csr();
        let tt = csr.transpose().transpose();
        assert_eq!(csr, tt);
    }

    #[test]
    fn transpose_moves_entries() {
        let t = sample_coo().to_csr().transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.get(3, 2), Some(2.0));
        assert_eq!(t.get(0, 0), Some(4.0));
        assert_eq!(t.get(1, 0), Some(1.0));
    }

    #[test]
    fn from_raw_validates_lengths() {
        assert!(Csr::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 2.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // A row's columns must not decrease; a repeated column is kept.
        assert_eq!(
            Csr::from_raw(1, 3, vec![0, 3], vec![2, 0, 1], vec![1.0, 2.0, 3.0]),
            Err(SparseError::UnsortedRow { row: 0 })
        );
        assert_eq!(
            Csr::from_raw(2, 3, vec![0, 1, 3], vec![2, 1, 0], vec![1.0; 3]),
            Err(SparseError::UnsortedRow { row: 1 })
        );
        let dup = Csr::from_raw(1, 3, vec![0, 3], vec![0, 2, 2], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(dup.nnz(), 3);
    }

    #[test]
    fn footprint_matches_table3_formula() {
        let csr = sample_coo().to_csr();
        assert_eq!(csr.footprint_words(), 2 * 4 + 3 + 1);
    }

    #[test]
    fn iter_visits_all_entries_in_row_major_order() {
        let csr = sample_coo().to_csr();
        let keys: Vec<(u32, u32)> = csr.iter().map(|e| (e.row, e.col)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (2, 3)]);
    }
}
