//! Compressed Sparse Column (CSC) matrix.
//!
//! The update-Θ half of an ALS iteration walks `R` column by column
//! (equation (3) of the paper).  Rather than materializing `Rᵀ` we convert
//! once to CSC and reuse it every iteration.

use crate::{Csr, Entry, SparseError};

/// A sparse matrix in Compressed Sparse Column form.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    n_rows: u32,
    n_cols: u32,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csc {
    /// Builds a CSC matrix from raw arrays, validating structural invariants.
    pub fn from_raw(
        n_rows: u32,
        n_cols: u32,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if col_ptr.len() != n_cols as usize + 1 {
            return Err(SparseError::InconsistentLength {
                what: "col_ptr",
                expected: n_cols as usize + 1,
                got: col_ptr.len(),
            });
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::InconsistentLength {
                what: "row_idx/values",
                expected: values.len(),
                got: row_idx.len(),
            });
        }
        if *col_ptr.last().unwrap_or(&0) != values.len() {
            return Err(SparseError::InconsistentLength {
                what: "col_ptr[last]",
                expected: values.len(),
                got: *col_ptr.last().unwrap_or(&0),
            });
        }
        for (i, w) in col_ptr.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(SparseError::NonMonotonicPtr { at: i + 1 });
            }
        }
        for &r in &row_idx {
            if r >= n_rows {
                return Err(SparseError::RowOutOfBounds { row: r, n_rows });
            }
        }
        Ok(Self {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Builds the CSC form of a CSR matrix (a transpose of the storage layout).
    pub fn from_csr(csr: &Csr) -> Self {
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();
        let nnz = csr.nnz();
        let mut col_counts = vec![0usize; n_cols as usize + 1];
        for &c in csr.col_idx() {
            col_counts[c as usize + 1] += 1;
        }
        for i in 1..col_counts.len() {
            col_counts[i] += col_counts[i - 1];
        }
        let col_ptr = col_counts.clone();
        let mut cursor = col_counts;
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        for u in 0..n_rows {
            let (cols, vals) = csr.row(u);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let pos = cursor[c as usize];
                row_idx[pos] = u;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        Self {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            values,
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

    /// Column pointer array (`n + 1` entries).
    pub(crate) fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array (`Nz` entries).
    pub(crate) fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    /// Value array (`Nz` entries).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Returns column `v` as parallel slices of row indices and values.
    pub fn col(&self, v: u32) -> (&[u32], &[f32]) {
        let v = v as usize;
        let (s, e) = (self.col_ptr[v], self.col_ptr[v + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// Iterates over `(row, col, value)` triplets in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.n_cols).flat_map(move |v| {
            let (rows, vals) = self.col(v);
            rows.iter()
                .zip(vals.iter())
                .map(move |(&r, &x)| Entry::new(r, v, x))
        })
    }

    /// Converts back to CSR form.
    pub fn to_csr(&self) -> Csr {
        let mut coo = crate::Coo::with_capacity(self.n_rows, self.n_cols, self.nnz());
        for e in self.iter() {
            coo.push(e.row, e.col, e.val)
                .expect("CSC indices are validated at construction");
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample_csr() -> Csr {
        let mut c = Coo::new(3, 4);
        c.push(0, 1, 1.0).unwrap();
        c.push(2, 3, 2.0).unwrap();
        c.push(1, 0, 3.0).unwrap();
        c.push(0, 0, 4.0).unwrap();
        c.to_csr()
    }

    #[test]
    fn from_csr_builds_columns() {
        let csc = sample_csr().to_csc();
        assert_eq!(csc.nnz(), 4);
        assert_eq!(csc.col_ptr(), &[0, 2, 3, 3, 4]);
        assert_eq!(csc.col(0).0, &[0, 1]);
        assert_eq!(csc.col(0).1, &[4.0, 3.0]);
        assert_eq!(csc.col(2).0.len(), 0);
        assert_eq!(csc.col(3).0.len(), 1);
    }

    #[test]
    fn roundtrip_csr_csc_csr() {
        let csr = sample_csr();
        assert_eq!(csr, csr.to_csc().to_csr());
    }

    #[test]
    fn iter_is_column_major() {
        let csc = sample_csr().to_csc();
        let keys: Vec<(u32, u32)> = csc.iter().map(|e| (e.row, e.col)).collect();
        assert_eq!(keys, vec![(0, 0), (1, 0), (0, 1), (2, 3)]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Csc::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csc::from_raw(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(Csc::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(Csc::from_raw(2, 2, vec![0, 1, 2], vec![0, 9], vec![1.0, 2.0]).is_err());
        assert!(Csc::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn csc_matches_csr_transpose_structure() {
        let csr = sample_csr();
        let csc = csr.to_csc();
        let t = csr.transpose();
        // R in CSC has the same arrays as Rᵀ in CSR.
        assert_eq!(csc.col_ptr(), t.row_ptr());
        assert_eq!(csc.row_idx(), t.col_idx());
        assert_eq!(csc.values(), t.values());
    }
}
