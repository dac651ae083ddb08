//! Error type for sparse matrix construction and partitioning.

use std::fmt;

/// Errors returned by sparse-matrix constructors and partitioners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's row index is out of the declared row range.
    RowOutOfBounds { row: u32, n_rows: u32 },
    /// An entry's column index is out of the declared column range.
    ColOutOfBounds { col: u32, n_cols: u32 },
    /// A structural array has an inconsistent length (e.g. `row_ptr` not
    /// `n_rows + 1` long, or `col_idx` and `values` lengths differing).
    InconsistentLength {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// A pointer array is not monotonically non-decreasing.
    NonMonotonicPtr { at: usize },
    /// A row's column indices decrease somewhere (they must be
    /// non-decreasing; repeated columns are allowed).
    UnsortedRow { row: u32 },
    /// A partition request is degenerate (zero parts, or more parts than rows/cols).
    InvalidPartition { requested: usize, available: usize },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::RowOutOfBounds { row, n_rows } => {
                write!(f, "row index {row} out of bounds for {n_rows} rows")
            }
            SparseError::ColOutOfBounds { col, n_cols } => {
                write!(f, "column index {col} out of bounds for {n_cols} columns")
            }
            SparseError::InconsistentLength {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "inconsistent length for {what}: expected {expected}, got {got}"
                )
            }
            SparseError::NonMonotonicPtr { at } => {
                write!(f, "pointer array decreases at position {at}")
            }
            SparseError::UnsortedRow { row } => {
                write!(f, "column indices of row {row} are not sorted")
            }
            SparseError::InvalidPartition {
                requested,
                available,
            } => {
                write!(
                    f,
                    "invalid partition: requested {requested} parts over {available} elements"
                )
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SparseError::RowOutOfBounds { row: 7, n_rows: 5 };
        assert!(e.to_string().contains("row index 7"));
        let e = SparseError::ColOutOfBounds { col: 9, n_cols: 3 };
        assert!(e.to_string().contains("column index 9"));
        let e = SparseError::InconsistentLength {
            what: "row_ptr",
            expected: 6,
            got: 5,
        };
        assert!(e.to_string().contains("row_ptr"));
        let e = SparseError::NonMonotonicPtr { at: 2 };
        assert!(e.to_string().contains("position 2"));
        let e = SparseError::UnsortedRow { row: 4 };
        assert!(e.to_string().contains("row 4"));
        let e = SparseError::InvalidPartition {
            requested: 0,
            available: 10,
        };
        assert!(e.to_string().contains("0 parts"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<SparseError>();
    }
}
