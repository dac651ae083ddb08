//! Row partitioning of the rating matrix `R`, matching line 3 of Algorithm 3
//! (SU-ALS) in the paper: `X` is split **horizontally** (by rows of `R`)
//! into `q` partitions, solved batch by batch.  The engine prices the
//! vertical (`Θᵀ`) and grid splits from [`split_ranges`] alone.

use crate::{Coo, Csr, SparseError};

/// A band of consecutive rows of a larger sparse matrix.
///
/// Row indices stored in `csr` are *local* to the block; `row_start` gives
/// the block's offset in the global matrix.  Columns are global.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseBlock {
    /// First global row covered by this block.
    pub row_start: u32,
    /// The block's contents with block-local row indices.
    pub csr: Csr,
}

impl SparseBlock {
    /// Number of rows in the block.
    pub fn n_rows(&self) -> u32 {
        self.csr.n_rows()
    }

    /// Global row index for a block-local row.
    pub fn global_row(&self, local: u32) -> u32 {
        self.row_start + local
    }
}

/// Splits `0..total` into `parts` contiguous ranges whose sizes differ by at
/// most one (the first `total % parts` ranges get the extra element).
pub fn split_ranges(total: u32, parts: usize) -> Result<Vec<(u32, u32)>, SparseError> {
    if parts == 0 || parts as u64 > total.max(1) as u64 {
        return Err(SparseError::InvalidPartition {
            requested: parts,
            available: total as usize,
        });
    }
    let base = total / parts as u32;
    let extra = total % parts as u32;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0u32;
    for i in 0..parts as u32 {
        let len = base + if i < extra { 1 } else { 0 };
        ranges.push((start, start + len));
        start += len;
    }
    Ok(ranges)
}

/// Horizontal partition of `R` into `q` row blocks (the `X` partition scheme).
pub fn horizontal_partition(r: &Csr, q: usize) -> Result<Vec<SparseBlock>, SparseError> {
    let ranges = split_ranges(r.n_rows(), q)?;
    Ok(ranges
        .into_iter()
        .map(|(row_start, row_end)| {
            let mut coo = Coo::new(row_end - row_start, r.n_cols());
            for u in row_start..row_end {
                let (cols, vals) = r.row(u);
                for (&c, &v) in cols.iter().zip(vals) {
                    coo.push(u - row_start, c, v)
                        .expect("block-local indices are in range by construction");
                }
            }
            SparseBlock {
                row_start,
                csr: coo.to_csr(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr {
        // 6x6 with a diagonal plus some off-diagonal entries.
        let mut c = Coo::new(6, 6);
        for i in 0..6u32 {
            c.push(i, i, (i + 1) as f32).unwrap();
        }
        c.push(0, 5, 10.0).unwrap();
        c.push(5, 0, 20.0).unwrap();
        c.push(2, 4, 30.0).unwrap();
        c.to_csr()
    }

    #[test]
    fn split_ranges_covers_everything() {
        let ranges = split_ranges(10, 3).unwrap();
        assert_eq!(ranges, vec![(0, 4), (4, 7), (7, 10)]);
        assert!(split_ranges(10, 0).is_err());
        assert!(split_ranges(3, 4).is_err());
        assert_eq!(split_ranges(4, 4).unwrap().len(), 4);
    }

    #[test]
    fn horizontal_partition_preserves_nnz_and_offsets() {
        let r = sample();
        let blocks = horizontal_partition(&r, 3).unwrap();
        assert_eq!(blocks.len(), 3);
        let total: usize = blocks.iter().map(|b| b.csr.nnz()).sum();
        assert_eq!(total, r.nnz());
        assert_eq!(blocks[1].row_start, 2);
        // Entry (2,4,30.0) lands in block 1 at local row 0.
        assert_eq!(blocks[1].csr.get(0, 4), Some(30.0));
    }

    #[test]
    fn single_partition_is_identity() {
        let r = sample();
        let blocks = horizontal_partition(&r, 1).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].csr, r);
    }
}
