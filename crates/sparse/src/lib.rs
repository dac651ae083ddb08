//! Sparse matrix substrate for `cumf-rs`.
//!
//! The cuMF paper factors a sparse rating matrix `R` (m × n, `Nz` non-zeros)
//! stored in Compressed Sparse Row (CSR) form on the GPU.  This crate
//! provides the host-side sparse formats and the partitioning operations that
//! Algorithm 3 of the paper (SU-ALS) relies on:
//!
//! * [`Coo`] — coordinate triplets, the natural construction format.
//! * [`Csr`] — compressed sparse row, the format `get_hermitian_x` walks.
//! * [`Csc`] — compressed sparse column, used when updating Θ (the transpose
//!   direction) without materializing `Rᵀ`.
//! * [`partition`] — the contiguous range split behind Algorithm 3's
//!   partitions, and the horizontal (row-batch) partition of `R`.
//! * [`stats`] — degree statistics used by the cost model and the data
//!   generators.
//!
//! Indices are `u32` (the scaled-down reproduction data sets comfortably fit)
//! while row/column pointer arrays are `usize` so that `Nz` may exceed
//! `u32::MAX` if a user generates a very large matrix.

#![forbid(unsafe_code)]
pub mod coo;
pub mod csc;
pub mod csr;
pub mod error;
pub mod partition;
pub mod stats;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use error::SparseError;
pub use partition::{horizontal_partition, split_ranges, SparseBlock};

/// A single rating entry: row `u`, column `v`, value `r_uv`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Row index (user `u` in the paper's notation).
    pub row: u32,
    /// Column index (item `v` in the paper's notation).
    pub col: u32,
    /// Rating value `r_uv`.
    pub val: f32,
}

impl Entry {
    /// Convenience constructor.
    pub fn new(row: u32, col: u32, val: f32) -> Self {
        Self { row, col, val }
    }
}
