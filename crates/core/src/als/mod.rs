//! The ALS engine: the row loop every placement shares ([`kernels`]), the
//! one engine that drives it ([`base`], Algorithm 1), and what its two
//! simulated-GPU placements hand the one sweep pricer,
//! [`crate::costmodel::price_side`]: resident MO-ALS ([`mo`], Algorithm 2)
//! its traffic model and one-time upload, the SU-ALS grid ([`su`],
//! Algorithm 3) its blocks.

pub mod base;
pub mod kernels;
pub mod mo;
pub mod su;

pub use base::{AlsEngine, Placement};

/// MO-ALS on one simulated Titan X: [`AlsEngine::on_titan_x`], under the
/// name the benchmark crate builds its training engine by.  `perf/src/api.rs`
/// is its only user; once that calls `AlsEngine::on_titan_x`, this alias is
/// the last thing to delete.
pub type MoAlsEngine = AlsEngine;
