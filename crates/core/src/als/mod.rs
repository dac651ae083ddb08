//! The ALS engine: the row loop every placement shares ([`kernels`]), the
//! one engine that drives it ([`base`], Algorithm 1), and the pricing of
//! its two simulated-GPU placements — resident MO-ALS ([`mo`],
//! Algorithm 2) and the SU-ALS grid ([`su`], Algorithm 3).

pub mod base;
pub mod kernels;
pub mod mo;
pub mod su;

pub use base::{AlsEngine, Placement};

/// MO-ALS on one simulated Titan X: [`AlsEngine::on_titan_x`], under the
/// name the benchmark crate builds its training engine by.
pub type MoAlsEngine = AlsEngine;
