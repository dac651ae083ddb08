//! CPU baseline matrix-factorization algorithms.
//!
//! The cuMF paper compares against a family of CPU systems.  This crate
//! implements the *algorithms* those systems run, as real shared-memory
//! multi-threaded Rust, so that their convergence behaviour (RMSE per
//! iteration/epoch) in Figures 6 and 10 is genuine rather than copied:
//!
//! * [`libmf`] — libMF-style blocked SGD (DSGD block scheduling across
//!   threads with conflict-free rotations).
//! * [`hogwild`] — HOGWILD!-style lock-free SGD (atomic relaxed updates).
//! * [`nomad`] — NOMAD-style asynchronous SGD where item columns circulate
//!   between workers as tokens.
//! * [`ccd`] — CCD++ cyclic coordinate descent with a maintained residual.
//! * [`pals`] — PALS: model-parallel ALS with full `Θ` replication.
//! * [`spark_als`] — SparkALS-style ALS with per-partition partial
//!   replication of `Θ` (and its communication-volume accounting).
//!
//! Cluster-scale *wall-clock* for these systems comes from `cumf-cluster`'s
//! cost models; this crate is about numerics on (scaled-down) data.

#![forbid(unsafe_code)]
pub mod als_util;
pub mod ccd;
pub mod hogwild;
pub mod libmf;
pub mod nomad;
pub mod pals;
pub mod spark_als;

pub use cumf_core::Engine;

pub use ccd::CcdPlusPlus;
pub use hogwild::HogwildSgd;
pub use libmf::LibMfSgd;
pub use nomad::NomadSgd;
pub use pals::Pals;
pub use spark_als::SparkAlsStyle;
