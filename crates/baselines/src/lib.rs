//! CPU baseline matrix-factorization algorithms.
//!
//! The cuMF paper compares against a family of CPU systems (§6.2).  What
//! differs between them is the *schedule* and the *replication*, so each
//! baseline here keeps only its start, its schedule and its replication
//! accounting, and runs its arithmetic through `cumf-core`'s one copy of
//! each update rule.  They run as real shared-memory multi-threaded Rust,
//! so their convergence behaviour (RMSE per iteration/epoch) in Figures 6
//! and 10 is genuine rather than copied:
//!
//! * [`libmf`] — libMF-style blocked SGD (DSGD block scheduling across
//!   threads with conflict-free rotations), one
//!   [`cumf_core::sgd::sgd_step`] per rating.
//! * [`hogwild`] — HOGWILD!-style lock-free SGD: a
//!   [`cumf_core::sgd::SgdEngine`] (atomic relaxed updates) with the SGD
//!   baselines' start.
//! * [`nomad`] — NOMAD-style asynchronous SGD where item columns circulate
//!   between workers as tokens, one `sgd_step` per rating.
//! * [`ccd`] — CCD++ cyclic coordinate descent with a maintained residual;
//!   no core engine runs its coordinate update, so it is written here.
//! * [`pals`] — PALS: model-parallel ALS with full `Θ` replication, swept by
//!   the reference [`cumf_core::als::AlsEngine`].
//! * [`spark_als`] — SparkALS-style ALS with per-partition partial
//!   replication of `Θ` (and its communication-volume accounting), on the
//!   same engine.
//!
//! None of them runs on a simulated cluster: a sweep costs 0 simulated
//! seconds.  Cluster-scale *wall-clock* for these systems comes from
//! `cumf-cluster`'s cost models; this crate is about numerics on
//! (scaled-down) data.

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
