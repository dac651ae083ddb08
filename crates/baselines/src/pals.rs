//! PALS: model-parallel ALS with full `Θ` replication (Zhou et al., AAIM
//! 2008 — the original "Large-scale Parallel Collaborative Filtering for the
//! Netflix Prize" system).
//!
//! PALS partitions `X` and `R` by rows across workers and **replicates the
//! whole `Θᵀ`** on every worker.  §2.2 of the cuMF paper points out that
//! this only works while `Θᵀ` is small; the [`Pals::replication_bytes`]
//! accessor exposes exactly the quantity that blows up.
//!
//! Each worker solves its rows against its full copy of the fixed factors,
//! and a row's solve reads nothing else, so the sweep is the reference
//! [`cumf_core::als::AlsEngine`]'s: the worker split decides only what is
//! replicated, not a single bit of the factors.

use crate::als_util;
use cumf_core::als::AlsEngine;
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{split_ranges, Csr, Entry};
use std::sync::Arc;

/// Hyper-parameters of the PALS solver.
#[derive(Debug, Clone, PartialEq)]
pub struct PalsConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Weighted-λ regularization.
    pub lambda: f32,
    /// Number of (simulated) worker partitions.
    pub workers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PalsConfig {
    fn default() -> Self {
        Self {
            f: 32,
            lambda: 0.05,
            workers: 4,
            seed: 42,
        }
    }
}

/// PALS solver: row-partitioned ALS with full `Θ` replication.
pub struct Pals {
    engine: AlsEngine,
    train_entries: Vec<Entry>,
    workers: usize,
}

impl Pals {
    /// Builds the solver over `R`'s rows split across the workers.
    pub fn new(config: PalsConfig, r: &Csr) -> Self {
        // Each worker owns one range of rows; only their number is kept.
        let workers = config.workers.min(r.n_rows().max(1) as usize);
        let workers = split_ranges(r.n_rows(), workers)
            .expect("row partition")
            .len();
        Self {
            engine: als_util::als_engine(config.f, config.lambda, config.seed, r),
            train_entries: r.iter().collect(),
            workers,
        }
    }

    /// Bytes of `Θᵀ` (or `X` for the other half) that PALS replicates to
    /// every worker in one iteration — the scalability limit the cuMF paper
    /// calls out.
    pub fn replication_bytes(&self) -> u64 {
        let theta_bytes = (self.engine.theta().footprint_words() * 4) as u64;
        let x_bytes = (self.engine.x().footprint_words() * 4) as u64;
        self.workers as u64 * (theta_bytes + x_bytes)
    }

    /// One full ALS iteration.
    pub fn als_iteration(&mut self) {
        self.engine.iterate();
    }
}

impl Engine for Pals {
    fn name(&self) -> &'static str {
        "PALS (ALS, full replication)"
    }

    fn train_sweep(&mut self) -> f64 {
        self.als_iteration();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        self.engine.x()
    }

    fn theta(&self) -> &FactorMatrix {
        self.engine.theta()
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        self.engine.set_factors(x, theta);
    }

    fn attach_metrics(&mut self, _metrics: Arc<TrainMetrics>) {}

    fn train_rmse(&self) -> f64 {
        self.rmse(&self.train_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 150,
            n: 90,
            nnz: 5000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn pals_converges_fast_like_any_als() {
        let r = ratings();
        let mut solver = Pals::new(
            PalsConfig {
                f: 8,
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        let before = solver.train_rmse();
        for _ in 0..3 {
            solver.train_sweep();
        }
        let after = solver.train_rmse();
        assert!(
            after < before * 0.4,
            "PALS should converge quickly: {before} -> {after}"
        );
    }

    #[test]
    fn worker_count_does_not_change_results_materially() {
        let r = ratings();
        let mut w1 = Pals::new(
            PalsConfig {
                f: 8,
                workers: 1,
                ..Default::default()
            },
            &r,
        );
        let mut w4 = Pals::new(
            PalsConfig {
                f: 8,
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        w1.train_sweep();
        w4.train_sweep();
        assert!(w1.x().max_abs_diff(w4.x()) < 1e-3);
    }

    #[test]
    fn replication_bytes_scale_with_workers() {
        let r = ratings();
        let p2 = Pals::new(
            PalsConfig {
                workers: 2,
                ..Default::default()
            },
            &r,
        );
        let p4 = Pals::new(
            PalsConfig {
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        assert!(p4.replication_bytes() > p2.replication_bytes());
    }

    #[test]
    fn pals_beats_sgd_baselines_per_iteration() {
        // ALS makes much more progress per iteration than one SGD epoch.
        let r = ratings();
        let mut pals = Pals::new(
            PalsConfig {
                f: 8,
                ..Default::default()
            },
            &r,
        );
        let mut sgd = crate::libmf::LibMfSgd::new(
            crate::libmf::LibMfConfig {
                f: 8,
                ..Default::default()
            },
            &r,
        );
        pals.train_sweep();
        sgd.train_sweep();
        assert!(pals.train_rmse() < sgd.train_rmse());
    }
}
