//! HOGWILD!-style lock-free parallel SGD.
//!
//! HOGWILD! (Niu et al., cited as the inspiration for the CPU SGD systems in
//! §6.2) runs SGD from many threads over shared factors *without locking*,
//! accepting occasional lost updates because sparse problems make conflicts
//! rare.  That is [`SgdEngine`]'s training sweep: relaxed atomic loads and
//! stores (racy but memory-safe, without undefined behaviour) over one
//! shuffled visit order, with the learning rate decayed per epoch.  This
//! baseline is therefore an `SgdEngine` given HOGWILD!'s start: factors
//! centred on the rating mean, as the other SGD baselines begin.

use crate::als_util;
use cumf_core::sgd::{SgdConfig, SgdEngine};
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{Csr, Entry};
use rand::prelude::*;
use std::sync::Arc;

/// Hyper-parameters of the HOGWILD solver.
#[derive(Debug, Clone, PartialEq)]
pub struct HogwildConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub lambda: f32,
    /// Multiplicative learning-rate decay per epoch.
    pub decay: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HogwildConfig {
    fn default() -> Self {
        Self {
            f: 32,
            learning_rate: 0.02,
            lambda: 0.05,
            decay: 0.9,
            seed: 42,
        }
    }
}

/// HOGWILD!-style lock-free SGD solver.
pub struct HogwildSgd {
    engine: SgdEngine,
    /// The ratings in the engine's visit order, which `train_rmse` sums in.
    entries: Vec<Entry>,
}

impl HogwildSgd {
    /// Builds the solver from a ratings matrix.
    pub fn new(config: HogwildConfig, r: &Csr) -> Self {
        let mean = als_util::mean_rating(r);
        let x = als_util::init_factors_to_mean(r.n_rows() as usize, config.f, config.seed, mean);
        let theta =
            als_util::init_factors_to_mean(r.n_cols() as usize, config.f, config.seed ^ 0x77, mean);
        // The same seeded shuffle the engine visits the ratings in.
        let mut entries: Vec<Entry> = r.iter().collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        for i in (1..entries.len()).rev() {
            let j = rng.random_range(0..=i);
            entries.swap(i, j);
        }
        let sgd = SgdConfig {
            f: config.f,
            learning_rate: config.learning_rate,
            lambda: config.lambda,
            decay: config.decay,
            seed: config.seed,
            ..Default::default()
        };
        let mut engine = SgdEngine::new(sgd, r.clone());
        engine.set_factors(x, theta);
        Self { engine, entries }
    }

    /// One lock-free epoch over all ratings.
    fn epoch(&mut self) {
        self.engine.train_sweep();
    }
}

impl Engine for HogwildSgd {
    fn name(&self) -> &'static str {
        "HOGWILD! SGD"
    }

    fn train_sweep(&mut self) -> f64 {
        self.epoch();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        self.engine.x()
    }

    fn theta(&self) -> &FactorMatrix {
        self.engine.theta()
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        // The engine also takes extra user rows; this baseline never grows.
        assert_eq!(
            x.len(),
            self.engine.x().len(),
            "X has the wrong number of rows"
        );
        self.engine.set_factors(x, theta);
    }

    fn attach_metrics(&mut self, _metrics: Arc<TrainMetrics>) {}

    fn train_rmse(&self) -> f64 {
        self.rmse(&self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 200,
            n: 120,
            nnz: 8000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn hogwild_converges_despite_races() {
        let r = ratings();
        let mut solver = HogwildSgd::new(
            HogwildConfig {
                f: 8,
                ..Default::default()
            },
            &r,
        );
        let before = solver.train_rmse();
        for _ in 0..10 {
            solver.train_sweep();
        }
        let after = solver.train_rmse();
        assert!(
            after < before * 0.7,
            "HOGWILD should converge: {before} -> {after}"
        );
    }

    #[test]
    fn factors_are_finite_after_training() {
        let r = ratings();
        let mut solver = HogwildSgd::new(
            HogwildConfig {
                f: 8,
                ..Default::default()
            },
            &r,
        );
        for _ in 0..5 {
            solver.train_sweep();
        }
        assert!(solver.x().data().iter().all(|v| v.is_finite()));
        assert!(solver.theta().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn snapshot_reflects_updates() {
        let r = ratings();
        let mut solver = HogwildSgd::new(
            HogwildConfig {
                f: 4,
                ..Default::default()
            },
            &r,
        );
        let before = solver.x().clone();
        solver.train_sweep();
        assert!(solver.x().max_abs_diff(&before) > 0.0);
    }
}
