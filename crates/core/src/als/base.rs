//! Algorithm 1: the baseline ALS update.
//!
//! This is the numerical reference every other engine is checked against.
//! It has no notion of GPUs or memory hierarchies — it simply alternates the
//! two normal-equation solves until the configured number of iterations is
//! reached.

use crate::als::kernels::solve_side;
use crate::config::AlsConfig;
use crate::instrument::TrainMetrics;
use crate::loss;
use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;
use std::sync::Arc;

/// The reference ALS engine (Algorithm 1 of the paper).
#[derive(Debug, Clone)]
pub struct BaseAls {
    config: AlsConfig,
    r: Csr,
    r_t: Csr,
    x: FactorMatrix,
    theta: FactorMatrix,
    metrics: Option<Arc<TrainMetrics>>,
}

impl BaseAls {
    /// Creates an engine for the given ratings; factor matrices are
    /// initialized with uniform random numbers in `[0, 1/√f)` (the paper
    /// initializes in `[0, 1]`; the `1/√f` scaling keeps initial predictions
    /// in the rating range for any `f`).
    pub fn new(config: AlsConfig, r: Csr) -> Self {
        config.validate();
        let f = config.f;
        let scale = 1.0 / (f as f32).sqrt();
        let x = FactorMatrix::random(r.n_rows() as usize, f, scale, config.seed);
        let theta = FactorMatrix::random(r.n_cols() as usize, f, scale, config.seed ^ 0xDEAD_BEEF);
        let r_t = r.transpose();
        Self {
            config,
            r,
            r_t,
            x,
            theta,
            metrics: None,
        }
    }

    /// Attaches a shared [`TrainMetrics`] sink: every subsequent
    /// half-iteration records its per-row assembly/solve phases and whole
    /// `solve_side` latency there.
    pub fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AlsConfig {
        &self.config
    }

    /// Current user factors `X`.
    pub fn x(&self) -> &FactorMatrix {
        &self.x
    }

    /// Current item factors `Θ`.
    pub fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    /// The training ratings.
    pub fn ratings(&self) -> &Csr {
        &self.r
    }

    /// Replaces the current factors (used to resume from a checkpoint).
    pub fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        assert_eq!(
            x.len(),
            self.r.n_rows() as usize,
            "X has the wrong number of rows"
        );
        assert_eq!(
            theta.len(),
            self.r.n_cols() as usize,
            "Θ has the wrong number of rows"
        );
        assert_eq!(x.rank(), self.config.f, "X has the wrong rank");
        assert_eq!(theta.rank(), self.config.f, "Θ has the wrong rank");
        self.x = x;
        self.theta = theta;
    }

    /// Runs one full ALS iteration: update `X` with `Θ` fixed, then update
    /// `Θ` with `X` fixed (both halves of Algorithm 1).
    pub fn iterate(&mut self) {
        self.update_x();
        self.update_theta();
    }

    /// Runs only the update-X half (used by equivalence tests).
    pub fn update_x(&mut self) {
        self.x = solve_side(
            &self.r,
            &self.theta,
            self.config.lambda,
            self.metrics.as_deref(),
        );
    }

    /// Runs only the update-Θ half.
    pub fn update_theta(&mut self) {
        self.theta = solve_side(
            &self.r_t,
            &self.x,
            self.config.lambda,
            self.metrics.as_deref(),
        );
    }

    /// Training RMSE of the current factors.
    pub fn train_rmse(&self) -> f64 {
        loss::rmse_csr(&self.x, &self.theta, &self.r)
    }

    /// The regularized objective `J` of equation (1).
    pub fn objective(&self) -> f64 {
        loss::objective(&self.x, &self.theta, &self.r, self.config.lambda)
    }
}

impl crate::engine::Engine for BaseAls {
    fn name(&self) -> &'static str {
        "base-als"
    }

    fn train_sweep(&mut self) -> f64 {
        self.iterate();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        &self.x
    }

    fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        BaseAls::set_factors(self, x, theta);
    }

    fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        BaseAls::attach_metrics(self, metrics);
    }

    fn metrics(&self) -> Option<&Arc<TrainMetrics>> {
        self.metrics.as_ref()
    }

    fn train_rmse(&self) -> f64 {
        BaseAls::train_rmse(self)
    }
}

impl crate::engine::IncrementalEngine for BaseAls {
    fn fold_in_lambda(&self) -> f32 {
        self.config.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;

    fn engine(f: usize, iterations: usize) -> BaseAls {
        let data = SyntheticConfig {
            m: 200,
            n: 100,
            nnz: 6000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate();
        let config = AlsConfig {
            f,
            lambda: 0.05,
            iterations,
            track_rmse: true,
            ..Default::default()
        };
        BaseAls::new(config, data.to_csr())
    }

    #[test]
    fn objective_is_non_increasing_over_iterations() {
        let mut e = engine(8, 5);
        let mut prev = e.objective();
        for _ in 0..5 {
            e.iterate();
            let j = e.objective();
            assert!(
                j <= prev * (1.0 + 1e-6),
                "objective must not increase: {prev} -> {j}"
            );
            prev = j;
        }
    }

    #[test]
    fn training_rmse_drops_substantially() {
        let mut e = engine(8, 5);
        let before = e.train_rmse();
        for _ in 0..5 {
            e.iterate();
        }
        let after = e.train_rmse();
        assert!(
            after < before * 0.5,
            "RMSE should at least halve: {before} -> {after}"
        );
        assert!(
            after < 0.5,
            "absolute training RMSE should be small, got {after}"
        );
    }

    #[test]
    fn half_iterations_each_reduce_objective() {
        let mut e = engine(8, 2);
        let j0 = e.objective();
        e.update_x();
        let j1 = e.objective();
        assert!(j1 <= j0 * (1.0 + 1e-6));
        e.update_theta();
        let j2 = e.objective();
        assert!(j2 <= j1 * (1.0 + 1e-6));
    }

    #[test]
    fn set_factors_roundtrip() {
        let mut e = engine(8, 2);
        e.iterate();
        let x = e.x().clone();
        let theta = e.theta().clone();
        let mut e2 = engine(8, 2);
        e2.set_factors(x.clone(), theta.clone());
        assert_eq!(e2.x().max_abs_diff(&x), 0.0);
        assert_eq!(e2.theta().max_abs_diff(&theta), 0.0);
    }

    #[test]
    #[should_panic(expected = "wrong rank")]
    fn set_factors_validates_rank() {
        let mut e = engine(8, 2);
        e.set_factors(FactorMatrix::zeros(200, 4), FactorMatrix::zeros(100, 4));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = engine(6, 2);
        let mut b = engine(6, 2);
        a.iterate();
        b.iterate();
        assert!(a.x().max_abs_diff(b.x()) < 1e-6);
        assert!(a.theta().max_abs_diff(b.theta()) < 1e-6);
    }
}
