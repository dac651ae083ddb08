//! Stochastic gradient descent (equation (4) of the paper).
//!
//! cuMF deliberately chooses ALS over SGD because SGD's updates to the same
//! row conflict and are hard to spread over thousands of GPU cores (§2.1).
//! The update rule is [`sgd_step`], over plain slices.  The sequential
//! [`SgdReference`] is the numerical reference: tests use it to confirm
//! that ALS reaches comparable training error in far fewer iterations.
//! [`SgdEngine`] runs the same rule lock-free over atomic factors, for the
//! online loop and for the HOGWILD! baseline.  The baseline crate's libMF
//! and NOMAD schedules call [`sgd_step`] on the rows they own.

use crate::engine::{Engine, IncrementalEngine};
use crate::instrument::TrainMetrics;
use crate::loss;
use cumf_linalg::blas::dot;
use cumf_linalg::FactorMatrix;
use cumf_sparse::{Csr, Entry};
use rand::prelude::*;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Hyper-parameters of the SGD reference.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Learning rate `α`.
    pub learning_rate: f32,
    /// Regularization `λ` (plain L2, as in equation (4)).
    pub lambda: f32,
    /// Number of epochs (full passes over the ratings).
    pub epochs: usize,
    /// Multiplicative learning-rate decay applied after every epoch.
    pub decay: f32,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            f: 32,
            learning_rate: 0.01,
            lambda: 0.05,
            epochs: 20,
            decay: 0.95,
            seed: 42,
        }
    }
}

/// One SGD step of equation (4) for the rating `val` of `x_u` and `θ_v`:
/// `err = val − x_u·θ_v`, then for each `k` in ascending order
/// `x_uk += α·(err·θ_vk − λ·x_uk)` and `θ_vk += α·(err·x_uk − λ·θ_vk)`,
/// both from the values before the step.
pub fn sgd_step(x_u: &mut [f32], theta_v: &mut [f32], val: f32, alpha: f32, lambda: f32) {
    let err = val - dot(x_u, theta_v);
    for (x_k, t_k) in x_u.iter_mut().zip(theta_v.iter_mut()) {
        let (xk, tk) = (*x_k, *t_k);
        *x_k = xk + alpha * (err * tk - lambda * xk);
        *t_k = tk + alpha * (err * xk - lambda * tk);
    }
}

/// A plain sequential SGD matrix factorizer.
#[derive(Debug, Clone)]
pub struct SgdReference {
    config: SgdConfig,
    r: Csr,
    x: FactorMatrix,
    theta: FactorMatrix,
}

impl SgdReference {
    /// Creates the factorizer with random initial factors.
    pub fn new(config: SgdConfig, r: Csr) -> Self {
        let scale = 1.0 / (config.f as f32).sqrt();
        let x = FactorMatrix::random(r.n_rows() as usize, config.f, scale, config.seed);
        let theta =
            FactorMatrix::random(r.n_cols() as usize, config.f, scale, config.seed ^ 0xABCD);
        Self {
            config,
            r,
            x,
            theta,
        }
    }

    /// Current user factors.
    pub fn x(&self) -> &FactorMatrix {
        &self.x
    }

    /// Current item factors.
    pub fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    /// Runs one epoch (a shuffled pass over every rating) and returns the
    /// learning rate that was used.
    pub fn epoch(&mut self, epoch_index: usize) -> f32 {
        let alpha = self.config.learning_rate * self.config.decay.powi(epoch_index as i32);
        let lambda = self.config.lambda;

        // Shuffle the visit order of all ratings.
        let mut order: Vec<(u32, u32, f32)> =
            self.r.iter().map(|e| (e.row, e.col, e.val)).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (epoch_index as u64 + 1));
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }

        for (u, v, r_uv) in order {
            let x_u = self.x.vector_mut(u as usize);
            sgd_step(x_u, self.theta.vector_mut(v as usize), r_uv, alpha, lambda);
        }
        alpha
    }

    /// Runs all configured epochs.
    pub fn run(&mut self) {
        for e in 0..self.config.epochs {
            self.epoch(e);
        }
    }

    /// Training RMSE of the current factors.
    pub fn train_rmse(&self) -> f64 {
        loss::rmse_csr(&self.x, &self.theta, &self.r)
    }
}

/// A factor matrix whose elements are individually atomic, so parallel SGD
/// epochs can race on them HOGWILD!-style without locks or unsafe code.
struct AtomicFactors {
    f: usize,
    data: Vec<AtomicU32>,
}

impl AtomicFactors {
    fn from_factor_matrix(m: &FactorMatrix) -> Self {
        Self {
            f: m.rank(),
            data: m
                .data()
                .iter()
                .map(|&v| AtomicU32::new(v.to_bits()))
                .collect(),
        }
    }

    fn n_rows(&self) -> usize {
        self.data.len() / self.f
    }

    fn to_factor_matrix(&self) -> FactorMatrix {
        FactorMatrix::from_vec(
            self.n_rows(),
            self.f,
            self.data
                .iter()
                .map(|a| f32::from_bits(a.load(Ordering::Relaxed))) // relaxed-ok: Hogwild! reads are racy by design; SGD tolerates stale components
                .collect(),
        )
    }

    #[inline]
    fn load(&self, row: usize, k: usize) -> f32 {
        f32::from_bits(self.data[row * self.f + k].load(Ordering::Relaxed)) // relaxed-ok: Hogwild! reads are racy by design; SGD tolerates stale components
    }

    #[inline]
    fn store(&self, row: usize, k: usize, v: f32) {
        self.data[row * self.f + k].store(v.to_bits(), Ordering::Relaxed); // relaxed-ok: Hogwild! lock-free write; lost updates are the algorithm's stated trade
    }

    /// Appends `rows`, copying their values from `tail`.
    fn append(&mut self, tail: &FactorMatrix) {
        assert_eq!(tail.rank(), self.f, "appended rows have the wrong rank");
        self.data
            .extend(tail.data().iter().map(|&v| AtomicU32::new(v.to_bits())));
    }

    /// Copies one row out into `dst`.
    fn read_row_into(&self, row: usize, dst: &mut [f32]) {
        for (k, slot) in dst.iter_mut().enumerate() {
            *slot = self.load(row, k);
        }
    }
}

/// The paper's SGD update rule promoted to a first-class incremental
/// [`Engine`]: HOGWILD!-style lock-free parallel epochs for batch training
/// plus [`SgdEngine::absorb`] for applying streamed rating mutations without
/// a full retrain.
///
/// The sequential [`SgdReference`] above stays as the numerical ground truth;
/// this engine is what the online loop drives.
pub struct SgdEngine {
    config: SgdConfig,
    r: Csr,
    entries: Vec<Entry>,
    x_atomic: AtomicFactors,
    theta_atomic: AtomicFactors,
    // Cached snapshots backing the `Engine` accessors.
    x_snapshot: FactorMatrix,
    theta_snapshot: FactorMatrix,
    epoch: usize,
    metrics: Option<Arc<TrainMetrics>>,
}

impl SgdEngine {
    /// Builds the engine with random initial factors.
    pub fn new(config: SgdConfig, r: Csr) -> Self {
        let scale = 1.0 / (config.f as f32).sqrt();
        let x = FactorMatrix::random(r.n_rows() as usize, config.f, scale, config.seed);
        let theta =
            FactorMatrix::random(r.n_cols() as usize, config.f, scale, config.seed ^ 0xABCD);
        let mut entries: Vec<Entry> = r.iter().collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        for i in (1..entries.len()).rev() {
            let j = rng.random_range(0..=i);
            entries.swap(i, j);
        }
        Self {
            x_atomic: AtomicFactors::from_factor_matrix(&x),
            theta_atomic: AtomicFactors::from_factor_matrix(&theta),
            x_snapshot: x,
            theta_snapshot: theta,
            entries,
            config,
            r,
            epoch: 0,
            metrics: None,
        }
    }

    /// The learning rate the next update will use.
    pub fn alpha(&self) -> f32 {
        self.config.learning_rate * self.config.decay.powi(self.epoch as i32)
    }

    /// Number of user rows currently held (grows as streamed ratings
    /// introduce users beyond the training matrix).
    pub fn n_users(&self) -> usize {
        self.x_atomic.n_rows()
    }

    /// Grows the user factors so ids `< n` exist, initializing new rows
    /// randomly at the training scale.
    fn ensure_users(&mut self, n: usize) {
        let have = self.x_atomic.n_rows();
        if n <= have {
            return;
        }
        let scale = 1.0 / (self.config.f as f32).sqrt();
        let tail = FactorMatrix::random(
            n - have,
            self.config.f,
            scale,
            self.config.seed ^ (have as u64).rotate_left(17),
        );
        self.x_atomic.append(&tail);
        let mut data = self.x_snapshot.data().to_vec();
        data.extend_from_slice(tail.data());
        self.x_snapshot = FactorMatrix::from_vec(n, self.config.f, data);
    }

    /// Applies one SGD step for a single rating against the atomic factors:
    /// [`sgd_step`]'s update, except that the error is accumulated in f32,
    /// one relaxed load at a time, instead of by the f64 `dot`.
    fn step(&self, u: usize, v: usize, val: f32, alpha: f32) {
        let f = self.config.f;
        let lambda = self.config.lambda;
        let x = &self.x_atomic;
        let theta = &self.theta_atomic;
        let mut err = val;
        for k in 0..f {
            err -= x.load(u, k) * theta.load(v, k);
        }
        for k in 0..f {
            let xk = x.load(u, k);
            let tk = theta.load(v, k);
            x.store(u, k, xk + alpha * (err * tk - lambda * xk));
            theta.store(v, k, tk + alpha * (err * xk - lambda * tk));
        }
    }

    /// Absorbs a batch of streamed rating mutations: applies one SGD step
    /// per rating (growing the user set on demand) and refreshes the
    /// snapshot rows that changed.  Returns the distinct user ids touched,
    /// sorted ascending — exactly the rows an online loop must republish.
    ///
    /// # Panics
    /// Panics if a rating references an item outside the trained catalog.
    pub fn absorb(&mut self, batch: &[Entry]) -> Vec<u32> {
        if batch.is_empty() {
            return Vec::new();
        }
        let n_items = self.r.n_cols() as usize;
        let max_user = batch.iter().map(|e| e.row).max().unwrap() as usize;
        self.ensure_users(max_user + 1);
        let alpha = self.alpha();
        let mut users: Vec<u32> = Vec::with_capacity(batch.len());
        let mut items: Vec<u32> = Vec::with_capacity(batch.len());
        for e in batch {
            assert!(
                (e.col as usize) < n_items,
                "streamed rating item id out of range"
            );
            self.step(e.row as usize, e.col as usize, e.val, alpha);
            users.push(e.row);
            items.push(e.col);
        }
        users.sort_unstable();
        users.dedup();
        items.sort_unstable();
        items.dedup();
        let f = self.config.f;
        for &u in &users {
            self.x_atomic
                .read_row_into(u as usize, self.x_snapshot.vector_mut(u as usize));
        }
        for &v in &items {
            self.theta_atomic
                .read_row_into(v as usize, self.theta_snapshot.vector_mut(v as usize));
        }
        debug_assert_eq!(self.x_snapshot.rank(), f);
        // Streamed ratings join the training set so later sweeps keep them.
        self.entries.extend_from_slice(batch);
        users
    }

    /// One lock-free parallel epoch over every retained rating.
    fn parallel_epoch(&mut self) {
        let alpha = self.alpha();
        let this = &*self;
        self.entries.par_iter().for_each(|e| {
            this.step(e.row as usize, e.col as usize, e.val, alpha);
        });
        self.epoch += 1;
        self.x_snapshot = self.x_atomic.to_factor_matrix();
        self.theta_snapshot = self.theta_atomic.to_factor_matrix();
    }
}

impl Engine for SgdEngine {
    fn name(&self) -> &'static str {
        "sgd"
    }

    fn train_sweep(&mut self) -> f64 {
        self.parallel_epoch();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        &self.x_snapshot
    }

    fn theta(&self) -> &FactorMatrix {
        &self.theta_snapshot
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        assert!(
            x.len() >= self.r.n_rows() as usize,
            "X has the wrong number of rows"
        );
        assert_eq!(
            theta.len(),
            self.r.n_cols() as usize,
            "Θ has the wrong number of rows"
        );
        assert_eq!(x.rank(), self.config.f, "X has the wrong rank");
        assert_eq!(theta.rank(), self.config.f, "Θ has the wrong rank");
        self.x_atomic = AtomicFactors::from_factor_matrix(&x);
        self.theta_atomic = AtomicFactors::from_factor_matrix(&theta);
        self.x_snapshot = x;
        self.theta_snapshot = theta;
    }

    fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        self.metrics = Some(metrics);
    }

    fn metrics(&self) -> Option<&Arc<TrainMetrics>> {
        self.metrics.as_ref()
    }

    fn train_rmse(&self) -> f64 {
        loss::rmse_csr(&self.x_snapshot, &self.theta_snapshot, &self.r)
    }
}

impl IncrementalEngine for SgdEngine {
    fn fold_in_lambda(&self) -> f32 {
        self.config.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::AlsEngine;
    use crate::config::AlsConfig;
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 150,
            n: 80,
            nnz: 5000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn sgd_reduces_training_error() {
        let mut sgd = SgdReference::new(
            SgdConfig {
                f: 8,
                epochs: 15,
                ..Default::default()
            },
            ratings(),
        );
        let before = sgd.train_rmse();
        sgd.run();
        let after = sgd.train_rmse();
        assert!(
            after < before * 0.7,
            "SGD should make progress: {before} -> {after}"
        );
    }

    #[test]
    fn learning_rate_decays() {
        let mut sgd = SgdReference::new(
            SgdConfig {
                f: 4,
                epochs: 2,
                ..Default::default()
            },
            ratings(),
        );
        let a0 = sgd.epoch(0);
        let a5 = sgd.epoch(5);
        assert!(a5 < a0);
    }

    #[test]
    fn als_needs_fewer_iterations_than_sgd() {
        // §2.1/§6: ALS converges in fewer iterations than SGD — one ALS
        // iteration should beat several SGD epochs on training RMSE.
        let r = ratings();
        let mut als = AlsEngine::new(
            AlsConfig {
                f: 8,
                iterations: 1,
                ..Default::default()
            },
            r.clone(),
        );
        let mut sgd = SgdReference::new(
            SgdConfig {
                f: 8,
                epochs: 3,
                ..Default::default()
            },
            r,
        );
        als.iterate();
        for e in 0..3 {
            sgd.epoch(e);
        }
        assert!(
            als.train_rmse() < sgd.train_rmse(),
            "1 ALS iteration ({}) should beat 3 SGD epochs ({})",
            als.train_rmse(),
            sgd.train_rmse()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let r = ratings();
        let mut a = SgdReference::new(
            SgdConfig {
                f: 4,
                epochs: 2,
                ..Default::default()
            },
            r.clone(),
        );
        let mut b = SgdReference::new(
            SgdConfig {
                f: 4,
                epochs: 2,
                ..Default::default()
            },
            r,
        );
        a.run();
        b.run();
        assert_eq!(a.x().max_abs_diff(b.x()), 0.0);
    }

    #[test]
    fn atomic_roundtrip_preserves_values() {
        let m = FactorMatrix::random(7, 3, 1.0, 5);
        let a = AtomicFactors::from_factor_matrix(&m);
        assert_eq!(a.to_factor_matrix(), m);
    }

    fn engine() -> SgdEngine {
        SgdEngine::new(
            SgdConfig {
                f: 8,
                ..Default::default()
            },
            ratings(),
        )
    }

    #[test]
    fn absorb_updates_touched_rows_and_reports_them() {
        let mut e = engine();
        let before_x = e.x().clone();
        let before_theta = e.theta().clone();
        let batch = vec![
            Entry {
                row: 3,
                col: 5,
                val: 4.0,
            },
            Entry {
                row: 1,
                col: 5,
                val: 2.0,
            },
            Entry {
                row: 3,
                col: 9,
                val: 5.0,
            },
        ];
        let touched = e.absorb(&batch);
        assert_eq!(touched, vec![1, 3]);
        for u in [1usize, 3] {
            assert_ne!(e.x().vector(u), before_x.vector(u), "user {u} must move");
        }
        assert_eq!(e.x().vector(0), before_x.vector(0), "untouched user moved");
        assert_ne!(e.theta().vector(5), before_theta.vector(5));
        assert_eq!(e.theta().vector(0), before_theta.vector(0));
    }

    #[test]
    fn absorb_grows_the_user_set_on_demand() {
        let mut e = engine();
        let trained_users = e.n_users();
        let new_user = trained_users as u32 + 7;
        let touched = e.absorb(&[Entry {
            row: new_user,
            col: 0,
            val: 5.0,
        }]);
        assert_eq!(touched, vec![new_user]);
        assert_eq!(e.n_users(), new_user as usize + 1);
        assert_eq!(e.x().len(), new_user as usize + 1);
        assert!(e
            .x()
            .vector(new_user as usize)
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "item id out of range")]
    fn absorb_rejects_items_outside_the_catalog() {
        let mut e = engine();
        let n = e.theta().len() as u32;
        e.absorb(&[Entry {
            row: 0,
            col: n,
            val: 1.0,
        }]);
    }

    #[test]
    fn absorbed_ratings_join_later_training_sweeps() {
        // A user absorbed from the stream keeps improving on subsequent
        // sweeps because the streamed ratings were retained.
        let mut e = engine();
        let n_users = e.n_users() as u32;
        let batch: Vec<Entry> = (0..6)
            .map(|k| Entry {
                row: n_users,
                col: k * 3,
                val: 4.0,
            })
            .collect();
        e.absorb(&batch);
        let err = |e: &SgdEngine| {
            let x = e.x().vector(n_users as usize);
            batch
                .iter()
                .map(|en| {
                    let d = en.val - dot(x, e.theta().vector(en.col as usize));
                    (d * d) as f64
                })
                .sum::<f64>()
        };
        let before = err(&e);
        for _ in 0..3 {
            e.train_sweep();
        }
        let after = err(&e);
        assert!(
            after < before,
            "streamed user must keep converging: {before} -> {after}"
        );
    }
}
