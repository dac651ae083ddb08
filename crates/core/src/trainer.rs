//! High-level training API.
//!
//! [`MatrixFactorizer`] is what the examples and the benchmark harness
//! drive: pick a backend (reference CPU, single simulated GPU, or multi-GPU
//! SU-ALS), call [`MatrixFactorizer::fit`], and get back a per-iteration
//! convergence history with both wall-clock and simulated GPU time — the two
//! axes the paper's figures use.  Every backend is the one [`AlsEngine`]:
//! the backend picks only its simulated cluster and placement, which decide
//! what a sweep is priced at.

use crate::als::{AlsEngine, Placement};
use crate::checkpoint::{Checkpoint, CheckpointManager};
use crate::config::AlsConfig;
use crate::engine::IncrementalEngine;
use crate::instrument::{TrainMetrics, TrainMetricsReport};
use crate::loss;
use crate::planner::PartitionPlan;
use crate::reduce::ReductionScheme;
use cumf_gpu_sim::{GpuCluster, TopologyKind};
use cumf_linalg::batch::SegmentView;
use cumf_linalg::topk::DEFAULT_ITEM_BLOCK;
use cumf_linalg::{
    block_max_norms, item_norms, scan_top_k, ApproxPolicy, FactorMatrix, ScoreKind, TopK,
};
use cumf_sparse::{Csr, Entry};
use std::sync::Arc;
use std::time::Instant;

/// Which engine executes the factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The plain CPU reference (Algorithm 1); no simulated timing.
    Reference,
    /// MO-ALS on one simulated GPU (Algorithm 2).
    SingleGpu,
    /// SU-ALS on several simulated GPUs (Algorithm 3).
    MultiGpu {
        /// Number of simulated GPUs.
        n_gpus: usize,
        /// Interconnect layout.
        topology: TopologyKind,
        /// Cross-GPU reduction scheme.
        reduction: ReductionScheme,
        /// Optional explicit partition plan (otherwise the planner decides).
        plan: Option<PartitionPlan>,
    },
}

impl Backend {
    /// One simulated Titan X (the paper's single-GPU setting).
    pub fn single_gpu() -> Self {
        Backend::SingleGpu
    }

    /// `n` simulated Titan X cards on a flat PCIe topology with one-phase
    /// parallel reduction.
    pub fn multi_gpu(n_gpus: usize) -> Self {
        Backend::MultiGpu {
            n_gpus,
            topology: TopologyKind::FlatPcie,
            reduction: ReductionScheme::OnePhase,
            plan: None,
        }
    }
}

/// Convergence record of one ALS iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Training RMSE after the iteration (`NaN` when tracking is disabled).
    pub train_rmse: f64,
    /// Test RMSE after the iteration (`NaN` when no test set was given).
    pub test_rmse: f64,
    /// Simulated GPU seconds of this iteration (0 for the reference backend).
    pub sim_time_s: f64,
    /// Cumulative simulated GPU seconds including this iteration.
    pub cumulative_sim_time_s: f64,
    /// Host wall-clock seconds the iteration actually took.
    pub wall_time_s: f64,
}

/// The result of a [`MatrixFactorizer::fit`] call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Per-iteration convergence records.
    pub iterations: Vec<IterationRecord>,
    /// The first checkpoint write that failed, if any.  Training carries on
    /// past it, so a run whose checkpoint directory has gone still returns
    /// its factors, but a restore would read an older checkpoint.
    pub checkpoint_error: Option<String>,
}

impl TrainReport {
    /// Test RMSE after the final iteration (`NaN` when no test set).
    pub fn final_test_rmse(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.test_rmse)
            .unwrap_or(f64::NAN)
    }

    /// Training RMSE after the final iteration.
    pub fn final_train_rmse(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.train_rmse)
            .unwrap_or(f64::NAN)
    }

    /// Total simulated GPU seconds.
    pub fn total_sim_time(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.cumulative_sim_time_s)
            .unwrap_or(0.0)
    }
}

/// The high-level matrix factorization model.
pub struct MatrixFactorizer {
    config: AlsConfig,
    backend: Backend,
    engine: Option<Box<dyn IncrementalEngine>>,
    checkpoints: Option<CheckpointManager>,
    warm_start: Option<(FactorMatrix, FactorMatrix)>,
    metrics: Arc<TrainMetrics>,
}

impl MatrixFactorizer {
    /// Creates a factorizer with the given hyper-parameters and backend.
    pub fn new(config: AlsConfig, backend: Backend) -> Self {
        config.validate();
        Self {
            config,
            backend,
            engine: None,
            checkpoints: None,
            warm_start: None,
            metrics: Arc::new(TrainMetrics::new()),
        }
    }

    /// Starts the next [`MatrixFactorizer::fit`] from the given factors
    /// instead of a random initialization.
    ///
    /// # Panics
    /// Panics (at `fit` time) if the factor shapes do not match the training
    /// matrix or the configured rank.
    fn with_warm_start(mut self, x: FactorMatrix, theta: FactorMatrix) -> Self {
        self.warm_start = Some((x, theta));
        self
    }

    /// Resumes from a saved [`Checkpoint`]: the next `fit` call continues
    /// training from the checkpointed factors (§4.4's failure-recovery
    /// path).
    pub fn with_checkpoint_restore(self, checkpoint: Checkpoint) -> Self {
        self.with_warm_start(checkpoint.x, checkpoint.theta)
    }

    /// Enables checkpointing of the factors after every iteration into
    /// `dir`.  A failed write does not stop `fit`; the first one is
    /// reported in [`TrainReport::checkpoint_error`].
    pub fn with_checkpointing(
        mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Self> {
        self.checkpoints = Some(CheckpointManager::new(dir)?);
        Ok(self)
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> &AlsConfig {
        &self.config
    }

    fn build_engine(&self, train: &Csr) -> Box<dyn IncrementalEngine> {
        let (config, train) = (self.config.clone(), train.clone());
        let mut engine = match &self.backend {
            Backend::Reference => AlsEngine::new(config, train),
            Backend::SingleGpu => AlsEngine::on_titan_x(config, train),
            Backend::MultiGpu {
                n_gpus,
                topology,
                reduction,
                plan,
            } => {
                let cluster = match topology {
                    TopologyKind::FlatPcie => GpuCluster::titan_x_flat(*n_gpus),
                    TopologyKind::DualSocket => GpuCluster::new(
                        cumf_gpu_sim::DeviceSpec::titan_x(),
                        cumf_gpu_sim::PcieTopology::dual_socket(*n_gpus),
                    ),
                };
                let placement = Placement::Grid {
                    reduction: *reduction,
                    plan: *plan,
                };
                AlsEngine::on_cluster(config, train, cluster, placement)
            }
        };
        // Every backend's training solves and fold-ins record into the
        // factorizer's metrics sink.
        engine.attach_metrics(Arc::clone(&self.metrics));
        if let Some((x, theta)) = &self.warm_start {
            engine.set_factors(x.clone(), theta.clone());
        }
        Box::new(engine)
    }

    /// Fits the model to `train`, reporting per-iteration RMSE on `test`
    /// (pass an empty slice to skip test evaluation).
    ///
    /// ```
    /// use cumf_core::config::AlsConfig;
    /// use cumf_core::trainer::{Backend, MatrixFactorizer};
    /// use cumf_data::synth::SyntheticConfig;
    /// use cumf_data::train_test_split;
    ///
    /// let data = SyntheticConfig { m: 80, n: 40, nnz: 1600, ..Default::default() }.generate();
    /// let split = train_test_split(&data.ratings, 0.1, 7);
    ///
    /// let config = AlsConfig { f: 8, iterations: 4, ..Default::default() };
    /// let mut model = MatrixFactorizer::new(config, Backend::Reference);
    /// let report = model.fit(&split.train, &split.test);
    ///
    /// assert_eq!(report.iterations.len(), 4);
    /// // ALS monotonically decreases the training objective, so train RMSE
    /// // after the last iteration is no worse than after the first.
    /// assert!(report.final_train_rmse() <= report.iterations[0].train_rmse + 1e-9);
    /// assert!(report.final_test_rmse().is_finite());
    /// ```
    pub fn fit(&mut self, train: &Csr, test: &[Entry]) -> TrainReport {
        let mut engine = self.build_engine(train);
        let mut report = TrainReport::default();
        let mut cumulative_sim = 0.0f64;

        for iter in 1..=self.config.iterations {
            let wall_start = Instant::now();
            let sim = engine.train_sweep();
            cumulative_sim += sim;
            let wall = wall_start.elapsed().as_secs_f64();

            let train_rmse = if self.config.track_rmse {
                engine.train_rmse()
            } else {
                f64::NAN
            };
            let test_rmse = if self.config.track_rmse && !test.is_empty() {
                loss::rmse(engine.x(), engine.theta(), test)
            } else {
                f64::NAN
            };

            if let Some(mgr) = &self.checkpoints {
                let saved = mgr.save(&Checkpoint {
                    iteration: iter as u64,
                    x: engine.x().clone(),
                    theta: engine.theta().clone(),
                });
                if let (Err(e), None) = (saved, &report.checkpoint_error) {
                    report.checkpoint_error = Some(format!("iteration {iter}: {e}"));
                }
            }

            report.iterations.push(IterationRecord {
                iteration: iter,
                train_rmse,
                test_rmse,
                sim_time_s: sim,
                cumulative_sim_time_s: cumulative_sim,
                wall_time_s: wall,
            });
        }

        self.engine = Some(engine);
        report
    }

    /// User factors of the fitted model.
    ///
    /// # Panics
    /// Panics if [`MatrixFactorizer::fit`] has not been called.
    pub fn x(&self) -> &FactorMatrix {
        self.fitted_engine().x()
    }

    /// Item factors of the fitted model.
    pub fn theta(&self) -> &FactorMatrix {
        self.fitted_engine().theta()
    }

    /// The fitted engine behind the unified [`IncrementalEngine`] trait.
    ///
    /// # Panics
    /// Panics if [`MatrixFactorizer::fit`] has not been called.
    fn fitted_engine(&self) -> &dyn IncrementalEngine {
        self.engine
            .as_deref()
            .expect("call fit() before reading factors")
    }

    /// Predicted rating for `(user, item)`.
    ///
    /// ```
    /// use cumf_core::config::AlsConfig;
    /// use cumf_core::trainer::{Backend, MatrixFactorizer};
    /// use cumf_data::synth::SyntheticConfig;
    ///
    /// let data = SyntheticConfig { m: 60, n: 30, nnz: 900, ..Default::default() }.generate();
    /// let train = data.to_csr();
    ///
    /// let config = AlsConfig { f: 8, iterations: 3, ..Default::default() };
    /// let mut model = MatrixFactorizer::new(config, Backend::Reference);
    /// model.fit(&train, &[]);
    ///
    /// // Predictions are the dot products of the learned factors: finite,
    /// // and identical on repeated calls.
    /// let p = model.predict(0, 5);
    /// assert!(p.is_finite());
    /// assert_eq!(p, model.predict(0, 5));
    /// ```
    pub fn predict(&self, user: u32, item: u32) -> f32 {
        loss::predict(self.x(), self.theta(), user, item)
    }

    /// Solves the ALS normal equations for a batch of new-or-updated users
    /// against the fitted (frozen) item factors — the incremental fold-in
    /// path.  `ratings` carries one row per folded-in user over the full
    /// item catalog (build it with [`crate::foldin::ratings_rows`]); row `i`
    /// of the result is the factor vector for row `i`'s user.  The trained
    /// model is untouched: feed the rows into a serving-side delta
    /// publication instead of retraining.
    ///
    /// ```
    /// use cumf_core::config::AlsConfig;
    /// use cumf_core::foldin::ratings_rows;
    /// use cumf_core::trainer::{Backend, MatrixFactorizer};
    /// use cumf_data::synth::SyntheticConfig;
    ///
    /// let data = SyntheticConfig { m: 80, n: 40, nnz: 1600, ..Default::default() }.generate();
    /// let train = data.to_csr();
    /// let mut model = MatrixFactorizer::new(
    ///     AlsConfig { f: 8, iterations: 3, ..Default::default() },
    ///     Backend::Reference,
    /// );
    /// model.fit(&train, &[]);
    ///
    /// // A brand-new user rated three items; fold them in without retraining.
    /// let batch = ratings_rows(&[vec![(0, 4.0), (7, 3.0), (21, 5.0)]], train.n_cols());
    /// let folded = model.fold_in_users(&batch);
    /// assert_eq!(folded.len(), 1);
    /// assert!(folded.vector(0).iter().any(|&v| v != 0.0));
    /// ```
    ///
    /// # Panics
    /// Panics if [`MatrixFactorizer::fit`] has not been called or the
    /// ratings do not span the item catalog.
    pub fn fold_in_users(&self, ratings: &Csr) -> FactorMatrix {
        self.fitted_engine().fold_in_users(ratings)
    }

    /// A snapshot of the trainer-side latency metrics: per-row
    /// Hermitian-assembly and solve phases, whole `solve_side` calls, and
    /// fold-in batches (see [`crate::instrument::TrainMetrics`]), from every
    /// backend.  Empty until [`MatrixFactorizer::fit`] or
    /// [`MatrixFactorizer::fold_in_users`] has run.
    pub fn train_metrics(&self) -> TrainMetricsReport {
        self.metrics.report()
    }

    /// Top-`k` recommendations for `user`, excluding the items listed in
    /// `exclude` (typically the items the user has already rated).
    /// Returns `(item, predicted_rating)` pairs sorted by score, and an
    /// empty list for a user outside the fitted model — the answer
    /// `FactorSnapshot::recommend_one` and the serving client give.
    ///
    /// ```
    /// use cumf_core::config::AlsConfig;
    /// use cumf_core::trainer::{Backend, MatrixFactorizer};
    /// use cumf_data::synth::SyntheticConfig;
    ///
    /// let data = SyntheticConfig { m: 60, n: 30, nnz: 900, ..Default::default() }.generate();
    /// let train = data.to_csr();
    ///
    /// let config = AlsConfig { f: 8, iterations: 3, ..Default::default() };
    /// let mut model = MatrixFactorizer::new(config, Backend::Reference);
    /// model.fit(&train, &[]);
    ///
    /// let (seen, _) = train.row(0);
    /// let recs = model.recommend(0, 5, seen);
    ///
    /// assert_eq!(recs.len(), 5);
    /// // Sorted by predicted rating, and never recommends a seen item.
    /// assert!(recs.windows(2).all(|w| w[0].1 >= w[1].1));
    /// assert!(recs.iter().all(|(item, _)| !seen.contains(item)));
    /// ```
    pub fn recommend(&self, user: u32, k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
        let (x, theta) = (self.x(), self.theta());
        if user as usize >= x.len() || k == 0 {
            return Vec::new();
        }
        // A tile of one over Θ as one catalog-order segment: the scan every
        // `cumf-serve` request runs, pruned on Θ's block norm maxima.
        let f = theta.rank();
        let norms = item_norms(theta.data(), f);
        let item_block = DEFAULT_ITEM_BLOCK.min(theta.len().max(1));
        let block_max = block_max_norms(&norms, item_block);
        let view = SegmentView {
            items: theta.data(),
            norms: &norms,
            block_max: &block_max,
            item_block,
            first_id: 0,
            ids: None,
            pos: None,
            encoded: None,
        };
        let excluded: std::collections::HashSet<u32> = exclude.iter().copied().collect();
        let mut heaps = [Some(TopK::new(k))];
        scan_top_k(
            x.vector(user as usize),
            f,
            &mut heaps,
            &[view],
            0..block_max.len(),
            ScoreKind::Dot,
            &ApproxPolicy::exact(),
            |_, v| excluded.contains(&v),
        );
        heaps[0]
            .take()
            .map(TopK::into_sorted_vec)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::Phase;
    use cumf_data::synth::SyntheticConfig;
    use cumf_data::train_test_split;

    fn problem() -> (Csr, Vec<Entry>) {
        let data = SyntheticConfig {
            m: 250,
            n: 120,
            nnz: 8000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate();
        let split = train_test_split(&data.ratings, 0.1, 3);
        (split.train, split.test)
    }

    fn config(iterations: usize) -> AlsConfig {
        AlsConfig {
            f: 12,
            lambda: 0.05,
            iterations,
            ..Default::default()
        }
    }

    #[test]
    fn reference_backend_converges() {
        let (train, test) = problem();
        let mut model = MatrixFactorizer::new(config(5), Backend::Reference);
        let report = model.fit(&train, &test);
        assert_eq!(report.iterations.len(), 5);
        assert!(report.final_train_rmse() < 0.4);
        assert!(report.final_test_rmse() < 1.0);
        assert_eq!(report.total_sim_time(), 0.0);
    }

    #[test]
    fn single_gpu_backend_reports_simulated_time() {
        let (train, test) = problem();
        let mut model = MatrixFactorizer::new(config(3), Backend::single_gpu());
        let report = model.fit(&train, &test);
        assert!(report.total_sim_time() > 0.0);
        assert!(report
            .iterations
            .windows(2)
            .all(|w| w[1].cumulative_sim_time_s > w[0].cumulative_sim_time_s));
    }

    #[test]
    fn multi_gpu_backend_matches_single_gpu_rmse() {
        let (train, test) = problem();
        let mut single = MatrixFactorizer::new(config(3), Backend::single_gpu());
        let mut multi = MatrixFactorizer::new(config(3), Backend::multi_gpu(2));
        let rs = single.fit(&train, &test);
        let rm = multi.fit(&train, &test);
        assert!((rs.final_test_rmse() - rm.final_test_rmse()).abs() < 0.05);
    }

    #[test]
    fn predictions_and_recommendations_work() {
        let (train, test) = problem();
        let mut model = MatrixFactorizer::new(config(4), Backend::Reference);
        model.fit(&train, &test);
        let p = model.predict(0, 0);
        assert!(p.is_finite());
        let (seen, _) = train.row(0);
        let recs = model.recommend(0, 5, seen);
        assert_eq!(recs.len(), 5);
        // Recommendations exclude already-rated items and are sorted.
        for (item, _) in &recs {
            assert!(!seen.contains(item));
        }
        assert!(recs.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn recommend_matches_a_full_sort_and_answers_unknown_users_empty() {
        let (train, test) = problem();
        let mut model = MatrixFactorizer::new(config(3), Backend::Reference);
        model.fit(&train, &test);
        let (x, theta) = (model.x(), model.theta());
        let exclude: Vec<u32> = (0..theta.len() as u32).filter(|v| v % 5 == 0).collect();
        for user in [0u32, 7, x.len() as u32 - 1] {
            let x_u = x.vector(user as usize);
            let mut all: Vec<(u32, f32)> = (0..theta.len() as u32)
                .filter(|v| v % 5 != 0)
                .map(|v| (v, cumf_linalg::score_dot(x_u, theta.vector(v as usize))))
                .collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            all.truncate(10);
            assert_eq!(model.recommend(user, 10, &exclude), all, "user {user}");
        }
        assert!(model.recommend(x.len() as u32, 5, &[]).is_empty());
        assert!(model.recommend(u32::MAX, 5, &[]).is_empty());
        assert!(model.recommend(0, 0, &[]).is_empty());
    }

    #[test]
    fn rmse_tracking_can_be_disabled() {
        let (train, _) = problem();
        let cfg = AlsConfig {
            track_rmse: false,
            ..config(2)
        };
        let mut model = MatrixFactorizer::new(cfg, Backend::Reference);
        let report = model.fit(&train, &[]);
        assert!(report.final_train_rmse().is_nan());
    }

    #[test]
    fn checkpointing_writes_restorable_files() {
        let (train, test) = problem();
        let dir = std::env::temp_dir().join(format!("cumf_trainer_ckpt_{}", std::process::id()));
        let mut model = MatrixFactorizer::new(config(2), Backend::Reference)
            .with_checkpointing(&dir)
            .unwrap();
        model.fit(&train, &test);
        let mgr = CheckpointManager::new(&dir).unwrap();
        let latest = mgr.load_latest().unwrap().unwrap();
        assert_eq!(latest.iteration, 2);
        assert_eq!(latest.x.max_abs_diff(model.x()), 0.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_failed_checkpoint_write_is_reported_and_training_continues() {
        let (train, test) = problem();
        let dir = std::env::temp_dir().join(format!("cumf_trainer_gone_{}", std::process::id()));
        let mut model = MatrixFactorizer::new(config(3), Backend::Reference)
            .with_checkpointing(&dir)
            .unwrap();
        // The directory disappears after set-up; a regular file takes its
        // place, so every write fails.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let report = model.fit(&train, &test);
        std::fs::remove_file(&dir).unwrap();
        assert_eq!(report.iterations.len(), 3, "training carries on");
        let err = report
            .checkpoint_error
            .expect("the failed write is reported");
        assert!(err.starts_with("iteration 1: "), "first failure: {err}");
    }

    #[test]
    fn warm_start_resumes_exactly_where_the_checkpoint_left_off() {
        let (train, test) = problem();
        let dir = std::env::temp_dir().join(format!("cumf_warm_start_{}", std::process::id()));
        let mut full = MatrixFactorizer::new(config(4), Backend::Reference)
            .with_checkpointing(&dir)
            .unwrap();
        let full_report = full.fit(&train, &test);

        // Restore the iteration-2 checkpoint into a *fresh* trainer and run
        // the remaining two iterations: ALS is deterministic, so the resumed
        // trajectory must coincide with the original run's iterations 3–4.
        let ckpt_path = dir.join("checkpoint_00000002.cumf");
        let ckpt = CheckpointManager::load(&ckpt_path).unwrap();
        assert_eq!(ckpt.iteration, 2);
        let mut resumed =
            MatrixFactorizer::new(config(2), Backend::Reference).with_checkpoint_restore(ckpt);
        let resumed_report = resumed.fit(&train, &test);

        for (r, f) in resumed_report
            .iterations
            .iter()
            .zip(&full_report.iterations[2..])
        {
            assert!(
                (r.train_rmse - f.train_rmse).abs() < 1e-9,
                "iteration {}: resumed {} vs original {}",
                f.iteration,
                r.train_rmse,
                f.train_rmse
            );
        }
        assert_eq!(resumed.x().max_abs_diff(full.x()), 0.0);
        assert_eq!(resumed.theta().max_abs_diff(full.theta()), 0.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "X has the wrong number of rows")]
    fn warm_start_with_mismatched_shapes_panics() {
        let (train, _) = problem();
        let mut model = MatrixFactorizer::new(config(1), Backend::Reference)
            .with_warm_start(FactorMatrix::zeros(3, 12), FactorMatrix::zeros(120, 12));
        model.fit(&train, &[]);
    }

    #[test]
    #[should_panic(expected = "call fit()")]
    fn reading_factors_before_fit_panics() {
        let model = MatrixFactorizer::new(config(1), Backend::Reference);
        let _ = model.x();
    }

    #[test]
    fn fit_populates_train_metrics() {
        let (train, _) = problem();
        let mut model = MatrixFactorizer::new(config(3), Backend::Reference);
        assert_eq!(model.train_metrics().rows_solved(), 0, "empty before fit");
        model.fit(&train, &[]);

        let r = model.train_metrics();
        // Two solve_side calls per iteration (update X, update Θ).
        assert_eq!(r[Phase::SolveSide].count(), 6);
        // Every non-empty row of R and Rᵀ records both phases, every
        // iteration — at most (m + n) rows each.
        assert_eq!(r[Phase::Assembly].count(), r[Phase::Solve].count());
        assert_eq!(r.rows_solved(), r[Phase::Assembly].count());
        assert!(r.rows_solved() >= 6, "rows must have been timed");
        assert!(r.rows_solved() <= 3 * (250 + 120));
        // Whole-call time dominates any single row's phases.
        assert!(r[Phase::SolveSide].max_ns() >= r[Phase::Assembly].max_ns());
        assert_eq!(r[Phase::FoldIn].count(), 0, "no fold-in ran");

        // Fold-in records its batch latency through the same sink.
        let batch = crate::foldin::ratings_rows(&[vec![(0, 4.0), (5, 3.0)]], train.n_cols());
        model.fold_in_users(&batch);
        let r = model.train_metrics();
        assert_eq!(r[Phase::FoldIn].count(), 1);
        assert_eq!(
            r[Phase::SolveSide].count(),
            7,
            "fold-in is one more solve_side"
        );
    }

    #[test]
    fn multi_gpu_backend_records_its_training_rows() {
        let (train, _) = problem();
        let backend = Backend::MultiGpu {
            n_gpus: 2,
            topology: TopologyKind::FlatPcie,
            reduction: ReductionScheme::OnePhase,
            plan: Some(PartitionPlan { p: 2, q: 2 }),
        };
        let mut model = MatrixFactorizer::new(config(2), backend);
        model.fit(&train, &[]);
        let r = model.train_metrics();
        assert!(r.rows_solved() > 0);
        assert_eq!(r[Phase::Assembly].count(), r.rows_solved());
        assert_eq!(
            r[Phase::SolveSide].count(),
            4,
            "two solve_side samples per sweep"
        );
    }

    #[test]
    fn single_gpu_backend_also_records_metrics() {
        let (train, _) = problem();
        let mut model = MatrixFactorizer::new(config(2), Backend::single_gpu());
        model.fit(&train, &[]);
        let r = model.train_metrics();
        assert_eq!(r[Phase::SolveSide].count(), 4);
        assert!(r.rows_solved() > 0);
        let json = r.exporter().to_json();
        assert!(json.contains("\"train_solve_side_count\":4"));
        assert!(json.contains("\"train_assembly_p50_ns\":"));
    }
}
