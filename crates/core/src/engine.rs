//! The unified engine API: one trait pair every factorization engine
//! implements.
//!
//! The ALS engine ([`crate::als::AlsEngine`], in each of its placements),
//! streaming SGD and the baseline solvers all sit behind [`Engine`]:
//!
//! | method | what it does |
//! |---|---|
//! | [`Engine::train_sweep`] | one full training pass (ALS iteration or SGD epoch); returns simulated GPU seconds (0 for host-only engines) |
//! | [`Engine::x`] / [`Engine::theta`] | the current factor matrices |
//! | [`Engine::set_factors`] | warm start / checkpoint restore |
//! | [`Engine::attach_metrics`] | share a [`TrainMetrics`] sink for per-row phase timing |
//! | [`Engine::rmse`] / [`Engine::train_rmse`] | held-out / training error |
//!
//! [`IncrementalEngine`] extends it with the online-serving half: folding
//! new-or-updated users in against the engine's frozen `Θ`
//! ([`IncrementalEngine::fold_in_users`]).  A caller that holds the
//! serving tier's segmented item store instead of the engine calls
//! [`crate::foldin::fold_in_users_segmented`] directly, with the engine's
//! [`IncrementalEngine::fold_in_lambda`] and metrics sink.
//!
//! Both traits are object safe; [`crate::trainer::MatrixFactorizer`] holds a
//! `Box<dyn IncrementalEngine>` and the benchmark harness drives baselines
//! through `Box<dyn Engine>`.

use crate::instrument::TrainMetrics;
use crate::loss;
use cumf_linalg::FactorMatrix;
use cumf_sparse::{Csr, Entry};
use std::sync::Arc;

/// A matrix-factorization engine: something that sweeps over a fixed
/// training set improving `X`/`Θ`, can be warm-started, and reports its
/// error.
pub trait Engine {
    /// Human-readable engine name.
    fn name(&self) -> &'static str;

    /// Runs one full training sweep — an ALS iteration or an SGD/CCD epoch —
    /// and returns the *simulated* GPU seconds it cost (0.0 for engines that
    /// only run on the host).
    fn train_sweep(&mut self) -> f64;

    /// Current user factors `X`.
    fn x(&self) -> &FactorMatrix;

    /// Current item factors `Θ`.
    fn theta(&self) -> &FactorMatrix;

    /// Replaces the current factors (warm start / checkpoint restore).
    ///
    /// # Panics
    /// Panics if the shapes do not match the engine's training matrix or
    /// configured rank.
    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix);

    /// Attaches a shared [`TrainMetrics`] sink.  The ALS engine records
    /// every training row and fold-in there, whatever its placement; an
    /// engine without a row loop keeps the sink for its fold-ins.
    fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>);

    /// The attached metrics sink, if any — the shared handle itself, so a
    /// caller can keep recording into it after dropping the engine.
    fn metrics(&self) -> Option<&Arc<TrainMetrics>> {
        None
    }

    /// Root-mean-square error on an explicit set of held-out ratings.
    fn rmse(&self, entries: &[Entry]) -> f64 {
        if entries.is_empty() {
            return 0.0;
        }
        loss::rmse(self.x(), self.theta(), entries)
    }

    /// Root-mean-square error over the engine's own training set.
    fn train_rmse(&self) -> f64;
}

/// An [`Engine`] that supports the online loop: solving new-or-updated
/// users against its frozen `Θ` for serving-side delta publication, without
/// retraining.
pub trait IncrementalEngine: Engine {
    /// The regularization used for fold-in solves (the training `λ`, so a
    /// folded-in user gets exactly the factors one more update-`X`
    /// half-iteration would have given them).
    fn fold_in_lambda(&self) -> f32;

    /// Solves a batch of users against the engine's frozen `Θ` — one row of
    /// `ratings` per user over the full item catalog (build it with
    /// [`crate::foldin::ratings_rows`]).  Records into the attached
    /// [`TrainMetrics`], if any.
    ///
    /// # Panics
    /// Panics if `ratings` does not span the item catalog.
    fn fold_in_users(&self, ratings: &Csr) -> FactorMatrix {
        crate::foldin::fold_in_users(
            ratings,
            self.theta(),
            self.fold_in_lambda(),
            self.metrics().map(Arc::as_ref),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::{AlsEngine, Placement};
    use crate::config::AlsConfig;
    use crate::foldin::ratings_rows;
    use crate::instrument::Phase;
    use crate::reduce::ReductionScheme;
    use crate::sgd::{SgdConfig, SgdEngine};
    use cumf_data::synth::SyntheticConfig;
    use cumf_gpu_sim::GpuCluster;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 120,
            n: 60,
            nnz: 3000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    fn engines(r: &Csr) -> Vec<Box<dyn IncrementalEngine>> {
        let als = AlsConfig {
            f: 8,
            lambda: 0.05,
            iterations: 2,
            ..Default::default()
        };
        vec![
            Box::new(AlsEngine::new(als.clone(), r.clone())),
            Box::new(AlsEngine::on_titan_x(als.clone(), r.clone())),
            Box::new(AlsEngine::on_cluster(
                als.clone(),
                r.clone(),
                GpuCluster::titan_x_flat(2),
                Placement::Grid {
                    reduction: ReductionScheme::OnePhase,
                    plan: None,
                },
            )),
            Box::new(SgdEngine::new(
                SgdConfig {
                    f: 8,
                    ..Default::default()
                },
                r.clone(),
            )),
        ]
    }

    #[test]
    fn every_engine_trains_through_the_unified_trait() {
        let r = ratings();
        for mut engine in engines(&r) {
            let before = engine.train_rmse();
            let mut sim = 0.0;
            for _ in 0..3 {
                sim += engine.train_sweep();
            }
            let after = engine.train_rmse();
            assert!(
                after < before,
                "{}: training must reduce RMSE ({before} -> {after})",
                engine.name()
            );
            assert!(sim >= 0.0, "{}: negative simulated time", engine.name());
            assert_eq!(engine.x().len(), r.n_rows() as usize, "{}", engine.name());
            assert_eq!(
                engine.theta().len(),
                r.n_cols() as usize,
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn set_factors_round_trips_through_the_trait() {
        let r = ratings();
        for mut engine in engines(&r) {
            engine.train_sweep();
            let (x, theta) = (engine.x().clone(), engine.theta().clone());
            engine.set_factors(x.clone(), theta.clone());
            assert_eq!(engine.x().max_abs_diff(&x), 0.0, "{}", engine.name());
            assert_eq!(
                engine.theta().max_abs_diff(&theta),
                0.0,
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn fold_in_matches_across_engines_given_identical_factors() {
        // Fold-in depends only on Θ and λ, so every engine sharing the same
        // factors must fold identically — the trait default makes that
        // structural instead of triplicated.
        let r = ratings();
        let mut all = engines(&r);
        let mut first = all.remove(0);
        first.train_sweep();
        let (x, theta) = (first.x().clone(), first.theta().clone());
        let batch = ratings_rows(&[vec![(0, 4.0), (7, 3.0), (12, 5.0)]], r.n_cols());
        let expect = first.fold_in_users(&batch);
        for mut engine in all {
            engine.set_factors(x.clone(), theta.clone());
            let got = engine.fold_in_users(&batch);
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "{} fold-in diverged",
                engine.name()
            );
        }
    }

    #[test]
    fn attached_metrics_record_fold_ins_for_every_engine() {
        let r = ratings();
        let batch = ratings_rows(&[vec![(0, 4.0)]], r.n_cols());
        for mut engine in engines(&r) {
            let metrics = Arc::new(TrainMetrics::new());
            engine.attach_metrics(Arc::clone(&metrics));
            engine.fold_in_users(&batch);
            assert_eq!(
                metrics.report()[Phase::FoldIn].count(),
                1,
                "{} must record fold-ins through the attached sink",
                engine.name()
            );
        }
    }

    #[test]
    fn held_out_rmse_default_is_consistent_with_train_rmse() {
        let r = ratings();
        let mut engine = AlsEngine::new(
            AlsConfig {
                f: 8,
                iterations: 2,
                ..Default::default()
            },
            r.clone(),
        );
        Engine::train_sweep(&mut engine);
        let entries: Vec<Entry> = r.iter().collect();
        let held_out = Engine::rmse(&engine, &entries);
        let train = Engine::train_rmse(&engine);
        assert!((held_out - train).abs() < 1e-9);
        assert_eq!(Engine::rmse(&engine, &[]), 0.0);
    }
}
