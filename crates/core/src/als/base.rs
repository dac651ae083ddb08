//! The one ALS engine.
//!
//! [`AlsEngine`] alternates Algorithm 1's two half-iterations through
//! [`solve_rows`], whichever of the paper's algorithms it stands for.  The
//! three differ only in where `Θ` and `R` live and in what the GPU pays for
//! that (§3–4), so that is all an engine's optional simulated cluster and
//! its [`Placement`] decide:
//!
//! * no cluster — Algorithm 1, the host reference; a sweep costs 0 s;
//! * [`Placement::Resident`] — Algorithm 2, MO-ALS: `R`, `X` and `Θᵀ` live
//!   on one GPU ([`crate::als::mo`]);
//! * [`Placement::Grid`] — Algorithm 3, SU-ALS: `Θᵀ` is split over `p`
//!   GPUs and `X` into `q` batches ([`crate::als::su`]).
//!
//! Either way a sweep is priced by [`crate::costmodel::price_side`], the
//! pricer behind `REPRO.txt`'s time axes: a resident side as one block
//! with no streaming, a grid side as its counted blocks.
//!
//! The grid's `p` also splits each row's sum into `p` partial Hermitians
//! (equation (5)), so with `p > 1` the factors can differ from the other
//! placements' in the last bits; with `p = 1` they are bit-identical.

use crate::als::kernels::solve_rows;
use crate::als::{mo, su};
use crate::config::AlsConfig;
use crate::costmodel::{price_side, ClusterConfig, SideShape, SideTiming};
use crate::instrument::TrainMetrics;
use crate::loss;
use crate::planner::{self, PartitionPlan, ProblemDims};
use crate::reduce::ReductionScheme;
use cumf_gpu_sim::GpuCluster;
use cumf_linalg::FactorMatrix;
use cumf_sparse::{split_ranges, Csr};
use std::sync::Arc;

/// Where `R` and `Θᵀ` live on an engine's simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// MO-ALS (Algorithm 2): `R`, `X` and `Θᵀ` resident on one GPU.
    Resident,
    /// SU-ALS (Algorithm 3): `Θᵀ` split vertically into `p` partitions, one
    /// per GPU, `X` horizontally into `q` batches solved in sequence, and
    /// `R` into the `p × q` grid of their blocks.
    Grid {
        /// Cross-GPU reduction of the partial Hermitians (§4.2).
        reduction: ReductionScheme,
        /// The `(p, q)` partitioning; `None` asks the planner
        /// (equation (8)).
        plan: Option<PartitionPlan>,
    },
}

/// The simulated cluster an engine's sweeps are priced on.
#[derive(Debug, Clone)]
struct Simulated {
    cluster: GpuCluster,
    /// `cluster`'s hardware with the engine's memory options and reduction.
    hardware: ClusterConfig,
    placement: Placement,
    /// `(p, q)` of the update-X and the update-Θ half.
    plans: [PartitionPlan; 2],
    /// The blocks of `R` and of `Rᵀ` under those plans.
    shapes: [SideShape; 2],
    upload_s: f64,
    total_s: f64,
}

const WHOLE: PartitionPlan = PartitionPlan { p: 1, q: 1 };

/// The ALS engine: the reference, MO-ALS or SU-ALS, by its cluster and
/// placement (see the module documentation).
#[derive(Debug, Clone)]
pub struct AlsEngine {
    config: AlsConfig,
    r: Csr,
    r_t: Csr,
    x: FactorMatrix,
    theta: FactorMatrix,
    sim: Option<Simulated>,
    metrics: Option<Arc<TrainMetrics>>,
}

impl AlsEngine {
    /// The host reference (Algorithm 1) for the given ratings; factor
    /// matrices are initialized with uniform random numbers in `[0, 1/√f)`
    /// (the paper initializes in `[0, 1]`; the `1/√f` scaling keeps initial
    /// predictions in the rating range for any `f`).
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
            sim: None,
            metrics: None,
        }
    }

    /// MO-ALS on one simulated Titan X (the paper's single-GPU setting).
    pub fn on_titan_x(config: AlsConfig, r: Csr) -> Self {
        Self::on_cluster(config, r, GpuCluster::single_titan_x(), Placement::Resident)
    }

    /// The engine priced on `cluster` with `placement`; the same seeded
    /// start as [`AlsEngine::new`].  A grid without a plan is planned by
    /// [`planner::plan`], once per half; a configured plan is clamped to
    /// the matrix.
    ///
    /// # Panics
    /// Panics if a resident placement is asked of more than one GPU, or if
    /// `R`, `X` and `Θ` do not fit in its global memory (use a grid).
    pub fn on_cluster(
        config: AlsConfig,
        r: Csr,
        mut cluster: GpuCluster,
        placement: Placement,
    ) -> Self {
        let mut engine = Self::new(config, r);
        let f = engine.config.f;
        let sides = [&engine.r, &engine.r_t];
        let (plans, upload_s, reduction) = match placement {
            // One GPU holds everything: nothing is ever reduced.
            Placement::Resident => (
                [WHOLE; 2],
                mo::place(&mut cluster, &engine.r, f),
                ReductionScheme::OnePhase,
            ),
            Placement::Grid { reduction, plan } => {
                let plans = sides.map(|r| {
                    let (m, n) = (r.n_rows() as u64, r.n_cols() as u64);
                    let dims = ProblemDims::new(m, n, r.nnz() as u64, f as u64);
                    plan.map_or_else(
                        || planner::plan(&dims, cluster.spec(), cluster.n_gpus()),
                        |plan| plan.clamped(&dims),
                    )
                });
                (plans, 0.0, reduction)
            }
        };
        let shapes = [0, 1].map(|k| su::shape(sides[k], plans[k]));
        let hardware = ClusterConfig::of(&cluster, engine.config.memory_opt, reduction);
        engine.sim = Some(Simulated {
            cluster,
            hardware,
            placement,
            plans,
            shapes,
            upload_s,
            total_s: 0.0,
        });
        engine
    }

    /// Attaches a shared [`TrainMetrics`] sink: every subsequent
    /// half-iteration records its per-row assembly/solve phases and whole
    /// `solve_side` latency there (simulated GPU time is reported by
    /// [`AlsEngine::iterate`] instead).
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

    /// The `(p, q)` of the update-X and the update-Θ half: `(1, 1)` unless
    /// the engine runs on a grid.
    pub fn plans(&self) -> [PartitionPlan; 2] {
        self.sim.as_ref().map_or([WHOLE; 2], |s| s.plans)
    }

    /// The simulated cluster, if the engine is priced on one (for
    /// profiling).
    pub fn cluster(&self) -> Option<&GpuCluster> {
        self.sim.as_ref().map(|s| &s.cluster)
    }

    /// Simulated seconds of the one-time initial upload (resident placement
    /// only; hidden behind the first iteration in the real system).
    pub fn upload_time(&self) -> f64 {
        self.sim.as_ref().map_or(0.0, |s| s.upload_s)
    }

    /// Simulated seconds of every iteration so far (excluding the upload).
    pub fn simulated_time(&self) -> f64 {
        self.sim.as_ref().map_or(0.0, |s| s.total_s)
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

    /// Runs one full ALS iteration — update `X` with `Θ` fixed, then `Θ`
    /// with `X` fixed — and returns the simulated timing of the two halves
    /// (all zero without a cluster).
    pub fn iterate(&mut self) -> [SideTiming; 2] {
        let halves = [self.update_side(true), self.update_side(false)];
        if let Some(sim) = &mut self.sim {
            sim.total_s += halves[0].total() + halves[1].total();
        }
        halves
    }

    /// One half-iteration: `solve_x = true` updates `X` from `R` and `Θ`,
    /// `false` updates `Θ` from `Rᵀ` and `X`.
    pub(crate) fn update_side(&mut self, solve_x: bool) -> SideTiming {
        let (r, fixed) = if solve_x {
            (&self.r, &self.theta)
        } else {
            (&self.r_t, &self.x)
        };
        let plan = self.plans()[usize::from(!solve_x)];
        let cuts: Vec<u32> = split_ranges(r.n_cols(), plan.p)
            .expect("plans are clamped to the matrix")
            .iter()
            .skip(1)
            .map(|&(start, _)| start)
            .collect();
        let f = self.config.f;
        let solved = solve_rows(
            r,
            f,
            |v| fixed.vector(v as usize),
            &cuts,
            self.config.lambda,
            self.metrics.as_deref(),
        );
        let timing = match &mut self.sim {
            None => SideTiming::default(),
            Some(sim) => {
                let streamed = matches!(sim.placement, Placement::Grid { .. });
                let shape = &sim.shapes[usize::from(!solve_x)];
                let (timing, busy) = price_side(&sim.hardware, f, shape, streamed);
                for (gpu, [gh, bs]) in busy.into_iter().enumerate() {
                    if gh > 0.0 {
                        sim.cluster.run_kernel(gpu, gh);
                        sim.cluster.run_kernel(gpu, bs);
                    }
                }
                timing
            }
        };
        if solve_x {
            self.x = solved;
        } else {
            self.theta = solved;
        }
        timing
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

impl crate::engine::Engine for AlsEngine {
    fn name(&self) -> &'static str {
        match self.sim.as_ref().map(|s| s.placement) {
            None => "base-als",
            Some(Placement::Resident) => "mo-als",
            Some(Placement::Grid { .. }) => "su-als",
        }
    }

    fn train_sweep(&mut self) -> f64 {
        let [x, theta] = self.iterate();
        x.total() + theta.total()
    }

    fn x(&self) -> &FactorMatrix {
        &self.x
    }

    fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        AlsEngine::set_factors(self, x, theta);
    }

    fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        AlsEngine::attach_metrics(self, metrics);
    }

    fn metrics(&self) -> Option<&Arc<TrainMetrics>> {
        self.metrics.as_ref()
    }

    fn train_rmse(&self) -> f64 {
        AlsEngine::train_rmse(self)
    }
}

impl crate::engine::IncrementalEngine for AlsEngine {
    fn fold_in_lambda(&self) -> f32 {
        self.config.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;

    fn engine(f: usize, iterations: usize) -> AlsEngine {
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
        AlsEngine::new(config, data.to_csr())
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
        e.update_side(true);
        let j1 = e.objective();
        assert!(j1 <= j0 * (1.0 + 1e-6));
        e.update_side(false);
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
        let bits = |m: &FactorMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.x()), bits(b.x()));
        assert_eq!(bits(a.theta()), bits(b.theta()));
    }
}
