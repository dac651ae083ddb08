//! Algorithm 3: SU-ALS, the scale-up multi-GPU engine.
//!
//! SU-ALS layers **data parallelism** on top of ALS's inherent **model
//! parallelism**:
//!
//! * `Θᵀ` is split vertically into `p` partitions, one per GPU;
//! * `X` is split horizontally into `q` batches solved in sequence;
//! * `R` is grid-partitioned into `p × q` blocks so GPU `i` only ever sees
//!   the ratings whose columns live in its `Θᵀ(i)`;
//! * each GPU computes *partial* Hermitians from its local columns
//!   (equation (5)) and the partials are summed with a parallel reduction
//!   before the batch solve.
//!
//! The numerics below are exact (partials are really computed per block and
//! really summed); the simulated time additionally accounts for the
//! host→device streaming of `R` blocks, the cross-GPU reduction (per the
//! selected [`ReductionScheme`]) and the per-GPU batch solves.

use crate::als::kernels::{accumulate_partials, finalize_and_solve, partial_hermitians};
use crate::als::mo::{batch_solve_traffic, get_hermitian_traffic};
use crate::config::AlsConfig;
use crate::instrument::TrainMetrics;
use crate::loss;
use crate::planner::{self, PartitionPlan, ProblemDims};
use crate::reduce::{reduction_time, ReductionScheme};
use cumf_gpu_sim::occupancy::{mo_als_regs_per_thread, mo_als_shared_bytes};
use cumf_gpu_sim::{Endpoint, GpuCluster, Occupancy, Transfer};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{grid_partition, Csr};
use std::sync::Arc;

/// Configuration of the SU-ALS engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SuAlsConfig {
    /// The ALS hyper-parameters shared with every other engine.
    pub als: AlsConfig,
    /// Cross-GPU reduction scheme (§4.2).
    pub reduction: ReductionScheme,
    /// Partitioning override.  `None` asks the planner (equation (8)) to
    /// choose; experiments that want to exercise data parallelism on small
    /// (scaled-down) inputs set this explicitly.
    pub plan: Option<PartitionPlan>,
}

impl SuAlsConfig {
    /// A configuration with the planner left in charge.
    pub fn auto(als: AlsConfig, reduction: ReductionScheme) -> Self {
        Self {
            als,
            reduction,
            plan: None,
        }
    }

    /// A configuration with an explicit `(p, q)` partitioning.
    pub fn with_plan(als: AlsConfig, reduction: ReductionScheme, p: usize, q: usize) -> Self {
        Self {
            als,
            reduction,
            plan: Some(PartitionPlan { p, q }),
        }
    }
}

/// Simulated timing breakdown of one SU-ALS side update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SuSideTiming {
    /// Host→device streaming of `R` blocks that could not be hidden.
    pub transfer_s: f64,
    /// `get_hermitian` kernels (max over the GPUs of each wave, summed over
    /// batches).
    pub get_hermitian_s: f64,
    /// Cross-GPU reductions.
    pub reduce_s: f64,
    /// Batch solves.
    pub batch_solve_s: f64,
}

impl SuSideTiming {
    /// Total simulated seconds.
    pub fn total(&self) -> f64 {
        self.transfer_s + self.get_hermitian_s + self.reduce_s + self.batch_solve_s
    }
}

/// Per-iteration statistics of SU-ALS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuIterationStats {
    /// Timing of the update-X half.
    pub update_x: SuSideTiming,
    /// Timing of the update-Θ half.
    pub update_theta: SuSideTiming,
}

impl SuIterationStats {
    /// Total simulated seconds of the iteration.
    pub fn total(&self) -> f64 {
        self.update_x.total() + self.update_theta.total()
    }
}

/// The scale-up multi-GPU ALS engine (Algorithm 3).
#[derive(Debug, Clone)]
pub struct SuAlsEngine {
    config: SuAlsConfig,
    cluster: GpuCluster,
    r: Csr,
    r_t: Csr,
    x: FactorMatrix,
    theta: FactorMatrix,
    plan_x: PartitionPlan,
    plan_theta: PartitionPlan,
    total_sim_s: f64,
    metrics: Option<Arc<TrainMetrics>>,
}

impl SuAlsEngine {
    /// Creates the engine.  The partitioning is taken from the configuration
    /// or computed by the planner against the device's memory capacity.
    pub fn new(config: SuAlsConfig, r: Csr, cluster: GpuCluster) -> Self {
        config.als.validate();
        let f = config.als.f;
        let n_gpus = cluster.n_gpus();

        let plan_for = |rows: u64, cols: u64| -> PartitionPlan {
            if let Some(p) = config.plan {
                return p;
            }
            let dims = ProblemDims::new(rows, cols, r.nnz() as u64, f as u64);
            planner::plan(&dims, cluster.spec(), n_gpus.max(1) * 8, 1 << 20).unwrap_or(
                PartitionPlan {
                    p: n_gpus,
                    q: n_gpus,
                },
            )
        };
        let plan_x = plan_for(r.n_rows() as u64, r.n_cols() as u64);
        let plan_theta = plan_for(r.n_cols() as u64, r.n_rows() as u64);

        let scale = 1.0 / (f as f32).sqrt();
        let x = FactorMatrix::random(r.n_rows() as usize, f, scale, config.als.seed);
        let theta =
            FactorMatrix::random(r.n_cols() as usize, f, scale, config.als.seed ^ 0xDEAD_BEEF);
        let r_t = r.transpose();
        Self {
            config,
            cluster,
            r,
            r_t,
            x,
            theta,
            plan_x,
            plan_theta,
            total_sim_s: 0.0,
            metrics: None,
        }
    }

    /// Attaches a shared [`TrainMetrics`] sink.  SU-ALS training solves are
    /// priced by the GPU simulator rather than host-timed, so training
    /// iterations do not record into the sink — only fold-ins driven through
    /// the [`crate::engine::IncrementalEngine`] trait do.
    pub fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SuAlsConfig {
        &self.config
    }

    /// The partition plan used when updating `X`.
    pub fn plan_x(&self) -> PartitionPlan {
        self.plan_x
    }

    /// The partition plan used when updating `Θ`.
    pub fn plan_theta(&self) -> PartitionPlan {
        self.plan_theta
    }

    /// Current user factors.
    pub fn x(&self) -> &FactorMatrix {
        &self.x
    }

    /// Current item factors.
    pub fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    /// Replaces the current factors (used to resume from a checkpoint).
    pub fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        assert_eq!(x.len(), self.r.n_rows() as usize, "X row count mismatch");
        assert_eq!(
            theta.len(),
            self.r.n_cols() as usize,
            "Θ row count mismatch"
        );
        assert_eq!(x.rank(), self.config.als.f, "X rank mismatch");
        assert_eq!(theta.rank(), self.config.als.f, "Θ rank mismatch");
        self.x = x;
        self.theta = theta;
    }

    /// Accumulated simulated seconds.
    pub fn simulated_time(&self) -> f64 {
        self.total_sim_s
    }

    /// The simulated cluster (for profiling).
    pub fn cluster(&self) -> &GpuCluster {
        &self.cluster
    }

    /// Runs one full ALS iteration (update X, then update Θ) and returns the
    /// simulated timing breakdown.
    pub fn iterate(&mut self) -> SuIterationStats {
        let (new_x, tx) = self.update_side(true);
        self.x = new_x;
        let (new_theta, tt) = self.update_side(false);
        self.theta = new_theta;
        let stats = SuIterationStats {
            update_x: tx,
            update_theta: tt,
        };
        self.total_sim_s += stats.total();
        stats
    }

    /// Training RMSE of the current factors.
    pub fn train_rmse(&self) -> f64 {
        loss::rmse_csr(&self.x, &self.theta, &self.r)
    }

    /// One data-parallel side update.  `solve_x = true` updates `X` from `R`
    /// and `Θ`; `false` updates `Θ` from `Rᵀ` and `X`.
    fn update_side(&mut self, solve_x: bool) -> (FactorMatrix, SuSideTiming) {
        let (r, fixed, plan) = if solve_x {
            (&self.r, &self.theta, self.plan_x)
        } else {
            (&self.r_t, &self.x, self.plan_theta)
        };
        let f = self.config.als.f;
        let lambda = self.config.als.lambda;
        let n_gpus = self.cluster.n_gpus();
        let spec = self.cluster.spec().clone();
        let timing = self.cluster.timing().clone();
        let topo = self.cluster.topology().clone();
        let opts = self.config.als.memory_opt;

        let p = plan.p.max(1).min(r.n_cols().max(1) as usize);
        let q = plan.q.max(1).min(r.n_rows().max(1) as usize);
        let grid = grid_partition(r, p, q).expect("plan produced an invalid partition");

        // Per-partition slices of the fixed factor matrix (Algorithm 3
        // lines 5–7: Θᵀ(i) is copied to GPU i once per side update).
        let fixed_parts: Vec<FactorMatrix> = (0..p)
            .map(|i| {
                let (cs, ce) = grid.col_range(i);
                let mut part = FactorMatrix::zeros((ce - cs) as usize, f);
                for c in cs..ce {
                    part.vector_mut((c - cs) as usize)
                        .copy_from_slice(fixed.vector(c as usize));
                }
                part
            })
            .collect();

        let mut timing_acc = SuSideTiming::default();

        // Distribute Θᵀ(i) to the GPUs (concurrent host→device transfers).
        let theta_transfers: Vec<Transfer> = (0..p)
            .map(|i| {
                let bytes = fixed_parts[i].footprint_words() as f64 * 4.0;
                Transfer::new(Endpoint::Host, Endpoint::Gpu(i % n_gpus), bytes)
            })
            .collect();
        timing_acc.transfer_s += topo.concurrent_transfer_time(&theta_transfers);

        // Occupancy of the get_hermitian launches (same configuration as
        // MO-ALS).
        let gh_occ = Occupancy::compute(
            &spec,
            f as u32,
            mo_als_regs_per_thread(f as u32, opts.use_registers),
            mo_als_shared_bytes(f as u32, opts.bin),
        );
        let bs_occ = Occupancy::compute(&spec, (f as u32).max(32), 56, 0);

        // Simulated busy time per GPU for the kernel phases.  Blocks of the
        // same batch spread across GPUs (data parallelism, `p > 1`); with a
        // single `Θᵀ` partition, different batches spread across GPUs
        // instead (pure model parallelism — the Netflix/YahooMusic setting
        // of §5.4, and the elasticity rule of §4.4 when `p` exceeds the
        // number of physical GPUs).
        let mut gh_busy = vec![0.0f64; n_gpus];
        let mut bs_busy = vec![0.0f64; n_gpus];
        let mut out = FactorMatrix::zeros(r.n_rows() as usize, f);

        for j in 0..q {
            let (rs, re) = grid.row_range(j);
            let batch_rows = (re - rs) as usize;

            // ---- numerics: partial Hermitians per column partition, then reduce ----
            let mut acc_a = vec![0.0f32; batch_rows * f * f];
            let mut acc_b = vec![0.0f32; batch_rows * f];
            let mut batch_gh_max = 0.0f64;
            let mut batch_transfer: Vec<Transfer> = Vec::with_capacity(p);
            for (i, fixed_part) in fixed_parts.iter().enumerate() {
                let gpu = if p > 1 { i % n_gpus } else { j % n_gpus };
                let block = grid.block(i, j);
                let (pa, pb) = partial_hermitians(&block.csr, fixed_part, f);
                accumulate_partials(&mut acc_a, &mut acc_b, &pa, &pb);

                // Simulated kernel time for this block on its GPU.
                let traffic = get_hermitian_traffic(
                    batch_rows as f64,
                    block.nnz() as f64,
                    block.n_cols() as f64,
                    f as f64,
                    &opts,
                );
                let kt = timing.kernel_time(&spec, &traffic, &gh_occ, !opts.use_texture);
                gh_busy[gpu] += kt.total_s;
                batch_gh_max = batch_gh_max.max(kt.total_s);
                self.cluster.run_kernel(gpu, "su_get_hermitian", kt.total_s);

                // Host→device streaming of R^(ij).
                let bytes = block.csr.footprint_words() as f64 * 4.0;
                batch_transfer.push(Transfer::new(Endpoint::Host, Endpoint::Gpu(gpu), bytes));
            }

            // R-block streaming: the first batch is exposed, later batches are
            // prefetched and only cost whatever exceeds the compute time.
            let transfer_s = topo.concurrent_transfer_time(&batch_transfer);
            if j == 0 {
                timing_acc.transfer_s += transfer_s;
            } else {
                timing_acc.transfer_s += (transfer_s - batch_gh_max).max(0.0);
            }

            // ---- reduction across GPUs (only needed with data parallelism) ----
            let bytes_per_gpu = (batch_rows * (f * f + f) * 4) as f64;
            if p > 1 {
                timing_acc.reduce_s += reduction_time(self.config.reduction, &topo, bytes_per_gpu);
            }

            // ---- batch solve ----
            let degrees: Vec<usize> = (rs..re).map(|u| r.nnz_row(u)).collect();
            let solved = finalize_and_solve(&mut acc_a, &mut acc_b, &degrees, lambda, f);
            for (local, u) in (rs..re).enumerate() {
                out.vector_mut(u as usize)
                    .copy_from_slice(solved.vector(local));
            }
            if p > 1 {
                // The batch's systems are split across the p GPUs that already
                // hold the reduced partials (Algorithm 3 line 17).
                let rows_per_gpu = (batch_rows as f64 / p as f64).ceil();
                let bs_traffic = batch_solve_traffic(rows_per_gpu, f as f64);
                let bs_t = timing.kernel_time(&spec, &bs_traffic, &bs_occ, false);
                for i in 0..p {
                    let gpu = i % n_gpus;
                    bs_busy[gpu] += bs_t.total_s;
                    self.cluster.run_kernel(gpu, "su_batch_solve", bs_t.total_s);
                }
            } else {
                let gpu = j % n_gpus;
                let bs_traffic = batch_solve_traffic(batch_rows as f64, f as f64);
                let bs_t = timing.kernel_time(&spec, &bs_traffic, &bs_occ, false);
                bs_busy[gpu] += bs_t.total_s;
                self.cluster.run_kernel(gpu, "su_batch_solve", bs_t.total_s);
            }
        }

        timing_acc.get_hermitian_s = gh_busy.iter().copied().fold(0.0, f64::max);
        timing_acc.batch_solve_s = bs_busy.iter().copied().fold(0.0, f64::max);
        (out, timing_acc)
    }
}

impl crate::engine::Engine for SuAlsEngine {
    fn name(&self) -> &'static str {
        "su-als"
    }

    fn train_sweep(&mut self) -> f64 {
        self.iterate().total()
    }

    fn x(&self) -> &FactorMatrix {
        &self.x
    }

    fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        SuAlsEngine::set_factors(self, x, theta);
    }

    fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        SuAlsEngine::attach_metrics(self, metrics);
    }

    fn metrics(&self) -> Option<&Arc<TrainMetrics>> {
        self.metrics.as_ref()
    }

    fn train_rmse(&self) -> f64 {
        SuAlsEngine::train_rmse(self)
    }
}

impl crate::engine::IncrementalEngine for SuAlsEngine {
    fn fold_in_lambda(&self) -> f32 {
        self.config.als.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::BaseAls;
    use crate::config::MemoryOptConfig;
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 160,
            n: 90,
            nnz: 4500,
            rank: 4,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    fn als_config() -> AlsConfig {
        AlsConfig {
            f: 12,
            lambda: 0.05,
            iterations: 3,
            memory_opt: MemoryOptConfig::optimized(),
            ..Default::default()
        }
    }

    fn engine(n_gpus: usize, p: usize, q: usize, scheme: ReductionScheme) -> SuAlsEngine {
        let cluster = GpuCluster::titan_x_flat(n_gpus);
        let cfg = SuAlsConfig::with_plan(als_config(), scheme, p, q);
        SuAlsEngine::new(cfg, ratings(), cluster)
    }

    #[test]
    fn su_matches_the_reference_engine() {
        let mut su = engine(2, 2, 3, ReductionScheme::OnePhase);
        let mut base = BaseAls::new(als_config(), ratings());
        for _ in 0..2 {
            su.iterate();
            base.iterate();
        }
        assert!(
            su.x().max_abs_diff(base.x()) < 1e-2,
            "SU-ALS factors should match the reference (diff {})",
            su.x().max_abs_diff(base.x())
        );
        assert!(su.theta().max_abs_diff(base.theta()) < 1e-2);
    }

    #[test]
    fn partitioning_does_not_change_numerics() {
        let mut a = engine(2, 1, 1, ReductionScheme::OnePhase);
        let mut b = engine(4, 4, 2, ReductionScheme::OnePhase);
        a.iterate();
        b.iterate();
        assert!(a.x().max_abs_diff(b.x()) < 1e-2);
        assert!(a.theta().max_abs_diff(b.theta()) < 1e-2);
    }

    #[test]
    fn reduction_scheme_does_not_change_numerics() {
        let mut one = engine(4, 4, 2, ReductionScheme::OnePhase);
        let mut two = engine(4, 4, 2, ReductionScheme::TwoPhase);
        one.iterate();
        two.iterate();
        assert_eq!(one.x().max_abs_diff(two.x()), 0.0);
    }

    #[test]
    fn more_gpus_is_faster_per_iteration() {
        // Figure 9: close-to-linear speedup from model parallelism.
        let t1 = engine(1, 1, 4, ReductionScheme::OnePhase).iterate().total();
        let mut e4 = engine(4, 4, 1, ReductionScheme::OnePhase);
        let t4 = e4.iterate().total();
        assert!(
            t4 < t1,
            "4 GPUs should beat 1 GPU per iteration: {t1} vs {t4}"
        );
    }

    #[test]
    fn converges_on_training_data() {
        let mut su = engine(2, 2, 2, ReductionScheme::TwoPhase);
        let before = su.train_rmse();
        for _ in 0..3 {
            su.iterate();
        }
        assert!(su.train_rmse() < before * 0.6);
    }

    #[test]
    fn simulated_time_accumulates_and_profiler_fills() {
        let mut su = engine(2, 2, 2, ReductionScheme::OnePhase);
        let s1 = su.iterate();
        assert!(s1.total() > 0.0);
        assert!(s1.update_x.get_hermitian_s > 0.0);
        assert!(s1.update_x.batch_solve_s > 0.0);
        assert!(su.simulated_time() > 0.0);
        assert!(!su.cluster().profiler().is_empty());
    }

    #[test]
    fn auto_plan_on_small_problem_is_single_partition() {
        let cluster = GpuCluster::titan_x_flat(2);
        let cfg = SuAlsConfig::auto(als_config(), ReductionScheme::OnePhase);
        let su = SuAlsEngine::new(cfg, ratings(), cluster);
        assert_eq!(su.plan_x(), PartitionPlan { p: 1, q: 1 });
    }
}
