//! Algorithm 2: MO-ALS, the memory-optimized single-GPU engine.
//!
//! The numerics are identical to [`crate::als::base`]; what this engine adds
//! is the *simulated GPU execution*: every `get_hermitian` / `batch_solve`
//! launch is priced by the traffic it would generate on a real card, which
//! depends on the memory-optimization toggles:
//!
//! * **texture** (Algorithm 2 line 3): `Θᵀ` gathers go through the read-only
//!   texture cache instead of scattered global loads;
//! * **shared-memory staging** (lines 5–10): a `f × bin` tile of `Θᵀ_u` is
//!   staged per thread block, trading occupancy for reuse;
//! * **registers** (line 8 and §3.4): the `f × f` accumulator `A_u` lives in
//!   the register file and touches global memory once per row instead of
//!   once per staged tile.
//!
//! Disabling each of these reproduces the ablations of Figures 7 and 8.

use crate::als::kernels::solve_side;
use crate::config::{AlsConfig, MemoryOptConfig};
use crate::instrument::TrainMetrics;
use crate::loss;
use cumf_gpu_sim::occupancy::{mo_als_regs_per_thread, mo_als_shared_bytes};
use cumf_gpu_sim::{DeviceSpec, GpuCluster, KernelTraffic, Occupancy, TimingModel};
use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;
use std::sync::Arc;

/// Approximate on-chip read-only cache available to texture fetches
/// (per-SM texture/L1 plus the shared L2), in bytes.
const TEXTURE_CACHE_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// Traffic of one `get_hermitian` pass solving `rows` rows with `nnz`
/// ratings against a fixed factor matrix of `cols` vectors of rank `f`.
///
/// The byte accounting follows Table 3 of the paper; the split between the
/// memory spaces follows §3.3.
pub fn get_hermitian_traffic(
    rows: f64,
    nnz: f64,
    cols: f64,
    f: f64,
    opts: &MemoryOptConfig,
) -> KernelTraffic {
    let fbytes = 4.0;
    // Arithmetic: f(f+1)/2 multiply-adds per rating for A_u, plus 2f per
    // rating for B_u, plus the final λI addition (negligible).
    let flops = nnz * f * (f + 1.0) + nnz * 2.0 * f;

    // Gathering θ_v for every rating: f floats per rating.  The CSR
    // structure itself (column index + value) streams from global memory.
    let gather_bytes = nnz * f * fbytes;
    let csr_bytes = nnz * 2.0 * fbytes;

    // Texture-cache hit rate: compulsory misses load each of the `cols`
    // vectors once; capacity misses grow as the working set (cols·f floats)
    // exceeds the on-chip cache.
    let working_set = cols * f * fbytes;
    let compulsory_miss = (cols / nnz).min(1.0);
    let capacity_hit = (TEXTURE_CACHE_BYTES / working_set).min(1.0);
    let hit_rate = ((1.0 - compulsory_miss) * (0.55 + 0.40 * capacity_hit)).clamp(0.0, 0.95);

    // Accumulator traffic: with register blocking A_u is written to global
    // memory once per row; without it every staged tile spills the f×f
    // accumulator to global memory and reads it back.
    let bin = opts.bin.max(1) as f64;
    let final_writes = rows * f * f * fbytes;
    let spill_bytes = if opts.use_registers {
        0.0
    } else {
        let tiles = (nnz / bin) + rows * 0.5;
        tiles * f * f * fbytes * 2.0
    };

    // Shared-memory staging: each rating's θ_v is written into shared once.
    // Reads benefit from warp-level broadcast (all f threads consume the
    // same θ_v[j] in one transaction), so the read traffic is ~2f per
    // rating, not f²/2.
    let shared_write = nnz * f * fbytes;
    let shared_read = nnz * 2.0 * f * fbytes;

    // Right-hand side: B_u accumulates in registers/shared and is written
    // once per row.
    let b_writes = rows * f * fbytes;

    let mut t = KernelTraffic {
        flops,
        global_write_bytes: final_writes + b_writes + spill_bytes * 0.5,
        global_read_bytes: csr_bytes + spill_bytes * 0.5,
        shared_read_bytes: shared_read,
        shared_write_bytes: shared_write,
        register_bytes: if opts.use_registers {
            nnz * f * f * fbytes
        } else {
            0.0
        },
        ..KernelTraffic::new()
    };
    if opts.use_texture {
        t.texture_read_bytes = gather_bytes;
        t.texture_hit_rate = hit_rate;
    } else {
        t.global_read_bytes += gather_bytes;
    }
    t
}

/// Traffic of the batched Cholesky solve of `rows` systems of size `f`.
pub fn batch_solve_traffic(rows: f64, f: f64) -> KernelTraffic {
    let fbytes = 4.0;
    KernelTraffic {
        // Table 3 accounts the solve as O(f³); the Cholesky factorization the
        // batched solver actually runs costs f³/3 multiply-adds plus the two
        // triangular solves (≈ f²), which is what the timing model charges.
        flops: rows * (f * f * f / 3.0 + 2.0 * f * f),
        global_read_bytes: rows * (f * f + f) * fbytes,
        global_write_bytes: rows * f * fbytes,
        ..KernelTraffic::new()
    }
}

/// Simulated time of one side update (`get_hermitian` + `batch_solve`) for
/// the given problem dimensions on one device.
pub fn side_update_time(
    spec: &DeviceSpec,
    timing: &TimingModel,
    rows: f64,
    nnz: f64,
    cols: f64,
    f: usize,
    opts: &MemoryOptConfig,
) -> SideTiming {
    let gh_traffic = get_hermitian_traffic(rows, nnz, cols, f as f64, opts);
    let gh_occ = Occupancy::compute(
        spec,
        f as u32,
        mo_als_regs_per_thread(f as u32, opts.use_registers),
        mo_als_shared_bytes(f as u32, opts.bin),
    );
    let gh = timing.kernel_time(spec, &gh_traffic, &gh_occ, !opts.use_texture);

    let bs_traffic = batch_solve_traffic(rows, f as f64);
    let bs_occ = Occupancy::compute(spec, (f as u32).max(32), 56, 0);
    let bs = timing.kernel_time(spec, &bs_traffic, &bs_occ, false);

    SideTiming {
        get_hermitian_s: gh.total_s,
        batch_solve_s: bs.total_s,
        get_hermitian_occupancy: gh_occ.occupancy,
    }
}

/// Timing breakdown of one side update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideTiming {
    /// Simulated seconds spent in `get_hermitian`.
    pub get_hermitian_s: f64,
    /// Simulated seconds spent in `batch_solve`.
    pub batch_solve_s: f64,
    /// Occupancy achieved by the `get_hermitian` launch.
    pub get_hermitian_occupancy: f64,
}

impl SideTiming {
    /// Total simulated seconds of the side update.
    pub fn total(&self) -> f64 {
        self.get_hermitian_s + self.batch_solve_s
    }
}

/// Per-iteration statistics of the MO-ALS engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoIterationStats {
    /// Simulated seconds for the update-X half.
    pub update_x_s: f64,
    /// Simulated seconds for the update-Θ half.
    pub update_theta_s: f64,
}

impl MoIterationStats {
    /// Total simulated seconds of the iteration.
    pub fn total(&self) -> f64 {
        self.update_x_s + self.update_theta_s
    }
}

/// The memory-optimized single-GPU ALS engine (Algorithm 2).
#[derive(Debug, Clone)]
pub struct MoAlsEngine {
    config: AlsConfig,
    cluster: GpuCluster,
    r: Csr,
    r_t: Csr,
    x: FactorMatrix,
    theta: FactorMatrix,
    upload_s: f64,
    total_sim_s: f64,
    metrics: Option<Arc<TrainMetrics>>,
}

impl MoAlsEngine {
    /// Creates the engine on the given (single-GPU) cluster.
    ///
    /// # Panics
    /// Panics if the cluster has more than one GPU (use
    /// [`crate::als::su::SuAlsEngine`] for that) or if `R`, `X` and `Θ` do
    /// not fit in the device's global memory (use SU-ALS and its planner).
    pub fn new(config: AlsConfig, r: Csr, mut cluster: GpuCluster) -> Self {
        config.validate();
        assert_eq!(cluster.n_gpus(), 1, "MO-ALS runs on exactly one GPU");
        let f = config.f;
        let m = r.n_rows() as u64;
        let n = r.n_cols() as u64;

        // Device-resident data: R (CSR words), X, Θᵀ.
        let alloc = cluster.allocator_mut(0);
        alloc
            .alloc_f32("R (CSR)", r.footprint_words() as u64)
            .and_then(|_| alloc.alloc_f32("X", m * f as u64))
            .and_then(|_| alloc.alloc_f32("ThetaT", n * f as u64))
            .unwrap_or_else(|e| panic!("problem does not fit on one GPU: {e}; use SU-ALS"));

        let scale = 1.0 / (f as f32).sqrt();
        let x = FactorMatrix::random(m as usize, f, scale, config.seed);
        let theta = FactorMatrix::random(n as usize, f, scale, config.seed ^ 0xDEAD_BEEF);
        let r_t = r.transpose();

        // One-time host→device upload (hidden behind the first iteration in
        // the real system; tracked separately here).
        let bytes = (r.footprint_words() as u64 + m * f as u64 + n * f as u64) * 4;
        let timing = cluster.timing().clone();
        let upload_s = timing.transfer_time(bytes as f64, cluster.spec().pcie_gbs);
        cluster.run_transfer(0, "initial upload", upload_s, 0.0);

        Self {
            config,
            cluster,
            r,
            r_t,
            x,
            theta,
            upload_s,
            total_sim_s: 0.0,
            metrics: None,
        }
    }

    /// Attaches a shared [`TrainMetrics`] sink: every subsequent iteration
    /// records its host-side per-row assembly/solve phases and whole
    /// `solve_side` latency there (simulated GPU time is tracked separately
    /// by [`MoAlsEngine::iterate`]'s [`MoIterationStats`]).
    pub fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Convenience constructor on a single Titan X.
    pub fn on_titan_x(config: AlsConfig, r: Csr) -> Self {
        Self::new(config, r, GpuCluster::single_titan_x())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AlsConfig {
        &self.config
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
        assert_eq!(x.rank(), self.config.f, "X rank mismatch");
        assert_eq!(theta.rank(), self.config.f, "Θ rank mismatch");
        self.x = x;
        self.theta = theta;
    }

    /// Simulated seconds of the one-time initial upload.
    pub fn upload_time(&self) -> f64 {
        self.upload_s
    }

    /// Total simulated compute time accumulated so far (excluding the
    /// initial upload).
    pub fn simulated_time(&self) -> f64 {
        self.total_sim_s
    }

    /// The underlying simulated cluster (for profiling).
    pub fn cluster(&self) -> &GpuCluster {
        &self.cluster
    }

    /// Runs one full ALS iteration and returns its simulated timing.
    pub fn iterate(&mut self) -> MoIterationStats {
        let spec = self.cluster.spec().clone();
        let timing = self.cluster.timing().clone();
        let opts = self.config.memory_opt;
        let f = self.config.f;

        // --- update X (solve rows of R against Θ) ---
        self.x = solve_side(
            &self.r,
            &self.theta,
            self.config.lambda,
            self.metrics.as_deref(),
        );
        let tx = side_update_time(
            &spec,
            &timing,
            self.r.n_rows() as f64,
            self.r.nnz() as f64,
            self.r.n_cols() as f64,
            f,
            &opts,
        );
        self.cluster
            .run_kernel(0, "get_hermitian_x", tx.get_hermitian_s);
        self.cluster
            .run_kernel(0, "batch_solve_x", tx.batch_solve_s);

        // --- update Θ (solve rows of Rᵀ against X) ---
        self.theta = solve_side(
            &self.r_t,
            &self.x,
            self.config.lambda,
            self.metrics.as_deref(),
        );
        let tt = side_update_time(
            &spec,
            &timing,
            self.r_t.n_rows() as f64,
            self.r_t.nnz() as f64,
            self.r_t.n_cols() as f64,
            f,
            &opts,
        );
        self.cluster
            .run_kernel(0, "get_hermitian_theta", tt.get_hermitian_s);
        self.cluster
            .run_kernel(0, "batch_solve_theta", tt.batch_solve_s);

        let stats = MoIterationStats {
            update_x_s: tx.total(),
            update_theta_s: tt.total(),
        };
        self.total_sim_s += stats.total();
        stats
    }

    /// Training RMSE of the current factors.
    pub fn train_rmse(&self) -> f64 {
        loss::rmse_csr(&self.x, &self.theta, &self.r)
    }
}

impl crate::engine::Engine for MoAlsEngine {
    fn name(&self) -> &'static str {
        "mo-als"
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
        MoAlsEngine::set_factors(self, x, theta);
    }

    fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        MoAlsEngine::attach_metrics(self, metrics);
    }

    fn metrics(&self) -> Option<&Arc<TrainMetrics>> {
        self.metrics.as_ref()
    }

    fn train_rmse(&self) -> f64 {
        MoAlsEngine::train_rmse(self)
    }
}

impl crate::engine::IncrementalEngine for MoAlsEngine {
    fn fold_in_lambda(&self) -> f32 {
        self.config.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;

    fn small_ratings() -> Csr {
        SyntheticConfig {
            m: 150,
            n: 80,
            nnz: 4000,
            rank: 4,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    fn config(opts: MemoryOptConfig) -> AlsConfig {
        AlsConfig {
            f: 16,
            lambda: 0.05,
            iterations: 3,
            memory_opt: opts,
            ..Default::default()
        }
    }

    #[test]
    fn engine_converges_like_the_reference() {
        let r = small_ratings();
        let mut mo = MoAlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut base = crate::als::BaseAls::new(config(MemoryOptConfig::optimized()), r);
        for _ in 0..3 {
            mo.iterate();
            base.iterate();
        }
        // Same seed, same numerics: the factors agree to floating-point noise.
        assert!(mo.x().max_abs_diff(base.x()) < 1e-4);
        assert!(mo.theta().max_abs_diff(base.theta()) < 1e-4);
        assert!(mo.train_rmse() < 0.5);
    }

    #[test]
    fn memory_opt_toggles_do_not_change_numerics() {
        let r = small_ratings();
        let mut opt = MoAlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut naive = MoAlsEngine::on_titan_x(config(MemoryOptConfig::naive()), r);
        opt.iterate();
        naive.iterate();
        assert!(opt.x().max_abs_diff(naive.x()) < 1e-6);
    }

    #[test]
    fn disabling_registers_slows_the_simulated_kernel() {
        // Figure 7's ablation: on the small engine instance the effect is
        // visible, and at full Netflix scale (where launch overheads are
        // negligible) the register-blocked kernel is substantially faster.
        let r = small_ratings();
        let mut with = MoAlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut without = MoAlsEngine::on_titan_x(config(MemoryOptConfig::without_registers()), r);
        let t_with = with.iterate().total();
        let t_without = without.iterate().total();
        assert!(
            t_without > t_with,
            "no-register iteration should be slower: {t_with} vs {t_without}"
        );

        let spec = DeviceSpec::titan_x();
        let timing = TimingModel::default();
        let netflix = |opts: &MemoryOptConfig| {
            side_update_time(&spec, &timing, 480_189.0, 99.0e6, 17_770.0, 100, opts).total()
        };
        let full_with = netflix(&MemoryOptConfig::optimized());
        let full_without = netflix(&MemoryOptConfig::without_registers());
        assert!(
            full_without > full_with * 1.3,
            "at Netflix scale the register ablation should cost >1.3x: {full_with} vs {full_without}"
        );
    }

    #[test]
    fn disabling_texture_slows_the_simulated_kernel() {
        let r = small_ratings();
        let mut with = MoAlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut without = MoAlsEngine::on_titan_x(config(MemoryOptConfig::without_texture()), r);
        let t_with = with.iterate().total();
        let t_without = without.iterate().total();
        assert!(
            t_without > t_with,
            "no-texture iteration should be slower: {t_with} vs {t_without}"
        );
    }

    #[test]
    fn simulated_time_accumulates() {
        let r = small_ratings();
        let mut mo = MoAlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r);
        let t1 = mo.iterate().total();
        let t2 = mo.iterate().total();
        assert!((mo.simulated_time() - (t1 + t2)).abs() < 1e-12);
        assert!(mo.upload_time() > 0.0);
        assert!(
            mo.cluster().profiler().len() >= 9,
            "kernels and upload are profiled"
        );
    }

    #[test]
    #[should_panic(expected = "does not fit on one GPU")]
    fn oversized_problem_is_rejected() {
        // A fake 2-billion-rating matrix cannot be built in memory, so build
        // a small one and shrink the device instead.
        let r = small_ratings();
        let spec = cumf_gpu_sim::DeviceSpec {
            global_mem_bytes: 1024, // 1 KiB "GPU"
            ..cumf_gpu_sim::DeviceSpec::titan_x()
        };
        let cluster = GpuCluster::new(spec, cumf_gpu_sim::PcieTopology::flat(1), 1);
        MoAlsEngine::new(config(MemoryOptConfig::optimized()), r, cluster);
    }

    #[test]
    fn netflix_scale_timing_is_in_seconds_not_hours() {
        // Sanity check of the cost model at full Netflix scale: the paper's
        // cuMF converges in tens of seconds over ~10 iterations, so one side
        // update should be O(1 s).
        let spec = DeviceSpec::titan_x();
        let timing = TimingModel::default();
        let t = side_update_time(
            &spec,
            &timing,
            480_189.0,
            99.0e6,
            17_770.0,
            100,
            &MemoryOptConfig::optimized(),
        );
        assert!(t.total() > 0.05, "unrealistically fast: {}", t.total());
        assert!(t.total() < 20.0, "unrealistically slow: {}", t.total());
    }
}
