//! Algorithm 2, MO-ALS: the memory-optimized kernels' traffic.
//!
//! [`crate::als::AlsEngine`] with [`crate::als::Placement::Resident`] keeps
//! `R`, `X` and `Θᵀ` on one GPU (`place`) and runs the reference
//! numerics; [`crate::costmodel::price_side`] prices each side as one block
//! that nothing streams to.  This module counts the traffic each
//! `get_hermitian` / `batch_solve` launch would generate on a real card,
//! for every placement, which depends on the memory-optimization toggles:
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

use crate::config::MemoryOptConfig;
use cumf_gpu_sim::{GpuCluster, KernelTraffic};
use cumf_sparse::Csr;

/// Approximate on-chip read-only cache available to texture fetches
/// (per-SM texture/L1 plus the shared L2), in bytes.
const TEXTURE_CACHE_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// Traffic of one `get_hermitian` pass solving `rows` rows with `nnz`
/// ratings against a fixed factor matrix of `cols` vectors of rank `f`.
///
/// The byte accounting follows Table 3 of the paper; the split between the
/// memory spaces follows §3.3.
pub(crate) fn get_hermitian_traffic(
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
pub(crate) fn batch_solve_traffic(rows: f64, f: f64) -> KernelTraffic {
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

/// Places `R`, `X` and `Θᵀ` on GPU 0 of `cluster` and returns the simulated
/// seconds of the one-time host→device upload.
///
/// # Panics
/// Panics if the cluster has more than one GPU or the three do not fit in
/// its global memory.
pub(crate) fn place(cluster: &mut GpuCluster, r: &Csr, f: usize) -> f64 {
    assert_eq!(cluster.n_gpus(), 1, "MO-ALS runs on exactly one GPU");
    let (m, n, f) = (r.n_rows() as u64, r.n_cols() as u64, f as u64);
    let alloc = cluster.allocator_mut(0);
    alloc
        .alloc_f32("R (CSR)", r.footprint_words() as u64)
        .and_then(|_| alloc.alloc_f32("X", m * f))
        .and_then(|_| alloc.alloc_f32("ThetaT", n * f))
        .unwrap_or_else(|e| panic!("problem does not fit on one GPU: {e}; use SU-ALS"));
    let bytes = (r.footprint_words() as u64 + m * f + n * f) * 4;
    let upload_s = cluster
        .timing()
        .transfer_time(bytes as f64, cluster.spec().pcie_gbs);
    cluster.run_transfer(0, upload_s, 0.0);
    upload_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::{AlsEngine, Placement};
    use crate::config::AlsConfig;
    use crate::costmodel::{price_side, ClusterConfig, SideShape};
    use crate::planner::PartitionPlan;
    use cumf_data::synth::SyntheticConfig;
    use cumf_linalg::FactorMatrix;

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

    fn bits(m: &FactorMatrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn sweep(engine: &mut AlsEngine) -> f64 {
        let [x, theta] = engine.iterate();
        x.total() + theta.total()
    }

    /// Netflix's update-X at f = 100 as one resident block on a Titan X.
    fn netflix_update_x(opts: MemoryOptConfig) -> f64 {
        let hw = ClusterConfig {
            opts,
            ..ClusterConfig::titan_x(1)
        };
        let shape = SideShape::uniform(480_189.0, 17_770.0, 99.0e6, PartitionPlan::default());
        price_side(&hw, 100, &shape, false).0.total()
    }

    #[test]
    fn engine_converges_like_the_reference() {
        let r = small_ratings();
        let mut mo = AlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut base = AlsEngine::new(config(MemoryOptConfig::optimized()), r);
        for _ in 0..3 {
            mo.iterate();
            base.iterate();
        }
        // Same seed, same row loop: the placement only prices the sweep.
        assert_eq!(bits(mo.x()), bits(base.x()));
        assert_eq!(bits(mo.theta()), bits(base.theta()));
        assert!(mo.train_rmse() < 0.5);
    }

    #[test]
    fn memory_opt_toggles_do_not_change_numerics() {
        let r = small_ratings();
        let mut opt = AlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut naive = AlsEngine::on_titan_x(config(MemoryOptConfig::naive()), r);
        opt.iterate();
        naive.iterate();
        assert_eq!(bits(opt.x()), bits(naive.x()));
        assert_eq!(bits(opt.theta()), bits(naive.theta()));
    }

    #[test]
    fn disabling_registers_slows_the_simulated_kernel() {
        // Figure 7's ablation: on the small engine instance the effect is
        // visible, and at full Netflix scale (where launch overheads are
        // negligible) the register-blocked kernel is substantially faster.
        let r = small_ratings();
        let mut with = AlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut without = AlsEngine::on_titan_x(config(MemoryOptConfig::without_registers()), r);
        let t_with = sweep(&mut with);
        let t_without = sweep(&mut without);
        assert!(
            t_without > t_with,
            "no-register iteration should be slower: {t_with} vs {t_without}"
        );

        let full_with = netflix_update_x(MemoryOptConfig::optimized());
        let full_without = netflix_update_x(MemoryOptConfig::without_registers());
        assert!(
            full_without > full_with * 1.3,
            "at Netflix scale the register ablation should cost >1.3x: {full_with} vs {full_without}"
        );
    }

    #[test]
    fn disabling_texture_slows_the_simulated_kernel() {
        let r = small_ratings();
        let mut with = AlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r.clone());
        let mut without = AlsEngine::on_titan_x(config(MemoryOptConfig::without_texture()), r);
        let t_with = sweep(&mut with);
        let t_without = sweep(&mut without);
        assert!(
            t_without > t_with,
            "no-texture iteration should be slower: {t_with} vs {t_without}"
        );
    }

    #[test]
    fn simulated_time_accumulates() {
        let r = small_ratings();
        let mut mo = AlsEngine::on_titan_x(config(MemoryOptConfig::optimized()), r);
        let t1 = sweep(&mut mo);
        let t2 = sweep(&mut mo);
        assert!((mo.simulated_time() - (t1 + t2)).abs() < 1e-12);
        assert!(mo.upload_time() > 0.0);
        assert!(
            mo.cluster().unwrap().profiler().len() >= 9,
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
        AlsEngine::on_cluster(
            config(MemoryOptConfig::optimized()),
            r,
            cluster,
            Placement::Resident,
        );
    }

    #[test]
    fn netflix_scale_timing_is_in_seconds_not_hours() {
        // Sanity check of the cost model at full Netflix scale: the paper's
        // cuMF converges in tens of seconds over ~10 iterations, so one side
        // update should be O(1 s).
        let t = netflix_update_x(MemoryOptConfig::optimized());
        assert!(t > 0.05, "unrealistically fast: {t}");
        assert!(t < 20.0, "unrealistically slow: {t}");
    }
}
