//! Algorithm 3, SU-ALS: the scale-up multi-GPU pricing.
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
//! [`crate::als::AlsEngine`] with [`crate::als::Placement::Grid`] computes
//! exactly those numerics — [`crate::als::kernels::solve_rows`] sums each
//! row's `p` partials — and this module prices them: the host→device
//! streaming of `Θᵀ(i)` and of the `R` blocks, the per-block
//! `get_hermitian` kernels, the cross-GPU reduction (per the selected
//! [`ReductionScheme`]) and the per-GPU batch solves.

use crate::als::kernels::split_row;
use crate::als::mo::{batch_solve_traffic, get_hermitian_traffic, SideTiming};
use crate::config::MemoryOptConfig;
use crate::planner::{self, PartitionPlan, ProblemDims};
use crate::reduce::{reduction_time, ReductionScheme};
use cumf_gpu_sim::occupancy::{mo_als_regs_per_thread, mo_als_shared_bytes};
use cumf_gpu_sim::{Endpoint, GpuCluster, Occupancy, Transfer};
use cumf_sparse::{split_ranges, Csr};

/// The `(p, q)` of the half that solves the rows of `r`: the configured
/// plan, or else the planner's against the device's memory capacity
/// (`(n_gpus, n_gpus)` when nothing fits), clamped to `r`'s columns and
/// rows.
pub(crate) fn plan(
    configured: Option<PartitionPlan>,
    cluster: &GpuCluster,
    r: &Csr,
    f: usize,
) -> PartitionPlan {
    let n_gpus = cluster.n_gpus();
    let plan = configured.unwrap_or_else(|| {
        let dims = ProblemDims::new(
            r.n_rows() as u64,
            r.n_cols() as u64,
            r.nnz() as u64,
            f as u64,
        );
        planner::plan(&dims, cluster.spec(), n_gpus.max(1) * 8, 1 << 20).unwrap_or(PartitionPlan {
            p: n_gpus,
            q: n_gpus,
        })
    });
    PartitionPlan {
        p: plan.p.max(1).min(r.n_cols().max(1) as usize),
        q: plan.q.max(1).min(r.n_rows().max(1) as usize),
    }
}

/// Prices one data-parallel side update: the rows of `r` in `q` batches,
/// its columns in the `cuts.len() + 1` partitions cut at `cuts` (one per
/// GPU, round-robin when there are more partitions than GPUs).  Kernels are
/// recorded on `cluster` as `su_get_hermitian` and `su_batch_solve`.
pub(crate) fn price_side(
    cluster: &mut GpuCluster,
    r: &Csr,
    f: usize,
    opts: &MemoryOptConfig,
    cuts: &[u32],
    q: usize,
    reduction: ReductionScheme,
) -> SideTiming {
    let p = cuts.len() + 1;
    let n_gpus = cluster.n_gpus();
    let spec = cluster.spec().clone();
    let timing = cluster.timing().clone();
    let topo = cluster.topology().clone();
    let bounds: Vec<u32> = [0]
        .into_iter()
        .chain(cuts.iter().copied())
        .chain([r.n_cols()])
        .collect();
    let widths: Vec<u32> = bounds.windows(2).map(|b| b[1] - b[0]).collect();

    let mut timing_acc = SideTiming::default();

    // Distribute Θᵀ(i) to the GPUs (concurrent host→device transfers;
    // Algorithm 3 lines 5–7: Θᵀ(i) is copied to GPU i once per side update).
    let theta_transfers: Vec<Transfer> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let bytes = (w as usize * f) as f64 * 4.0;
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

    let batches = split_ranges(r.n_rows(), q).expect("plans are clamped to the matrix");
    for (j, &(rs, re)) in batches.iter().enumerate() {
        let batch_rows = (re - rs) as usize;
        // Ratings of each block R^(ij), counted from the batch's row slices.
        let mut block_nnz = vec![0usize; p];
        for u in rs..re {
            for (nnz, part) in block_nnz.iter_mut().zip(split_row(r.row(u).0, cuts)) {
                *nnz += part.len();
            }
        }

        let mut batch_gh_max = 0.0f64;
        let mut batch_transfer: Vec<Transfer> = Vec::with_capacity(p);
        for (i, (&nnz, &width)) in block_nnz.iter().zip(&widths).enumerate() {
            let gpu = if p > 1 { i % n_gpus } else { j % n_gpus };
            // Simulated kernel time for this block on its GPU.
            let traffic =
                get_hermitian_traffic(batch_rows as f64, nnz as f64, width as f64, f as f64, opts);
            let kt = timing.kernel_time(&spec, &traffic, &gh_occ, !opts.use_texture);
            gh_busy[gpu] += kt.total_s;
            batch_gh_max = batch_gh_max.max(kt.total_s);
            cluster.run_kernel(gpu, "su_get_hermitian", kt.total_s);

            // Host→device streaming of R^(ij): its CSR words (Table 3).
            let words = 2 * nnz + batch_rows + 1;
            batch_transfer.push(Transfer::new(
                Endpoint::Host,
                Endpoint::Gpu(gpu),
                words as f64 * 4.0,
            ));
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
            timing_acc.reduce_s += reduction_time(reduction, &topo, bytes_per_gpu);
        }

        // ---- batch solve ----
        if p > 1 {
            // The batch's systems are split across the p GPUs that already
            // hold the reduced partials (Algorithm 3 line 17).
            let rows_per_gpu = (batch_rows as f64 / p as f64).ceil();
            let bs_traffic = batch_solve_traffic(rows_per_gpu, f as f64);
            let bs_t = timing.kernel_time(&spec, &bs_traffic, &bs_occ, false);
            for i in 0..p {
                let gpu = i % n_gpus;
                bs_busy[gpu] += bs_t.total_s;
                cluster.run_kernel(gpu, "su_batch_solve", bs_t.total_s);
            }
        } else {
            let gpu = j % n_gpus;
            let bs_traffic = batch_solve_traffic(batch_rows as f64, f as f64);
            let bs_t = timing.kernel_time(&spec, &bs_traffic, &bs_occ, false);
            bs_busy[gpu] += bs_t.total_s;
            cluster.run_kernel(gpu, "su_batch_solve", bs_t.total_s);
        }
    }

    timing_acc.get_hermitian_s = gh_busy.iter().copied().fold(0.0, f64::max);
    timing_acc.batch_solve_s = bs_busy.iter().copied().fold(0.0, f64::max);
    timing_acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::{AlsEngine, Placement};
    use crate::config::AlsConfig;
    use cumf_data::synth::SyntheticConfig;
    use cumf_linalg::FactorMatrix;

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

    fn grid(n_gpus: usize, plan: Option<PartitionPlan>, reduction: ReductionScheme) -> AlsEngine {
        let cluster = GpuCluster::titan_x_flat(n_gpus);
        let placement = Placement::Grid { reduction, plan };
        AlsEngine::on_cluster(als_config(), ratings(), cluster, placement)
    }

    fn engine(n_gpus: usize, p: usize, q: usize, scheme: ReductionScheme) -> AlsEngine {
        grid(n_gpus, Some(PartitionPlan { p, q }), scheme)
    }

    fn bits(m: &FactorMatrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn sweep(engine: &mut AlsEngine) -> f64 {
        let [x, theta] = engine.iterate();
        x.total() + theta.total()
    }

    #[test]
    fn su_matches_the_reference_engine() {
        let mut su = engine(2, 2, 3, ReductionScheme::OnePhase);
        let mut base = AlsEngine::new(als_config(), ratings());
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
        let mut batched = engine(4, 1, 3, ReductionScheme::OnePhase);
        let mut b = engine(4, 4, 2, ReductionScheme::OnePhase);
        a.iterate();
        batched.iterate();
        b.iterate();
        // One Θᵀ partition: batches and GPUs change only the pricing.
        assert_eq!(bits(a.x()), bits(batched.x()));
        assert_eq!(bits(a.theta()), bits(batched.theta()));
        // p > 1: equation (5) sums each partition's partial Hermitian before
        // the row total, the same sum in another order.
        assert!(a.x().max_abs_diff(b.x()) < 1e-2);
        assert!(a.theta().max_abs_diff(b.theta()) < 1e-2);
    }

    #[test]
    fn reduction_scheme_does_not_change_numerics() {
        let mut one = engine(4, 4, 2, ReductionScheme::OnePhase);
        let mut two = engine(4, 4, 2, ReductionScheme::TwoPhase);
        one.iterate();
        two.iterate();
        assert_eq!(bits(one.x()), bits(two.x()));
        assert_eq!(bits(one.theta()), bits(two.theta()));
    }

    #[test]
    fn more_gpus_is_faster_per_iteration() {
        // Figure 9: close-to-linear speedup from model parallelism.
        let t1 = sweep(&mut engine(1, 1, 4, ReductionScheme::OnePhase));
        let t4 = sweep(&mut engine(4, 4, 1, ReductionScheme::OnePhase));
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
        let [x, theta] = su.iterate();
        assert!(x.total() + theta.total() > 0.0);
        assert!(x.get_hermitian_s > 0.0);
        assert!(x.batch_solve_s > 0.0);
        assert!(x.transfer_s > 0.0 && x.reduce_s > 0.0);
        assert!(su.simulated_time() > 0.0);
        assert!(!su.cluster().unwrap().profiler().is_empty());
    }

    #[test]
    fn auto_plan_on_small_problem_is_single_partition() {
        let su = grid(2, None, ReductionScheme::OnePhase);
        assert_eq!(su.plans(), [PartitionPlan { p: 1, q: 1 }; 2]);
    }
}
