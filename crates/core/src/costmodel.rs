//! The one sweep pricer, and the analytic cost model (Table 3) built on it.
//!
//! [`price_side`] prices every simulated side update in the tree: a side's
//! `p × q` blocks ([`SideShape`]) on one [`ClusterConfig`], resident or
//! streamed from the host.  The engine feeds it the blocks it counts from
//! its ratings (one resident block for MO-ALS); [`cumf_iteration_cost`]
//! feeds it evenly filled blocks at full scale.  Both plan with
//! [`planner::plan`].
//!
//! Convergence experiments run on scaled-down data, but the paper's
//! large-scale results (Figure 11, Table 1) are about *per-iteration time at
//! full scale* — 3.5 to 112 billion ratings that cannot be materialized
//! here.  Because the ALS work per iteration is a closed-form function of
//! `(m, n, Nz, f)` (Table 3 of the paper), so are the blocks, and the
//! full-scale time comes from the same pricer the engines use.

use crate::als::mo::{batch_solve_traffic, get_hermitian_traffic};
use crate::config::MemoryOptConfig;
use crate::planner::{self, PartitionPlan, ProblemDims};
use crate::reduce::{reduction_time, ReductionScheme};
use cumf_gpu_sim::occupancy::{mo_als_regs_per_thread, mo_als_shared_bytes};
use cumf_gpu_sim::{
    DeviceSpec, Endpoint, GpuCluster, KernelTraffic, Occupancy, PcieTopology, TimingModel, Transfer,
};

/// One row of the paper's Table 3 (compute cost and memory footprint of the
/// update-X step), in floating-point operations and 4-byte words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Which scope the row describes ("one item", "m_b items", "all m items").
    pub scope: &'static str,
    /// FLOPs to form the Hermitians `A_u`.
    pub get_hermitian_a_flops: f64,
    /// FLOPs to form the right-hand sides `B_u`.
    pub get_hermitian_b_flops: f64,
    /// Memory footprint of the `A_u` matrices in words.
    pub a_words: f64,
    /// Memory footprint of `Θᵀ`, `B_u` and the CSR slice in words.
    pub b_words: f64,
    /// FLOPs of the batched solve.
    pub batch_solve_flops: f64,
}

/// Computes the three rows of Table 3 for a problem with the given
/// dimensions and batch size `m_b`.
pub fn table3(m: f64, n: f64, nz: f64, f: f64, mb: f64) -> [Table3Row; 3] {
    let one = Table3Row {
        scope: "one item",
        get_hermitian_a_flops: nz * f * (f + 1.0) / (2.0 * m),
        get_hermitian_b_flops: (nz + nz * f) / m + 2.0 * f,
        a_words: f * f,
        b_words: n * f + f + (2.0 * nz + m + 1.0) / m,
        batch_solve_flops: f * f * f,
    };
    let batch = Table3Row {
        scope: "m_b items",
        get_hermitian_a_flops: mb * nz * f * (f + 1.0) / (2.0 * m),
        get_hermitian_b_flops: mb * (nz + nz * f) / m + 2.0 * mb * f,
        a_words: mb * f * f,
        b_words: n * f + mb * f + mb * (2.0 * nz + m + 1.0) / m,
        batch_solve_flops: mb * f * f * f,
    };
    let all = Table3Row {
        scope: "all m items",
        get_hermitian_a_flops: nz * f * (f + 1.0) / 2.0,
        get_hermitian_b_flops: nz + nz * f + 2.0 * m * f,
        a_words: m * f * f,
        b_words: n * f + m * f + 2.0 * nz + m + 1.0,
        batch_solve_flops: m * f * f * f,
    };
    [one, batch, all]
}

/// The hardware a side update is priced on.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Device model (all GPUs identical).
    pub device: DeviceSpec,
    /// Interconnect topology; its GPU count is the cluster's.
    pub topology: PcieTopology,
    /// Roofline constants every kernel is priced with.
    pub timing: TimingModel,
    /// Memory-optimization toggles.
    pub opts: MemoryOptConfig,
    /// Cross-GPU reduction scheme.
    pub reduction: ReductionScheme,
}

impl ClusterConfig {
    /// The paper's §5.5 machine: four GK210 dies on a dual-socket host.
    pub fn four_k80() -> Self {
        Self::of(
            &GpuCluster::k80_dual_socket(),
            MemoryOptConfig::optimized(),
            ReductionScheme::TwoPhase,
        )
    }

    /// `n` Titan X cards on a flat PCIe root (§5.2–5.4).
    pub fn titan_x(n: usize) -> Self {
        Self::of(
            &GpuCluster::titan_x_flat(n),
            MemoryOptConfig::optimized(),
            ReductionScheme::OnePhase,
        )
    }

    /// The device, topology and timing model of `cluster`, with the given
    /// memory options and reduction.
    pub fn of(cluster: &GpuCluster, opts: MemoryOptConfig, reduction: ReductionScheme) -> Self {
        Self {
            device: cluster.spec().clone(),
            topology: cluster.topology().clone(),
            timing: cluster.timing().clone(),
            opts,
            reduction,
        }
    }
}

/// Simulated timing of one side update (a half-iteration); the phases a
/// placement does not have stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SideTiming {
    /// Host→device streaming of `Θᵀ` and `R` blocks that could not be
    /// hidden behind compute (streamed sides only).
    pub transfer_s: f64,
    /// `get_hermitian` kernels: the busiest GPU's sum.
    pub get_hermitian_s: f64,
    /// Cross-GPU reductions of the partial Hermitians (`p > 1` only).
    pub reduce_s: f64,
    /// Batch solves: the busiest GPU's sum.
    pub batch_solve_s: f64,
}

impl SideTiming {
    /// Total simulated seconds of the side update.
    pub fn total(&self) -> f64 {
        self.transfer_s + self.get_hermitian_s + self.reduce_s + self.batch_solve_s
    }
}

/// The `p × q` blocks one side update solves: the rows of `R` in `q`
/// batches, its columns (the vectors of `Θᵀ`) in `p` partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct SideShape {
    /// Columns of each partition.
    pub widths: Vec<f64>,
    /// Rows of each batch.
    pub rows: Vec<f64>,
    /// Ratings of block `(j, i)` (batch `j`, partition `i`) at `j·p + i`.
    pub nnz: Vec<f64>,
}

impl SideShape {
    /// A `rows × cols` matrix with `nz` ratings spread evenly over `plan`'s
    /// blocks.
    pub fn uniform(rows: f64, cols: f64, nz: f64, plan: PartitionPlan) -> Self {
        let (p, q) = (plan.p as f64, plan.q as f64);
        Self {
            widths: vec![cols / p; plan.p],
            rows: vec![rows / q; plan.q],
            nnz: vec![nz / (p * q); plan.blocks()],
        }
    }
}

/// Prices one side update of rank `f` over `shape`'s blocks on `hw`.
///
/// Block `(j, i)` runs on GPU `((j mod l)·p + i) mod n`, with `l =
/// max(1, n / p)` lanes: a batch's `p` blocks spread over GPUs (data
/// parallelism), and `l` consecutive batches — one wave — run side by side
/// (model parallelism, §4.4).  Each block's GPU solves `1/p` of the batch's
/// systems after the `p` partial Hermitians are reduced (Algorithm 3 line
/// 17).  A `streamed` side copies each GPU's `Θᵀ` partitions and every
/// `R` block from the host over the topology, one wave's copies at once:
/// the first wave is exposed, later waves cost what exceeds their compute.
/// A resident side (`R` and `Θᵀ` already on the GPU) copies nothing.
pub fn price_side(hw: &ClusterConfig, f: usize, shape: &SideShape, streamed: bool) -> SideTiming {
    let (p, q, n_gpus) = (shape.widths.len(), shape.rows.len(), hw.topology.n_gpus());
    let lanes = (n_gpus / p).max(1);
    let (fu, ff) = (f as u32, f as f64);
    let gh_occ = Occupancy::compute(
        &hw.device,
        fu,
        mo_als_regs_per_thread(fu, hw.opts.use_registers),
        mo_als_shared_bytes(fu, hw.opts.bin),
    );
    let bs_occ = Occupancy::compute(&hw.device, fu.max(32), 56, 0);
    let kernel = |traffic: &KernelTraffic, occ: &Occupancy, scattered: bool| {
        hw.timing
            .kernel_time(&hw.device, traffic, occ, scattered)
            .total_s
    };

    let mut side = SideTiming::default();
    let mut busy = vec![[0.0f64; 2]; n_gpus];
    for wave in (0..q).step_by(lanes) {
        let mut wave_gh = vec![0.0f64; n_gpus];
        let mut copies = Vec::new();
        for j in wave..(wave + lanes).min(q) {
            let rows = shape.rows[j];
            for (i, &width) in shape.widths.iter().enumerate() {
                let gpu = ((j % lanes) * p + i) % n_gpus;
                let nnz = shape.nnz[j * p + i];
                let traffic = get_hermitian_traffic(rows, nnz, width, ff, &hw.opts);
                let gh = kernel(&traffic, &gh_occ, !hw.opts.use_texture);
                let bs = kernel(&batch_solve_traffic(rows / p as f64, ff), &bs_occ, false);
                busy[gpu][0] += gh;
                busy[gpu][1] += bs;
                wave_gh[gpu] += gh;
                if streamed {
                    if wave == 0 {
                        copies.push(Transfer::new(
                            Endpoint::Host,
                            Endpoint::Gpu(gpu),
                            width * ff * 4.0,
                        ));
                    }
                    // R^(ij) as CSR words (Table 3).
                    let words = 2.0 * nnz + rows + 1.0;
                    copies.push(Transfer::new(
                        Endpoint::Host,
                        Endpoint::Gpu(gpu),
                        words * 4.0,
                    ));
                }
            }
            if p > 1 {
                let partials = rows * (ff * ff + ff) * 4.0;
                side.reduce_s += reduction_time(hw.reduction, &hw.topology, partials);
            }
        }
        let copy_s = hw.topology.concurrent_transfer_time(&copies);
        side.transfer_s += if wave == 0 {
            copy_s
        } else {
            (copy_s - wave_gh.into_iter().fold(0.0, f64::max)).max(0.0)
        };
    }
    side.get_hermitian_s = busy.iter().map(|b| b[0]).fold(0.0, f64::max);
    side.batch_solve_s = busy.iter().map(|b| b[1]).fold(0.0, f64::max);
    side
}

/// Simulated cost of one full ALS iteration at full scale.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationCost {
    /// The update-X and the update-Θ half.
    pub sides: [SideTiming; 2],
    /// The `(p, q)` each half was priced with.
    pub plans: [PartitionPlan; 2],
}

impl IterationCost {
    /// Total simulated seconds per iteration.
    pub fn total_s(&self) -> f64 {
        self.sides.iter().map(SideTiming::total).sum()
    }
}

/// Prices one full ALS iteration (update X + update Θ) at full scale:
/// each half is planned by [`planner::plan`] and streamed through
/// [`price_side`] as evenly filled blocks of `dims`' paper-scale
/// `(m, n, Nz, f)`.
pub fn cumf_iteration_cost(dims: &ProblemDims, cluster: &ClusterConfig) -> IterationCost {
    let mut cost = IterationCost::default();
    for (k, (rows, cols)) in [(dims.m, dims.n), (dims.n, dims.m)].into_iter().enumerate() {
        let side_dims = ProblemDims::new(rows, cols, dims.nz, dims.f);
        let plan = planner::plan(&side_dims, &cluster.device, cluster.topology.n_gpus());
        let shape = SideShape::uniform(rows as f64, cols as f64, dims.nz as f64, plan);
        cost.sides[k] = price_side(cluster, dims.f as usize, &shape, true);
        cost.plans[k] = plan;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::datasets::PaperDataset;

    fn dims(d: PaperDataset, f: u64) -> ProblemDims {
        let s = d.spec();
        ProblemDims::new(s.m, s.n, s.nz, f)
    }

    #[test]
    fn table3_totals_are_consistent() {
        let m = 1000.0;
        let n = 500.0;
        let nz = 20_000.0;
        let f = 10.0;
        let rows = table3(m, n, nz, f, 100.0);
        // "all m items" equals m × "one item" for the per-item quantities.
        assert!((rows[2].get_hermitian_a_flops - rows[0].get_hermitian_a_flops * m).abs() < 1.0);
        assert!((rows[2].batch_solve_flops - rows[0].batch_solve_flops * m).abs() < 1.0);
        assert!((rows[2].a_words - rows[0].a_words * m).abs() < 1.0);
        // The batch row interpolates between them.
        assert!(rows[1].a_words > rows[0].a_words && rows[1].a_words < rows[2].a_words);
    }

    #[test]
    fn netflix_hermitian_flops_dominate_batch_solve() {
        // §2.2: Nz·f² > m·f³ whenever Nz/m > f; Netflix has Nz/m ≈ 206 > 100.
        let s = PaperDataset::Netflix.spec();
        let rows = table3(s.m as f64, s.n as f64, s.nz as f64, 100.0, 1.0);
        assert!(rows[2].get_hermitian_a_flops > rows[2].batch_solve_flops);
    }

    #[test]
    fn sparkals_iteration_is_tens_of_seconds_on_four_gpus() {
        // Figure 11: cuMF does one SparkALS-data iteration in ~24 s (vs 240 s
        // for 50-node Spark).  The model should land in the same decade.
        let cost = cumf_iteration_cost(
            &dims(PaperDataset::SparkAls, 10),
            &ClusterConfig::four_k80(),
        );
        let t = cost.total_s();
        assert!(t > 3.0 && t < 300.0, "SparkALS iteration estimate {t} s");
    }

    #[test]
    fn facebook_f16_is_minutes_and_f100_much_slower() {
        let c16 = cumf_iteration_cost(
            &dims(PaperDataset::Facebook, 16),
            &ClusterConfig::four_k80(),
        );
        let c100 = cumf_iteration_cost(
            &dims(PaperDataset::CumfLargest, 100),
            &ClusterConfig::four_k80(),
        );
        assert!(
            c16.total_s() > 60.0,
            "Facebook f=16 too fast: {}",
            c16.total_s()
        );
        assert!(
            c16.total_s() < 3600.0,
            "Facebook f=16 too slow: {}",
            c16.total_s()
        );
        assert!(
            c100.total_s() > 4.0 * c16.total_s(),
            "f=100 should be much slower than f=16: {} vs {}",
            c100.total_s(),
            c16.total_s()
        );
    }

    #[test]
    fn more_gpus_reduce_iteration_time_on_hugewiki() {
        let d = dims(PaperDataset::Hugewiki, 100);
        let t1 = cumf_iteration_cost(&d, &ClusterConfig::titan_x(1)).total_s();
        let t4 = cumf_iteration_cost(&d, &ClusterConfig::titan_x(4)).total_s();
        assert!(t4 < t1, "4 GPUs should beat 1: {t1} vs {t4}");
    }

    #[test]
    fn netflix_plan_needs_batches() {
        let cost = cumf_iteration_cost(
            &dims(PaperDataset::Netflix, 100),
            &ClusterConfig::titan_x(1),
        );
        assert!(cost.plans[0].q > 1);
        assert!(
            cost.total_s() > 0.5 && cost.total_s() < 60.0,
            "Netflix iteration {}",
            cost.total_s()
        );
    }
}
