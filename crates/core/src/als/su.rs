//! Algorithm 3, SU-ALS: the scale-up multi-GPU grid.
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
//! row's `p` partials.  This module counts the grid's blocks from `R`
//! (`shape`), once per engine, and [`crate::costmodel::price_side`]
//! prices them each sweep: the streaming of `Θᵀ(i)` and of the `R` blocks,
//! the `get_hermitian` kernels, the cross-GPU reduction and the batch
//! solves.  The analytic model prices the same blocks filled evenly, so on
//! a uniform `R` an engine's sweep costs what `REPRO.txt` says it does.

use crate::als::kernels::split_row;
use crate::costmodel::SideShape;
use crate::planner::PartitionPlan;
use cumf_sparse::{split_ranges, Csr};

/// The blocks of `r` under `plan`, with each block's ratings counted from
/// its batch's row slices (from the row offsets alone when `p = 1`).
pub(crate) fn shape(r: &Csr, plan: PartitionPlan) -> SideShape {
    let batches = split_ranges(r.n_rows(), plan.q).expect("plans are clamped to the matrix");
    let parts = split_ranges(r.n_cols(), plan.p).expect("plans are clamped to the matrix");
    let cuts: Vec<u32> = parts[1..].iter().map(|&(start, _)| start).collect();
    let offsets = r.row_ptr();
    let mut nnz = Vec::with_capacity(plan.blocks());
    for &(rs, re) in &batches {
        if plan.p == 1 {
            nnz.push((offsets[re as usize] - offsets[rs as usize]) as f64);
            continue;
        }
        let mut block = vec![0usize; plan.p];
        for u in rs..re {
            for (n, part) in block.iter_mut().zip(split_row(r.row(u).0, &cuts)) {
                *n += part.len();
            }
        }
        nnz.extend(block.into_iter().map(|n| n as f64));
    }
    let span = |&(start, end): &(u32, u32)| (end - start) as f64;
    SideShape {
        widths: parts.iter().map(span).collect(),
        rows: batches.iter().map(span).collect(),
        nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::{AlsEngine, Placement};
    use crate::config::{AlsConfig, MemoryOptConfig};
    use crate::costmodel::{cumf_iteration_cost, ClusterConfig};
    use crate::planner::ProblemDims;
    use crate::reduce::ReductionScheme;
    use cumf_data::synth::SyntheticConfig;
    use cumf_gpu_sim::GpuCluster;
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
    fn simulated_time_accumulates() {
        let mut su = engine(2, 2, 2, ReductionScheme::OnePhase);
        let [x, theta] = su.iterate();
        assert!(x.total() + theta.total() > 0.0);
        assert!(x.get_hermitian_s > 0.0);
        assert!(x.batch_solve_s > 0.0);
        assert!(x.transfer_s > 0.0 && x.reduce_s > 0.0);
        assert!(su.simulated_time() > 0.0);
        assert_eq!(su.simulated_time(), x.total() + theta.total());
    }

    #[test]
    fn auto_plan_on_small_problem_is_single_partition() {
        // One Θᵀ partition, and one batch per GPU so both GPUs work (§4.4).
        let su = grid(2, None, ReductionScheme::OnePhase);
        assert_eq!(su.plans(), [PartitionPlan { p: 1, q: 2 }; 2]);
    }

    /// A uniform `R` (no Zipf skew) large enough that its batches hold
    /// near-equal rating counts.
    fn uniform_ratings() -> Csr {
        SyntheticConfig {
            m: 2_000,
            n: 800,
            nnz: 40_000,
            rank: 4,
            item_zipf: 0.0,
            user_zipf: 0.0,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    fn planned_sweep(r: &Csr, n_gpus: usize) -> (f64, [PartitionPlan; 2]) {
        let placement = Placement::Grid {
            reduction: ReductionScheme::OnePhase,
            plan: None,
        };
        let cluster = GpuCluster::titan_x_flat(n_gpus);
        let mut engine = AlsEngine::on_cluster(als_config(), r.clone(), cluster, placement);
        (sweep(&mut engine), engine.plans())
    }

    #[test]
    fn engine_sweep_is_the_analytic_price_on_a_uniform_matrix() {
        // The engine prices its own blocks, counted from R; the analytic
        // model prices nz/(p·q) ratings in every block.  The two differ only
        // by how unevenly R's ratings fall into the batches, which on this
        // uniform R moves no sweep by 1 % or more.
        const BLOCK_SKEW: f64 = 0.01;
        let r = uniform_ratings();
        let dims = ProblemDims::new(
            r.n_rows() as u64,
            r.n_cols() as u64,
            r.nnz() as u64,
            als_config().f as u64,
        );
        for n_gpus in [1, 2, 4] {
            let (engine_s, plans) = planned_sweep(&r, n_gpus);
            let analytic = cumf_iteration_cost(&dims, &ClusterConfig::titan_x(n_gpus));
            assert_eq!(plans, analytic.plans, "{n_gpus} GPUs: the same planner");
            let gap = (engine_s / analytic.total_s() - 1.0).abs();
            assert!(
                gap < BLOCK_SKEW,
                "{n_gpus} GPUs: engine {engine_s} s vs analytic {} s",
                analytic.total_s()
            );
        }
    }

    #[test]
    fn auto_planned_four_gpus_beat_one() {
        let r = uniform_ratings();
        let (one, _) = planned_sweep(&r, 1);
        let (four, plans) = planned_sweep(&r, 4);
        assert_eq!(plans, [PartitionPlan { p: 1, q: 4 }; 2]);
        assert!(four < one, "4 GPUs {four} s vs 1 GPU {one} s");
    }
}
