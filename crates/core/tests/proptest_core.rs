//! Property-based tests of the core ALS invariants:
//!
//! * the ALS objective never increases, whatever the data looks like;
//! * SU-ALS is numerically equivalent to the reference engine for any
//!   partitioning, and bit-identical to it with one `Θᵀ` partition;
//! * the planner's feasibility predicate is monotone and its plans satisfy
//!   equation (8);
//! * the reduction schemes never lose bytes and two-phase never beats the
//!   physical lower bound.

use cumf_core::als::{AlsEngine, Placement};
use cumf_core::config::AlsConfig;
use cumf_core::planner::{
    feasible, footprint_words, plan_with_capacity, PartitionPlan, ProblemDims,
};
use cumf_core::reduce::{reduction_time, ReductionScheme};
use cumf_data::synth::SyntheticConfig;
use cumf_gpu_sim::{GpuCluster, PcieTopology};
use proptest::prelude::*;

fn synthetic(m: u32, n: u32, nnz: usize, seed: u64) -> cumf_sparse::Csr {
    SyntheticConfig {
        m,
        n,
        nnz,
        rank: 4,
        noise_std: 0.2,
        seed,
        ..Default::default()
    }
    .generate()
    .to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn als_objective_never_increases(
        m in 40u32..120,
        n in 20u32..80,
        density in 0.05f64..0.3,
        f in 4usize..12,
        lambda in 0.01f32..1.0,
        seed in 0u64..1000,
    ) {
        let nnz = ((m as f64 * n as f64) * density) as usize;
        let r = synthetic(m, n, nnz.max(10), seed);
        let config = AlsConfig { f, lambda, iterations: 3, ..Default::default() };
        let mut engine = AlsEngine::new(config, r);
        let mut prev = engine.objective();
        for _ in 0..3 {
            engine.iterate();
            let j = engine.objective();
            prop_assert!(j <= prev * (1.0 + 1e-5), "objective rose: {prev} -> {j}");
            prop_assert!(j.is_finite());
            prev = j;
        }
    }

    #[test]
    fn su_als_matches_reference_for_any_partitioning(
        p in 1usize..5,
        q in 1usize..5,
        n_gpus in 1usize..4,
        seed in 0u64..500,
    ) {
        let r = synthetic(90, 60, 1800, seed);
        let config = AlsConfig { f: 8, lambda: 0.05, iterations: 1, ..Default::default() };
        let mut reference = AlsEngine::new(config.clone(), r.clone());
        let cluster = GpuCluster::titan_x_flat(n_gpus);
        let placement = Placement::Grid {
            reduction: ReductionScheme::TwoPhase,
            plan: Some(PartitionPlan { p, q }),
        };
        let mut su = AlsEngine::on_cluster(config, r, cluster, placement);
        reference.iterate();
        let [x, theta] = su.iterate();
        if p == 1 {
            // One Θᵀ partition: the batches and GPUs change only the pricing.
            let bits = |m: &cumf_linalg::FactorMatrix| {
                m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(su.x()), bits(reference.x()));
            prop_assert_eq!(bits(su.theta()), bits(reference.theta()));
        } else {
            // Equation (5) sums each partition's partial Hermitian before
            // the row total: the same sum in another order.
            prop_assert!(su.x().max_abs_diff(reference.x()) < 5e-2,
                "X mismatch: {}", su.x().max_abs_diff(reference.x()));
            prop_assert!(su.theta().max_abs_diff(reference.theta()) < 5e-2,
                "Theta mismatch: {}", su.theta().max_abs_diff(reference.theta()));
        }
        prop_assert!(x.total() + theta.total() > 0.0);
    }

    #[test]
    fn planner_footprint_is_monotone_and_plans_are_feasible(
        m in 1_000_000u64..1_000_000_000,
        n in 10_000u64..10_000_000,
        nz_per_row in 10u64..500,
        f in 8u64..128,
    ) {
        let nz = m * nz_per_row;
        let dims = ProblemDims::new(m, n, nz, f);
        // Monotonicity in p and q.
        prop_assert!(footprint_words(&dims, 2, 4) <= footprint_words(&dims, 1, 4));
        prop_assert!(footprint_words(&dims, 2, 8) <= footprint_words(&dims, 2, 4));
        // Any plan returned by the planner satisfies equation (8).
        let capacity = 3_000_000_000u64; // a 12 GB card in f32 words
        if let Ok(plan) = plan_with_capacity(&dims, capacity, 0, 64, 1 << 20) {
            prop_assert!(feasible(&dims, plan.p, plan.q, capacity, 0));
        }
    }

    #[test]
    fn reduction_schemes_are_ordered_sensibly(
        bytes in 1e7f64..5e9,
        n_gpus in 2usize..5,
    ) {
        let flat = PcieTopology::flat(n_gpus);
        let dual = PcieTopology::dual_socket(n_gpus);
        let single = reduction_time(ReductionScheme::SingleGpu, &flat, bytes);
        let one = reduction_time(ReductionScheme::OnePhase, &flat, bytes);
        let one_dual = reduction_time(ReductionScheme::OnePhase, &dual, bytes);
        let two_dual = reduction_time(ReductionScheme::TwoPhase, &dual, bytes);
        // Parallel reduction never loses to shipping everything to one GPU.
        prop_assert!(one <= single + 1e-12);
        // The two-phase scheme is designed for machines with the GPUs split
        // evenly across the sockets (the paper's 2+2 configuration); on such
        // machines it never loses to the naive one-phase scheme by more than
        // its extra phase's fixed latency, and wins outright once transfers
        // are large enough for bandwidth to dominate.
        if n_gpus % 2 == 0 {
            prop_assert!(two_dual <= one_dual + dual.latency_s + 1e-12);
            // With at least two GPUs per socket the intra-socket combining
            // step actually removes cross-socket traffic, so the win is strict.
            if bytes >= 1e8 && n_gpus >= 4 {
                prop_assert!(two_dual < one_dual, "two-phase should win outright for large reductions");
            }
        }
        // All times are positive and finite.
        for t in [single, one, one_dual, two_dual] {
            prop_assert!(t > 0.0 && t.is_finite());
        }
    }
}
