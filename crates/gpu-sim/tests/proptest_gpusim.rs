//! Property-based tests of the GPU performance model: occupancy monotonicity,
//! timing monotonicity, transfer-time bounds and traffic merging.

use cumf_gpu_sim::{
    DeviceSpec, Endpoint, KernelTraffic, Occupancy, PcieTopology, TimingModel, Transfer,
};
use proptest::prelude::*;

fn titan() -> DeviceSpec {
    DeviceSpec::titan_x()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn occupancy_is_monotone_in_resource_usage(
        threads in 32u32..512,
        regs in 16u32..128,
        shared_kb in 0u32..48,
    ) {
        let spec = titan();
        let base = Occupancy::compute(&spec, threads, regs, shared_kb * 1024);
        let more_regs = Occupancy::compute(&spec, threads, regs + 32, shared_kb * 1024);
        let more_shared = Occupancy::compute(&spec, threads, regs, (shared_kb + 8) * 1024);
        prop_assert!(more_regs.blocks_per_sm <= base.blocks_per_sm);
        prop_assert!(more_shared.blocks_per_sm <= base.blocks_per_sm);
        prop_assert!(base.occupancy >= 0.0 && base.occupancy <= 1.0);
        prop_assert_eq!(base.active_threads_per_sm, base.blocks_per_sm * threads);
    }

    #[test]
    fn kernel_time_is_monotone_in_traffic(
        flops in 1e6f64..1e12,
        bytes in 1e3f64..1e10,
        scale in 1.1f64..4.0,
    ) {
        let spec = titan();
        let model = TimingModel::default();
        let occ = Occupancy::compute(&spec, 256, 32, 0);
        let t = KernelTraffic { flops, global_read_bytes: bytes, ..KernelTraffic::new() };
        let bigger = t.scale(scale);
        let t1 = model.kernel_time(&spec, &t, &occ, false).total_s;
        let t2 = model.kernel_time(&spec, &bigger, &occ, false).total_s;
        prop_assert!(t2 >= t1, "scaling traffic by {scale} must not speed the kernel up");
        prop_assert!(t1 > 0.0 && t1.is_finite());
    }

    #[test]
    fn texture_hits_never_slow_a_kernel_down(
        bytes in 1e6f64..1e10,
        hit_rate in 0.0f64..1.0,
    ) {
        let spec = titan();
        let model = TimingModel::default();
        let occ = Occupancy::compute(&spec, 256, 32, 0);
        let uncached = KernelTraffic { global_read_bytes: bytes, ..KernelTraffic::new() };
        let cached = KernelTraffic {
            texture_read_bytes: bytes,
            texture_hit_rate: hit_rate,
            ..KernelTraffic::new()
        };
        let t_uncached = model.kernel_time(&spec, &uncached, &occ, true).total_s;
        let t_cached = model.kernel_time(&spec, &cached, &occ, true).total_s;
        prop_assert!(t_cached <= t_uncached * 1.001);
    }

    #[test]
    fn concurrent_transfers_bounded_by_serial_sum_and_slowest_single(
        n_transfers in 1usize..8,
        bytes in 1e6f64..1e9,
        n_gpus in 2usize..5,
    ) {
        let topo = PcieTopology::dual_socket(n_gpus.max(2));
        let transfers: Vec<Transfer> = (0..n_transfers)
            .map(|i| {
                Transfer::new(
                    Endpoint::Gpu(i % n_gpus),
                    Endpoint::Gpu((i + 1) % n_gpus),
                    bytes * (1.0 + i as f64 * 0.1),
                )
            })
            .collect();
        let concurrent = topo.concurrent_transfer_time(&transfers);
        let singles: Vec<f64> = transfers.iter().map(|t| topo.transfer_time(t)).collect();
        let slowest = singles.iter().cloned().fold(0.0f64, f64::max);
        let serial: f64 = singles.iter().sum();
        prop_assert!(concurrent + 1e-12 >= slowest - topo.latency_s * n_transfers as f64);
        prop_assert!(concurrent <= serial + 1e-9, "concurrency cannot be slower than serial");
    }

    #[test]
    fn merge_preserves_totals(
        flops_a in 0.0f64..1e9, flops_b in 0.0f64..1e9,
        ga in 0.0f64..1e9, gb in 0.0f64..1e9,
        ta in 0.0f64..1e9, tb in 0.0f64..1e9,
        ha in 0.0f64..1.0, hb in 0.0f64..1.0,
    ) {
        let a = KernelTraffic { flops: flops_a, global_read_bytes: ga, texture_read_bytes: ta, texture_hit_rate: ha, ..KernelTraffic::new() };
        let b = KernelTraffic { flops: flops_b, global_read_bytes: gb, texture_read_bytes: tb, texture_hit_rate: hb, ..KernelTraffic::new() };
        let m = a.merge(&b);
        prop_assert!((m.flops - (flops_a + flops_b)).abs() < 1e-6);
        prop_assert!((m.texture_hit_bytes() - (a.texture_hit_bytes() + b.texture_hit_bytes())).abs() < 1e-3);
        prop_assert!(m.texture_hit_rate >= 0.0 && m.texture_hit_rate <= 1.0);
    }
}
