//! Roofline timing model.
//!
//! A kernel's simulated duration is the larger of its compute time and its
//! memory time (the classic roofline), with the achievable fractions of peak
//! derated by occupancy: a memory-bound kernel needs enough resident warps to
//! hide DRAM latency, which is exactly why the paper tunes `bin` and register
//! usage instead of simply maximizing per-block resources.

use crate::{DeviceSpec, KernelTraffic, Occupancy};

/// Breakdown of one kernel's simulated execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Time the arithmetic pipeline needs, in seconds.
    pub compute_s: f64,
    /// Time the memory system needs, in seconds.
    pub memory_s: f64,
    /// Kernel launch overhead, in seconds.
    pub launch_overhead_s: f64,
    /// Total simulated time (max of compute/memory plus overhead).
    pub total_s: f64,
    /// True when the memory term dominates.
    pub memory_bound: bool,
}

/// Tunable constants of the roofline model.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    /// Fraction of peak FLOP/s a well-written kernel sustains at full
    /// occupancy (dense-ish inner loops rarely exceed ~60 %).
    pub compute_efficiency: f64,
    /// Fraction of peak DRAM bandwidth sustained by coalesced streams.
    pub coalesced_efficiency: f64,
    /// Fraction of peak DRAM bandwidth sustained by the discontiguous,
    /// sparse gathers of `get_hermitian` *without* the texture path
    /// (§2.2 Challenge 1).  The gathers fetch whole `f`-float θ vectors, so
    /// each access is internally contiguous but the vectors themselves are
    /// scattered across `Θᵀ`; the sustained fraction sits between random-word
    /// access and fully coalesced streams.
    pub scattered_efficiency: f64,
    /// Occupancy below this knee linearly degrades achievable bandwidth
    /// (not enough warps in flight to hide latency).
    pub occupancy_knee: f64,
    /// Fixed kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        Self {
            compute_efficiency: 0.55,
            coalesced_efficiency: 0.75,
            scattered_efficiency: 0.42,
            occupancy_knee: 0.4,
            launch_overhead_s: 8e-6,
        }
    }
}

impl TimingModel {
    /// Derating factor from occupancy: 1.0 at or above the knee, linear
    /// below it (never below 0.05 so times stay finite).
    fn occupancy_factor(&self, occupancy: f64) -> f64 {
        if occupancy >= self.occupancy_knee {
            1.0
        } else {
            (occupancy / self.occupancy_knee).max(0.05)
        }
    }

    /// Prices one kernel.
    ///
    /// `scattered` marks kernels whose global traffic is dominated by
    /// irregular gathers (the un-optimized `get_hermitian`); coalesced
    /// kernels (batched solves, streaming writes) use the higher efficiency.
    pub fn kernel_time(
        &self,
        spec: &DeviceSpec,
        traffic: &KernelTraffic,
        occupancy: &Occupancy,
        scattered: bool,
    ) -> KernelTiming {
        let occ = self.occupancy_factor(occupancy.occupancy);

        let peak_flops = spec.peak_gflops() * 1e9;
        let compute_s = traffic.flops / (peak_flops * self.compute_efficiency * occ);

        let global_eff = if scattered {
            self.scattered_efficiency
        } else {
            self.coalesced_efficiency
        };
        let global_bw = spec.global_bw_gbs * 1e9 * global_eff * occ;
        let texture_bw = spec.texture_bw_gbs * 1e9 * occ.max(0.5);
        let shared_bw = spec.shared_bw_gbs * 1e9;

        let memory_s = traffic.effective_global_bytes() / global_bw
            + traffic.texture_hit_bytes() / texture_bw
            + traffic.shared_bytes() / shared_bw;

        let busy = compute_s.max(memory_s);
        KernelTiming {
            compute_s,
            memory_s,
            launch_overhead_s: self.launch_overhead_s,
            total_s: busy + self.launch_overhead_s,
            memory_bound: memory_s >= compute_s,
        }
    }

    /// Time to copy `bytes` over a PCIe-class link of `gbs` GB/s, including a
    /// fixed per-transfer latency.
    pub fn transfer_time(&self, bytes: f64, gbs: f64) -> f64 {
        const PCIE_LATENCY_S: f64 = 10e-6;
        PCIE_LATENCY_S + bytes / (gbs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_occupancy(spec: &DeviceSpec) -> Occupancy {
        Occupancy::compute(spec, 256, 32, 0)
    }

    #[test]
    fn compute_bound_kernel_scales_with_flops() {
        let spec = DeviceSpec::titan_x();
        let model = TimingModel::default();
        let occ = full_occupancy(&spec);
        let t1 = model.kernel_time(
            &spec,
            &KernelTraffic {
                flops: 1e9,
                ..KernelTraffic::new()
            },
            &occ,
            false,
        );
        let t2 = model.kernel_time(
            &spec,
            &KernelTraffic {
                flops: 2e9,
                ..KernelTraffic::new()
            },
            &occ,
            false,
        );
        assert!(!t1.memory_bound);
        let r = (t2.total_s - model.launch_overhead_s) / (t1.total_s - model.launch_overhead_s);
        assert!((r - 2.0).abs() < 1e-6);
    }

    #[test]
    fn memory_bound_kernel_detected() {
        let spec = DeviceSpec::titan_x();
        let model = TimingModel::default();
        let occ = full_occupancy(&spec);
        // 1 GB of scattered reads but almost no flops.
        let t = model.kernel_time(
            &spec,
            &KernelTraffic {
                flops: 1e6,
                global_read_bytes: 1e9,
                ..KernelTraffic::new()
            },
            &occ,
            true,
        );
        assert!(t.memory_bound);
        assert!(t.memory_s > t.compute_s * 100.0);
    }

    #[test]
    fn texture_hits_are_cheaper_than_global_reads() {
        let spec = DeviceSpec::titan_x();
        let model = TimingModel::default();
        let occ = full_occupancy(&spec);
        let uncached = KernelTraffic {
            global_read_bytes: 1e9,
            ..KernelTraffic::new()
        };
        let cached = KernelTraffic {
            texture_read_bytes: 1e9,
            texture_hit_rate: 0.9,
            ..KernelTraffic::new()
        };
        let t_uncached = model.kernel_time(&spec, &uncached, &occ, true);
        let t_cached = model.kernel_time(&spec, &cached, &occ, true);
        assert!(
            t_cached.total_s < t_uncached.total_s * 0.5,
            "cached {} vs uncached {}",
            t_cached.total_s,
            t_uncached.total_s
        );
    }

    #[test]
    fn low_occupancy_slows_the_kernel_down() {
        let spec = DeviceSpec::titan_x();
        let model = TimingModel::default();
        let high = Occupancy::compute(&spec, 256, 32, 0);
        // Huge shared-memory block: only one or two resident blocks.
        let low = Occupancy::compute(&spec, 128, 32, 48 * 1024);
        assert!(low.occupancy < high.occupancy);
        let traffic = KernelTraffic {
            flops: 1e9,
            global_read_bytes: 5e8,
            ..KernelTraffic::new()
        };
        let t_high = model.kernel_time(&spec, &traffic, &high, true);
        let t_low = model.kernel_time(&spec, &traffic, &low, true);
        assert!(t_low.total_s > t_high.total_s);
    }

    #[test]
    fn occupancy_factor_clamps() {
        let m = TimingModel::default();
        assert_eq!(m.occupancy_factor(0.9), 1.0);
        assert_eq!(m.occupancy_factor(m.occupancy_knee), 1.0);
        assert!(m.occupancy_factor(0.2) < 1.0);
        assert!(m.occupancy_factor(0.0) >= 0.05);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let m = TimingModel::default();
        let tiny = m.transfer_time(1.0, 16.0);
        assert!(tiny >= 10e-6);
        let one_gb = m.transfer_time(1e9, 16.0);
        assert!((one_gb - (10e-6 + 1.0 / 16.0)).abs() < 1e-9);
    }

    #[test]
    fn faster_device_is_faster() {
        let model = TimingModel::default();
        let titan = DeviceSpec::titan_x();
        let gk = DeviceSpec::gk210();
        let traffic = KernelTraffic {
            flops: 1e10,
            global_read_bytes: 1e9,
            ..KernelTraffic::new()
        };
        let occ_t = full_occupancy(&titan);
        let occ_g = full_occupancy(&gk);
        let tt = model.kernel_time(&titan, &traffic, &occ_t, false);
        let tg = model.kernel_time(&gk, &traffic, &occ_g, false);
        assert!(tt.total_s < tg.total_s);
    }
}
