//! Multi-GPU machine abstraction.
//!
//! A [`GpuCluster`] bundles the pieces SU-ALS (Algorithm 3) needs: `p`
//! devices with their allocators and timelines, the PCIe topology between
//! them, the timing model, and a shared profiler.

use crate::{
    DeviceAllocator, DeviceSpec, DeviceTimeline, EventKind, PcieTopology, Profiler, TimingModel,
};

/// A single machine with one or more simulated GPUs.
#[derive(Debug, Clone)]
pub struct GpuCluster {
    spec: DeviceSpec,
    topology: PcieTopology,
    timing: TimingModel,
    allocators: Vec<DeviceAllocator>,
    timelines: Vec<DeviceTimeline>,
    profiler: Profiler,
}

impl GpuCluster {
    /// Builds a cluster of `n_gpus` identical devices over the given
    /// topology.
    pub fn new(spec: DeviceSpec, topology: PcieTopology, n_gpus: usize) -> Self {
        assert!(n_gpus >= 1, "a cluster needs at least one GPU");
        assert_eq!(
            topology.n_gpus(),
            n_gpus,
            "topology and cluster GPU count differ"
        );
        let allocators = (0..n_gpus)
            .map(|_| DeviceAllocator::new(spec.global_mem_bytes))
            .collect();
        let timelines = (0..n_gpus).map(|_| DeviceTimeline::new()).collect();
        Self {
            spec,
            topology,
            timing: TimingModel::default(),
            allocators,
            timelines,
            profiler: Profiler::new(),
        }
    }

    /// One Titan X on a flat topology — the single-GPU setting of §5.2–5.3.
    pub fn single_titan_x() -> Self {
        Self::new(DeviceSpec::titan_x(), PcieTopology::flat(1), 1)
    }

    /// `n` Titan X cards on a flat PCIe root — the scalability setting of §5.4.
    pub fn titan_x_flat(n: usize) -> Self {
        Self::new(DeviceSpec::titan_x(), PcieTopology::flat(n), n)
    }

    /// Four GK210 dies (two K80 boards) on a dual-socket machine — the
    /// very-large-problem setting of §5.5.
    pub fn k80_dual_socket() -> Self {
        Self::new(DeviceSpec::gk210(), PcieTopology::dual_socket(4), 4)
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.allocators.len()
    }

    /// Device specification (all devices are identical).
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Interconnect topology.
    pub fn topology(&self) -> &PcieTopology {
        &self.topology
    }

    /// Timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Mutable allocator of device `g`.
    pub fn allocator_mut(&mut self, g: usize) -> &mut DeviceAllocator {
        &mut self.allocators[g]
    }

    /// The shared profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Simulated wall-clock: the latest instant at which any device is busy.
    pub fn simulated_time(&self) -> f64 {
        self.timelines
            .iter()
            .map(|t| t.now())
            .fold(0.0f64, f64::max)
    }

    /// Records a kernel of `duration` seconds on device `g` starting when
    /// that device's compute engine is free, and returns its completion time.
    pub fn run_kernel(&mut self, g: usize, duration: f64) -> f64 {
        self.profiler.record(EventKind::Kernel, duration);
        self.timelines[g].enqueue_compute(duration)
    }

    /// Records a transfer of `duration` seconds on device `g`'s copy engine
    /// (started no earlier than `not_before`) and returns its completion time.
    pub fn run_transfer(&mut self, g: usize, duration: f64, not_before: f64) -> f64 {
        self.profiler.record(EventKind::Transfer, duration);
        self.timelines[g].enqueue_copy_after(duration, not_before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_shapes() {
        let c = GpuCluster::single_titan_x();
        assert_eq!(c.n_gpus(), 1);
        let c = GpuCluster::titan_x_flat(4);
        assert_eq!(c.n_gpus(), 4);
        assert_eq!(c.topology().n_sockets(), 1);
        let c = GpuCluster::k80_dual_socket();
        assert_eq!(c.n_gpus(), 4);
        assert_eq!(c.topology().n_sockets(), 2);
        assert_eq!(c.spec(), &DeviceSpec::gk210());
    }

    #[test]
    #[should_panic(expected = "topology and cluster GPU count differ")]
    fn mismatched_topology_panics() {
        GpuCluster::new(DeviceSpec::titan_x(), PcieTopology::flat(2), 4);
    }

    #[test]
    fn kernels_and_transfers_advance_time() {
        let mut c = GpuCluster::titan_x_flat(2);
        c.run_kernel(0, 1.0);
        c.run_kernel(1, 2.0);
        c.run_transfer(0, 0.5, 0.0);
        assert_eq!(c.simulated_time(), 2.0);
        assert_eq!(c.profiler().len(), 3);
        assert_eq!(c.profiler().total(EventKind::Kernel), (2, 3.0));
        assert_eq!(c.profiler().total(EventKind::Transfer), (1, 0.5));
        // Device 0 overlap: transfer hidden behind its 1 s kernel.
        assert_eq!(c.timelines[0].now(), 1.0);
    }

    #[test]
    fn allocators_are_per_device() {
        let mut c = GpuCluster::titan_x_flat(2);
        c.allocator_mut(0).alloc("theta", 100).unwrap();
        assert_eq!(c.allocators[0].used(), 100);
        assert_eq!(c.allocators[1].used(), 0);
    }
}
