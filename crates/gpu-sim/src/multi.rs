//! Multi-GPU machine description.
//!
//! A [`GpuCluster`] is the immutable hardware SU-ALS (Algorithm 3) is
//! priced on: `p` identical devices, the PCIe topology between them and the
//! timing model.  It holds no state; every simulated second is computed from
//! it, not replayed on it.

use crate::{DeviceSpec, PcieTopology, TimingModel};

/// A single machine with one or more simulated GPUs.
#[derive(Debug, Clone)]
pub struct GpuCluster {
    spec: DeviceSpec,
    topology: PcieTopology,
    timing: TimingModel,
}

impl GpuCluster {
    /// Builds a cluster of identical devices, one per GPU of `topology`.
    pub fn new(spec: DeviceSpec, topology: PcieTopology) -> Self {
        Self {
            spec,
            topology,
            timing: TimingModel::default(),
        }
    }

    /// One Titan X on a flat topology — the single-GPU setting of §5.2–5.3.
    pub fn single_titan_x() -> Self {
        Self::titan_x_flat(1)
    }

    /// `n` Titan X cards on a flat PCIe root — the scalability setting of §5.4.
    pub fn titan_x_flat(n: usize) -> Self {
        Self::new(DeviceSpec::titan_x(), PcieTopology::flat(n))
    }

    /// Four GK210 dies (two K80 boards) on a dual-socket machine — the
    /// very-large-problem setting of §5.5.
    pub fn k80_dual_socket() -> Self {
        Self::new(DeviceSpec::gk210(), PcieTopology::dual_socket(4))
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.topology.n_gpus()
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
}
