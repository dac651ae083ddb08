//! CPU node specifications and cloud prices.
//!
//! Prices are the on-demand US-East prices the paper quotes in Table 1
//! (taken "when submitting this paper", early 2016); the GPU server is the
//! IBM SoftLayer machine with two K80 boards at an amortized $2.44/hour.

/// Specification of one CPU (or GPU-host) node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node type name, e.g. `"m3.2xlarge"`.
    pub name: &'static str,
    /// Number of hardware threads.
    pub vcpus: u32,
    /// Main memory in GiB.
    pub mem_gib: u32,
    /// Aggregate single-precision compute throughput in GFLOP/s.
    pub flops_gflops: f64,
    /// Sustainable memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Network bandwidth per node in Gbit/s.
    pub net_gbits: f64,
    /// On-demand price in dollars per node per hour.
    pub price_per_hour: f64,
}

impl NodeSpec {
    /// AWS m3.xlarge (4 vCPU, 15 GiB) — NOMAD's AWS node type (Table 1 notes
    /// that the m1.xlarge used by the NOMAD paper is superseded by
    /// m3.xlarge).
    pub(crate) fn m3_xlarge() -> Self {
        Self {
            name: "m3.xlarge",
            vcpus: 4,
            mem_gib: 15,
            flops_gflops: 4.0 * 2.5 * 8.0,
            mem_bw_gbs: 20.0,
            net_gbits: 1.0,
            price_per_hour: 0.27,
        }
    }

    /// AWS m3.2xlarge (8 vCPU, 30 GiB) — SparkALS's node type.
    pub(crate) fn m3_2xlarge() -> Self {
        Self {
            name: "m3.2xlarge",
            vcpus: 8,
            mem_gib: 30,
            flops_gflops: 8.0 * 2.5 * 8.0,
            mem_bw_gbs: 25.0,
            net_gbits: 1.0,
            price_per_hour: 0.53,
        }
    }

    /// AWS c3.2xlarge (8 vCPU, 15 GiB) — comparable to Factorbird's nodes.
    pub(crate) fn c3_2xlarge() -> Self {
        Self {
            name: "c3.2xlarge",
            vcpus: 8,
            mem_gib: 15,
            flops_gflops: 8.0 * 2.8 * 8.0,
            mem_bw_gbs: 25.0,
            net_gbits: 1.0,
            price_per_hour: 0.42,
        }
    }

    /// A 30-core bare-metal machine, the libMF/NOMAD single-machine setting
    /// of §5.2.
    pub(crate) fn bare_metal_30core() -> Self {
        Self {
            name: "bare-metal 30-core",
            vcpus: 30,
            mem_gib: 256,
            flops_gflops: 30.0 * 2.5 * 8.0,
            mem_bw_gbs: 60.0,
            net_gbits: 10.0,
            price_per_hour: 2.0,
        }
    }

    /// One node of the 64-node HPC cluster NOMAD uses (§5.4): faster cores
    /// and a much faster interconnect than AWS.
    pub(crate) fn hpc_node() -> Self {
        Self {
            name: "HPC node",
            vcpus: 16,
            mem_gib: 64,
            flops_gflops: 16.0 * 2.7 * 16.0,
            mem_bw_gbs: 60.0,
            net_gbits: 40.0,
            price_per_hour: 1.0,
        }
    }

    /// The cuMF machine: one IBM SoftLayer server with two K80 boards
    /// (four GPU devices), amortized at $2.44/hour (Table 1).
    pub fn cumf_gpu_server() -> Self {
        Self {
            name: "SoftLayer 2xK80 server",
            vcpus: 24,
            mem_gib: 256,
            flops_gflops: 4.0 * 4370.0,
            mem_bw_gbs: 4.0 * 240.0,
            net_gbits: 10.0,
            price_per_hour: 2.44,
        }
    }

    /// Effective sustained GFLOP/s for sparse MF kernels: CPUs rarely
    /// sustain more than a modest fraction of peak on irregular sparse
    /// workloads.
    pub(crate) fn effective_gflops(&self, efficiency: f64) -> f64 {
        self.flops_gflops * efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prices_match_the_paper() {
        assert!((NodeSpec::m3_xlarge().price_per_hour - 0.27).abs() < 1e-9);
        assert!((NodeSpec::m3_2xlarge().price_per_hour - 0.53).abs() < 1e-9);
        assert!((NodeSpec::c3_2xlarge().price_per_hour - 0.42).abs() < 1e-9);
        assert!((NodeSpec::cumf_gpu_server().price_per_hour - 2.44).abs() < 1e-9);
    }

    #[test]
    fn gpu_server_has_far_more_flops_than_cpu_nodes() {
        // §1: a GPU has ~10× the flops of a CPU.
        let gpu = NodeSpec::cumf_gpu_server();
        let cpu = NodeSpec::m3_2xlarge();
        assert!(gpu.flops_gflops > 10.0 * cpu.flops_gflops);
    }

    #[test]
    fn effective_flops_scales_with_efficiency() {
        let n = NodeSpec::bare_metal_30core();
        assert!((n.effective_gflops(0.5) - n.flops_gflops * 0.5).abs() < 1e-9);
    }

    #[test]
    fn hpc_interconnect_is_faster_than_aws() {
        assert!(NodeSpec::hpc_node().net_gbits > NodeSpec::m3_xlarge().net_gbits * 10.0);
    }
}
