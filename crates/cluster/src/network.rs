//! Cluster communication primitives.
//!
//! Distributed MF systems pay for moving factor matrices between nodes:
//! SparkALS shuffles `Θᵀ` sub-blocks to every `X` partition, parameter
//! servers push/pull gradients, and NOMAD circulates column ownership.  A
//! simple α–β (latency–bandwidth) model of the common collectives is enough
//! to capture the paper's point that this traffic is what makes 50-node
//! clusters slow compared to PCIe-connected GPUs.

use crate::node::NodeSpec;

/// A homogeneous cluster of `n` nodes on a full-bisection network.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterNetwork {
    /// Per-node specification.
    pub node: NodeSpec,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Per-message latency in seconds (includes framework overhead, which
    /// for Spark-style systems is far larger than raw TCP latency).
    pub latency_s: f64,
}

impl ClusterNetwork {
    /// A cluster with the given nodes and a default per-message latency of
    /// 1 ms (MPI-class systems) — callers modelling Spark-style frameworks
    /// should raise this.
    pub fn new(node: NodeSpec, n_nodes: usize) -> Self {
        Self {
            node,
            n_nodes,
            latency_s: 1e-3,
        }
    }

    /// Per-node bandwidth in bytes/second.
    fn node_bandwidth_bytes(&self) -> f64 {
        self.node.net_gbits * 1e9 / 8.0
    }

    /// Time for an all-to-all shuffle where each node sends `bytes_per_node`
    /// in total, split across all peers (each node's NIC is the bottleneck).
    pub(crate) fn shuffle_time(&self, bytes_per_node: f64) -> f64 {
        if self.n_nodes <= 1 || bytes_per_node <= 0.0 {
            return 0.0;
        }
        self.latency_s * (self.n_nodes as f64 - 1.0) + bytes_per_node / self.node_bandwidth_bytes()
    }

    /// Aggregate compute throughput of the cluster in GFLOP/s at the given
    /// per-node efficiency.
    pub(crate) fn total_gflops(&self, efficiency: f64) -> f64 {
        self.node.effective_gflops(efficiency) * self.n_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aws32() -> ClusterNetwork {
        ClusterNetwork::new(NodeSpec::m3_xlarge(), 32)
    }

    #[test]
    fn single_node_communicates_for_free() {
        let c = ClusterNetwork::new(NodeSpec::m3_xlarge(), 1);
        assert_eq!(c.shuffle_time(1e9), 0.0);
    }

    #[test]
    fn hpc_cluster_communicates_faster_than_aws() {
        let aws = aws32();
        let hpc = ClusterNetwork::new(NodeSpec::hpc_node(), 64);
        assert!(hpc.shuffle_time(1e9) < aws.shuffle_time(1e9));
    }

    #[test]
    fn total_gflops_scales_with_nodes() {
        let c = aws32();
        assert!(
            (c.total_gflops(0.5) - 32.0 * NodeSpec::m3_xlarge().effective_gflops(0.5)).abs() < 1e-6
        );
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        let c = aws32();
        assert_eq!(c.shuffle_time(0.0), 0.0);
    }
}
