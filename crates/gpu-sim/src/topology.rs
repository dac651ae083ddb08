//! PCIe interconnect topology.
//!
//! §4.2 of the paper distinguishes two machine layouts:
//!
//! * a **flat** topology where every GPU hangs off one PCIe root, and
//! * a **dual-socket** topology where every two GPUs share a socket and
//!   inter-socket traffic crosses the (slower) processor interconnect.
//!
//! PCIe links are full duplex — "data transfer in both directions can happen
//! simultaneously without affecting each other" — which is what the parallel
//! reduction schemes exploit.  This module models each directed link's
//! capacity and computes the completion time of a set of concurrent
//! transfers as the most-loaded link's transfer time (a bandwidth-only,
//! store-and-forward-free model, adequate for the multi-megabyte transfers
//! ALS performs).

use std::collections::HashMap;

/// Endpoint of a transfer: the host (CPU memory) or a GPU device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Host memory.
    Host,
    /// GPU device with the given index.
    Gpu(usize),
}

/// A single direct memory transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Payload size in bytes.
    pub bytes: f64,
}

impl Transfer {
    /// Convenience constructor.
    pub fn new(src: Endpoint, dst: Endpoint, bytes: f64) -> Self {
        Self { src, dst, bytes }
    }
}

/// Machine interconnect layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// All GPUs directly attached to a single PCIe root (Figure 5 (a)).
    FlatPcie,
    /// Two sockets, each owning half the GPUs; cross-socket traffic pays the
    /// processor-interconnect penalty (Figure 5 (b)).
    DualSocket,
}

/// Directed links of the interconnect model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Link {
    /// A GPU's outbound PCIe lane.
    GpuOut(usize),
    /// A GPU's inbound PCIe lane.
    GpuIn(usize),
    /// Host root complex of a socket, direction host→devices.
    HostOut(usize),
    /// Host root complex of a socket, direction devices→host.
    HostIn(usize),
    /// Inter-socket interconnect, direction socket 0 → socket 1.
    Socket0To1,
    /// Inter-socket interconnect, direction socket 1 → socket 0.
    Socket1To0,
}

/// PCIe/NUMA topology of one multi-GPU machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieTopology {
    kind: TopologyKind,
    n_gpus: usize,
    /// Per-direction bandwidth of one GPU's PCIe link, GB/s.
    pub pcie_gbs: f64,
    /// Per-direction bandwidth of the inter-socket interconnect, GB/s.
    pub inter_socket_gbs: f64,
    /// Per-direction bandwidth of one socket's host root complex, GB/s
    /// (shared by all GPUs on that socket when they stream from host
    /// memory simultaneously — the PCIe IO contention noted in §5.4).
    pub host_link_gbs: f64,
    /// Fixed latency per transfer, seconds.
    pub latency_s: f64,
}

impl PcieTopology {
    /// Flat PCIe topology (Figure 5 (a)) with default Gen3 x16 numbers.
    pub fn flat(n_gpus: usize) -> Self {
        Self {
            kind: TopologyKind::FlatPcie,
            n_gpus,
            pcie_gbs: 16.0,
            inter_socket_gbs: 16.0,
            host_link_gbs: 25.0,
            latency_s: 10e-6,
        }
    }

    /// Dual-socket topology (Figure 5 (b)): every two GPUs share a socket and
    /// inter-socket traffic goes through a slower processor interconnect.
    pub fn dual_socket(n_gpus: usize) -> Self {
        Self {
            kind: TopologyKind::DualSocket,
            n_gpus,
            pcie_gbs: 16.0,
            inter_socket_gbs: 9.6,
            host_link_gbs: 25.0,
            latency_s: 10e-6,
        }
    }

    /// Which layout this topology models.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of GPUs attached.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Number of sockets (1 for flat, 2 for dual-socket).
    pub fn n_sockets(&self) -> usize {
        match self.kind {
            TopologyKind::FlatPcie => 1,
            TopologyKind::DualSocket => 2,
        }
    }

    /// The socket a GPU is attached to.
    pub fn socket_of(&self, gpu: usize) -> usize {
        assert!(gpu < self.n_gpus, "gpu index out of range");
        match self.kind {
            TopologyKind::FlatPcie => 0,
            TopologyKind::DualSocket => {
                if gpu < self.n_gpus.div_ceil(2) {
                    0
                } else {
                    1
                }
            }
        }
    }

    /// True when two GPUs share a socket (always true on a flat topology).
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }

    /// GPUs attached to the given socket.
    pub fn gpus_on_socket(&self, socket: usize) -> Vec<usize> {
        (0..self.n_gpus)
            .filter(|&g| self.socket_of(g) == socket)
            .collect()
    }

    /// The directed links a transfer occupies.
    fn links_of(&self, t: &Transfer) -> Vec<Link> {
        let mut links = Vec::with_capacity(3);
        match (t.src, t.dst) {
            (Endpoint::Gpu(a), Endpoint::Gpu(b)) => {
                links.push(Link::GpuOut(a));
                links.push(Link::GpuIn(b));
                if !self.same_socket(a, b) {
                    if self.socket_of(a) == 0 {
                        links.push(Link::Socket0To1);
                    } else {
                        links.push(Link::Socket1To0);
                    }
                }
            }
            (Endpoint::Host, Endpoint::Gpu(b)) => {
                links.push(Link::HostOut(self.socket_of(b)));
                links.push(Link::GpuIn(b));
            }
            (Endpoint::Gpu(a), Endpoint::Host) => {
                links.push(Link::GpuOut(a));
                links.push(Link::HostIn(self.socket_of(a)));
            }
            (Endpoint::Host, Endpoint::Host) => {}
        }
        links
    }

    fn link_bandwidth(&self, link: Link) -> f64 {
        match link {
            Link::GpuOut(_) | Link::GpuIn(_) => self.pcie_gbs,
            Link::HostOut(_) | Link::HostIn(_) => self.host_link_gbs,
            Link::Socket0To1 | Link::Socket1To0 => self.inter_socket_gbs,
        }
    }

    /// Completion time of a single transfer running alone.
    pub fn transfer_time(&self, t: &Transfer) -> f64 {
        if t.bytes <= 0.0 {
            return 0.0;
        }
        let bw = self
            .links_of(t)
            .into_iter()
            .map(|l| self.link_bandwidth(l))
            .fold(f64::INFINITY, f64::min);
        if bw.is_infinite() {
            return 0.0;
        }
        self.latency_s + t.bytes / (bw * 1e9)
    }

    /// Completion time of a *set* of transfers all launched at the same
    /// instant, assuming perfect bandwidth sharing: each directed link's
    /// finish time is its total queued bytes over its bandwidth, and the
    /// batch finishes when the most loaded link drains.
    pub fn concurrent_transfer_time(&self, transfers: &[Transfer]) -> f64 {
        let mut load: HashMap<Link, f64> = HashMap::new();
        let mut any = false;
        for t in transfers {
            if t.bytes <= 0.0 {
                continue;
            }
            any = true;
            for link in self.links_of(t) {
                *load.entry(link).or_insert(0.0) += t.bytes;
            }
        }
        if !any {
            return 0.0;
        }
        let worst = load
            .into_iter()
            .map(|(link, bytes)| bytes / (self.link_bandwidth(link) * 1e9))
            .fold(0.0f64, f64::max);
        self.latency_s + worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_assignment() {
        let flat = PcieTopology::flat(4);
        assert_eq!(flat.n_sockets(), 1);
        assert!(flat.same_socket(0, 3));

        let dual = PcieTopology::dual_socket(4);
        assert_eq!(dual.n_sockets(), 2);
        assert_eq!(dual.socket_of(0), 0);
        assert_eq!(dual.socket_of(1), 0);
        assert_eq!(dual.socket_of(2), 1);
        assert_eq!(dual.socket_of(3), 1);
        assert!(dual.same_socket(0, 1));
        assert!(!dual.same_socket(1, 2));
        assert_eq!(dual.gpus_on_socket(1), vec![2, 3]);
    }

    #[test]
    fn single_transfer_time_uses_slowest_link() {
        let dual = PcieTopology::dual_socket(4);
        let bytes = 1.6e9; // 1.6 GB
        let intra = dual.transfer_time(&Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(1), bytes));
        let inter = dual.transfer_time(&Transfer::new(Endpoint::Gpu(1), Endpoint::Gpu(2), bytes));
        // Intra-socket: 16 GB/s → 0.1 s; inter-socket: 9.6 GB/s → ~0.167 s.
        assert!((intra - (dual.latency_s + 0.1)).abs() < 1e-6);
        assert!(inter > intra * 1.5);
    }

    #[test]
    fn full_duplex_opposite_directions_do_not_contend() {
        let flat = PcieTopology::flat(2);
        let bytes = 1.6e9;
        let one = flat.transfer_time(&Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(1), bytes));
        let both = flat.concurrent_transfer_time(&[
            Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(1), bytes),
            Transfer::new(Endpoint::Gpu(1), Endpoint::Gpu(0), bytes),
        ]);
        assert!(
            (both - one).abs() < 1e-9,
            "duplex transfers should overlap perfectly"
        );
    }

    #[test]
    fn same_direction_transfers_contend_on_the_inbound_link() {
        let flat = PcieTopology::flat(3);
        let bytes = 1.6e9;
        let one = flat.transfer_time(&Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(2), bytes));
        let two = flat.concurrent_transfer_time(&[
            Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(2), bytes),
            Transfer::new(Endpoint::Gpu(1), Endpoint::Gpu(2), bytes),
        ]);
        // Both transfers funnel into GPU 2's inbound lane: twice the time.
        assert!((two - (2.0 * (one - flat.latency_s) + flat.latency_s)).abs() < 1e-9);
    }

    #[test]
    fn host_fanout_contends_on_the_root_complex() {
        let flat = PcieTopology::flat(4);
        let bytes = 2.5e9; // 2.5 GB: 0.1 s at the 25 GB/s root
        let alone = flat.concurrent_transfer_time(&[Transfer::new(
            Endpoint::Host,
            Endpoint::Gpu(0),
            bytes,
        )]);
        let four = flat.concurrent_transfer_time(
            &(0..4)
                .map(|g| Transfer::new(Endpoint::Host, Endpoint::Gpu(g), bytes))
                .collect::<Vec<_>>(),
        );
        // The shared 25 GB/s host link becomes the bottleneck: 10/25 = 0.4 s.
        assert!(four > alone * 2.0);
        assert!((four - (flat.latency_s + 4.0 * bytes / 25e9)).abs() < 1e-6);
    }

    #[test]
    fn inter_socket_link_is_the_bottleneck_for_cross_socket_shuffles() {
        let dual = PcieTopology::dual_socket(4);
        let bytes = 1e9;
        // All four GPUs send to a GPU on the other socket, two in each direction.
        let transfers = vec![
            Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(2), bytes),
            Transfer::new(Endpoint::Gpu(1), Endpoint::Gpu(3), bytes),
            Transfer::new(Endpoint::Gpu(2), Endpoint::Gpu(0), bytes),
            Transfer::new(Endpoint::Gpu(3), Endpoint::Gpu(1), bytes),
        ];
        let t = dual.concurrent_transfer_time(&transfers);
        // Each direction of the socket link carries 2 GB at 9.6 GB/s.
        let expected = dual.latency_s + 2.0 * bytes / 9.6e9;
        assert!((t - expected).abs() < 1e-9);
        // The same shuffle kept within sockets is faster.
        let intra = vec![
            Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(1), bytes),
            Transfer::new(Endpoint::Gpu(1), Endpoint::Gpu(0), bytes),
            Transfer::new(Endpoint::Gpu(2), Endpoint::Gpu(3), bytes),
            Transfer::new(Endpoint::Gpu(3), Endpoint::Gpu(2), bytes),
        ];
        assert!(dual.concurrent_transfer_time(&intra) < t);
    }

    #[test]
    fn zero_byte_transfers_cost_nothing() {
        let flat = PcieTopology::flat(2);
        assert_eq!(
            flat.transfer_time(&Transfer::new(Endpoint::Gpu(0), Endpoint::Gpu(1), 0.0)),
            0.0
        );
        assert_eq!(flat.concurrent_transfer_time(&[]), 0.0);
    }
}
