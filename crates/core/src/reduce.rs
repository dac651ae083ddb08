//! Cross-GPU parallel reduction schemes (§4.2 of the paper).
//!
//! After the data-parallel `get_hermitian` phase each GPU `i` holds partial
//! Hermitians `(A^(ij), B^(ij))` for the whole batch `X^(j)`.  They must be
//! summed before the batch solve.  The paper considers three ways to do it:
//!
//! 1. **Reduce on one GPU** — every GPU ships its whole buffer to GPU 0,
//!    which also ends up solving alone.  Baseline for the 1.7× claim.
//! 2. **One-phase parallel reduction** (Figure 5 (a)) — every GPU owns `1/p`
//!    of the rows and receives the matching slice from every peer, using all
//!    PCIe links in both directions simultaneously.
//! 3. **Two-phase topology-aware reduction** (Figure 5 (b)) — on a
//!    dual-socket machine the slices are first combined *within* each socket
//!    and only the combined result crosses the (slower) inter-socket link,
//!    halving the cross-socket traffic.  Additional 1.5× in the paper.

use cumf_gpu_sim::{Endpoint, PcieTopology, Transfer};

/// The reduction scheme used between `get_hermitian` and `batch_solve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionScheme {
    /// Ship every partial buffer to GPU 0 and reduce there.
    SingleGpu,
    /// One-phase parallel reduction across all GPUs (Figure 5 (a)).
    OnePhase,
    /// Two-phase, topology-aware reduction (Figure 5 (b)); falls back to
    /// one-phase on single-socket machines.
    TwoPhase,
}

/// The transfers each phase of the reduction performs.  Phases are executed
/// one after another; transfers within a phase are concurrent.
fn reduction_transfers(
    scheme: ReductionScheme,
    topo: &PcieTopology,
    bytes_per_gpu: f64,
) -> Vec<Vec<Transfer>> {
    let p = topo.n_gpus();
    if p <= 1 || bytes_per_gpu <= 0.0 {
        return vec![];
    }
    match scheme {
        ReductionScheme::SingleGpu => {
            let phase = (1..p)
                .map(|k| Transfer::new(Endpoint::Gpu(k), Endpoint::Gpu(0), bytes_per_gpu))
                .collect();
            vec![phase]
        }
        ReductionScheme::OnePhase => {
            let slice = bytes_per_gpu / p as f64;
            let phase = (0..p)
                .flat_map(|owner| {
                    (0..p)
                        .filter(move |&k| k != owner)
                        .map(move |k| Transfer::new(Endpoint::Gpu(k), Endpoint::Gpu(owner), slice))
                })
                .collect();
            vec![phase]
        }
        ReductionScheme::TwoPhase => {
            if topo.n_sockets() == 1 {
                return reduction_transfers(ReductionScheme::OnePhase, topo, bytes_per_gpu);
            }
            let slice = bytes_per_gpu / p as f64;
            let mut phase1 = Vec::new();
            let mut phase2 = Vec::new();
            for owner in 0..p {
                let owner_socket = topo.socket_of(owner);
                for socket in 0..topo.n_sockets() {
                    let gpus = topo.gpus_on_socket(socket);
                    if gpus.is_empty() {
                        continue;
                    }
                    if socket == owner_socket {
                        // Peers on the owner's socket send their slice straight
                        // to the owner.
                        for &g in gpus.iter().filter(|&&g| g != owner) {
                            phase1.push(Transfer::new(
                                Endpoint::Gpu(g),
                                Endpoint::Gpu(owner),
                                slice,
                            ));
                        }
                    } else {
                        // On the remote socket, pick a combiner (same local
                        // index as the owner when possible) that accumulates
                        // the socket's slices and later forwards one combined
                        // slice across the socket link.
                        let owner_local = topo
                            .gpus_on_socket(owner_socket)
                            .iter()
                            .position(|&g| g == owner)
                            .unwrap_or(0);
                        let combiner = *gpus.get(owner_local).unwrap_or(&gpus[0]);
                        for &g in gpus.iter().filter(|&&g| g != combiner) {
                            phase1.push(Transfer::new(
                                Endpoint::Gpu(g),
                                Endpoint::Gpu(combiner),
                                slice,
                            ));
                        }
                        phase2.push(Transfer::new(
                            Endpoint::Gpu(combiner),
                            Endpoint::Gpu(owner),
                            slice,
                        ));
                    }
                }
            }
            vec![phase1, phase2]
        }
    }
}

/// Simulated completion time of the reduction.
pub fn reduction_time(scheme: ReductionScheme, topo: &PcieTopology, bytes_per_gpu: f64) -> f64 {
    reduction_transfers(scheme, topo, bytes_per_gpu)
        .iter()
        .map(|phase| topo.concurrent_transfer_time(phase))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    #[test]
    fn no_reduction_needed_on_one_gpu() {
        let topo = PcieTopology::flat(1);
        assert!(reduction_transfers(ReductionScheme::OnePhase, &topo, GB).is_empty());
        assert_eq!(reduction_time(ReductionScheme::OnePhase, &topo, GB), 0.0);
    }

    #[test]
    fn one_phase_moves_every_slice_once() {
        let topo = PcieTopology::flat(4);
        let phases = reduction_transfers(ReductionScheme::OnePhase, &topo, GB);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len(), 4 * 3);
        let total: f64 = phases[0].iter().map(|t| t.bytes).sum();
        assert!((total - 3.0 * GB).abs() < 1.0);
    }

    #[test]
    fn one_phase_beats_single_gpu_reduction() {
        // The paper reports 1.7× for parallel reduction vs reduce-on-one-GPU
        // (Hugewiki, 4 GPUs).  The communication model alone should already
        // show a clear win because the single-GPU scheme serializes on one
        // inbound link.
        let topo = PcieTopology::flat(4);
        let single = reduction_time(ReductionScheme::SingleGpu, &topo, GB);
        let parallel = reduction_time(ReductionScheme::OnePhase, &topo, GB);
        let speedup = single / parallel;
        assert!(
            speedup > 1.5 && speedup < 6.0,
            "parallel reduction speedup out of range: {speedup}"
        );
    }

    #[test]
    fn two_phase_beats_one_phase_on_dual_socket() {
        // Figure 5 (b): the two-phase scheme halves inter-socket traffic.
        let topo = PcieTopology::dual_socket(4);
        let one = reduction_time(ReductionScheme::OnePhase, &topo, GB);
        let two = reduction_time(ReductionScheme::TwoPhase, &topo, GB);
        let speedup = one / two;
        assert!(
            speedup > 1.2 && speedup < 2.5,
            "two-phase speedup out of expected range: {speedup}"
        );
    }

    #[test]
    fn two_phase_on_flat_topology_degenerates_to_one_phase() {
        let topo = PcieTopology::flat(4);
        let one = reduction_time(ReductionScheme::OnePhase, &topo, GB);
        let two = reduction_time(ReductionScheme::TwoPhase, &topo, GB);
        assert!((one - two).abs() < 1e-12);
    }

    #[test]
    fn two_phase_crosses_the_socket_link_exactly_once_per_owner() {
        let topo = PcieTopology::dual_socket(4);
        let phases = reduction_transfers(ReductionScheme::TwoPhase, &topo, GB);
        assert_eq!(phases.len(), 2);
        // Phase 1 is strictly intra-socket.
        for t in &phases[0] {
            let (Endpoint::Gpu(a), Endpoint::Gpu(b)) = (t.src, t.dst) else {
                panic!()
            };
            assert!(
                topo.same_socket(a, b),
                "phase-1 transfer {a}->{b} crosses sockets"
            );
        }
        // Phase 2 is strictly inter-socket, one transfer per owner.
        assert_eq!(phases[1].len(), 4);
        for t in &phases[1] {
            let (Endpoint::Gpu(a), Endpoint::Gpu(b)) = (t.src, t.dst) else {
                panic!()
            };
            assert!(!topo.same_socket(a, b));
        }
    }

    #[test]
    fn reduction_conserves_bytes_per_owner() {
        // Every owner must receive p-1 slices in total regardless of scheme.
        let topo = PcieTopology::dual_socket(4);
        for scheme in [ReductionScheme::OnePhase, ReductionScheme::TwoPhase] {
            let phases = reduction_transfers(scheme, &topo, GB);
            let mut received = [0.0f64; 4];
            for t in phases.iter().flatten() {
                if let Endpoint::Gpu(dst) = t.dst {
                    received[dst] += t.bytes;
                }
            }
            // In the two-phase scheme a combiner receives extra bytes it then
            // forwards; owners still end up with at least their 3 slices of
            // net input overall, and total bytes moved is bounded by 2×.
            let total: f64 = received.iter().sum();
            assert!(
                total >= 3.0 * GB - 1.0,
                "scheme {scheme:?} moved too few bytes"
            );
            assert!(
                total <= 6.0 * GB + 1.0,
                "scheme {scheme:?} moved too many bytes"
            );
        }
    }

    #[test]
    fn zero_bytes_costs_nothing() {
        let topo = PcieTopology::dual_socket(4);
        assert_eq!(reduction_time(ReductionScheme::TwoPhase, &topo, 0.0), 0.0);
    }
}
