//! GPU performance-model simulator for `cumf-rs`.
//!
//! The cuMF paper runs on NVIDIA Titan X / K80 cards; this reproduction has
//! no GPU, so the hardware is replaced by a *performance model* that captures
//! exactly the architectural characteristics the paper's optimizations are
//! about:
//!
//! * [`device`] — device specifications (SM count, cores, clock, register
//!   file, shared memory, global memory size and bandwidth, texture cache),
//!   with presets for the Titan X and GK210/K80 used in the paper.
//! * [`traffic`] — per-kernel FLOP and byte counters (global / texture /
//!   shared / register traffic), the quantities Table 3 of the paper accounts.
//! * [`occupancy`] — the CUDA occupancy calculation (blocks per SM limited by
//!   threads, registers and shared memory), which is what the paper's
//!   `bin`-size trade-off in §3.3 is about.
//! * [`timing`] — a roofline timing model turning traffic + occupancy into
//!   simulated kernel time.
//! * [`topology`] — the PCIe interconnect (flat root or dual-socket) with
//!   full-duplex links and contention, used by the topology-aware reduction.
//! * [`multi`] — a [`multi::GpuCluster`] naming the hardware: identical
//!   devices, their interconnect and the timing model.
//!
//! Everything here is an immutable description or a pure function of one:
//! the crate prices work, it keeps no clock.  Capacity is a comparison
//! against [`DeviceSpec::global_mem_f32_capacity`], and transfer/compute
//! overlap is priced by the caller (`cumf_core::costmodel::price_side`).
//!
//! The *numerics* of the algorithms built on top of this crate run on the
//! host CPU; only *time* is simulated.  This preserves the paper's
//! experimental shape (which optimization wins, by what factor) without the
//! physical card.

#![forbid(unsafe_code)]
pub mod device;
pub mod multi;
pub mod occupancy;
pub mod timing;
pub mod topology;
pub mod traffic;

pub use device::{DeviceSpec, MemoryKind, MemoryTableRow};
pub use multi::GpuCluster;
pub use occupancy::Occupancy;
pub use timing::{KernelTiming, TimingModel};
pub use topology::{Endpoint, PcieTopology, TopologyKind, Transfer};
pub use traffic::KernelTraffic;

/// Number of bytes in one GiB, used throughout the simulator.
pub const GIB: u64 = 1 << 30;

/// Number of bytes in a single-precision float.
pub const F32_BYTES: u64 = 4;
