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
//! * [`mem`] — a device-memory allocator with capacity tracking, so that the
//!   partition planner's out-of-memory conditions are real errors.
//! * [`traffic`] — per-kernel FLOP and byte counters (global / texture /
//!   shared / register traffic), the quantities Table 3 of the paper accounts.
//! * [`occupancy`] — the CUDA occupancy calculation (blocks per SM limited by
//!   threads, registers and shared memory), which is what the paper's
//!   `bin`-size trade-off in §3.3 is about.
//! * [`timing`] — a roofline timing model turning traffic + occupancy into
//!   simulated kernel time.
//! * [`topology`] — the PCIe interconnect (flat root or dual-socket) with
//!   full-duplex links and contention, used by the topology-aware reduction.
//! * [`stream`] — CUDA-stream-like timelines with separate copy and compute
//!   engines, so transfer/compute overlap (out-of-core prefetch) is modelled.
//! * [`multi`] — a [`multi::GpuCluster`] bundling several devices, their
//!   allocators, timelines and the interconnect.
//! * [`profiler`] — a timeline of simulated events for reporting.
//!
//! The *numerics* of the algorithms built on top of this crate run on the
//! host CPU; only *time* is simulated.  This preserves the paper's
//! experimental shape (which optimization wins, by what factor) without the
//! physical card.

#![forbid(unsafe_code)]
pub mod device;
pub mod mem;
pub mod multi;
pub mod occupancy;
pub mod profiler;
pub mod stream;
pub mod timing;
pub mod topology;
pub mod traffic;

pub use device::{DeviceSpec, MemoryKind, MemoryTableRow};
pub use mem::{AllocId, DeviceAllocator, OutOfMemory};
pub use multi::GpuCluster;
pub use occupancy::Occupancy;
pub use profiler::{EventKind, Profiler};
pub use stream::DeviceTimeline;
pub use timing::{KernelTiming, TimingModel};
pub use topology::{Endpoint, PcieTopology, TopologyKind, Transfer};
pub use traffic::KernelTraffic;

/// Number of bytes in one GiB, used throughout the simulator.
pub const GIB: u64 = 1 << 30;

/// Number of bytes in a single-precision float.
pub const F32_BYTES: u64 = 4;
