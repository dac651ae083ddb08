//! CUDA occupancy model.
//!
//! §3.3 of the paper explains the `bin`-size trade-off: staging a wider slice
//! of `Θᵀ_u` in shared memory speeds up the inner loop but "if a single
//! thread block consumes too much shared memory, other blocks are prohibited
//! from launching, resulting in low parallelism".  §3.4 adds the register
//! pressure side: holding the `f × f` accumulator in registers costs
//! `f²/f = f` registers per thread (plus scratch), which also bounds the
//! number of resident blocks.  This module computes exactly that resident-
//! block limit.

use crate::DeviceSpec;

/// Result of the occupancy calculation for one kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Resident thread blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident threads per SM (`blocks_per_sm × block_threads`).
    pub active_threads_per_sm: u32,
    /// Fraction of the SM's maximum resident threads that are active
    /// (0.0–1.0).
    pub occupancy: f64,
    /// Which resource bounds the launch.
    pub limiter: Limiter,
}

/// The resource that limits how many blocks are resident on one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// The hardware cap on resident blocks.
    BlockSlots,
    /// The cap on resident threads.
    Threads,
    /// Shared-memory capacity.
    SharedMemory,
    /// Register-file capacity.
    Registers,
    /// The launch does not fit at all (zero resident blocks).
    DoesNotFit,
}

impl Occupancy {
    /// Computes occupancy for a kernel where each block has `block_threads`
    /// threads, each thread uses `regs_per_thread` 32-bit registers and each
    /// block allocates `shared_per_block_bytes` bytes of shared memory.
    pub fn compute(
        spec: &DeviceSpec,
        block_threads: u32,
        regs_per_thread: u32,
        shared_per_block_bytes: u32,
    ) -> Occupancy {
        assert!(block_threads > 0, "a block must have at least one thread");

        // Hard per-block validity checks first.
        let fits = block_threads <= spec.max_threads_per_block
            && regs_per_thread <= spec.max_registers_per_thread
            && shared_per_block_bytes <= spec.shared_mem_per_block_kib * 1024;
        if !fits {
            return Occupancy {
                blocks_per_sm: 0,
                active_threads_per_sm: 0,
                occupancy: 0.0,
                limiter: Limiter::DoesNotFit,
            };
        }

        let by_slots = spec.max_blocks_per_sm;
        let by_threads = spec.max_threads_per_sm / block_threads;
        let by_shared = (spec.shared_mem_per_sm_kib * 1024)
            .checked_div(shared_per_block_bytes)
            .unwrap_or(u32::MAX);
        let regs_per_block = regs_per_thread as u64 * block_threads as u64 * 4;
        let by_regs = (spec.register_file_per_sm_kib as u64 * 1024)
            .checked_div(regs_per_block)
            .map_or(u32::MAX, |b| b as u32);

        let blocks = by_slots.min(by_threads).min(by_shared).min(by_regs);
        let limiter = if blocks == 0 {
            Limiter::DoesNotFit
        } else if blocks == by_regs
            && by_regs <= by_shared
            && by_regs <= by_threads
            && by_regs <= by_slots
        {
            Limiter::Registers
        } else if blocks == by_shared && by_shared <= by_threads && by_shared <= by_slots {
            Limiter::SharedMemory
        } else if blocks == by_threads && by_threads <= by_slots {
            Limiter::Threads
        } else {
            Limiter::BlockSlots
        };

        let active = blocks * block_threads;
        Occupancy {
            blocks_per_sm: blocks,
            active_threads_per_sm: active,
            occupancy: active as f64 / spec.max_threads_per_sm as f64,
            limiter,
        }
    }
}

/// Shared-memory bytes used by MO-ALS's per-block staging buffer
/// `Θᵀ_u[bin]`: `f × bin` single-precision floats (Algorithm 2, line 6).
pub fn mo_als_shared_bytes(f: u32, bin: u32) -> u32 {
    f * bin * crate::F32_BYTES as u32
}

/// Register count per thread for MO-ALS's register-held accumulator: the
/// `f × f` tile `A_u` is distributed over the block's `f` threads, i.e. `f`
/// accumulator registers per thread plus a fixed amount of scratch
/// (θ element, loop counters, pointers).
pub fn mo_als_regs_per_thread(f: u32, use_registers: bool) -> u32 {
    let scratch = 24;
    if use_registers {
        f + scratch
    } else {
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_kernel_is_limited_by_block_slots() {
        let spec = DeviceSpec::titan_x();
        let occ = Occupancy::compute(&spec, 32, 16, 0);
        assert_eq!(occ.limiter, Limiter::BlockSlots);
        assert_eq!(occ.blocks_per_sm, spec.max_blocks_per_sm);
    }

    #[test]
    fn thread_heavy_kernel_is_limited_by_threads() {
        let spec = DeviceSpec::titan_x();
        let occ = Occupancy::compute(&spec, 1024, 16, 0);
        assert_eq!(occ.limiter, Limiter::Threads);
        assert_eq!(occ.blocks_per_sm, 2);
        assert!((occ.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_limits_large_bins() {
        let spec = DeviceSpec::titan_x();
        // f = 100 threads per block, bin = 100 → 100*100*4 = 40 KB per block;
        // 96 KB shared per SM allows only 2 resident blocks.
        let shared = mo_als_shared_bytes(100, 100);
        let occ = Occupancy::compute(&spec, 100, 32, shared);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
        assert_eq!(occ.blocks_per_sm, 2);

        // With the paper's recommended bin in 10..30 the limit moves away
        // from shared memory and parallelism is much higher.
        let shared_small = mo_als_shared_bytes(100, 10);
        let occ_small = Occupancy::compute(&spec, 100, 32, shared_small);
        assert!(occ_small.blocks_per_sm > occ.blocks_per_sm);
        assert_ne!(occ_small.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn register_accumulator_limits_occupancy_for_large_f() {
        let spec = DeviceSpec::titan_x();
        // f = 100: 124 regs/thread × 100 threads × 4 B ≈ 49.6 KB per block;
        // the 256 KB register file allows 5 blocks.
        let regs = mo_als_regs_per_thread(100, true);
        let occ = Occupancy::compute(&spec, 100, regs, mo_als_shared_bytes(100, 20));
        assert_eq!(occ.limiter, Limiter::Registers);
        assert_eq!(occ.blocks_per_sm, 5);
        // Without register blocking more blocks fit.
        let occ_no_reg = Occupancy::compute(
            &spec,
            100,
            mo_als_regs_per_thread(100, false),
            mo_als_shared_bytes(100, 20),
        );
        assert!(occ_no_reg.blocks_per_sm > occ.blocks_per_sm);
    }

    #[test]
    fn oversized_block_does_not_fit() {
        let spec = DeviceSpec::titan_x();
        let occ = Occupancy::compute(&spec, 2048, 16, 0);
        assert_eq!(occ.limiter, Limiter::DoesNotFit);
        assert_eq!(occ.blocks_per_sm, 0);
        let occ = Occupancy::compute(&spec, 128, 16, 96 * 1024);
        assert_eq!(occ.limiter, Limiter::DoesNotFit);
    }
}
