//! GPU device specifications.
//!
//! The presets correspond to the hardware the paper evaluates on:
//!
//! * **Titan X** (Maxwell): 24 SMs × 128 cores = 3072 CUDA cores, ~1.0 GHz,
//!   256 KB register file and 96 KB shared memory per SM, 12 GB GDDR5 at
//!   336 GB/s (§5.1 of the paper).
//! * **GK210** (one half of a Tesla K80): 13 SMX × 192 cores = 2496 cores,
//!   0.875 GHz boost, 512 KB register file and 112 KB shared memory per SMX,
//!   12 GB at 240 GB/s (§5.5 of the paper).

use crate::GIB;

/// Kinds of programmable GPU memory, mirroring Table 4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Large, high-latency, application-scoped DRAM.
    Global,
    /// Medium-size read-only cache with spatial-locality benefit.
    Texture,
    /// Small, low-latency, per-thread-block scratchpad.
    Shared,
    /// Per-thread registers: lowest latency, not dynamically indexable.
    Register,
}

/// One row of the paper's Table 4 ("Programmable GPU memory").
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryTableRow {
    /// Which memory this row describes.
    pub kind: MemoryKind,
    /// Human-readable size class ("large", "medium", "small").
    pub size: &'static str,
    /// Human-readable latency class.
    pub latency: &'static str,
    /// Scope of the memory ("application", "thread block", "thread").
    pub scope: &'static str,
}

/// Specification of a single GPU device for the performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "Titan X".
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Register file per SM in KiB (the paper stresses this is larger than
    /// shared memory: 256 KB vs 96 KB on Maxwell).
    pub register_file_per_sm_kib: u32,
    /// Shared memory per SM in KiB.
    pub shared_mem_per_sm_kib: u32,
    /// Maximum shared memory a single thread block may allocate, in KiB.
    pub shared_mem_per_block_kib: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum registers addressable by one thread.
    pub max_registers_per_thread: u32,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Global memory bandwidth in GB/s.
    pub global_bw_gbs: f64,
    /// Effective bandwidth of texture-cache hits in GB/s (reads that miss
    /// fall back to global bandwidth).
    pub texture_bw_gbs: f64,
    /// Aggregate shared-memory bandwidth in GB/s.
    pub shared_bw_gbs: f64,
    /// PCIe link bandwidth to the host in GB/s (per direction).
    pub pcie_gbs: f64,
}

impl DeviceSpec {
    /// NVIDIA GeForce GTX Titan X (Maxwell), the card used in §5.2–5.4.
    pub fn titan_x() -> Self {
        Self {
            name: "Titan X".to_string(),
            num_sms: 24,
            cores_per_sm: 128,
            clock_ghz: 1.0,
            register_file_per_sm_kib: 256,
            shared_mem_per_sm_kib: 96,
            shared_mem_per_block_kib: 48,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            max_registers_per_thread: 255,
            global_mem_bytes: 12 * GIB,
            global_bw_gbs: 336.0,
            texture_bw_gbs: 650.0,
            shared_bw_gbs: 2000.0,
            pcie_gbs: 16.0,
        }
    }

    /// One GK210 die (half of a Tesla K80), the card used in §5.5.
    pub fn gk210() -> Self {
        Self {
            name: "GK210 (K80 half)".to_string(),
            num_sms: 13,
            cores_per_sm: 192,
            clock_ghz: 0.875,
            register_file_per_sm_kib: 512,
            shared_mem_per_sm_kib: 112,
            shared_mem_per_block_kib: 48,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 16,
            max_registers_per_thread: 255,
            global_mem_bytes: 12 * GIB,
            global_bw_gbs: 240.0,
            texture_bw_gbs: 480.0,
            shared_bw_gbs: 1500.0,
            pcie_gbs: 16.0,
        }
    }

    /// Peak single-precision throughput in GFLOP/s (2 FLOPs per FMA per core
    /// per cycle).
    pub(crate) fn peak_gflops(&self) -> f64 {
        2.0 * self.num_sms as f64 * self.cores_per_sm as f64 * self.clock_ghz
    }

    /// How many single-precision floats fit in global memory (the paper's
    /// "each device would only be able to load 3 billion single precision
    /// floats" for 12 GB).
    pub fn global_mem_f32_capacity(&self) -> u64 {
        self.global_mem_bytes / crate::F32_BYTES
    }

    /// The paper's Table 4: characteristics of the programmable memories.
    pub fn memory_table() -> Vec<MemoryTableRow> {
        vec![
            MemoryTableRow {
                kind: MemoryKind::Global,
                size: "large",
                latency: "high",
                scope: "application",
            },
            MemoryTableRow {
                kind: MemoryKind::Texture,
                size: "medium",
                latency: "medium",
                scope: "application, read-only",
            },
            MemoryTableRow {
                kind: MemoryKind::Shared,
                size: "small",
                latency: "low",
                scope: "thread block",
            },
            MemoryTableRow {
                kind: MemoryKind::Register,
                size: "small",
                latency: "lowest",
                scope: "thread; not indexable",
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_cores(d: &DeviceSpec) -> u32 {
        d.num_sms * d.cores_per_sm
    }

    #[test]
    fn titan_x_matches_paper_headline_numbers() {
        let d = DeviceSpec::titan_x();
        assert_eq!(total_cores(&d), 3072);
        assert_eq!(d.global_mem_bytes, 12 * GIB);
        // ~6.1 TFLOP/s single precision.
        assert!((d.peak_gflops() - 6144.0).abs() < 1.0);
        // 12 GB / 4 B = 3.2e9 floats ≈ "3 billion floats" in the paper.
        assert!(d.global_mem_f32_capacity() > 3_000_000_000);
        assert!(d.global_mem_f32_capacity() < 3_500_000_000);
    }

    #[test]
    fn gk210_has_fewer_cores_than_titan_x() {
        let k = DeviceSpec::gk210();
        let t = DeviceSpec::titan_x();
        assert_eq!(total_cores(&k), 2496);
        assert!(total_cores(&k) < total_cores(&t));
        assert!(k.peak_gflops() < t.peak_gflops());
    }

    #[test]
    fn register_file_larger_than_shared_memory() {
        // §3.4: "the GPU register file ... is larger ... than its shared memory".
        for d in [DeviceSpec::titan_x(), DeviceSpec::gk210()] {
            assert!(d.register_file_per_sm_kib > d.shared_mem_per_sm_kib);
        }
    }

    #[test]
    fn memory_table_matches_table4_ordering() {
        let t = DeviceSpec::memory_table();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].kind, MemoryKind::Global);
        assert_eq!(t[3].kind, MemoryKind::Register);
        assert_eq!(t[3].latency, "lowest");
    }
}
