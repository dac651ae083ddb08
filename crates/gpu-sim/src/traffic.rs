//! Per-kernel FLOP and byte counters.
//!
//! The memory optimizations of MO-ALS (§3.3 of the paper) do not change the
//! arithmetic at all — they change *where bytes move*.  `KernelTraffic` is the
//! ledger the ALS kernels fill in and the [`crate::TimingModel`] prices.

/// Traffic generated by one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTraffic {
    /// Single-precision floating-point operations.
    pub flops: f64,
    /// Bytes read from global memory (uncached, discontiguous gathers).
    pub global_read_bytes: f64,
    /// Bytes written to global memory.
    pub global_write_bytes: f64,
    /// Bytes read through the texture path.
    pub texture_read_bytes: f64,
    /// Fraction of texture reads served by the texture cache (0.0–1.0);
    /// misses fall through to global bandwidth.
    pub texture_hit_rate: f64,
    /// Bytes read from per-block shared memory.
    pub shared_read_bytes: f64,
    /// Bytes written to per-block shared memory.
    pub shared_write_bytes: f64,
    /// Bytes moved through the register file (effectively free, tracked for
    /// reporting the register-blocking factor).
    pub register_bytes: f64,
}

impl KernelTraffic {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes that hit the global-memory subsystem, accounting texture
    /// misses at global cost.
    pub(crate) fn effective_global_bytes(&self) -> f64 {
        self.global_read_bytes
            + self.global_write_bytes
            + self.texture_read_bytes * (1.0 - self.texture_hit_rate)
    }

    /// Total bytes served by the texture cache.
    pub fn texture_hit_bytes(&self) -> f64 {
        self.texture_read_bytes * self.texture_hit_rate
    }

    /// Total bytes moved through shared memory.
    pub(crate) fn shared_bytes(&self) -> f64 {
        self.shared_read_bytes + self.shared_write_bytes
    }

    /// Element-wise sum of two ledgers; the texture hit rate becomes the
    /// byte-weighted average.
    pub fn merge(&self, other: &KernelTraffic) -> KernelTraffic {
        let tex_total = self.texture_read_bytes + other.texture_read_bytes;
        let hit_rate = if tex_total > 0.0 {
            (self.texture_hit_bytes() + other.texture_hit_bytes()) / tex_total
        } else {
            0.0
        };
        KernelTraffic {
            flops: self.flops + other.flops,
            global_read_bytes: self.global_read_bytes + other.global_read_bytes,
            global_write_bytes: self.global_write_bytes + other.global_write_bytes,
            texture_read_bytes: tex_total,
            texture_hit_rate: hit_rate,
            shared_read_bytes: self.shared_read_bytes + other.shared_read_bytes,
            shared_write_bytes: self.shared_write_bytes + other.shared_write_bytes,
            register_bytes: self.register_bytes + other.register_bytes,
        }
    }

    /// Scales every counter by a constant (e.g. to extrapolate one batch to
    /// the full matrix).
    pub fn scale(&self, k: f64) -> KernelTraffic {
        KernelTraffic {
            flops: self.flops * k,
            global_read_bytes: self.global_read_bytes * k,
            global_write_bytes: self.global_write_bytes * k,
            texture_read_bytes: self.texture_read_bytes * k,
            texture_hit_rate: self.texture_hit_rate,
            shared_read_bytes: self.shared_read_bytes * k,
            shared_write_bytes: self.shared_write_bytes * k,
            register_bytes: self.register_bytes * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_global_accounts_texture_misses() {
        let t = KernelTraffic {
            global_read_bytes: 100.0,
            global_write_bytes: 50.0,
            texture_read_bytes: 200.0,
            texture_hit_rate: 0.75,
            ..KernelTraffic::new()
        };
        assert!((t.effective_global_bytes() - 200.0).abs() < 1e-9);
        assert!((t.texture_hit_bytes() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_and_averages_hit_rate() {
        let a = KernelTraffic {
            flops: 10.0,
            texture_read_bytes: 100.0,
            texture_hit_rate: 1.0,
            ..KernelTraffic::new()
        };
        let b = KernelTraffic {
            flops: 20.0,
            texture_read_bytes: 300.0,
            texture_hit_rate: 0.5,
            ..KernelTraffic::new()
        };
        let m = a.merge(&b);
        assert_eq!(m.flops, 30.0);
        assert_eq!(m.texture_read_bytes, 400.0);
        // (100*1.0 + 300*0.5)/400 = 0.625
        assert!((m.texture_hit_rate - 0.625).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = KernelTraffic {
            flops: 5.0,
            global_read_bytes: 7.0,
            shared_write_bytes: 3.0,
            ..KernelTraffic::new()
        };
        let m = a.merge(&KernelTraffic::new());
        assert_eq!(m.flops, 5.0);
        assert_eq!(m.global_read_bytes, 7.0);
        assert_eq!(m.shared_write_bytes, 3.0);
    }

    #[test]
    fn scale_multiplies_counters_but_not_hit_rate() {
        let a = KernelTraffic {
            flops: 2.0,
            global_read_bytes: 4.0,
            texture_read_bytes: 8.0,
            texture_hit_rate: 0.9,
            ..KernelTraffic::new()
        };
        let s = a.scale(10.0);
        assert_eq!(s.flops, 20.0);
        assert_eq!(s.global_read_bytes, 40.0);
        assert_eq!(s.texture_read_bytes, 80.0);
        assert_eq!(s.texture_hit_rate, 0.9);
    }
}
