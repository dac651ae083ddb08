//! Device-memory allocator with capacity tracking.
//!
//! The partition planner of SU-ALS (equation (8) of the paper) exists
//! precisely because a 12 GB device cannot hold `m` Hermitian matrices plus
//! `X`, `Θᵀ` and `R`.  This allocator makes that constraint a real, testable
//! error: attempting to place more bytes than the device holds fails with
//! [`OutOfMemory`].

use std::collections::HashMap;
use std::fmt;

/// Identifier of a live device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(u64);

/// Error returned when an allocation exceeds the remaining device capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes still available on the device.
    pub available: u64,
    /// Label of the failing allocation (for diagnostics).
    pub label: String,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: '{}' requested {} bytes but only {} available",
            self.label, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A capacity-tracking allocator for one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceAllocator {
    capacity: u64,
    used: u64,
    next_id: u64,
    live: HashMap<AllocId, (u64, String)>,
    peak: u64,
}

impl DeviceAllocator {
    /// Creates an allocator for a device with `capacity` bytes of global
    /// memory.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            next_id: 0,
            live: HashMap::new(),
            peak: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark of allocated bytes over the allocator's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Allocates `bytes` bytes under a diagnostic `label`.
    pub fn alloc(&mut self, label: &str, bytes: u64) -> Result<AllocId, OutOfMemory> {
        if bytes > self.available() {
            return Err(OutOfMemory {
                requested: bytes,
                available: self.available(),
                label: label.to_string(),
            });
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        self.live.insert(id, (bytes, label.to_string()));
        Ok(id)
    }

    /// Allocates room for `count` single-precision floats.
    pub fn alloc_f32(&mut self, label: &str, count: u64) -> Result<AllocId, OutOfMemory> {
        self.alloc(label, count * crate::F32_BYTES)
    }

    /// Frees a previous allocation; freeing an unknown id is a no-op and
    /// returns `false`.
    pub fn free(&mut self, id: AllocId) -> bool {
        if let Some((bytes, _)) = self.live.remove(&id) {
            self.used -= bytes;
            true
        } else {
            false
        }
    }

    /// Returns the size and label of a live allocation.
    pub fn lookup(&self, id: AllocId) -> Option<(u64, &str)> {
        self.live.get(&id).map(|(b, l)| (*b, l.as_str()))
    }

    /// A human-readable report of live allocations sorted by size
    /// (largest first).
    pub fn report(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.live.values().map(|(b, l)| (l.clone(), *b)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_tracks_usage() {
        let mut a = DeviceAllocator::new(1000);
        let id1 = a.alloc("theta", 400).unwrap();
        let id2 = a.alloc("x", 500).unwrap();
        assert_eq!(a.used(), 900);
        assert_eq!(a.available(), 100);
        assert_eq!(a.live.len(), 2);
        assert!(a.free(id1));
        assert_eq!(a.used(), 500);
        assert!(!a.free(id1), "double free is a no-op");
        assert!(a.free(id2));
        assert_eq!(a.used(), 0);
        assert_eq!(a.peak(), 900);
    }

    #[test]
    fn oom_is_reported_with_context() {
        let mut a = DeviceAllocator::new(100);
        a.alloc("small", 80).unwrap();
        let err = a.alloc("big", 50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.available, 20);
        assert!(err.to_string().contains("big"));
    }

    #[test]
    fn alloc_f32_counts_four_bytes_each() {
        let mut a = DeviceAllocator::new(100);
        a.alloc_f32("vec", 10).unwrap();
        assert_eq!(a.used(), 40);
    }

    #[test]
    fn exact_fit_succeeds_and_next_fails() {
        let mut a = DeviceAllocator::new(64);
        a.alloc("fit", 64).unwrap();
        assert!(a.alloc("one more byte", 1).is_err());
    }

    #[test]
    fn report_sorted_by_size() {
        let mut a = DeviceAllocator::new(1 << 20);
        a.alloc("small", 10).unwrap();
        a.alloc("large", 1000).unwrap();
        let r = a.report();
        assert_eq!(r[0].0, "large");
        assert_eq!(r[1].0, "small");
    }

    #[test]
    fn titan_x_cannot_hold_netflix_hermitians() {
        // §2.2: m=480K, f=100 ⇒ m·f² = 4.8e9 floats > 3e9-float capacity.
        let spec = crate::DeviceSpec::titan_x();
        let mut a = DeviceAllocator::new(spec.global_mem_bytes);
        let m = 480_000u64;
        let f = 100u64;
        assert!(a.alloc_f32("all hermitians", m * f * f).is_err());
    }
}
