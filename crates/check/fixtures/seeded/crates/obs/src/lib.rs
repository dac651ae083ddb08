//! Seeded-fixture obs crate: unjustified orderings, a facade bypass, and
//! a public entry point missing from SURFACE.txt.
use std::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counter {
    hits: AtomicU64,
    guard: Mutex<u64>,
}

impl Counter {
    pub fn bump(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn read(&self) -> u64 {
        self.hits.load(Ordering::Acquire)
    }

    pub fn locked(&self) -> u64 {
        *self.guard.lock().unwrap_or_else(|p| p.into_inner())
    }
}

pub fn unrecorded_entry_point() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_test_mod_is_exempt() {
        let c = Counter { hits: AtomicU64::new(0), guard: Mutex::new(0) };
        c.hits.fetch_add(1, Ordering::Relaxed); // IN_TEST_MOD
        let _ = c.hits.load(Ordering::SeqCst); // IN_TEST_MOD
        let _ = std::sync::Arc::new(()); // IN_TEST_MOD
    }
}
