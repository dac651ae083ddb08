//! A lightweight profiler for simulated events.
//!
//! The ALS engines record every simulated kernel and transfer here, so the
//! benchmark harness can answer "where did the iteration's time go",
//! mirroring what `nvprof` provides on real hardware.  The profiler keeps
//! one event count and one sum of simulated seconds per [`EventKind`], so
//! its memory stays constant however long a run records.

use std::sync::{Arc, Mutex, PoisonError};

/// Category of a simulated event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// A compute kernel (e.g. `get_hermitian`, `batch_solve`).
    Kernel,
    /// A host↔device or device↔device transfer.
    Transfer,
    /// A cross-GPU reduction step.
    Reduction,
    /// Host-side work (partitioning, planning, checkpointing).
    Host,
}

const KINDS: usize = 4;

/// Thread-safe per-kind totals of simulated events.  Clones share the
/// same totals.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// `(events, simulated seconds)` per [`EventKind`], by discriminant.
    totals: Arc<Mutex<[(usize, f64); KINDS]>>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, [(usize, f64); KINDS]> {
        // Every update is one add to one pair, so a panic elsewhere while
        // the lock was held cannot have left the totals half-written.
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event of `kind` lasting `duration` simulated seconds.
    pub fn record(&self, kind: EventKind, duration: f64) {
        let total = &mut self.totals()[kind as usize];
        total.0 += 1;
        total.1 += duration;
    }

    /// `(events, summed simulated seconds)` recorded of `kind`.
    pub fn total(&self, kind: EventKind) -> (usize, f64) {
        self.totals()[kind as usize]
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.totals().iter().map(|&(events, _)| events).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_and_sums_each_kind() {
        let p = Profiler::new();
        assert!(p.is_empty());
        p.record(EventKind::Kernel, 2.0);
        p.record(EventKind::Kernel, 1.0);
        p.record(EventKind::Reduction, 0.5);
        assert_eq!(p.len(), 3);
        assert_eq!(p.total(EventKind::Kernel), (2, 3.0));
        assert_eq!(p.total(EventKind::Reduction), (1, 0.5));
        assert_eq!(p.total(EventKind::Transfer), (0, 0.0));
        assert_eq!(p.total(EventKind::Host), (0, 0.0));
    }

    #[test]
    fn clones_share_the_same_buffer() {
        let p = Profiler::new();
        let p2 = p.clone();
        p2.record(EventKind::Kernel, 1.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.total(EventKind::Kernel), (1, 1.0));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        p.record(EventKind::Kernel, 0.25);
                    }
                });
            }
        });
        assert_eq!(p.len(), 400);
        assert_eq!(p.total(EventKind::Kernel), (400, 100.0));
    }
}
