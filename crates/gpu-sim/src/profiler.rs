//! A lightweight timeline profiler for simulated events.
//!
//! The ALS engines record every simulated kernel, transfer and reduction here
//! so the benchmark harness can answer "where did the iteration's time go",
//! mirroring what `nvprof` provides on real hardware.

use std::sync::Arc;
use std::sync::Mutex;

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

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEvent {
    /// Device index the event ran on (`usize::MAX` for host-side events).
    pub device: usize,
    /// Human-readable name, e.g. `"get_hermitian_x"`.
    pub name: String,
    /// Category.
    pub kind: EventKind,
    /// Simulated start time in seconds.
    pub start: f64,
    /// Simulated duration in seconds.
    pub duration: f64,
}

/// Thread-safe collector of simulated events.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    events: Arc<Mutex<Vec<ProfileEvent>>>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event.
    pub fn record(&self, device: usize, name: &str, kind: EventKind, start: f64, duration: f64) {
        self.events.lock().unwrap().push(ProfileEvent {
            device,
            name: name.to_string(),
            kind,
            start,
            duration,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
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
    fn record_keeps_events_in_order() {
        let p = Profiler::new();
        assert!(p.is_empty());
        p.record(0, "get_hermitian_x", EventKind::Kernel, 0.0, 2.0);
        p.record(0, "batch_solve", EventKind::Kernel, 2.0, 1.0);
        p.record(1, "reduce", EventKind::Reduction, 3.0, 0.5);
        assert_eq!(p.len(), 3);
        let events = p.events.lock().unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["get_hermitian_x", "batch_solve", "reduce"]);
        assert_eq!(events[2].kind, EventKind::Reduction);
        assert_eq!(events[2].device, 1);
        assert_eq!(events[2].start + events[2].duration, 3.5);
    }

    #[test]
    fn clones_share_the_same_buffer() {
        let p = Profiler::new();
        let p2 = p.clone();
        p2.record(0, "k", EventKind::Kernel, 0.0, 1.0);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        p.record(t, "k", EventKind::Kernel, i as f64, 0.1);
                    }
                });
            }
        });
        assert_eq!(p.len(), 400);
    }
}
