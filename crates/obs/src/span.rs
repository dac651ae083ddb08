//! Per-request traces and the sampled trace log.
//!
//! A [`Trace`] is the per-request record stage timings get stamped onto as
//! the request moves through a pipeline (enqueue → dequeue → score → reply):
//! a list of [`TraceEvent`]s with offsets relative to the trace's origin.
//!
//! Traces allocate, so the hot path must not build one per request: a
//! [`Sampler`] admits every `N`-th request (default 1/64 in the serving
//! tier) and everyone else pays a single relaxed `fetch_add`.  Completed
//! traces land in a fixed-capacity [`TraceLog`] ring buffer and can be
//! drained as JSONL for offline analysis — the same role the paper's
//! profiler traces played for the Hermitian-assembly bottleneck hunt.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

/// Saturating nanoseconds from `start` to `end` (`0` if `end < start`).
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    end.checked_duration_since(start)
        .map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64)
}

/// One timed stage inside a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stage name (static so recording never allocates for the label).
    pub stage: &'static str,
    /// Offset of the stage start from the trace origin, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

/// The record of one sampled request's journey through the pipeline.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Sequential trace id (sampler admission order).
    pub id: u64,
    origin: Instant,
    /// Timed stages, in recording order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Opens a trace whose origin is *now* (stamp it at request arrival).
    pub fn begin(id: u64) -> Self {
        Self {
            id,
            origin: Instant::now(),
            events: Vec::with_capacity(8),
        }
    }

    /// The trace origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a stage spanning `start..end` (instants from the same clock
    /// as the origin).
    pub fn event_between(&mut self, stage: &'static str, start: Instant, end: Instant) {
        self.events.push(TraceEvent {
            stage,
            start_ns: ns_between(self.origin, start),
            dur_ns: ns_between(start, end),
        });
    }

    /// End-to-end span covered by the recorded events (origin to the last
    /// event's end), in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.start_ns.saturating_add(e.dur_ns))
            .max()
            .unwrap_or(0)
    }

    /// One JSONL line: `{"trace":id,"total_ns":…,"stages":{name:{"start_ns":…,"dur_ns":…},…}}`.
    /// Stage names are static identifiers, so no escaping is needed.
    fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 48);
        out.push_str(&format!(
            "{{\"trace\":{},\"total_ns\":{},\"stages\":{{",
            self.id,
            self.total_ns()
        ));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"start_ns\":{},\"dur_ns\":{}}}",
                e.stage, e.start_ns, e.dur_ns
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Deterministic 1-in-`every` admission: request `0, every, 2·every, …` are
/// sampled.  `every = 0` disables sampling entirely, `every = 1` samples
/// everything.  One relaxed `fetch_add` per decision.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    counter: AtomicU64,
}

impl Sampler {
    /// A sampler admitting one in `every` calls.
    pub fn new(every: u64) -> Self {
        Self {
            every,
            counter: AtomicU64::new(0),
        }
    }

    /// The configured rate (`0` = off).
    pub fn rate(&self) -> u64 {
        self.every
    }

    /// Whether this call is sampled.
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed) // relaxed-ok: sequence numbers only need uniqueness, not order
            .is_multiple_of(self.every)
    }
}

/// A fixed-capacity ring buffer of completed traces: pushing past capacity
/// drops the oldest, so the log holds the most recent window at a bounded
/// memory cost and the hot path never blocks on a reader for long.
#[derive(Debug)]
pub struct TraceLog {
    capacity: usize,
    ring: Mutex<VecDeque<Trace>>,
}

impl TraceLog {
    /// A log retaining at most `capacity` traces (`0` keeps none).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Appends a completed trace, evicting the oldest at capacity.
    pub fn push(&self, trace: Trace) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the retained traces as JSONL (one trace per line).
    pub fn to_jsonl(&self) -> String {
        let traces = self.snapshot();
        let mut out = String::new();
        for t in &traces {
            out.push_str(&t.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_offsets_are_relative_to_origin() {
        let mut t = Trace::begin(7);
        let origin = t.origin();
        let a = origin + Duration::from_micros(10);
        let b = origin + Duration::from_micros(25);
        t.event_between("queue_wait", origin, a);
        t.event_between("score", a, b);
        assert_eq!(t.events[0].start_ns, 0);
        assert_eq!(t.events[0].dur_ns, 10_000);
        assert_eq!(t.events[1].start_ns, 10_000);
        assert_eq!(t.events[1].dur_ns, 15_000);
        assert_eq!(t.total_ns(), 25_000);
        let line = t.to_json_line();
        assert!(line.starts_with("{\"trace\":7,"));
        assert!(line.contains("\"queue_wait\":{\"start_ns\":0,\"dur_ns\":10000}"));
        assert!(line.contains("\"score\""));
    }

    #[test]
    fn sampler_admits_one_in_n() {
        let s = Sampler::new(4);
        let admitted = (0..100).filter(|_| s.sample()).count();
        assert_eq!(admitted, 25);
        let off = Sampler::new(0);
        assert!((0..10).all(|_| !off.sample()));
        let all = Sampler::new(1);
        assert!((0..10).all(|_| all.sample()));
    }

    #[test]
    fn trace_log_is_a_ring() {
        let log = TraceLog::new(3);
        for id in 0..5 {
            log.push(Trace::begin(id));
        }
        let kept: Vec<u64> = log.snapshot().iter().map(|t| t.id).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(log.to_jsonl().lines().count(), 3);
        let none = TraceLog::new(0);
        none.push(Trace::begin(0));
        assert!(none.is_empty());
    }

    #[test]
    fn reversed_instants_saturate_to_zero() {
        let later = Instant::now() + Duration::from_millis(1);
        assert_eq!(ns_between(later, Instant::now()), 0);
    }
}
