//! CUDA-stream-like device timelines.
//!
//! cuMF hides out-of-core data loading behind compute by issuing transfers on
//! separate CUDA streams (§4.4: "separate CUDA streams to preload from host
//! memory to GPU memory … close-to-zero data loading time except for the
//! first load").  The simulator models each device as two engines — one
//! compute engine and one copy engine — that can run concurrently; operations
//! issued on the same engine serialize.

/// Simulated timeline of one device with independent compute and copy
/// engines (all times in seconds since an arbitrary origin).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceTimeline {
    compute_busy_until: f64,
    copy_busy_until: f64,
}

impl DeviceTimeline {
    /// A fresh timeline with both engines idle at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time: when both engines become idle.
    pub fn now(&self) -> f64 {
        self.compute_busy_until.max(self.copy_busy_until)
    }

    /// Enqueues a kernel of the given duration; it starts no earlier than
    /// `not_before` (a data dependency) and no earlier than the end of the
    /// previous kernel.  Returns the kernel's completion time.
    fn enqueue_compute_after(&mut self, duration: f64, not_before: f64) -> f64 {
        let start = self.compute_busy_until.max(not_before);
        self.compute_busy_until = start + duration;
        self.compute_busy_until
    }

    /// Enqueues a kernel right after the previous one.
    pub(crate) fn enqueue_compute(&mut self, duration: f64) -> f64 {
        self.enqueue_compute_after(duration, 0.0)
    }

    /// Enqueues a copy of the given duration on the copy engine; starts no
    /// earlier than `not_before`.  Returns the copy's completion time.
    pub(crate) fn enqueue_copy_after(&mut self, duration: f64, not_before: f64) -> f64 {
        let start = self.copy_busy_until.max(not_before);
        self.copy_busy_until = start + duration;
        self.copy_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_kernels_accumulate() {
        let mut t = DeviceTimeline::new();
        assert_eq!(t.enqueue_compute(1.0), 1.0);
        assert_eq!(t.enqueue_compute(2.0), 3.0);
        assert_eq!(t.now(), 3.0);
    }

    #[test]
    fn copy_overlaps_with_compute() {
        let mut t = DeviceTimeline::new();
        t.enqueue_compute(2.0);
        t.enqueue_copy_after(1.5, 0.0);
        // Copy runs concurrently with compute: total time is still 2.0.
        assert_eq!(t.now(), 2.0);
    }

    #[test]
    fn copy_longer_than_compute_is_exposed() {
        let mut t = DeviceTimeline::new();
        t.enqueue_compute(1.0);
        t.enqueue_copy_after(3.0, 0.0);
        assert_eq!(t.now(), 3.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut t = DeviceTimeline::new();
        let copy_done = t.enqueue_copy_after(1.0, 0.0);
        // Kernel depends on the copied data.
        let k_done = t.enqueue_compute_after(0.5, copy_done);
        assert_eq!(k_done, 1.5);
        // Next copy can start immediately (engine idle at 1.0) …
        let c2 = t.enqueue_copy_after(1.0, 0.0);
        assert_eq!(c2, 2.0);
        // … and the next kernel waits on it.
        let k2 = t.enqueue_compute_after(0.25, c2);
        assert_eq!(k2, 2.25);
    }
}
