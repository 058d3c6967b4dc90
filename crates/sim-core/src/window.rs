//! Sliding-window power-limit evaluation.
//!
//! Power limits in the paper are specified as *"at most `P` watts averaged
//! over window `W`"* — 100 W over 20 µs for the package-pin limit (§5.1) and
//! 100 W over 1 ms for the off-package VR limit (§5.2). Evaluating such a
//! limit over a multi-hundred-millisecond run requires the windowed average
//! at every sample, so both trackers here are O(1) per sample:
//!
//! * [`SlidingWindowAvg`] — ring buffer with a running sum (periodically
//!   recomputed to bound floating-point drift).
//! * [`WindowedMaxTracker`] — feeds a [`SlidingWindowAvg`] and keeps the
//!   maximum windowed average seen, which is exactly the "maximum power /
//!   limit" metric of Figures 4 and 7.

/// Running average over the last `capacity` samples (a fixed time window when
/// samples arrive on a fixed tick).
#[derive(Debug, Clone)]
pub struct SlidingWindowAvg {
    buf: Vec<f64>,
    head: usize,
    filled: usize,
    sum: f64,
    /// Pushes since the last exact-sum recomputation.
    since_resync: usize,
}

impl SlidingWindowAvg {
    /// Create a window holding `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindowAvg {
            buf: vec![0.0; capacity],
            head: 0,
            filled: 0,
            sum: 0.0,
            since_resync: 0,
        }
    }

    /// Number of samples the window holds when full.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of samples currently in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True when no samples have been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// True once the window has seen at least `capacity` samples.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.filled == self.buf.len()
    }

    /// Push a sample, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, sample: f64) {
        let cap = self.buf.len();
        // `head < cap` always holds (`new`, the wrap below and `load_state`
        // keep it), so the slot exists.
        if let Some(slot) = self.buf.get_mut(self.head) {
            if self.filled == cap {
                self.sum -= *slot;
            } else {
                self.filled += 1;
            }
            *slot = sample;
        }
        self.sum += sample;
        self.head += 1;
        if self.head == cap {
            self.head = 0;
        }

        // A running +=/-= sum accumulates rounding error over hundreds of
        // millions of pushes; recompute exactly once per ~64 window turnovers.
        self.since_resync += 1;
        if self.since_resync >= cap.saturating_mul(64).max(1 << 16) {
            self.sum = self.buf.iter().take(self.filled).sum();
            self.since_resync = 0;
        }
    }

    /// Average over the samples currently held (partial window at startup).
    ///
    /// Returns 0.0 if empty.
    #[inline]
    pub fn average(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            self.sum / self.filled as f64
        }
    }

    /// Average over the full window, or `None` until the window has filled.
    ///
    /// Power limits are only meaningful over their full specification window,
    /// so limit evaluation uses this accessor.
    #[inline]
    pub fn full_average(&self) -> Option<f64> {
        if self.is_full() {
            Some(self.sum / self.buf.len() as f64)
        } else {
            None
        }
    }

    /// Drop all samples.
    pub fn reset(&mut self) {
        self.buf.fill(0.0);
        self.head = 0;
        self.filled = 0;
        self.sum = 0.0;
        self.since_resync = 0;
    }
}

/// Tracks the maximum windowed average of a sample stream.
///
/// This is the "maximum power relative to the power limit" metric of
/// Figures 4 and 7: feed instantaneous power every tick, read
/// [`WindowedMaxTracker::max`] at the end of the run.
///
/// ```
/// use hcapp_sim_core::window::WindowedMaxTracker;
///
/// // A 4-sample window over a stream with a 2-sample spike: the spike only
/// // half-fills the window, so the tracked max is the blended average.
/// let mut tracker = WindowedMaxTracker::new(4);
/// for p in [50.0, 50.0, 50.0, 50.0, 150.0, 150.0, 50.0, 50.0] {
///     tracker.push(p);
/// }
/// assert_eq!(tracker.max(), Some(100.0));
/// ```
#[derive(Debug, Clone)]
pub struct WindowedMaxTracker {
    window: SlidingWindowAvg,
    max: f64,
    seen_full: bool,
}

impl WindowedMaxTracker {
    /// Track the max average over windows of `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        WindowedMaxTracker {
            window: SlidingWindowAvg::new(capacity),
            max: f64::NEG_INFINITY,
            seen_full: false,
        }
    }

    /// Push one sample.
    #[inline]
    pub fn push(&mut self, sample: f64) {
        self.window.push(sample);
        if let Some(avg) = self.window.full_average() {
            self.seen_full = true;
            if avg > self.max {
                self.max = avg;
            }
        }
    }

    /// Maximum full-window average observed, or `None` if the stream was
    /// shorter than one window.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        if self.seen_full {
            Some(self.max)
        } else {
            None
        }
    }

    /// Window capacity in samples.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.window.capacity()
    }

    /// Reset to the empty state.
    pub fn reset(&mut self) {
        self.window.reset();
        self.max = f64::NEG_INFINITY;
        self.seen_full = false;
    }
}

impl crate::state::Snapshot for SlidingWindowAvg {
    fn save_state(&self, w: &mut crate::state::StateWriter) {
        w.f64_slice("win.buf", &self.buf);
        w.usize("win.head", self.head);
        w.usize("win.filled", self.filled);
        w.f64("win.sum", self.sum);
        w.usize("win.resync", self.since_resync);
    }

    fn load_state(&mut self, r: &mut crate::state::StateReader<'_>) -> Option<()> {
        let buf = r.f64_vec("win.buf")?;
        if buf.len() != self.buf.len() {
            return None;
        }
        self.buf = buf;
        self.head = r.usize("win.head")?;
        self.filled = r.usize("win.filled")?;
        if self.head >= self.buf.len() || self.filled > self.buf.len() {
            return None;
        }
        self.sum = r.f64("win.sum")?;
        self.since_resync = r.usize("win.resync")?;
        Some(())
    }
}

impl crate::state::Snapshot for WindowedMaxTracker {
    fn save_state(&self, w: &mut crate::state::StateWriter) {
        self.window.save_state(w);
        w.f64("win.max", self.max);
        w.bool("win.seen_full", self.seen_full);
    }

    fn load_state(&mut self, r: &mut crate::state::StateReader<'_>) -> Option<()> {
        self.window.load_state(r)?;
        self.max = r.f64("win.max")?;
        self.seen_full = r.bool("win.seen_full")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindowAvg::new(0);
    }

    #[test]
    fn partial_then_full_average() {
        let mut w = SlidingWindowAvg::new(4);
        assert!(w.is_empty());
        assert_eq!(w.average(), 0.0);
        assert_eq!(w.full_average(), None);
        w.push(2.0);
        w.push(4.0);
        assert_eq!(w.len(), 2);
        assert!((w.average() - 3.0).abs() < 1e-12);
        assert_eq!(w.full_average(), None);
        w.push(6.0);
        w.push(8.0);
        assert!(w.is_full());
        assert!((w.full_average().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_fifo() {
        let mut w = SlidingWindowAvg::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        // Window now holds [2, 3, 4].
        assert!((w.full_average().unwrap() - 3.0).abs() < 1e-12);
        w.push(10.0); // [3, 4, 10]
        assert!((w.full_average().unwrap() - 17.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn long_stream_matches_naive() {
        let cap = 37;
        let mut w = SlidingWindowAvg::new(cap);
        let mut naive: Vec<f64> = Vec::new();
        let mut rng = crate::rng::DeterministicRng::new(99);
        for i in 0..200_000 {
            let x = rng.uniform(0.0, 150.0);
            w.push(x);
            naive.push(x);
            if i >= cap - 1 {
                let start = naive.len() - cap;
                let expect: f64 = naive[start..].iter().sum::<f64>() / cap as f64;
                let got = w.full_average().unwrap();
                assert!(
                    (got - expect).abs() < 1e-6,
                    "drift at {i}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn tracker_requires_full_window() {
        let mut t = WindowedMaxTracker::new(5);
        for _ in 0..4 {
            t.push(100.0);
        }
        assert_eq!(t.max(), None);
        t.push(100.0);
        assert!((t.max().unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_finds_burst() {
        // 100 samples of 50 W with a 10-sample burst of 150 W in the middle:
        // the max 10-sample window average is exactly 150.
        let mut t = WindowedMaxTracker::new(10);
        for i in 0..100 {
            let p = if (45..55).contains(&i) { 150.0 } else { 50.0 };
            t.push(p);
        }
        assert!((t.max().unwrap() - 150.0).abs() < 1e-9);

        // A 5-sample burst only half-fills the window: max average is 100.
        let mut t = WindowedMaxTracker::new(10);
        for i in 0..100 {
            let p = if (45..50).contains(&i) { 150.0 } else { 50.0 };
            t.push(p);
        }
        assert!((t.max().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tracker_reset() {
        let mut t = WindowedMaxTracker::new(2);
        t.push(10.0);
        t.push(20.0);
        assert!(t.max().is_some());
        t.reset();
        assert_eq!(t.max(), None);
        t.push(1.0);
        t.push(3.0);
        assert!((t.max().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn window_reset() {
        let mut w = SlidingWindowAvg::new(3);
        w.push(5.0);
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.average(), 0.0);
    }
}
