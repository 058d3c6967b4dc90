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
//!
//! The ring is run-sized: it grows one slot per push until it holds a full
//! window and only then starts to wrap, so a run shorter than its window
//! (a 0.5 ms job under a 10 ms limit, or a `--window-us 1000000000` limit)
//! never allocates or zeroes the slots it cannot fill.
//! [`SlidingWindowAvg::with_run_len`] reserves `min(capacity, run_len)`
//! slots up front, so a stream of known length never reallocates. Growth is
//! invisible to every observer: the averages, the periodic resync (the
//! first `filled` slots, in slot order) and the checkpoint text (always
//! `capacity` slots, the unfilled tail written as zeros) are exactly those
//! of a ring zeroed to full capacity at construction (DESIGN §6j,
//! run-sized buffers).
//!
//! A growing ring folds its samples into the running sum lazily: a slice
//! push while it grows only appends, and the pending tail is added to the
//! sum, in order and from the same start value, when the ring fills, before
//! the next single push, and wherever the sum is read. A window longer than
//! the run (a 10 ms limit over a 0.5 ms job) then costs one copy per sample
//! instead of one dependent add (DESIGN §6j, obligation 17).

use crate::accum::CLOSED_FORM_MIN_TICKS;

/// Running average over the last `capacity` samples (a fixed time window when
/// samples arrive on a fixed tick).
#[derive(Debug, Clone)]
pub struct SlidingWindowAvg {
    /// Ring slots written so far: grows to `capacity` while the window
    /// fills (`head == buf.len()` until then), then wraps. A restored
    /// checkpoint installs all `capacity` slots at once.
    buf: Vec<f64>,
    capacity: usize,
    head: usize,
    filled: usize,
    /// Running sum of the window's samples, less the pending tail
    /// `buf[folded..]`.
    sum: f64,
    /// How much of `buf` is already in `sum`: the slots after it were
    /// appended by a growing [`WindowedMaxTracker::push_slice`] and are
    /// still to be added, in slot order. Not checkpointed; a restore
    /// installs a folded ring.
    folded: usize,
    /// Pushes since the last exact-sum recomputation.
    since_resync: usize,
}

impl SlidingWindowAvg {
    /// Create a window holding `capacity` samples. The ring grows as
    /// samples arrive; nothing is reserved up front.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_run_len(capacity, 0)
    }

    /// Create a window holding `capacity` samples for a stream expected to
    /// be `run_len` samples long: reserves `min(capacity, run_len)` slots,
    /// so the ring never reallocates for a stream of that length and never
    /// holds more than the stream can fill. Behaves exactly like
    /// [`SlidingWindowAvg::new`].
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_run_len(capacity: usize, run_len: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindowAvg {
            buf: Vec::with_capacity(capacity.min(run_len)),
            capacity,
            head: 0,
            filled: 0,
            sum: 0.0,
            folded: 0,
            since_resync: 0,
        }
    }

    /// Number of samples the window holds when full.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
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
        self.filled == self.capacity
    }

    /// Push a sample, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, sample: f64) {
        self.fold();
        let cap = self.capacity;
        if let Some(slot) = self.buf.get_mut(self.head) {
            if self.filled == cap {
                self.sum -= *slot;
            } else {
                self.filled += 1;
            }
            *slot = sample;
        } else {
            // The ring is still growing: `head == buf.len() < capacity`, so
            // the window is not full and the new slot is the next one.
            self.buf.push(sample);
            self.folded += 1;
            self.filled += 1;
        }
        self.sum += sample;
        self.head += 1;
        if self.head == cap {
            self.head = 0;
        }

        // A running +=/-= sum accumulates rounding error over hundreds of
        // millions of pushes; recompute exactly once per ~64 window turnovers.
        self.since_resync += 1;
        if self.since_resync >= self.resync_every() {
            self.sum = self.buf.iter().take(self.filled).sum();
            self.since_resync = 0;
        }
    }

    /// Add the pending tail `buf[folded..]` to the running sum, in slot
    /// order: the adds the per-sample pushes that appended it would have
    /// made.
    #[inline]
    fn fold(&mut self) {
        self.sum = self.folded_sum();
        self.folded = self.buf.len();
    }

    /// The running sum with the pending tail folded in, without storing it.
    #[inline]
    fn folded_sum(&self) -> f64 {
        let pending = self.buf.get(self.folded..).unwrap_or_default();
        pending.iter().fold(self.sum, |sum, &s| sum + s)
    }

    /// Pushes between exact-sum recomputations.
    #[inline]
    fn resync_every(&self) -> usize {
        self.capacity.saturating_mul(64).max(1 << 16)
    }

    /// How many of the next pushes are guaranteed not to recompute the
    /// sum (0 when the very next push does).
    #[inline]
    fn pushes_before_resync(&self) -> usize {
        self.resync_every()
            .saturating_sub(self.since_resync)
            .saturating_sub(1)
    }

    /// Average over the samples currently held (partial window at startup).
    ///
    /// Returns 0.0 if empty.
    #[inline]
    pub fn average(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            self.folded_sum() / self.filled as f64
        }
    }

    /// Average over the full window, or `None` until the window has filled.
    ///
    /// Power limits are only meaningful over their full specification window,
    /// so limit evaluation uses this accessor.
    #[inline]
    pub fn full_average(&self) -> Option<f64> {
        if self.is_full() {
            Some(self.folded_sum() / self.capacity as f64)
        } else {
            None
        }
    }

    /// Drop all samples. The ring keeps its allocation and grows again
    /// from empty.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.filled = 0;
        self.sum = 0.0;
        self.folded = 0;
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
        Self::with_run_len(capacity, 0)
    }

    /// Track the max average over windows of `capacity` samples of a
    /// stream expected to be `run_len` samples long (see
    /// [`SlidingWindowAvg::with_run_len`]).
    pub fn with_run_len(capacity: usize, run_len: usize) -> Self {
        WindowedMaxTracker {
            window: SlidingWindowAvg::with_run_len(capacity, run_len),
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

    /// Push `samples` in order. The tracker ends in exactly the state, bit
    /// for bit, that [`WindowedMaxTracker::push`] on each sample in turn
    /// leaves (DESIGN §6j, obligation 11), at a few adds per sample:
    ///
    /// * while the ring grows, the samples are only appended; they are
    ///   folded into the running sum when the ring fills (a growing window
    ///   is never full, so only its last push can move the max);
    /// * once the ring is full, a tight loop walks the ring from `head`
    ///   with the sum and the largest sum in locals, one contiguous stretch
    ///   at a time, up to the wrap or to the push before the next exact-sum
    ///   recomputation, and divides once per stretch; a long stretch
    ///   skips the arithmetic of pushes that are fixed points (DESIGN §6j,
    ///   obligation 23);
    /// * the push that recomputes the sum, and every push into a restored
    ///   ring that is still filling in place, go through `push` itself.
    pub fn push_slice(&mut self, samples: &[f64]) {
        let mut rest = samples;
        while let Some((&first, tail)) = rest.split_first() {
            let free = self.window.pushes_before_resync();
            let w = &self.window;
            let taken = if free == 0 || (w.buf.len() == w.capacity && w.filled < w.capacity) {
                0
            } else if w.buf.len() < w.capacity {
                self.grow(rest, free)
            } else {
                self.push_wrapped(rest, free)
            };
            rest = match taken {
                0 => {
                    self.push(first);
                    tail
                }
                k => rest.get(k..).unwrap_or_default(),
            };
        }
    }

    /// Append up to `free` samples to a growing ring (`head == filled ==
    /// buf.len() < capacity`), stopping when it fills, and fold the ring's
    /// pending tail into the sum once it has filled; returns how many.
    fn grow(&mut self, samples: &[f64], free: usize) -> usize {
        let w = &mut self.window;
        let k = (w.capacity - w.buf.len()).min(free).min(samples.len());
        let chunk = samples.get(..k).unwrap_or_default();
        w.buf.extend_from_slice(chunk);
        w.filled += k;
        w.head += k;
        if w.head == w.capacity {
            w.head = 0;
            w.fold();
        }
        w.since_resync += k;
        if let Some(avg) = w.full_average() {
            self.seen_full = true;
            if avg > self.max {
                self.max = avg;
            }
        }
        k
    }

    /// Push up to `free` samples into a full ring, from `head` to at most
    /// the wrap, with the sum and the largest sum in locals; returns how
    /// many. The largest average is the largest sum divided once:
    /// division by the positive capacity is monotone, so it is the value
    /// the per-sample maximum of `sum / capacity` reaches.
    fn push_wrapped(&mut self, samples: &[f64], free: usize) -> usize {
        let w = &mut self.window;
        let cap = w.capacity;
        let k = (cap - w.head).min(free).min(samples.len());
        let (Some(ring), Some(chunk)) = (w.buf.get_mut(w.head..w.head + k), samples.get(..k))
        else {
            return 0;
        };
        let (mut sum, mut best) = (w.sum, f64::NEG_INFINITY);
        if k >= CLOSED_FORM_MIN_TICKS {
            // A push whose leaving and entering samples are one value `a`
            // and that leaves the sum unchanged is a fixed point: every
            // later push of the same pair repeats it, and the largest sum
            // already holds it. The rest of that run only moves `head`.
            let mut i = 0;
            while let (Some(slot), Some(&s)) = (ring.get_mut(i), chunk.get(i)) {
                let (a, before) = (*slot, sum);
                sum -= a;
                *slot = s;
                sum += s;
                if sum > best {
                    best = sum;
                }
                i += 1;
                if a.to_bits() == s.to_bits() && sum.to_bits() == before.to_bits() {
                    let held = |(r, c): (&f64, &f64)| {
                        r.to_bits() == a.to_bits() && c.to_bits() == a.to_bits()
                    };
                    let ring_rest = ring.get(i..).unwrap_or_default();
                    let chunk_rest = chunk.get(i..).unwrap_or_default();
                    i += ring_rest
                        .iter()
                        .zip(chunk_rest)
                        .take_while(|&pair| held(pair))
                        .count();
                }
            }
        } else {
            for (slot, &s) in ring.iter_mut().zip(chunk) {
                sum -= *slot;
                *slot = s;
                sum += s;
                if sum > best {
                    best = sum;
                }
            }
        }
        w.sum = sum;
        w.head += k;
        if w.head == cap {
            w.head = 0;
        }
        w.since_resync += k;
        let avg = best / cap as f64;
        if avg > self.max {
            self.max = avg;
        }
        self.seen_full |= k > 0;
        k
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
        // Always `capacity` slots: a ring that is still growing writes its
        // unwritten tail as the zeros a full-size ring would hold there.
        if self.buf.len() == self.capacity {
            w.f64_slice("win.buf", &self.buf);
        } else {
            let mut full = Vec::with_capacity(self.capacity);
            full.extend_from_slice(&self.buf);
            full.resize(self.capacity, 0.0);
            w.f64_slice("win.buf", &full);
        }
        w.usize("win.head", self.head);
        w.usize("win.filled", self.filled);
        w.f64("win.sum", self.folded_sum());
        w.usize("win.resync", self.since_resync);
    }

    fn load_state(&mut self, r: &mut crate::state::StateReader<'_>) -> Option<()> {
        let buf = r.f64_vec("win.buf")?;
        if buf.len() != self.capacity {
            return None;
        }
        self.buf = buf;
        self.folded = self.buf.len();
        self.head = r.usize("win.head")?;
        self.filled = r.usize("win.filled")?;
        if self.head >= self.capacity || self.filled > self.capacity {
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

    /// A ring zeroed to full capacity at construction: the oracle a
    /// growing [`SlidingWindowAvg`] must be indistinguishable from.
    struct FullRing {
        buf: Vec<f64>,
        head: usize,
        filled: usize,
        sum: f64,
        since_resync: usize,
    }

    impl FullRing {
        fn new(capacity: usize) -> Self {
            FullRing {
                buf: vec![0.0; capacity],
                head: 0,
                filled: 0,
                sum: 0.0,
                since_resync: 0,
            }
        }

        fn push(&mut self, sample: f64) {
            let cap = self.buf.len();
            if self.filled == cap {
                self.sum -= self.buf[self.head];
            } else {
                self.filled += 1;
            }
            self.buf[self.head] = sample;
            self.sum += sample;
            self.head = (self.head + 1) % cap;
            self.since_resync += 1;
            if self.since_resync >= cap.saturating_mul(64).max(1 << 16) {
                self.sum = self.buf.iter().take(self.filled).sum();
                self.since_resync = 0;
            }
        }

        fn reset(&mut self) {
            self.buf.fill(0.0);
            self.head = 0;
            self.filled = 0;
            self.sum = 0.0;
            self.since_resync = 0;
        }

        fn save_state(&self) -> String {
            let mut w = crate::state::StateWriter::new();
            w.f64_slice("win.buf", &self.buf);
            w.usize("win.head", self.head);
            w.usize("win.filled", self.filled);
            w.f64("win.sum", self.sum);
            w.usize("win.resync", self.since_resync);
            w.finish()
        }
    }

    fn save(w: &SlidingWindowAvg) -> String {
        use crate::state::Snapshot;
        let mut sw = crate::state::StateWriter::new();
        w.save_state(&mut sw);
        sw.finish()
    }

    /// Every observable of `w` equals the oracle's, bit for bit.
    fn assert_same(w: &SlidingWindowAvg, oracle: &FullRing, at: usize) {
        let cap = oracle.buf.len();
        assert_eq!(w.len(), oracle.filled, "len at push {at}");
        assert_eq!(w.is_full(), oracle.filled == cap, "is_full at push {at}");
        let avg = if oracle.filled == 0 {
            0.0
        } else {
            oracle.sum / oracle.filled as f64
        };
        assert_eq!(w.average().to_bits(), avg.to_bits(), "average at push {at}");
        let full = (oracle.filled == cap).then(|| oracle.sum / cap as f64);
        assert_eq!(
            w.full_average().map(f64::to_bits),
            full.map(f64::to_bits),
            "full_average at push {at}"
        );
        assert!(w.buf.len() <= cap, "ring outgrew its capacity at push {at}");
    }

    #[test]
    fn growing_ring_matches_a_full_capacity_ring() {
        // Capacities below and above the 65 536-push resync floor, each
        // driven through fill, wrap, at least one resync and a reset; the
        // checkpoint text is compared mid-fill, at the wrap and after it.
        for (cap, run_len) in [(1, 0), (7, 3), (300, 300), (2_000, 100_000)] {
            let resync = (cap * 64).max(1 << 16);
            let mut w = SlidingWindowAvg::with_run_len(cap, run_len);
            let mut oracle = FullRing::new(cap);
            let mut rng = crate::rng::DeterministicRng::new(cap as u64);
            let reset_at = resync + cap;
            for i in 0..reset_at + 3 * cap {
                if i == reset_at {
                    w.reset();
                    oracle.reset();
                    assert_same(&w, &oracle, i);
                }
                let x = rng.uniform(0.0, 150.0);
                w.push(x);
                oracle.push(x);
                assert_same(&w, &oracle, i);
                if i + 1 == resync {
                    assert_eq!(w.since_resync, 0, "no resync after {resync} pushes");
                }
                let k = i % reset_at;
                if k == cap / 2 || k + 1 == cap || k == 2 * cap || i + 1 == resync {
                    assert_eq!(save(&w), oracle.save_state(), "checkpoint text at push {i}");
                }
            }
        }
    }

    #[test]
    fn restored_ring_matches_a_full_capacity_ring() {
        use crate::state::{Snapshot, StateReader};
        let cap = 50;
        // Save mid-fill (20 pushes) and after a wrap (130 pushes), restore
        // into a fresh ring, and keep both in lockstep with the oracle.
        for saved_at in [20, 130] {
            let mut w = SlidingWindowAvg::new(cap);
            let mut oracle = FullRing::new(cap);
            let mut rng = crate::rng::DeterministicRng::new(saved_at as u64);
            for _ in 0..saved_at {
                let x = rng.uniform(0.0, 150.0);
                w.push(x);
                oracle.push(x);
            }
            let text = save(&w);
            assert_eq!(text, oracle.save_state());
            let mut restored = SlidingWindowAvg::new(cap);
            restored
                .load_state(&mut StateReader::new(&text))
                .expect("restore");
            assert_eq!(save(&restored), text, "restore is not byte-exact");
            for i in 0..3 * cap {
                let x = rng.uniform(0.0, 150.0);
                w.push(x);
                restored.push(x);
                oracle.push(x);
                assert_same(&w, &oracle, i);
                assert_same(&restored, &oracle, i);
                assert_eq!(save(&restored), oracle.save_state(), "text at push {i}");
            }
            // A checkpoint of another capacity is rejected.
            let mut other = SlidingWindowAvg::new(cap + 1);
            assert!(other.load_state(&mut StateReader::new(&text)).is_none());
        }
    }

    #[test]
    fn a_short_stream_never_allocates_the_whole_window() {
        // A 100 s window at 100 ns ticks would be 8 GB zeroed up front.
        let mut w = SlidingWindowAvg::with_run_len(1_000_000_000, 10_000);
        assert!(w.buf.capacity() <= 10_000);
        for _ in 0..10_000 {
            w.push(1.0);
        }
        assert_eq!(w.buf.capacity(), 10_000, "the reservation covered the run");
        assert_eq!(w.full_average(), None);
        let mut t = WindowedMaxTracker::new(1_000_000_000);
        for _ in 0..1_000 {
            t.push(1.0);
        }
        assert_eq!(t.max(), None);
        assert!(t.window.buf.capacity() < 2_048);
    }

    /// [`WindowedMaxTracker`] over the full-capacity oracle ring.
    struct MaxOracle {
        ring: FullRing,
        max: f64,
        seen_full: bool,
    }

    impl MaxOracle {
        fn new(capacity: usize) -> Self {
            MaxOracle {
                ring: FullRing::new(capacity),
                max: f64::NEG_INFINITY,
                seen_full: false,
            }
        }

        fn push(&mut self, sample: f64) {
            self.ring.push(sample);
            let cap = self.ring.buf.len();
            if self.ring.filled == cap {
                self.seen_full = true;
                let avg = self.ring.sum / cap as f64;
                if avg > self.max {
                    self.max = avg;
                }
            }
        }

        fn reset(&mut self) {
            self.ring.reset();
            self.max = f64::NEG_INFINITY;
            self.seen_full = false;
        }
    }

    fn save_tracker(t: &WindowedMaxTracker) -> String {
        use crate::state::Snapshot;
        let mut sw = crate::state::StateWriter::new();
        t.save_state(&mut sw);
        sw.finish()
    }

    #[test]
    fn push_slice_matches_per_sample_push() {
        use crate::state::{Snapshot, StateReader};
        // Capacities below and above the 65 536-push resync floor. Slices
        // of random length (empty ones included) run through fill, wrap,
        // at least one resync, a reset, and a restore taken mid-growth
        // after the reset, which leaves a full-size ring filling in place;
        // once with fresh draws for every sample, once with long constant
        // stretches.
        let caps = [(1, 0), (7, 3), (300, 300), (2_000, 100_000)];
        for (held_runs, (cap, run_len)) in
            [false, true].into_iter().flat_map(|h| caps.map(|c| (h, c)))
        {
            let resync = (cap * 64).max(1 << 16);
            let reset_at = resync + cap;
            let restore_at = reset_at + cap / 2 + 1;
            let end = restore_at + 3 * cap + 5;
            let mut t = WindowedMaxTracker::with_run_len(cap, run_len);
            let mut oracle = MaxOracle::new(cap);
            let mut rng = crate::rng::DeterministicRng::new(cap as u64 + 17);
            let mut chunk = Vec::new();
            let mut pushed = 0;
            // With held runs, half the stretches one fresh draw, half held
            // for up to three windows, the held value often one an earlier
            // stretch had, and one held sample in a hundred a blip a few
            // ulps off: so runs longer than the window meet equal, nearly
            // equal and unequal samples leaving the ring, also across the
            // resync push.
            let (mut held, mut hold) = (0.0f64, 0);
            while pushed < end {
                let next_event = [reset_at, restore_at, end]
                    .into_iter()
                    .find(|&e| e > pushed)
                    .unwrap_or(end);
                let len = (rng.below(2 * cap as u64 + 3) as usize).min(next_event - pushed);
                chunk.clear();
                if !held_runs {
                    chunk.extend((0..len).map(|_| rng.uniform(0.0, 150.0)));
                } else {
                    for _ in 0..len {
                        if hold == 0 {
                            held = match rng.below(4) {
                                0 => 80.0,
                                1 => 91.3,
                                _ => rng.uniform(0.0, 150.0),
                            };
                            hold = if rng.chance(0.5) {
                                1
                            } else {
                                1 + rng.below(3 * cap as u64 + 3)
                            };
                        }
                        hold -= 1;
                        chunk.push(if rng.chance(0.01) {
                            f64::from_bits(held.to_bits() + 1 + rng.below(63))
                        } else {
                            held
                        });
                    }
                }
                t.push_slice(&chunk);
                for &x in &chunk {
                    oracle.push(x);
                }
                pushed += len;
                assert_eq!(t.seen_full, oracle.seen_full, "seen_full after {pushed}");
                assert_eq!(t.max.to_bits(), oracle.max.to_bits(), "max after {pushed}");
                assert_eq!(t.window.since_resync, oracle.ring.since_resync, "resync at {pushed}");
                assert_same(&t.window, &oracle.ring, pushed);
                if len > 0 && (pushed % 7 == 0 || pushed == next_event) {
                    assert_eq!(save(&t.window), oracle.ring.save_state(), "text after {pushed}");
                }
                if pushed == reset_at {
                    t.reset();
                    oracle.reset();
                } else if pushed == restore_at {
                    let text = save_tracker(&t);
                    let mut restored = WindowedMaxTracker::new(cap);
                    restored
                        .load_state(&mut StateReader::new(&text))
                        .expect("restore");
                    t = restored;
                }
            }
        }
    }

    #[test]
    fn unchanged_sum_from_unequal_samples_is_no_fixed_point() {
        // The ring holds 63 × -0.01 and 0.64. A long stretch of -0.01
        // after its neighbour: the first push leaves the sum's bits
        // unchanged with unequal samples, and the equal pairs after it
        // move the sum, so only a push of equal samples may start a skip.
        let (a, cap) = (-0.01f64, 64);
        let fill: Vec<f64> = std::iter::repeat_n(a, cap - 1).chain([0.64]).collect();
        let s = f64::from_bits(a.to_bits() + 1);
        let stretch: Vec<f64> = std::iter::once(s).chain(std::iter::repeat_n(a, 40)).collect();
        let mut t = WindowedMaxTracker::new(cap);
        let mut oracle = MaxOracle::new(cap);
        for (at, chunk) in [&fill, &stretch].into_iter().enumerate() {
            if at == 1 {
                let sum = oracle.ring.sum;
                assert_eq!((sum - a + s).to_bits(), sum.to_bits());
                assert_ne!((sum - a + a).to_bits(), sum.to_bits());
            }
            t.push_slice(chunk);
            for &x in chunk {
                oracle.push(x);
            }
            assert_eq!(t.max.to_bits(), oracle.max.to_bits(), "max after slice {at}");
            assert_same(&t.window, &oracle.ring, at);
        }
    }

    #[test]
    fn lazy_fold_matches_per_sample_push() {
        use crate::state::{Snapshot, StateReader};
        // A 1 000-sample stream into a window longer than the stream, one
        // exactly as long (it fills on the last sample) and a short one,
        // in slices of random length. The checkpoint text after every
        // slice, which reads the folded sum, must be the per-sample
        // tracker's; the second pass restores the sliced tracker mid-growth
        // and goes on from the restored ring.
        const LEN: usize = 1_000;
        for (cap, restore_at) in [
            (4_000, None),
            (LEN, None),
            (64, None),
            (4_000, Some(333)),
            (LEN, Some(500)),
        ] {
            let mut sliced = WindowedMaxTracker::with_run_len(cap, LEN);
            let mut single = WindowedMaxTracker::new(cap);
            let mut rng = crate::rng::DeterministicRng::new(cap as u64 + 5);
            let mut pushed = 0;
            let mut chunk = Vec::new();
            while pushed < LEN {
                let stop = restore_at.filter(|&r| r > pushed).unwrap_or(LEN);
                let len = (rng.below(97) as usize).min(stop - pushed);
                chunk.clear();
                chunk.extend((0..len).map(|_| rng.uniform(0.0, 150.0)));
                sliced.push_slice(&chunk);
                for &x in &chunk {
                    single.push(x);
                }
                pushed += len;
                let text = save_tracker(&single);
                assert_eq!(save_tracker(&sliced), text, "cap {cap}, after {pushed}");
                assert_eq!(
                    sliced.max().map(f64::to_bits),
                    single.max().map(f64::to_bits)
                );
                assert_eq!(
                    sliced.window.average().to_bits(),
                    single.window.average().to_bits()
                );
                if Some(pushed) == restore_at {
                    let mut restored = WindowedMaxTracker::new(cap);
                    restored
                        .load_state(&mut StateReader::new(&text))
                        .expect("restore");
                    sliced = restored;
                }
            }
            assert_eq!(sliced.max().is_some(), cap <= LEN, "cap {cap}");
        }
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
