//! The tracer abstraction: a sink the run loop hands events to.
//!
//! The default path carries a [`NullTracer`], whose `enabled()` returns
//! `false` — the coordinator checks that flag once per run and never even
//! constructs events, so an untraced run does zero telemetry work per
//! quantum. [`RingTracer`] is the bounded collector the `hcapp trace` CLI
//! and the determinism tests attach.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;
use crate::stats::TraceStats;

/// A sink for [`TraceEvent`]s.
///
/// `Send + Debug` are supertraits so a boxed tracer can ride inside the
/// run configuration, which is cloned and moved across the experiment
/// harness's worker threads.
pub trait Tracer: Send + std::fmt::Debug {
    /// Whether the producer should bother constructing events at all.
    /// The run loop reads this once per run, not per quantum.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&mut self, event: TraceEvent);

    /// Drain a batch of events into the sink. The run loop buffers one
    /// quantum's events locally and calls this once, so a shared tracer is
    /// locked once per quantum rather than once per event.
    fn record_all(&mut self, events: &mut Vec<TraceEvent>) {
        for e in events.drain(..) {
            self.record(e);
        }
    }
}

/// The no-op tracer: `enabled()` is `false`, so producers skip event
/// construction entirely and `record` is never reached on the hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}

    fn record_all(&mut self, events: &mut Vec<TraceEvent>) {
        events.clear();
    }
}

/// A bounded in-memory collector: keeps the newest `capacity` events,
/// dropping the oldest when full and counting the drops. Aggregate
/// statistics ([`TraceStats`]) observe *every* event, including dropped
/// ones, so counters stay exact under saturation.
#[derive(Debug, Clone)]
pub struct RingTracer {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
    stats: TraceStats,
}

impl RingTracer {
    /// Create a ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingTracer capacity must be nonzero");
        RingTracer {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            stats: TraceStats::new(),
        }
    }

    /// Create a ring that never drops an event: it grows with what it is
    /// given, so its memory is bounded only by the events between drains.
    pub fn unbounded() -> Self {
        RingTracer::new(usize::MAX)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Aggregate statistics over every event ever recorded (dropped ones
    /// included).
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Take the buffered events out, oldest first, leaving the ring empty
    /// (stats and the dropped counter are preserved).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

/// Checkpointable half of the ring: drop/aggregate counters only.
///
/// Buffered events are deliberately *not* serialized — the resume driver
/// drains the ring into the durable trace sink immediately before every
/// checkpoint, so at a snapshot boundary the buffer is empty by
/// construction. `load_state` refuses a snapshot taken from a non-drained
/// ring (and a non-empty ring at load time), keeping the contract honest.
impl hcapp_sim_core::state::Snapshot for RingTracer {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.usize("ring.buffered", self.buf.len());
        w.u64("ring.dropped", self.dropped);
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        if r.usize("ring.buffered")? != 0 || !self.buf.is_empty() {
            return None;
        }
        self.dropped = r.u64("ring.dropped")?;
        self.stats.load_state(r)
    }
}

impl Tracer for RingTracer {
    fn record(&mut self, event: TraceEvent) {
        self.stats.observe(&event);
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// The shape of the hook carried by the run configuration: shared so the
/// caller keeps a handle to read the trace back after the run, mutex'd
/// because a run may execute on a run-level pool thread while the caller
/// holds clones.
pub type SharedTracer = Arc<Mutex<dyn Tracer>>;

/// Wrap a concrete tracer into the [`SharedTracer`] handle the run
/// configuration accepts.
pub fn shared<T: Tracer + 'static>(tracer: T) -> SharedTracer {
    Arc::new(Mutex::new(tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::time::SimTime;
    use hcapp_sim_core::units::Watt;

    fn ev(us: u64) -> TraceEvent {
        TraceEvent::Retarget {
            t: SimTime::from_micros(us),
            target: Watt::new(84.0),
        }
    }

    #[test]
    fn null_tracer_is_disabled_and_discards() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        let mut batch = vec![ev(1), ev(2)];
        t.record_all(&mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = RingTracer::new(3);
        for us in 0..5 {
            r.record(ev(us));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let times: Vec<u64> = r.events().map(|e| e.time().as_nanos()).collect();
        assert_eq!(times, [2_000, 3_000, 4_000]);
        // Stats saw all five events, not just the surviving three.
        assert_eq!(r.stats().count("retarget"), 5);
    }

    #[test]
    fn drain_empties_but_preserves_counters() {
        let mut r = RingTracer::new(2);
        r.record(ev(0));
        r.record(ev(1));
        r.record(ev(2));
        let out = r.drain();
        assert_eq!(out.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.stats().count("retarget"), 3);
    }

    #[test]
    fn record_all_drains_the_batch() {
        let mut r = RingTracer::new(8);
        let mut batch = vec![ev(0), ev(1), ev(2)];
        r.record_all(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn shared_handle_coerces_to_dyn() {
        let h: SharedTracer = shared(RingTracer::new(4));
        h.lock().expect("not poisoned").record(ev(7));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = RingTracer::new(0);
    }
}
