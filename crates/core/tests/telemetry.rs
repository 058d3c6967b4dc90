//! End-to-end telemetry tests: the traced event stream must be a pure
//! function of the simulation inputs — identical across reruns — and the
//! default (no tracer / disabled tracer) path must emit nothing at all.

use std::sync::{Arc, Mutex};

use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;
use hcapp_telemetry::{NullTracer, RingTracer, SharedTracer, TraceEvent, Tracer, EVENT_KINDS};
use hcapp_workloads::combos::combo_suite;

/// Event kinds every traced dynamic-scheme run emits; the remaining
/// [`EVENT_KINDS`] (`fault_injected`, `health_transition`,
/// `emergency_throttle`) appear only under a fault plan.
const BASE_KINDS: [&str; 5] = [
    "retarget",
    "global_pid",
    "vr_slew",
    "domain_scale",
    "local_decision",
];

fn sim(tracer: Option<SharedTracer>, faults: Option<FaultPlan>) -> Simulation {
    let sys = SystemConfig::paper_system(combo_suite()[3], 7); // Hi-Hi
    let mut run = RunConfig::new(
        SimDuration::from_millis(2),
        ControlScheme::Hcapp,
        Watt::new(84.0),
    );
    if let Some(t) = tracer {
        run = run.with_tracer(t);
    }
    if let Some(p) = faults {
        run = run.with_faults(p);
    }
    Simulation::new(sys, run)
}

/// Run, returning the full traced event stream from a large ring (nothing
/// dropped).
fn traced_events(faults: Option<FaultPlan>) -> Vec<TraceEvent> {
    let ring = Arc::new(Mutex::new(RingTracer::new(1 << 16)));
    sim(Some(ring.clone() as SharedTracer), faults).run();
    let mut guard = ring.lock().expect("ring lock");
    assert_eq!(guard.dropped(), 0, "ring must be large enough for the run");
    guard.drain()
}

/// Canonical byte form of an event stream. `TraceEvent` derives `PartialEq`,
/// but controllers without IPC thresholds report `NaN`, and `NaN != NaN`;
/// the JSONL export canonicalizes non-finite values to `null`, so comparing
/// the exported bytes is the right notion of "bitwise identical traces".
fn canonical(events: &[TraceEvent]) -> String {
    hcapp_telemetry::jsonl::export(events, &[])
}

#[test]
fn traced_stream_is_time_ordered_and_covers_base_kinds() {
    let events = traced_events(None);
    let mut last = 0u64;
    for e in &events {
        let t = e.time().as_nanos();
        assert!(t >= last, "events out of order at t={t}");
        last = t;
    }
    for kind in BASE_KINDS {
        assert!(
            events.iter().any(|e| e.kind() == kind),
            "no {kind} event in an hcapp run"
        );
    }
    // Fault-free runs must never emit fault-campaign events.
    for kind in EVENT_KINDS.iter().filter(|k| !BASE_KINDS.contains(k)) {
        assert!(
            !events.iter().any(|e| e.kind() == *kind),
            "{kind} event leaked into a clean run"
        );
    }
}

#[test]
fn faulted_run_is_time_ordered_and_covers_all_kinds() {
    let events = traced_events(Some(FaultPlan::severe(11)));
    let mut last = 0u64;
    for e in &events {
        let t = e.time().as_nanos();
        assert!(t >= last, "events out of order at t={t}");
        last = t;
    }
    for kind in EVENT_KINDS {
        assert!(
            events.iter().any(|e| e.kind() == *kind),
            "no {kind} event in a severe-plan run"
        );
    }
}

#[test]
fn rerun_traces_are_identical() {
    let a = traced_events(None);
    let b = traced_events(None);
    assert_eq!(canonical(&a), canonical(&b));
}

/// A disabled tracer that fails the test if the run loop ever hands it an
/// event: proves the `NullTracer`-style `enabled() == false` path really is
/// event-free, not merely event-discarding.
#[derive(Debug)]
struct RejectingTracer;

impl Tracer for RejectingTracer {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, e: TraceEvent) {
        panic!("disabled tracer received an event: {e:?}");
    }
    fn record_all(&mut self, events: &mut Vec<TraceEvent>) {
        assert!(events.is_empty(), "disabled tracer received {events:?}");
    }
}

#[test]
fn disabled_tracer_sees_no_events_and_does_not_perturb_results() {
    let baseline = sim(None, None).run();
    let with_null = sim(Some(hcapp_telemetry::shared(NullTracer)), None).run();
    let with_rejecting = sim(Some(hcapp_telemetry::shared(RejectingTracer)), None).run();
    for out in [&with_null, &with_rejecting] {
        assert_eq!(baseline.avg_power, out.avg_power);
        assert_eq!(baseline.energy_j, out.energy_j);
        assert_eq!(baseline.work, out.work);
    }
}

#[test]
fn saturated_ring_counts_drops_and_keeps_newest() {
    let ring = Arc::new(Mutex::new(RingTracer::new(8)));
    sim(Some(ring.clone() as SharedTracer), None).run();
    let guard = ring.lock().expect("ring lock");
    assert_eq!(guard.len(), 8);
    assert!(guard.dropped() > 0, "a 2 ms hcapp run must overflow 8 slots");
    // Stats see every event, including the dropped ones.
    assert_eq!(guard.stats().total(), 8 + guard.dropped());
    // Survivors are the newest events, still time-ordered.
    let times: Vec<u64> = guard.events().map(|e| e.time().as_nanos()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn faulted_rerun_traces_are_identical() {
    let a = traced_events(Some(FaultPlan::moderate(9)));
    let b = traced_events(Some(FaultPlan::moderate(9)));
    assert!(a.iter().any(|e| e.kind() == "fault_injected"));
    assert_eq!(canonical(&a), canonical(&b));
}

/// The fixed-voltage baseline runs no controllers (§4): a traced run
/// emits no PID or local-controller decisions.
#[test]
fn fixed_baseline_emits_no_controller_events() {
    let ring = Arc::new(Mutex::new(RingTracer::new(1 << 16)));
    let sys = SystemConfig::paper_system(combo_suite()[3], 7);
    let run = RunConfig::new(
        SimDuration::from_millis(2),
        ControlScheme::fixed_baseline(),
        Watt::new(84.0),
    )
    .with_tracer(ring.clone() as SharedTracer);
    Simulation::new(sys, run).run();
    let events = ring.lock().expect("ring lock").drain();
    for kind in ["global_pid", "local_decision"] {
        assert!(
            !events.iter().any(|e| e.kind() == kind),
            "{kind} event in a fixed-voltage run"
        );
    }
}
