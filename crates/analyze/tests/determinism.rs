//! The `RunReport` is a pure function of the run's inputs.
//!
//! Every run below attaches a fresh [`AnalyzingTracer`] and compares
//! `RunReport::to_json()` bytes — any divergence (a reordered metric, a
//! float that differs in the last ulp, a miscounted event) fails loudly —
//! across reruns and against an offline replay of the exported trace.

use std::sync::{Arc, Mutex};

use hcapp::{ControlScheme, RunConfig, Simulation, SystemConfig};
use hcapp_analyze::AnalyzingTracer;
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::units::Watt;
use hcapp_telemetry::SharedTracer;
use hcapp_workloads::combo_suite;

/// Hi-Hi paper system with a mid-run retarget: exercises both epochs of
/// analytics plus the full retarget/PID/VR/domain event mix.
fn config() -> (SystemConfig, RunConfig) {
    let sys = SystemConfig::paper_system(combo_suite()[3], 7);
    let run = RunConfig::new(
        SimDuration::from_millis(2),
        ControlScheme::Hcapp,
        Watt::new(84.0),
    )
    .with_retarget(SimTime::from_millis(1), Watt::new(67.0));
    (sys, run)
}

fn report_json() -> String {
    let (sys, mut run) = config();
    let tracer = Arc::new(Mutex::new(AnalyzingTracer::new()));
    run.tracer = Some(tracer.clone() as SharedTracer);
    Simulation::new(sys, run).run();
    let json = tracer.lock().expect("analyzer lock").report().to_json();
    json
}

#[test]
fn report_is_byte_identical_across_reruns() {
    let baseline = report_json();
    assert!(
        baseline.contains("\"schema\":\"hcapp.report\""),
        "{baseline}"
    );
    assert_eq!(report_json(), baseline, "rerun report diverged");
}

#[test]
fn live_report_matches_offline_replay_of_the_exported_trace() {
    use hcapp_analyze::StreamAnalyzer;
    use hcapp_telemetry::{jsonl, RingTracer};

    let (sys, mut run) = config();
    let ring = Arc::new(Mutex::new(RingTracer::new(1 << 20)));
    let live = Arc::new(Mutex::new(AnalyzingTracer::wrapping(
        ring.clone() as SharedTracer
    )));
    run.tracer = Some(live.clone() as SharedTracer);
    Simulation::new(sys, run).run();

    let live_json = live.lock().expect("analyzer lock").report().to_json();
    let trace = {
        let guard = ring.lock().expect("ring lock");
        assert_eq!(guard.dropped(), 0, "ring must hold the full trace");
        jsonl::export(guard.events(), &[])
    };
    let mut offline = StreamAnalyzer::new();
    offline.consume_jsonl(&trace).expect("replay exported trace");
    assert_eq!(offline.report().to_json(), live_json);
}
