//! Run-path integration for `hcapp-analyze`: execute a simulation with an
//! [`AnalyzingTracer`] attached and return the [`RunReport`] alongside the
//! [`RunOutcome`].
//!
//! This is the convenience layer the CLI and the experiment binaries use:
//! it wraps whatever tracer the `RunConfig` already carries (so trace
//! export keeps working), runs the simulation, and reads the aggregated
//! report back out — one call, no trace-file round trip.

use std::sync::{Arc, Mutex};

use crate::coordinator::{RunConfig, Simulation};
use crate::outcome::RunOutcome;
use crate::system::SystemConfig;
use hcapp_analyze::{AnalyzingTracer, RunReport};
use hcapp_telemetry::SharedTracer;

/// Execute `run` on `sys` with streaming analytics attached.
///
/// Any tracer already present on `run` keeps receiving every event (the
/// analyzer forwards to it), so callers can collect a ring-buffer trace
/// and a report from the same run.
pub fn run_analyzed(sys: SystemConfig, mut run: RunConfig) -> (RunOutcome, RunReport) {
    let analyzer = match run.tracer.take() {
        Some(inner) => AnalyzingTracer::wrapping(inner),
        None => AnalyzingTracer::new(),
    };
    let handle = Arc::new(Mutex::new(analyzer));
    run.tracer = Some(handle.clone() as SharedTracer);
    let outcome = Simulation::new(sys, run).run();
    let report = handle
        .lock()
        .expect("invariant: analyzer mutex is never poisoned")
        .report();
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ControlScheme;
    use hcapp_sim_core::time::{SimDuration, SimTime};
    use hcapp_sim_core::units::Watt;
    use hcapp_telemetry::RingTracer;
    use hcapp_workloads::combo_suite;

    fn config() -> (SystemConfig, RunConfig) {
        let sys = SystemConfig::paper_system(combo_suite()[3], 7); // Hi-Hi
        let run = RunConfig::new(
            SimDuration::from_millis(1),
            ControlScheme::Hcapp,
            Watt::new(84.0),
        )
        .with_retarget(SimTime::from_micros(500), Watt::new(67.0));
        (sys, run)
    }

    #[test]
    fn live_report_covers_the_whole_run() {
        let (sys, run) = config();
        let (outcome, report) = run_analyzed(sys, run);
        assert!(outcome.avg_power.value() > 0.0);
        // Initial programming + the scheduled change.
        assert_eq!(report.get("retargets"), Some(2.0));
        assert_eq!(report.get("epochs"), Some(2.0));
        let steps = report.get("pid_steps").unwrap_or(0.0);
        assert!(steps > 900.0, "1 ms of 1 µs quanta, got {steps}");
        assert!(report.get("mean_p_now_w").is_some_and(|v| v > 0.0));
    }

    #[test]
    fn wrapped_tracer_still_receives_the_trace() {
        let (sys, run) = config();
        let ring = Arc::new(Mutex::new(RingTracer::new(1 << 16)));
        let run = run.with_tracer(ring.clone() as SharedTracer);
        let (_, report) = run_analyzed(sys, run);
        let stored = ring.lock().expect("ring lock for inspection").events().count() as f64;
        assert!(stored > 0.0, "inner tracer must keep receiving events");
        assert_eq!(report.get("events"), Some(stored));
    }
}
