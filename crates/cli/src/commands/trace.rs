//! `hcapp trace` — run one configuration with the structured tracer
//! attached and export the event stream as self-describing JSONL
//! (schema `hcapp.trace`), plus a wall-clock profile of the run loop.
//!
//! `--check PATH` skips the simulation and validates an existing trace
//! file instead, so scripts can assert a trace is well formed without
//! re-running anything.

use std::sync::{Arc, Mutex};

use hcapp::coordinator::Simulation;
use hcapp_sim_core::report::Table;
use hcapp_telemetry::{jsonl, Profiler, RingTracer, SharedTracer, EVENT_KINDS};

use crate::args::{ArgError, Args};
use crate::commands::shared;

fn bad(flag: &str, value: String, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value,
        expected,
    }
}

/// Execute `hcapp trace`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    if let Some(path) = args.opt_string("check")? {
        args.finish()?;
        return check(&path);
    }

    let (sys, run, limit) = shared::build(args)?;
    let out_path = args.string("out", "results/trace.jsonl")?;
    let cap = args.u64("events", 1 << 16)?.max(1) as usize;
    args.finish()?;

    // Keep a concrete handle so the ring's events survive the run; the
    // simulation only sees the type-erased `SharedTracer` view of it.
    let ring = Arc::new(Mutex::new(RingTracer::new(cap)));
    let profiler = Arc::new(Profiler::new());
    let run = run
        .with_tracer(ring.clone() as SharedTracer)
        .with_profiler(profiler.clone());
    let scheme = run.scheme;
    let duration = run.duration;
    let outcome = Simulation::new(sys, run).run();

    let mut guard = ring.lock().expect("invariant: tracer mutex never poisoned");
    let dropped = guard.dropped();
    let near_misses = guard.stats().near_misses();
    let peak = guard.stats().peak_power();
    let mean_sensed = guard.stats().power_histogram().mean();
    let events = guard.drain();
    drop(guard);

    let scheme_s = format!("{scheme}");
    let duration_s = format!("{duration}");
    let text = jsonl::export(
        &events,
        &[("scheme", &scheme_s), ("duration", &duration_s)],
    );
    shared::write_output(&out_path, &text).map_err(|e| bad(
        "out",
        format!("{out_path}: {e}"),
        "a writable path",
    ))?;
    // Round-trip through the validator so a malformed export can never
    // be reported as success.
    let report = jsonl::validate(&text)
        .map_err(|e| bad("out", format!("{out_path}: invalid export: {e}"), "a bug-free exporter"))?;

    let mut t = Table::new(
        format!("{scheme_s} trace for {duration_s} (limit {:.0})", limit.budget),
        &["metric", "value"],
    );
    t.add_row(vec!["events written".into(), report.events.to_string()]);
    for kind in EVENT_KINDS {
        t.add_row(vec![format!("  {kind}"), report.count(kind).to_string()]);
    }
    t.add_row(vec![
        format!("dropped (ring capacity {cap})"),
        dropped.to_string(),
    ]);
    t.add_row(vec![
        "setpoint reached (quanta)".into(),
        near_misses.to_string(),
    ]);
    t.add_row(vec!["peak sensed power".into(), format!("{peak:.2}")]);
    t.add_row(vec![
        "mean sensed power".into(),
        format!("{mean_sensed:.2} W"),
    ]);
    t.add_row(vec![
        "avg power".into(),
        format!("{:.2}", outcome.avg_power),
    ]);
    t.add_row(vec!["trace file".into(), out_path]);

    let mut out = t.render();
    out.push('\n');
    out.push_str(&profiler.report("wall-clock profile (host time, not simulated)").render());
    Ok(out)
}

/// `hcapp trace --check PATH`: validate an existing JSONL trace.
fn check(path: &str) -> Result<String, ArgError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| bad("check", format!("{path}: {e}"), "a readable trace file"))?;
    let report = jsonl::validate(&text)
        .map_err(|e| bad("check", format!("{path}: {e}"), "a valid hcapp.trace JSONL file"))?;
    let mut t = Table::new(format!("{path}: valid hcapp.trace v{}", report.version), &[
        "metric", "value",
    ]);
    t.add_row(vec!["events".into(), report.events.to_string()]);
    for kind in EVENT_KINDS {
        t.add_row(vec![format!("  {kind}"), report.count(kind).to_string()]);
    }
    if let Some(t_ns) = report.last_t_ns {
        t.add_row(vec!["last t_ns".into(), t_ns.to_string()]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(s: &str) -> Result<String, ArgError> {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap())
    }

    #[test]
    fn traces_a_run_and_validates_it() {
        let path = std::env::temp_dir().join("hcapp_cli_trace_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let out = run_cli(&format!(
            "--combo Hi-Hi --scheme hcapp --ms 2 --out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("events written"));
        assert!(out.contains("global_pid"));
        assert!(out.contains("wall-clock profile"));
        // The file on disk is itself a valid trace.
        let checked = run_cli(&format!("--check {}", path.display())).unwrap();
        assert!(checked.contains("valid hcapp.trace"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_files_match_across_reruns() {
        let dir = std::env::temp_dir();
        let a = dir.join("hcapp_cli_trace_rerun_a.jsonl");
        let b = dir.join("hcapp_cli_trace_rerun_b.jsonl");
        for path in [&a, &b] {
            run_cli(&format!("--combo Mid-Mid --ms 2 --out {}", path.display())).unwrap();
        }
        let ta = std::fs::read_to_string(&a).unwrap();
        let tb = std::fs::read_to_string(&b).unwrap();
        assert_eq!(ta, tb, "reruns must write byte-identical traces");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn small_ring_reports_drops() {
        let path = std::env::temp_dir().join("hcapp_cli_trace_small.jsonl");
        let out = run_cli(&format!(
            "--combo Low-Low --ms 2 --events 4 --out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("dropped (ring capacity 4)"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_rejects_garbage() {
        let path = std::env::temp_dir().join("hcapp_cli_trace_garbage.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(run_cli(&format!("--check {}", path.display())).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
