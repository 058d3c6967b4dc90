//! `hcapp analyze` — control-loop analytics over trace streams.
//!
//! Four modes, dispatched by which flag is present:
//!
//! * **live** (default): run a scenario (the shared run flags, including
//!   `--retarget MS:W[,...]`) with the streaming analyzer attached and
//!   emit its `hcapp.report`;
//! * `--trace FILE`: replay a recorded `hcapp.trace` JSONL file offline —
//!   same state machine, same report;
//! * `--diff OLD --against NEW [--tolerance T]`: per-metric comparison of
//!   two reports; exits nonzero when any metric regresses beyond `T`;
//! * `--assert CHECKS --report FILE`: evaluate declarative min/max bounds
//!   (an `hcapp.checks` file) against a report or any flat JSON metric
//!   document; exits nonzero on any failed check.
//!
//! The last two are the regression gate `scripts/check.sh` and
//! `scripts/bench_smoke.sh` run in CI.

use hcapp::analyze::run_analyzed;
use hcapp_analyze::checks::{parse_checks, render_results, run_checks};
use hcapp_analyze::report::{render_diff, RunReport};
use hcapp_analyze::StreamAnalyzer;
use hcapp_telemetry::json;

use crate::args::{ArgError, Args};
use crate::commands::shared;

fn bad(flag: &str, value: String, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value,
        expected,
    }
}

fn read(flag: &str, path: &str) -> Result<String, ArgError> {
    std::fs::read_to_string(path)
        .map_err(|e| bad(flag, format!("{path}: {e}"), "a readable file"))
}

/// Render a report per `--format`, writing to `--out` when given.
fn emit(report: &RunReport, format: &str, out: Option<&str>) -> Result<String, ArgError> {
    let text = match format {
        "json" => report.to_json(),
        "md" | "markdown" => report.to_markdown(),
        other => return Err(bad("format", other.to_string(), "json or md")),
    };
    match out {
        Some(path) => {
            shared::write_output(path, &text)
                .map_err(|e| bad("out", format!("{path}: {e}"), "a writable path"))?;
            Ok(format!(
                "wrote {} report ({} metrics) to {path}\n",
                format,
                report.metrics.len()
            ))
        }
        None => Ok(text),
    }
}

/// Execute `hcapp analyze`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    // Mode: diff two reports.
    if let Some(old_path) = args.opt_string("diff")? {
        let new_path = args.opt_string("against")?.ok_or_else(|| {
            bad("against", "(missing)".into(), "--diff OLD --against NEW")
        })?;
        let tolerance = args.f64("tolerance", 0.1)?;
        args.finish()?;
        let old = RunReport::from_json(&read("diff", &old_path)?)
            .map_err(|e| bad("diff", format!("{old_path}: {e}"), "an hcapp.report file"))?;
        let new = RunReport::from_json(&read("against", &new_path)?)
            .map_err(|e| bad("against", format!("{new_path}: {e}"), "an hcapp.report file"))?;
        let rows = RunReport::diff(&old, &new, tolerance);
        let rendered = render_diff(&rows, tolerance);
        return if rows.iter().any(|r| r.regressed) {
            Err(ArgError::Failed(rendered))
        } else {
            Ok(rendered)
        };
    }

    // Mode: assert declarative bounds.
    if let Some(checks_path) = args.opt_string("assert")? {
        let report_path = args.opt_string("report")?.ok_or_else(|| {
            bad("report", "(missing)".into(), "--assert CHECKS --report FILE")
        })?;
        args.finish()?;
        let checks = parse_checks(&read("assert", &checks_path)?)
            .map_err(|e| bad("assert", format!("{checks_path}: {e}"), "an hcapp.checks file"))?;
        let doc = json::parse(read("report", &report_path)?.trim())
            .map_err(|e| bad("report", format!("{report_path}: {e}"), "a JSON metric document"))?;
        let results = run_checks(&doc, &checks);
        let rendered = format!("{report_path} vs {checks_path}:\n{}", render_results(&results));
        return if results.iter().any(|r| !r.passed) {
            Err(ArgError::Failed(rendered))
        } else {
            Ok(rendered)
        };
    }

    // Mode: offline trace replay.
    if let Some(trace_path) = args.opt_string("trace")? {
        let format = args.string("format", "json")?;
        let out = args.opt_string("out")?;
        args.finish()?;
        let mut analyzer = StreamAnalyzer::new();
        analyzer
            .consume_jsonl(&read("trace", &trace_path)?)
            .map_err(|e| bad("trace", format!("{trace_path}: {e}"), "a valid hcapp.trace file"))?;
        return emit(&analyzer.report(), &format, out.as_deref());
    }

    // Mode: live run.
    let (sys, run, _limit) = shared::build(args)?;
    let format = args.string("format", "json")?;
    let out = args.opt_string("out")?;
    args.finish()?;
    let (_outcome, report) = run_analyzed(sys, run);
    emit(&report, &format, out.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(s: &str) -> Result<String, ArgError> {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    /// The golden fixture from the analyzer's unit suite, as a trace file:
    /// 1 µs quantum, target 100 W retargeted to 80 W at t=5 µs.
    fn golden_trace() -> String {
        let mut t = String::from(
            "{\"schema\":\"hcapp.trace\",\"version\":1,\"t_unit\":\"ns\",\"kinds\":[\"retarget\",\"global_pid\",\"vr_slew\",\"domain_scale\",\"local_decision\",\"fault_injected\",\"health_transition\",\"emergency_throttle\"]}\n",
        );
        let pid = |t_us: u64, p: f64| {
            format!(
                "{{\"t_ns\":{},\"kind\":\"global_pid\",\"p_now_w\":{p},\"setpoint_w\":0,\"v_err\":0,\"p_term_v\":0,\"i_term_v\":0,\"d_term_v\":0,\"v_next_v\":1}}\n",
                t_us * 1000
            )
        };
        t.push_str("{\"t_ns\":0,\"kind\":\"retarget\",\"target_w\":100}\n");
        for (tu, p) in [(0, 90.0), (1, 99.0), (2, 103.0), (3, 101.0), (4, 100.0)] {
            t.push_str(&pid(tu, p));
        }
        t.push_str("{\"t_ns\":5000,\"kind\":\"retarget\",\"target_w\":80}\n");
        for (tu, p) in [(5, 95.0), (6, 85.0), (7, 79.5), (8, 79.9)] {
            t.push_str(&pid(tu, p));
        }
        t
    }

    #[test]
    fn offline_trace_mode_matches_hand_computed_golden_values() {
        let path = tmp("hcapp_analyze_golden.jsonl");
        std::fs::write(&path, golden_trace()).unwrap();
        let out = run_cli(&format!("--trace {} --format json", path.display())).unwrap();
        let report = RunReport::from_json(&out).unwrap();
        assert_eq!(report.get("epochs"), Some(2.0));
        assert_eq!(report.get("settling_ns_max"), Some(2000.0));
        assert_eq!(report.get("reaction_ns_max"), Some(2000.0));
        assert_eq!(report.get("overshoot_w_max"), Some(15.0));
        assert_eq!(report.get("over_budget_episodes"), Some(2.0));
        assert_eq!(report.get("over_budget_longest_ns"), Some(2000.0));
        assert_eq!(report.get("over_budget_total_ns"), Some(4000.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn markdown_format_renders_a_table() {
        let path = tmp("hcapp_analyze_md.jsonl");
        std::fs::write(&path, golden_trace()).unwrap();
        let out = run_cli(&format!("--trace {} --format md", path.display())).unwrap();
        assert!(out.contains("| metric | value |"), "{out}");
        assert!(out.contains("| epochs | 2 |"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_mode_writes_a_report_with_a_retarget_epoch() {
        let path = tmp("hcapp_analyze_live.json");
        let msg = run_cli(&format!(
            "--combo Low-Low --scheme hcapp --ms 2 --retarget 1:70 --out {}",
            path.display()
        ))
        .unwrap();
        assert!(msg.contains("wrote json report"), "{msg}");
        let report = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.get("retargets"), Some(2.0));
        assert_eq!(report.get("epochs"), Some(2.0));
        assert!(report.get("pid_steps").is_some_and(|v| v > 1900.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_passes_on_identical_reports_and_fails_on_injected_regression() {
        let a = tmp("hcapp_analyze_diff_a.json");
        let b = tmp("hcapp_analyze_diff_b.json");
        let trace = tmp("hcapp_analyze_diff_trace.jsonl");
        std::fs::write(&trace, golden_trace()).unwrap();
        run_cli(&format!("--trace {} --out {}", trace.display(), a.display())).unwrap();
        let ok = run_cli(&format!(
            "--diff {} --against {}",
            a.display(),
            a.display()
        ))
        .unwrap();
        assert!(ok.contains("0 regressed"), "{ok}");

        // Inject a regression: triple the over-budget residency.
        let mut report = RunReport::from_json(&std::fs::read_to_string(&a).unwrap()).unwrap();
        for (k, v) in &mut report.metrics {
            if k == "over_budget_total_ns" {
                *v *= 3.0;
            }
        }
        std::fs::write(&b, report.to_json()).unwrap();
        let err = run_cli(&format!(
            "--diff {} --against {} --tolerance 0.1",
            a.display(),
            b.display()
        ))
        .unwrap_err();
        assert!(matches!(err, ArgError::Failed(_)), "{err:?}");
        assert!(err.to_string().contains("over_budget_total_ns"), "{err}");
        for p in [&a, &b, &trace] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn assert_gate_passes_and_fails_by_bounds() {
        let report = tmp("hcapp_analyze_assert_report.json");
        let trace = tmp("hcapp_analyze_assert_trace.jsonl");
        let checks_ok = tmp("hcapp_analyze_checks_ok.json");
        let checks_bad = tmp("hcapp_analyze_checks_bad.json");
        std::fs::write(&trace, golden_trace()).unwrap();
        run_cli(&format!(
            "--trace {} --out {}",
            trace.display(),
            report.display()
        ))
        .unwrap();
        std::fs::write(
            &checks_ok,
            "{\"schema\":\"hcapp.checks\",\"version\":1,\"checks\":[{\"metric\":\"epochs_settled\",\"min\":2},{\"metric\":\"overshoot_w_max\",\"max\":20}]}",
        )
        .unwrap();
        std::fs::write(
            &checks_bad,
            "{\"schema\":\"hcapp.checks\",\"version\":1,\"checks\":[{\"metric\":\"overshoot_w_max\",\"max\":1}]}",
        )
        .unwrap();
        let ok = run_cli(&format!(
            "--assert {} --report {}",
            checks_ok.display(),
            report.display()
        ))
        .unwrap();
        assert!(ok.contains("0 failed"), "{ok}");
        let err = run_cli(&format!(
            "--assert {} --report {}",
            checks_bad.display(),
            report.display()
        ))
        .unwrap_err();
        assert!(matches!(err, ArgError::Failed(_)), "{err:?}");
        assert!(err.to_string().contains("FAIL overshoot_w_max"), "{err}");
        for p in [&report, &trace, &checks_ok, &checks_bad] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn live_reports_are_byte_identical_across_reruns() {
        let a = run_cli("--combo Low-Low --ms 2 --retarget 1:70").unwrap();
        let b = run_cli("--combo Low-Low --ms 2 --retarget 1:70").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_flag_combinations() {
        assert!(run_cli("--diff nowhere.json").is_err());
        assert!(run_cli("--assert nowhere.json").is_err());
        assert!(run_cli("--trace nowhere.jsonl").is_err());
        assert!(run_cli("--combo Low-Low --ms 1 --format yaml").is_err());
        assert!(run_cli("--combo Low-Low --ms 1 --retarget nonsense").is_err());
        assert!(run_cli("--combo Low-Low --ms 1 --retarget 2:70,1:80").is_err());
    }
}
