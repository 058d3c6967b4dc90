//! `hcapp run` — simulate one configuration and report the §5 metrics.

use hcapp::coordinator::Simulation;
use hcapp_sim_core::report::{write_series_csv, Table};

use crate::args::{ArgError, Args};
use crate::commands::shared;

/// Execute `hcapp run`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let (sys, mut run, limit) = shared::build(args)?;
    let trace_path = args.opt_string("trace")?;
    let vtrace_path = args.opt_string("voltage-trace")?;
    if trace_path.is_some() {
        run.record_trace = true;
    }
    if vtrace_path.is_some() {
        run.record_voltage_trace = true;
    }
    args.finish()?;

    let scheme = run.scheme;
    let duration = run.duration;
    let out = Simulation::new(sys, run).run();

    if let (Some(path), Some(trace)) = (trace_path, out.trace.as_ref()) {
        let thin = trace.thin_to(10_000);
        let (t, v): (Vec<f64>, Vec<f64>) = thin.iter_us().unzip();
        write_series_csv(&path, "time_us", &t, &[("power_w", v.as_slice())])
            .map_err(|e| ArgError::BadValue {
                flag: "trace".into(),
                value: format!("{path}: {e}"),
                expected: "a writable path",
            })?;
    }
    if let (Some(path), Some(trace)) = (vtrace_path, out.voltage_trace.as_ref()) {
        let thin = trace.thin_to(10_000);
        let (t, v): (Vec<f64>, Vec<f64>) = thin.iter_us().unzip();
        write_series_csv(&path, "time_us", &t, &[("global_volts", v.as_slice())])
            .map_err(|e| ArgError::BadValue {
                flag: "voltage-trace".into(),
                value: format!("{path}: {e}"),
                expected: "a writable path",
            })?;
    }

    let mut t = Table::new(
        format!("{} for {} (limit {:.0} over {})", scheme, duration, limit.budget, limit.window),
        &["metric", "value"],
    );
    t.add_row(vec!["avg power".into(), format!("{:.2}", out.avg_power)]);
    t.add_row(vec![
        "PPE (Eq. 4)".into(),
        format!("{:.1}%", out.ppe(limit.budget) * 100.0),
    ]);
    t.add_row(vec![
        format!("max power / limit ({})", limit.window),
        shared::max_ratio_cell(&out, &limit, duration),
    ]);
    t.add_row(vec![
        "mean global voltage".into(),
        format!("{:.3} V", out.mean_global_voltage),
    ]);
    for (kind, work) in &out.work {
        t.add_row(vec![
            format!("{} work", kind.name()),
            format!("{work:.4e}"),
        ]);
    }
    t.add_row(vec!["energy".into(), format!("{:.3} J", out.energy_j)]);
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
    fn basic_run_reports_metrics() {
        let out = run_cli("--combo Low-Low --ms 2").unwrap();
        assert!(out.contains("avg power"));
        assert!(out.contains("PPE"));
        assert!(out.contains("CPU work"));
        assert!(out.contains("SHA work"));
    }

    #[test]
    fn a_window_longer_than_the_run_is_not_reported_as_ok() {
        let row = |flags: &str| {
            let out = run_cli(flags).unwrap();
            out.lines()
                .find(|l| l.contains("max power / limit"))
                .unwrap()
                .to_string()
        };
        // 1000 s of 100 ns ticks: a tracker sized to that window would ask
        // for 80 GB up front; one sized to the 1 ms run needs 80 kB.
        for window_us in [5_000, 1_000_000_000] {
            let longer = row(&format!("--combo Hi-Hi --ms 1 --window-us {window_us}"));
            assert!(longer.contains("n/a (window longer than run)"), "{longer}");
            assert!(!longer.contains("[ok]"), "{longer}");
        }
        // A window exactly as long as the run fills on the last tick.
        let exact = row("--combo Hi-Hi --ms 1 --window-us 1000");
        assert!(!exact.contains("n/a"), "{exact}");
        assert!(exact.contains('['), "{exact}");
    }

    #[test]
    fn unknown_flag_is_reported() {
        let e = run_cli("--combo Hi-Hi --turbo").unwrap_err();
        assert!(e.to_string().contains("--turbo"));
    }

    #[test]
    fn parallel_is_not_a_run_flag() {
        // A run is single-threaded; only `sweep` sizes a worker pool.
        let e = run_cli("--combo Mid-Mid --ms 2 --parallel 3").unwrap_err();
        assert!(e.to_string().contains("--parallel"), "{e}");
    }

    #[test]
    fn trace_written_to_disk() {
        let path = std::env::temp_dir().join("hcapp_cli_trace_test.csv");
        let _ = std::fs::remove_file(&path);
        run_cli(&format!("--combo Hi-Hi --ms 2 --trace {}", path.display())).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("time_us,power_w"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn csv_cpu_trace_replays_and_malformed_csv_is_a_flag_error() {
        use hcapp_workloads::benchmarks::Benchmark;
        use hcapp_workloads::trace::PhaseTrace;

        let bench = Benchmark::by_name("bfs").unwrap();
        let csv = PhaseTrace::record(bench.spec(), 3, 0, 2_000_000.0).to_csv();
        let good = std::env::temp_dir().join("hcapp_cli_cpu_trace_test.csv");
        std::fs::write(&good, csv).unwrap();
        let replayed = run_cli(&format!("--combo Hi-Hi --ms 1 --cpu-trace {}", good.display()));
        let _ = std::fs::remove_file(&good);
        let replayed = replayed.unwrap();
        assert!(replayed.contains("CPU work"), "{replayed}");
        assert_ne!(replayed, run_cli("--combo Hi-Hi --ms 1").unwrap());

        let bad = std::env::temp_dir().join("hcapp_cli_cpu_trace_bad.csv");
        std::fs::write(&bad, "activity,mem_intensity,work_ns\n0.5,oops,10\n").unwrap();
        let err = run_cli(&format!("--combo Hi-Hi --ms 1 --cpu-trace {}", bad.display()));
        let _ = std::fs::remove_file(&bad);
        let err = err.unwrap_err();
        assert!(matches!(&err, ArgError::BadValue { flag, .. } if flag == "cpu-trace"), "{err}");
        assert!(err.to_string().contains(&bad.display().to_string()), "{err}");
    }
}
