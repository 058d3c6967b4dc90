//! `hcapp bench` — the quantum-stepper kernel's scaling throughput bench.
//!
//! Measures control quanta per second for a sweep of package sizes, HCAPP
//! scheme (1 µs quanta) at the default 100 ns tick, plus one fixed
//! long-quantum row, `qps_rapl_3` (the RAPL-like scheme's 100 µs quanta on
//! the 3-domain package), and writes a flat JSON report gateable by
//! `hcapp analyze --assert`. Each row runs `--trials` times and records
//! the spread: `qps_serial_N` is the median trial, with
//! `qps_serial_N_min` and `qps_serial_N_max` beside it. The gate reads the
//! median, so one slow trial on a noisy host does not trip it and one
//! lucky trial does not hide a regression. The report records the host's
//! `host_parallelism`; the runs themselves are single-threaded.
//!
//! Timings use `std::time::Instant`, which is legal here: the CLI is a
//! host crate outside simlint L3's simulation-crate scope, and nothing
//! measured feeds back into simulated time.

use std::time::Instant;

use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::resume::total_quanta;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_sim_core::time::SimDuration;
use hcapp_workloads::combos::combo_suite;

use crate::args::{ArgError, Args};

/// Default sweep: the paper package (3) plus the scaling-study sizes.
const DEFAULT_POINTS: &str = "3,16,64,256";

/// Split a domain count across the three chiplet kinds, CPU taking the
/// remainder: 3 → (1,1,1), 16 → (6,5,5), 64 → (22,21,21), 256 → (86,85,85).
fn split(n: usize) -> (usize, usize, usize) {
    let third = n / 3;
    (n - 2 * third, third, third)
}

/// Wall-clock seconds of each of `trials` calls of `f`, sorted ascending.
fn trial_secs(trials: u64, mut f: impl FnMut()) -> Vec<f64> {
    let mut secs: Vec<f64> = (0..trials.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs
}

/// Median of an ascending, non-empty slice (the mean of the middle pair
/// for an even count).
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    match (sorted.get(mid.wrapping_sub(1)), sorted.get(mid)) {
        (Some(lo), Some(hi)) if sorted.len().is_multiple_of(2) => (lo + hi) / 2.0,
        (_, Some(m)) => *m,
        _ => f64::NAN,
    }
}

/// The scaled system for one sweep point, or the flag error for a count
/// the builder rejects (`--points 0`).
fn scaled(n: usize, tick: SimDuration) -> Result<SystemConfig, ArgError> {
    let (nc, ng, ns) = split(n);
    let mut sys = SystemConfig::scaled_system(combo_suite()[3], nc, ng, ns, 7)
        .map_err(|e| ArgError::Failed(format!("--points {n}: {e}")))?;
    sys.tick = tick;
    Ok(sys)
}

/// Quanta per second of one report row (`qps_<key>`): slowest, median
/// and fastest trial.
struct Point {
    key: String,
    min: f64,
    median: f64,
    max: f64,
}

/// Time `trials` runs of `run` on `sys` as the report row `qps_<key>`.
fn measure(key: String, sys: &SystemConfig, run: &RunConfig, trials: u64) -> Point {
    let quanta = total_quanta(sys, run) as f64;
    let secs = trial_secs(trials, || {
        Simulation::new(sys.clone(), run.clone()).run();
    });
    let qps = |s: f64| quanta / s.max(1e-9);
    Point {
        key,
        min: qps(secs.last().copied().unwrap_or(f64::NAN)),
        median: qps(median(&secs)),
        max: qps(secs.first().copied().unwrap_or(f64::NAN)),
    }
}

/// Execute `hcapp bench`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let points_raw = args.string("points", DEFAULT_POINTS)?;
    let ms = args.u64("ms", 10)?.max(1);
    let trials = args.u64("trials", 3)?.max(1);
    let out_path = args.string("out", "results/BENCH_kernel.json")?;
    args.finish()?;

    let points: Vec<usize> = points_raw
        .split(',')
        .map(|t| {
            t.trim().parse::<usize>().map_err(|_| ArgError::BadValue {
                flag: "points".into(),
                value: points_raw.clone(),
                expected: "a comma-separated list of domain counts",
            })
        })
        .collect::<Result<_, _>>()?;

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tick = SimDuration::from_nanos(100);
    let duration = SimDuration::from_millis(ms);
    let target = PowerLimit::package_pin().guardbanded_target();

    let mut log =
        format!("bench: {ms} ms runs, points [{points_raw}], median of {trials} (min..max)\n");
    let mut rows = Vec::with_capacity(points.len());

    // Untimed warmup: the first timed region otherwise absorbs one-off
    // process costs (page faults, frequency-governor ramp) and skews the
    // first point's number low.
    {
        let sys = scaled(*points.first().unwrap_or(&3), tick)?;
        let run = RunConfig::new(
            SimDuration::from_millis(ms.min(5)),
            ControlScheme::Hcapp,
            target,
        );
        Simulation::new(sys, run).run();
    }

    let hcapp = RunConfig::new(duration, ControlScheme::Hcapp, target);
    for &n in &points {
        let row = measure(format!("serial_{n}"), &scaled(n, tick)?, &hcapp, trials);
        log.push_str(&format!(
            "  n={n:<4} {:>10.0} q/s  ({:.0}..{:.0})\n",
            row.median, row.min, row.max
        ));
        rows.push(row);
    }
    // One long-quantum row, whatever the points: its quanta are 1 000
    // ticks, which the per-quantum cost of the HCAPP rows does not show.
    let rapl = RunConfig::new(duration, ControlScheme::RaplLike, target);
    let row = measure("rapl_3".into(), &scaled(3, tick)?, &rapl, trials);
    log.push_str(&format!(
        "  rapl n=3{:>9.0} q/s  ({:.0}..{:.0})\n",
        row.median, row.min, row.max
    ));
    rows.push(row);

    let mut json = format!(
        "{{\n  \"schema\": \"hcapp.bench-kernel\",\n  \"version\": 2,\n  \
         \"ms\": {ms},\n  \"host_parallelism\": {host},\n  \"trials\": {trials}"
    );
    for row in &rows {
        json.push_str(&format!(
            ",\n  \"qps_{0}\": {1:.1},\n  \"qps_{0}_min\": {2:.1},\n  \
             \"qps_{0}_max\": {3:.1}",
            row.key, row.median, row.min, row.max
        ));
    }
    json.push_str("\n}\n");

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &json).map_err(|e| ArgError::BadValue {
        flag: "out".into(),
        value: format!("{out_path}: {e}"),
        expected: "a writable path",
    })?;
    log.push_str(&format!("wrote {out_path}\n"));
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(s: &str) -> Result<String, ArgError> {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap())
    }

    #[test]
    fn split_matches_scaling_study_shapes() {
        assert_eq!(split(3), (1, 1, 1));
        assert_eq!(split(16), (6, 5, 5));
        assert_eq!(split(64), (22, 21, 21));
        assert_eq!(split(256), (86, 85, 85));
        assert_eq!(split(1), (1, 0, 0));
    }

    #[test]
    fn smoke_point_writes_report_with_every_row() {
        let path = std::env::temp_dir().join("hcapp_bench_kernel_test.json");
        let _ = std::fs::remove_file(&path);
        let out = run_cli(&format!(
            "--points 3 --ms 1 --trials 1 --out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        for key in [
            "hcapp.bench-kernel",
            "\"host_parallelism\": ",
            "\"qps_serial_3\": ",
            "\"qps_serial_3_min\": ",
            "\"qps_serial_3_max\": ",
            "\"qps_rapl_3\": ",
            "\"qps_rapl_3_min\": ",
            "\"qps_rapl_3_max\": ",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn median_of_sorted_trials() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn zero_domain_point_is_a_flag_error() {
        let e = run_cli("--points 0 --ms 1 --trials 1").unwrap_err();
        assert!(e.to_string().contains("at least one chiplet"));
    }

    #[test]
    fn malformed_points_list_is_a_flag_error() {
        let e = run_cli("--points 3;16 --ms 1").unwrap_err();
        assert!(e.to_string().contains("comma-separated"));
    }
}
