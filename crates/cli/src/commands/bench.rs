//! `hcapp bench` — the quantum-stepper kernel's scaling throughput bench.
//!
//! Measures control quanta per second for a sweep of package sizes in
//! three configurations and writes a flat JSON report gateable by
//! `hcapp analyze --assert`:
//!
//! * `qps_serial_N` — the serial executor on the kernel path, HCAPP
//!   scheme (1 µs quanta) at the default 100 ns tick.
//! * `qps_pooled_N` — the pooled executor, same configuration.
//! * `qps_fixed_coarse_N` — the serial executor on the fixed-voltage
//!   baseline with `batch_quanta = 32` on a coarse 10 µs tick, the regime
//!   where multi-quantum batching engages (dynamic schemes re-plan every
//!   quantum, so batching cannot). A different scheme at a 100x coarser
//!   tick, so it is *not* comparable with the two columns above; it
//!   tracks batched dispatch on its own.
//!
//! The pooled executor runs `--workers` threads, defaulting to the host's
//! available parallelism; larger requests are clamped to it, since extra
//! workers on a smaller host only measure oversubscription. The report
//! records `host_parallelism` and the `workers` actually used.
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

/// Best-of-N wall clock: the minimum is the standard noise filter for
/// short benchmarks (scheduler hiccups only ever make a trial slower).
fn secs_min(trials: u64, mut f: impl FnMut()) -> f64 {
    (0..trials.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
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

/// Threads the host can run at once (1 when the platform cannot say).
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Point {
    n: usize,
    qps_serial: f64,
    qps_pooled: f64,
    qps_fixed_coarse: f64,
}

/// Execute `hcapp bench`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let points_raw = args.string("points", DEFAULT_POINTS)?;
    let ms = args.u64("ms", 10)?.max(1);
    let host = host_parallelism();
    let requested = args.u64("workers", host as u64)?.max(1) as usize;
    let workers = requested.min(host);
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

    let tick = SimDuration::from_nanos(100);
    let coarse = SimDuration::from_micros(10);
    let duration = SimDuration::from_millis(ms);
    let limit = PowerLimit::package_pin();
    let target = limit.guardbanded_target();

    let mut log = format!(
        "bench: {ms} ms runs, points [{points_raw}], {workers} workers, best of {trials}\n"
    );
    if requested > workers {
        log.push_str(&format!(
            "  --workers {requested} clamped to the host parallelism of {host}\n"
        ));
    }
    let mut rows = Vec::with_capacity(points.len());

    // Untimed warmup: the first timed region otherwise absorbs one-off
    // process costs (page faults, frequency-governor ramp) and skews the
    // first point's serial number low.
    {
        let sys = scaled(*points.first().unwrap_or(&3), tick)?;
        let run = RunConfig::new(
            SimDuration::from_millis(ms.min(5)),
            ControlScheme::Hcapp,
            target,
        );
        Simulation::new(sys, run).run();
    }

    for &n in &points {
        // Serial and pooled: the HCAPP scheme at its 1 µs control quantum,
        // the hot path the kernel refactor targets.
        let sys = scaled(n, tick)?;
        let run = RunConfig::new(duration, ControlScheme::Hcapp, target);
        let quanta = total_quanta(&sys, &run) as f64;
        let serial_s = secs_min(trials, || {
            Simulation::new(sys.clone(), run.clone()).run();
        });
        let pooled_s = secs_min(trials, || {
            Simulation::new(sys.clone(), run.clone()).run_parallel(workers);
        });

        // Fixed-coarse: fixed baseline (static scheme, so multi-quantum
        // batching engages) on a coarse tick where dispatch cost is visible.
        let bsys = scaled(n, coarse)?;
        let mut brun = RunConfig::new(duration, ControlScheme::fixed_baseline(), target)
            .with_batch_quanta(32);
        // The default 1 µs trace interval does not divide the coarse tick;
        // align it (no trace is recorded, but the driver still derives its
        // sampling stride from it).
        brun.trace_interval = coarse;
        let bquanta = total_quanta(&bsys, &brun) as f64;
        let fixed_coarse_s = secs_min(trials, || {
            Simulation::new(bsys.clone(), brun.clone()).run();
        });

        let row = Point {
            n,
            qps_serial: quanta / serial_s.max(1e-9),
            qps_pooled: quanta / pooled_s.max(1e-9),
            qps_fixed_coarse: bquanta / fixed_coarse_s.max(1e-9),
        };
        log.push_str(&format!(
            "  n={:<4} serial {:>10.0} q/s   pooled {:>10.0} q/s   fixed-coarse {:>10.0} q/s\n",
            row.n, row.qps_serial, row.qps_pooled, row.qps_fixed_coarse
        ));

        rows.push(row);
    }

    let mut json = format!(
        "{{\n  \"schema\": \"hcapp.bench-kernel\",\n  \"version\": 1,\n  \
         \"ms\": {ms},\n  \"host_parallelism\": {host},\n  \"workers\": {workers},\n  \
         \"trials\": {trials}"
    );
    for row in &rows {
        json.push_str(&format!(
            ",\n  \"qps_serial_{0}\": {1:.1},\n  \"qps_pooled_{0}\": {2:.1},\n  \
             \"qps_fixed_coarse_{0}\": {3:.1}",
            row.n, row.qps_serial, row.qps_pooled, row.qps_fixed_coarse
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
            "qps_serial_3",
            "qps_pooled_3",
            "qps_fixed_coarse_3",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workers_are_clamped_to_the_host() {
        let path = std::env::temp_dir().join("hcapp_bench_kernel_workers_test.json");
        let _ = std::fs::remove_file(&path);
        let host = host_parallelism();
        let out = run_cli(&format!(
            "--points 3 --ms 1 --trials 1 --workers {} --out {}",
            host + 3,
            path.display()
        ))
        .unwrap();
        assert!(out.contains("clamped to the host parallelism"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(
            body.contains(&format!("\"host_parallelism\": {host},")),
            "{body}"
        );
        assert!(body.contains(&format!("\"workers\": {host},")), "{body}");
        let _ = std::fs::remove_file(&path);
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
