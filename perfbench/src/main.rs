//! `perfbench` — the repository benchmark for the HCAPP simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper3|scaled256|sweep> --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every number here is host time (how long
//! the simulator takes), never simulated time. One run:
//!
//! 1. **Set-up**: build the workload's inputs from `--seed` and execute one
//!    warm-up round, whose outcome digests become the reference every later
//!    round must match. This happens [`SETUP_REPEATS`] times: once before
//!    measuring, the rest spread evenly through the measurement.
//! 2. **Measurement**: a closed loop that executes rounds back to back for
//!    `--seconds` (at least [`MIN_ROUNDS`]). A round is one pass over the
//!    workload's jobs; the rounds of one run have identical inputs.
//! 3. **Verification** (untimed): see [`check`].
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics:
//!
//! * `quanta_per_s`: simulated control quanta per host second in the
//!   fastest round;
//! * `peak_rss_mib`: the process's peak resident memory after measuring;
//! * `setup_s`: the fastest set-up.
//!
//! The timings take the fastest sample, not the median, because on a
//! shared host contention only ever slows a sample down. On a shared
//! 2-vCPU virtual machine the simulator alternated between two speeds
//! about 1.7x apart for seconds at a time, so a median reported how long
//! the slow phase lasted, while the fastest round of a 30 s run varied by
//! about 2 % between runs. Medians and tails are printed to stderr.
//!
//! With `--trace 1` the rounds run through an instrumented serial pipeline
//! instead and the line reports the per-layer metrics of [`layers`].
//! Scratch files live under `.perfbench_work/` in the working directory
//! and are removed before exit.

mod check;
mod layers;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::Layers;
use workload::{Kind, Workload};

/// Set-ups per run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 15;
/// Lower bound on measured rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        kind: Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Linear-interpolation quantile of an ascending-sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Render the result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Time one set-up; record a problem if it disagrees with `first`.
fn timed_setup(
    args: &Args,
    work_dir: &Path,
    setup_s: &mut Vec<f64>,
    problems: &mut Vec<String>,
    first: Option<&Workload>,
) -> Result<Workload, String> {
    let i = setup_s.len();
    let t0 = Instant::now();
    let fresh = Workload::prepare(args.kind, args.seed, work_dir.join(format!("setup{i}")))?;
    setup_s.push(t0.elapsed().as_secs_f64());
    if first.is_some_and(|w| w.reference != fresh.reference) {
        problems.push(format!("set-up {i} produced different reference digests"));
    }
    Ok(fresh)
}

fn run(args: &Args, work_dir: &Path) -> Result<(bool, String), String> {
    let mut problems: Vec<String> = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);

    // 1–2. Set up once, then measure; the remaining set-ups are spread
    // evenly through the measurement, so that they see the same host
    // conditions as the rounds do.
    let mut wl = timed_setup(args, work_dir, &mut setup_s, &mut problems, None)?;
    let mut layers = args.trace.then(Layers::default);
    let mut round_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t_start = Instant::now();
    loop {
        let elapsed = t_start.elapsed().as_secs_f64();
        let due = (elapsed / args.seconds * SETUP_REPEATS as f64) as usize + 1;
        if setup_s.len() < SETUP_REPEATS.min(due) {
            timed_setup(args, work_dir, &mut setup_s, &mut problems, Some(&wl))?;
            continue;
        }
        if round_s.len() >= MIN_ROUNDS && elapsed >= args.seconds {
            break;
        }
        let round = wl.run_round(layers.as_mut());
        attempted += round.digests.len() as u64;
        failed += wl.count_mismatches(&round);
        round_s.push(round.secs);
    }
    while setup_s.len() < SETUP_REPEATS {
        timed_setup(args, work_dir, &mut setup_s, &mut problems, Some(&wl))?;
    }
    let measured_s = t_start.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib();

    // 3. Verification.
    problems.extend(check::verify_run(&wl, args.seed, layers.as_mut()));
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} job results differed from the reference"
        ));
    }

    let setup = sorted(setup_s);
    let rs = sorted(round_s);
    let qps = sorted(
        rs.iter()
            .map(|t| wl.round_quanta as f64 / t.max(1e-12))
            .collect(),
    );
    eprintln!(
        "perfbench: workload {} seed {} trace {}: {} rounds ({} jobs, {} quanta per round) in {:.2} s; \
         host parallelism {}, pool workers {}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        rs.len(),
        wl.jobs.len(),
        wl.round_quanta,
        measured_s,
        workload::host_parallelism(),
        workload::SWEEP_WORKERS,
    );
    eprintln!(
        "  round ms  min {:.3}  p10 {:.3}  median {:.3}  p90 {:.3}  max {:.3}\n  setup s   {:?}",
        rs[0] * 1e3,
        quantile(&rs, 0.1) * 1e3,
        quantile(&rs, 0.5) * 1e3,
        quantile(&rs, 0.9) * 1e3,
        rs[rs.len() - 1] * 1e3,
        setup,
    );
    for p in &problems {
        eprintln!("  FAILED CHECK: {p}");
    }

    let metrics: Vec<(&str, f64, &str)> = match &layers {
        None => vec![
            ("quanta_per_s", qps[qps.len() - 1], "1/s"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
            ("setup_s", setup[0], "s"),
        ],
        Some(l) => {
            let m = l.layer_metrics();
            for (name, value, unit) in &m {
                eprintln!("  {name:<16} {value:>14.3} {unit}");
            }
            m
        }
    };
    let correct = problems.is_empty();
    Ok((correct, result_line(correct, attempted, failed, &metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let result = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
