//! Untimed verification that the program's outputs are correct.
//!
//! Besides every measured round matching the warm-up round's digests
//! (checked as the rounds run), a run passes only if:
//!
//! 1. every warm-up outcome is physically sane: finite positive power,
//!    energy equal to power × duration, one non-negative work figure per
//!    domain, mean global voltage inside the PID's output range, and, for
//!    the paper's 3-domain HCAPP runs, the package-pin limit respected
//!    (the paper's central claim);
//! 2. every job re-run on the plain serial executor, untraced, gives the
//!    warm-up outcome bit for bit (so the pool, the cache and the tracer
//!    change nothing);
//! 3. every outcome survives a result-cache store and load bit for bit;
//! 4. the observation path run on the first job leaves the outcome
//!    unchanged, drops no event, exports a trace that validates, and
//!    replays offline to the live report;
//! 5. two seed-chosen rows of the repository's golden corpus
//!    (`tests/golden_digests.txt`) reproduce: outcome digest, trace line
//!    count and replayed-report digest.

use std::sync::{Arc, Mutex};

use hcapp::cache::{encode_outcome, job_key, Lookup, RunCache};
use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::outcome::RunOutcome;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_analyze::{AnalyzingTracer, StreamAnalyzer};
use hcapp_sim_core::time::SimDuration;
use hcapp_telemetry::tracer::RingTracer;
use hcapp_telemetry::{jsonl, SharedTracer};
use hcapp_workloads::combos::combo_by_name;

use crate::layers::{layer_span, Layer, Layers};
use crate::workload::{fnv1a64, Job, Workload};

const GOLDEN: &str = "tests/golden_digests.txt";
/// The corpus' fixed run parameters (see its header line).
const GOLDEN_SEED: u64 = 11;
const GOLDEN_MS: u64 = 1;
const GOLDEN_ROWS: usize = 2;
/// Ring capacity for traced runs; a run that overflows it fails its check
/// (a wrapped ring would make the exported trace capacity-dependent).
const RING_CAP: usize = 1 << 20;

pub fn verify_run(wl: &Workload, seed: u64, mut layers: Option<&mut Layers>) -> Vec<String> {
    let mut problems = Vec::new();
    let verify_cache = RunCache::new(wl.work_dir.join("verify-cache"));
    for (i, (job, reference)) in wl.jobs.iter().zip(&wl.outcomes).enumerate() {
        let reference_text = encode_outcome(reference);
        if let Err(e) = sane_outcome(job, reference) {
            problems.push(format!("job {i}: {e}"));
        }
        let serial = Simulation::new(job.sys.clone(), job.run.clone()).run();
        if encode_outcome(&serial) != reference_text {
            problems.push(format!(
                "job {i}: serial re-run differs from the measured result"
            ));
        }
        match cache_round_trip(&verify_cache, job, reference, layers.as_deref_mut()) {
            Some(text) if text == reference_text => {}
            _ => problems.push(format!(
                "job {i}: result-cache round trip changed the outcome"
            )),
        }
        if i == 0 {
            match observed_check(job.sys.clone(), job.run.clone(), layers.as_deref_mut()) {
                Ok((outcome_text, _, _)) if outcome_text == reference_text => {}
                Ok(_) => problems.push(format!("job {i}: tracing changed the outcome")),
                Err(e) => problems.push(format!("job {i}: {e}")),
            }
        }
    }
    if let Err(e) = golden_rows(seed, layers) {
        problems.push(e);
    }
    problems
}

fn sane_outcome(job: &Job, o: &RunOutcome) -> Result<(), String> {
    let p = o.avg_power.value();
    let secs = o.duration.as_nanos() as f64 * 1e-9;
    if !(p.is_finite() && p > 0.0) {
        return Err(format!("average power {p} W"));
    }
    if (o.energy_j - p * secs).abs() > 1e-9 * o.energy_j.abs().max(1e-12) {
        return Err(format!("energy {} J is not {p} W × {secs} s", o.energy_j));
    }
    if o.work.len() != job.sys.domains.len()
        || o.work.iter().any(|(_, w)| !(w.is_finite() && *w >= 0.0))
    {
        return Err("work figures missing or negative".into());
    }
    let v = o.mean_global_voltage;
    if !(v >= job.sys.pid.out_min && v <= job.sys.pid.out_max) {
        return Err(format!("mean global voltage {v} V outside the PID range"));
    }
    if job.run.scheme == ControlScheme::Hcapp
        && job.sys.domains.len() == 3
        && o.respects(&PowerLimit::package_pin()) != Some(true)
    {
        return Err(format!(
            "HCAPP exceeded the package-pin limit: max ratio {:?}",
            o.max_ratio(&PowerLimit::package_pin())
        ));
    }
    Ok(())
}

/// Store the outcome in a fresh cache and read it back as codec text.
fn cache_round_trip(
    cache: &RunCache,
    job: &Job,
    out: &RunOutcome,
    mut layers: Option<&mut Layers>,
) -> Option<String> {
    let key = job_key(&job.sys, &job.run)?;
    if !layer_span(layers.as_deref_mut(), Layer::CacheStore, || {
        cache.insert(key, out)
    }) {
        return None;
    }
    match layer_span(layers.as_deref_mut(), Layer::CacheProbe, || {
        cache.lookup_classified(key)
    }) {
        Lookup::Hit(hit) => {
            if let Some(l) = layers {
                l.cache_hits += 1;
            }
            Some(encode_outcome(&hit))
        }
        Lookup::Absent | Lookup::Corrupt => None,
    }
}

/// Run with a ring tracer wrapped by the live analyzer (what `hcapp trace`
/// and `hcapp analyze` do), export the trace as JSONL, and check it: no
/// event dropped, the trace validates, and replaying it offline gives the
/// live report. Returns the outcome's codec text, the trace line count and
/// the report.
fn observed_check(
    sys: SystemConfig,
    run: RunConfig,
    mut layers: Option<&mut Layers>,
) -> Result<(String, usize, String), String> {
    let ring = Arc::new(Mutex::new(RingTracer::new(RING_CAP)));
    let analyzer = Arc::new(Mutex::new(AnalyzingTracer::wrapping(
        ring.clone() as SharedTracer
    )));
    let outcome = Simulation::new(sys, run.with_tracer(analyzer.clone() as SharedTracer)).run();
    let (live, trace, dropped) = layer_span(layers.as_deref_mut(), Layer::Observe, || {
        let live = analyzer.lock().expect("analyzer lock").report().to_json();
        let mut ring = ring.lock().expect("ring lock");
        let events = ring.drain();
        (live, jsonl::export(&events, &[]), ring.dropped())
    });
    if dropped > 0 {
        return Err(format!("the trace ring dropped {dropped} events"));
    }
    let replayed = layer_span(layers, Layer::Replay, || -> Result<String, String> {
        jsonl::validate(&trace)?;
        let mut replay = StreamAnalyzer::new();
        replay.consume_jsonl(&trace)?;
        Ok(replay.report().to_json())
    })
    .map_err(|e| format!("exported trace rejected: {e}"))?;
    if replayed != live {
        return Err("offline replay differs from the live report".into());
    }
    Ok((encode_outcome(&outcome), trace.lines().count(), replayed))
}

/// Check two seed-chosen rows of the golden corpus.
fn golden_rows(seed: u64, mut layers: Option<&mut Layers>) -> Result<(), String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let rows: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    if rows.is_empty() {
        return Err(format!("{GOLDEN} has no rows"));
    }
    for k in 0..GOLDEN_ROWS {
        let row = rows[(seed as usize).wrapping_mul(7).wrapping_add(k * 13) % rows.len()];
        let bad = || format!("{GOLDEN}: malformed row {row:?}");
        let (combo_name, rest) = row.split_once(' ').ok_or_else(bad)?;
        let (scheme_name, pinned) = rest.split_once(" outcome=").ok_or_else(bad)?;
        let combo = combo_by_name(combo_name).ok_or_else(bad)?;
        let scheme = ControlScheme::all()
            .into_iter()
            .find(|s| s.name() == scheme_name)
            .ok_or_else(bad)?;
        let sys = SystemConfig::paper_system(combo, GOLDEN_SEED);
        let run = RunConfig::new(
            SimDuration::from_millis(GOLDEN_MS),
            scheme,
            PowerLimit::package_pin().guardbanded_target(),
        );
        let (outcome_text, lines, report) = observed_check(sys, run, layers.as_deref_mut())?;
        let got = format!(
            "{:016x} trace_lines={lines} report={:016x}",
            fnv1a64(&outcome_text),
            fnv1a64(&report)
        );
        if got != pinned {
            return Err(format!(
                "golden row {combo_name} {scheme_name}: got {got}, pinned {pinned}"
            ));
        }
    }
    Ok(())
}
