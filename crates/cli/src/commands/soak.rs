//! `hcapp soak` — chaos soak harness for the crash-safe checkpoint/resume
//! driver.
//!
//! Campaign mode (the default) runs the configured scenario once,
//! uninterrupted, as the oracle; then replays it as a checkpointing run
//! that is killed at injector-chosen quanta (derived from `--seed`) and
//! resumed from its latest `hcapp.ckpt` after each kill. The stitched
//! result is gated at **tolerance zero**: the final [`RunOutcome`], the
//! JSONL trace stream and the replayed `hcapp.report` must be byte-identical
//! to the oracle, and every over-budget episode must sit inside the
//! documented reaction bound (the same bound `hcapp faults --check`
//! enforces).
//!
//! Worker mode (`--worker`) runs a single checkpoint/resume link and prints
//! a machine-readable line; `scripts/soak.sh` spawns workers and kills them
//! with real `SIGKILL` to exercise the same contract across process death.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use hcapp::cache::encode_outcome;
use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::resume::{outcome_digest, run_resumable, total_quanta, ResumeEnd, ResumeOptions};
use hcapp::system::SystemConfig;
use hcapp_analyze::StreamAnalyzer;
use hcapp_faults::FaultPlan;
use hcapp_metrics::over_cap;
use hcapp_sim_core::report::Table;
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_telemetry::{jsonl, RingTracer, SharedTracer};

use crate::args::{ArgError, Args};
use crate::commands::{faults, shared};

/// RNG stream id for kill-quantum selection (distinct from every simulator
/// stream, which all derive from component indices).
const KILL_STREAM: u64 = 0x5041_6b69_6c6c; // "PAkill"

fn bad(flag: &str, value: String, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value,
        expected,
    }
}

fn io_fail(what: &str, e: std::io::Error) -> ArgError {
    ArgError::Failed(format!("soak: {what}: {e}"))
}

/// Everything both modes decode from the command line.
struct SoakSetup {
    sys: SystemConfig,
    run: RunConfig,
    budget: f64,
    seed: u64,
    kills: u64,
    dir: PathBuf,
    opts: ResumeOptions,
    keep: bool,
}

fn setup(args: &Args) -> Result<SoakSetup, ArgError> {
    let (sys, run, limit) = shared::build(args)?;
    let seed = args.u64("seed", 11)?;
    let plan_name = args.string("plan", "moderate")?;
    let kills = args.u64("kills", 3)?;
    let every = args.u64("every", 64)?;
    let dir = PathBuf::from(args.string("dir", "results/soak")?);
    let keep = args.switch("keep")?;

    // Power trace on, so the over-budget gate has data to inspect.
    let mut run = run.with_trace();
    if plan_name != "none" {
        let plan = FaultPlan::preset(&plan_name, seed).ok_or_else(|| {
            bad(
                "plan",
                plan_name.clone(),
                "one of the fault-plan presets (quiet, light, moderate, severe) or none",
            )
        })?;
        run = run.with_faults(plan);
    }

    let opts = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(every.max(1))
        .with_trace_sink(dir.join("hcapp.trace"))
        .with_trace_extra("case", "soak")
        .with_trace_extra("seed", &seed.to_string());
    Ok(SoakSetup {
        sys,
        run,
        budget: limit.budget.value(),
        seed,
        kills,
        dir,
        opts,
        keep,
    })
}

/// Execute `hcapp soak`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let worker_mode = args.switch("worker")?;
    let stop_at = match args.opt_string("stop-at")? {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            bad("stop-at", v, "a control-quantum count")
        })?),
    };
    let s = setup(args)?;
    args.finish()?;
    if worker_mode {
        worker(s, stop_at)
    } else {
        campaign(s)
    }
}

/// One checkpoint/resume link, reported machine-readably. `scripts/soak.sh`
/// SIGKILLs these mid-run; a killed worker simply prints nothing.
fn worker(s: SoakSetup, stop_at: Option<u64>) -> Result<String, ArgError> {
    let opts = match stop_at {
        Some(q) => s.opts.clone().with_stop_at(q),
        None => s.opts.clone(),
    };
    let summary = run_resumable(s.sys, s.run, &opts).map_err(|e| io_fail("worker run", e))?;
    let resumed = summary
        .resumed_from
        .map(|q| q.to_string())
        .unwrap_or_else(|| "none".to_string());
    Ok(match summary.end {
        ResumeEnd::Completed(out) => format!(
            "soak-worker completed outcome={} resumed_from={resumed} checkpoints={}\n",
            outcome_digest(&out),
            summary.checkpoints_written
        ),
        ResumeEnd::Stopped { quantum } => format!(
            "soak-worker stopped quantum={quantum} resumed_from={resumed} checkpoints={}\n",
            summary.checkpoints_written
        ),
    })
}

/// Seeded in-process chaos campaign: oracle, kill chain, zero-tolerance
/// gates.
fn campaign(s: SoakSetup) -> Result<String, ArgError> {
    let fail = |msg: String| ArgError::Failed(format!("soak FAILED: {msg}"));
    let total = total_quanta(&s.sys, &s.run);
    if total < 2 {
        return Err(fail(format!("run too short to kill ({total} quanta)")));
    }

    // Injector-chosen kill quanta: distinct, sorted, strictly inside the
    // run so every kill lands mid-flight.
    let mut rng = DeterministicRng::derive(s.seed, KILL_STREAM);
    let want_kills = s.kills.min(total - 1);
    let mut kill_quanta = BTreeSet::new();
    while (kill_quanta.len() as u64) < want_kills {
        kill_quanta.insert(1 + rng.below(total - 1));
    }

    // Oracle: the identical configuration, never interrupted, traced
    // through a ring into the same JSONL form the stitched sink uses.
    let ring = Arc::new(Mutex::new(RingTracer::new(1 << 20)));
    let mut oracle_run = s.run.clone();
    oracle_run.tracer = Some(ring.clone() as SharedTracer);
    let want = Simulation::new(s.sys.clone(), oracle_run).run();
    let events = ring
        .lock()
        .expect("invariant: tracer mutex never poisoned")
        .drain();
    let seed_str = s.seed.to_string();
    let want_trace = jsonl::export(&events, &[("case", "soak"), ("seed", &seed_str)]);

    // The kill chain: each link dies at its quantum, the next resumes.
    fs::create_dir_all(&s.dir).map_err(|e| io_fail("create --dir", e))?;
    let mut resumes = Vec::new();
    let mut checkpoints = 0u64;
    for &q in &kill_quanta {
        let link = run_resumable(
            s.sys.clone(),
            s.run.clone(),
            &s.opts.clone().with_stop_at(q),
        )
        .map_err(|e| io_fail("kill link", e))?;
        checkpoints += link.checkpoints_written;
        if let Some(from) = link.resumed_from {
            resumes.push(from);
        }
        match link.end {
            ResumeEnd::Stopped { .. } => {}
            ResumeEnd::Completed(_) => {
                return Err(fail(format!("kill at quantum {q} was never reached")));
            }
        }
    }
    let fin = run_resumable(s.sys.clone(), s.run.clone(), &s.opts)
        .map_err(|e| io_fail("final link", e))?;
    checkpoints += fin.checkpoints_written;
    if let Some(from) = fin.resumed_from {
        resumes.push(from);
    }
    let got = match fin.end {
        ResumeEnd::Completed(out) => out,
        ResumeEnd::Stopped { quantum } => {
            return Err(fail(format!("final link stopped at quantum {quantum}")));
        }
    };

    // Gate 1: bit-identical outcome.
    if encode_outcome(&got) != encode_outcome(&want) {
        return Err(fail(format!(
            "stitched outcome diverged from the oracle (digest {} vs {})",
            outcome_digest(&got),
            outcome_digest(&want)
        )));
    }
    // Gate 2: byte-identical stitched trace, and it validates.
    let trace_path = s.dir.join("hcapp.trace");
    let got_trace =
        fs::read_to_string(&trace_path).map_err(|e| io_fail("read stitched trace", e))?;
    if got_trace != want_trace {
        return Err(fail(format!(
            "stitched trace diverged from the oracle ({} vs {} bytes)",
            got_trace.len(),
            want_trace.len()
        )));
    }
    jsonl::validate(&got_trace)
        .map_err(|e| fail(format!("stitched trace failed validation: {e}")))?;
    // Gate 3: identical replayed report.
    let report = |text: &str| -> Result<String, ArgError> {
        let mut a = StreamAnalyzer::new();
        a.consume_jsonl(text)
            .map_err(|e| fail(format!("trace replay failed: {e}")))?;
        Ok(a.report().to_json())
    };
    if report(&got_trace)? != report(&want_trace)? {
        return Err(fail("replayed hcapp.report diverged from the oracle".to_string()));
    }
    // Gate 4: the PR 3 contract still holds across the seams.
    let trace = got
        .trace
        .as_ref()
        .expect("invariant: soak always records a power trace");
    let over = over_cap(trace, s.budget);
    let bound = faults::reaction_bound();
    if over.longest > bound {
        return Err(fail(format!(
            "over-budget episode {} exceeds the reaction bound {bound}",
            over.longest
        )));
    }

    if !s.keep {
        clean_artifacts(&s.dir);
    }
    let mut t = Table::new(
        format!(
            "soak ok: {} kill(s), zero-tolerance gates passed (seed {})",
            kill_quanta.len(),
            s.seed
        ),
        &["metric", "value"],
    );
    let list = |xs: &[u64]| {
        xs.iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let kill_list: Vec<u64> = kill_quanta.iter().copied().collect();
    t.add_row(vec!["total quanta".into(), total.to_string()]);
    t.add_row(vec!["killed at".into(), list(&kill_list)]);
    t.add_row(vec!["resumed from".into(), list(&resumes)]);
    t.add_row(vec!["checkpoints written".into(), checkpoints.to_string()]);
    t.add_row(vec!["outcome digest".into(), outcome_digest(&got)]);
    t.add_row(vec![
        "trace bytes (stitched == oracle)".into(),
        got_trace.len().to_string(),
    ]);
    t.add_row(vec!["report identical".into(), "yes".into()]);
    t.add_row(vec![
        format!("longest over-budget (bound {bound})"),
        format!("{}", over.longest),
    ]);
    Ok(t.render())
}

/// Remove the campaign's scratch files (never the directory itself — it may
/// be a shared `results/` tree).
fn clean_artifacts(dir: &Path) {
    for name in ["hcapp.ckpt", "hcapp.ckpt.1", "hcapp.trace"] {
        let _ = fs::remove_file(dir.join(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(s: &str) -> Result<String, ArgError> {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap())
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcapp_soak_cmd_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn campaign_passes_all_gates() {
        let dir = scratch("campaign");
        let out = run_cli(&format!(
            "--combo Low-Low --ms 1 --kills 2 --every 16 --seed 5 --dir {}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("soak ok: 2 kill(s)"), "{out}");
        assert!(out.contains("report identical"), "{out}");
        // Artifacts cleaned by default.
        assert!(!dir.join("hcapp.trace").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_keep_retains_the_stitched_trace() {
        let dir = scratch("keep");
        run_cli(&format!(
            "--combo Low-Low --ms 1 --kills 1 --every 32 --seed 9 --keep --dir {}",
            dir.display()
        ))
        .unwrap();
        let text = fs::read_to_string(dir.join("hcapp.trace")).unwrap();
        jsonl::validate(&text).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_stop_resume_chain_reports_digest() {
        let dir = scratch("worker");
        let base = format!("--combo Low-Low --ms 1 --every 32 --seed 7 --dir {}", dir.display());
        let stopped = run_cli(&format!("{base} --worker --stop-at 200")).unwrap();
        assert!(stopped.contains("soak-worker stopped quantum=200"), "{stopped}");
        let done = run_cli(&format!("{base} --worker")).unwrap();
        assert!(done.contains("soak-worker completed outcome="), "{done}");
        assert!(done.contains("resumed_from=192"), "{done}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_plan_is_a_flag_error_naming_the_presets() {
        let e = run_cli("--combo Low-Low --ms 1 --plan loud").unwrap_err().to_string();
        for name in hcapp_faults::PRESET_NAMES {
            assert!(e.contains(name), "{e}");
        }
        assert!(e.contains("none"), "{e}");
    }

    #[test]
    fn zero_kills_still_gates_the_fresh_run() {
        let dir = scratch("zero");
        let out = run_cli(&format!(
            "--combo Low-Low --ms 1 --kills 0 --plan none --dir {}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("soak ok: 0 kill(s)"), "{out}");
        let _ = fs::remove_dir_all(&dir);
    }
}
