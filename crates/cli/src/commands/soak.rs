//! `hcapp soak` — chaos soak harness for the crash-safe checkpoint/resume
//! driver.
//!
//! Campaign mode (the default) renders [`hcapp::campaign::soak`]: the
//! configured scenario runs once, uninterrupted, as the reference; then as a
//! checkpointing run that is killed at seeded quanta (derived from `--seed`)
//! and resumed from its latest `hcapp.ckpt` after each kill. The stitched
//! result is gated at **tolerance zero**: the final outcome, the JSONL trace
//! stream and the replayed `hcapp.report` must be byte-identical to the
//! reference, and every over-budget episode must sit inside the scheme's
//! reaction bound (the same bound `hcapp faults` reports).
//!
//! Worker mode (`--worker`) runs a single checkpoint/resume link and prints
//! a machine-readable line; `scripts/soak.sh` spawns workers and kills them
//! with real `SIGKILL` to exercise the same contract across process death.

use std::fs;
use std::path::{Path, PathBuf};

use hcapp::campaign;
use hcapp::coordinator::RunConfig;
use hcapp::resume::{outcome_digest, run_resumable, ResumeEnd, ResumeOptions};
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_sim_core::report::Table;
use hcapp_sim_core::units::Watt;

use crate::args::{ArgError, Args};
use crate::commands::shared;

fn bad(flag: &str, value: String, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value,
        expected,
    }
}

/// Everything both modes decode from the command line.
struct SoakSetup {
    sys: SystemConfig,
    run: RunConfig,
    budget: Watt,
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

    // Power trace on, as `campaign::soak` records it, so a worker runs the
    // same configuration (and checkpoint fingerprint) as a campaign link.
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
        budget: limit.budget,
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
    let summary = run_resumable(s.sys, s.run, &opts)
        .map_err(|e| ArgError::Failed(format!("soak: worker run: {e}")))?;
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

/// Seeded in-process chaos campaign: `hcapp::campaign::soak` against the
/// uninterrupted reference, rendered as a table.
fn campaign(s: SoakSetup) -> Result<String, ArgError> {
    let fail = |msg: String| ArgError::Failed(format!("soak FAILED: {msg}"));
    let r = campaign::soak(&s.sys, &s.run, &s.opts, s.seed, s.kills, s.budget)
        .map_err(|e| fail(e.to_string()))?;
    if let Some(d) = r.divergence {
        return Err(fail(d));
    }
    r.excursion.check().map_err(fail)?;

    if !s.keep {
        clean_artifacts(&s.dir);
    }
    let mut t = Table::new(
        format!(
            "soak ok: {} kill(s), zero-tolerance gates passed (seed {})",
            r.kills.len(),
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
    t.add_row(vec!["total quanta".into(), r.total.to_string()]);
    t.add_row(vec!["killed at".into(), list(&r.kills)]);
    t.add_row(vec!["resumed from".into(), list(&r.chain.resumed_from)]);
    t.add_row(vec!["checkpoints written".into(), r.chain.checkpoints.to_string()]);
    t.add_row(vec!["outcome digest".into(), outcome_digest(&r.chain.outcome)]);
    t.add_row(vec![
        "trace bytes (stitched == oracle)".into(),
        r.chain.trace.len().to_string(),
    ]);
    t.add_row(vec!["report identical".into(), "yes".into()]);
    t.add_row(vec![
        format!("longest over-budget (bound {})", r.excursion.bound_label()),
        format!("{}", r.excursion.over.longest),
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
        hcapp_telemetry::jsonl::validate(&text).unwrap();
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
    fn rapl_soak_is_gated_by_its_own_bound() {
        let dir = scratch("rapl");
        let out = run_cli(&format!(
            "--scheme rapl --combo Hi-Hi --ms 5 --plan severe --kills 2 --every 4 --seed 7 --dir {}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("longest over-budget (bound 11.200ms)"), "{out}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_rail_soak_has_no_bound() {
        let dir = scratch("fixed");
        let out = run_cli(&format!(
            "--scheme fixed:0.9 --combo Low-Low --ms 1 --kills 1 --plan severe --dir {}",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("soak ok: 1 kill(s)"), "{out}");
        assert!(out.contains("longest over-budget (bound n/a)"), "{out}");
        let _ = fs::remove_dir_all(&dir);
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
