//! Chaos-soak study: crash-safe resume equivalence across the scenario
//! matrix.
//!
//! Every cell is one [`hcapp::campaign::soak`]: the scenario runs once
//! uninterrupted (the reference) and once as a checkpointing run that is
//! killed at seeded quanta and resumed from its latest `hcapp.ckpt`. The
//! stitched run must reproduce the reference **bit-exactly** — outcome
//! encoding, JSONL trace stream (which must also validate) and replayed
//! `hcapp.report` — and its over-budget episodes must respect the same
//! reaction bound the fault campaign enforces. The matrix crosses fault
//! plans with checkpoint cadences, so the seams are soaked under every plan
//! preset.

use std::fs;

use hcapp::campaign::{self, Excursion};
use hcapp::coordinator::RunConfig;
use hcapp::limits::PowerLimit;
use hcapp::resume::{outcome_digest, ResumeOptions};
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_sim_core::report::Table;
use hcapp_workloads::combos::combo_by_name;

use crate::config::ExperimentConfig;

/// One cell's soak verdict.
#[derive(Debug, Clone)]
pub struct SoakRow {
    /// Fault-plan preset name (`none` for a clean run).
    pub plan: String,
    /// Checkpoint cadence in control quanta.
    pub every: u64,
    /// Quanta the run was killed at (sorted).
    pub kills: Vec<u64>,
    /// Checkpoints written across all links.
    pub checkpoints: u64,
    /// 32-hex digest of the stitched outcome.
    pub digest: String,
    /// Outcome + trace (validated) + report all byte-identical to the
    /// reference.
    pub identical: bool,
    /// The stitched run's over-budget episodes against the reaction bound.
    pub excursion: Excursion,
}

/// The scenario matrix: plans × checkpoint cadences, two kills per cell.
pub fn compute(cfg: &ExperimentConfig) -> Vec<SoakRow> {
    let cells: [(&str, u64); 4] = [
        ("none", 32),
        ("quiet", 64),
        ("moderate", 64),
        ("severe", 16),
    ];
    cells
        .iter()
        .map(|&(plan, every)| soak_cell(cfg, plan, every, 2))
        .collect()
}

/// Run one cell through [`campaign::soak`], with kill points decorrelated
/// per cell.
fn soak_cell(cfg: &ExperimentConfig, plan: &str, every: u64, kills: u64) -> SoakRow {
    let limit = PowerLimit::package_pin();
    let combo = combo_by_name("Hi-Hi").expect("known combo");
    let sys = SystemConfig::paper_system(combo, cfg.seed);
    let mut run = RunConfig::new(
        cfg.duration,
        ControlScheme::Hcapp,
        limit.guardbanded_target(),
    );
    if plan != "none" {
        run = run.with_faults(FaultPlan::preset(plan, cfg.seed).expect("matrix presets are valid"));
    }

    let dir = cfg.out_dir.join(format!("soak-scratch/{plan}-{every}"));
    let _ = fs::remove_dir_all(&dir);
    let opts = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(every)
        .with_trace_sink(dir.join("hcapp.trace"))
        .with_trace_extra("case", "soak")
        .with_trace_extra("plan", plan);
    let r = campaign::soak(&sys, &run, &opts, cfg.seed ^ every, kills, limit.budget)
        .unwrap_or_else(|e| panic!("soak cell {plan}-{every}: {e}"));
    let _ = fs::remove_dir_all(&dir);
    SoakRow {
        plan: plan.to_string(),
        every,
        kills: r.kills,
        checkpoints: r.chain.checkpoints,
        digest: outcome_digest(&r.chain.outcome),
        identical: r.divergence.is_none(),
        excursion: r.excursion,
    }
}

/// Execute, render and write CSV.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let rows = compute(cfg);
    let mut t = Table::new(
        format!(
            "Chaos soak: kill/resume equivalence, seed {}, Hi-Hi, {} per cell",
            cfg.seed, cfg.duration
        ),
        &[
            "plan",
            "cadence",
            "killed at",
            "ckpts",
            "digest",
            "identical?",
            "longest over",
            "bound",
            "bounded?",
        ],
    );
    for r in &rows {
        t.add_row(vec![
            r.plan.clone(),
            r.every.to_string(),
            r.kills
                .iter()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
                .join(","),
            r.checkpoints.to_string(),
            r.digest.clone(),
            if r.identical { "yes" } else { "NO" }.into(),
            format!("{}", r.excursion.over.longest),
            r.excursion.bound_label(),
            r.excursion.verdict_label().into(),
        ]);
    }
    t.write_csv(cfg.csv_path("soak")).expect("write csv");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_is_bit_identical_and_bounded() {
        let cfg = ExperimentConfig::quick(1);
        let rows = compute(&cfg);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.kills.len(), 2, "{}", r.plan);
            assert!(
                r.identical,
                "{} (cadence {}): stitched run diverged from the oracle",
                r.plan, r.every
            );
            assert!(r.excursion.within_bound(), "{}: {:?}", r.plan, r.excursion.check());
        }
        // Distinct plans must actually change the run.
        assert_ne!(rows[0].digest, rows[2].digest);
    }
}
