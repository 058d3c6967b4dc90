//! `hcapp faults` — run one configuration under a seeded fault plan and
//! report what the degradation layer did about it: resilience counters,
//! over-budget episode structure, and the PPE given up relative to the
//! clean run.
//!
//! The clean and faulted runs are [`hcapp::campaign::fault_cell`], judged
//! against the run's own scheme's reaction bound; a fixed rail has no
//! controller to react, so its bound reads `n/a` and is not gated.
//!
//! `--check` runs the self-test the CI smoke step uses: a short faulted
//! run must export a valid JSONL trace, inject at least one fault, and
//! keep every over-budget episode inside HCAPP's reaction bound.

use hcapp::campaign::{self, Excursion};
use hcapp::coordinator::RunConfig;
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_metrics::ppe_drop;
use hcapp_sim_core::report::Table;
use hcapp_sim_core::time::SimDuration;
use hcapp_telemetry::jsonl;
use hcapp_workloads::combos::combo_by_name;

use crate::args::{ArgError, Args};
use crate::commands::shared;

fn bad(flag: &str, value: String, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value,
        expected,
    }
}

/// Execute `hcapp faults`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    if args.switch("check")? {
        let seed = args.u64("seed", 7)?;
        args.finish()?;
        return check(seed);
    }

    let (sys, run, limit) = shared::build(args)?;
    let seed = args.u64("seed", 11)?;
    let plan_name = args.string("plan", "moderate")?;
    args.finish()?;
    let plan = FaultPlan::preset(&plan_name, seed)
        .ok_or_else(|| bad("plan", plan_name.clone(), hcapp_faults::PRESET_LIST))?;

    let cell = campaign::fault_cell(&sys, &run, plan, limit.budget);
    let (clean, faulted, ex) = (&cell.clean, &cell.faulted, &cell.excursion);
    let (r, budget) = (&faulted.resilience, limit.budget);

    let mut t = Table::new(
        format!(
            "{} under plan '{plan_name}' (seed {seed}, limit {budget:.0})",
            faulted.scheme
        ),
        &["metric", "clean", "faulted"],
    );
    let mut row = |metric: String, clean: &str, faulted: String| {
        t.add_row(vec![metric, clean.to_string(), faulted]);
    };
    let ppe = (clean.ppe(budget), faulted.ppe(budget));
    row("avg power".into(), &format!("{:.2}", clean.avg_power), format!("{:.2}", faulted.avg_power));
    row("PPE".into(), &format!("{:.4}", ppe.0), format!("{:.4}", ppe.1));
    row("PPE drop".into(), "-", format!("{:.4}", ppe_drop(ppe.0, ppe.1)));
    row("fault episodes injected".into(), "0", r.faults_injected.to_string());
    row("health transitions".into(), "0", r.health_transitions.to_string());
    row("emergency engagements".into(), "0", r.emergency_engagements.to_string());
    row("emergency quanta".into(), "0", r.emergency_quanta.to_string());
    row("over-budget episodes".into(), "-", ex.over.episodes.to_string());
    row("longest over-budget".into(), "-", ex.over.longest.to_string());
    row("time over budget".into(), "-", format!("{:.3}%", ex.over.over_fraction() * 100.0));
    row(
        format!("within reaction bound ({})", ex.bound_label()),
        "-",
        ex.verdict_label().to_string(),
    );
    Ok(t.render())
}

/// `hcapp faults --check`: a faulted run must export a valid trace, inject
/// faults, and respect the reaction bound.
fn check(seed: u64) -> Result<String, ArgError> {
    let fail = |msg: String| bad("check", msg, "a self-consistent fault campaign");
    let limit = PowerLimit::package_pin();
    let combo = combo_by_name("Hi-Hi").expect("known combo");
    let sys = SystemConfig::paper_system(combo, seed);
    let run = RunConfig::new(
        SimDuration::from_millis(2),
        ControlScheme::Hcapp,
        limit.guardbanded_target(),
    )
    .with_trace()
    .with_faults(FaultPlan::moderate(seed));
    let seed_str = seed.to_string();
    let (out, text) = campaign::reference_trace(&sys, &run, &[("check-seed", &seed_str)])
        .map_err(|e| fail(e.to_string()))?;
    jsonl::validate(&text).map_err(|e| fail(format!("faulted trace failed validation: {e}")))?;

    let ex = Excursion::of(&out, limit.budget);
    ex.check().map_err(fail)?;
    if out.resilience.faults_injected == 0 {
        return Err(fail(
            "moderate plan injected no faults — injector is dead".to_string(),
        ));
    }

    Ok(format!(
        "faults --check ok (seed {seed}): {} fault episodes, \
         {} health transitions, longest over-budget {} <= bound {}, \
         valid trace ({} bytes)\n",
        out.resilience.faults_injected,
        out.resilience.health_transitions,
        ex.over.longest,
        ex.bound_label(),
        text.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(s: &str) -> Result<String, ArgError> {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap())
    }

    #[test]
    fn check_mode_passes() {
        let out = run_cli("--check --seed 7").unwrap();
        assert!(out.contains("faults --check ok"));
        assert!(out.contains("valid trace"));
    }

    #[test]
    fn reports_a_campaign_table() {
        let out = run_cli("--combo Hi-Hi --ms 2 --plan severe --seed 3").unwrap();
        assert!(out.contains("fault episodes injected"));
        assert!(out.contains("within reaction bound"));
        assert!(out.contains("yes"));
    }

    #[test]
    fn rapl_is_judged_against_its_own_bound() {
        let out = run_cli("--combo Hi-Hi --ms 5 --plan severe --scheme rapl --seed 7").unwrap();
        assert!(out.contains("within reaction bound (11.200ms)"), "{out}");
        assert!(out.contains("yes"), "{out}");
        assert!(!out.contains("NO"), "{out}");
    }

    #[test]
    fn fixed_rail_has_no_bound_to_gate() {
        let out = run_cli("--combo Hi-Hi --ms 2 --plan severe --scheme fixed:0.9 --seed 3").unwrap();
        let row = out
            .lines()
            .find(|l| l.starts_with("within reaction bound"))
            .unwrap();
        assert!(row.starts_with("within reaction bound (n/a)"), "{out}");
        assert!(row.trim_end().ends_with("n/a"), "{out}");
    }

    #[test]
    fn quiet_plan_drops_no_ppe() {
        let out = run_cli("--combo Low-Low --ms 2 --plan quiet").unwrap();
        assert!(out.contains("PPE drop"));
        assert!(out.contains("0.0000"));
    }

    #[test]
    fn unknown_plan_rejected() {
        let e = run_cli("--combo Hi-Hi --ms 1 --plan loud").unwrap_err();
        assert!(e.to_string().contains("plan"));
    }

    #[test]
    fn unknown_plan_error_lists_every_valid_preset() {
        let msg = run_cli("--combo Hi-Hi --ms 1 --plan loud")
            .unwrap_err()
            .to_string();
        for name in hcapp_faults::PRESET_NAMES {
            assert!(msg.contains(name), "error {msg:?} does not list preset {name}");
        }
    }
}
