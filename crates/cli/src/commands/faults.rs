//! `hcapp faults` — run one configuration under a seeded fault plan and
//! report what the degradation layer did about it: resilience counters,
//! over-budget episode structure, and the PPE given up relative to the
//! clean run.
//!
//! `--check` runs the self-test the CI smoke step uses: a short faulted
//! run must export a valid JSONL trace, inject at least one fault, and
//! keep every over-budget episode inside the documented reaction bound.

use std::sync::{Arc, Mutex};

use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp::DegradedConfig;
use hcapp_faults::FaultPlan;
use hcapp_metrics::{over_cap, ppe_drop};
use hcapp_sim_core::report::Table;
use hcapp_sim_core::time::SimDuration;
use hcapp_telemetry::{jsonl, RingTracer, SharedTracer};
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

/// The contract from DESIGN.md: the longest tolerated over-budget episode
/// under any valid plan. Shared with `hcapp soak`, whose stitched runs must
/// honor the same bound.
pub(crate) fn reaction_bound() -> SimDuration {
    DegradedConfig::default().reaction_bound(
        ControlScheme::Hcapp
            .control_period()
            .expect("HCAPP is dynamic"),
    )
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

    let go = |run: RunConfig| Simulation::new(sys.clone(), run).run();
    let clean = go(run.clone().with_trace());
    let faulted = go(run.with_trace().with_faults(plan));

    let trace = faulted
        .trace
        .as_ref()
        .expect("invariant: with_trace always records a trace");
    let over = over_cap(trace, limit.budget.value());
    let r = faulted.resilience;
    let provisioned = limit.budget;

    let mut t = Table::new(
        format!(
            "{} under plan '{plan_name}' (seed {seed}, limit {:.0})",
            faulted.scheme, limit.budget
        ),
        &["metric", "clean", "faulted"],
    );
    t.add_row(vec![
        "avg power".into(),
        format!("{:.2}", clean.avg_power),
        format!("{:.2}", faulted.avg_power),
    ]);
    t.add_row(vec![
        "PPE".into(),
        format!("{:.4}", clean.ppe(provisioned)),
        format!("{:.4}", faulted.ppe(provisioned)),
    ]);
    t.add_row(vec![
        "PPE drop".into(),
        "-".into(),
        format!(
            "{:.4}",
            ppe_drop(clean.ppe(provisioned), faulted.ppe(provisioned))
        ),
    ]);
    t.add_row(vec![
        "fault episodes injected".into(),
        "0".into(),
        r.faults_injected.to_string(),
    ]);
    t.add_row(vec![
        "health transitions".into(),
        "0".into(),
        r.health_transitions.to_string(),
    ]);
    t.add_row(vec![
        "emergency engagements".into(),
        "0".into(),
        r.emergency_engagements.to_string(),
    ]);
    t.add_row(vec![
        "emergency quanta".into(),
        "0".into(),
        r.emergency_quanta.to_string(),
    ]);
    t.add_row(vec![
        "over-budget episodes".into(),
        "-".into(),
        over.episodes.to_string(),
    ]);
    t.add_row(vec![
        "longest over-budget".into(),
        "-".into(),
        format!("{}", over.longest),
    ]);
    t.add_row(vec![
        "time over budget".into(),
        "-".into(),
        format!("{:.3}%", over.over_fraction() * 100.0),
    ]);
    t.add_row(vec![
        format!("within reaction bound ({})", reaction_bound()),
        "-".into(),
        if over.longest <= reaction_bound() {
            "yes".into()
        } else {
            "NO".into()
        },
    ]);
    Ok(t.render())
}

/// `hcapp faults --check`: a faulted run must export a valid trace, inject
/// faults, and respect the reaction bound.
fn check(seed: u64) -> Result<String, ArgError> {
    let fail = |msg: String| bad("check", msg, "a self-consistent fault campaign");
    let limit = PowerLimit::package_pin();
    let combo = combo_by_name("Hi-Hi").expect("known combo");
    let sys = SystemConfig::paper_system(combo, seed);
    let ring = Arc::new(Mutex::new(RingTracer::new(1 << 16)));
    let run = RunConfig::new(
        SimDuration::from_millis(2),
        ControlScheme::Hcapp,
        limit.guardbanded_target(),
    )
    .with_trace()
    .with_faults(FaultPlan::moderate(seed))
    .with_tracer(ring.clone() as SharedTracer);
    let out = Simulation::new(sys, run).run();
    let events = ring
        .lock()
        .expect("invariant: tracer mutex never poisoned")
        .drain();
    let text = jsonl::export(&events, &[("check-seed", &seed.to_string())]);
    jsonl::validate(&text).map_err(|e| fail(format!("faulted trace failed validation: {e}")))?;

    let trace = out
        .trace
        .as_ref()
        .expect("invariant: with_trace always records a trace");
    let over = over_cap(trace, limit.budget.value());
    let bound = reaction_bound();
    if over.longest > bound {
        return Err(fail(format!(
            "over-budget episode {} exceeds the reaction bound {bound}",
            over.longest
        )));
    }
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
        over.longest,
        bound,
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
