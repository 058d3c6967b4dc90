//! Fault-campaign acceptance tests: the degraded-mode controller bounds how
//! long the package can stay above its power budget under a seeded fault
//! plan, and the resilience counters faithfully report what happened.
//!
//! The bound tested here is the contract documented in DESIGN.md: with any
//! valid plan, every maximal run of consecutive 1 µs trace samples above the
//! *budget* (`P_SPEC` before guardband) is at most
//! [`hcapp::DegradedConfig::reaction_quanta`] control quanta for detection
//! plus a slew-down allowance — a `vr_slew_derate` fault can slow the rail's
//! descent by up to 4× (`MIN_SLEW_DERATE` = 0.25), so the time to *exit* an
//! over-budget excursion stretches accordingly.

use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::outcome::RunOutcome;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_metrics::over_cap;
use hcapp_sim_core::time::SimDuration;
use hcapp_workloads::combos::combo_suite;

fn faulted_run(plan: Option<FaultPlan>) -> RunOutcome {
    let sys = SystemConfig::paper_system(combo_suite()[3], 11); // Hi-Hi
    let limit = PowerLimit::package_pin();
    let mut run = RunConfig::new(
        SimDuration::from_millis(4),
        ControlScheme::Hcapp,
        limit.guardbanded_target(),
    )
    .with_trace();
    if let Some(p) = plan {
        run = run.with_faults(p);
    }
    Simulation::new(sys, run).run()
}

#[test]
fn over_budget_episodes_stay_bounded_across_seeds_and_severities() {
    let limit = PowerLimit::package_pin();
    let degraded = hcapp::DegradedConfig::default();
    let period = ControlScheme::Hcapp.control_period().expect("HCAPP is dynamic");
    let bound = degraded.reaction_bound(period);
    for seed in [1u64, 7, 42, 1234] {
        for plan in [FaultPlan::moderate(seed), FaultPlan::severe(seed)] {
            let out = faulted_run(Some(plan));
            let trace = out.trace.as_ref().expect("trace requested");
            let r = over_cap(trace, limit.budget.value());
            println!(
                "seed {seed}: episodes {} longest {} over_fraction {:.4} \
                 faults {} transitions {} engagements {} em_quanta {}",
                r.episodes,
                r.longest,
                r.over_fraction(),
                out.resilience.faults_injected,
                out.resilience.health_transitions,
                out.resilience.emergency_engagements,
                out.resilience.emergency_quanta,
            );
            assert!(
                r.longest <= bound,
                "seed {seed}: over-budget episode {} exceeds the reaction bound {bound}",
                r.longest
            );
        }
    }
}

#[test]
fn clean_run_reports_zero_resilience_counters() {
    let out = faulted_run(None);
    assert_eq!(out.resilience, hcapp::ResilienceCounters::default());
}

#[test]
fn severe_plan_populates_resilience_counters() {
    let out = faulted_run(Some(FaultPlan::severe(3)));
    let r = out.resilience;
    assert!(r.faults_injected > 0, "severe plan injected nothing");
    assert!(r.health_transitions > 0, "no watchdog ever tripped");
}

#[test]
fn quiet_plan_changes_nothing_measurable() {
    // A plan with every class off arms the degradation layer but injects no
    // fault; the outcome must match the clean run exactly (the watchdogs
    // observe only healthy signals and all throttles stay bitwise 1.0).
    let clean = faulted_run(None);
    let quiet = faulted_run(Some(FaultPlan::quiet(5)));
    println!("quiet counters: {:?}", quiet.resilience);
    assert_eq!(clean.avg_power, quiet.avg_power);
    assert_eq!(clean.energy_j, quiet.energy_j);
    assert_eq!(clean.work, quiet.work);
    assert_eq!(quiet.resilience.faults_injected, 0);
}

#[test]
fn faulted_outcome_is_identical_across_reruns() {
    let a = faulted_run(Some(FaultPlan::severe(13)));
    let b = faulted_run(Some(FaultPlan::severe(13)));
    assert!(a.resilience.faults_injected > 0, "severe plan injected nothing");
    assert_eq!(a.avg_power, b.avg_power);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.work, b.work);
    assert_eq!(a.resilience, b.resilience);
    assert_eq!(
        a.trace.as_ref().map(|t| t.values().to_vec()),
        b.trace.as_ref().map(|t| t.values().to_vec())
    );
}

#[test]
fn fault_plan_seed_steers_the_campaign() {
    // The plan's seed is the only input that differs; two seeds must not
    // collapse onto the same fault sequence.
    let a = faulted_run(Some(FaultPlan::severe(13)));
    let b = faulted_run(Some(FaultPlan::severe(14)));
    assert_ne!(
        (a.resilience, a.energy_j.to_bits()),
        (b.resilience, b.energy_j.to_bits())
    );
}
