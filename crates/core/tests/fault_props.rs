//! Property-based fault-campaign tests: for *arbitrary* valid fault plans,
//! the degraded-mode controller keeps over-budget excursions inside the
//! documented reaction bound, and fault-free invariants survive.
//!
//! Compiled only with `--features proptest` (local shim, no registry). Runs
//! are short (1 ms) and case counts small — each case is a full simulation.

#![cfg(feature = "proptest")]

use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::{EpisodeSpec, FaultPlan};
use hcapp_metrics::over_cap;
use hcapp_sim_core::time::SimDuration;
use hcapp_workloads::combos::combo_suite;
use proptest::prelude::*;

fn arb_spec(max_rate: f64) -> impl Strategy<Value = EpisodeSpec> {
    (0.0f64..max_rate, 1u32..48).prop_map(|(rate, dur)| EpisodeSpec::new(rate, dur))
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        arb_spec(0.01),
        arb_spec(0.005),
        arb_spec(0.005),
        arb_spec(0.01),
        (arb_spec(0.005), arb_spec(0.01), arb_spec(0.005)),
        (arb_spec(0.003), arb_spec(0.003)),
        (0.0f64..0.3, 0.0f64..0.15, 0.25f64..1.0, 1u32..8),
    )
        .prop_map(
            |(
                seed,
                sensor_noise,
                sensor_stuck,
                sensor_dropout,
                vr_droop,
                (vr_slew_derate, link_delay, link_loss),
                (ctl_stuck, ctl_silent),
                (noise_amplitude, droop_depth, slew_floor, delay_ticks),
            )| FaultPlan {
                seed,
                sensor_noise,
                sensor_stuck,
                sensor_dropout,
                vr_droop,
                vr_slew_derate,
                link_delay,
                link_loss,
                ctl_stuck,
                ctl_silent,
                noise_amplitude,
                droop_depth,
                slew_floor,
                delay_ticks,
            },
        )
}

fn run_with(plan: FaultPlan) -> hcapp::RunOutcome {
    let sys = SystemConfig::paper_system(combo_suite()[3], 11); // Hi-Hi
    let limit = PowerLimit::package_pin();
    let run = RunConfig::new(
        SimDuration::from_millis(1),
        ControlScheme::Hcapp,
        limit.guardbanded_target(),
    )
    .with_trace()
    .with_faults(plan);
    Simulation::new(sys, run).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance bound, universally quantified over plans: every
    /// maximal over-budget episode ends within the reaction bound times the
    /// worst-case slew stretch.
    #[test]
    fn over_budget_episodes_bounded_for_arbitrary_plans(plan in arb_plan()) {
        let degraded = hcapp::DegradedConfig::default();
        let period = ControlScheme::Hcapp.control_period().expect("HCAPP is dynamic");
        let bound = degraded.reaction_bound(period);
        let out = run_with(plan);
        let trace = out.trace.as_ref().expect("trace requested");
        let r = over_cap(trace, PowerLimit::package_pin().budget.value());
        prop_assert!(
            r.longest <= bound,
            "over-budget episode {} exceeds bound {}", r.longest, bound
        );
    }

    /// Whatever the plan does, the run keeps making progress and the power
    /// trace stays physical (finite, non-negative).
    #[test]
    fn faulted_runs_stay_physical(plan in arb_plan()) {
        let out = run_with(plan);
        prop_assert!(out.avg_power.value() >= 0.0);
        prop_assert!(out.avg_power.value().is_finite());
        for (_, w) in &out.work {
            prop_assert!(*w >= 0.0, "negative work");
        }
        for &p in out.trace.as_ref().expect("trace").values() {
            prop_assert!(p.is_finite() && p >= 0.0, "unphysical power {p}");
        }
    }

    /// Determinism under faults, universally quantified: the same plan
    /// yields the same outcome when re-run.
    #[test]
    fn faulted_reruns_are_identical(plan in arb_plan()) {
        let a = run_with(plan.clone());
        let b = run_with(plan);
        prop_assert_eq!(a.avg_power, b.avg_power);
        prop_assert_eq!(a.energy_j, b.energy_j);
        prop_assert_eq!(a.resilience, b.resilience);
    }
}
