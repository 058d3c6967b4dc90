//! Property-based tests across the full stack.
//!
//! Compiled only with `--features proptest` so the default `cargo test -q`
//! stays lean; the suite runs against the local proptest shim
//! (`crates/proptest-shim`), so no registry access is needed either way.
#![cfg(feature = "proptest")]

use hcapp_repro::hcapp::coordinator::{RunConfig, Simulation};
use hcapp_repro::hcapp::limits::PowerLimit;
use hcapp_repro::hcapp::scheme::ControlScheme;
use hcapp_repro::hcapp::system::SystemConfig;
use hcapp_repro::hcapp::testutil::all_combos;
use hcapp_repro::sim_core::time::SimDuration;
use hcapp_repro::sim_core::units::{Volt, Watt};
use hcapp_repro::workloads::combos::combo_suite;
use proptest::prelude::*;

fn run_once(combo_idx: usize, seed: u64, target_w: f64, scheme: ControlScheme) -> hcapp_repro::hcapp::outcome::RunOutcome {
    let combo = all_combos()[combo_idx % 8];
    let sys = SystemConfig::paper_system(combo, seed);
    let run = RunConfig::new(
        SimDuration::from_millis(1),
        scheme,
        Watt::new(target_w),
    );
    Simulation::new(sys, run).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any combo/seed/target, the simulation produces physical results:
    /// positive finite power bounded by the package ceiling, non-negative
    /// work for every domain.
    #[test]
    fn runs_are_physical(combo in 0usize..8, seed in 0u64..1_000, target in 40.0f64..120.0) {
        let out = run_once(combo, seed, target, ControlScheme::Hcapp);
        prop_assert!(out.avg_power.value() > 0.0);
        prop_assert!(out.avg_power.is_finite());
        let ceiling = SystemConfig::paper_system(combo_suite()[combo % 8], seed)
            .peak_power_at(Volt::new(1.3))
            .value();
        prop_assert!(out.avg_power.value() <= ceiling);
        for (_, w) in &out.work {
            prop_assert!(*w >= 0.0 && w.is_finite());
        }
    }

    /// Determinism holds for arbitrary seeds and targets.
    #[test]
    fn replays_are_identical(combo in 0usize..8, seed in 0u64..1_000, target in 40.0f64..120.0) {
        let a = run_once(combo, seed, target, ControlScheme::Hcapp);
        let b = run_once(combo, seed, target, ControlScheme::Hcapp);
        prop_assert_eq!(a.avg_power, b.avg_power);
        prop_assert_eq!(a.work, b.work);
    }

    /// A higher power target never reduces the regulated average power
    /// (same workload, same seed) — the controller is monotone in its
    /// setpoint.
    #[test]
    fn target_monotonicity(combo in 0usize..8, seed in 0u64..100) {
        let lo = run_once(combo, seed, 60.0, ControlScheme::Hcapp);
        let hi = run_once(combo, seed, 95.0, ControlScheme::Hcapp);
        prop_assert!(
            hi.avg_power.value() >= lo.avg_power.value() - 1.5,
            "target 95 W gave {} but 60 W gave {}",
            hi.avg_power, lo.avg_power
        );
    }

    /// The windowed max never falls below the run average for any window
    /// (max of a window-average ≥ global average, once a window fits).
    #[test]
    fn windowed_max_dominates_average(combo in 0usize..8, seed in 0u64..100) {
        let out = run_once(combo, seed, 84.0, ControlScheme::fixed_baseline());
        for (w, max) in &out.windowed_max {
            if *w <= out.duration {
                prop_assert!(
                    max.value() >= out.avg_power.value() - 1e-6,
                    "window {w}: max {max} below average {}",
                    out.avg_power
                );
            }
        }
    }

    /// PPE is the average power over the budget — consistent across any
    /// budget value.
    #[test]
    fn ppe_definition_consistent(combo in 0usize..8, budget in 50.0f64..150.0) {
        let out = run_once(combo, 7, 84.0, ControlScheme::Hcapp);
        let limit = PowerLimit::new(Watt::new(budget), SimDuration::from_micros(20));
        let ppe = out.ppe(limit.budget);
        prop_assert!((ppe * budget - out.avg_power.value()).abs() < 1e-9);
    }

    /// Metamorphic (Eq. 1–2/4): PPE normalizes by the provisioned power,
    /// so scaling the provisioned budget by a power of two must scale PPE
    /// by exactly its inverse — bit-exact, because power-of-two float ops
    /// touch only the exponent.
    #[test]
    fn ppe_invariant_under_power_unit_scaling(
        combo in 0usize..8, seed in 0u64..100, k_exp in 1u32..4, budget in 50.0f64..150.0
    ) {
        let out = run_once(combo, seed, 84.28, ControlScheme::Hcapp);
        let k = f64::from(1u32 << k_exp);
        let reference = out.ppe(Watt::new(budget));
        let rescaled = out.ppe(Watt::new(budget * k)) * k;
        let _ = k;
        prop_assert_eq!(reference.to_bits(), rescaled.to_bits());
    }

    /// Metamorphic (§5.3): the domain priority register is last-write-wins,
    /// so permuting every write but the final one leaves the domain voltage
    /// bit-identical at any global voltage.
    #[test]
    fn priority_register_is_last_write_wins(
        prefix in proptest::collection::vec(0.5f64..1.5, 1..6),
        last in 0.5f64..1.5,
        vg in 0.7f64..1.3
    ) {
        let volts_of = |writes: &[f64]| {
            let mut dc = hcapp_repro::hcapp::DomainController::scaled(
                1.0, Volt::new(0.7), Volt::new(1.3));
            for &p in writes {
                dc.set_priority(p);
            }
            dc.domain_voltage(Volt::new(vg)).value().to_bits()
        };
        let mut fwd = prefix.clone();
        fwd.push(last);
        let mut rev: Vec<f64> = prefix.iter().rev().copied().collect();
        rev.push(last);
        prop_assert_eq!(volts_of(&fwd), volts_of(&rev));
    }

    /// Metamorphic (§5.2): a dynamic retarget takes effect at the next
    /// control-quantum boundary, so ceiling an off-boundary retarget time
    /// onto that boundary cannot change the outcome — bit for bit.
    #[test]
    fn retarget_boundary_shift_equivariance(
        combo in 0usize..8, seed in 0u64..100, at_us in 1u64..900, w in 50.0f64..110.0
    ) {
        use hcapp_repro::hcapp::cache::encode_outcome;
        use hcapp_repro::sim_core::time::SimTime;
        let scheme = ControlScheme::Hcapp;
        let p_ns = scheme.control_period().expect("hcapp is dynamic").as_nanos();
        let at_ns = at_us * 1_000 + 137; // deliberately off the boundary grid
        let shifted_ns = at_ns.div_ceil(p_ns) * p_ns;
        prop_assert!(at_ns != shifted_ns);
        let run_with = |ns: u64| {
            let sys = SystemConfig::paper_system(combo_suite()[combo % 8], seed);
            let run = RunConfig::new(
                SimDuration::from_millis(1), scheme, Watt::new(84.28))
                .with_retarget(SimTime::from_nanos(ns), Watt::new(w));
            encode_outcome(&Simulation::new(sys, run).run())
        };
        prop_assert_eq!(run_with(at_ns), run_with(shifted_ns));
    }
}
