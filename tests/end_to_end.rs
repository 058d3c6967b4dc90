//! Cross-crate integration tests: the full stack, end to end.

use hcapp_repro::hcapp::coordinator::{Simulation, SoftwareConfig};
use hcapp_repro::hcapp::limits::PowerLimit;
use hcapp_repro::hcapp::scheme::ControlScheme;
use hcapp_repro::hcapp::software::ComponentKind;
use hcapp_repro::hcapp::system::SystemConfig;
use hcapp_repro::hcapp::testutil::{self, paper_config, paper_run as quick_run};
use hcapp_repro::sim_core::units::Volt;
use hcapp_repro::workloads::combos::combo_suite;

#[test]
fn energy_consistency_across_the_stack() {
    // avg power × duration must equal integrated energy for every scheme.
    for scheme in ControlScheme::all() {
        let out = quick_run("Mid-Mid", scheme, 3, 4);
        let expect = out.avg_power.value() * out.duration.as_secs_f64();
        assert!(
            (out.energy_j - expect).abs() < 1e-9 * expect.max(1.0),
            "{}: energy {} != avg*duration {}",
            scheme.name(),
            out.energy_j,
            expect
        );
    }
}

#[test]
fn power_bounded_by_physical_peak() {
    // No scheme can draw more than the package's theoretical peak at the
    // voltage ceiling.
    let combo = testutil::combo("Hi-Hi");
    let sys = SystemConfig::paper_system(combo, 5);
    let ceiling = sys.peak_power_at(Volt::new(sys.pid.out_max)).value();
    for scheme in ControlScheme::all() {
        let out = quick_run("Hi-Hi", scheme, 5, 4);
        for (_, max) in &out.windowed_max {
            assert!(
                max.value() <= ceiling + 1e-6,
                "{}: windowed max {} exceeds physical ceiling {}",
                scheme.name(),
                max,
                ceiling
            );
        }
    }
}

#[test]
fn hcapp_respects_fast_limit_on_every_combo() {
    let limit = PowerLimit::package_pin();
    for combo in combo_suite() {
        let out = quick_run(combo.name, ControlScheme::Hcapp, 11, 6);
        let ratio = out.max_ratio(&limit).unwrap();
        assert!(
            ratio <= 1.0,
            "{}: HCAPP max/limit {ratio} violates the package-pin limit",
            combo.name
        );
    }
}

#[test]
fn dynamic_control_beats_static_on_light_workloads() {
    // Low-Low leaves most of the budget unused at a fixed 0.95 V; HCAPP
    // should reclaim it as speedup (the power-shifting story).
    let fixed = quick_run("Low-Low", ControlScheme::fixed_baseline(), 13, 6);
    let hcapp = quick_run("Low-Low", ControlScheme::Hcapp, 13, 6);
    let s = hcapp.speedup_vs(&fixed);
    assert!(s > 1.15, "Low-Low speedup {s} too small");
    assert!(
        hcapp.avg_power.value() > fixed.avg_power.value() * 1.3,
        "HCAPP should use far more of the budget on Low-Low"
    );
}

#[test]
fn priorities_shift_work_without_breaking_the_cap() {
    let combo = testutil::combo("Mid-Mid");
    let limit = PowerLimit::package_pin();
    let base_cfg = || paper_config(combo, ControlScheme::Hcapp, 17, 6);
    let (sys, run) = base_cfg();
    let neutral = Simulation::new(sys, run).run();
    for kind in ComponentKind::ALL {
        let (sys, run) = base_cfg();
        let out = Simulation::new(sys, run.with_software(SoftwareConfig::StaticPriority(kind))).run();
        let b = neutral.work_for(kind).unwrap();
        let w = out.work_for(kind).unwrap();
        assert!(
            w > b,
            "{}: prioritized work {w} should exceed neutral {b}",
            kind.name()
        );
        let ratio = out.max_ratio(&limit).unwrap();
        assert!(
            ratio <= 1.0 + 1e-9,
            "{}: priority broke the cap ({ratio})",
            kind.name()
        );
    }
}

#[test]
fn seeds_change_details_not_shape() {
    let limit = PowerLimit::package_pin();
    let mut ppes = Vec::new();
    for seed in [1, 2, 3] {
        let out = quick_run("Hi-Hi", ControlScheme::Hcapp, seed, 6);
        assert!(out.max_ratio(&limit).unwrap() <= 1.0, "seed {seed} violates");
        ppes.push(out.ppe(limit.budget));
    }
    // Different seeds: different trajectories…
    assert!(ppes.windows(2).any(|w| w[0] != w[1]));
    // …but the same regulation band.
    for p in ppes {
        assert!((0.70..=0.90).contains(&p), "PPE {p} out of band");
    }
}

#[test]
fn fixed_voltage_power_reflects_workload_class() {
    // Low-class combos draw clearly less than Mid/Hi ones at the same
    // voltage; the Hi class peaks higher than the steady Mid class even
    // though its duty-cycled average lands nearby.
    let limit = PowerLimit::package_pin();
    let low = quick_run("Low-Low", ControlScheme::fixed_baseline(), 19, 6);
    let mid = quick_run("Mid-Mid", ControlScheme::fixed_baseline(), 19, 6);
    let hi = quick_run("Hi-Hi", ControlScheme::fixed_baseline(), 19, 6);
    assert!(low.avg_power.value() < mid.avg_power.value());
    assert!(low.avg_power.value() < hi.avg_power.value());
    assert!(
        hi.max_ratio(&limit).unwrap() > mid.max_ratio(&limit).unwrap(),
        "Hi-Hi should peak above Mid-Mid"
    );
}
