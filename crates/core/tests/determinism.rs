//! Determinism regression tests backing simlint rule L3: the property the
//! static rule protects (bit-identical reruns, run == cached replay)
//! checked end-to-end on the paper system. If someone allowlists their way
//! past L3 with something genuinely nondeterministic, these fail.

use hcapp::cache::{decode_outcome, encode_outcome, job_key, run_all_cached, RunCache};
use hcapp::coordinator::{RunConfig, Simulation, SoftwareConfig};
use hcapp::outcome::RunOutcome;
use hcapp::scheme::ControlScheme;
use hcapp::software::ComponentKind;
use hcapp::system::SystemConfig;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;
use hcapp_workloads::combos::combo_suite;

fn config(scheme: ControlScheme) -> (SystemConfig, RunConfig) {
    let sys = SystemConfig::paper_system(combo_suite()[3], 7); // Hi-Hi
    let run = RunConfig::new(SimDuration::from_millis(2), scheme, Watt::new(84.0))
        .with_trace()
        .with_voltage_trace();
    (sys, run)
}

fn sim() -> Simulation {
    let (sys, run) = config(ControlScheme::Hcapp);
    Simulation::new(sys, run)
}

/// Field-by-field bitwise comparison of two outcomes.
fn assert_outcomes_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.avg_power, b.avg_power, "{what}");
    assert_eq!(a.energy_j, b.energy_j, "{what}");
    assert_eq!(a.work, b.work, "{what}");
    assert_eq!(a.windowed_max, b.windowed_max, "{what}");
    assert_eq!(a.mean_global_voltage, b.mean_global_voltage, "{what}");
    assert_eq!(a.trace, b.trace, "{what}");
    assert_eq!(a.voltage_trace, b.voltage_trace, "{what}");
    assert_eq!(a.resilience, b.resilience, "{what}");
}

/// A run and its cached replay must be byte-identical, for a dynamic
/// scheme and for the fixed baseline.
#[test]
fn run_and_cached_replay_bitwise_identical() {
    let cache_dir = std::env::temp_dir().join(format!(
        "hcapp_determinism_cache_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::new(&cache_dir);

    for scheme in [ControlScheme::Hcapp, ControlScheme::fixed_baseline()] {
        let (sys, run) = config(scheme);
        let reference = Simulation::new(sys.clone(), run.clone()).run();

        // Cached replay: cold run populates, warm run replays bit-exactly.
        let (cold, s1) = run_all_cached(vec![(sys.clone(), run.clone())], 2, &cache);
        assert_eq!((s1.hits, s1.misses), (0, 1));
        assert_outcomes_identical(&reference, &cold[0], "cold cached run");
        let (warm, s2) = run_all_cached(vec![(sys, run)], 2, &cache);
        assert_eq!((s2.hits, s2.misses), (1, 0));
        assert_outcomes_identical(&reference, &warm[0], "warm cached run");
        assert_eq!(encode_outcome(&warm[0]), encode_outcome(&reference));
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The cache key must see through everything that changes results, and
/// the codec must round-trip the outcome of a real run exactly.
#[test]
fn cache_key_and_codec_contract() {
    let (sys, run) = config(ControlScheme::Hcapp);
    let key = job_key(&sys, &run).expect("untraced runs are cacheable");
    assert_eq!(Some(key), job_key(&sys, &run));
    let (sys2, run2) = config(ControlScheme::fixed_baseline());
    assert_ne!(Some(key), job_key(&sys2, &run2));

    let out = Simulation::new(sys, run).run();
    let decoded = decode_outcome(&encode_outcome(&out)).expect("codec round-trip");
    assert_outcomes_identical(&out, &decoded, "codec round-trip");
}

#[test]
fn rerun_is_bit_identical() {
    let a = sim().run();
    let b = sim().run();
    assert_eq!(a.avg_power, b.avg_power);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.work, b.work);
    assert_eq!(
        a.trace.expect("trace").values(),
        b.trace.expect("trace").values()
    );
}

/// The cache gate in deterministic form: a warm pass over the 32-job
/// Table-3 sweep (8 combos × 4 schemes) answers every job from disk and
/// returns the cold pass's outcomes byte for byte.
#[test]
fn warm_table3_sweep_hits_every_job_bit_identically() {
    let cache_dir = std::env::temp_dir().join(format!(
        "hcapp_determinism_sweep_cache_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::new(&cache_dir);
    let jobs: Vec<(SystemConfig, RunConfig)> = combo_suite()
        .into_iter()
        .flat_map(|combo| {
            ControlScheme::all().into_iter().map(move |scheme| {
                (
                    SystemConfig::paper_system(combo, 11),
                    RunConfig::new(SimDuration::from_micros(200), scheme, Watt::new(84.0)),
                )
            })
        })
        .collect();
    assert_eq!(jobs.len(), 32);

    let (cold, cs) = run_all_cached(jobs.clone(), 2, &cache);
    assert_eq!(
        (cs.hits, cs.misses, cs.corrupt, cs.uncacheable),
        (0, 32, 0, 0)
    );
    let (warm, ws) = run_all_cached(jobs, 2, &cache);
    assert_eq!(
        (ws.hits, ws.misses, ws.corrupt, ws.uncacheable),
        (32, 0, 0, 0)
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(encode_outcome(c), encode_outcome(w));
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Every named scheme and a custom period rerun to the same bits, so each
/// quantum length the run loop steps by is covered, not only HCAPP's 1 µs.
#[test]
fn every_scheme_reruns_bit_identically() {
    let mut schemes = ControlScheme::all().to_vec();
    schemes.push(ControlScheme::CustomPeriod(SimDuration::from_micros(10)));
    for scheme in schemes {
        let (sys, run) = config(scheme);
        let a = Simulation::new(sys.clone(), run.clone()).run();
        let b = Simulation::new(sys, run).run();
        assert_outcomes_identical(&a, &b, &format!("{scheme:?}"));
    }
}

/// A 16-domain package: the domain walk and the in-order power sum must
/// not depend on anything but the inputs when there are many domains.
#[test]
fn scaled_package_reruns_bit_identically() {
    let sys = SystemConfig::scaled_system(combo_suite()[3], 6, 6, 4, 7).expect("nonempty");
    let run = RunConfig::new(SimDuration::from_micros(500), ControlScheme::Hcapp, Watt::new(84.0))
        .with_trace()
        .with_voltage_trace();
    let a = Simulation::new(sys.clone(), run.clone()).run();
    let b = Simulation::new(sys, run).run();
    assert_eq!(a.work.len(), 16);
    assert_outcomes_identical(&a, &b, "16 domains");
}

/// The software policy feeds priorities back into every domain each
/// quantum; with it on, reruns must still agree bit for bit.
#[test]
fn software_policy_reruns_bit_identically() {
    for sw in [
        SoftwareConfig::StaticPriority(ComponentKind::Gpu),
        SoftwareConfig::DynamicBacklog,
    ] {
        let (sys, run) = config(ControlScheme::Hcapp);
        let run = run.with_software(sw);
        let a = Simulation::new(sys.clone(), run.clone()).run();
        let b = Simulation::new(sys, run).run();
        assert_outcomes_identical(&a, &b, &format!("{sw:?}"));
    }
}
