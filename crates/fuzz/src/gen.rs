//! Seeded case generation: valid by construction, biased toward edges.
//!
//! `generate(seed)` is a pure function — same seed, same case, on every
//! machine — and every case it emits passes [`FuzzCase::validate`] and
//! builds a `(SystemConfig, RunConfig)` pair the simulator accepts without
//! panicking. Boundary bias is deliberate: retargets at `t = 0` and at the
//! run's end, kill points at the first and last resumable quantum — the
//! places where off-by-one bugs in the run loop and the resume seam live.

use hcapp::coordinator::SoftwareConfig;
use hcapp::scheme::ControlScheme;
use hcapp::software::ComponentKind;
use hcapp::total_quanta;
use hcapp_faults::PRESET_NAMES;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Volt;

use crate::case::{FuzzCase, Plant};
use crate::rng::SplitMix64;

/// Candidate fixed rail voltages (spanning the paper system's DVFS range).
const FIXED_RAILS: [f64; 4] = [0.7, 0.85, 1.0, 1.2];
/// Candidate custom control periods, in whole microseconds.
const CUSTOM_PERIODS_US: [u64; 4] = [2, 5, 10, 50];
/// Boundary-biased power targets in watts (the paper sweeps 40–110 W with
/// 84.28 W as the guardbanded sweet spot).
const TARGETS_W: [f64; 6] = [40.0, 60.0, 80.0, 84.28, 95.0, 110.0];
/// Boundary-biased run durations in whole microseconds.
const DURATIONS_US: [u64; 4] = [100, 200, 500, 1000];

/// Generate the fuzz case for `seed`. Deterministic and panic-free for
/// every seed; the emitted case always validates.
pub fn generate(seed: u64) -> FuzzCase {
    let mut r = SplitMix64::new(seed);
    let combo = r.below(8) as usize;
    let memory = r.chance(25);
    let sys_seed = 1 + r.below(1000);
    let scheme = gen_scheme(&mut r);
    let duration_us = if r.chance(50) {
        *r.pick(&DURATIONS_US)
    } else {
        100 + r.below(900)
    };
    let duration_ns = duration_us * 1_000;
    let target = if r.chance(70) {
        *r.pick(&TARGETS_W)
    } else {
        40.0 + r.below(71) as f64
    };
    let software = gen_software(&mut r);
    let faults = if r.chance(35) {
        Some(((*r.pick(&PRESET_NAMES)).to_string(), r.below(100)))
    } else {
        None
    };
    let record_trace = r.chance(30);
    let record_vtrace = r.chance(20);
    let retargets = gen_retargets(&mut r, scheme, duration_ns);
    let checkpoint_every = if r.chance(80) {
        *r.pick(&[16u64, 64])
    } else {
        1 + r.below(8)
    };

    let mut case = FuzzCase {
        seed,
        combo,
        memory,
        sys_seed,
        scheme,
        duration_ns,
        target,
        software,
        faults,
        retargets,
        record_trace,
        record_vtrace,
        kill_at: 0,
        checkpoint_every,
        plant: Plant::None,
    };
    // The kill point needs the run's actual quantum count, which depends on
    // the scheme's period — build once and place it at a boundary: the
    // first resumable quantum, the midpoint, or the very last one.
    let (sys, run) = case.build();
    let total = total_quanta(&sys, &run).max(1);
    case.kill_at = match r.below(3) {
        0 => 1,
        1 => (total / 2).max(1),
        _ => total.saturating_sub(1).max(1),
    };
    case
}

fn gen_scheme(r: &mut SplitMix64) -> ControlScheme {
    match r.below(100) {
        0..=39 => ControlScheme::Hcapp,
        40..=59 => ControlScheme::RaplLike,
        60..=69 => ControlScheme::SoftwareLike,
        70..=84 => ControlScheme::FixedVoltage(Volt::new(*r.pick(&FIXED_RAILS))),
        _ => ControlScheme::CustomPeriod(SimDuration::from_nanos(
            r.pick(&CUSTOM_PERIODS_US) * 1_000,
        )),
    }
}

fn gen_software(r: &mut SplitMix64) -> SoftwareConfig {
    if r.chance(60) {
        return SoftwareConfig::None;
    }
    match r.below(4) {
        0 => SoftwareConfig::StaticPriority(ComponentKind::Cpu),
        1 => SoftwareConfig::StaticPriority(ComponentKind::Gpu),
        2 => SoftwareConfig::StaticPriority(ComponentKind::Sha),
        _ => SoftwareConfig::DynamicBacklog,
    }
}

/// Retargets only make sense for dynamic schemes — the fixed baseline
/// ignores them by construction, so attaching one there would just dilute
/// the corpus. Times are biased to the run's edges and kept strictly
/// increasing.
fn gen_retargets(r: &mut SplitMix64, scheme: ControlScheme, duration_ns: u64) -> Vec<(u64, f64)> {
    if scheme.control_period().is_none() {
        return Vec::new();
    }
    let n = r.below(4);
    let mut times: Vec<u64> = (0..n)
        .map(|_| match r.below(4) {
            0 => 0,
            1 => duration_ns,
            _ => r.below(duration_ns / 1_000) * 1_000,
        })
        .collect();
    times.sort_unstable();
    times.dedup();
    times
        .into_iter()
        .map(|t| (t, 50.0 + r.below(61) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn every_case_is_valid_by_construction() {
        for seed in 0..200u64 {
            let case = generate(seed);
            case.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let (sys, run) = case.build();
            sys.validate();
            run.validate(&sys);
            assert!(case.kill_at >= 1, "seed {seed}: kill point unset");
            if case.scheme.control_period().is_none() {
                assert!(case.retargets.is_empty(), "seed {seed}: retarget on fixed");
            }
        }
    }

    #[test]
    fn corpus_covers_the_interesting_axes() {
        let cases: Vec<FuzzCase> = (0..200).map(generate).collect();
        assert!(cases.iter().any(|c| c.memory));
        assert!(cases.iter().any(|c| c.faults.is_some()));
        assert!(cases.iter().any(|c| !c.retargets.is_empty()));
        assert!(cases
            .iter()
            .any(|c| matches!(c.scheme, ControlScheme::FixedVoltage(_))));
        assert!(cases
            .iter()
            .any(|c| matches!(c.scheme, ControlScheme::CustomPeriod(_))));
        assert!(cases.iter().any(|c| c.retargets.iter().any(|&(t, _)| t == 0)));
    }
}
