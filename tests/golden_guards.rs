//! Golden digests for off-default package configurations.
//!
//! `tests/golden_digests.txt` pins the paper's default package, where
//! every domain takes the steady-span fast path of the tick loop. This
//! corpus pins the configurations that make a domain *leave* that path
//! (DESIGN §6j, steady spans): IR drop, no or deeper supply-network delay,
//! ripple, the thermal guard, broadcast-link delay and loss faults, a
//! memory stack, and adversarial local controllers; a `default` row
//! anchors them. Each row is one run's
//! `encode_outcome` digest under HCAPP and under the fixed-voltage
//! baseline (the flattest VR schedule, so the longest spans).
//!
//! Re-bless deliberately (after verifying the change is intentional) with:
//!
//! ```text
//! HCAPP_BLESS=1 cargo test --test golden_guards
//! ```

use hcapp_repro::faults::{EpisodeSpec, FaultPlan};
use hcapp_repro::hcapp::cache::encode_outcome;
use hcapp_repro::hcapp::controller::thermal_guard::ThermalConfig;
use hcapp_repro::hcapp::coordinator::{RunConfig, Simulation};
use hcapp_repro::hcapp::limits::PowerLimit;
use hcapp_repro::hcapp::scheme::ControlScheme;
use hcapp_repro::hcapp::system::SystemConfig;
use hcapp_repro::hcapp::testutil::{combo, digest_hex};
use hcapp_repro::pdn::RippleSpec;
use hcapp_repro::sim_core::time::SimDuration;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_guards.txt");
const SEED: u64 = 13;
const MS: u64 = 1;

/// A guard case: its name, the package, and an optional fault plan.
struct Case {
    name: &'static str,
    sys: SystemConfig,
    faults: Option<FaultPlan>,
}

fn cases() -> Vec<Case> {
    let hi_hi = || SystemConfig::paper_system(combo("Hi-Hi"), SEED);
    let with = |name, edit: fn(&mut SystemConfig)| {
        let mut sys = hi_hi();
        edit(&mut sys);
        Case {
            name,
            sys,
            faults: None,
        }
    };
    vec![
        with("default", |_| {}),
        with("ir_drop", |s| s.network_resistance = 0.05),
        with("delay_0", |s| s.network_delay_ticks = 0),
        with("delay_3", |s| s.network_delay_ticks = 3),
        with("ripple", |s| s.ripple = Some(RippleSpec::moderate())),
        with("thermal", |s| {
            // A hot, badly cooled package, so the guard actually derates.
            s.thermal = Some(ThermalConfig {
                r_th: 3.0,
                c_th: 2e-4,
                t_ambient: 320.0,
                t_limit: 332.0,
                derate_per_kelvin: 0.05,
                derate_floor: 0.70,
            })
        }),
        with("no_local", |s| s.local_controllers_enabled = false),
        Case {
            name: "link_faults",
            sys: hi_hi(),
            faults: Some(FaultPlan {
                link_delay: EpisodeSpec::new(0.05, 4),
                link_loss: EpisodeSpec::new(0.05, 4),
                delay_ticks: 3,
                ..FaultPlan::quiet(SEED)
            }),
        },
        Case {
            name: "memory",
            sys: SystemConfig::paper_system_with_memory(combo("Burst-Low"), SEED),
            faults: None,
        },
    ]
}

fn corpus() -> String {
    let mut out = String::from(
        "# hcapp guard digests v1 — seed 13, 1 ms, package-pin guardbanded target\n\
         # columns: case scheme outcome=<fnv1a64>\n\
         # re-bless: HCAPP_BLESS=1 cargo test --test golden_guards\n",
    );
    let target = PowerLimit::package_pin().guardbanded_target();
    for case in cases() {
        for scheme in [ControlScheme::Hcapp, ControlScheme::fixed_baseline()] {
            let mut run = RunConfig::new(SimDuration::from_millis(MS), scheme, target);
            if let Some(plan) = &case.faults {
                run = run.with_faults(plan.clone());
            }
            let outcome = Simulation::new(case.sys.clone(), run).run();
            out.push_str(&format!(
                "{} {} outcome={}\n",
                case.name,
                scheme.name(),
                digest_hex(&encode_outcome(&outcome)),
            ));
        }
    }
    out
}

#[test]
fn guard_digests_match_the_committed_fixture() {
    let fresh = corpus();
    if std::env::var_os("HCAPP_BLESS").is_some() {
        std::fs::write(FIXTURE, &fresh).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let committed = std::fs::read_to_string(FIXTURE)
        .expect("tests/golden_guards.txt missing — run with HCAPP_BLESS=1 to generate");
    assert_eq!(
        committed, fresh,
        "guard digests diverged — an output bit moved off the default package"
    );
}
