//! Scenario: scaling to a many-chiplet interposer.
//!
//! 2.5D integration keeps adding chiplets; a centralized capper has to haul
//! every chiplet's telemetry across shared wires before it can act, so its
//! control period grows with the package. HCAPP's "wire" is the power rail
//! itself — its 1 µs loop is set by physics (Table 1), not by fan-in.
//!
//! This example builds a 24-chiplet package (8× the paper system) and runs
//! HCAPP against a centralized-aggregation model.
//!
//! ```text
//! cargo run --release --example many_chiplets
//! ```

use hcapp_repro::hcapp::coordinator::{RunConfig, Simulation};
use hcapp_repro::hcapp::limits::PowerLimit;
use hcapp_repro::hcapp::scheme::ControlScheme;
use hcapp_repro::hcapp::system::SystemConfig;
use hcapp_repro::sim_core::report::Table;
use hcapp_repro::sim_core::time::SimDuration;
use hcapp_repro::sim_core::units::Watt;
use hcapp_repro::workloads::combos::combo_by_name;

fn main() {
    let combo = combo_by_name("Hi-Hi").expect("known combo");
    let duration = SimDuration::from_millis(10);

    let mut table = Table::new(
        "Scaling a 2.5D package: HCAPP vs centralized aggregation",
        &["chiplets", "scheme", "control period", "max/limit", "PPE"],
    );

    for n_each in [1usize, 4, 8] {
        let n_domains = 3 * n_each;
        let budget = Watt::new(100.0 / 3.0 * n_domains as f64);
        let limit = PowerLimit::new(budget, SimDuration::from_micros(20));
        let target = budget * limit.guardband_factor();

        // HCAPP: period pinned at 1 µs regardless of package size.
        let hcapp = Simulation::new(
            SystemConfig::scaled_system(combo, n_each, n_each, n_each, 3).expect("nonzero"),
            RunConfig::new(duration, ControlScheme::Hcapp, target),
        )
        .run();

        // Centralized: +2 µs of telemetry aggregation per domain.
        let central_period = SimDuration::from_micros(1 + 2 * n_domains as u64);
        let central = Simulation::new(
            SystemConfig::scaled_system(combo, n_each, n_each, n_each, 3).expect("nonzero"),
            RunConfig::new(duration, ControlScheme::CustomPeriod(central_period), target),
        )
        .run();

        for (name, period, out) in [
            ("HCAPP", SimDuration::from_micros(1), &hcapp),
            ("centralized", central_period, &central),
        ] {
            table.add_row(vec![
                format!("{n_domains}"),
                name.to_string(),
                format!("{period}"),
                format!("{:.3}", out.max_ratio(&limit).unwrap_or(0.0)),
                format!("{:.1}%", out.ppe(budget) * 100.0),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\nHCAPP's max-power ratio stays flat as chiplets are added; the\n\
         centralized controller's growing aggregation latency lets fast\n\
         transients through (the paper's scalability argument, §1-§2)."
    );
}
