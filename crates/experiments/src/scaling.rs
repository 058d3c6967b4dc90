//! Chiplet-count scaling study.
//!
//! The paper's third motivating problem (§1) is that centralized designs
//! "cannot scale easily": aggregating metrics from every component to one
//! controller needs global wires or shared buses whose latency grows with
//! the system. HCAPP's control period is set by the *physical* supply
//! network (Table 1) and does not grow with chiplet count.
//!
//! We model the centralized alternative as the same controller whose period
//! grows linearly with the number of domains (an aggregation hop per
//! domain over a shared bus), and sweep package sizes. The budget scales
//! with the domain count so every size is power-constrained to the same
//! degree.

use hcapp::coordinator::RunConfig;
use hcapp::limits::PowerLimit;
use hcapp::parallel::run_all;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_sim_core::report::Table;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;
use hcapp_workloads::combos::combo_by_name;

use crate::config::ExperimentConfig;

/// Package sizes to sweep: (CPU chiplets, GPU chiplets, SHA chiplets).
pub const SIZES: [(usize, usize, usize); 4] = [(1, 1, 1), (2, 2, 2), (4, 4, 4), (8, 8, 8)];

/// Aggregation latency per domain for the centralized model (per §2's
/// global-wire/bus congestion argument): 2 µs of bus time per domain.
const CENTRAL_AGGREGATION_PER_DOMAIN: SimDuration = SimDuration::from_micros(2);

/// Run the sweep; rows are `(domains, hcapp max-ratio, hcapp ppe,
/// centralized max-ratio, centralized ppe)`. The eight runs are
/// independent, so they go to the run-level pool as one batch of jobs.
pub fn compute(cfg: &ExperimentConfig) -> Vec<(usize, f64, f64, f64, f64)> {
    let combo = combo_by_name("Hi-Hi").expect("combo");
    let mut jobs = Vec::with_capacity(2 * SIZES.len());
    let mut limits = Vec::with_capacity(SIZES.len());
    for &(nc, ng, ns) in &SIZES {
        let n_domains = nc + ng + ns;
        // Budget scales with package size; same per-chiplet pressure.
        let budget = Watt::new(100.0 / 3.0 * n_domains as f64);
        let limit = PowerLimit::new(budget, SimDuration::from_micros(20));
        let target = budget * limit.guardband_factor();

        let sys = SystemConfig::scaled_system(combo, nc, ng, ns, cfg.seed)
            .expect("SIZES rows are nonzero");
        let central_period =
            SimDuration::from_micros(1) + CENTRAL_AGGREGATION_PER_DOMAIN * n_domains as u64;
        jobs.push((
            sys.clone(),
            RunConfig::new(cfg.duration, ControlScheme::Hcapp, target),
        ));
        jobs.push((
            sys,
            RunConfig::new(
                cfg.duration,
                ControlScheme::CustomPeriod(central_period),
                target,
            ),
        ));
        limits.push((n_domains, limit));
    }
    let outcomes = run_all(jobs, cfg.workers);
    limits
        .into_iter()
        .zip(outcomes.chunks_exact(2))
        .map(|((n_domains, limit), pair)| {
            let (hcapp, central) = (&pair[0], &pair[1]);
            (
                n_domains,
                hcapp.max_ratio(&limit).unwrap_or(0.0),
                hcapp.ppe(limit.budget),
                central.max_ratio(&limit).unwrap_or(0.0),
                central.ppe(limit.budget),
            )
        })
        .collect()
}

/// Execute, render and write CSV.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let rows = compute(cfg);
    let mut t = Table::new(
        "Scaling: HCAPP vs centralized aggregation (20 us window, Hi-Hi workloads)",
        &[
            "domains",
            "HCAPP max/limit",
            "HCAPP PPE",
            "centralized max/limit",
            "centralized PPE",
        ],
    );
    for (n, hm, hp, cm, cp) in rows {
        t.add_row(vec![
            format!("{n}"),
            format!("{hm:.3}"),
            format!("{:.1}%", hp * 100.0),
            format!("{cm:.3}"),
            format!("{:.1}%", cp * 100.0),
        ]);
    }
    t.write_csv(cfg.csv_path("scaling")).expect("write csv");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hcapp_stays_legal_while_centralized_degrades() {
        let mut cfg = ExperimentConfig::quick(4);
        cfg.workers = 4;
        let rows = compute(&cfg);
        assert_eq!(rows.len(), SIZES.len());
        // HCAPP's worst-case ratio stays legal at every size.
        for &(n, hm, _, _, _) in &rows {
            assert!(hm <= 1.0, "HCAPP violates at {n} domains: {hm}");
        }
        // The centralized model violates the fast window at the largest
        // size (its period has grown well past the burst timescale).
        let last = rows.last().unwrap();
        assert!(
            last.3 > 1.0,
            "centralized model should violate at {} domains (got {})",
            last.0,
            last.3
        );
    }
}
