//! Fault-campaign study: resilience under identical fault plans.
//!
//! Subjects HCAPP, RAPL-like and Software-like control to the *same*
//! seeded [`FaultPlan`] on the Hi-Hi combination and compares what each
//! gives up (PPE versus its own clean run) against what it buys (how long
//! the package stays over budget). HCAPP's 1 µs control quantum gives its
//! degradation layer a proportionally tighter reaction bound than the
//! 100 µs schemes — the same watchdog thresholds, counted in quanta, span
//! 100× less wall-clock time.

use hcapp::campaign::{self, Excursion};
use hcapp::coordinator::RunConfig;
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_metrics::ppe_drop;
use hcapp_sim_core::report::Table;
use hcapp_workloads::combos::combo_by_name;

use crate::config::ExperimentConfig;

/// One scheme's clean-vs-faulted comparison.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// The control scheme.
    pub scheme: ControlScheme,
    /// PPE of the clean run.
    pub clean_ppe: f64,
    /// PPE of the faulted run.
    pub faulted_ppe: f64,
    /// Fault episodes injected (identical plan, but per-domain rolls scale
    /// with quantum count, so faster schemes see more).
    pub faults_injected: u64,
    /// Health-state transitions observed by the watchdogs.
    pub health_transitions: u64,
    /// The faulted run's over-budget episodes against the scheme's own
    /// reaction bound: `reaction_quanta` control periods stretched by the
    /// worst-case slew derate.
    pub excursion: Excursion,
}

impl FaultRow {
    /// PPE given up under the plan.
    pub fn ppe_cost(&self) -> f64 {
        ppe_drop(self.clean_ppe, self.faulted_ppe)
    }
}

/// Run the campaign for every dynamic scheme under one moderate plan.
pub fn compute(cfg: &ExperimentConfig) -> Vec<FaultRow> {
    let limit = PowerLimit::package_pin();
    let combo = combo_by_name("Hi-Hi").expect("known combo");
    let sys = SystemConfig::paper_system(combo, cfg.seed);
    let plan = FaultPlan::moderate(cfg.seed);
    let schemes = [
        ControlScheme::Hcapp,
        ControlScheme::RaplLike,
        ControlScheme::SoftwareLike,
    ];
    let mut rows = Vec::with_capacity(schemes.len());
    for scheme in schemes {
        let run = RunConfig::new(cfg.duration, scheme, limit.guardbanded_target());
        let cell = campaign::fault_cell(&sys, &run, plan.clone(), limit.budget);
        rows.push(FaultRow {
            scheme,
            clean_ppe: cell.clean.ppe(limit.budget),
            faulted_ppe: cell.faulted.ppe(limit.budget),
            faults_injected: cell.faulted.resilience.faults_injected,
            health_transitions: cell.faulted.resilience.health_transitions,
            excursion: cell.excursion,
        });
    }
    rows
}

/// Execute, render and write CSV.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let rows = compute(cfg);
    let mut t = Table::new(
        format!(
            "Fault campaign: moderate plan, seed {}, Hi-Hi, limit 100 W",
            cfg.seed
        ),
        &[
            "scheme",
            "clean PPE",
            "faulted PPE",
            "PPE cost",
            "faults",
            "transitions",
            "longest over",
            "bound",
            "bounded?",
        ],
    );
    for r in &rows {
        t.add_row(vec![
            r.scheme.name().to_string(),
            format!("{:.1}%", r.clean_ppe * 100.0),
            format!("{:.1}%", r.faulted_ppe * 100.0),
            format!("{:.1}%", r.ppe_cost() * 100.0),
            r.faults_injected.to_string(),
            r.health_transitions.to_string(),
            format!("{}", r.excursion.over.longest),
            r.excursion.bound_label(),
            r.excursion.verdict_label().into(),
        ]);
    }
    t.write_csv(cfg.csv_path("faults")).expect("write csv");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_bounded_and_costs_little() {
        let cfg = ExperimentConfig::quick(4);
        let rows = compute(&cfg);
        assert_eq!(rows.len(), 3);
        // Rates are per control quantum, so at a 4 ms test duration only
        // HCAPP (1 µs quanta, 4000 rolls) is guaranteed to see episodes;
        // the 100 µs schemes get 40 rolls and may legitimately see none.
        assert!(rows[0].faults_injected > 0, "HCAPP saw no fault episodes");
        for r in &rows {
            assert!(
                r.excursion.within_bound(),
                "{}: {:?}",
                r.scheme.name(),
                r.excursion.check()
            );
            assert!(
                r.ppe_cost().abs() < 0.25,
                "{}: implausible PPE cost {}",
                r.scheme.name(),
                r.ppe_cost()
            );
        }
        // HCAPP's 1 µs quantum makes its reaction bound the tightest.
        assert!(rows[0].excursion.bound < rows[1].excursion.bound);
    }
}
