//! Per-scheme control-loop analytics reports (`hcapp.report`): run the
//! Hi-Hi paper system with a mid-run retarget under each control scheme,
//! with the streaming analyzer attached, and write one report per scheme
//! to `results/REPORT_<scheme>.json` plus a side-by-side summary table.
//!
//! This is the report counterpart of the figure binaries: where they
//! regenerate the paper's plots, this regenerates the quantified
//! control-quality numbers (settling, overshoot, steady-state error,
//! over-budget residency) that the analyze gate in `scripts/check.sh`
//! diffs against its committed baseline.
//!
//! Knobs: `HCAPP_REPORT_MS` (run length, default 2), `HCAPP_REPORT_SEED`.

use hcapp::analyze::run_analyzed;
use hcapp::coordinator::RunConfig;
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_experiments::ExperimentConfig;
use hcapp_sim_core::report::Table;
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_workloads::combos::combo_suite;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    std::fs::create_dir_all(&cfg.out_dir).expect("create results dir");
    let ms = env_u64("HCAPP_REPORT_MS", 2).max(2);
    let seed = env_u64("HCAPP_REPORT_SEED", 7);

    let limit = PowerLimit::package_pin();
    let target = limit.guardbanded_target();
    let schemes = [
        ("hcapp", ControlScheme::Hcapp),
        ("rapl", ControlScheme::RaplLike),
        ("sw", ControlScheme::SoftwareLike),
    ];

    let mut table = Table::new(
        format!("control-loop analytics, Hi-Hi, {ms} ms, retarget to 80% at t={}ms", ms / 2),
        &[
            "scheme",
            "settling p50 (ns)",
            "overshoot max (W)",
            "steady err (W)",
            "over-budget frac",
        ],
    );
    for (name, scheme) in schemes {
        let sys = SystemConfig::paper_system(combo_suite()[3], seed);
        let run = RunConfig::new(SimDuration::from_millis(ms), scheme, target)
            .with_retarget(SimTime::from_millis(ms / 2), target * 0.8);
        let (_, report) = run_analyzed(sys, run);
        let path = cfg.out_dir.join(format!("REPORT_{name}.json"));
        std::fs::write(&path, report.to_json()).expect("write report");
        println!("wrote {}", path.display());
        let m = |k: &str| {
            report
                .get(k)
                .map_or("n/a".to_string(), |v| format!("{v:.3}"))
        };
        table.add_row(vec![
            name.to_string(),
            m("settling_ns_p50"),
            m("overshoot_w_max"),
            m("steady_err_w_mean"),
            m("over_budget_frac"),
        ]);
    }
    print!("{}", table.render());
}
