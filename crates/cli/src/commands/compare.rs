//! `hcapp compare` — two schemes, side by side, on the same workload.
//!
//! The decision a designer actually faces: "what do I give up if I use the
//! cheaper controller?" One run per scheme plus the fixed baseline for
//! speedups, one table.

use hcapp::coordinator::Simulation;
use hcapp::scheme::ControlScheme;
use hcapp_sim_core::report::Table;

use crate::args::{ArgError, Args};
use crate::commands::shared;

fn scheme_from(args: &Args, flag: &str, default: &str) -> Result<ControlScheme, ArgError> {
    let value = args.string(flag, default)?;
    let sub = Args::parse(&["--scheme".to_string(), value]).expect("literal flags");
    shared::scheme(&sub)
}

/// Execute `hcapp compare`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    // Reuse the shared builder for workload/limit/toggles; its --scheme is
    // ignored in favour of --a/--b.
    let (sys, run, limit) = shared::build(args)?;
    let a = scheme_from(args, "a", "hcapp")?;
    let b = scheme_from(args, "b", "rapl")?;
    args.finish()?;

    let mut outs = Vec::new();
    for scheme in [ControlScheme::fixed_baseline(), a, b] {
        let mut run = run.clone();
        run.scheme = scheme;
        outs.push(Simulation::new(sys.clone(), run).run());
    }
    let baseline = outs.remove(0);

    let mut t = Table::new(
        format!(
            "{} vs {} (limit {:.0} over {}, {})",
            a, b, limit.budget, limit.window, run.duration
        ),
        &["metric", a.name(), b.name()],
    );
    t.add_row(vec![
        "max power / limit".into(),
        shared::max_ratio_cell(&outs[0], &limit, run.duration),
        shared::max_ratio_cell(&outs[1], &limit, run.duration),
    ]);
    t.add_row(vec![
        "PPE".into(),
        format!("{:.1}%", outs[0].ppe(limit.budget) * 100.0),
        format!("{:.1}%", outs[1].ppe(limit.budget) * 100.0),
    ]);
    t.add_row(vec![
        "speedup vs fixed (Eq. 3)".into(),
        format!("{:.3}x", outs[0].speedup_vs(&baseline)),
        format!("{:.3}x", outs[1].speedup_vs(&baseline)),
    ]);
    t.add_row(vec![
        "avg power".into(),
        format!("{:.1}", outs[0].avg_power),
        format!("{:.1}", outs[1].avg_power),
    ]);
    t.add_row(vec![
        "mean global voltage".into(),
        format!("{:.3} V", outs[0].mean_global_voltage),
        format!("{:.3} V", outs[1].mean_global_voltage),
    ]);
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_two_schemes() {
        let toks: Vec<String> = "--combo Burst-Burst --a hcapp --b rapl --ms 2"
            .split_whitespace()
            .map(|t| t.to_string())
            .collect();
        let out = execute(&Args::parse(&toks).unwrap()).unwrap();
        assert!(out.contains("HCAPP"));
        assert!(out.contains("RAPL-like"));
        assert!(out.contains("speedup vs fixed"));
    }

    #[test]
    fn defaults_to_hcapp_vs_rapl() {
        let toks: Vec<String> = "--ms 1".split_whitespace().map(|t| t.to_string()).collect();
        let out = execute(&Args::parse(&toks).unwrap()).unwrap();
        assert!(out.contains("HCAPP vs RAPL-like"));
    }

    #[test]
    fn a_window_longer_than_the_run_is_not_reported_as_ok() {
        let toks: Vec<String> = "--ms 1 --window-us 5000"
            .split_whitespace()
            .map(|t| t.to_string())
            .collect();
        let out = execute(&Args::parse(&toks).unwrap()).unwrap();
        let row = out
            .lines()
            .find(|l| l.contains("max power / limit"))
            .unwrap();
        assert_eq!(
            row.matches("n/a (window longer than run)").count(),
            2,
            "{row}"
        );
        assert!(!row.contains("[ok]"), "{row}");
    }
}
