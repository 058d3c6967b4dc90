//! `hcapp` — command-line interface to the HCAPP simulator.
//!
//! ```text
//! hcapp run   --combo Hi-Hi --scheme hcapp --ms 50        # one run
//! hcapp run   --cpu ferret --gpu hotspot --scheme rapl    # custom combo
//! hcapp sweep --ms 50 --window-us 1000                    # whole suite
//! hcapp hist  --combo Burst-Burst --scheme fixed          # power histogram
//! hcapp tune  --ms 20                                     # §3.1 PID tuning
//! hcapp trace --combo Hi-Hi --scheme hcapp --ms 2         # JSONL event trace
//! hcapp faults --plan severe --ms 4                       # fault campaign
//! hcapp faults --check --seed 7                           # resilience self-test
//! hcapp soak --ms 2 --kills 3                             # kill/resume chaos soak
//! hcapp list                                              # combos/benchmarks/schemes
//! ```
//!
//! The library half exists so the argument parser and command
//! implementations are unit-testable; `main.rs` is a thin shell.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};

/// Entry point shared by `main.rs` and the tests: dispatch on the
/// subcommand, returning the rendered output or an error message.
pub fn dispatch(argv: &[String]) -> Result<String, String> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(commands::help());
    };
    let args = Args::parse(rest).map_err(|e| e.to_string())?;
    match command.as_str() {
        "run" => commands::run::execute(&args).map_err(|e| e.to_string()),
        "sweep" => commands::sweep::execute(&args).map_err(|e| e.to_string()),
        "hist" => commands::hist::execute(&args).map_err(|e| e.to_string()),
        "compare" => commands::compare::execute(&args).map_err(|e| e.to_string()),
        "tune" => commands::tune::execute(&args).map_err(|e| e.to_string()),
        "trace" => commands::trace::execute(&args).map_err(|e| e.to_string()),
        "analyze" => commands::analyze::execute(&args).map_err(|e| e.to_string()),
        "bench" => commands::bench::execute(&args).map_err(|e| e.to_string()),
        "record" => commands::record::execute(&args).map_err(|e| e.to_string()),
        "faults" => commands::faults::execute(&args).map_err(|e| e.to_string()),
        "soak" => commands::soak::execute(&args).map_err(|e| e.to_string()),
        "fuzz" => commands::fuzz::execute(&args).map_err(|e| e.to_string()),
        "list" => Ok(commands::list()),
        "help" | "--help" | "-h" => Ok(commands::help()),
        other => Err(format!(
            "unknown command '{other}' (try `hcapp help`)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn empty_argv_prints_help() {
        let out = dispatch(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_aliases() {
        for cmd in ["help", "--help", "-h"] {
            assert!(dispatch(&argv(cmd)).unwrap().contains("USAGE"));
        }
    }

    #[test]
    fn list_dispatches() {
        assert!(dispatch(&argv("list")).unwrap().contains("combos"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let e = dispatch(&argv("frobnicate")).unwrap_err();
        assert!(e.contains("frobnicate"));
    }

    #[test]
    fn run_dispatches_end_to_end() {
        let out = dispatch(&argv("run --combo Low-Low --ms 1")).unwrap();
        assert!(out.contains("avg power"));
    }

    #[test]
    fn flag_errors_surface() {
        let e = dispatch(&argv("run --scheme nope --ms 1")).unwrap_err();
        assert!(e.contains("scheme"));
    }
}
