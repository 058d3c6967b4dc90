//! Regeneration harness for every table and figure in the HCAPP paper.
//!
//! Each experiment is a library function (testable at short durations) plus
//! a binary that prints the same rows/series the paper reports and writes a
//! CSV under `results/`. The per-experiment index lives in `DESIGN.md`;
//! paper-vs-measured numbers are recorded in `EXPERIMENTS.md`.
//!
//! | target | reproduces |
//! |---|---|
//! | `fig01` | Figure 1: normalized power trace of the static configuration |
//! | `fig02` | Figure 2: the same trace through 20 µs / 1 ms / 10 ms windows |
//! | `table1` | Table 1: the control-loop delay budget |
//! | `table2` | Table 2: CPU/GPU configuration |
//! | `table3` | Table 3: the benchmark combinations |
//! | `fig04`–`fig06` | §5.1: max power, speedup, PPE under 100 W / 20 µs |
//! | `fig07`–`fig09` | §5.2: the same under 100 W / 1 ms |
//! | `fig10` | §5.3: the software priority interface |
//! | `summary` | the abstract's headline numbers |
//! | `ablations` | guardband / control-period / local-controller / overshoot-protection / adversarial-accelerator studies |
//! | `scaling` | chiplet-count scaling: HCAPP vs a centralized-aggregation model |
//! | `robustness` | seed-sensitivity of the §5.1 aggregates |
//! | `faults` | fault campaign: resilience of each scheme under identical fault plans |
//! | `all` | everything above in sequence |
//!
//! Run e.g. `cargo run --release -p hcapp-experiments --bin fig04`.
//! Durations default to the paper's 200 ms; set `HCAPP_DURATION_MS` to
//! trade fidelity for time (tests use 2–8 ms).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod config;
pub mod faults;
pub mod figures;
pub mod plot;
pub mod robustness;
pub mod runner;
pub mod scaling;
pub mod soak;
pub mod summary;
pub mod tables;

pub use config::ExperimentConfig;
pub use runner::{baseline_outcomes, scheme_outcomes, SuiteRun};
