//! Interval-style CPU chiplet simulator.
//!
//! Stands in for the paper's Sniper (interval simulation) + McPAT (power)
//! stack (§4.2). The chiplet runs one PARSEC-class workload program shared
//! by its eight cores (PARSEC apps are data-parallel with barrier-coupled
//! phases, which is what makes package power swing at the *program*
//! timescale in Figure 1), with slowly-varying per-core jitter so cores are
//! not identical — that per-core variation is what the CAPP-style local
//! controllers react to.
//!
//! Every tick the chiplet receives one supply voltage per core (domain
//! voltage × that core's local ratio), and reports:
//! * total chiplet power (core dynamic + core leakage + uncore),
//! * per-core measured IPC fraction (the local-controller metric),
//! * program work completed (the performance metric).
//!
//! * [`config`] — Table 2's CPU column plus power calibration.
//! * [`core`] — the per-core interval model.
//! * [`chiplet`] — the 8-core chiplet with its shared workload program.
//! * [`mcpat`] — McPAT-style energy breakdown by block.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod chiplet;
pub mod config;
pub mod core;
pub mod mcpat;

pub use chiplet::CpuChiplet;
pub use config::CpuConfig;
pub use core::{CoreModel, CoreStep};
pub use mcpat::PowerBreakdown;
