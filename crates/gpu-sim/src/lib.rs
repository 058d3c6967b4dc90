//! SM-granular GPU chiplet simulator.
//!
//! Stands in for the paper's GPGPU-Sim 3.2.2 + GPUWattch stack with its
//! validated GTX480 power model (§4.3). The chiplet runs one Rodinia-class
//! workload shared by its 15 streaming multiprocessors; each SM converts the
//! workload's parallelism into issue utilization through a coarse warp-
//! occupancy model ([`warp`]), then into power and progress exactly as the
//! CPU cores do — which is the level of detail HCAPP's controllers actually
//! observe (per-SM IPC and power).
//!
//! * [`config`] — Table 2's GPU column (GTX480 shape) plus calibration.
//! * [`warp`] — warp-level parallelism → issue-utilization model.
//! * [`sm`] — the per-SM model.
//! * [`chiplet`] — the 15-SM chiplet with shared workload and GPUWattch-
//!   style breakdown.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod chiplet;
pub mod config;
pub mod sm;
pub mod warp;

pub use chiplet::GpuChiplet;
pub use config::GpuConfig;
pub use sm::{SmModel, SmStep};
pub use warp::WarpModel;
