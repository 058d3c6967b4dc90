//! Simulation kernel for the HCAPP reproduction.
//!
//! This crate provides the domain-independent substrate every other crate in
//! the workspace builds on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with checked arithmetic and human-readable display.
//! * [`units`] — thin `f64` newtypes for the physical quantities the power
//!   controllers exchange ([`Volt`], [`Watt`], [`Hertz`]).
//! * [`rng`] — a deterministic, splittable random number generator so that
//!   serial and parallel executions of the same experiment produce identical
//!   traces.
//! * [`window`] — O(1)-per-sample sliding-window average and windowed-maximum
//!   trackers used to evaluate power limits over their specification windows
//!   (20 µs package-pin limit, 1 ms off-package VR limit).
//! * [`stats`] — streaming statistics (Welford mean/variance, geometric mean)
//!   used by the evaluation metrics.
//! * [`series`] — fixed-step time series with decimation, normalization and
//!   window transforms (used to regenerate Figures 1 and 2).
//! * [`report`] — fixed-width console tables and CSV emission shared by the
//!   experiment binaries.
//!
//! Everything here avoids I/O besides [`report`], is allocation-conscious in
//! per-sample paths, and is deterministic.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod accum;
pub mod approx;
pub mod frame;
pub mod jitter;
pub mod report;
pub mod rng;
pub mod series;
pub mod state;
pub mod stats;
pub mod time;
pub mod units;
pub mod window;

pub use approx::approx_eq;
pub use frame::StepFrame;
pub use jitter::JitterLanes;
pub use rng::DeterministicRng;
pub use series::TimeSeries;
pub use state::{Snapshot, StateReader, StateWriter};
pub use stats::{geometric_mean, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use units::{Hertz, Volt, Watt};
pub use window::{SlidingWindowAvg, WindowedMaxTracker};
