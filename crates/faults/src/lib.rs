//! Deterministic fault injection for the HCAPP simulator.
//!
//! HCAPP's claim — a decentralized controller hierarchy holds the package
//! under its provisioned cap — is only credible if it survives the unhappy
//! path: sensors that freeze or drop out, regulators that droop or slew
//! slowly, broadcast links that delay or lose the global-voltage schedule,
//! and domain controllers that go silent (the perturbation classes
//! ControlPULP-style 2.5D controllers are validated against). This crate
//! provides the adversarial half of that test harness:
//!
//! * [`FaultPlan`] — a declarative, bounded description of *which* fault
//!   classes fire, *how often* and *how hard*, seeded by a single `u64`.
//! * [`FaultInjector`] — a stateless oracle over a plan. Every decision is
//!   a pure function of `(seed, injection point, quantum index, domain
//!   index)` computed with a splitmix64-style finalizer, so a run can be
//!   replayed — or resumed from a checkpoint — from its seed alone.
//!
//! The *mechanisms* faults act through live where the physics lives
//! ([`hcapp_pdn::SensorFault`], [`hcapp_pdn::LinkFault`], regulator droop /
//! slew derating); this crate only decides *when* they fire. The
//! graceful-degradation response (health state machines, emergency
//! throttle) lives in `hcapp::health` on top of both.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod injector;
pub mod plan;

pub use injector::{CtlFault, FaultInjector};
pub use plan::{EpisodeSpec, FaultPlan, PRESET_LIST, PRESET_NAMES};
