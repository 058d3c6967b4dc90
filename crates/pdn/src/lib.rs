//! Power delivery network models.
//!
//! HCAPP's defining trick is using the power supply network itself as the
//! communication fabric: the global controller speaks by moving the global
//! VR output voltage, and listens through current/voltage sensing built into
//! the VR. The physical behaviour of that fabric — regulator transition
//! times, sensing delay, supply-network propagation — dictates the minimum
//! control period (Table 1 of the paper: 147–617 ns worst case, rounded to a
//! conservative 1 µs).
//!
//! * [`delays`] — the Table 1 delay budget and the control-period derivation.
//! * [`regulator`] — a Raven-style [`VoltageRegulator`] with response delay,
//!   slew-rate-limited transitions and output clamping.
//! * [`sensing`] — a [`PowerSensor`] with measurement latency and optional
//!   quantization, as found in commercial VR controllers (e.g. the Richtek
//!   part the paper cites).
//! * [`network`] — per-chiplet voltage propagation delay and optional IR
//!   drop ([`SupplyNetwork`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod delays;
pub mod network;
pub mod regulator;
pub mod ripple;
pub mod sensing;

pub use delays::{BroadcastLink, DelayRange, LinkFault, Reception, TransitionBudget};
pub use network::{Delivery, SupplyNetwork};
pub use regulator::VoltageRegulator;
pub use ripple::{RippleInjector, RippleSpec};
pub use sensing::{PowerSensor, SensorFault};
