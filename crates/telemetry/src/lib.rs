//! Structured telemetry for the HCAPP controller hierarchy.
//!
//! The paper's argument lives *inside* the control quantum — Eq. 1's
//! cube-root error signal, the PID's term-by-term actuation (Eq. 2), the
//! VR's slew toward its setpoint, each domain's normalized voltage and
//! priority scaling (§3.2), and each local controller's IPC-threshold
//! decisions (§3.3). This crate makes those observable without giving up
//! the workspace's two core properties:
//!
//! * **Determinism** (simlint L3): events are keyed by [`SimTime`] and
//!   emitted in a canonical order (global events before per-domain events
//!   within a quantum, domains in system order), so serial and parallel
//!   runs produce bit-identical traces. Wall-clock readings exist only in
//!   the isolated [`profile`] module and never touch an event.
//! * **Hermeticity** (simlint L4): the JSONL exporter and validator are
//!   hand-rolled in [`json`]/[`jsonl`] — no serde, no registry deps.
//!
//! The pieces:
//!
//! * [`TraceEvent`] — the five typed event kinds, one per hierarchy level.
//! * [`Tracer`] — the sink trait; [`NullTracer`] keeps the default path
//!   zero-cost, [`RingTracer`] collects a bounded window with a
//!   dropped-events counter and exact aggregate [`TraceStats`].
//! * [`jsonl`] — the versioned self-describing JSONL schema, exporter and
//!   validator.
//! * [`Profiler`]/[`ProfSpan`] — wall-clock per-phase timings of the run
//!   loop.
//!
//! [`SimTime`]: hcapp_sim_core::time::SimTime

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod event;
pub mod json;
pub mod jsonl;
pub mod profile;
pub mod stats;
pub mod tracer;

pub use event::{TraceEvent, EVENT_KINDS};
pub use json::JsonValue;
pub use profile::{PhaseStat, ProfSpan, Profiler};
pub use stats::TraceStats;
pub use tracer::{shared, NullTracer, RingTracer, SharedTracer, Tracer};
