//! `hcapp-analyze` — streaming control-loop analytics over `hcapp.trace`
//! event streams.
//!
//! HCAPP's claims are control-theoretic: bounded reaction after a retarget,
//! small steady-state error against `P_SPEC`, over-budget excursions that
//! recover within the violation window. The telemetry layer records the
//! evidence (PR 2's JSONL traces); this crate *interprets* it. A
//! [`StreamAnalyzer`] folds every event into O(1) state per domain — no
//! event buffering — and produces a versioned [`RunReport`] of quantified
//! health numbers: per-retarget-epoch settling time, overshoot and
//! steady-state error, over-budget episode structure (the trace-level twin
//! of `metrics::over_cap`), VR slew saturation, per-domain throttle
//! residency, retarget reaction latency, and fault/degradation counters.
//!
//! Two ingestion paths share the same state machine, so they agree by
//! construction:
//!
//! * **live** — [`AnalyzingTracer`] implements `hcapp_telemetry::Tracer`,
//!   aggregating as the run loop emits events (optionally forwarding each
//!   event to a wrapped inner tracer such as a `RingTracer`);
//! * **offline** — [`StreamAnalyzer::consume_jsonl`] replays a recorded
//!   `hcapp.trace` file.
//!
//! Because a traced event stream is a pure function of the run's inputs,
//! the report is too — `RunReport::to_json` is deterministic, and the
//! determinism suite in `tests/` pins rerun and live == offline-replay
//! report bytes.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analyzer;
pub mod checks;
pub mod report;
pub mod tracer;

pub use analyzer::StreamAnalyzer;
pub use checks::{parse_checks, run_checks, Check, CheckResult};
pub use report::{RunReport, DiffRow, REPORT_SCHEMA, REPORT_VERSION};
pub use tracer::AnalyzingTracer;
