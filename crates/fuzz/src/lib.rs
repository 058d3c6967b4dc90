//! Deterministic config-space fuzzer for the HCAPP simulator.
//!
//! The repo's determinism contract says a run killed at any quantum and
//! resumed from its checkpoint must agree *byte for byte* with the run
//! that was never interrupted, and the cached replay of any outcome must
//! be bit-identical to the run that produced it. Hand-picked tests pin
//! that contract at a handful of points; this crate sweeps it across the
//! config × scheme × fault × retarget space:
//!
//! * [`gen`] — a seeded, fully deterministic case generator
//!   (splitmix64-keyed, no wall clock, no OS RNG) with boundary-value
//!   bias: retargets at `t = 0` and at the run's end, kill points at the
//!   first and last checkpointable quantum.
//! * [`oracle`] — the differential oracle (three legs: the traced serial
//!   reference, whose trace must replay into an `hcapp.report` and whose
//!   outcome an untraced rerun must reproduce;
//!   kill-and-resume, diffing `encode_outcome` bytes and the stitched
//!   JSONL trace; cache-roundtrip) plus the metamorphic oracle checking three
//!   paper-derived invariants: PPE invariance under power-of-two unit
//!   scaling (Eq. 1–2 normalize by the provisioned power), last-write-wins
//!   priority-permutation symmetry of the domain controller (§5.3's
//!   register interface), and retarget time-shift equivariance (§5.2's
//!   dynamic limit applies at the next quantum boundary, so any shift
//!   within a boundary bucket is invisible).
//! * [`shrink`] — greedy failing-case reduction (retarget-list, duration,
//!   fault-plan, domain-count, kill-point passes) to a minimal repro.
//! * [`case`] — the committed `hcapp.fuzzcase` text format that
//!   `hcapp fuzz --replay` reruns exactly, including any planted defect.
//! * [`campaign`] — the batch driver behind `hcapp fuzz --smoke` and the
//!   soak script, with a byte-stable log (two invocations with the same
//!   seed produce identical output).
//!
//! Everything here is observational: the fuzzer builds ordinary
//! `(SystemConfig, RunConfig)` pairs and drives the public run and resume
//! entry points, so a reported divergence is always reproducible with the
//! CLI alone.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod campaign;
pub mod case;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use case::{FuzzCase, Plant};
pub use gen::generate;
pub use oracle::{check_case, Failure};
pub use shrink::shrink;
