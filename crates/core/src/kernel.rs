//! The quantum-stepper kernel's data layout.
//!
//! The run loop's hot path is a struct-of-arrays machine: every per-domain
//! signal lives in its own contiguous lane, and every batch-scoped scratch
//! buffer lives in an arena sized once at construction. This module names
//! that layout — [`DomainLanes`] for the lanes, [`BatchArena`] for the
//! scratch — so the coordinator's field list says what is *per-domain
//! state* (checkpointed, stepped by tight index loops) versus *batch
//! scratch* (never alive across a batch boundary, never checkpointed).
//!
//! Grouping is all this module does: the lanes hold exactly the vectors the
//! [`LoopDriver`](crate::coordinator) held as loose fields before the
//! kernel refactor, in the same per-domain indexing, and the checkpoint
//! codec (`save_loop`/`load_loop`) still serializes them field by field in
//! the pre-kernel order, so on-disk checkpoints are unchanged.
//!
//! Each chiplet steps through `step_into`, which shares operating points
//! across units at one voltage and replays the previous tick's sums while
//! its inputs repeat bit-for-bit (`hcapp_sim_core::frame::TickMemo`); that
//! memo lives inside the chiplet, not in the lanes or the arena, and is
//! never checkpointed. Through a flat stretch of the VR schedule a domain
//! skips even the per-tick call: `Domain::run_quantum` proves the
//! stretch steady and hands it to the chiplet's `replay_span` in one
//! call. See `DESIGN.md` §6j for the proof obligations of both.

use crate::coordinator::{QuantumCtl, QuantumSpec};
use crate::health::DomainHealth;
use crate::software::DomainProgress;

/// Per-domain state lanes, indexed by domain position — the
/// struct-of-arrays half of the kernel layout. Every lane has exactly
/// `n_domains` slots for the whole run.
#[derive(Debug)]
pub(crate) struct DomainLanes {
    /// Software-policy priority per domain (written at policy intervals,
    /// read into every quantum's command).
    pub(crate) priorities: Vec<f64>,
    /// Did the domain accept commands last batch (watchdog input).
    pub(crate) heartbeats: Vec<bool>,
    /// Cumulative work per domain at the last policy invocation.
    pub(crate) work_snapshot: Vec<f64>,
    /// Per-domain progress observations handed to the software policy.
    pub(crate) progress: Vec<DomainProgress>,
    /// Link-fault episode tracking (edge detection for telemetry).
    pub(crate) link_fault_active: Vec<bool>,
    /// Controller-fault episode tracking (edge detection for telemetry).
    pub(crate) ctl_fault_active: Vec<bool>,
    /// Per-domain health watchdogs.
    pub(crate) dom_health: Vec<DomainHealth>,
    /// The per-domain quantum commands, reassembled every quantum and
    /// shipped to the executor by reference.
    pub(crate) ctls: Vec<QuantumCtl>,
}

impl DomainLanes {
    /// Lanes for `n_domains` domains. `work_snapshot` seeds from the
    /// executor's initial cumulative work; `progress` mirrors the domain
    /// kinds at a neutral relative rate.
    pub(crate) fn new(work_snapshot: Vec<f64>, progress: Vec<DomainProgress>) -> Self {
        let n = work_snapshot.len();
        assert_eq!(progress.len(), n, "lane length mismatch");
        DomainLanes {
            priorities: vec![1.0; n],
            heartbeats: vec![true; n],
            work_snapshot,
            progress,
            link_fault_active: vec![false; n],
            ctl_fault_active: vec![false; n],
            dom_health: vec![DomainHealth::new(); n],
            ctls: vec![QuantumCtl::clean(1.0); n],
        }
    }
}

/// Batch-scoped scratch, allocated once at driver construction and reused
/// by every batch — the reusable-arena half of the kernel layout. Nothing
/// in here lives across a batch boundary, so none of it is checkpointed.
#[derive(Debug)]
pub(crate) struct BatchArena {
    /// Global voltage schedule, one slot per tick of the batch.
    pub(crate) v_sched: Vec<f64>,
    /// Package power accumulator, one slot per tick of the batch.
    pub(crate) power_acc: Vec<f64>,
    /// The batch's quantum specs (offsets into the tick buffers).
    pub(crate) batch: Vec<QuantumSpec>,
}

impl BatchArena {
    /// An arena sized for batches of up to `max_batch` quanta of
    /// `quantum_ticks` ticks each.
    pub(crate) fn new(quantum_ticks: usize, max_batch: usize) -> Self {
        BatchArena {
            v_sched: vec![0.0f64; quantum_ticks * max_batch],
            power_acc: vec![0.0f64; quantum_ticks * max_batch],
            batch: Vec::with_capacity(max_batch),
        }
    }
}
