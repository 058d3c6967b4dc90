//! The quantum-stepper kernel's data layout.
//!
//! The run loop's hot path is a struct-of-arrays machine: every per-domain
//! signal lives in its own contiguous lane, and every quantum-scoped
//! scratch buffer lives in an arena sized once at construction — to one
//! quantum cut to the run, `min(quantum, run length)` ticks, so a 0.5 ms
//! run under the 10 ms Software-like quantum allocates 5 000 tick slots,
//! not 100 000. This module names that layout — [`DomainLanes`] for the
//! lanes, [`BatchArena`] for the scratch — so the coordinator's field list
//! says what is *per-domain state* (checkpointed, stepped in domain order
//! beside the domains) versus *quantum scratch* (never alive across a
//! quantum boundary, never checkpointed).
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

use crate::coordinator::QuantumCtl;
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
    /// Did the domain accept commands last quantum (watchdog input).
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
    /// The per-domain quantum commands, reassembled every quantum.
    pub(crate) ctls: Vec<QuantumCtl>,
}

impl DomainLanes {
    /// Lanes for `n_domains` domains. `work_snapshot` seeds from the
    /// domains' initial cumulative work; `progress` mirrors the domain
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

/// Quantum-scoped scratch, allocated once at driver construction and
/// reused by every quantum — the reusable-arena half of the kernel layout.
/// Nothing in here lives across a quantum boundary, so none of it is
/// checkpointed.
#[derive(Debug)]
pub(crate) struct BatchArena {
    /// Global voltage schedule, one slot per tick of the quantum.
    pub(crate) v_sched: Vec<f64>,
    /// Package power accumulator, one slot per tick of the quantum.
    pub(crate) power_acc: Vec<f64>,
}

impl BatchArena {
    /// An arena for quanta of `quantum_ticks` ticks in a run of
    /// `total_ticks` ticks. A quantum never reaches past the end of the
    /// run, so the tick buffers hold `min(quantum_ticks, total_ticks)`
    /// slots.
    pub(crate) fn new(quantum_ticks: usize, total_ticks: usize) -> Self {
        let ticks = quantum_ticks.min(total_ticks);
        BatchArena {
            v_sched: vec![0.0f64; ticks],
            power_acc: vec![0.0f64; ticks],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BatchArena;

    #[test]
    fn arena_holds_one_quantum_cut_to_the_run() {
        // (quantum ticks, run ticks) → tick slots.
        for (quantum, total, slots) in [
            // Software-like: a 10 ms quantum in a 0.5 ms run.
            (100_000, 5_000, 5_000),
            // Fixed baseline: 100 µs quanta in a long run.
            (1_000, 1_000_000, 1_000),
            // HCAPP: a 1 µs quantum.
            (10, 10_000, 10),
        ] {
            let arena = BatchArena::new(quantum, total);
            assert_eq!(arena.v_sched.len(), slots, "{quantum} in {total}");
            assert_eq!(arena.power_acc.len(), slots);
        }
    }
}
