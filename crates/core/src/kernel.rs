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
//! never checkpointed. Through a stretch of constant delivered voltage a
//! domain skips even the per-tick call: `Domain::run_quantum` walks the
//! quantum stretch by stretch and hands each stretch to the chiplet's
//! `replay_span` in one call, reading the stretch's length off the
//! quantum's flat-run table ([`flat_runs_into`]) shifted by the branch
//! delay. See `DESIGN.md` §6j for the proof obligations.

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
    /// The schedule's flat-run table ([`flat_runs_into`]), one slot per
    /// tick of the quantum, shared by every domain.
    pub(crate) flat_runs: Vec<u32>,
    /// Package power accumulator, one slot per tick of the quantum.
    pub(crate) power_acc: Vec<f64>,
}

/// Fill `runs` with the suffix run lengths of the voltage schedule
/// `v_sched`: `runs[k]` counts the ticks from `k` on whose voltage repeats
/// `v_sched[k]` bit-for-bit, `k` itself included. One backward pass per
/// quantum; every domain then reads its stretches off the table, shifted
/// by its branch delay and link lag, instead of rescanning the schedule. A
/// run longer than `u32::MAX` saturates, which only shortens the span it
/// reports. Slots past the shorter of the two slices are left alone.
///
/// `held_from` is where the schedule's held tail starts, as
/// `VoltageRegulator::schedule_into` returns it: every slot from it on
/// holds one value bit for bit (pass the length for no tail). The tail is
/// written as a countdown and only the slewing head before it is scanned,
/// continuing the tail's run (DESIGN §6j, obligation 24).
pub fn flat_runs_into(v_sched: &[f64], held_from: usize, runs: &mut [u32]) {
    let n = runs.len().min(v_sched.len());
    let split = held_from.min(n);
    let (head, tail) = runs.split_at_mut(split);
    let tail_len = n - split;
    for (k, run) in tail.iter_mut().take(tail_len).enumerate() {
        *run = u32::try_from(tail_len - k).unwrap_or(u32::MAX);
    }
    let mut next = v_sched
        .get(split)
        .filter(|_| tail_len > 0)
        .map(|v| v.to_bits());
    let mut len = u32::try_from(tail_len).unwrap_or(u32::MAX);
    for (run, v) in head.iter_mut().zip(v_sched).rev() {
        let bits = v.to_bits();
        len = if next == Some(bits) {
            len.saturating_add(1)
        } else {
            1
        };
        next = Some(bits);
        *run = len;
    }
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
            flat_runs: vec![0u32; ticks],
            power_acc: vec![0.0f64; ticks],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{flat_runs_into, BatchArena};

    /// `runs` against a take-while count over `sched`, slot by slot.
    fn assert_counts(sched: &[f64], runs: &[u32], ctx: &str) {
        for i in 1..=sched.len() {
            let bits = sched[i - 1].to_bits();
            let scanned = sched[i..].iter().take_while(|x| x.to_bits() == bits).count();
            assert_eq!(runs[i - 1] as usize - 1, scanned, "tick {i}, {ctx}");
        }
    }

    #[test]
    fn flat_run_table_matches_the_take_while_count() {
        use hcapp_pdn::regulator::VoltageRegulator;
        use hcapp_sim_core::time::{SimDuration, SimTime};
        use hcapp_sim_core::units::Volt;
        // Held stretches, single ticks, ±0 (distinct bit patterns), NaN
        // and a stretch to the end of the quantum, for every prefix length
        // and every valid start of the held tail: the length (no tail) and
        // every slot of the prefix's last run.
        let v = [
            0.9, 0.9, 0.9, 1.0, 0.9, -0.0, 0.0, 0.0, f64::NAN, f64::NAN, 1.1, 1.1, 1.1, 1.1,
        ];
        for n in 0..=v.len() {
            let sched = &v[..n];
            let last_run = sched
                .iter()
                .rev()
                .take_while(|x| Some(x.to_bits()) == sched.last().map(|l| l.to_bits()))
                .count();
            for held_from in (n - last_run..=n).chain([n + 5]) {
                let mut runs = vec![0u32; n];
                flat_runs_into(sched, held_from, &mut runs);
                assert_counts(sched, &runs, &format!("{n} ticks, tail at {held_from}"));
                assert!(runs.iter().all(|&r| r >= 1));
            }
        }
        // Quanta of 10 to 3 000 ticks scheduled by a slewing regulator, fed
        // with the held tail it returns: retargets mid-slew, retargets to
        // the present output, and quanta that hold from the start.
        let mut vr = VoltageRegulator::raven(Volt::new(0.6), Volt::new(1.2), Volt::new(0.9));
        let tick = SimDuration::from_nanos(100);
        let mut t = SimTime::ZERO;
        let mut held_quanta = 0;
        for q in 0..60u64 {
            let n = [10, 40, 1_000, 3_000][(q % 4) as usize];
            if q % 3 != 2 {
                let target = [0.6, 0.75, 1.2, 0.9, 0.9][(q % 5) as usize];
                vr.set_target(t, Volt::new(target));
            }
            let mut sched = vec![0.0f64; n];
            let tail = vr.schedule_into(t, tick, &mut sched);
            held_quanta += usize::from(tail < n);
            let mut runs = vec![0u32; n];
            flat_runs_into(&sched, tail, &mut runs);
            assert_counts(&sched, &runs, &format!("quantum {q}, tail at {tail}"));
            let mut scanned = vec![0u32; n];
            flat_runs_into(&sched, n, &mut scanned);
            assert_eq!(runs, scanned, "quantum {q}");
            t += tick * n as u64;
        }
        assert!(
            held_quanta >= 30,
            "only {held_quanta} quanta had a held tail"
        );
    }

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
            assert_eq!(arena.flat_runs.len(), slots);
            assert_eq!(arena.power_acc.len(), slots);
        }
    }
}
