//! Borrow-based stepping frame and steady-tick memo for the
//! quantum-stepper kernel.
//!
//! The chiplet simulators' original `step(&[Volt], dt) -> Watt` entry
//! points return owned values and leave the caller to scatter them into
//! its accumulators. The kernel instead hands each simulator a
//! [`StepFrame`] borrowing the per-unit voltage lane and the power
//! accumulator slot for the current tick; the simulator writes straight
//! through the borrow.
//!
//! Between voltage transitions the rail is flat, so a chiplet's unit
//! inputs repeat bit-for-bit from one tick to the next. [`TickMemo`] keeps
//! the previous tick's key (unit voltage bits, phase sample, `dt`) and its
//! per-unit sums ([`TickSums`]), letting a chiplet replay those sums
//! instead of re-evaluating every unit. Every `step_into` implementation is
//! required to be bit-identical to its `step` counterpart, replay included
//! — the per-crate `step_into_matches_step` tests and the golden-digest
//! corpus (`tests/golden_digests.txt`) pin that contract.
//!
//! The domain walks a quantum in stretches of constant delivered voltage,
//! which hand the chiplet the same unit voltages tick after tick, and
//! calls the chiplet's `replay_span` once per stretch instead of
//! `step_into` per tick. The chiplet then
//! checks the memo key once through [`TickMemo::peek`], which never
//! changes the memo, so a refused span leaves it for the per-tick path
//! exactly as it was. A steady `step_into` tick is a one-tick span. The
//! per-crate `replay_span_matches_step_into` tests pin spans against
//! per-tick stepping (DESIGN §6j, the stretch walk).

use crate::time::SimDuration;
use crate::units::{Volt, Watt};

/// One tick's borrowed inputs and outputs for a chiplet simulator.
#[derive(Debug)]
pub struct StepFrame<'a> {
    /// Supply voltage per locally-controllable unit (core / SM / lane).
    pub voltages: &'a [Volt],
    /// Model tick length.
    pub dt: SimDuration,
    /// The tick's package-power accumulator slot; the simulator *adds*
    /// its chiplet power (in watts) to whatever is already there.
    pub power_acc: &'a mut f64,
}

impl<'a> StepFrame<'a> {
    /// Bundle a tick's borrows.
    #[inline]
    pub fn new(voltages: &'a [Volt], dt: SimDuration, power_acc: &'a mut f64) -> Self {
        StepFrame {
            voltages,
            dt,
            power_acc,
        }
    }
}

/// The unit-independent terms of a tick at one unit voltage: everything
/// a unit's outputs need besides its own (jittered) activity. A chiplet
/// computes one point per distinct unit voltage and shares it across the
/// units at that voltage, so the per-unit work of a tick is a multiply-add
/// for power, a multiply for work and a divide for IPC.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UnitPoint {
    /// `c_eff · v · v · f`, the dynamic power at full activity, in the
    /// operand order of the unhoisted `c_eff · v · v · f · a`.
    pub switched: f64,
    /// Leakage power at the voltage.
    pub leak: Watt,
    /// `1 + m · f / f_nominal`, the IPC denominator at the tick's memory
    /// intensity `m`.
    pub ipc_denom: f64,
    /// Progress rate times `dt` in nanoseconds: a unit's nominal work in
    /// the tick at full issue.
    pub work_per_tick: f64,
}

/// One tick's per-unit sums: everything a chiplet's output path needs
/// after its unit loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSums {
    /// Mean unit work rate (nominal ns of work per ns).
    pub avg_rate: f64,
    /// Summed unit dynamic power.
    pub unit_dynamic: Watt,
    /// Summed unit power (dynamic plus leakage).
    pub unit_power: Watt,
    /// Uncore power.
    pub uncore: Watt,
}

/// One-entry memo of a chiplet's previous tick.
///
/// The key is the bit pattern of every unit voltage, of the phase sample
/// (`activity`, `mem_intensity`) and of `dt`; the value is that tick's
/// [`TickSums`]. A hit means every unit sees exactly the operands it saw
/// last tick, so — provided no unit's own state changes in between (the
/// chiplet checks its jitter countdowns) — recomputing would reproduce the
/// stored sums bit-for-bit.
///
/// The memo is a cache, not state: it is never checkpointed, and
/// restoring a chiplet must [`forget`](TickMemo::forget) it.
#[derive(Debug, Clone)]
pub struct TickMemo {
    volt_bits: Vec<u64>,
    phase_bits: [u64; 2],
    dt: SimDuration,
    sums: Option<TickSums>,
}

impl TickMemo {
    /// An empty memo for a chiplet with `units` unit voltages. The key
    /// buffer is sized here, so keying a tick of that arity never
    /// allocates.
    pub fn new(units: usize) -> Self {
        TickMemo {
            volt_bits: Vec::with_capacity(units),
            phase_bits: [0; 2],
            dt: SimDuration::ZERO,
            sums: None,
        }
    }

    /// The remembered sums when `(voltages, phase, dt)` repeats the stored
    /// key bit-for-bit, else `None`. A lookup never changes the memo; only
    /// [`TickMemo::key`], [`TickMemo::fill`] and [`TickMemo::forget`] do,
    /// so a refused steady span leaves it exactly as it was.
    #[inline]
    pub fn peek(&self, voltages: &[Volt], phase: [f64; 2], dt: SimDuration) -> Option<TickSums> {
        let sums = self.sums?;
        let hit = self.dt == dt
            && self.phase_bits == phase.map(f64::to_bits)
            && self.volt_bits.len() == voltages.len()
            && self
                .volt_bits
                .iter()
                .zip(voltages)
                .all(|(&bits, v)| bits == v.value().to_bits());
        hit.then_some(sums)
    }

    /// Key the tick about to be evaluated: store `(voltages, phase, dt)`
    /// with no sums, so lookups miss until the caller hands the evaluated
    /// tick's sums to [`TickMemo::fill`].
    #[inline]
    pub fn key(&mut self, voltages: &[Volt], phase: [f64; 2], dt: SimDuration) {
        self.sums = None;
        self.volt_bits.clear();
        self.volt_bits
            .extend(voltages.iter().map(|v| v.value().to_bits()));
        self.phase_bits = phase.map(f64::to_bits);
        self.dt = dt;
    }

    /// Remember `sums` as the outcome of the most recently keyed tick;
    /// call it only for the tick that was just keyed.
    #[inline]
    pub fn fill(&mut self, sums: TickSums) {
        self.sums = Some(sums);
    }

    /// Drop the remembered sums (every lookup misses until the next fill).
    #[inline]
    pub fn forget(&mut self) {
        self.sums = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_accumulates_through_the_borrow() {
        let volts = [Volt::new(0.9); 2];
        let mut acc = 1.5;
        let frame = StepFrame::new(&volts, SimDuration::from_nanos(100), &mut acc);
        *frame.power_acc += 2.5;
        assert_eq!(acc, 4.0);
    }

    fn sums(p: f64) -> TickSums {
        TickSums {
            avg_rate: 0.5,
            unit_dynamic: Watt::new(p),
            unit_power: Watt::new(p + 1.0),
            uncore: Watt::new(0.25),
        }
    }

    #[test]
    fn memo_hits_only_on_a_bit_identical_key() {
        let dt = SimDuration::from_nanos(100);
        let volts = [Volt::new(0.9), Volt::new(0.95)];
        let phase = [0.7, 0.2];
        let mut memo = TickMemo::new(2);
        assert_eq!(memo.peek(&volts, phase, dt), None, "empty memo hit");
        memo.key(&volts, phase, dt);
        assert_eq!(memo.peek(&volts, phase, dt), None, "unfilled key hit");
        memo.fill(sums(3.0));
        assert_eq!(memo.peek(&volts, phase, dt), Some(sums(3.0)));

        let nudged = [
            Volt::new(0.9),
            Volt::new(f64::from_bits(0.95f64.to_bits() + 1)),
        ];
        let misses: [(&[Volt], [f64; 2], SimDuration, &str); 4] = [
            (&nudged, phase, dt, "one-ulp voltage change"),
            (&volts, [0.7, 0.3], dt, "phase change"),
            (&volts, phase, SimDuration::from_nanos(50), "dt change"),
            (&volts[..1], phase, dt, "arity change"),
        ];
        for (v, ph, d, what) in misses {
            memo.key(&volts, phase, dt);
            memo.fill(sums(3.0));
            assert_eq!(memo.peek(v, ph, d), None, "{what}");
            // Keying the new tick drops the old sums: it still misses
            // until the caller fills in the evaluated tick.
            memo.key(v, ph, d);
            assert_eq!(memo.peek(v, ph, d), None, "{what}: unfilled key");
            memo.fill(sums(4.0));
            assert_eq!(memo.peek(v, ph, d), Some(sums(4.0)), "{what}: refilled");
        }

        memo.forget();
        assert_eq!(
            memo.peek(&volts[..1], phase, dt),
            None,
            "forgotten memo hit"
        );
    }

    #[test]
    fn peek_never_rekeys() {
        let dt = SimDuration::from_nanos(100);
        let volts = [Volt::new(0.9), Volt::new(0.95)];
        let phase = [0.7, 0.2];
        let mut memo = TickMemo::new(2);
        assert_eq!(memo.peek(&volts, phase, dt), None, "empty memo hit");
        memo.key(&volts, phase, dt);
        memo.fill(sums(3.0));
        assert_eq!(memo.peek(&volts, phase, dt), Some(sums(3.0)));

        // Misses of every kind leave the stored key and sums in place: the
        // original key still hits afterwards.
        let misses: [(&[Volt], [f64; 2], SimDuration); 4] = [
            (&[Volt::new(0.9), Volt::new(0.96)], phase, dt),
            (&volts, [0.7, 0.3], dt),
            (&volts, phase, SimDuration::from_nanos(50)),
            (&volts[..1], phase, dt),
        ];
        for (v, ph, d) in misses {
            assert_eq!(memo.peek(v, ph, d), None);
            assert_eq!(memo.peek(&volts, phase, dt), Some(sums(3.0)));
        }
        memo.forget();
        assert_eq!(memo.peek(&volts, phase, dt), None, "forgotten memo hit");
    }
}
