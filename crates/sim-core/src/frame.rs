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

use crate::time::SimDuration;
use crate::units::{Hertz, Volt, Watt};

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

/// The voltage-dependent inputs of one unit's tick, computed once per
/// distinct unit voltage and shared by every unit of the chiplet at that
/// voltage in the same tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UnitPoint {
    /// Clock frequency at the voltage.
    pub f: Hertz,
    /// `f / f_nominal`.
    pub f_ratio: f64,
    /// Leakage power at the voltage.
    pub leak: Watt,
    /// Work progress rate at `f_ratio` for the tick's memory intensity
    /// (nominal ns of work per ns at full issue).
    pub rate: f64,
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

    /// Key a new tick. Returns the remembered sums when `(voltages,
    /// phase, dt)` repeats the stored key bit-for-bit; otherwise stores
    /// the new key with no sums and returns `None`, and the caller
    /// evaluates the tick and hands its sums to [`TickMemo::fill`].
    #[inline]
    pub fn probe(
        &mut self,
        voltages: &[Volt],
        phase: [f64; 2],
        dt: SimDuration,
    ) -> Option<TickSums> {
        let phase_bits = phase.map(f64::to_bits);
        if let Some(sums) = self.sums {
            if self.dt == dt
                && self.phase_bits == phase_bits
                && self.volt_bits.len() == voltages.len()
                && self
                    .volt_bits
                    .iter()
                    .zip(voltages)
                    .all(|(&bits, v)| bits == v.value().to_bits())
            {
                return Some(sums);
            }
        }
        self.sums = None;
        self.volt_bits.clear();
        self.volt_bits
            .extend(voltages.iter().map(|v| v.value().to_bits()));
        self.phase_bits = phase_bits;
        self.dt = dt;
        None
    }

    /// Remember `sums` as the outcome of the most recently probed key;
    /// call it only for the tick that was just probed.
    #[inline]
    pub fn fill(&mut self, sums: TickSums) {
        self.sums = Some(sums);
    }

    /// Drop the remembered sums (the next probe misses).
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
        assert_eq!(memo.probe(&volts, phase, dt), None, "empty memo hit");
        memo.fill(sums(3.0));
        assert_eq!(memo.probe(&volts, phase, dt), Some(sums(3.0)));

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
            memo.probe(&volts, phase, dt);
            memo.fill(sums(3.0));
            assert_eq!(memo.probe(v, ph, d), None, "{what}");
            // The miss re-keyed the memo without sums: a repeat still
            // misses until the caller fills in the evaluated tick.
            assert_eq!(memo.probe(v, ph, d), None, "{what}: unfilled repeat");
            memo.fill(sums(4.0));
            assert_eq!(memo.probe(v, ph, d), Some(sums(4.0)), "{what}: refilled");
        }

        memo.forget();
        assert_eq!(
            memo.probe(&volts[..1], phase, dt),
            None,
            "forgotten memo hit"
        );
    }
}
