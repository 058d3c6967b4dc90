//! Voltage regulator model.
//!
//! Modeled after the Raven switched-capacitor design the paper cites \[16\]:
//! a new setpoint takes effect after a short response delay and the output
//! then slews toward it at a finite rate, so a full-range transition
//! completes within the 36–226 ns the paper quotes. Output is clamped to the
//! regulator's legal range — the domain regulators use this to normalize the
//! global voltage into each chiplet's allowable window (§3.2).

use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::units::Volt;
use std::collections::VecDeque;

/// A slew-rate-limited, delay-modelled voltage regulator.
#[derive(Debug, Clone)]
pub struct VoltageRegulator {
    /// Lowest voltage the regulator can output.
    pub v_min: Volt,
    /// Highest voltage the regulator can output.
    pub v_max: Volt,
    /// Response delay between a setpoint command and the output starting to
    /// move (Raven: tens of ns).
    pub response_delay: SimDuration,
    /// Output slew rate in volts/second.
    pub slew_volts_per_sec: f64,
    /// Power conversion efficiency in (0, 1].
    pub efficiency: f64,
    output: Volt,
    target: Volt,
    /// Pending setpoints not yet past the response delay.
    pending: VecDeque<(SimTime, Volt)>,
    /// Transient slew-rate derating in (0, 1]; 1.0 = healthy. Set by fault
    /// injection (an aging or thermally stressed VR chases setpoints more
    /// slowly) and cleared when the episode ends.
    slew_derate: f64,
}

impl VoltageRegulator {
    /// Create a regulator producing `initial` volts.
    ///
    /// # Panics
    /// Panics on an inverted range, non-positive slew rate, efficiency
    /// outside (0, 1], or an initial voltage outside the range.
    pub fn new(
        v_min: Volt,
        v_max: Volt,
        initial: Volt,
        response_delay: SimDuration,
        slew_volts_per_sec: f64,
        efficiency: f64,
    ) -> Self {
        assert!(v_min.value() <= v_max.value(), "inverted voltage range");
        assert!(slew_volts_per_sec > 0.0, "non-positive slew rate");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency out of (0,1]"
        );
        assert!(
            initial.value() >= v_min.value() && initial.value() <= v_max.value(),
            "initial voltage {initial} outside [{v_min}, {v_max}]"
        );
        VoltageRegulator {
            v_min,
            v_max,
            response_delay,
            slew_volts_per_sec,
            efficiency,
            output: initial,
            target: initial,
            pending: VecDeque::new(),
            slew_derate: 1.0,
        }
    }

    /// An idealized regulator (no delay, effectively instant slew) — used by
    /// unit tests and as the baseline for ablations.
    pub fn ideal(v_min: Volt, v_max: Volt, initial: Volt) -> Self {
        VoltageRegulator::new(v_min, v_max, initial, SimDuration::ZERO, 1e9, 1.0)
    }

    /// A Raven-like regulator: ~100 ns response, full 0.6 V span in ~200 ns.
    pub fn raven(v_min: Volt, v_max: Volt, initial: Volt) -> Self {
        VoltageRegulator::new(
            v_min,
            v_max,
            initial,
            SimDuration::from_nanos(100),
            3e6, // 0.6 V in 200 ns
            0.92,
        )
    }

    /// Command a new setpoint at time `now`. The setpoint is clamped to the
    /// regulator range and becomes active after the response delay.
    pub fn set_target(&mut self, now: SimTime, v: Volt) {
        let v = v.clamp(self.v_min, self.v_max);
        self.pending.push_back((now + self.response_delay, v));
    }

    /// Advance the regulator to time `now` over a step of `dt`, slewing the
    /// output toward the most recent matured setpoint.
    pub fn step(&mut self, now: SimTime, dt: SimDuration) {
        // Adopt every matured setpoint (the newest wins).
        while let Some(&(t, v)) = self.pending.front() {
            if t <= now {
                self.target = v;
                self.pending.pop_front();
            } else {
                break;
            }
        }
        let max_delta = self.slew_volts_per_sec * self.slew_derate * dt.as_secs_f64();
        let err = self.target.value() - self.output.value();
        let delta = err.clamp(-max_delta, max_delta);
        self.output = Volt::new(self.output.value() + delta).clamp(self.v_min, self.v_max);
    }

    /// The regulated output voltage.
    #[inline]
    pub fn output(&self) -> Volt {
        self.output
    }

    /// Fill `out` with the output schedule for `out.len()` consecutive
    /// ticks starting at `t0` — the quantum-stepper kernel's borrow-based
    /// entry point. Equivalent to calling [`VoltageRegulator::step`] at
    /// `t0 + tick * i` and reading [`VoltageRegulator::output`] for each
    /// slot, and bit-identical to that loop: it steps tick by tick until
    /// the regulator [holds](VoltageRegulator::holds_through) through the
    /// quantum's last tick, then fills the rest with the held output, which
    /// is exactly what the remaining steps would have written. Returns
    /// where that held tail starts: every slot from it on holds one value
    /// bit for bit (`out.len()` when the regulator never holds).
    pub fn schedule_into(&mut self, t0: SimTime, tick: SimDuration, out: &mut [f64]) -> usize {
        let last = t0 + tick * out.len().saturating_sub(1) as u64;
        let mut now = t0;
        let mut slots = out.iter_mut();
        let mut stepped = 0;
        while !self.holds_through(last) {
            let Some(v) = slots.next() else {
                return stepped;
            };
            self.step(now, tick);
            *v = self.output.value();
            now += tick;
            stepped += 1;
        }
        slots.into_slice().fill(self.output.value());
        stepped
    }

    /// True when [`VoltageRegulator::step`] at any tick up to `last` leaves
    /// the regulator unchanged. That holds when no pending setpoint matures
    /// by `last` (nothing is adopted) and the output is a finite, in-range
    /// value bit-equal to the target: then `err` is 0, `delta` is +0, adding
    /// it keeps every such value but -0 (which becomes +0, so it is
    /// excluded), and the range clamp keeps an in-range value.
    fn holds_through(&self, last: SimTime) -> bool {
        let out = self.output.value();
        out.is_finite()
            && out.to_bits() == self.target.value().to_bits()
            && (self.v_min.value()..=self.v_max.value()).contains(&out)
            && out.to_bits() != (-0.0f64).to_bits()
            && self.pending.front().is_none_or(|&(at, _)| at > last)
    }

    /// Set the transient slew derating factor (1.0 = healthy). Values at or
    /// below zero are pinned to a small positive floor so the regulator
    /// always makes *some* progress toward its target.
    pub fn set_slew_derate(&mut self, factor: f64) {
        self.slew_derate = if factor.is_finite() {
            factor.clamp(1e-3, 1.0)
        } else {
            1.0
        };
    }

    /// The active slew derating factor.
    #[inline]
    pub fn slew_derate(&self) -> f64 {
        self.slew_derate
    }

    /// Apply an instantaneous droop of `dv` volts to the output (a load
    /// step or fault pulled the rail down). The output is clamped to the
    /// legal range and then recovers at the (possibly derated) slew rate as
    /// `step` keeps chasing the setpoint; negative or non-finite `dv` is
    /// ignored.
    pub fn droop(&mut self, dv: f64) {
        if dv.is_finite() && dv > 0.0 {
            self.output = Volt::new(self.output.value() - dv).clamp(self.v_min, self.v_max);
        }
    }

    /// The currently-active (matured) target.
    ///
    /// Telemetry's per-quantum `vr_slew` event records this as
    /// `setpoint_v`, alongside the quantum's first/last scheduled outputs
    /// (`start_v`/`end_v`), so a trace shows both where the VR is heading
    /// and how far the slew actually got.
    #[inline]
    pub fn target(&self) -> Volt {
        self.target
    }

    /// Input power needed to deliver `output_watts` at the current
    /// efficiency.
    #[inline]
    pub fn input_power(&self, output_watts: f64) -> f64 {
        output_watts / self.efficiency
    }

    /// Worst-case time to traverse the full output range at the slew rate
    /// (plus the response delay) — comparable to Table 1's VR row.
    pub fn full_transition_time(&self) -> SimDuration {
        let span = self.v_max.value() - self.v_min.value();
        self.response_delay + SimDuration::from_secs_f64(span / self.slew_volts_per_sec)
    }
}

impl Snapshot for VoltageRegulator {
    fn save_state(&self, w: &mut StateWriter) {
        w.f64("vr.output", self.output.0);
        w.f64("vr.target", self.target.0);
        w.usize("vr.pending", self.pending.len());
        for (t, v) in &self.pending {
            w.u64("vr.pending.t", t.as_nanos());
            w.f64("vr.pending.v", v.0);
        }
        w.f64("vr.slew_derate", self.slew_derate);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Option<()> {
        self.output = Volt(r.f64("vr.output")?);
        self.target = Volt(r.f64("vr.target")?);
        let n = r.usize("vr.pending")?;
        self.pending.clear();
        for _ in 0..n {
            let t = SimTime::from_nanos(r.u64("vr.pending.t")?);
            let v = Volt(r.f64("vr.pending.v")?);
            self.pending.push_back((t, v));
        }
        self.slew_derate = r.f64("vr.slew_derate")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn ideal_tracks_immediately() {
        let mut vr = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(0.95));
        vr.set_target(SimTime::ZERO, Volt::new(1.1));
        vr.step(SimTime::ZERO, ns(100));
        assert_close!(vr.output().value(), 1.1, 1e-9);
    }

    #[test]
    fn clamps_target_to_range() {
        let mut vr = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(0.95));
        vr.set_target(SimTime::ZERO, Volt::new(2.0));
        vr.step(SimTime::ZERO, ns(100));
        assert_close!(vr.output().value(), 1.3, 1e-9);
        vr.set_target(SimTime::from_nanos(100), Volt::new(0.0));
        vr.step(SimTime::from_nanos(100), ns(100));
        assert_close!(vr.output().value(), 0.6, 1e-9);
    }

    #[test]
    fn response_delay_holds_output() {
        let mut vr = VoltageRegulator::new(
            Volt::new(0.6),
            Volt::new(1.3),
            Volt::new(0.9),
            ns(100),
            1e9,
            1.0,
        );
        vr.set_target(SimTime::ZERO, Volt::new(1.2));
        // At t = 50 ns the setpoint has not matured.
        vr.step(SimTime::from_nanos(50), ns(50));
        assert_close!(vr.output().value(), 0.9, 1e-9);
        // At t = 100 ns it has.
        vr.step(SimTime::from_nanos(100), ns(50));
        assert_close!(vr.output().value(), 1.2, 1e-9);
    }

    #[test]
    fn slew_limits_rate() {
        // 1 V/µs slew: a 0.3 V move takes 300 ns.
        let mut vr = VoltageRegulator::new(
            Volt::new(0.6),
            Volt::new(1.3),
            Volt::new(0.9),
            SimDuration::ZERO,
            1e6,
            1.0,
        );
        vr.set_target(SimTime::ZERO, Volt::new(1.2));
        vr.step(SimTime::ZERO, ns(100));
        assert_close!(vr.output().value(), 1.0, 1e-9);
        vr.step(SimTime::from_nanos(100), ns(100));
        assert_close!(vr.output().value(), 1.1, 1e-9);
        vr.step(SimTime::from_nanos(200), ns(100));
        assert_close!(vr.output().value(), 1.2, 1e-9);
        // No overshoot.
        vr.step(SimTime::from_nanos(300), ns(100));
        assert_close!(vr.output().value(), 1.2, 1e-9);
    }

    #[test]
    fn schedule_into_matches_step_loop() {
        let mk = || {
            VoltageRegulator::new(
                Volt::new(0.6),
                Volt::new(1.3),
                Volt::new(0.9),
                ns(100),
                1e6,
                1.0,
            )
        };
        let mut stepped = mk();
        let mut scheduled = mk();
        let tick = ns(50);
        let mut t = SimTime::ZERO;
        let mut filled = 0;
        for q in 0..120u64 {
            let n = 4 + (q % 3) as usize;
            let last = t + tick * (n as u64 - 1);
            // Quanta 0..40 retarget every third quantum; after that each
            // block of ten holds still long enough to take the fill, then
            // meets one event: a setpoint maturing exactly on the
            // quantum's last tick, one maturing the tick after, a droop,
            // or a slew derating.
            let event = if q < 40 { q % 3 } else { (q % 10).min(6) };
            let apply = |vr: &mut VoltageRegulator| match event {
                0 => vr.set_target(t, Volt::new(0.7 + 0.05 * (q % 9) as f64)),
                3 => vr.set_target(last - ns(100), Volt::new(0.8 + 0.01 * (q % 7) as f64)),
                4 => vr.set_target(last + tick - ns(100), Volt::new(1.0)),
                5 => vr.droop(0.05),
                6 => vr.set_slew_derate(if q % 20 < 10 { 0.25 } else { 1.0 }),
                _ => {}
            };
            apply(&mut stepped);
            apply(&mut scheduled);
            let holds = scheduled.holds_through(last);
            if holds {
                filled += 1;
            }
            let mut expect = vec![0.0f64; n];
            for (i, v) in expect.iter_mut().enumerate() {
                stepped.step(t + tick * i as u64, tick);
                *v = stepped.output().value();
            }
            let mut got = vec![0.0f64; n];
            let tail = scheduled.schedule_into(t, tick, &mut got);
            for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "quantum {q} slot {i}");
            }
            // The held tail: all of a quantum that holds from its start,
            // one value bit for bit wherever it starts.
            assert!(tail <= n, "quantum {q}: tail at {tail} of {n}");
            if holds {
                assert_eq!(tail, 0, "quantum {q}");
            }
            let held = got.get(tail).map(|v| v.to_bits());
            assert!(
                got[tail..].iter().all(|v| Some(v.to_bits()) == held),
                "quantum {q}"
            );
            let (mut ws, mut wd) = (StateWriter::new(), StateWriter::new());
            stepped.save_state(&mut ws);
            scheduled.save_state(&mut wd);
            assert_eq!(ws.finish(), wd.finish(), "state after quantum {q}");
            t = t + tick * n as u64;
        }
        assert!(filled >= 20, "only {filled} quanta took the fill");
    }

    #[test]
    fn holding_needs_a_settled_in_range_output_and_no_maturing_setpoint() {
        let tick = ns(50);
        let last = SimTime::from_nanos(450);
        let mut vr = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(0.9));
        assert!(vr.holds_through(last));
        // A setpoint maturing on the last tick must be stepped to; one
        // maturing after it may not.
        vr.set_target(last, Volt::new(0.9));
        assert!(!vr.holds_through(last));
        assert!(vr.holds_through(last - tick));
        let mut vr = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(0.9));
        vr.droop(0.1);
        assert!(
            !vr.holds_through(last),
            "a drooped rail is still recovering"
        );
        // -0 V is bit-equal to a -0 V target but the step writes +0 V.
        let mut vr = VoltageRegulator::ideal(Volt::new(-1.0), Volt::new(1.0), Volt::new(-0.0));
        assert!(!vr.holds_through(last));
        let mut out = [1.0f64; 3];
        vr.schedule_into(SimTime::ZERO, tick, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        // An output outside a narrowed range is clamped by the step.
        let mut vr = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(1.2));
        vr.v_max = Volt::new(1.0);
        assert!(!vr.holds_through(last));
        vr.schedule_into(SimTime::ZERO, tick, &mut out);
        assert_eq!(out, [1.0; 3]);
    }

    #[test]
    fn newest_matured_setpoint_wins() {
        let mut vr = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(0.9));
        vr.set_target(SimTime::ZERO, Volt::new(1.2));
        vr.set_target(SimTime::ZERO, Volt::new(0.8));
        vr.step(SimTime::ZERO, ns(10));
        assert_close!(vr.output().value(), 0.8, 1e-9);
    }

    #[test]
    fn raven_transition_within_table1_ballpark() {
        let vr = VoltageRegulator::raven(Volt::new(0.6), Volt::new(1.2), Volt::new(0.9));
        let t = vr.full_transition_time();
        assert!(
            t.as_nanos() >= 36 && t.as_nanos() <= 452,
            "transition {t} outside Table 1 range"
        );
    }

    #[test]
    fn efficiency_scales_input_power() {
        let vr = VoltageRegulator::new(
            Volt::new(0.6),
            Volt::new(1.3),
            Volt::new(0.9),
            SimDuration::ZERO,
            1e9,
            0.9,
        );
        assert_close!(vr.input_power(90.0), 100.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "initial voltage")]
    fn initial_out_of_range_panics() {
        let _ = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(1.5));
    }

    #[test]
    fn droop_drops_then_recovers_at_slew_rate() {
        // 1 V/µs slew, output settled at 1.0 V.
        let mut vr = VoltageRegulator::new(
            Volt::new(0.6),
            Volt::new(1.3),
            Volt::new(1.0),
            SimDuration::ZERO,
            1e6,
            1.0,
        );
        vr.droop(0.2);
        assert_close!(vr.output().value(), 0.8, 1e-9);
        // Recovery toward the 1.0 V target: 0.1 V per 100 ns step.
        vr.step(SimTime::ZERO, ns(100));
        assert_close!(vr.output().value(), 0.9, 1e-9);
        vr.step(SimTime::from_nanos(100), ns(100));
        assert_close!(vr.output().value(), 1.0, 1e-9);
        // Negative and non-finite droops are ignored.
        vr.droop(-0.5);
        vr.droop(f64::NAN);
        assert_close!(vr.output().value(), 1.0, 1e-9);
    }

    #[test]
    fn droop_clamps_to_range_floor() {
        let mut vr = VoltageRegulator::ideal(Volt::new(0.6), Volt::new(1.3), Volt::new(0.7));
        vr.droop(5.0);
        assert_close!(vr.output().value(), 0.6, 1e-9);
    }

    #[test]
    fn slew_derate_slows_transitions() {
        let mut vr = VoltageRegulator::new(
            Volt::new(0.6),
            Volt::new(1.3),
            Volt::new(0.9),
            SimDuration::ZERO,
            1e6,
            1.0,
        );
        vr.set_slew_derate(0.5);
        assert_close!(vr.slew_derate(), 0.5, 1e-12);
        vr.set_target(SimTime::ZERO, Volt::new(1.2));
        // Nominal 0.1 V per 100 ns step, derated to 0.05 V.
        vr.step(SimTime::ZERO, ns(100));
        assert_close!(vr.output().value(), 0.95, 1e-9);
        // Clearing the derate restores the nominal rate.
        vr.set_slew_derate(1.0);
        vr.step(SimTime::from_nanos(100), ns(100));
        assert_close!(vr.output().value(), 1.05, 1e-9);
        // Garbage factors are pinned to a usable range.
        vr.set_slew_derate(-3.0);
        assert!(vr.slew_derate() > 0.0);
        vr.set_slew_derate(f64::INFINITY);
        assert_close!(vr.slew_derate(), 1.0, 1e-12);
    }
}
