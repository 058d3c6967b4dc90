//! The SHA accelerator chiplet.
//!
//! Implements §4.4's model: each control interval the accelerator hashes
//! `throughput(V) · dt` bits off its backlog and draws `power(V)`; when a
//! one-shot backlog drains it idles at a leakage floor. The evaluation runs
//! use a looping backlog so the accelerator stays busy for the whole test
//! (the paper loops short workloads, §4).

use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::sha::ShaWorkload;

use crate::config::ShaConfig;
use crate::lut::LookupTable;

/// The SHA accelerator simulator.
#[derive(Debug, Clone)]
pub struct ShaAccelerator {
    cfg: ShaConfig,
    lane_tp: LookupTable,
    lane_pw: LookupTable,
    workload: ShaWorkload,
    last_power: Watt,
    /// One-entry operating-point memo for the kernel path: clamped
    /// voltage bit pattern → (busy power W, throughput Gbps). A pure-
    /// function cache over the two LUTs — derived state, deliberately
    /// excluded from the [`Snapshot`](hcapp_sim_core::state::Snapshot)
    /// sections.
    memo: Option<(u64, f64, f64)>,
}

impl ShaAccelerator {
    /// Build an accelerator with a looping backlog (the evaluation setup).
    pub fn new(cfg: ShaConfig) -> Self {
        cfg.validate();
        let workload = ShaWorkload::looping(cfg.backlog_gbits);
        Self::with_workload(cfg, workload)
    }

    /// Build with an explicit workload (one-shot backlogs hit the idle
    /// state of §4.4).
    pub fn with_workload(cfg: ShaConfig, workload: ShaWorkload) -> Self {
        cfg.validate();
        ShaAccelerator {
            lane_tp: cfg.lane_throughput_gbps(),
            lane_pw: cfg.lane_power_mw(),
            cfg,
            workload,
            last_power: Watt::ZERO,
            memo: None,
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &ShaConfig {
        &self.cfg
    }

    /// Advance one tick at lane voltage `v` (already domain-normalized).
    /// Returns the accelerator power this tick.
    pub fn step(&mut self, v: Volt, dt: SimDuration) -> Watt {
        let v = v.clamp(self.cfg.v_min, self.cfg.v_max);
        let busy_power = self.lane_pw.eval(v.value()) * 1e-3 * self.cfg.lanes as f64;
        if self.workload.is_idle() {
            self.last_power = Watt::new(busy_power * self.cfg.idle_fraction);
            return self.last_power;
        }
        let tp_gbps = self.lane_tp.eval(v.value()) * self.cfg.lanes as f64;
        let gbits = tp_gbps * dt.as_secs_f64();
        let drained = self.workload.drain(gbits);
        // If the backlog ran out mid-tick, pro-rate the power.
        let busy_frac = if gbits > 0.0 { drained / gbits } else { 0.0 };
        self.last_power = Watt::new(self.drawn_power(busy_power, busy_frac));
        self.last_power
    }

    /// Power drawn in a tick that hashed for `busy_frac` of its length and
    /// idled for the rest.
    #[inline]
    fn drawn_power(&self, busy_power: f64, busy_frac: f64) -> f64 {
        busy_power * busy_frac + busy_power * self.cfg.idle_fraction * (1.0 - busy_frac)
    }

    /// Advance one tick through a borrowed [`StepFrame`] — the
    /// quantum-stepper kernel's entry point (`frame.voltages` holds the one
    /// lane voltage; the accelerator is a single controllable unit).
    ///
    /// Bit-identical to [`ShaAccelerator::step`] (pinned by
    /// `step_into_matches_step` below and the golden-digest corpus): both
    /// LUT evaluations are pure in the clamped voltage, so the one-entry
    /// memo only skips recomputation, never changes a value.
    ///
    /// [`StepFrame`]: hcapp_sim_core::frame::StepFrame
    pub fn step_into(&mut self, frame: &mut hcapp_sim_core::frame::StepFrame<'_>) {
        let &[v] = frame.voltages else {
            // The arity contract, as the CPU and GPU chiplets assert theirs.
            assert_eq!(frame.voltages.len(), 1, "need one voltage for the lane");
            return;
        };
        let v = v.clamp(self.cfg.v_min, self.cfg.v_max);
        let bits = v.value().to_bits();
        let (busy_power, tp_gbps) = match self.memo {
            Some((b, bp, tp)) if b == bits => (bp, tp),
            _ => {
                let bp = self.lane_pw.eval(v.value()) * 1e-3 * self.cfg.lanes as f64;
                let tp = self.lane_tp.eval(v.value()) * self.cfg.lanes as f64;
                self.memo = Some((bits, bp, tp));
                (bp, tp)
            }
        };
        if self.workload.is_idle() {
            self.last_power = Watt::new(busy_power * self.cfg.idle_fraction);
            *frame.power_acc += self.last_power.value();
            return;
        }
        let gbits = tp_gbps * frame.dt.as_secs_f64();
        let drained = self.workload.drain(gbits);
        let busy_frac = if gbits > 0.0 { drained / gbits } else { 0.0 };
        self.last_power = Watt::new(self.drawn_power(busy_power, busy_frac));
        *frame.power_acc += self.last_power.value();
    }

    /// Replay a steady span: up to `power_acc.len()` consecutive ticks at
    /// the lane voltage `voltages[0]`, adding each tick's power into its
    /// slot. Returns how many ticks it replayed (0 when the span's
    /// preconditions fail and the caller steps the tick through
    /// [`ShaAccelerator::step_into`]).
    ///
    /// The span starts only when the operating-point memo holds the
    /// clamped voltage and the tick's power would repeat the last tick's
    /// power bit-for-bit, so a span never changes the accelerator's power.
    /// That holds in two states. Idle, the power depends on the voltage
    /// alone. Fully busy, a backlog holding at least a tick's worth of
    /// work drains it in one step, so `drained / gbits` is exactly 1.0.
    /// The span stops before the first tick that would refill a looping
    /// backlog or run a one-shot backlog dry. Pinned by
    /// `replay_span_matches_step_into` below.
    pub fn replay_span(
        &mut self,
        voltages: &[Volt],
        dt: SimDuration,
        power_acc: &mut [f64],
    ) -> usize {
        let (Some(v), Some((bits, busy_power, tp_gbps))) = (voltages.first(), self.memo) else {
            return 0;
        };
        if v.clamp(self.cfg.v_min, self.cfg.v_max).value().to_bits() != bits {
            return 0;
        }
        let last = self.last_power.value().to_bits();
        if self.workload.is_idle() {
            let p = busy_power * self.cfg.idle_fraction;
            if p.to_bits() != last {
                return 0;
            }
            power_acc.iter_mut().for_each(|slot| *slot += p);
            return power_acc.len();
        }
        let gbits = tp_gbps * dt.as_secs_f64();
        let p = self.drawn_power(busy_power, 1.0);
        let repeats = gbits > 0.0 && p.to_bits() == last;
        if !repeats {
            return 0;
        }
        let ticks = self.workload.drain_span(gbits, power_acc.len());
        for slot in power_acc.iter_mut().take(ticks) {
            *slot += p;
        }
        ticks
    }

    /// Power drawn last tick.
    pub fn power(&self) -> Watt {
        self.last_power
    }

    /// Total hashing work completed in gigabits — the accelerator's
    /// performance metric.
    pub fn work_done(&self) -> f64 {
        self.workload.completed_gbits()
    }

    /// True when a one-shot backlog has drained (§4.4 idle state).
    pub fn is_idle(&self) -> bool {
        self.workload.is_idle()
    }
}

impl hcapp_sim_core::state::Snapshot for ShaAccelerator {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.workload.save_state(w);
        w.f64("sha.last_power", self.last_power.0);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.workload.load_state(r)?;
        self.last_power = Watt(r.f64("sha.last_power")?);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;
    use hcapp_workloads::sha::ShaWorkload;

    fn accel() -> ShaAccelerator {
        ShaAccelerator::new(ShaConfig::default())
    }

    #[test]
    fn step_into_matches_step() {
        // Kernel entry point vs reference path across a voltage sweep that
        // both repeats values (memo hits) and changes them (memo misses).
        use hcapp_sim_core::frame::StepFrame;
        let mut reference = accel();
        let mut kernel = accel();
        let dt = SimDuration::from_micros(1);
        for t in 0..10_000u64 {
            let v = [Volt::new(0.4 + 0.5 * ((t / 13 % 10) as f64 / 10.0))];
            let p_ref = reference.step(v[0], dt).value();
            let mut acc = 0.0;
            kernel.step_into(&mut StepFrame::new(&v, dt, &mut acc));
            assert_eq!(p_ref.to_bits(), acc.to_bits(), "tick {t}: power diverged");
        }
        assert_eq!(
            reference.work_done().to_bits(),
            kernel.work_done().to_bits()
        );
    }

    #[test]
    fn replay_span_matches_step_into() {
        // Twin accelerators, as in the CPU and GPU chiplets' tests:
        // `stepped` takes every tick through `step_into`; `spanned` hands
        // each held stretch of the lane voltage to `replay_span` and steps
        // only the ticks a span refuses. A small looping backlog refills
        // every few dozen ticks, and a one-shot backlog runs dry mid-run,
        // so spans stop at refills and at the drain, then go on idle.
        use hcapp_sim_core::frame::StepFrame;
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        const HOLDS: [usize; 5] = [5, 400, 37, 1_000, 120];
        let save = |a: &ShaAccelerator| {
            let mut w = StateWriter::new();
            a.save_state(&mut w);
            w.finish()
        };
        let dt = SimDuration::from_nanos(100);
        let cfg = ShaConfig::default();
        let per_tick = cfg.throughput_gbps(Volt::new(0.7)) * dt.as_secs_f64();
        let mut lanes = Vec::new();
        for k in 0..40 {
            let v = Volt::new(0.45 + 0.07 * (k % 6) as f64);
            lanes.extend(std::iter::repeat_n([v], HOLDS[k % HOLDS.len()]));
        }
        let workloads = [
            (ShaWorkload::looping(37.5 * per_tick), false),
            (ShaWorkload::fixed(2_000.5 * per_tick), true),
        ];
        for (workload, ends_idle) in workloads {
            let mut stepped = ShaAccelerator::with_workload(cfg.clone(), workload.clone());
            let mut spanned = ShaAccelerator::with_workload(cfg.clone(), workload);
            let mut want = vec![0.0; lanes.len()];
            let mut got = vec![0.0; lanes.len()];
            let (mut t, mut cut_short, mut idle_spans, mut replayed) = (0, 0, 0, 0);
            while t < lanes.len() {
                let volts = &lanes[t];
                let held = t > 0 && lanes[t - 1] == *volts;
                let stretch = if held {
                    lanes[t..].iter().take_while(|v| *v == volts).count()
                } else {
                    1
                };
                let was_idle = spanned.is_idle();
                let mut ticks = spanned.replay_span(volts, dt, &mut got[t..t + stretch]);
                if ticks == 0 {
                    spanned.step_into(&mut StepFrame::new(volts, dt, &mut got[t]));
                    ticks = 1;
                } else {
                    assert!(held, "tick {t}: span accepted a voltage the memo never saw");
                    replayed += ticks;
                    cut_short += usize::from(ticks < stretch);
                    idle_spans += usize::from(was_idle);
                }
                for (v, slot) in lanes[t..t + ticks].iter().zip(&mut want[t..t + ticks]) {
                    stepped.step_into(&mut StepFrame::new(v, dt, slot));
                }
                for u in t..t + ticks {
                    assert_eq!(
                        want[u].to_bits(),
                        got[u].to_bits(),
                        "tick {u}: power diverged"
                    );
                }
                assert_eq!(save(&stepped), save(&spanned), "after tick {}", t + ticks);
                t += ticks;
            }
            assert!(replayed > lanes.len() / 2, "only {replayed} ticks replayed");
            assert_eq!(spanned.is_idle(), ends_idle);
            if ends_idle {
                assert!(idle_spans > 0, "no span while idle");
            } else {
                assert!(
                    cut_short > 100,
                    "only {cut_short} spans stopped at a refill"
                );
            }
        }
    }

    #[test]
    fn busy_power_matches_lut() {
        let mut a = accel();
        let p = a.step(Volt::new(0.95), SimDuration::from_micros(1));
        assert_close!(p.value(), a.config().busy_power_w(Volt::new(0.95)), 1e-9);
    }

    #[test]
    fn work_rate_matches_throughput() {
        let mut a = accel();
        let v = Volt::new(0.70);
        let dt = SimDuration::from_micros(1);
        for _ in 0..1000 {
            a.step(v, dt);
        }
        // 1 ms at 1800 Gbps = 1.8 gbit.
        let expected = a.config().throughput_gbps(v) * 1e-3;
        assert_close!(a.work_done(), expected, 1e-6);
    }

    #[test]
    fn higher_voltage_hashes_faster_for_more_power() {
        let mut slow = accel();
        let mut fast = accel();
        let dt = SimDuration::from_micros(1);
        let mut e_slow = 0.0;
        let mut e_fast = 0.0;
        for _ in 0..1000 {
            e_slow += slow.step(Volt::new(0.5), dt).value();
            e_fast += fast.step(Volt::new(0.9), dt).value();
        }
        assert!(fast.work_done() > slow.work_done() * 2.0);
        assert!(e_fast > e_slow * 2.0);
    }

    #[test]
    fn one_shot_backlog_reaches_idle_state() {
        let cfg = ShaConfig::default();
        // A tiny backlog: drains in well under a millisecond at 0.9 V.
        let wl = ShaWorkload::fixed(0.5);
        let mut a = ShaAccelerator::with_workload(cfg, wl);
        let dt = SimDuration::from_micros(1);
        let busy = a.step(Volt::new(0.9), dt).value();
        for _ in 0..1000 {
            a.step(Volt::new(0.9), dt);
        }
        assert!(a.is_idle());
        let idle = a.power().value();
        assert!(idle < busy * 0.1, "idle {idle} vs busy {busy}");
        assert_close!(a.work_done(), 0.5, 1e-9);
    }

    #[test]
    fn undervoltage_clamps_to_minimum_operating_point() {
        let mut a = accel();
        let p = a.step(Volt::new(0.05), SimDuration::from_micros(1)).value();
        let p_min = a.config().busy_power_w(Volt::new(0.23));
        assert_close!(p, p_min, 1e-9);
    }

    #[test]
    fn deterministic() {
        let mut a = accel();
        let mut b = accel();
        let dt = SimDuration::from_micros(1);
        for i in 0..1000 {
            let v = Volt::new(0.5 + 0.4 * ((i % 10) as f64 / 10.0));
            assert_eq!(a.step(v, dt), b.step(v, dt));
        }
        assert_eq!(a.work_done(), b.work_done());
    }
}
