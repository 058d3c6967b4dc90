//! On-package power supply network.
//!
//! The global voltage takes time to propagate across the interposer to each
//! chiplet (Table 1: 3–15 ns on-chip, ×5 for 2.5D → 15–75 ns), and the grid
//! has finite resistance, so a heavily-drawing chiplet sees a slightly
//! depressed local voltage (IR drop). [`SupplyNetwork`] models both as a
//! per-chiplet delay line plus an optional resistive drop proportional to
//! the chiplet's current draw.

use hcapp_sim_core::units::{Volt, Watt};
use std::collections::VecDeque;

use crate::delays::Reception;

/// One chiplet's branch of the supply network: voltage propagation with
/// optional IR drop. Each domain owns its own branch.
#[derive(Debug, Clone)]
pub struct SupplyNetwork {
    /// Propagation delay to the chiplet in whole simulation ticks.
    delay_ticks: usize,
    /// Effective grid resistance of the branch in ohms (0 disables IR
    /// drop).
    branch_resistance: f64,
    /// The delay line: global voltages still in flight.
    line: VecDeque<Volt>,
    /// Last delivered voltage (held while the pipeline fills).
    delivered: Volt,
}

impl SupplyNetwork {
    /// Create a branch with the given delay (simulation ticks) and branch
    /// resistance (ohms).
    ///
    /// # Panics
    /// Panics if the resistance is negative.
    pub fn new(delay_ticks: usize, branch_resistance: f64) -> Self {
        assert!(branch_resistance >= 0.0, "negative resistance");
        SupplyNetwork {
            delay_ticks,
            branch_resistance,
            line: VecDeque::with_capacity(delay_ticks + 1),
            delivered: Volt::ZERO,
        }
    }

    /// An ideal branch: instantaneous, lossless.
    pub fn ideal() -> Self {
        SupplyNetwork::new(0, 0.0)
    }

    /// A Table-1-like branch for a 100 ns tick: 15–75 ns rounds to one
    /// tick, no IR drop.
    pub fn table1_default() -> Self {
        SupplyNetwork::new(1, 0.0)
    }

    /// Propagate the global VR output `v_global` one tick and return the
    /// voltage delivered to the chiplet, given the chiplet's power draw
    /// last tick (for the IR-drop term). The per-tick reference for
    /// [`SupplyNetwork::delivery`] and [`SupplyNetwork::advance`].
    pub fn deliver(&mut self, v_global: Volt, last_power: Watt) -> Volt {
        let v = self.shift(v_global);
        self.ir_drop(v, last_power)
    }

    /// Push `v_global` into the delay line and return the raw delivered
    /// voltage (the line's front once the line is full, the held voltage
    /// while it fills).
    fn shift(&mut self, v_global: Volt) -> Volt {
        self.line.push_back(v_global);
        if self.line.len() > self.delay_ticks {
            if let Some(v) = self.line.pop_front() {
                self.delivered = v;
            }
        }
        self.delivered
    }

    /// The voltage the chiplet sees when the branch delivers `v` raw and
    /// the chiplet drew `last_power` last tick: `v − (P / v) · R`, floored
    /// at 0 (just `v` without IR drop).
    #[inline]
    pub fn ir_drop(&self, v: Volt, last_power: Watt) -> Volt {
        // Numerical-stability epsilon, not a physical threshold: guards the
        // I = P/V division below against a (transiently) zero rail.
        // simlint: allow(unit-safety): epsilon guard on a transiently-zero
        // rail, not physical-unit arithmetic
        if self.branch_resistance > 0.0 && v.value() > 1e-9 {
            // I = P/V; ΔV = I·R.
            let current = last_power.value() / v.value();
            let drop = current * self.branch_resistance;
            Volt::new((v.value() - drop).max(0.0))
        } else {
            v
        }
    }

    /// The raw delivered voltages (before IR drop) of a quantum whose
    /// ticks receive `rx` from the schedule `sched`, whose flat-run table
    /// is `runs`: what [`SupplyNetwork::deliver`] would pass on tick by
    /// tick, read without moving the branch. Call
    /// [`SupplyNetwork::advance`] after the quantum.
    pub fn delivery<'a>(
        &'a self,
        rx: Reception,
        sched: &'a [f64],
        runs: &'a [u32],
    ) -> Delivery<'a> {
        Delivery {
            net: self,
            rx,
            sched,
            runs,
        }
    }

    /// Move the branch past a quantum whose ticks received `rx` from
    /// `sched`: the state `sched.len()` calls of
    /// [`SupplyNetwork::deliver`] would leave. Only the last
    /// `delay + 1` receptions reach the final line and delivered slot, so
    /// only they are pushed.
    pub fn advance(&mut self, rx: Reception, sched: &[f64]) {
        let n = sched.len();
        for i in n.saturating_sub(self.delay_ticks + 1)..n {
            self.shift(Volt::new(rx.at(sched, i)));
        }
    }

    /// True when the delivered voltage depends on the chiplet's power.
    pub fn has_ir_drop(&self) -> bool {
        self.branch_resistance > 0.0
    }

    /// Clear the delay line.
    pub fn reset(&mut self) {
        self.line.clear();
        self.delivered = Volt::ZERO;
    }
}

/// One quantum of a branch's raw delivered voltages, as a view over the
/// global schedule ([`SupplyNetwork::delivery`]). Tick `i` delivers the
/// voltage received `delay` ticks earlier. The first `delay` ticks of a
/// quantum therefore deliver what is still in the line, and while the line
/// is unfilled at run start, the held voltage before it.
#[derive(Debug, Clone, Copy)]
pub struct Delivery<'a> {
    net: &'a SupplyNetwork,
    rx: Reception,
    sched: &'a [f64],
    runs: &'a [u32],
}

impl Delivery<'_> {
    /// The raw voltage delivered at tick `i`.
    pub fn at(&self, i: usize) -> Volt {
        let net = self.net;
        match i.checked_sub(net.delay_ticks) {
            Some(j) => Volt::new(self.rx.at(self.sched, j)),
            // `load_state` keeps `line.len() <= delay`, so the line's
            // voltages come out after `delay - line.len()` held ticks.
            None => match (i + net.line.len()).checked_sub(net.delay_ticks) {
                Some(k) => net.line.get(k).copied().unwrap_or(net.delivered),
                None => net.delivered,
            },
        }
    }

    /// The end (exclusive) of the stretch of ticks from `i` on that
    /// deliver tick `i`'s raw voltage bit for bit, at most the quantum's
    /// end. Past the delay the stretch is the reception's flat run,
    /// shifted by the delay; before it the few line slots are compared.
    pub fn stretch_end(&self, i: usize) -> usize {
        let n = self.sched.len();
        let d = self.net.delay_ticks;
        if let Some(j) = i.checked_sub(d) {
            return i.saturating_add(self.rx.run_len(self.runs, j)).min(n);
        }
        let bits = self.at(i).value().to_bits();
        let same = |k: usize| self.at(k).value().to_bits() == bits;
        let mut end = i + 1;
        while end < d.min(n) && same(end) {
            end += 1;
        }
        if end == d && end < n && same(end) {
            return self.stretch_end(end);
        }
        end
    }
}

/// The checkpoint keeps the multi-branch layout of earlier versions, with
/// exactly one branch, so existing checkpoints still load.
impl hcapp_sim_core::state::Snapshot for SupplyNetwork {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.usize("net.branches", 1);
        let vs: Vec<f64> = self.line.iter().map(|v| v.0).collect();
        w.f64_slice("net.line", &vs);
        w.f64_slice("net.delivered", &[self.delivered.0]);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        if r.usize("net.branches")? != 1 {
            return None;
        }
        let line = r.f64_vec("net.line")?;
        // Each delivery pops one voltage per push, so a longer line would
        // propagate with its own length as the delay.
        if line.len() > self.delay_ticks {
            return None;
        }
        self.line = line.into_iter().map(Volt).collect();
        match r.f64_vec("net.delivered")?.as_slice() {
            &[v] => self.delivered = Volt(v),
            _ => return None,
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn ideal_is_passthrough() {
        let mut n = SupplyNetwork::ideal();
        let v = n.deliver(Volt::new(1.0), Watt::ZERO);
        assert_close!(v.value(), 1.0, 1e-12);
        let v = n.deliver(Volt::new(0.8), Watt::ZERO);
        assert_close!(v.value(), 0.8, 1e-12);
    }

    #[test]
    fn delay_shifts_voltage() {
        let mut n = SupplyNetwork::new(2, 0.0);
        assert_close!(n.deliver(Volt::new(1.0), Watt::ZERO).value(), 0.0, 1e-12);
        assert_close!(n.deliver(Volt::new(1.1), Watt::ZERO).value(), 0.0, 1e-12);
        assert_close!(n.deliver(Volt::new(1.2), Watt::ZERO).value(), 1.0, 1e-12);
        assert_close!(n.deliver(Volt::new(1.3), Watt::ZERO).value(), 1.1, 1e-12);
    }

    #[test]
    fn ir_drop_scales_with_power() {
        let mut n = SupplyNetwork::new(0, 0.001);
        assert!(n.has_ir_drop());
        // 100 W at 1 V = 100 A → 0.1 V drop across 1 mΩ.
        let v = n.deliver(Volt::new(1.0), Watt::new(100.0));
        assert_close!(v.value(), 0.9, 1e-9);
        // Idle chiplet sees the full voltage.
        let v = n.deliver(Volt::new(1.0), Watt::ZERO);
        assert_close!(v.value(), 1.0, 1e-9);
    }

    #[test]
    fn ir_drop_never_negative() {
        let mut n = SupplyNetwork::new(0, 1.0);
        let v = n.deliver(Volt::new(0.5), Watt::new(1000.0));
        assert!(v.value() >= 0.0);
    }

    #[test]
    fn reset_refills_pipeline() {
        let mut n = SupplyNetwork::table1_default();
        n.deliver(Volt::new(1.0), Watt::ZERO);
        n.deliver(Volt::new(1.0), Watt::ZERO);
        n.reset();
        assert_close!(n.deliver(Volt::new(1.2), Watt::ZERO).value(), 0.0, 1e-12);
    }

    /// A schedule with flat stretches, one-tick blips, a ±0 pair and a
    /// NaN, and its flat-run table.
    fn schedule(q: usize) -> (Vec<f64>, Vec<u32>) {
        let base = [0.9, 0.9, 0.9, 0.95, 0.9, -0.0, 0.0, f64::NAN, f64::NAN, 0.9];
        let sched: Vec<f64> = (0..10).map(|i| base[(i + q) % base.len()]).collect();
        let mut runs = vec![0u32; sched.len()];
        let (mut next, mut len) = (None, 0);
        for (run, v) in runs.iter_mut().zip(&sched).rev() {
            len = if next == Some(v.to_bits()) {
                len + 1
            } else {
                1
            };
            next = Some(v.to_bits());
            *run = len;
        }
        (sched, runs)
    }

    #[test]
    fn delivery_matches_per_tick_deliver() {
        // Quantum after quantum from run start (an unfilled line), and
        // after a restore of a part-filled line, under healthy, lagged
        // and held receptions: the view delivers what `deliver` returns
        // tick by tick, its stretches are the per-tick flat runs, and
        // `advance` leaves the branch where the ticks leave it.
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let save = |n: &SupplyNetwork| {
            let mut w = StateWriter::new();
            n.save_state(&mut w);
            w.finish()
        };
        let receptions = [
            Reception::Lagged(0),
            Reception::Lagged(2),
            Reception::Held(0.85),
        ];
        for delay in [0, 1, 3] {
            let mut part = SupplyNetwork::new(delay, 0.0);
            part.deliver(Volt::new(0.8), Watt::ZERO);
            let starts = [SupplyNetwork::new(delay, 0.0), part];
            for (s, start) in starts.iter().enumerate() {
                let mut per_tick = start.clone();
                let mut whole = per_tick.clone();
                if s == 1 {
                    let mut fresh = SupplyNetwork::new(delay, 0.0);
                    fresh
                        .load_state(&mut StateReader::new(&save(&whole)))
                        .unwrap();
                    whole = fresh;
                }
                for q in 0..12 {
                    let (sched, runs) = schedule(q);
                    let rx = receptions[q % receptions.len()];
                    let view = whole.delivery(rx, &sched, &runs);
                    let got: Vec<u64> = (0..sched.len())
                        .map(|i| {
                            let v = Volt::new(rx.at(&sched, i));
                            per_tick.deliver(v, Watt::ZERO).value().to_bits()
                        })
                        .collect();
                    for (i, bits) in got.iter().enumerate() {
                        let what = format!("delay {delay} start {s} quantum {q} tick {i}");
                        assert_eq!(view.at(i).value().to_bits(), *bits, "{what}");
                        let run = got[i..].iter().take_while(|b| *b == bits).count();
                        assert_eq!(view.stretch_end(i), i + run, "{what}: stretch");
                    }
                    whole.advance(rx, &sched);
                    assert_eq!(save(&whole), save(&per_tick), "delay {delay} quantum {q}");
                }
            }
        }
    }

    #[test]
    fn restore_rejects_a_line_longer_than_the_delay() {
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let mut long = SupplyNetwork::new(3, 0.0);
        for v in [0.9, 0.95, 1.0] {
            long.deliver(Volt::new(v), Watt::ZERO);
        }
        let mut w = StateWriter::new();
        long.save_state(&mut w);
        let text = w.finish();
        let mut same = SupplyNetwork::new(3, 0.0);
        assert!(same.load_state(&mut StateReader::new(&text)).is_some());
        let mut shorter = SupplyNetwork::new(2, 0.0);
        assert!(
            shorter.load_state(&mut StateReader::new(&text)).is_none(),
            "a 3-slot line must not load into a 2-tick branch"
        );
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_other_branch_counts() {
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let mut n = SupplyNetwork::new(2, 0.0);
        n.deliver(Volt::new(1.0), Watt::ZERO);
        n.deliver(Volt::new(1.1), Watt::ZERO);
        n.deliver(Volt::new(1.2), Watt::ZERO);
        let mut w = StateWriter::new();
        n.save_state(&mut w);
        let text = w.finish();
        let mut fresh = SupplyNetwork::new(2, 0.0);
        fresh.load_state(&mut StateReader::new(&text)).unwrap();
        assert_eq!(format!("{fresh:?}"), format!("{n:?}"));

        let two = text.replacen("net.branches 1", "net.branches 2", 1);
        assert_ne!(two, text, "fixture must name the branch count");
        assert!(fresh.load_state(&mut StateReader::new(&two)).is_none());
    }
}
