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
    /// last tick (for the IR-drop term).
    pub fn deliver(&mut self, v_global: Volt, last_power: Watt) -> Volt {
        self.line.push_back(v_global);
        if self.line.len() > self.delay_ticks {
            if let Some(v) = self.line.pop_front() {
                self.delivered = v;
            }
        }
        let v = self.delivered;
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

    /// True when delivering `v_global` again leaves the branch exactly as
    /// it is: the pipeline is full and every voltage in flight, as well as
    /// the last delivered one, has `v_global`'s bit pattern. The next
    /// [`deliver`](SupplyNetwork::deliver) then returns what the last one
    /// returned, provided the IR-drop input repeats too (see
    /// [`has_ir_drop`](SupplyNetwork::has_ir_drop)).
    pub fn settled_at(&self, v_global: Volt) -> bool {
        let bits = v_global.value().to_bits();
        self.line.len() == self.delay_ticks
            && self.delivered.value().to_bits() == bits
            && self.line.iter().all(|v| v.value().to_bits() == bits)
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
        self.line = r.f64_vec("net.line")?.into_iter().map(Volt).collect();
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

    #[test]
    fn settled_only_once_the_whole_pipeline_holds_the_value() {
        for delay in [0, 1, 3] {
            let mut n = SupplyNetwork::new(delay, 0.0);
            assert!(!n.settled_at(Volt::new(0.9)), "delay {delay}: empty branch");
            let mut last = n.deliver(Volt::new(0.8), Watt::ZERO);
            for t in 0..=delay {
                assert!(!n.settled_at(Volt::new(0.9)), "delay {delay}, tick {t}");
                last = n.deliver(Volt::new(0.9), Watt::ZERO);
            }
            assert!(n.settled_at(Volt::new(0.9)), "delay {delay}: settled");
            assert!(!n.settled_at(Volt::new(0.91)), "delay {delay}: other value");
            // Settled means another delivery changes nothing.
            let before = format!("{n:?}");
            let again = n.deliver(Volt::new(0.9), Watt::ZERO);
            assert_eq!(again.value().to_bits(), last.value().to_bits());
            assert_eq!(format!("{n:?}"), before, "delay {delay}: state moved");
        }
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
