//! Energy breakdown by architectural block class.
//!
//! McPAT (CPU) and GPUWattch (GPU) both report power split by block; the
//! chiplet simulators accumulate the same split here so run reports can show
//! where the budget went and tests can assert the parts sum to the whole.

use crate::energy::EnergyAccount;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;

/// Energy split by block class.
#[derive(Debug, Clone, Default)]
pub struct PowerBreakdown {
    /// Core/SM dynamic switching energy.
    pub unit_dynamic: EnergyAccount,
    /// Core/SM leakage energy.
    pub unit_leakage: EnergyAccount,
    /// Uncore (caches, NoC, memory controller) energy.
    pub uncore: EnergyAccount,
}

impl PowerBreakdown {
    /// A zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one tick's powers.
    pub fn record(
        &mut self,
        unit_dynamic: Watt,
        unit_leakage: Watt,
        uncore: Watt,
        dt: SimDuration,
    ) {
        self.unit_dynamic.accumulate(unit_dynamic, dt);
        self.unit_leakage.accumulate(unit_leakage, dt);
        self.uncore.accumulate(uncore, dt);
    }

    /// Record the same powers for `ticks` consecutive ticks: bit-identical
    /// to `ticks` calls of [`PowerBreakdown::record`]. The three accounts
    /// are independent, so one loop folds all three, each its own ticks in
    /// order, and their add chains overlap.
    pub fn record_ticks(
        &mut self,
        unit_dynamic: Watt,
        unit_leakage: Watt,
        uncore: Watt,
        dt: SimDuration,
        ticks: usize,
    ) {
        EnergyAccount::accumulate_ticks_each(
            [
                &mut self.unit_dynamic,
                &mut self.unit_leakage,
                &mut self.uncore,
            ],
            [unit_dynamic, unit_leakage, uncore],
            dt,
            ticks,
        );
    }

    /// Total energy across all blocks in joules.
    pub fn total_joules(&self) -> f64 {
        self.unit_dynamic.joules() + self.unit_leakage.joules() + self.uncore.joules()
    }

    /// Fraction of energy spent in unit dynamic switching (0 when empty).
    // simlint: allow(L8): zero-total sentinel guards the division; the
    // total is a sum of non-negatives, exactly 0.0 only when nothing ran
    pub fn dynamic_fraction(&self) -> f64 {
        let total = self.total_joules();
        if total == 0.0 {
            0.0
        } else {
            self.unit_dynamic.joules() / total
        }
    }

    /// Merge a breakdown from another worker (parallel reduction).
    pub fn merge(&mut self, other: &PowerBreakdown) {
        self.unit_dynamic.merge(&other.unit_dynamic);
        self.unit_leakage.merge(&other.unit_leakage);
        self.uncore.merge(&other.uncore);
    }
}

impl hcapp_sim_core::state::Snapshot for PowerBreakdown {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.unit_dynamic.save_state(w);
        self.unit_leakage.save_state(w);
        self.uncore.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.unit_dynamic.load_state(r)?;
        self.unit_leakage.load_state(r)?;
        self.uncore.load_state(r)?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn parts_sum_to_total() {
        let mut b = PowerBreakdown::new();
        let dt = SimDuration::from_micros(1);
        for _ in 0..1000 {
            b.record(Watt::new(40.0), Watt::new(8.0), Watt::new(6.0), dt);
        }
        assert_close!(b.total_joules(), (40.0 + 8.0 + 6.0) * 1e-3, 1e-9);
        assert_close!(b.dynamic_fraction(), 40.0 / 54.0, 1e-9);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(PowerBreakdown::new().dynamic_fraction(), 0.0);
    }

    #[test]
    fn record_ticks_matches_per_tick_record() {
        // Fixed tick counts (0 and 1 included), then random powers over
        // random spans; then both sides of the closed form's cutoff,
        // quanta of thousands of ticks, and random spans up to 5 000
        // ticks. Every account must match bit for bit.
        let mut rng = hcapp_sim_core::rng::DeterministicRng::new(23);
        let mut long_rng = hcapp_sim_core::rng::DeterministicRng::new(24);
        let dt = SimDuration::from_nanos(100);
        let mut spanned = PowerBreakdown::new();
        let mut ticked = PowerBreakdown::new();
        let fixed = [0, 1, 7, 40, 3, 1_000].into_iter();
        let random = (0..200).map(|_| rng.below(300) as usize);
        let long_fixed = [31, 32, 33, 5_000, 100_000].into_iter();
        let long_random = (0..100).map(|_| long_rng.below(5_000) as usize);
        let spans: Vec<usize> = fixed.chain(random).chain(long_fixed).chain(long_random).collect();
        for (span, &ticks) in spans.iter().enumerate() {
            let [dynamic, leakage, uncore] =
                [60.0, 12.0, 20.0].map(|hi| Watt::new(rng.uniform(0.0, hi)));
            spanned.record_ticks(dynamic, leakage, uncore, dt, ticks);
            for _ in 0..ticks {
                ticked.record(dynamic, leakage, uncore, dt);
            }
            for (a, b) in [
                (&spanned.unit_dynamic, &ticked.unit_dynamic),
                (&spanned.unit_leakage, &ticked.unit_leakage),
                (&spanned.uncore, &ticked.uncore),
            ] {
                assert_eq!(a.joules().to_bits(), b.joules().to_bits(), "span {span}");
                assert_eq!(a.elapsed(), b.elapsed(), "span {span}");
            }
        }
    }

    #[test]
    fn merge_adds_energy() {
        let mut a = PowerBreakdown::new();
        let mut b = PowerBreakdown::new();
        let dt = SimDuration::from_millis(1);
        a.record(Watt::new(10.0), Watt::new(1.0), Watt::new(2.0), dt);
        b.record(Watt::new(30.0), Watt::new(3.0), Watt::new(4.0), dt);
        a.merge(&b);
        assert_close!(a.total_joules(), 50.0 * 1e-3, 1e-9);
    }
}
