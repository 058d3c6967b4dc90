//! Energy accounting.
//!
//! Integrates a power signal over simulated time. Used for the per-component
//! energy breakdowns in run reports and for verifying that average power ×
//! duration matches integrated energy (an internal consistency invariant the
//! integration tests check).

use hcapp_sim_core::accum::{repeat_add, CLOSED_FORM_MIN_TICKS};
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;

/// Trapezoid-free (left-Riemann) energy integrator.
///
/// Samples arrive on the fixed simulation tick, during which power is
/// constant by construction, so a left-Riemann sum is exact.
#[derive(Debug, Clone, Default)]
pub struct EnergyAccount {
    joules: f64,
    elapsed_ns: u64,
}

impl EnergyAccount {
    /// A fresh account with zero accumulated energy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `power` held constant for `dt`.
    #[inline]
    pub fn accumulate(&mut self, power: Watt, dt: SimDuration) {
        self.joules += power.value() * dt.as_secs_f64();
        self.elapsed_ns += dt.as_nanos();
    }

    /// Record each account's power held constant for `ticks` consecutive
    /// ticks of `dt`: bit-identical to `ticks` rounds of
    /// [`EnergyAccount::accumulate`] on every account. A short span adds
    /// each account's product once per tick in one loop, in locals, so the
    /// accounts' add chains overlap; a long one takes each account's adds
    /// in closed form ([`repeat_add`]).
    #[inline]
    pub(crate) fn accumulate_ticks_each<const N: usize>(
        accounts: [&mut EnergyAccount; N],
        powers: [Watt; N],
        dt: SimDuration,
        ticks: usize,
    ) {
        let secs = dt.as_secs_f64();
        let e = powers.map(|p| p.value() * secs);
        let elapsed = dt.as_nanos() * ticks as u64;
        if ticks >= CLOSED_FORM_MIN_TICKS {
            for (account, &e) in accounts.into_iter().zip(&e) {
                account.joules = repeat_add(account.joules, e, ticks);
                account.elapsed_ns += elapsed;
            }
            return;
        }
        let mut joules = accounts.each_ref().map(|a| a.joules);
        for _ in 0..ticks {
            for (j, &e) in joules.iter_mut().zip(&e) {
                *j += e;
            }
        }
        for (account, j) in accounts.into_iter().zip(joules) {
            account.joules = j;
            account.elapsed_ns += elapsed;
        }
    }

    /// Total accumulated energy in joules.
    #[inline]
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total integrated duration.
    #[inline]
    pub fn elapsed(&self) -> SimDuration {
        SimDuration::from_nanos(self.elapsed_ns)
    }

    /// Average power over the integrated duration (zero if nothing was
    /// integrated).
    pub fn average_power(&self) -> Watt {
        if self.elapsed_ns == 0 {
            Watt::ZERO
        } else {
            Watt::new(self.joules / (self.elapsed_ns as f64 * 1e-9))
        }
    }

    /// Merge another account (parallel reduction across chiplets).
    pub fn merge(&mut self, other: &EnergyAccount) {
        self.joules += other.joules;
        // Durations are parallel, not sequential: keep the longer one so
        // average_power over merged per-chiplet accounts of equal length
        // reports the package average.
        self.elapsed_ns = self.elapsed_ns.max(other.elapsed_ns);
    }
}

impl hcapp_sim_core::state::Snapshot for EnergyAccount {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.f64("energy.joules", self.joules);
        w.u64("energy.elapsed_ns", self.elapsed_ns);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.joules = r.f64("energy.joules")?;
        self.elapsed_ns = r.u64("energy.elapsed_ns")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn constant_power() {
        let mut e = EnergyAccount::new();
        for _ in 0..1000 {
            e.accumulate(Watt::new(50.0), SimDuration::from_micros(1));
        }
        assert_close!(e.joules(), 50.0 * 1e-3, 1e-12);
        assert_eq!(e.elapsed(), SimDuration::from_millis(1));
        assert_close!(e.average_power().value(), 50.0, 1e-9);
    }

    #[test]
    fn empty_average_is_zero() {
        let e = EnergyAccount::new();
        assert_eq!(e.average_power(), Watt::ZERO);
        assert_eq!(e.joules(), 0.0);
    }

    #[test]
    fn merge_sums_energy_keeps_duration() {
        let mut a = EnergyAccount::new();
        let mut b = EnergyAccount::new();
        a.accumulate(Watt::new(30.0), SimDuration::from_millis(2));
        b.accumulate(Watt::new(70.0), SimDuration::from_millis(2));
        a.merge(&b);
        assert_close!(a.joules(), 0.2, 1e-12);
        assert_eq!(a.elapsed(), SimDuration::from_millis(2));
        assert_close!(a.average_power().value(), 100.0, 1e-9);
    }
}
