//! Dynamic (switching) power.
//!
//! `P_dyn = C_eff · V² · f · a`, the standard CMOS switching-power model
//! McPAT and GPUWattch are built on. `C_eff` is the effective switched
//! capacitance of the block (farads), `a ∈ [0, 1]` the activity factor the
//! workload phase supplies.
//!
//! Combined with the threshold-linear frequency model `f ∝ (V − V_th)` this
//! yields the approximately cubic `P(V)` relationship the paper's Eq. 1
//! inverts with a cube root.

use hcapp_sim_core::units::{Hertz, Volt, Watt};

/// Switching-power model for one block (core, SM, accelerator lane, uncore).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicPower {
    /// Effective switched capacitance in farads.
    pub c_eff: f64,
}

impl DynamicPower {
    /// Create a model from the effective capacitance (farads).
    ///
    /// # Panics
    /// Panics if `c_eff` is negative or non-finite.
    pub fn new(c_eff: f64) -> Self {
        assert!(c_eff.is_finite() && c_eff >= 0.0, "invalid C_eff {c_eff}");
        DynamicPower { c_eff }
    }

    /// Construct from a design point: the capacitance that dissipates
    /// `p_design` at `(v_design, f_design)` with activity 1.0.
    ///
    /// This is how the component simulators are calibrated: pick the block's
    /// peak power at its nominal operating point and derive `C_eff`.
    pub fn from_design_point(p_design: Watt, v_design: Volt, f_design: Hertz) -> Self {
        let denom = v_design.value() * v_design.value() * f_design.value();
        assert!(denom > 0.0, "degenerate design point");
        DynamicPower::new(p_design.value() / denom)
    }

    /// Power dissipated at voltage `v`, frequency `f` and activity `a`.
    ///
    /// Activity is clamped into `[0, 1]`.
    #[inline]
    pub fn power(&self, v: Volt, f: Hertz, activity: f64) -> Watt {
        let a = activity.clamp(0.0, 1.0);
        Watt::new(self.c_eff * v.value() * v.value() * f.value() * a)
    }

    /// The activity-independent factor of [`DynamicPower::power`],
    /// `c_eff · v · v · f`, in the same operand order, so
    /// `switched(v, f) * a` is bit-identical to `power(v, f, a)` for an
    /// activity already inside `[0, 1]`.
    #[inline]
    pub fn switched(&self, v: Volt, f: Hertz) -> f64 {
        self.c_eff * v.value() * v.value() * f.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn design_point_roundtrip() {
        let m = DynamicPower::from_design_point(
            Watt::new(8.0),
            Volt::new(1.0),
            Hertz::from_ghz(2.0),
        );
        let p = m.power(Volt::new(1.0), Hertz::from_ghz(2.0), 1.0);
        assert_close!(p.value(), 8.0, 1e-9);
    }

    #[test]
    fn scales_quadratically_with_voltage() {
        let m = DynamicPower::new(1e-9);
        let f = Hertz::from_ghz(1.0);
        let p1 = m.power(Volt::new(0.8), f, 1.0).value();
        let p2 = m.power(Volt::new(1.6), f, 1.0).value();
        assert_close!(p2 / p1, 4.0, 1e-9);
    }

    #[test]
    fn scales_linearly_with_frequency_and_activity() {
        let m = DynamicPower::new(1e-9);
        let v = Volt::new(1.0);
        let p1 = m.power(v, Hertz::from_ghz(1.0), 0.5).value();
        let p2 = m.power(v, Hertz::from_ghz(2.0), 0.5).value();
        let p3 = m.power(v, Hertz::from_ghz(1.0), 1.0).value();
        assert_close!(p2 / p1, 2.0, 1e-9);
        assert_close!(p3 / p1, 2.0, 1e-9);
    }

    #[test]
    fn activity_clamped() {
        let m = DynamicPower::new(1e-9);
        let v = Volt::new(1.0);
        let f = Hertz::from_ghz(1.0);
        assert_eq!(m.power(v, f, -0.5), Watt::ZERO);
        assert_eq!(m.power(v, f, 2.0), m.power(v, f, 1.0));
    }

    #[test]
    fn zero_activity_zero_power() {
        let m = DynamicPower::new(1e-9);
        assert_eq!(
            m.power(Volt::new(1.2), Hertz::from_ghz(2.0), 0.0),
            Watt::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "invalid C_eff")]
    fn negative_ceff_panics() {
        let _ = DynamicPower::new(-1.0);
    }
}
