//! The four control schemes the evaluation compares (§4.6).
//!
//! The paper evaluates HCAPP against itself running at slower control
//! frequencies — "RAPL-like" (100 µs, an aggressive firmware controller) and
//! "software-like" (10 ms, an aggressive software controller) — plus a fixed
//! 0.95 V baseline with no local controllers. Everything except the control
//! period (and, for the baseline, the absence of control) is held equal, so
//! the comparison isolates reaction time.

use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Volt;

use crate::pid::PidGains;

/// A power control scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlScheme {
    /// Full HCAPP: hardware-speed decentralized control at 1 µs.
    Hcapp,
    /// The same controller stack at a 100 µs period — an aggressive model of
    /// a centralized firmware controller like RAPL.
    RaplLike,
    /// The same stack at a 10 ms period — an aggressive model of a software
    /// controller.
    SoftwareLike,
    /// No dynamic control: a fixed global voltage (0.95 V in the paper) and
    /// no local controllers.
    FixedVoltage(Volt),
    /// The HCAPP stack at an arbitrary control period — used by the
    /// control-period sweep ablation and by the scaling study's model of a
    /// centralized controller whose aggregation time grows with chiplet
    /// count.
    CustomPeriod(SimDuration),
}

impl ControlScheme {
    /// The paper's fixed-voltage baseline (0.95 V, §4: "the highest
    /// performance without violating the power target").
    pub fn fixed_baseline() -> Self {
        ControlScheme::FixedVoltage(Volt::new(0.95))
    }

    /// The three dynamic schemes, fastest first.
    pub fn dynamic_schemes() -> [ControlScheme; 3] {
        [
            ControlScheme::Hcapp,
            ControlScheme::RaplLike,
            ControlScheme::SoftwareLike,
        ]
    }

    /// All four evaluated schemes (baseline last).
    pub fn all() -> [ControlScheme; 4] {
        [
            ControlScheme::Hcapp,
            ControlScheme::RaplLike,
            ControlScheme::SoftwareLike,
            ControlScheme::fixed_baseline(),
        ]
    }

    /// The global control period, or `None` for the uncontrolled baseline.
    pub fn control_period(&self) -> Option<SimDuration> {
        match self {
            ControlScheme::Hcapp => Some(SimDuration::from_micros(1)),
            ControlScheme::RaplLike => Some(SimDuration::from_micros(100)),
            ControlScheme::SoftwareLike => Some(SimDuration::from_millis(10)),
            ControlScheme::FixedVoltage(_) => None,
            ControlScheme::CustomPeriod(d) => Some(*d),
        }
    }

    /// Check the scheme against the rail it drives. A fixed voltage must be
    /// a finite value inside the global VR's range
    /// `gains.out_min..=gains.out_max` (0.60–1.30 V for the paper's gains),
    /// and a custom control period must be nonzero. The error names the
    /// offending value and, for a voltage, the range.
    pub fn check(&self, gains: &PidGains) -> Result<(), String> {
        match *self {
            ControlScheme::FixedVoltage(v)
                if !(gains.out_min..=gains.out_max).contains(&v.value()) =>
            {
                Err(format!(
                    "fixed voltage {} V is outside the rail range {:.2}..={:.2} V",
                    v.value(),
                    gains.out_min,
                    gains.out_max
                ))
            }
            ControlScheme::CustomPeriod(d) if d.is_zero() => {
                Err("custom control period must be at least 1 us".into())
            }
            _ => Ok(()),
        }
    }

    /// Whether the scheme runs the local (per-core/SM) controllers. The
    /// fixed baseline runs none (§4).
    pub fn uses_local_controllers(&self) -> bool {
        !matches!(self, ControlScheme::FixedVoltage(_))
    }

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            ControlScheme::Hcapp => "HCAPP",
            ControlScheme::RaplLike => "RAPL-like HCAPP",
            ControlScheme::SoftwareLike => "SW-like HCAPP",
            ControlScheme::FixedVoltage(_) => "Fixed Voltage",
            ControlScheme::CustomPeriod(_) => "Custom-period HCAPP",
        }
    }
}

impl std::fmt::Display for ControlScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlScheme::FixedVoltage(v) => write!(f, "Fixed Voltage ({v})"),
            ControlScheme::CustomPeriod(d) => write!(f, "HCAPP @ {d}"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods_match_section_4_6() {
        assert_eq!(
            ControlScheme::Hcapp.control_period(),
            Some(SimDuration::from_micros(1))
        );
        assert_eq!(
            ControlScheme::RaplLike.control_period(),
            Some(SimDuration::from_micros(100))
        );
        assert_eq!(
            ControlScheme::SoftwareLike.control_period(),
            Some(SimDuration::from_millis(10))
        );
        assert_eq!(ControlScheme::fixed_baseline().control_period(), None);
    }

    #[test]
    fn baseline_voltage_is_095() {
        if let ControlScheme::FixedVoltage(v) = ControlScheme::fixed_baseline() {
            assert!((v.value() - 0.95).abs() < 1e-12);
        } else {
            panic!("not fixed");
        }
    }

    #[test]
    fn local_controllers_off_for_baseline_only() {
        for s in ControlScheme::dynamic_schemes() {
            assert!(s.uses_local_controllers());
        }
        assert!(!ControlScheme::fixed_baseline().uses_local_controllers());
    }

    #[test]
    fn names_and_display() {
        assert_eq!(ControlScheme::Hcapp.name(), "HCAPP");
        assert_eq!(ControlScheme::RaplLike.name(), "RAPL-like HCAPP");
        let s = format!("{}", ControlScheme::fixed_baseline());
        assert!(s.contains("Fixed Voltage"));
    }

    #[test]
    fn all_contains_four() {
        assert_eq!(ControlScheme::all().len(), 4);
    }

    #[test]
    fn check_accepts_the_rail_endpoints_and_every_named_scheme() {
        let gains = PidGains::paper_default();
        for s in ControlScheme::all() {
            assert_eq!(s.check(&gains), Ok(()), "{s}");
        }
        for v in [gains.out_min, gains.out_max] {
            assert_eq!(ControlScheme::FixedVoltage(Volt::new(v)).check(&gains), Ok(()));
        }
        let one_us = ControlScheme::CustomPeriod(SimDuration::from_micros(1));
        assert_eq!(one_us.check(&gains), Ok(()));
    }

    #[test]
    fn check_rejects_off_rail_and_non_finite_voltages() {
        let gains = PidGains::paper_default();
        for v in [0.59, 1.31, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = ControlScheme::FixedVoltage(Volt::new(v))
                .check(&gains)
                .unwrap_err();
            assert!(e.contains("0.60..=1.30 V"), "{v}: {e}");
        }
    }

    #[test]
    fn check_rejects_a_zero_custom_period() {
        let e = ControlScheme::CustomPeriod(SimDuration::ZERO)
            .check(&PidGains::paper_default())
            .unwrap_err();
        assert!(e.contains("at least 1 us"), "{e}");
    }
}
