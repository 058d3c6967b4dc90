//! The per-core interval model.
//!
//! Each core executes the chiplet's shared workload phase with its own
//! slowly-varying activity jitter. Per tick it produces the three outputs
//! the rest of the system consumes: power draw, work progress rate, and the
//! measured IPC fraction that drives the CAPP-style local controller.

use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::UnitPoint;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::phase::{progress_rate, PhaseSample};

/// Measured IPC as a fraction of the core's peak IPC.
///
/// `activity` is the fraction of cycles the program could issue; the memory
/// term models issue slots lost to stalls that worsen as the core outruns
/// memory: `IPC/IPC_peak = a / (1 + m·f/f_nom)`.
#[inline]
pub fn ipc_fraction(sample: PhaseSample, f_ratio: f64) -> f64 {
    sample.activity / (1.0 + sample.mem_intensity * f_ratio)
}

/// One core's outputs for a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreStep {
    /// Power drawn this tick.
    pub power: Watt,
    /// Work completed this tick in nominal nanoseconds.
    pub work_ns: f64,
    /// Measured IPC fraction (local-controller input).
    pub ipc_fraction: f64,
}

/// The model every core of a chiplet shares: the power model and the
/// nominal frequency. A core's own state is its activity jitter and its
/// random stream, which the chiplet keeps in lanes
/// ([`JitterLanes`](hcapp_sim_core::jitter::JitterLanes)).
#[derive(Debug, Clone)]
pub struct CoreModel {
    model: ComponentPowerModel,
    /// Nominal frequency used to normalize `f_ratio` (the frequency at the
    /// calibration voltage).
    f_nominal: f64,
}

impl CoreModel {
    /// The shared core model. `f_nominal_hz` is the frequency at the
    /// calibration voltage (work rates are normalized to it).
    ///
    /// # Panics
    /// Panics on a non-positive nominal frequency.
    pub fn new(model: ComponentPowerModel, f_nominal_hz: f64) -> Self {
        assert!(f_nominal_hz > 0.0, "non-positive nominal frequency");
        CoreModel {
            model,
            f_nominal: f_nominal_hz,
        }
    }

    /// One core's tick at supply voltage `v` running `sample` with
    /// activity jitter `jitter`: the per-unit arithmetic, evaluated in
    /// full. It is the reference the chiplet's hoisted lanes are pinned
    /// against (`step_into_matches_step`).
    pub fn step(&self, v: Volt, jitter: f64, sample: PhaseSample, dt: SimDuration) -> CoreStep {
        let f = self.model.frequency(v);
        let f_ratio = f.value() / self.f_nominal;
        let activity = (sample.activity * jitter).clamp(0.0, 1.0);
        let jittered = PhaseSample {
            activity,
            mem_intensity: sample.mem_intensity,
        };
        let power = self.model.power(v, activity);
        let work_ns = progress_rate(jittered, f_ratio) * dt.as_nanos() as f64
            * if activity > 0.0 { 1.0 } else { 0.0 };
        CoreStep {
            power,
            work_ns,
            ipc_fraction: ipc_fraction(jittered, f_ratio),
        }
    }

    /// The unit-independent terms of a tick at `v` running `sample`
    /// (`dt_ns` long), shared by every core at that voltage. With them a
    /// core's [`CoreModel::step`] is `power = switched · a + leak`,
    /// `work = work_per_tick · [a > 0]` and `ipc = a / ipc_denom` for its
    /// jittered activity `a`: the same operations on the same operands.
    /// `progress_rate` reads only the memory intensity, which jitter
    /// leaves unchanged.
    #[inline]
    pub fn point(&self, v: Volt, sample: PhaseSample, dt_ns: f64) -> UnitPoint {
        let (f, leak) = self.model.operating_point(v);
        let f_ratio = f.value() / self.f_nominal;
        UnitPoint {
            switched: self.model.dynamic.switched(v, f),
            leak,
            ipc_denom: 1.0 + sample.mem_intensity * f_ratio,
            work_per_tick: progress_rate(sample, f_ratio) * dt_ns,
        }
    }

    /// The core power model (for reporting).
    pub fn model(&self) -> &ComponentPowerModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use hcapp_power_model::ComponentPowerModel;
    use hcapp_sim_core::assert_close;
    use hcapp_sim_core::jitter::JitterLanes;
    use hcapp_sim_core::rng::DeterministicRng;

    fn test_core() -> CoreModel {
        let cfg = CpuConfig::default();
        let model = ComponentPowerModel::calibrated(
            cfg.frequency_model(),
            cfg.v_nominal,
            cfg.core_peak_dynamic,
            cfg.core_leakage,
        );
        let f_nom = model.frequency(cfg.v_nominal).value();
        CoreModel::new(model, f_nom)
    }

    /// One core's jitter lane, resampled every 500 ticks.
    fn jitter_lane(jitter_std: f64) -> JitterLanes {
        JitterLanes::new(
            jitter_std,
            500,
            vec![DeterministicRng::new(3)],
            ["core.jitter", "core.jitter_countdown"],
        )
    }

    fn busy() -> PhaseSample {
        PhaseSample {
            activity: 1.0,
            mem_intensity: 0.0,
        }
    }

    #[test]
    fn nominal_step_matches_calibration() {
        let c = test_core();
        let s = c.step(Volt::new(1.0), 1.0, busy(), SimDuration::from_nanos(100));
        assert_close!(s.power.value(), 6.5 + 0.8, 1e-9);
        // Compute-bound at nominal frequency: work = dt.
        assert_close!(s.work_ns, 100.0, 1e-9);
        assert_close!(s.ipc_fraction, 1.0, 1e-9);
    }

    #[test]
    fn higher_voltage_more_work_more_power() {
        let c = test_core();
        let dt = SimDuration::from_nanos(100);
        let lo = c.step(Volt::new(0.9), 1.0, busy(), dt);
        let hi = c.step(Volt::new(1.1), 1.0, busy(), dt);
        assert!(hi.power.value() > lo.power.value());
        assert!(hi.work_ns > lo.work_ns);
    }

    #[test]
    fn memory_bound_caps_ipc_and_work() {
        let c = test_core();
        let dt = SimDuration::from_nanos(100);
        let mem = PhaseSample {
            activity: 1.0,
            mem_intensity: 0.8,
        };
        let lo = c.step(Volt::new(1.0), 1.0, mem, dt);
        let hi = c.step(Volt::new(1.25), 1.0, mem, dt);
        // Frequency rises 1.0 → 1.5 GHz-equivalent ratio but work gains less
        // than proportionally and measured IPC drops.
        let f_gain = 1.5;
        assert!(hi.work_ns / lo.work_ns < f_gain);
        assert!(hi.ipc_fraction < lo.ipc_fraction);
    }

    #[test]
    fn idle_core_draws_leakage_only_and_does_no_work() {
        let c = test_core();
        let s = c.step(Volt::new(1.0), 1.0, PhaseSample::IDLE, SimDuration::from_nanos(100));
        assert_close!(s.power.value(), 0.8, 1e-9);
        assert_close!(s.work_ns, 0.0, 1e-12);
        assert_close!(s.ipc_fraction, 0.0, 1e-12);
    }

    #[test]
    fn jitter_varies_but_is_bounded() {
        let c = test_core();
        let mut jitter = jitter_lane(0.1);
        let dt = SimDuration::from_nanos(100);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        // Step across several jitter periods.
        for _ in 0..5_000 {
            jitter.tick();
            let s = c.step(Volt::new(1.0), jitter.values()[0], busy(), dt);
            min = min.min(s.power.value());
            max = max.max(s.power.value());
        }
        assert!(max > min, "jitter should vary power");
        // activity clamp keeps power within [0.5, 1.5]× dynamic + leakage.
        assert!(min >= 0.5 * 6.5 + 0.8 - 1e-6);
        assert!(max <= 1.0 * 6.5 + 0.8 + 1e-6); // activity clamped at 1.0
    }

    #[test]
    fn deterministic_across_instances() {
        let c = test_core();
        let mut a = jitter_lane(0.08);
        let mut b = jitter_lane(0.08);
        let dt = SimDuration::from_nanos(100);
        for _ in 0..2_000 {
            a.tick();
            b.tick();
            let sa = c.step(Volt::new(1.0), a.values()[0], busy(), dt);
            let sb = c.step(Volt::new(1.0), b.values()[0], busy(), dt);
            assert_eq!(sa, sb);
        }
    }
}
