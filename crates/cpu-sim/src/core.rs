//! The per-core interval model.
//!
//! Each core executes the chiplet's shared workload phase with its own
//! slowly-varying activity jitter. Per tick it produces the three outputs
//! the rest of the system consumes: power draw, work progress rate, and the
//! measured IPC fraction that drives the CAPP-style local controller.

use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::UnitPoint;
use hcapp_sim_core::rng::DeterministicRng;
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

/// A single CPU core.
#[derive(Debug, Clone)]
pub struct Core {
    model: ComponentPowerModel,
    /// Nominal frequency used to normalize `f_ratio` (the frequency at the
    /// calibration voltage).
    f_nominal: f64,
    /// Current multiplicative activity jitter.
    jitter: f64,
    jitter_std: f64,
    /// Ticks until the jitter is resampled.
    jitter_countdown: u64,
    jitter_period_ticks: u64,
    rng: DeterministicRng,
}

impl Core {
    /// Create a core.
    ///
    /// `f_nominal_hz` is the frequency at the calibration voltage (work
    /// rates are normalized to it). Jitter is resampled every
    /// `jitter_period_ticks` ticks from `N(1, jitter_std)`.
    pub fn new(
        model: ComponentPowerModel,
        f_nominal_hz: f64,
        jitter_std: f64,
        jitter_period_ticks: u64,
        rng: DeterministicRng,
    ) -> Self {
        assert!(f_nominal_hz > 0.0, "non-positive nominal frequency");
        assert!(jitter_period_ticks > 0, "zero jitter period");
        let mut core = Core {
            model,
            f_nominal: f_nominal_hz,
            jitter: 1.0,
            jitter_std,
            jitter_countdown: 0,
            jitter_period_ticks,
            rng,
        };
        core.resample_jitter();
        core
    }

    fn resample_jitter(&mut self) {
        self.jitter = if self.jitter_std > 0.0 {
            self.rng.normal(1.0, self.jitter_std).clamp(0.5, 1.5)
        } else {
            1.0
        };
        self.jitter_countdown = self.jitter_period_ticks;
    }

    /// Advance the core one tick at supply voltage `v` running `sample`.
    pub fn step(&mut self, v: Volt, sample: PhaseSample, dt: SimDuration) -> CoreStep {
        if self.jitter_countdown == 0 {
            self.resample_jitter();
        }
        self.jitter_countdown -= 1;

        let f = self.model.frequency(v);
        let f_ratio = f.value() / self.f_nominal;
        let activity = (sample.activity * self.jitter).clamp(0.0, 1.0);
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

    /// The voltage-dependent inputs of a tick at `v` running `sample`,
    /// for [`Core::step_at`]. Every core of a chiplet shares the same
    /// model and nominal frequency, so the chiplet computes this once per
    /// distinct voltage and shares it across the cores at that voltage.
    #[inline]
    pub fn operating_point(&self, v: Volt, sample: PhaseSample) -> UnitPoint {
        let (f, leak) = self.model.operating_point(v);
        let f_ratio = f.value() / self.f_nominal;
        UnitPoint {
            f,
            f_ratio,
            leak,
            // `progress_rate` reads only the memory intensity, which
            // jitter leaves unchanged.
            rate: progress_rate(sample, f_ratio),
        }
    }

    /// Advance one tick at `v` with `op = self.operating_point(v, sample)`
    /// precomputed.
    ///
    /// This must stay bit-identical to [`Core::step`] (pinned by the
    /// `step_into_matches_step` tests), so any change to `step` has to be
    /// mirrored here.
    pub fn step_at(
        &mut self,
        v: Volt,
        op: &UnitPoint,
        sample: PhaseSample,
        dt: SimDuration,
    ) -> CoreStep {
        if self.jitter_countdown == 0 {
            self.resample_jitter();
        }
        self.jitter_countdown -= 1;

        let activity = (sample.activity * self.jitter).clamp(0.0, 1.0);
        let jittered = PhaseSample {
            activity,
            mem_intensity: sample.mem_intensity,
        };
        let power = self.model.power_at(v, op.f, op.leak, activity);
        let work_ns = op.rate * dt.as_nanos() as f64 * if activity > 0.0 { 1.0 } else { 0.0 };
        CoreStep {
            power,
            work_ns,
            ipc_fraction: ipc_fraction(jittered, op.f_ratio),
        }
    }

    /// Would the next step resample the activity jitter? While this is
    /// `false` the core's outputs depend only on `(v, sample, dt)`.
    #[inline]
    pub fn jitter_due(&self) -> bool {
        self.jitter_countdown == 0
    }

    /// Account one tick without evaluating the model: the chiplet replays
    /// an identical previous tick's outputs (see `CpuChiplet::step_into`).
    /// Only valid while [`Core::jitter_due`] is `false`; the jitter clock
    /// then advances exactly as [`Core::step`] would advance it.
    #[inline]
    pub fn replay_tick(&mut self) {
        debug_assert!(!self.jitter_due(), "replayed a jitter resample tick");
        self.jitter_countdown -= 1;
    }

    /// The core's power model (for reporting).
    pub fn model(&self) -> &ComponentPowerModel {
        &self.model
    }
}

impl hcapp_sim_core::state::Snapshot for Core {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.f64("core.jitter", self.jitter);
        w.u64("core.jitter_countdown", self.jitter_countdown);
        self.rng.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.jitter = r.f64("core.jitter")?;
        self.jitter_countdown = r.u64("core.jitter_countdown")?;
        self.rng.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use hcapp_power_model::ComponentPowerModel;
    use hcapp_sim_core::assert_close;

    fn test_core(jitter_std: f64) -> Core {
        let cfg = CpuConfig::default();
        let model = ComponentPowerModel::calibrated(
            cfg.frequency_model(),
            cfg.v_nominal,
            cfg.core_peak_dynamic,
            cfg.core_leakage,
        );
        let f_nom = model.frequency(cfg.v_nominal).value();
        Core::new(model, f_nom, jitter_std, 500, DeterministicRng::new(3))
    }

    fn busy() -> PhaseSample {
        PhaseSample {
            activity: 1.0,
            mem_intensity: 0.0,
        }
    }

    #[test]
    fn nominal_step_matches_calibration() {
        let mut c = test_core(0.0);
        let s = c.step(Volt::new(1.0), busy(), SimDuration::from_nanos(100));
        assert_close!(s.power.value(), 6.5 + 0.8, 1e-9);
        // Compute-bound at nominal frequency: work = dt.
        assert_close!(s.work_ns, 100.0, 1e-9);
        assert_close!(s.ipc_fraction, 1.0, 1e-9);
    }

    #[test]
    fn higher_voltage_more_work_more_power() {
        let mut c = test_core(0.0);
        let dt = SimDuration::from_nanos(100);
        let lo = c.step(Volt::new(0.9), busy(), dt);
        let hi = c.step(Volt::new(1.1), busy(), dt);
        assert!(hi.power.value() > lo.power.value());
        assert!(hi.work_ns > lo.work_ns);
    }

    #[test]
    fn memory_bound_caps_ipc_and_work() {
        let mut c = test_core(0.0);
        let dt = SimDuration::from_nanos(100);
        let mem = PhaseSample {
            activity: 1.0,
            mem_intensity: 0.8,
        };
        let lo = c.step(Volt::new(1.0), mem, dt);
        let hi = c.step(Volt::new(1.25), mem, dt);
        // Frequency rises 1.0 → 1.5 GHz-equivalent ratio but work gains less
        // than proportionally and measured IPC drops.
        let f_gain = 1.5;
        assert!(hi.work_ns / lo.work_ns < f_gain);
        assert!(hi.ipc_fraction < lo.ipc_fraction);
    }

    #[test]
    fn idle_core_draws_leakage_only_and_does_no_work() {
        let mut c = test_core(0.0);
        let s = c.step(Volt::new(1.0), PhaseSample::IDLE, SimDuration::from_nanos(100));
        assert_close!(s.power.value(), 0.8, 1e-9);
        assert_close!(s.work_ns, 0.0, 1e-12);
        assert_close!(s.ipc_fraction, 0.0, 1e-12);
    }

    #[test]
    fn jitter_varies_but_is_bounded() {
        let mut c = test_core(0.1);
        let dt = SimDuration::from_nanos(100);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        // Step across several jitter periods.
        for _ in 0..5_000 {
            let s = c.step(Volt::new(1.0), busy(), dt);
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
        let mut a = test_core(0.08);
        let mut b = test_core(0.08);
        let dt = SimDuration::from_nanos(100);
        for _ in 0..2_000 {
            let sa = a.step(Volt::new(1.0), busy(), dt);
            let sb = b.step(Volt::new(1.0), busy(), dt);
            assert_eq!(sa, sb);
        }
    }
}
