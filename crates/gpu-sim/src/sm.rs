//! The per-SM model.
//!
//! Mirrors the CPU core model but routes the workload's activity through the
//! warp-occupancy model first: power and progress scale with *issue
//! utilization*, not raw activity, so low-parallelism kernels waste less
//! power but also advance more slowly — and their low measured IPC is what
//! lets the GPU-CAPP dynamic local controller steal their voltage headroom.

use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::UnitPoint;
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::phase::{progress_rate, PhaseSample};

use crate::warp::WarpModel;

/// One SM's outputs for a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmStep {
    /// Power drawn this tick.
    pub power: Watt,
    /// Work completed this tick in nominal nanoseconds.
    pub work_ns: f64,
    /// Measured IPC fraction (local-controller input).
    pub ipc_fraction: f64,
}

/// A single streaming multiprocessor.
#[derive(Debug, Clone)]
pub struct StreamingMultiprocessor {
    model: ComponentPowerModel,
    warp: WarpModel,
    f_nominal: f64,
    jitter: f64,
    jitter_std: f64,
    jitter_countdown: u64,
    jitter_period_ticks: u64,
    rng: DeterministicRng,
}

impl StreamingMultiprocessor {
    /// Create an SM.
    pub fn new(
        model: ComponentPowerModel,
        warp: WarpModel,
        f_nominal_hz: f64,
        jitter_std: f64,
        jitter_period_ticks: u64,
        rng: DeterministicRng,
    ) -> Self {
        assert!(f_nominal_hz > 0.0, "non-positive nominal frequency");
        assert!(jitter_period_ticks > 0, "zero jitter period");
        let mut sm = StreamingMultiprocessor {
            model,
            warp,
            f_nominal: f_nominal_hz,
            jitter: 1.0,
            jitter_std,
            jitter_countdown: 0,
            jitter_period_ticks,
            rng,
        };
        sm.resample_jitter();
        sm
    }

    fn resample_jitter(&mut self) {
        self.jitter = if self.jitter_std > 0.0 {
            self.rng.normal(1.0, self.jitter_std).clamp(0.5, 1.5)
        } else {
            1.0
        };
        self.jitter_countdown = self.jitter_period_ticks;
    }

    /// Advance one tick at supply voltage `v` running `sample`.
    pub fn step(&mut self, v: Volt, sample: PhaseSample, dt: SimDuration) -> SmStep {
        if self.jitter_countdown == 0 {
            self.resample_jitter();
        }
        self.jitter_countdown -= 1;

        let f = self.model.frequency(v);
        let f_ratio = f.value() / self.f_nominal;
        let activity = (sample.activity * self.jitter).clamp(0.0, 1.0);
        let utilization = self.warp.utilization_from_activity(activity);
        let effective = PhaseSample {
            activity: utilization,
            mem_intensity: sample.mem_intensity,
        };
        let power = self.model.power(v, utilization);
        let work_ns = if utilization > 0.0 {
            progress_rate(effective, f_ratio) * dt.as_nanos() as f64 * utilization
        } else {
            0.0
        };
        let ipc_fraction = utilization / (1.0 + sample.mem_intensity * f_ratio);
        SmStep {
            power,
            work_ns,
            ipc_fraction,
        }
    }

    /// The voltage-dependent inputs of a tick at `v` running `sample`,
    /// for [`StreamingMultiprocessor::step_at`]. Every SM of a chiplet
    /// shares the same model and nominal frequency, so the chiplet
    /// computes this once per distinct voltage and shares it across the
    /// SMs at that voltage.
    #[inline]
    pub fn operating_point(&self, v: Volt, sample: PhaseSample) -> UnitPoint {
        let (f, leak) = self.model.operating_point(v);
        let f_ratio = f.value() / self.f_nominal;
        UnitPoint {
            f,
            f_ratio,
            leak,
            // `progress_rate` reads only the memory intensity, which the
            // warp model leaves unchanged.
            rate: progress_rate(sample, f_ratio),
        }
    }

    /// Advance one tick at `v` with `op = self.operating_point(v, sample)`
    /// precomputed.
    ///
    /// Must stay bit-identical to [`StreamingMultiprocessor::step`]
    /// (pinned by the `step_into_matches_step` test), so changes to
    /// `step` have to be mirrored here.
    pub fn step_at(
        &mut self,
        v: Volt,
        op: &UnitPoint,
        sample: PhaseSample,
        dt: SimDuration,
    ) -> SmStep {
        if self.jitter_countdown == 0 {
            self.resample_jitter();
        }
        self.jitter_countdown -= 1;

        let activity = (sample.activity * self.jitter).clamp(0.0, 1.0);
        let utilization = self.warp.utilization_from_activity(activity);
        let power = self.model.power_at(v, op.f, op.leak, utilization);
        let work_ns = if utilization > 0.0 {
            op.rate * dt.as_nanos() as f64 * utilization
        } else {
            0.0
        };
        let ipc_fraction = utilization / (1.0 + sample.mem_intensity * op.f_ratio);
        SmStep {
            power,
            work_ns,
            ipc_fraction,
        }
    }

    /// Would the next step resample the activity jitter? While this is
    /// `false` the SM's outputs depend only on `(v, sample, dt)`.
    #[inline]
    pub fn jitter_due(&self) -> bool {
        self.jitter_countdown == 0
    }

    /// Account one tick without evaluating the model: the chiplet replays
    /// an identical previous tick's outputs (see `GpuChiplet::step_into`).
    /// Only valid while [`StreamingMultiprocessor::jitter_due`] is `false`;
    /// the jitter clock then advances exactly as
    /// [`StreamingMultiprocessor::step`] would advance it.
    #[inline]
    pub fn replay_tick(&mut self) {
        debug_assert!(!self.jitter_due(), "replayed a jitter resample tick");
        self.jitter_countdown -= 1;
    }

    /// The SM's power model (for reporting).
    pub fn model(&self) -> &ComponentPowerModel {
        &self.model
    }
}

impl hcapp_sim_core::state::Snapshot for StreamingMultiprocessor {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.f64("sm.jitter", self.jitter);
        w.u64("sm.jitter_countdown", self.jitter_countdown);
        self.rng.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.jitter = r.f64("sm.jitter")?;
        self.jitter_countdown = r.u64("sm.jitter_countdown")?;
        self.rng.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use hcapp_power_model::ComponentPowerModel;
    use hcapp_sim_core::assert_close;

    fn test_sm(jitter_std: f64) -> StreamingMultiprocessor {
        let cfg = GpuConfig::default();
        let model = ComponentPowerModel::calibrated(
            cfg.frequency_model(),
            cfg.v_nominal,
            cfg.sm_peak_dynamic,
            cfg.sm_leakage,
        );
        let f_nom = model.frequency(cfg.v_nominal).value();
        StreamingMultiprocessor::new(
            model,
            WarpModel::new(cfg.max_warps, cfg.warp_half_occupancy),
            f_nom,
            jitter_std,
            500,
            DeterministicRng::new(9),
        )
    }

    fn full() -> PhaseSample {
        PhaseSample {
            activity: 1.0,
            mem_intensity: 0.0,
        }
    }

    #[test]
    fn full_occupancy_hits_calibration() {
        let mut sm = test_sm(0.0);
        let cfg = GpuConfig::default();
        let s = sm.step(cfg.v_nominal, full(), SimDuration::from_nanos(100));
        assert_close!(s.power.value(), 2.6 + 0.3, 1e-9);
        assert_close!(s.ipc_fraction, 1.0, 1e-9);
    }

    #[test]
    fn low_parallelism_draws_less_and_reports_low_ipc() {
        let mut sm = test_sm(0.0);
        let cfg = GpuConfig::default();
        let dt = SimDuration::from_nanos(100);
        let lo = sm.step(
            cfg.v_nominal,
            PhaseSample {
                activity: 0.2,
                mem_intensity: 0.0,
            },
            dt,
        );
        let hi = sm.step(cfg.v_nominal, full(), dt);
        assert!(lo.power.value() < hi.power.value());
        assert!(lo.ipc_fraction < hi.ipc_fraction);
        assert!(lo.work_ns < hi.work_ns);
    }

    #[test]
    fn occupancy_concavity_from_warp_model() {
        // 50% activity yields more than 50% of full-activity utilization
        // (latency hiding), visible in power.
        let mut sm = test_sm(0.0);
        let cfg = GpuConfig::default();
        let dt = SimDuration::from_nanos(100);
        let half = sm.step(
            cfg.v_nominal,
            PhaseSample {
                activity: 0.5,
                mem_intensity: 0.0,
            },
            dt,
        );
        let fullp = sm.step(cfg.v_nominal, full(), dt);
        let leak = 0.3;
        let dyn_half = half.power.value() - leak;
        let dyn_full = fullp.power.value() - leak;
        assert!(dyn_half / dyn_full > 0.5);
    }

    #[test]
    fn voltage_scales_work() {
        let mut sm = test_sm(0.0);
        let dt = SimDuration::from_nanos(100);
        let slow = sm.step(Volt::new(0.55), full(), dt);
        let fast = sm.step(Volt::new(0.90), full(), dt);
        assert!(fast.work_ns > slow.work_ns * 1.5);
    }

    #[test]
    fn idle_sm_draws_leakage_only() {
        let mut sm = test_sm(0.0);
        let s = sm.step(
            Volt::new(0.72),
            PhaseSample::IDLE,
            SimDuration::from_nanos(100),
        );
        assert_close!(s.power.value(), 0.3, 1e-9);
        assert_eq!(s.work_ns, 0.0);
    }
}
