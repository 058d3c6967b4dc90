//! The per-SM model.
//!
//! Mirrors the CPU core model but routes the workload's activity through the
//! warp-occupancy model first: power and progress scale with *issue
//! utilization*, not raw activity, so low-parallelism kernels waste less
//! power but also advance more slowly — and their low measured IPC is what
//! lets the GPU-CAPP dynamic local controller steal their voltage headroom.

use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::UnitPoint;
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

/// The model every SM of a chiplet shares: the power model, the warp
/// model and the nominal frequency. An SM's own state is its activity
/// jitter and its random stream, which the chiplet keeps in lanes
/// ([`JitterLanes`](hcapp_sim_core::jitter::JitterLanes)).
#[derive(Debug, Clone)]
pub struct SmModel {
    model: ComponentPowerModel,
    warp: WarpModel,
    f_nominal: f64,
}

impl SmModel {
    /// The shared SM model.
    ///
    /// # Panics
    /// Panics on a non-positive nominal frequency.
    pub fn new(model: ComponentPowerModel, warp: WarpModel, f_nominal_hz: f64) -> Self {
        assert!(f_nominal_hz > 0.0, "non-positive nominal frequency");
        SmModel {
            model,
            warp,
            f_nominal: f_nominal_hz,
        }
    }

    /// One SM's tick at supply voltage `v` running `sample` with activity
    /// jitter `jitter`: the per-unit arithmetic, evaluated in full. It is
    /// the reference the chiplet's hoisted lanes are pinned against
    /// (`step_into_matches_step`).
    pub fn step(&self, v: Volt, jitter: f64, sample: PhaseSample, dt: SimDuration) -> SmStep {
        let f = self.model.frequency(v);
        let f_ratio = f.value() / self.f_nominal;
        let activity = (sample.activity * jitter).clamp(0.0, 1.0);
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

    /// Issue utilization of an SM whose jittered activity is
    /// `(activity · jitter)` clamped to `[0, 1]`.
    #[inline]
    pub fn utilization(&self, activity: f64, jitter: f64) -> f64 {
        self.warp
            .utilization_from_activity((activity * jitter).clamp(0.0, 1.0))
    }

    /// The unit-independent terms of a tick at `v` running `sample`
    /// (`dt_ns` long), shared by every SM at that voltage. With them an
    /// SM's [`SmModel::step`] is `power = switched · clamp(u) + leak`,
    /// `work = work_per_tick · u` (0 when idle) and `ipc = u / ipc_denom`
    /// for its utilization `u`: the same operations on the same operands.
    /// `progress_rate` reads only the memory intensity, which the warp
    /// model leaves unchanged.
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

    /// The SM power model (for reporting).
    pub fn model(&self) -> &ComponentPowerModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use hcapp_power_model::ComponentPowerModel;
    use hcapp_sim_core::assert_close;

    fn test_sm() -> SmModel {
        let cfg = GpuConfig::default();
        let model = ComponentPowerModel::calibrated(
            cfg.frequency_model(),
            cfg.v_nominal,
            cfg.sm_peak_dynamic,
            cfg.sm_leakage,
        );
        let f_nom = model.frequency(cfg.v_nominal).value();
        SmModel::new(
            model,
            WarpModel::new(cfg.max_warps, cfg.warp_half_occupancy),
            f_nom,
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
        let sm = test_sm();
        let cfg = GpuConfig::default();
        let s = sm.step(cfg.v_nominal, 1.0, full(), SimDuration::from_nanos(100));
        assert_close!(s.power.value(), 2.6 + 0.3, 1e-9);
        assert_close!(s.ipc_fraction, 1.0, 1e-9);
    }

    #[test]
    fn low_parallelism_draws_less_and_reports_low_ipc() {
        let sm = test_sm();
        let cfg = GpuConfig::default();
        let dt = SimDuration::from_nanos(100);
        let lo = sm.step(
            cfg.v_nominal,
            1.0,
            PhaseSample {
                activity: 0.2,
                mem_intensity: 0.0,
            },
            dt,
        );
        let hi = sm.step(cfg.v_nominal, 1.0, full(), dt);
        assert!(lo.power.value() < hi.power.value());
        assert!(lo.ipc_fraction < hi.ipc_fraction);
        assert!(lo.work_ns < hi.work_ns);
    }

    #[test]
    fn occupancy_concavity_from_warp_model() {
        // 50% activity yields more than 50% of full-activity utilization
        // (latency hiding), visible in power.
        let sm = test_sm();
        let cfg = GpuConfig::default();
        let dt = SimDuration::from_nanos(100);
        let half = sm.step(
            cfg.v_nominal,
            1.0,
            PhaseSample {
                activity: 0.5,
                mem_intensity: 0.0,
            },
            dt,
        );
        let fullp = sm.step(cfg.v_nominal, 1.0, full(), dt);
        let leak = 0.3;
        let dyn_half = half.power.value() - leak;
        let dyn_full = fullp.power.value() - leak;
        assert!(dyn_half / dyn_full > 0.5);
    }

    #[test]
    fn voltage_scales_work() {
        let sm = test_sm();
        let dt = SimDuration::from_nanos(100);
        let slow = sm.step(Volt::new(0.55), 1.0, full(), dt);
        let fast = sm.step(Volt::new(0.90), 1.0, full(), dt);
        assert!(fast.work_ns > slow.work_ns * 1.5);
    }

    #[test]
    fn idle_sm_draws_leakage_only() {
        let sm = test_sm();
        let s = sm.step(
            Volt::new(0.72),
            1.0,
            PhaseSample::IDLE,
            SimDuration::from_nanos(100),
        );
        assert_close!(s.power.value(), 0.3, 1e-9);
        assert_eq!(s.work_ns, 0.0);
    }
}
