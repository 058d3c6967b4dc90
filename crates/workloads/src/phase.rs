//! Phases and the progress-rate model.
//!
//! A [`Phase`] is a span of program execution with homogeneous behaviour:
//! a switching-activity factor (drives dynamic power) and a memory intensity
//! (drives how much faster the phase completes when the clock speeds up).
//! Work is measured in **nominal nanoseconds**: the time the phase would
//! take at the component's nominal frequency. [`progress_rate`] converts a
//! frequency ratio into nominal-nanoseconds-per-nanosecond progress.

/// A span of execution with homogeneous power/performance behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Switching activity factor in `[0, 1]` — multiplies dynamic power.
    pub activity: f64,
    /// Memory intensity in `[0, 1]` — 0 is fully compute-bound (perfect
    /// frequency scaling), 1 is fully memory-bound (no benefit beyond the
    /// memory-system rate).
    pub mem_intensity: f64,
    /// Remaining work in nominal nanoseconds (time at nominal frequency).
    pub work_ns: f64,
}

impl Phase {
    /// Construct a phase, clamping behaviour parameters into range.
    pub fn new(activity: f64, mem_intensity: f64, work_ns: f64) -> Self {
        Phase {
            activity: activity.clamp(0.0, 1.0),
            mem_intensity: mem_intensity.clamp(0.0, 1.0),
            work_ns: work_ns.max(0.0),
        }
    }

    /// The instantaneous behaviour sample the component simulators consume.
    pub fn sample(&self) -> PhaseSample {
        PhaseSample {
            activity: self.activity,
            mem_intensity: self.mem_intensity,
        }
    }
}

/// The per-tick behaviour handed to a component simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSample {
    /// Switching activity factor in `[0, 1]`.
    pub activity: f64,
    /// Memory intensity in `[0, 1]`.
    pub mem_intensity: f64,
}

impl PhaseSample {
    /// The bit patterns of `activity` and `mem_intensity`: two samples
    /// with equal bits drive a chiplet identically.
    #[inline]
    pub fn bits(&self) -> [u64; 2] {
        [self.activity.to_bits(), self.mem_intensity.to_bits()]
    }

    /// A fully idle sample (workload complete).
    pub const IDLE: PhaseSample = PhaseSample {
        activity: 0.0,
        mem_intensity: 0.0,
    };

    /// Relative IPC at frequency ratio `f_ratio = f / f_nominal`, normalized
    /// so the value is 1.0 at the nominal frequency.
    ///
    /// Model: instructions per cycle degrade as the core outruns the memory
    /// system, `IPC(f) ∝ 1 / (1 + m·f/f_nom)`, the standard first-order
    /// interval-model approximation (memory stalls take wall-clock time that
    /// does not shrink with core frequency).
    #[inline]
    pub fn relative_ipc(&self, f_ratio: f64) -> f64 {
        debug_assert!(f_ratio >= 0.0);
        let m = self.mem_intensity;
        (1.0 + m) / (1.0 + m * f_ratio)
    }
}

/// Progress through a phase, in nominal nanoseconds per wall-clock
/// nanosecond, at frequency ratio `f_ratio = f / f_nominal`.
///
/// `rate = f_ratio · IPC(f) / IPC(f_nom) = f_ratio · (1 + m) / (1 + m·f_ratio)`
///
/// Properties the experiments rely on:
/// * `rate(1) = 1` for any memory intensity (calibration point);
/// * compute-bound (`m = 0`): `rate = f_ratio` — perfect scaling;
/// * memory-bound (`m → 1`): rate saturates at `(1 + m)/m ≈ 2` — raising
///   the voltage on a memory-bound phase wastes power, which is what the
///   IPC-guided local controllers detect.
#[inline]
pub fn progress_rate(sample: PhaseSample, f_ratio: f64) -> f64 {
    f_ratio * sample.relative_ipc(f_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn phase_clamps_inputs() {
        let p = Phase::new(1.5, -0.2, -5.0);
        assert_eq!(p.activity, 1.0);
        assert_eq!(p.mem_intensity, 0.0);
        assert_eq!(p.work_ns, 0.0);
    }

    #[test]
    fn nominal_rate_is_unity() {
        for m in [0.0, 0.3, 0.7, 1.0] {
            let s = PhaseSample {
                activity: 0.5,
                mem_intensity: m,
            };
            assert_close!(progress_rate(s, 1.0), 1.0, 1e-12);
        }
    }

    #[test]
    fn compute_bound_scales_linearly() {
        let s = PhaseSample {
            activity: 1.0,
            mem_intensity: 0.0,
        };
        assert_close!(progress_rate(s, 1.5), 1.5, 1e-12);
        assert_close!(progress_rate(s, 0.5), 0.5, 1e-12);
    }

    #[test]
    fn memory_bound_saturates() {
        let s = PhaseSample {
            activity: 1.0,
            mem_intensity: 1.0,
        };
        // rate(f) = 2f/(1+f): rate(4) = 1.6 < 2, and the limit is 2.
        assert_close!(progress_rate(s, 4.0), 1.6, 1e-12);
        assert!(progress_rate(s, 100.0) < 2.0);
    }

    #[test]
    fn rate_monotone_in_frequency() {
        let s = PhaseSample {
            activity: 1.0,
            mem_intensity: 0.6,
        };
        let mut prev = 0.0;
        for i in 0..100 {
            let r = progress_rate(s, i as f64 * 0.05);
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn higher_mem_intensity_lower_gain() {
        // At the same above-nominal frequency, memory-bound phases gain less.
        let fast = 1.5;
        let light = PhaseSample {
            activity: 1.0,
            mem_intensity: 0.1,
        };
        let heavy = PhaseSample {
            activity: 1.0,
            mem_intensity: 0.9,
        };
        assert!(progress_rate(light, fast) > progress_rate(heavy, fast));
    }

    #[test]
    fn sample_extraction() {
        let p = Phase::new(0.7, 0.4, 100.0);
        let s = p.sample();
        assert_eq!(s.activity, 0.7);
        assert_eq!(s.mem_intensity, 0.4);
    }
}
