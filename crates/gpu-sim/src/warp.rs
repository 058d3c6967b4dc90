//! Warp-level parallelism → issue utilization.
//!
//! GPGPU-Sim models warp scheduling cycle by cycle; what survives to the
//! power/IPC level is how well the resident warps hide latency. We use the
//! standard saturating model: with `w` resident warps and a latency-hiding
//! constant `h` (warps needed for ~50% utilization),
//!
//! ```text
//! utilization(w) = w / (w + h)
//! ```
//!
//! The workload's activity factor sets the resident warp count
//! (`w = activity · max_warps`), so low-parallelism kernels like myocyte
//! produce low utilization — exactly the signal the GPU-CAPP dynamic-IPC
//! local controller keys on.

/// The saturating warp-occupancy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpModel {
    /// Maximum resident warps per SM.
    max_warps: f64,
    /// Warps needed to reach 50% issue utilization.
    half_occupancy: f64,
    /// `utilization(max_warps)`, the normalizer of
    /// [`WarpModel::utilization_from_activity`] (constant per model).
    peak: f64,
}

impl WarpModel {
    /// Create a model.
    ///
    /// # Panics
    /// Panics on non-positive parameters.
    pub fn new(max_warps: u32, half_occupancy: f64) -> Self {
        assert!(max_warps > 0, "need at least one warp slot");
        assert!(half_occupancy > 0.0, "non-positive half-occupancy");
        let max_warps = max_warps as f64;
        let mut model = WarpModel {
            max_warps,
            half_occupancy,
            peak: 0.0,
        };
        model.peak = model.utilization(max_warps);
        model
    }

    /// Issue utilization for `warps` resident warps.
    #[inline]
    pub fn utilization(&self, warps: f64) -> f64 {
        let w = warps.clamp(0.0, self.max_warps);
        w / (w + self.half_occupancy)
    }

    /// Issue utilization when the workload fills `activity ∈ [0,1]` of the
    /// warp slots, normalized so that `activity = 1` maps to the model's
    /// peak utilization = 1.0 (the calibration point for SM power).
    #[inline]
    pub fn utilization_from_activity(&self, activity: f64) -> f64 {
        if self.peak <= 0.0 {
            return 0.0;
        }
        self.utilization(activity.clamp(0.0, 1.0) * self.max_warps) / self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn half_occupancy_is_half() {
        let m = WarpModel::new(48, 8.0);
        assert_close!(m.utilization(8.0), 0.5, 1e-12);
    }

    #[test]
    fn utilization_saturates() {
        let m = WarpModel::new(48, 8.0);
        let u40 = m.utilization(40.0);
        let u48 = m.utilization(48.0);
        assert!(u48 > u40);
        // Diminishing returns: the last 8 warps add less than the first 8.
        assert!(u48 - u40 < m.utilization(8.0) - m.utilization(0.0));
        // Clamped above max_warps.
        assert_close!(m.utilization(100.0), u48, 1e-12);
    }

    #[test]
    fn normalized_activity_mapping() {
        let m = WarpModel::new(48, 8.0);
        assert_close!(m.utilization_from_activity(1.0), 1.0, 1e-12);
        assert_close!(m.utilization_from_activity(0.0), 0.0, 1e-12);
        // Concave: half the warps give more than half the (normalized)
        // utilization.
        assert!(m.utilization_from_activity(0.5) > 0.5);
    }

    #[test]
    fn hoisted_peak_matches_recomputation() {
        let m = WarpModel::new(48, 8.0);
        for i in 0..=100 {
            let a = i as f64 / 100.0;
            let recomputed = m.utilization(a * 48.0) / m.utilization(48.0);
            assert_eq!(
                m.utilization_from_activity(a).to_bits(),
                recomputed.to_bits()
            );
        }
    }

    #[test]
    fn monotone_in_activity() {
        let m = WarpModel::new(48, 8.0);
        let mut prev = -1.0;
        for i in 0..=20 {
            let u = m.utilization_from_activity(i as f64 / 20.0);
            assert!(u >= prev);
            prev = u;
        }
    }

    #[test]
    #[should_panic(expected = "warp slot")]
    fn zero_warps_panics() {
        let _ = WarpModel::new(0, 8.0);
    }
}
