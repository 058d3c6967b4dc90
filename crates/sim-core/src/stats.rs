//! Streaming statistics.
//!
//! The evaluation metrics need long-run averages (PPE is the run-average
//! power divided by the provisioned power, Eq. 4) and geometric means (the
//! total speedup is the geometric mean of the per-component speedups,
//! Eq. 3). [`OnlineStats`] implements Welford's numerically stable one-pass
//! algorithm so a 200 ms run at a 100 ns tick (2 million samples per signal)
//! can be summarized without storing the samples.

/// One-pass mean / variance / min / max accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0.0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than 2 samples).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` when empty.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction).
    ///
    /// Uses Chan et al.'s parallel update, so accumulators kept apart (one
    /// per worker or per run) combine into the statistics of the union.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Geometric mean of a slice of positive values.
///
/// Used for Eq. 3 (`S_total = cbrt(S_CPU · S_GPU · S_Accel)`) and for
/// averaging speedups across the test suite, as is conventional for speedup
/// ratios. Returns 0.0 for an empty slice; panics in debug builds on
/// non-positive inputs.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            debug_assert!(v > 0.0, "geometric mean of non-positive value {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice (0.0 when empty).
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn known_sequence() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_matches_sequential() {
        let mut rng = crate::rng::DeterministicRng::new(21);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.uniform(-5.0, 20.0)).collect();

        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));

        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..3_333].iter().for_each(|&x| a.push(x));
        xs[3_333..].iter().for_each(|&x| b.push(x));
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let b = OnlineStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);

        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 2);
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 8.0]) - 8.0f64.sqrt()).abs() < 1e-12);
        // Eq. 3 example: cbrt(1.1 * 1.2 * 1.3)
        let s = geometric_mean(&[1.1, 1.2, 1.3]);
        assert!((s - (1.1f64 * 1.2 * 1.3).cbrt()).abs() < 1e-12);
    }

    #[test]
    fn geomean_le_arithmetic() {
        let vals = [0.5, 1.0, 2.0, 4.0, 7.5];
        assert!(geometric_mean(&vals) <= arithmetic_mean(&vals) + 1e-12);
    }

    #[test]
    fn arithmetic_mean_basics() {
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert!((arithmetic_mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
