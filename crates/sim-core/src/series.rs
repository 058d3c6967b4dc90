//! Fixed-step time series.
//!
//! Figures 1 and 2 of the paper plot the package power trace of a run —
//! raw (normalized to its mean) and re-filtered through 20 µs / 1 ms / 10 ms
//! windows. [`TimeSeries`] stores a signal sampled on a fixed tick and
//! provides exactly those transforms, plus decimation so a 2-million-sample
//! trace can be exported as a plottable CSV of a few thousand rows.

use crate::time::SimDuration;
use crate::window::SlidingWindowAvg;

/// A signal sampled at a fixed interval starting at t = 0.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    dt: SimDuration,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Create an empty series with sample interval `dt`.
    ///
    /// # Panics
    /// Panics if `dt` is zero.
    pub fn new(dt: SimDuration) -> Self {
        assert!(!dt.is_zero(), "sample interval must be positive");
        TimeSeries {
            dt,
            values: Vec::new(),
        }
    }

    /// Create an empty series with room for `capacity` samples.
    pub fn with_capacity(dt: SimDuration, capacity: usize) -> Self {
        assert!(!dt.is_zero(), "sample interval must be positive");
        TimeSeries {
            dt,
            values: Vec::with_capacity(capacity),
        }
    }

    /// Create a series from existing samples.
    pub fn from_values(dt: SimDuration, values: Vec<f64>) -> Self {
        assert!(!dt.is_zero(), "sample interval must be positive");
        TimeSeries { dt, values }
    }

    /// Sample interval.
    #[inline]
    pub fn dt(&self) -> SimDuration {
        self.dt
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Total covered duration (`len * dt`).
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.dt * self.values.len() as u64
    }

    /// Append one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Timestamp of sample `i`, in microseconds (the unit of Figure 1's axis).
    #[inline]
    pub fn time_us(&self, i: usize) -> f64 {
        (self.dt.as_nanos() as f64 * i as f64) * 1e-3
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.min(v),
            })
        })
    }

    /// The series divided by its own mean — Figure 1's "power normalized to
    /// the average power". Returns an all-zero copy if the mean is zero.
    // simlint: allow(L8): zero-mean sentinel guards the division; an
    // all-zero series has a mean of exactly 0.0
    pub fn normalized_to_mean(&self) -> TimeSeries {
        let m = self.mean();
        let values = if m == 0.0 {
            vec![0.0; self.values.len()]
        } else {
            self.values.iter().map(|v| v / m).collect()
        };
        TimeSeries {
            dt: self.dt,
            values,
        }
    }

    /// The series passed through a trailing moving-average of width `window`
    /// — Figure 2's "power limit time window" view. The output keeps the
    /// input's sample interval; the first `window/dt − 1` outputs average the
    /// partial prefix, matching how a measurement circuit warms up.
    ///
    /// # Panics
    /// Panics if `window` is smaller than the sample interval.
    pub fn windowed(&self, window: SimDuration) -> TimeSeries {
        let n = (window.as_nanos() / self.dt.as_nanos()).max(1) as usize;
        assert!(
            window.as_nanos() >= self.dt.as_nanos(),
            "window {window} smaller than sample interval {}",
            self.dt
        );
        let mut w = SlidingWindowAvg::with_run_len(n, self.values.len());
        let values = self
            .values
            .iter()
            .map(|&v| {
                w.push(v);
                w.average()
            })
            .collect();
        TimeSeries {
            dt: self.dt,
            values,
        }
    }

    /// Keep every `factor`-th sample (for plotting/CSV export).
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    pub fn decimate(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "decimation factor must be positive");
        TimeSeries {
            dt: self.dt * factor as u64,
            values: self.values.iter().step_by(factor).copied().collect(),
        }
    }

    /// Decimate to at most `max_points` samples (no-op if already short).
    pub fn thin_to(&self, max_points: usize) -> TimeSeries {
        assert!(max_points > 0, "max_points must be positive");
        if self.values.len() <= max_points {
            self.clone()
        } else {
            self.decimate(self.values.len().div_ceil(max_points))
        }
    }

    /// Iterator over `(time_us, value)` pairs.
    pub fn iter_us(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let dt_us = self.dt.as_nanos() as f64 * 1e-3;
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as f64 * dt_us, v))
    }
}

impl crate::state::Snapshot for TimeSeries {
    fn save_state(&self, w: &mut crate::state::StateWriter) {
        w.u64("ts.dt_ns", self.dt.as_nanos());
        w.f64_slice("ts.values", &self.values);
    }

    fn load_state(&mut self, r: &mut crate::state::StateReader<'_>) -> Option<()> {
        // The interval is configuration; require it to match rather than
        // silently rescaling the time axis of a restored trace.
        if r.u64("ts.dt_ns")? != self.dt.as_nanos() {
            return None;
        }
        self.values = r.f64_vec("ts.values")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_panics() {
        let _ = TimeSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn push_and_stats() {
        let mut s = TimeSeries::new(us(1));
        for v in [1.0, 2.0, 3.0, 6.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 4);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.max(), Some(6.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.duration(), us(4));
        assert!((s.time_us(3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let s = TimeSeries::from_values(us(1), vec![50.0, 100.0, 150.0]);
        let n = s.normalized_to_mean();
        assert!((n.values()[0] - 0.5).abs() < 1e-12);
        assert!((n.values()[1] - 1.0).abs() < 1e-12);
        assert!((n.values()[2] - 1.5).abs() < 1e-12);
        // Mean of normalized series is 1.
        assert!((n.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_series() {
        let s = TimeSeries::from_values(us(1), vec![0.0, 0.0]);
        let n = s.normalized_to_mean();
        assert_eq!(n.values(), &[0.0, 0.0]);
    }

    #[test]
    fn windowed_smooths_peaks() {
        // A single-sample spike of 100 in a sea of zeros: a 4-sample window
        // reduces the peak to 25.
        let mut vals = vec![0.0; 32];
        vals[16] = 100.0;
        let s = TimeSeries::from_values(us(1), vals);
        let w = s.windowed(us(4));
        assert_eq!(w.len(), s.len());
        assert!((w.max().unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_identity_when_window_equals_dt() {
        let s = TimeSeries::from_values(us(1), vec![3.0, 1.0, 4.0]);
        let w = s.windowed(us(1));
        assert_eq!(w.values(), s.values());
    }

    #[test]
    fn decimate_and_thin() {
        let s = TimeSeries::from_values(us(1), (0..100).map(|i| i as f64).collect());
        let d = s.decimate(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.dt(), us(10));
        assert_eq!(d.values()[1], 10.0);

        let t = s.thin_to(7);
        assert!(t.len() <= 7);
        let same = s.thin_to(500);
        assert_eq!(same.len(), 100);
    }

    #[test]
    fn iter_us_pairs() {
        let s = TimeSeries::from_values(us(2), vec![5.0, 7.0]);
        let pairs: Vec<_> = s.iter_us().collect();
        assert_eq!(pairs.len(), 2);
        assert!((pairs[1].0 - 2.0).abs() < 1e-12);
        assert!((pairs[1].1 - 7.0).abs() < 1e-12);
    }
}
