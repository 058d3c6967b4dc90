//! Monotone interpolated lookup tables.
//!
//! The accelerator model is driven by digitized curves (voltage →
//! throughput, voltage → power). [`LookupTable`] stores the sample points
//! and evaluates by linear interpolation, clamping outside the sampled
//! domain (the paper's model does the same: below the minimum operating
//! voltage the engine is off; above the maximum it cannot be driven
//! further).

/// A piecewise-linear function defined by sample points.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupTable {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LookupTable {
    /// Build from `(x, y)` sample points.
    ///
    /// # Panics
    /// Panics if fewer than two points are given or the x values are not
    /// strictly increasing.
    pub fn new(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two LUT points");
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let increasing = xs.iter().zip(xs.iter().skip(1)).all(|(a, b)| a < b);
        assert!(increasing, "LUT x values must be strictly increasing");
        LookupTable { xs, ys }
    }

    /// Evaluate at `x` with linear interpolation, clamping outside the
    /// sampled domain.
    pub fn eval(&self, x: f64) -> f64 {
        let (xs, ys) = (&self.xs, &self.ys);
        let (Some(&x_first), Some(&x_last), Some(&y_first), Some(&y_last)) =
            (xs.first(), xs.last(), ys.first(), ys.last())
        else {
            return f64::NAN;
        };
        if x <= x_first {
            return y_first;
        }
        if x >= x_last {
            return y_last;
        }
        // The bracketing segment: `hi` is the first point above `x`, inside
        // the ends since `x` is. A NaN `x` compares below no point and
        // takes the first segment, so it interpolates to NaN.
        let hi = xs.partition_point(|&xi| xi <= x).max(1);
        let lo = hi - 1;
        let (Some(&x_lo), Some(&x_hi), Some(&y_lo), Some(&y_hi)) =
            (xs.get(lo), xs.get(hi), ys.get(lo), ys.get(hi))
        else {
            return f64::NAN;
        };
        let t = (x - x_lo) / (x_hi - x_lo);
        y_lo + t * (y_hi - y_lo)
    }

    /// Domain of the sampled points.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().expect("non-empty"))
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Tables always have ≥ 2 points; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if the sampled y values are monotone non-decreasing.
    pub fn is_monotone(&self) -> bool {
        self.ys.windows(2).all(|w| w[0] <= w[1])
    }

    /// Map both tables over the same `x`: `self.eval(x) / other.eval(x)`
    /// (used to derive efficiency = throughput/power curves in tests).
    pub fn ratio_at(&self, other: &LookupTable, x: f64) -> f64 {
        self.eval(x) / other.eval(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    fn lut() -> LookupTable {
        LookupTable::new(&[(0.0, 0.0), (1.0, 10.0), (2.0, 40.0)])
    }

    #[test]
    fn interpolates_linearly() {
        let l = lut();
        assert_close!(l.eval(0.5), 5.0, 1e-12);
        assert_close!(l.eval(1.5), 25.0, 1e-12);
        assert_close!(l.eval(1.0), 10.0, 1e-12);
    }

    #[test]
    fn clamps_outside_domain() {
        let l = lut();
        assert_close!(l.eval(-1.0), 0.0, 1e-12);
        assert_close!(l.eval(5.0), 40.0, 1e-12);
        // NaN is inside no clamp and interpolates to NaN.
        assert!(l.eval(f64::NAN).is_nan());
    }

    #[test]
    fn exact_at_sample_points() {
        let points = [(0.23, 0.1), (0.5, 7.0), (0.95, 37.0)];
        let l = LookupTable::new(&points);
        for (x, y) in points {
            assert_close!(l.eval(x), y, 1e-12);
        }
    }

    #[test]
    fn monotonicity_check() {
        assert!(lut().is_monotone());
        let dips = LookupTable::new(&[(0.0, 1.0), (1.0, 0.5)]);
        assert!(!dips.is_monotone());
    }

    #[test]
    fn domain_reported() {
        assert_eq!(lut().domain(), (0.0, 2.0));
        assert_eq!(lut().len(), 3);
    }

    #[test]
    fn ratio() {
        let a = LookupTable::new(&[(0.0, 0.0), (1.0, 10.0)]);
        let b = LookupTable::new(&[(0.0, 1.0), (1.0, 5.0)]);
        assert_close!(a.ratio_at(&b, 1.0), 2.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_panics() {
        let _ = LookupTable::new(&[(1.0, 0.0), (0.5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_panics() {
        let _ = LookupTable::new(&[(1.0, 0.0)]);
    }
}
