//! Property-based tests for the simulation kernel.
//!
//! Compiled only with `--features proptest` so the default `cargo test -q`
//! stays lean; the suite runs against the local proptest shim
//! (`crates/proptest-shim`), so no registry access is needed either way.
#![cfg(feature = "proptest")]

use hcapp_sim_core::accum::repeat_add;
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::series::TimeSeries;
use hcapp_sim_core::stats::{geometric_mean, OnlineStats};
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::window::{SlidingWindowAvg, WindowedMaxTracker};
use proptest::prelude::*;

proptest! {
    /// Window average always lies between the min and max of its contents.
    #[test]
    fn window_average_bounded(samples in prop::collection::vec(0.0f64..1000.0, 1..200),
                              cap in 1usize..50) {
        let mut w = SlidingWindowAvg::new(cap);
        for &s in &samples {
            w.push(s);
        }
        let held = &samples[samples.len().saturating_sub(cap)..];
        let lo = held.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = held.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg = w.average();
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9,
            "avg {avg} outside [{lo}, {hi}]");
    }

    /// The windowed max never exceeds the global max sample and never falls
    /// below the global min (once a full window exists).
    #[test]
    fn windowed_max_bounded(samples in prop::collection::vec(0.0f64..500.0, 10..300),
                            cap in 1usize..10) {
        let mut t = WindowedMaxTracker::new(cap);
        for &s in &samples {
            t.push(s);
        }
        let max = t.max().unwrap();
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(max <= hi + 1e-9);
        prop_assert!(max >= lo - 1e-9);
    }

    /// Larger windows can only reduce (or keep) the observed max — this is
    /// the core premise of Figure 2: slow limits hide fast peaks.
    #[test]
    fn larger_window_never_larger_max(samples in prop::collection::vec(0.0f64..500.0, 50..300)) {
        let mut small = WindowedMaxTracker::new(4);
        let mut large = WindowedMaxTracker::new(16);
        for &s in &samples {
            small.push(s);
            large.push(s);
        }
        if let (Some(ms), Some(ml)) = (small.max(), large.max()) {
            prop_assert!(ml <= ms + 1e-9, "large-window max {ml} > small-window max {ms}");
        }
    }

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn stats_merge_equivalence(xs in prop::collection::vec(-1e3f64..1e3, 2..200),
                               split in 1usize..100) {
        let split = split.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..split].iter().for_each(|&x| a.push(x));
        xs[split..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-3);
    }

    /// Geometric mean is scale-covariant: gm(k*x) = k*gm(x).
    #[test]
    fn geomean_scale(xs in prop::collection::vec(0.01f64..100.0, 1..20), k in 0.1f64..10.0) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let lhs = geometric_mean(&scaled);
        let rhs = k * geometric_mean(&xs);
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0));
    }

    /// RNG streams derived from distinct ids do not collide on their first
    /// 16 outputs.
    #[test]
    fn rng_streams_distinct(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let mut ra = DeterministicRng::derive(seed, a);
        let mut rb = DeterministicRng::derive(seed, b);
        let matches = (0..16).filter(|_| ra.next_u64() == rb.next_u64()).count();
        prop_assert!(matches <= 1);
    }

    /// `repeat_add` is the loop of adds, bit for bit: whole, half and
    /// quarter ulps of the start both ways, steps a power of ten below
    /// the start, and raw bit patterns (NaN, infinities, subnormals).
    #[test]
    fn repeat_add_is_the_loop(x in -1000.0f64..1000.0, k in 0u64..24, scale in 0u64..30,
                              raw in any::<u64>(), pick in 0u64..4, n in 0usize..20_000) {
        let ulp = f64::from_bits(x.abs().to_bits() + 1) - x.abs();
        let (x, step) = match pick {
            0 => (x, ulp * k as f64 * 0.5),
            1 => (x, -x * 10f64.powi(-(scale as i32))),
            2 => (f64::from_bits(raw.rotate_left(17)), f64::from_bits(raw)),
            _ => (x, -ulp * k as f64 * 0.25),
        };
        let mut want = x;
        for _ in 0..n {
            want += step;
        }
        prop_assert_eq!(repeat_add(x, step, n).to_bits(), want.to_bits());
    }

    /// Time arithmetic: (t + d) - t == d for all representable values.
    #[test]
    fn time_roundtrip(t in 0u64..1_000_000_000_000, d in 0u64..1_000_000_000) {
        let t0 = SimTime::from_nanos(t);
        let d0 = SimDuration::from_nanos(d);
        prop_assert_eq!((t0 + d0) - t0, d0);
    }

    /// A windowed series has the same length and its max never exceeds the
    /// raw max.
    #[test]
    fn series_window_invariants(vals in prop::collection::vec(0.0f64..200.0, 4..200),
                                win in 1u64..32) {
        let s = TimeSeries::from_values(SimDuration::from_micros(1), vals);
        let w = s.windowed(SimDuration::from_micros(win));
        prop_assert_eq!(w.len(), s.len());
        if let (Some(wm), Some(sm)) = (w.max(), s.max()) {
            prop_assert!(wm <= sm + 1e-9);
        }
        // Means agree to within the startup transient contribution.
        prop_assert!((w.mean() - s.mean()).abs() <= s.max().unwrap_or(0.0));
    }
}
