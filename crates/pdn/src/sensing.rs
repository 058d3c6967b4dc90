//! Power sensing circuitry.
//!
//! The global controller reads package power through current/voltage sensing
//! built into the global VR (§3.1), as in commercial VR controllers. Real
//! sensing has latency (Table 1: 50–60 ns) and finite resolution; both are
//! modelled here. The sensor is a tick-granular delay line: the controller
//! always acts on slightly stale power, which the PID tuning has to absorb
//! (and which the integration tests exercise).
//!
//! Quantization is memoized on the bit pattern of the sample leaving the
//! delay line: a settled package feeds the same power tick after tick, and
//! the memo hands back the previous result instead of rounding again. The
//! memo is a cache of a pure function of that sample and the fixed
//! resolution, so it is never checkpointed and `load_state` forgets it.

use hcapp_sim_core::accum::CLOSED_FORM_MIN_TICKS;
use hcapp_sim_core::units::Watt;
use std::collections::VecDeque;

/// A transient fault on the sensor output, as injected by a fault plan
/// (`hcapp-faults` decides *when*; this module only models *what* the
/// controller then sees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// Mean-one multiplicative noise: the reading is scaled by `factor`
    /// (drawn per control quantum by the injector).
    Noise {
        /// Multiplier applied to the true reading.
        factor: f64,
    },
    /// The output register froze: the controller keeps seeing the last
    /// pre-fault reading no matter what the package does.
    StuckAt,
    /// The sense line dropped out: the controller reads zero load.
    Dropout,
}

/// A delayed, optionally quantized power sensor.
#[derive(Debug, Clone)]
pub struct PowerSensor {
    /// Delay in whole simulation ticks between a sample entering the sensor
    /// and being visible at the output.
    delay_ticks: usize,
    /// Never longer than `delay_ticks` between samples.
    line: VecDeque<Watt>,
    /// The output register and its quantizer.
    out: OutputStage,
}

/// The sensor's output stage: quantizes the sample leaving the delay line
/// into the output register. `Copy`, so a slice of samples runs through a
/// copy held in locals and is written back once.
#[derive(Debug, Clone, Copy)]
struct OutputStage {
    /// Quantization step in watts (0 disables quantization).
    resolution: f64,
    latest: Watt,
    /// The last quantized sample: `(input bits, quantize(input))`. A cache,
    /// not state: never checkpointed.
    memo: Option<(u64, Watt)>,
}

impl OutputStage {
    /// Latch `p` (the sample leaving the delay line, or the held output
    /// while the line fills) into the output register, quantized.
    #[inline]
    fn emit(&mut self, p: Watt) -> Watt {
        self.latest = match self.memo {
            Some((bits, q)) if bits == p.value().to_bits() => q,
            _ => {
                let q = self.quantize(p);
                self.memo = Some((p.value().to_bits(), q));
                q
            }
        };
        self.latest
    }

    /// [`OutputStage::emit`], folding the output into the running `peak`
    /// (strictly greater wins, so the first of equal maxima is kept and a
    /// NaN output never is).
    #[inline]
    fn emit_peak(&mut self, p: Watt, peak: &mut f64) {
        let q = self.emit(p).value();
        if q > *peak {
            *peak = q;
        }
    }

    fn quantize(&self, p: Watt) -> Watt {
        if self.resolution > 0.0 {
            Watt::new((p.value() / self.resolution).round() * self.resolution)
        } else {
            p
        }
    }
}

impl PowerSensor {
    /// Create a sensor with the given pipeline delay (in simulation ticks)
    /// and resolution (watts per LSB; 0 = ideal).
    pub fn new(delay_ticks: usize, resolution: f64) -> Self {
        assert!(resolution >= 0.0, "negative resolution");
        PowerSensor {
            delay_ticks,
            line: VecDeque::with_capacity(delay_ticks + 1),
            out: OutputStage {
                resolution,
                latest: Watt::ZERO,
                memo: None,
            },
        }
    }

    /// An ideal sensor: zero delay, infinite resolution.
    pub fn ideal() -> Self {
        PowerSensor::new(0, 0.0)
    }

    /// A Table-1-like sensor for a 100 ns tick: 50–60 ns latency rounds to
    /// one tick; 0.1 W resolution (12-bit over a ~400 W full scale).
    pub fn table1_default() -> Self {
        PowerSensor::new(1, 0.1)
    }

    /// Feed the instantaneous package power for this tick; returns the
    /// sensor output visible to the controller this tick.
    pub fn sample(&mut self, p: Watt) -> Watt {
        self.line.push_back(p);
        let leaving = if self.line.len() > self.delay_ticks {
            self.line.pop_front()
        } else {
            None
        };
        // Pipeline still filling: hold the last output (zero at reset).
        let out = leaving.unwrap_or(self.out.latest);
        self.out.emit(out)
    }

    /// Feed one tick's package power per sample, in order, and return the
    /// peak sensor output over those ticks (`-inf` for an empty slice or
    /// all-NaN outputs); [`PowerSensor::read`] then holds the last tick's
    /// output. Bit-identical to [`PowerSensor::sample`] on each sample in
    /// turn, with the peak taken as `if out > peak { peak = out }` in tick
    /// order (DESIGN §6j, obligation 12).
    ///
    /// With `c` the delay line followed by `samples`, the first ticks (up
    /// to `delay_ticks - line.len()`) only fill the line and re-latch the
    /// held output; every later tick outputs the next element of `c`. So
    /// the outputs are a few held values, then the line's front, then a
    /// prefix of `samples` itself, and the line ends holding the rest —
    /// no per-tick queue traffic and no allocation. A long prefix is
    /// emitted once per run of bit-equal samples (DESIGN §6j, obligation
    /// 23).
    pub fn sample_slice(&mut self, samples: &[f64]) -> Watt {
        let filling = self
            .delay_ticks
            .saturating_sub(self.line.len())
            .min(samples.len());
        let flowing = samples.len() - filling;
        let from_line = flowing.min(self.line.len());
        let (direct, stays) = samples
            .split_at_checked(flowing - from_line)
            .unwrap_or((samples, &[]));
        let mut out = self.out;
        let mut peak = f64::NEG_INFINITY;
        for _ in 0..filling {
            let held = out.latest;
            out.emit_peak(held, &mut peak);
        }
        for p in self.line.drain(..from_line) {
            out.emit_peak(p, &mut peak);
        }
        if direct.len() >= CLOSED_FORM_MIN_TICKS {
            // Once per run of bit-equal samples: a repeat is a memo hit
            // that latches the same output, which cannot raise the peak.
            let mut rest = direct;
            while let Some((&p, tail)) = rest.split_first() {
                out.emit_peak(Watt::new(p), &mut peak);
                let repeats = tail.iter().take_while(|q| q.to_bits() == p.to_bits());
                rest = tail.get(repeats.count()..).unwrap_or_default();
            }
        } else {
            for &p in direct {
                out.emit_peak(Watt::new(p), &mut peak);
            }
        }
        self.line.extend(stays.iter().map(|&p| Watt::new(p)));
        self.out = out;
        Watt::new(peak)
    }

    /// The most recent sensor output without feeding a new sample.
    pub fn read(&self) -> Watt {
        self.out.latest
    }

    /// Sensor pipeline delay in ticks.
    pub fn delay_ticks(&self) -> usize {
        self.delay_ticks
    }

    /// Clear the pipeline.
    pub fn reset(&mut self) {
        self.line.clear();
        self.out.latest = Watt::ZERO;
    }

    /// What the controller sees when `fault` corrupts a true reading of
    /// `reading`, given `held` — the last reading delivered before the
    /// fault began (what a stuck output register still holds).
    ///
    /// This is a pure transform so the coordinator can corrupt the value a
    /// controller consumes without disturbing the sensor's internal delay
    /// line (the physical pipeline keeps tracking the true power and is
    /// intact again the tick the fault clears).
    pub fn faulted_reading(reading: Watt, fault: SensorFault, held: Watt) -> Watt {
        match fault {
            SensorFault::Noise { factor } => Watt::new(reading.value() * factor),
            SensorFault::StuckAt => held,
            SensorFault::Dropout => Watt::ZERO,
        }
    }
}

impl hcapp_sim_core::state::Snapshot for PowerSensor {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        let line: Vec<f64> = self.line.iter().map(|p| p.0).collect();
        w.f64_slice("sensor.line", &line);
        w.f64("sensor.latest", self.out.latest.0);
    }

    /// `None` on a line longer than the sensor's delay: installing it
    /// would silently lengthen the restored run's sensor delay.
    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        let line = r.f64_vec("sensor.line")?;
        if line.len() > self.delay_ticks {
            return None;
        }
        self.line = line.into_iter().map(Watt).collect();
        self.out.latest = Watt(r.f64("sensor.latest")?);
        self.out.memo = None;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn ideal_passthrough() {
        let mut s = PowerSensor::ideal();
        assert_close!(s.sample(Watt::new(55.5)).value(), 55.5, 1e-12);
        assert_close!(s.read().value(), 55.5, 1e-12);
    }

    #[test]
    fn delay_line_shifts_samples() {
        let mut s = PowerSensor::new(2, 0.0);
        assert_close!(s.sample(Watt::new(10.0)).value(), 0.0, 1e-12);
        assert_close!(s.sample(Watt::new(20.0)).value(), 0.0, 1e-12);
        assert_close!(s.sample(Watt::new(30.0)).value(), 10.0, 1e-12);
        assert_close!(s.sample(Watt::new(40.0)).value(), 20.0, 1e-12);
    }

    #[test]
    fn quantization_rounds_to_lsb() {
        let mut s = PowerSensor::new(0, 0.5);
        assert_close!(s.sample(Watt::new(10.26)).value(), 10.5, 1e-12);
        assert_close!(s.sample(Watt::new(10.24)).value(), 10.0, 1e-12);
    }

    #[test]
    fn quantization_error_bounded() {
        let mut s = PowerSensor::new(0, 0.1);
        for i in 0..1000 {
            let p = i as f64 * 0.0317;
            let out = s.sample(Watt::new(p)).value();
            assert!((out - p).abs() <= 0.05 + 1e-12, "error too large at {p}");
        }
    }

    #[test]
    fn reset_clears_pipeline() {
        let mut s = PowerSensor::new(1, 0.0);
        s.sample(Watt::new(50.0));
        s.reset();
        assert_close!(s.read().value(), 0.0, 1e-12);
        assert_close!(s.sample(Watt::new(70.0)).value(), 0.0, 1e-12);
        assert_close!(s.sample(Watt::new(80.0)).value(), 70.0, 1e-12);
    }

    #[test]
    fn memoized_quantize_matches_unmemoized() {
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        // Runs of repeats, sign changes, -0, NaN and infinities.
        let mut stream = Vec::new();
        for i in 0..400u32 {
            let p = match i % 23 {
                0..=7 => 80.0,
                8 | 9 => 80.04,
                10 => 79.95,
                11 | 12 => f64::NAN,
                13 => -0.0,
                14 => 0.0,
                15 => f64::INFINITY,
                16 => -12.25,
                _ => 60.0 + f64::from(i) * 0.037,
            };
            stream.push(p);
        }
        for (delay, resolution) in [(0, 0.1), (1, 0.1), (3, 0.5), (1, 0.0)] {
            let mut memoized = PowerSensor::new(delay, resolution);
            // The oracle: the same sensor with its memo dropped before
            // every sample, so every sample is quantized afresh.
            let mut fresh = PowerSensor::new(delay, resolution);
            for (i, &p) in stream.iter().enumerate() {
                if i == stream.len() / 2 {
                    // Restore mid-stream into a sensor whose memo holds
                    // an unrelated entry: the memo is forgotten, and the
                    // restored sensor continues bit-exactly.
                    let mut w = StateWriter::new();
                    memoized.save_state(&mut w);
                    let mut restored = PowerSensor::new(delay, resolution);
                    restored.sample(Watt::new(123.4));
                    restored
                        .load_state(&mut StateReader::new(&w.finish()))
                        .expect("restore");
                    assert!(restored.out.memo.is_none(), "load_state kept the memo");
                    memoized = restored;
                }
                fresh.out.memo = None;
                let want = fresh.sample(Watt::new(p));
                let got = memoized.sample(Watt::new(p));
                assert_eq!(
                    got.value().to_bits(),
                    want.value().to_bits(),
                    "sample {i} ({p}) delay {delay} resolution {resolution}"
                );
            }
        }
    }

    fn saved(s: &PowerSensor) -> String {
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        w.finish()
    }

    #[test]
    fn sample_slice_matches_per_tick_sample() {
        use hcapp_sim_core::state::{Snapshot, StateReader};
        // Repeats, a NaN, ±0 and ramps, cut into slices of 0 to 7 ticks
        // (shorter and longer than every delay), with a reset and a
        // restore into a fresh sensor while the line is part full; then,
        // once those 300 samples are used up, runs of 97 and 194 equal
        // samples (NaN and zero among them) cut into slices of 200 to 349
        // ticks, so whole runs and runs split across slices reach the
        // run-wise emit.
        let stream: Vec<f64> = (0..300u32)
            .map(|i| match i % 17 {
                0..=5 => 80.0,
                6 => f64::NAN,
                7 => -0.0,
                8 => 0.0,
                9 => 79.96,
                _ => 55.0 + f64::from(i) * 0.031,
            })
            .chain(
                (0..3_000u32)
                    .map(|i| [80.0, 80.0, 91.3, f64::NAN, 0.0, 79.96][(i / 97) as usize % 6]),
            )
            .collect();
        for (delay, resolution) in [(0, 0.1), (1, 0.1), (3, 0.5), (3, 0.0)] {
            let mut sliced = PowerSensor::new(delay, resolution);
            let mut ticked = PowerSensor::new(delay, resolution);
            let mut at = 0;
            for k in 0.. {
                let len = if at < 300 { k % 8 } else { 200 + k % 150 };
                let Some(chunk) = stream.get(at..at + len) else { break };
                if k == 20 {
                    sliced.reset();
                    ticked.reset();
                }
                if k == 31 {
                    let text = saved(&sliced);
                    let mut restored = PowerSensor::new(delay, resolution);
                    restored
                        .load_state(&mut StateReader::new(&text))
                        .expect("restore");
                    sliced = restored;
                }
                let mut want = f64::NEG_INFINITY;
                for &p in chunk {
                    let out = ticked.sample(Watt::new(p)).value();
                    if out > want {
                        want = out;
                    }
                }
                let got = sliced.sample_slice(chunk).value();
                let ctx = format!("slice {k} at {at} delay {delay} resolution {resolution}");
                assert_eq!(got.to_bits(), want.to_bits(), "peak, {ctx}");
                assert_eq!(sliced.read().value().to_bits(), ticked.read().value().to_bits(), "read, {ctx}");
                assert_eq!(saved(&sliced), saved(&ticked), "state, {ctx}");
                at += len;
            }
        }
    }

    #[test]
    fn restore_rejects_a_line_longer_than_the_delay() {
        use hcapp_sim_core::state::{Snapshot, StateReader};
        let mut long = PowerSensor::new(3, 0.1);
        for p in [10.0, 20.0, 30.0] {
            long.sample(Watt::new(p));
        }
        let text = saved(&long);
        let mut shorter = PowerSensor::new(1, 0.1);
        assert!(shorter.load_state(&mut StateReader::new(&text)).is_none());
        let mut same = PowerSensor::new(3, 0.1);
        assert!(same.load_state(&mut StateReader::new(&text)).is_some());
        assert_eq!(saved(&same), text);
    }

    #[test]
    fn table1_default_has_one_tick_delay() {
        let s = PowerSensor::table1_default();
        assert_eq!(s.delay_ticks(), 1);
    }

    #[test]
    fn faulted_reading_transforms() {
        let truth = Watt::new(80.0);
        let held = Watt::new(64.0);
        let noisy = PowerSensor::faulted_reading(truth, SensorFault::Noise { factor: 1.25 }, held);
        assert_close!(noisy.value(), 100.0, 1e-12);
        let stuck = PowerSensor::faulted_reading(truth, SensorFault::StuckAt, held);
        assert_close!(stuck.value(), 64.0, 1e-12);
        let dead = PowerSensor::faulted_reading(truth, SensorFault::Dropout, held);
        assert_close!(dead.value(), 0.0, 1e-12);
    }

    #[test]
    fn faulted_reading_leaves_sensor_state_alone() {
        let mut s = PowerSensor::new(1, 0.0);
        s.sample(Watt::new(10.0));
        let before = s.read();
        let _ = PowerSensor::faulted_reading(Watt::new(99.0), SensorFault::Dropout, before);
        assert_close!(s.read().value(), before.value(), 1e-12);
    }
}
