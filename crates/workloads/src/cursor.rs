//! Deterministic phase streams.
//!
//! A [`PhaseCursor`] turns a [`BenchmarkSpec`] into an endless, reproducible
//! stream of phases (the paper loops short workloads so every component runs
//! for the whole test, §4). The component simulator pushes *completed work*
//! into the cursor each tick; the cursor crosses phase boundaries exactly,
//! carrying remainders, so phase timing is independent of tick size.

use hcapp_sim_core::accum::{jump_countdown, CLOSED_FORM_MIN_TICKS};
use hcapp_sim_core::rng::DeterministicRng;

use crate::phase::{Phase, PhaseSample};
use crate::spec::{BenchmarkSpec, PatternState};

/// An endless, deterministic stream of phases for one chiplet's workload.
///
/// ```
/// use hcapp_workloads::benchmarks::Benchmark;
/// use hcapp_workloads::cursor::PhaseCursor;
///
/// let mut cursor = PhaseCursor::new(Benchmark::Ferret.spec(), 42, 0);
/// // Consume 5 ms of nominal work; ferret's bursty pattern shows both its
/// // quiet baseline and its hot bursts along the way.
/// let mut activities = Vec::new();
/// for _ in 0..50 {
///     cursor.advance(100_000.0); // 100 µs of nominal progress
///     activities.push(cursor.sample().activity);
/// }
/// assert!(activities.iter().any(|&a| a < 0.4));
/// assert!(activities.iter().any(|&a| a > 0.8));
/// assert_eq!(cursor.work_done(), 5_000_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct PhaseCursor {
    spec: BenchmarkSpec,
    rng: DeterministicRng,
    state: PatternState,
    current: Phase,
    /// Work remaining in the current phase (nominal ns).
    remaining: f64,
    /// Total work consumed since construction (nominal ns) — the
    /// performance metric.
    consumed: f64,
    /// Number of phase transitions so far.
    phases_started: u64,
}

impl PhaseCursor {
    /// Create a cursor for `spec`, deriving randomness from `(seed,
    /// stream_id)` so distinct chiplets get decorrelated but reproducible
    /// streams.
    pub fn new(spec: BenchmarkSpec, seed: u64, stream_id: u64) -> Self {
        let mut rng = DeterministicRng::derive(seed, stream_id);
        let mut state = PatternState::default();
        let mut current = spec.next_phase(&mut rng, &mut state);
        // Start at a random offset inside the first phase so chiplets with
        // the same spec are phase-shifted rather than synchronized.
        let offset = rng.next_f64() * current.work_ns;
        current.work_ns -= offset;
        let remaining = current.work_ns;
        PhaseCursor {
            spec,
            rng,
            state,
            current,
            remaining,
            consumed: 0.0,
            phases_started: 1,
        }
    }

    /// The benchmark this cursor runs.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// The behaviour sample for the current instant.
    #[inline]
    pub fn sample(&self) -> PhaseSample {
        self.current.sample()
    }

    /// Advance by `work_ns` nominal nanoseconds of completed work, crossing
    /// phase boundaries as needed.
    pub fn advance(&mut self, work_ns: f64) {
        debug_assert!(work_ns >= 0.0, "negative work");
        self.consumed += work_ns;
        let mut left = work_ns;
        while left >= self.remaining {
            left -= self.remaining;
            self.current = self.spec.next_phase(&mut self.rng, &mut self.state);
            // Guard against zero-length phases to guarantee progress.
            self.remaining = self.current.work_ns.max(1.0);
            self.phases_started += 1;
        }
        self.remaining -= left;
    }

    /// Advance by `work_ns` once per tick for up to `max_ticks` ticks,
    /// stopping after the first tick that enters a phase whose sample
    /// differs bit-for-bit from the current one; returns how many ticks
    /// it advanced. Bit-identical to that many [`PhaseCursor::advance`]
    /// calls: a tick inside the phase is the same add and subtract, kept
    /// in locals, and a tick that reaches the boundary is `advance`
    /// itself (DESIGN §6j, obligation 13). A long span first jumps the
    /// bulk of the phase's ticks in closed form and proves the jump on
    /// where it lands ([`jump_countdown`], obligation 22).
    pub fn advance_span(&mut self, work_ns: f64, max_ticks: usize) -> usize {
        let bits = self.sample().bits();
        let mut ticks = 0;
        if max_ticks >= CLOSED_FORM_MIN_TICKS {
            ticks = self.jump_phase(work_ns, max_ticks);
        }
        let (mut consumed, mut remaining) = (self.consumed, self.remaining);
        while ticks < max_ticks {
            ticks += 1;
            if work_ns < remaining {
                consumed += work_ns;
                remaining -= work_ns;
                continue;
            }
            (self.consumed, self.remaining) = (consumed, remaining);
            self.advance(work_ns);
            (consumed, remaining) = (self.consumed, self.remaining);
            if self.sample().bits() != bits {
                break;
            }
        }
        (self.consumed, self.remaining) = (consumed, remaining);
        ticks
    }

    /// Jump the bulk of a long span inside the current phase in closed
    /// form ([`jump_countdown`]); returns the ticks jumped. Out of line, so
    /// the per-tick loop that short spans run keeps its shape.
    #[inline(never)]
    fn jump_phase(&mut self, work_ns: f64, max_ticks: usize) -> usize {
        let (ticks, consumed, remaining) =
            jump_countdown(self.consumed, self.remaining, work_ns, max_ticks, |r| {
                work_ns < r
            });
        (self.consumed, self.remaining) = (consumed, remaining);
        ticks
    }

    /// Total work consumed (nominal ns) — proportional to instructions
    /// retired, the numerator of every speedup in the paper.
    #[inline]
    pub fn work_done(&self) -> f64 {
        self.consumed
    }

    /// Number of phases entered so far.
    #[inline]
    pub fn phases_started(&self) -> u64 {
        self.phases_started
    }

    /// Work remaining in the current phase (nominal ns) — used by the trace
    /// recorder to walk phase boundaries exactly.
    #[inline]
    pub fn remaining_in_phase(&self) -> f64 {
        self.remaining
    }
}

impl hcapp_sim_core::state::Snapshot for PhaseCursor {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.rng.save_state(w);
        w.token(
            "cursor.pattern_state",
            match self.state {
                PatternState::Low => "low",
                PatternState::High => "high",
            },
        );
        w.f64("cursor.activity", self.current.activity);
        w.f64("cursor.mem", self.current.mem_intensity);
        w.f64("cursor.work_ns", self.current.work_ns);
        w.f64("cursor.remaining", self.remaining);
        w.f64("cursor.consumed", self.consumed);
        w.u64("cursor.phases_started", self.phases_started);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.rng.load_state(r)?;
        self.state = match r.token("cursor.pattern_state")? {
            "low" => PatternState::Low,
            "high" => PatternState::High,
            _ => return None,
        };
        self.current.activity = r.f64("cursor.activity")?;
        self.current.mem_intensity = r.f64("cursor.mem")?;
        self.current.work_ns = r.f64("cursor.work_ns")?;
        self.remaining = r.f64("cursor.remaining")?;
        self.consumed = r.f64("cursor.consumed")?;
        self.phases_started = r.u64("cursor.phases_started")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DurRange, PhasePattern};
    use hcapp_sim_core::assert_close;

    fn steady_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "steady",
            pattern: PhasePattern::Steady {
                activity: 0.5,
                jitter: 0.0,
                dur: DurRange::micros(100.0, 100.0),
            },
            mem_intensity: 0.2,
            mem_jitter: 0.0,
        }
    }

    fn osc_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "osc",
            pattern: PhasePattern::Oscillating {
                lo: 0.2,
                hi: 0.8,
                lo_dur: DurRange::micros(10.0, 10.0),
                hi_dur: DurRange::micros(10.0, 10.0),
            },
            mem_intensity: 0.0,
            mem_jitter: 0.0,
        }
    }

    #[test]
    fn deterministic_replay() {
        let mut a = PhaseCursor::new(osc_spec(), 42, 3);
        let mut b = PhaseCursor::new(osc_spec(), 42, 3);
        for _ in 0..10_000 {
            a.advance(777.0);
            b.advance(777.0);
            assert_eq!(a.sample(), b.sample());
        }
        assert_eq!(a.work_done(), b.work_done());
    }

    #[test]
    fn streams_decorrelate() {
        let mut a = PhaseCursor::new(osc_spec(), 42, 0);
        let mut b = PhaseCursor::new(osc_spec(), 42, 1);
        let mut agree = 0;
        let n = 1000;
        for _ in 0..n {
            a.advance(1_000.0);
            b.advance(1_000.0);
            if a.sample() == b.sample() {
                agree += 1;
            }
        }
        // Random phase offsets: should agree roughly half the time, never
        // always.
        assert!(agree < n, "streams fully synchronized");
        assert!(agree > 0, "two-level oscillators should sometimes coincide");
    }

    #[test]
    fn work_accumulates_exactly() {
        let mut c = PhaseCursor::new(steady_spec(), 1, 0);
        for _ in 0..1000 {
            c.advance(123.456);
        }
        assert_close!(c.work_done(), 123.456 * 1000.0, 1e-6);
    }

    #[test]
    fn phase_boundaries_crossed_correctly() {
        // 10 µs half-periods: advancing 100 µs crosses ~10 phases.
        let mut c = PhaseCursor::new(osc_spec(), 5, 0);
        let start = c.phases_started();
        c.advance(100_000.0);
        let crossed = c.phases_started() - start;
        assert!(
            (9..=11).contains(&crossed),
            "crossed {crossed} phases, expected ~10"
        );
    }

    #[test]
    fn big_advance_crosses_many_phases_without_hanging() {
        let mut c = PhaseCursor::new(osc_spec(), 9, 0);
        c.advance(50_000_000.0); // 50 ms over 10 µs phases = 5000 crossings
        assert!(c.phases_started() > 4000);
    }

    fn saved(c: &PhaseCursor) -> String {
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        w.finish()
    }

    /// The per-tick loop `advance_span` replaces: check the sample before
    /// each tick, stop once it differs from the span's first.
    fn advance_per_tick(c: &mut PhaseCursor, work_ns: f64, max_ticks: usize) -> usize {
        let bits = c.sample().bits();
        let mut ticks = 0;
        while ticks < max_ticks && c.sample().bits() == bits {
            c.advance(work_ns);
            ticks += 1;
        }
        ticks
    }

    #[test]
    fn advance_span_matches_per_tick_advance() {
        // Steady phases crossed into phases with the same sample, short
        // oscillating phases, and a jittered benchmark; steps from a
        // fraction of a phase to many phases per tick, and every fifth
        // span a step that lands exactly on the phase boundary; spans of
        // 0 to 40 ticks, then again with every third span up to 5 000
        // ticks, so small steps through long phases take the closed-form
        // jump.
        for long_spans in [false, true] {
            let specs = [steady_spec(), osc_spec(), crate::benchmarks::Benchmark::Ferret.spec()];
            for (s, spec) in specs.into_iter().enumerate() {
                let mut spanned = PhaseCursor::new(spec, 7, s as u64);
                let mut ticked = spanned.clone();
                let mut rng = DeterministicRng::new(40 + s as u64);
                for k in 0..3_000 {
                    let work_ns = if k % 5 == 0 {
                        spanned.remaining_in_phase()
                    } else {
                        [37.5, 110.0, 2_500.0, 25_000.0][k % 4] * rng.uniform(0.5, 1.5)
                    };
                    let longest = if long_spans && k % 3 == 2 { 5_000 } else { 41 };
                    let max_ticks = rng.below(longest) as usize;
                    let got = spanned.advance_span(work_ns, max_ticks);
                    let want = advance_per_tick(&mut ticked, work_ns, max_ticks);
                    assert_eq!(got, want, "span {k} of spec {s}");
                    assert_eq!(saved(&spanned), saved(&ticked), "state after span {k} of spec {s}");
                }
            }
        }
    }

    #[test]
    fn oscillation_visible_in_samples() {
        let mut c = PhaseCursor::new(osc_spec(), 11, 2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..100 {
            c.advance(5_000.0);
            let a = c.sample().activity;
            if (a - 0.2).abs() < 1e-9 {
                seen_lo = true;
            }
            if (a - 0.8).abs() < 1e-9 {
                seen_hi = true;
            }
        }
        assert!(seen_lo && seen_hi);
    }
}
