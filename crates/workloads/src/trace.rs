//! Recorded workload traces.
//!
//! The paper drives its simulators with real benchmark binaries; our
//! generators reproduce their behaviour classes. For users who *have*
//! measured phase traces (from performance counters, from Sniper/GPGPU-Sim
//! runs, or recorded from our own generators), [`PhaseTrace`] is the
//! interchange format — a list of `(activity, mem_intensity, work_ns)`
//! phases with CSV round-tripping — and [`TracePlayer`] replays one
//! cyclically with exactly the [`PhaseCursor`] work-indexed semantics.
//!
//! [`PhaseCursor`]: crate::cursor::PhaseCursor

use hcapp_sim_core::accum::{jump_countdown, CLOSED_FORM_MIN_TICKS};
use std::fmt::Write as _;

use crate::phase::{Phase, PhaseSample};

/// The shortest phase a trace may hold, in nominal nanoseconds. Playback
/// crosses one phase per loop turn, so a phase far shorter than a tick's
/// work (`1e-300`) would make one tick spin through the trace without end;
/// at 1 ns a tick crosses at most its own work in phases.
/// [`PhaseTrace::record`] floors recorded phases at this length.
pub const MIN_PHASE_WORK_NS: f64 = 1.0;

/// A recorded sequence of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTrace {
    name: String,
    phases: Vec<Phase>,
}

/// Errors from parsing a trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The header row is missing or wrong.
    BadHeader(String),
    /// A data row has the wrong arity or an unparsable field.
    BadRow {
        /// 1-based line number.
        line: usize,
        /// The offending row.
        row: String,
    },
    /// A data row's `work_ns` is below [`MIN_PHASE_WORK_NS`] (or NaN).
    ShortPhase {
        /// 1-based line number.
        line: usize,
        /// The offending row.
        row: String,
    },
    /// The trace contains no phases.
    Empty,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::BadHeader(h) => {
                write!(f, "bad header '{h}' (expected activity,mem_intensity,work_ns)")
            }
            TraceParseError::BadRow { line, row } => write!(f, "bad row at line {line}: '{row}'"),
            TraceParseError::ShortPhase { line, row } => write!(
                f,
                "row at line {line}: '{row}': work_ns must be at least {MIN_PHASE_WORK_NS} ns"
            ),
            TraceParseError::Empty => write!(f, "trace has no phases"),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl PhaseTrace {
    /// Build a trace from phases.
    ///
    /// # Panics
    /// Panics if `phases` is empty or holds a phase shorter than
    /// [`MIN_PHASE_WORK_NS`].
    pub fn new(name: impl Into<String>, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "empty trace");
        for (i, p) in phases.iter().enumerate() {
            assert!(
                p.work_ns >= MIN_PHASE_WORK_NS,
                "phase {i} has work_ns {:?}, below the {MIN_PHASE_WORK_NS} ns floor",
                p.work_ns
            );
        }
        PhaseTrace {
            name: name.into(),
            phases,
        }
    }

    /// Record a trace by sampling a generator for `total_work_ns` of nominal
    /// work — a convenient way to materialize any [`BenchmarkSpec`] as a
    /// shareable file.
    ///
    /// [`BenchmarkSpec`]: crate::spec::BenchmarkSpec
    pub fn record(
        spec: crate::spec::BenchmarkSpec,
        seed: u64,
        stream_id: u64,
        total_work_ns: f64,
    ) -> Self {
        let mut cursor = crate::cursor::PhaseCursor::new(spec, seed, stream_id);
        let mut phases = Vec::new();
        let mut recorded = 0.0;
        // Walk phase by phase: consume exactly one phase per step by
        // sampling, then advancing past the current phase boundary.
        while recorded < total_work_ns {
            let sample = cursor.sample();
            let remaining = cursor.remaining_in_phase();
            let take = remaining.max(MIN_PHASE_WORK_NS);
            phases.push(Phase::new(sample.activity, sample.mem_intensity, take));
            cursor.advance(take);
            recorded += take;
        }
        PhaseTrace::new(spec.name, phases)
    }

    /// The trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total nominal work of one pass through the trace.
    pub fn total_work_ns(&self) -> f64 {
        self.phases.iter().map(|p| p.work_ns).sum()
    }

    /// Serialize as CSV (`activity,mem_intensity,work_ns`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("activity,mem_intensity,work_ns\n");
        for p in &self.phases {
            let _ = writeln!(out, "{:.6},{:.6},{:.3}", p.activity, p.mem_intensity, p.work_ns);
        }
        out
    }

    /// Parse from CSV produced by [`PhaseTrace::to_csv`] (or by any tool
    /// emitting the same three columns).
    pub fn from_csv(name: impl Into<String>, csv: &str) -> Result<Self, TraceParseError> {
        let mut lines = csv.lines();
        let header = lines.next().unwrap_or("").trim();
        if header != "activity,mem_intensity,work_ns" {
            return Err(TraceParseError::BadHeader(header.to_string()));
        }
        let mut phases = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            let parsed: Option<(f64, f64, f64)> = match fields.as_slice() {
                [a, m, w] => match (a.trim().parse(), m.trim().parse(), w.trim().parse()) {
                    (Ok(a), Ok(m), Ok(w)) => Some((a, m, w)),
                    _ => None,
                },
                _ => None,
            };
            let Some((a, m, w)) = parsed else {
                return Err(TraceParseError::BadRow {
                    line: i + 2,
                    row: line.to_string(),
                });
            };
            if !(w >= MIN_PHASE_WORK_NS) {
                return Err(TraceParseError::ShortPhase {
                    line: i + 2,
                    row: line.to_string(),
                });
            }
            phases.push(Phase::new(a, m, w));
        }
        if phases.is_empty() {
            return Err(TraceParseError::Empty);
        }
        Ok(PhaseTrace {
            name: name.into(),
            phases,
        })
    }
}

/// Cyclic, work-indexed playback of a [`PhaseTrace`] — the recorded
/// counterpart of [`PhaseCursor`].
///
/// [`PhaseCursor`]: crate::cursor::PhaseCursor
#[derive(Debug, Clone)]
pub struct TracePlayer {
    trace: std::sync::Arc<PhaseTrace>,
    index: usize,
    remaining: f64,
    consumed: f64,
}

impl TracePlayer {
    /// Start playback at the trace's beginning.
    pub fn new(trace: std::sync::Arc<PhaseTrace>) -> Self {
        let remaining = trace.phases[0].work_ns;
        TracePlayer {
            trace,
            index: 0,
            remaining,
            consumed: 0.0,
        }
    }

    /// The behaviour sample for the current instant.
    pub fn sample(&self) -> PhaseSample {
        self.trace.phases[self.index].sample()
    }

    /// Advance by `work_ns` nominal nanoseconds, wrapping cyclically.
    pub fn advance(&mut self, work_ns: f64) {
        debug_assert!(work_ns >= 0.0);
        self.consumed += work_ns;
        let mut left = work_ns;
        while left >= self.remaining {
            left -= self.remaining;
            self.index = (self.index + 1) % self.trace.phases.len();
            self.remaining = self.trace.phases[self.index].work_ns;
        }
        self.remaining -= left;
    }

    /// Advance by `work_ns` once per tick for up to `max_ticks` ticks,
    /// stopping after the first tick that enters a phase whose sample
    /// differs bit-for-bit from the current one; returns how many ticks
    /// it advanced. Bit-identical to that many [`TracePlayer::advance`]
    /// calls (see `PhaseCursor::advance_span`).
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

    /// Total work consumed.
    pub fn work_done(&self) -> f64 {
        self.consumed
    }
}

impl hcapp_sim_core::state::Snapshot for TracePlayer {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.usize("player.index", self.index);
        w.f64("player.remaining", self.remaining);
        w.f64("player.consumed", self.consumed);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        let index = r.usize("player.index")?;
        if index >= self.trace.phases().len() {
            return None;
        }
        self.index = index;
        self.remaining = r.f64("player.remaining")?;
        self.consumed = r.f64("player.consumed")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use hcapp_sim_core::assert_close;
    use std::sync::Arc;

    fn small_trace() -> PhaseTrace {
        PhaseTrace::new(
            "t",
            vec![
                Phase::new(0.2, 0.1, 1_000.0),
                Phase::new(0.9, 0.5, 500.0),
            ],
        )
    }

    #[test]
    fn csv_roundtrip() {
        let t = small_trace();
        let csv = t.to_csv();
        let back = PhaseTrace::from_csv("t", &csv).unwrap();
        assert_eq!(back.phases().len(), 2);
        assert_close!(back.phases()[0].activity, 0.2, 1e-9);
        assert_close!(back.phases()[1].work_ns, 500.0, 1e-9);
        assert_close!(back.total_work_ns(), 1_500.0, 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            PhaseTrace::from_csv("x", "wrong,header\n1,2"),
            Err(TraceParseError::BadHeader(_))
        ));
        assert!(matches!(
            PhaseTrace::from_csv("x", "activity,mem_intensity,work_ns\n0.5,oops,10"),
            Err(TraceParseError::BadRow { line: 2, .. })
        ));
        assert!(matches!(
            PhaseTrace::from_csv("x", "activity,mem_intensity,work_ns\n"),
            Err(TraceParseError::Empty)
        ));
        // Zero-work rows are rejected (they would stall playback).
        assert!(PhaseTrace::from_csv("x", "activity,mem_intensity,work_ns\n0.5,0.1,0").is_err());
    }

    #[test]
    fn parse_rejects_phases_below_one_ns() {
        // A 1e-300 ns phase used to hang playback: one tick's work crossed
        // it without ever using it up.
        let csv = "activity,mem_intensity,work_ns\n0.5,0.2,20\n0.5,0.2,1e-300\n";
        let err = PhaseTrace::from_csv("x", csv).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::ShortPhase {
                line: 3,
                row: "0.5,0.2,1e-300".into()
            }
        );
        assert!(err.to_string().contains("line 3: '0.5,0.2,1e-300'"), "{err}");
        for w in ["0.999", "NaN", "-5"] {
            let csv = format!("activity,mem_intensity,work_ns\n0.5,0.2,{w}\n");
            assert!(
                matches!(
                    PhaseTrace::from_csv("x", &csv),
                    Err(TraceParseError::ShortPhase { line: 2, .. })
                ),
                "work_ns {w}"
            );
        }
        let at_floor = PhaseTrace::from_csv("x", "activity,mem_intensity,work_ns\n0.5,0.2,1\n");
        assert_eq!(at_floor.map(|t| t.total_work_ns()), Ok(1.0));
    }

    #[test]
    #[should_panic(expected = "phase 1 has work_ns")]
    fn new_rejects_phases_below_one_ns() {
        let _ = PhaseTrace::new(
            "x",
            vec![Phase::new(0.5, 0.2, 10.0), Phase::new(0.5, 0.2, 0.5)],
        );
    }

    #[test]
    fn player_wraps_cyclically() {
        let mut p = TracePlayer::new(Arc::new(small_trace()));
        assert_close!(p.sample().activity, 0.2, 1e-12);
        p.advance(1_000.0); // exactly into phase 2
        assert_close!(p.sample().activity, 0.9, 1e-12);
        p.advance(500.0); // wraps to phase 1
        assert_close!(p.sample().activity, 0.2, 1e-12);
        // A huge advance crosses many cycles without hanging.
        p.advance(1_500_000.0);
        assert_close!(p.work_done(), 1_501_500.0, 1e-6);
    }

    #[test]
    fn record_matches_generator_statistics() {
        let spec = Benchmark::Swaptions.spec();
        let trace = PhaseTrace::record(spec, 42, 0, 5_000_000.0);
        assert!(trace.total_work_ns() >= 5_000_000.0);
        // Mean activity of the recording tracks the spec's mean.
        let total = trace.total_work_ns();
        let mean: f64 = trace
            .phases()
            .iter()
            .map(|p| p.activity * p.work_ns)
            .sum::<f64>()
            / total;
        assert_close!(mean, spec.mean_activity(), 0.05);
    }

    #[test]
    fn replay_of_recording_is_faithful() {
        let spec = Benchmark::Ferret.spec();
        let trace = Arc::new(PhaseTrace::record(spec, 7, 3, 2_000_000.0));
        let mut player = TracePlayer::new(trace.clone());
        // Walking the player phase-exact reproduces the recorded phases.
        for phase in trace.phases().iter().take(20) {
            let s = player.sample();
            assert_close!(s.activity, phase.activity, 1e-12);
            assert_close!(s.mem_intensity, phase.mem_intensity, 1e-12);
            player.advance(phase.work_ns);
        }
    }

    #[test]
    fn advance_span_matches_per_tick_advance() {
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        let saved = |p: &TracePlayer| {
            let mut w = StateWriter::new();
            p.save_state(&mut w);
            w.finish()
        };
        // Two phases with equal samples back to back (a span crosses
        // them), a 1 ns phase, and the wrap to the start; then again with
        // a phase long enough for small steps to take the closed-form
        // jump, and every fourth span up to 5 000 ticks.
        let mut phases = vec![
            Phase::new(0.2, 0.1, 1_000.0),
            Phase::new(0.2, 0.1, 300.0),
            Phase::new(0.9, 0.5, 1.0),
            Phase::new(0.6, 0.3, 2_750.0),
        ];
        for long_spans in [false, true] {
            if long_spans {
                phases.push(Phase::new(0.4, 0.2, 400_000.0));
            }
            let trace = Arc::new(PhaseTrace::new("span", phases.clone()));
            let mut spanned = TracePlayer::new(trace.clone());
            let mut ticked = TracePlayer::new(trace);
            let mut rng = hcapp_sim_core::rng::DeterministicRng::new(3);
            for k in 0..2_000 {
                // The first span steps exactly onto the boundary into the
                // equal phase (tick 10) and then into a different one (tick
                // 13, where it stops).
                let work_ns = match k {
                    0 => 100.0,
                    _ if k % 3 == 0 => 250.0,
                    _ => rng.uniform(0.25, 400.0),
                };
                let max_ticks = match k {
                    0 => 40,
                    _ if long_spans && k % 4 == 1 => rng.below(5_000) as usize,
                    _ => rng.below(41) as usize,
                };
                let got = spanned.advance_span(work_ns, max_ticks);
                let bits = ticked.sample().bits();
                let mut want = 0;
                while want < max_ticks && ticked.sample().bits() == bits {
                    ticked.advance(work_ns);
                    want += 1;
                }
                assert_eq!(got, want, "span {k}");
                assert_eq!(saved(&spanned), saved(&ticked), "state after span {k}");
                if k == 0 {
                    assert_eq!(got, 13);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = PhaseTrace::new("x", vec![]);
    }
}
