//! Generated-or-recorded workload programs.
//!
//! The chiplet simulators don't care whether their phases come from a
//! synthetic generator ([`PhaseCursor`]) or a recorded trace
//! ([`TracePlayer`]); [`WorkloadProgram`] is the common currency, and
//! [`WorkloadSource`] the config-level description (convertible from a bare
//! [`BenchmarkSpec`] so existing call sites keep working).

use std::sync::Arc;

use crate::cursor::PhaseCursor;
use crate::phase::PhaseSample;
use crate::spec::BenchmarkSpec;
use crate::trace::{PhaseTrace, TracePlayer};

/// Config-level description of a workload.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// A synthetic generator spec (the paper's benchmarks).
    Spec(BenchmarkSpec),
    /// A recorded trace, replayed cyclically.
    Trace(Arc<PhaseTrace>),
}

impl From<BenchmarkSpec> for WorkloadSource {
    fn from(spec: BenchmarkSpec) -> Self {
        WorkloadSource::Spec(spec)
    }
}

impl From<Arc<PhaseTrace>> for WorkloadSource {
    fn from(trace: Arc<PhaseTrace>) -> Self {
        WorkloadSource::Trace(trace)
    }
}

impl WorkloadSource {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSource::Spec(s) => s.name,
            WorkloadSource::Trace(t) => t.name(),
        }
    }

    /// Instantiate the runtime program ( `(seed, stream_id)` select the
    /// generator's random stream; recorded traces ignore them).
    pub fn instantiate(&self, seed: u64, stream_id: u64) -> WorkloadProgram {
        match self {
            WorkloadSource::Spec(spec) => {
                WorkloadProgram::Generated(PhaseCursor::new(*spec, seed, stream_id))
            }
            WorkloadSource::Trace(trace) => {
                WorkloadProgram::Recorded(TracePlayer::new(trace.clone()))
            }
        }
    }
}

/// A running workload: either a generator or a trace replay.
#[derive(Debug, Clone)]
pub enum WorkloadProgram {
    /// Synthetic phases from a [`PhaseCursor`].
    Generated(PhaseCursor),
    /// Recorded phases from a [`TracePlayer`].
    Recorded(TracePlayer),
}

impl WorkloadProgram {
    /// The behaviour sample for the current instant.
    #[inline]
    pub fn sample(&self) -> PhaseSample {
        match self {
            WorkloadProgram::Generated(c) => c.sample(),
            WorkloadProgram::Recorded(p) => p.sample(),
        }
    }

    /// Advance by `work_ns` nominal nanoseconds of completed work.
    #[inline]
    pub fn advance(&mut self, work_ns: f64) {
        match self {
            WorkloadProgram::Generated(c) => c.advance(work_ns),
            WorkloadProgram::Recorded(p) => p.advance(work_ns),
        }
    }

    /// Advance by `work_ns` once per tick for up to `max_ticks` ticks,
    /// stopping after the first tick that enters a phase with a different
    /// sample; returns the ticks advanced (see
    /// [`PhaseCursor::advance_span`]).
    #[inline]
    pub fn advance_span(&mut self, work_ns: f64, max_ticks: usize) -> usize {
        match self {
            WorkloadProgram::Generated(c) => c.advance_span(work_ns, max_ticks),
            WorkloadProgram::Recorded(p) => p.advance_span(work_ns, max_ticks),
        }
    }

    /// Total work consumed (nominal ns).
    #[inline]
    pub fn work_done(&self) -> f64 {
        match self {
            WorkloadProgram::Generated(c) => c.work_done(),
            WorkloadProgram::Recorded(p) => p.work_done(),
        }
    }
}

impl hcapp_sim_core::state::Snapshot for WorkloadProgram {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        match self {
            WorkloadProgram::Generated(c) => c.save_state(w),
            WorkloadProgram::Recorded(p) => p.save_state(w),
        }
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        match self {
            WorkloadProgram::Generated(c) => c.load_state(r),
            WorkloadProgram::Recorded(p) => p.load_state(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    #[test]
    fn spec_source_matches_raw_cursor() {
        let src: WorkloadSource = Benchmark::Bfs.spec().into();
        assert_eq!(src.name(), "bfs");
        let mut a = src.instantiate(9, 1);
        let mut b = PhaseCursor::new(Benchmark::Bfs.spec(), 9, 1);
        for _ in 0..1_000 {
            a.advance(321.0);
            b.advance(321.0);
            assert_eq!(a.sample(), b.sample());
        }
        assert_eq!(a.work_done(), b.work_done());
    }

    #[test]
    fn trace_source_replays() {
        let trace = std::sync::Arc::new(PhaseTrace::record(
            Benchmark::Swaptions.spec(),
            3,
            0,
            1_000_000.0,
        ));
        let src: WorkloadSource = trace.into();
        assert_eq!(src.name(), "swaptions");
        let mut p = src.instantiate(999, 999); // seed ignored for traces
        let mut q = src.instantiate(1, 2);
        for _ in 0..100 {
            p.advance(10_000.0);
            q.advance(10_000.0);
            assert_eq!(p.sample(), q.sample(), "trace replay must ignore seeds");
        }
    }
}
