//! The one implementation of the campaigns behind the run loop's two
//! tolerance-zero contracts: run == resumed (DESIGN §6h) and the
//! over-budget reaction bound under any valid fault plan (DESIGN §6d).
//! `hcapp soak`, `hcapp faults`, the `soak` and `faults` experiments and
//! the fuzzer's resume leg all call it, so the traced reference, the kill
//! points, the kill chain, the gates and the bound are each defined once.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::{fmt, fs, io};

use hcapp_analyze::StreamAnalyzer;
use hcapp_faults::FaultPlan;
use hcapp_metrics::{over_cap, OverCapReport};
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;
use hcapp_telemetry::jsonl;
use hcapp_telemetry::tracer::RingTracer;

use crate::cache::encode_outcome;
use crate::coordinator::{RunConfig, Simulation};
use crate::health::DegradedConfig;
use crate::outcome::RunOutcome;
use crate::resume::{outcome_digest, run_resumable, total_quanta, ResumeEnd, ResumeOptions};
use crate::scheme::ControlScheme;
use crate::system::SystemConfig;

/// RNG stream id for kill-quantum selection (distinct from every simulator
/// stream, which all derive from component indices).
const KILL_STREAM: u64 = 0x5041_6b69_6c6c; // "PAkill"

/// Why a campaign could not reach a verdict. I/O errors display by kind
/// only, so the text carries no path or OS message and is the same on
/// every host (the fuzzer's logs are byte-stable).
#[derive(Debug)]
pub enum CampaignError {
    /// The reference ring dropped this many events.
    Dropped(u64),
    /// The run has this many quanta, too few for a kill to land inside.
    TooShort(u64),
    /// This kill quantum is not strictly inside the run.
    KillNotReached(u64),
    /// The final link stopped at this quantum instead of completing.
    FinalStopped(u64),
    /// A link failed (`"kill"` or `"final"`).
    Link(&'static str, io::Error),
    /// The stitched trace sink could not be read back.
    Sink(io::Error),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dropped(n) => write!(f, "the reference ring dropped {n} events"),
            Self::TooShort(total) => write!(f, "run too short to kill ({total} quanta)"),
            Self::KillNotReached(q) => write!(f, "kill at quantum {q} is not inside the run"),
            Self::FinalStopped(q) => write!(f, "final link stopped at quantum {q}"),
            Self::Link(which, e) => write!(f, "{which} link failed: {}", e.kind()),
            Self::Sink(e) => write!(f, "trace sink unreadable: {}", e.kind()),
        }
    }
}

/// The over-budget contract for `scheme`: [`DegradedConfig::reaction_bound`]
/// of its own control period. `None` for a fixed rail, which has no
/// controller to react.
pub fn reaction_bound(scheme: ControlScheme) -> Option<SimDuration> {
    let period = scheme.control_period()?;
    Some(DegradedConfig::default().reaction_bound(period))
}

/// A run's over-budget episodes against its scheme's [`reaction_bound`].
#[derive(Debug, Clone)]
pub struct Excursion {
    /// Episode structure of the run's power trace against the budget.
    pub over: OverCapReport,
    /// The bound; `None` for a fixed rail, which is not gated.
    pub bound: Option<SimDuration>,
}

impl Excursion {
    /// Measure `out`, which must carry a power trace, against `budget`.
    pub fn of(out: &RunOutcome, budget: Watt) -> Self {
        let trace = out
            .trace
            .as_ref()
            .expect("invariant: campaign runs record a power trace");
        Excursion {
            over: over_cap(trace, budget.value()),
            bound: reaction_bound(out.scheme),
        }
    }

    /// Whether the longest episode is inside the bound (always, without one).
    pub fn within_bound(&self) -> bool {
        self.bound.is_none_or(|b| self.over.longest <= b)
    }

    /// `Err` naming the episode and the bound when the episode exceeds it.
    pub fn check(&self) -> Result<(), String> {
        match self.bound {
            Some(b) if !self.within_bound() => Err(format!(
                "over-budget episode {} exceeds the reaction bound {b}",
                self.over.longest
            )),
            _ => Ok(()),
        }
    }

    /// The bound as a table cell: its duration, or `n/a`.
    pub fn bound_label(&self) -> String {
        self.bound.map_or("n/a".to_string(), |b| b.to_string())
    }

    /// The verdict as a table cell: `yes`, `NO`, or `n/a` without a bound.
    pub fn verdict_label(&self) -> &'static str {
        match (self.bound, self.within_bound()) {
            (None, _) => "n/a",
            (Some(_), true) => "yes",
            (Some(_), false) => "NO",
        }
    }
}

/// The uninterrupted run, traced through a ring that never drops: its
/// outcome and the `jsonl::export` of every event under header `extra`.
///
/// # Errors
/// [`CampaignError::Dropped`] if the ring lost an event after all.
pub fn reference_trace(
    sys: &SystemConfig,
    run: &RunConfig,
    extra: &[(&str, &str)],
) -> Result<(RunOutcome, String), CampaignError> {
    let ring = Arc::new(Mutex::new(RingTracer::unbounded()));
    let out = Simulation::new(sys.clone(), run.clone().with_tracer(ring.clone())).run();
    let mut ring = ring.lock().expect("invariant: tracer mutex never poisoned");
    match ring.dropped() {
        0 => Ok((out, jsonl::export(&ring.drain(), extra))),
        n => Err(CampaignError::Dropped(n)),
    }
}

/// Up to `kills` distinct kill quanta, sorted and strictly inside a run of
/// `total` quanta, drawn from the kill stream of `seed`.
pub fn kill_quanta(seed: u64, kills: u64, total: u64) -> Vec<u64> {
    let mut rng = DeterministicRng::derive(seed, KILL_STREAM);
    let mut picked = BTreeSet::new();
    while (picked.len() as u64) < kills.min(total.saturating_sub(1)) {
        picked.insert(1 + rng.below(total - 1));
    }
    picked.into_iter().collect()
}

/// What a [`kill_chain`] produced.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The final link's outcome.
    pub outcome: RunOutcome,
    /// The stitched trace sink's text (empty without a sink).
    pub trace: String,
    /// Checkpoints written across all links.
    pub checkpoints: u64,
    /// The quantum each resuming link restored, in link order.
    pub resumed_from: Vec<u64>,
}

/// One [`run_resumable`] link per kill quantum, each stopped there and
/// resumed by the next, then a final link to completion.
///
/// # Errors
/// A link's I/O failure, a kill quantum not strictly inside the run, a final
/// link that stops, or an unreadable trace sink.
pub fn kill_chain(
    sys: &SystemConfig,
    run: &RunConfig,
    opts: &ResumeOptions,
    kills: &[u64],
) -> Result<Chain, CampaignError> {
    let (mut checkpoints, mut resumed_from) = (0, Vec::new());
    let mut link = |stop_at: Option<u64>| {
        let opts = ResumeOptions {
            stop_at,
            ..opts.clone()
        };
        let which = if stop_at.is_some() { "kill" } else { "final" };
        let s = run_resumable(sys.clone(), run.clone(), &opts)
            .map_err(|e| CampaignError::Link(which, e))?;
        checkpoints += s.checkpoints_written;
        resumed_from.extend(s.resumed_from);
        Ok(s.end)
    };
    let total = total_quanta(sys, run);
    for &q in kills {
        // A kill at the last quantum would stop a link that has already run
        // everything, so only quanta strictly inside the run count.
        if q >= total || matches!(link(Some(q))?, ResumeEnd::Completed(_)) {
            return Err(CampaignError::KillNotReached(q));
        }
    }
    let outcome = match link(None)? {
        ResumeEnd::Completed(out) => out,
        ResumeEnd::Stopped { quantum } => return Err(CampaignError::FinalStopped(quantum)),
    };
    let trace = match &opts.trace_sink {
        Some(path) => fs::read_to_string(path).map_err(CampaignError::Sink)?,
        None => String::new(),
    };
    Ok(Chain {
        outcome,
        trace,
        checkpoints,
        resumed_from,
    })
}

/// What a [`soak`] found.
#[derive(Debug, Clone)]
pub struct Soak {
    /// Control quanta in the run.
    pub total: u64,
    /// The kill quanta, sorted.
    pub kills: Vec<u64>,
    /// The stitched run.
    pub chain: Chain,
    /// The first failed identity gate, or `None` when the stitched run is
    /// the reference byte for byte.
    pub divergence: Option<String>,
    /// The stitched run's over-budget episodes against the bound.
    pub excursion: Excursion,
}

/// Kill the run at `kills` quanta drawn from `kill_seed`, resume after each,
/// and gate the stitched run against the [`reference_trace`]: the encoded
/// outcome, the trace bytes (which must also pass `jsonl::validate`), the
/// replayed `hcapp.report`, and the longest over-budget episode against
/// [`reaction_bound`]. The trace header is `opts.trace_extra`; the power
/// trace is recorded whether or not `run` asks for it.
///
/// # Errors
/// A run too short to kill, or a [`kill_chain`] or [`reference_trace`]
/// error. A failed gate is a verdict, not an error: it shows in
/// [`Soak::divergence`] or [`Excursion::check`].
pub fn soak(
    sys: &SystemConfig,
    run: &RunConfig,
    opts: &ResumeOptions,
    kill_seed: u64,
    kills: u64,
    budget: Watt,
) -> Result<Soak, CampaignError> {
    let run = run.clone().with_trace();
    let total = total_quanta(sys, &run);
    if total < 2 {
        return Err(CampaignError::TooShort(total));
    }
    let kills = kill_quanta(kill_seed, kills, total);
    let extra: Vec<(&str, &str)> = opts
        .trace_extra
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let (want, want_trace) = reference_trace(sys, &run, &extra)?;
    let chain = kill_chain(sys, &run, opts, &kills)?;
    let divergence = first_divergence(&want, &want_trace, &chain);
    let excursion = Excursion::of(&chain.outcome, budget);
    Ok(Soak {
        total,
        kills,
        chain,
        divergence,
        excursion,
    })
}

/// The identity gates of [`soak`], in order; the first that fails names
/// itself.
fn first_divergence(want: &RunOutcome, want_trace: &str, chain: &Chain) -> Option<String> {
    let (got, got_trace) = (&chain.outcome, &chain.trace);
    if encode_outcome(got) != encode_outcome(want) {
        let (a, b) = (outcome_digest(got), outcome_digest(want));
        return Some(format!(
            "stitched outcome diverged from the reference (digest {a} vs {b})"
        ));
    }
    if got_trace != want_trace {
        let (a, b) = (got_trace.len(), want_trace.len());
        return Some(format!(
            "stitched trace diverged from the reference ({a} vs {b} bytes)"
        ));
    }
    if let Err(e) = jsonl::validate(got_trace) {
        return Some(format!("stitched trace failed validation: {e}"));
    }
    let report = |text: &str| {
        let mut a = StreamAnalyzer::new();
        a.consume_jsonl(text).map(|_| a.report().to_json())
    };
    match (report(got_trace), report(want_trace)) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(_), Ok(_)) => Some("replayed hcapp.report diverged from the reference".to_string()),
        (Err(e), _) | (_, Err(e)) => Some(format!("trace replay failed: {e}")),
    }
}

/// A clean and a faulted run of one configuration.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// The run without faults.
    pub clean: RunOutcome,
    /// The same run under the plan.
    pub faulted: RunOutcome,
    /// The faulted run's over-budget episodes against the bound.
    pub excursion: Excursion,
}

/// Run `run` clean and under `plan`, both with a power trace, and measure
/// the faulted run's over-budget episodes against `budget`.
pub fn fault_cell(sys: &SystemConfig, run: &RunConfig, plan: FaultPlan, budget: Watt) -> FaultCell {
    let run = run.clone().with_trace();
    let clean = Simulation::new(sys.clone(), run.clone()).run();
    let faulted = Simulation::new(sys.clone(), run.with_faults(plan)).run();
    let excursion = Excursion::of(&faulted, budget);
    FaultCell {
        clean,
        faulted,
        excursion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PowerLimit;
    use hcapp_workloads::combos::combo_by_name;
    use std::path::PathBuf;

    fn low_low(ms: u64) -> (SystemConfig, RunConfig) {
        let sys = SystemConfig::paper_system(combo_by_name("Low-Low").unwrap(), 5);
        let run = RunConfig::new(
            SimDuration::from_millis(ms),
            ControlScheme::Hcapp,
            PowerLimit::package_pin().guardbanded_target(),
        );
        (sys, run)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcapp_campaign_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sink_opts(dir: &std::path::Path) -> ResumeOptions {
        ResumeOptions::new(dir.join("hcapp.ckpt"))
            .with_checkpoint_every(16)
            .with_trace_sink(dir.join("hcapp.trace"))
            .with_trace_extra("case", "soak")
    }

    #[test]
    fn short_low_low_soak_passes_every_gate() {
        let (sys, run) = low_low(1);
        let dir = scratch("soak");
        let budget = PowerLimit::package_pin().budget;
        let s = soak(&sys, &run, &sink_opts(&dir), 5, 2, budget).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(s.kills.len(), 2);
        assert_eq!(s.chain.resumed_from.len(), 2);
        assert!(s.chain.trace.starts_with('{') && s.chain.trace.contains("\"case\":\"soak\""));
        assert_eq!(s.divergence, None);
        s.excursion.check().unwrap();
    }

    #[test]
    fn kill_at_or_past_the_end_is_an_error() {
        let (sys, run) = low_low(1);
        let total = total_quanta(&sys, &run);
        let dir = scratch("late_kill");
        let err = kill_chain(&sys, &run, &sink_opts(&dir), &[total]).unwrap_err();
        let _ = fs::remove_dir_all(&dir);
        assert!(
            matches!(err, CampaignError::KillNotReached(q) if q == total),
            "{err}"
        );
    }

    #[test]
    fn kill_quanta_are_distinct_sorted_and_inside_the_run() {
        let q = kill_quanta(7, 5, 100);
        assert_eq!(q.len(), 5);
        assert!(q.windows(2).all(|w| w[0] < w[1]));
        assert!(q.iter().all(|&k| (1..100).contains(&k)));
        assert_eq!(kill_quanta(7, 5, 3), [1, 2]);
        assert!(kill_quanta(7, 5, 1).is_empty());
    }

    #[test]
    fn reaction_bound_is_the_schemes_own() {
        assert_eq!(
            reaction_bound(ControlScheme::Hcapp),
            Some(SimDuration::from_micros(112))
        );
        assert_eq!(
            reaction_bound(ControlScheme::RaplLike),
            Some(SimDuration::from_micros(11_200))
        );
        assert_eq!(reaction_bound(ControlScheme::fixed_baseline()), None);
    }
}
