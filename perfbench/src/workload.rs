//! The three workloads: their seeded inputs and how one round executes.
//!
//! | workload    | round                                                       | stresses                     |
//! |-------------|-------------------------------------------------------------|------------------------------|
//! | `paper3`    | 8 runs of the paper's 3-domain package, one per Table 3     | per-quantum control overhead |
//! |             | combo, HCAPP scheme, 1 ms each with a mid-run retarget      | (PID, VR, 3 domain ticks)    |
//! | `scaled256` | 4 runs of a 256-domain package (86 CPU/85 GPU/85 SHA),      | per-domain tick and          |
//! |             | HCAPP scheme, 40 µs each with a retarget                    | aggregation at scale         |
//! | `sweep`     | the full Table 3 sweep (8 combos × fixed/HCAPP/RAPL/SW,     | run-level pool, result       |
//! |             | 0.5 ms each) through the result cache: cold, then warm     | cache and codec              |
//!
//! The seed picks the combo order, each package's workload seed, and the
//! time and level of each retarget; the program only sees the resulting
//! configurations. Every run of a workload has the same job mix, so runs
//! with different seeds are comparable.

use std::path::PathBuf;
use std::time::Instant;

use hcapp::cache::{encode_outcome, job_key, run_all_cached, Lookup, RunCache};
use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::outcome::RunOutcome;
use hcapp::resume::total_quanta;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_workloads::combos::combo_suite;

use crate::layers::{layer_span, Layer, Layers};

/// Worker threads of the sweep's run-level pool. One keeps a round's time
/// free of the other vCPU's contention, which differs from moment to moment.
pub const SWEEP_WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper3,
    Scaled256,
    Sweep,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        [Kind::Paper3, Kind::Scaled256, Kind::Sweep]
            .into_iter()
            .find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper3 => "paper3",
            Kind::Scaled256 => "scaled256",
            Kind::Sweep => "sweep",
        }
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// simulator's RNG.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    fn shuffle_slice<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// 64-bit FNV-1a, the digest the repository's golden corpus uses.
pub fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Job {
    pub sys: SystemConfig,
    pub run: RunConfig,
    pub quanta: u64,
}

impl Job {
    fn new(sys: SystemConfig, run: RunConfig) -> Job {
        let quanta = total_quanta(&sys, &run);
        Job { sys, run, quanta }
    }
}

/// An HCAPP run at the package-pin target with one seeded retarget in the
/// middle half of the run, to 85–100 % of the target.
fn retargeted_run(rng: &mut Rng, duration_us: u64) -> RunConfig {
    let target = PowerLimit::package_pin().guardbanded_target();
    let at = rng.uniform(duration_us / 4, 3 * duration_us / 4);
    let level = 0.85 + 0.15 * (rng.uniform(0, 1000) as f64 / 1000.0);
    RunConfig::new(
        SimDuration::from_micros(duration_us),
        ControlScheme::Hcapp,
        target,
    )
    .with_retarget(SimTime::from_micros(at), target * level)
}

fn make_jobs(kind: Kind, seed: u64) -> Vec<Job> {
    let mut rng = Rng(seed ^ fnv1a64(kind.name()));
    let mut combos = combo_suite();
    rng.shuffle_slice(&mut combos);
    match kind {
        Kind::Paper3 => combos
            .iter()
            .map(|&c| {
                let sys = SystemConfig::paper_system(c, rng.next_u64());
                Job::new(sys, retargeted_run(&mut rng, 1_000))
            })
            .collect(),
        Kind::Scaled256 => combos[..4]
            .iter()
            .map(|&c| {
                let sys = SystemConfig::scaled_system(c, 86, 85, 85, rng.next_u64())
                    .expect("invariant: a 256-domain package is non-empty");
                Job::new(sys, retargeted_run(&mut rng, 40))
            })
            .collect(),
        Kind::Sweep => {
            // One package seed for the whole sweep, like `hcapp sweep --seed`,
            // and the CLI's job order: baseline first, then each scheme.
            let sys_seed = rng.next_u64();
            let target = PowerLimit::package_pin().guardbanded_target();
            let schemes = [
                ControlScheme::fixed_baseline(),
                ControlScheme::Hcapp,
                ControlScheme::RaplLike,
                ControlScheme::SoftwareLike,
            ];
            schemes
                .iter()
                .flat_map(|&s| combo_suite().map(move |c| (s, c)))
                .map(|(s, c)| {
                    let sys = SystemConfig::paper_system(c, sys_seed);
                    Job::new(
                        sys,
                        RunConfig::new(SimDuration::from_micros(500), s, target),
                    )
                })
                .collect()
        }
    }
}

pub struct Round {
    pub secs: f64,
    /// One digest per job result, in job order (the sweep reports its cold
    /// pass, then its warm pass).
    pub digests: Vec<u64>,
    /// Results that went wrong in ways a digest cannot show.
    pub failed: u64,
}

pub struct Workload {
    pub jobs: Vec<Job>,
    /// Simulated quanta one round delivers.
    pub round_quanta: u64,
    pub work_dir: PathBuf,
    kind: Kind,
    cache: RunCache,
    /// Digests of the warm-up round: every later round must match them.
    pub reference: Vec<u64>,
    /// Outcomes of the warm-up round, one per job.
    pub outcomes: Vec<RunOutcome>,
}

impl Workload {
    /// Build the inputs and run the untimed warm-up round.
    pub fn prepare(kind: Kind, seed: u64, work_dir: PathBuf) -> Result<Workload, String> {
        let jobs = make_jobs(kind, seed);
        let quanta: u64 = jobs.iter().map(|j| j.quanta).sum();
        let round_quanta = if kind == Kind::Sweep {
            2 * quanta
        } else {
            quanta
        };
        let cache = RunCache::new(work_dir.join("cache"));
        let mut wl = Workload {
            jobs,
            round_quanta,
            work_dir,
            kind,
            cache,
            reference: Vec::new(),
            outcomes: Vec::new(),
        };
        let (round, outcomes) = wl.run_jobs(None);
        if round.failed > 0 {
            return Err("warm-up round failed".into());
        }
        wl.reference = round.digests;
        wl.outcomes = outcomes;
        Ok(wl)
    }

    /// One timed round: on the path users take, or with `layers` through
    /// the instrumented serial pipeline.
    pub fn run_round(&mut self, layers: Option<&mut Layers>) -> Round {
        self.run_jobs(layers).0
    }

    /// Results in this round that differ from the reference.
    pub fn count_mismatches(&self, round: &Round) -> u64 {
        let n = self.reference.len();
        let differ = round
            .digests
            .iter()
            .enumerate()
            .filter(|(i, d)| self.reference.get(i % n) != Some(d))
            .count() as u64;
        differ + round.failed
    }

    /// Execute one round; returns it and the outcomes of its first pass.
    fn run_jobs(&mut self, mut layers: Option<&mut Layers>) -> (Round, Vec<RunOutcome>) {
        if self.kind == Kind::Sweep {
            self.cache.wipe();
        }
        let t0 = Instant::now();
        let (mut outcomes, failed) = if self.kind == Kind::Sweep {
            self.sweep_passes(layers.as_deref_mut())
        } else {
            let outs = self
                .jobs
                .iter()
                .map(|job| simulate(job, layers.as_deref_mut()))
                .collect();
            (outs, 0)
        };
        let secs = t0.elapsed().as_secs_f64();
        let digests = outcomes
            .iter()
            .map(|o| {
                fnv1a64(&layer_span(layers.as_deref_mut(), Layer::Codec, || {
                    encode_outcome(o)
                }))
            })
            .collect();
        outcomes.truncate(self.jobs.len());
        (
            Round {
                secs,
                digests,
                failed,
            },
            outcomes,
        )
    }

    /// A cold pass (every job simulated on the run-level pool and stored)
    /// followed by a warm pass (every job answered from the cache); returns
    /// both passes' outcomes and the count of wrong hits or misses.
    fn sweep_passes(&self, layers: Option<&mut Layers>) -> (Vec<RunOutcome>, u64) {
        let n = self.jobs.len();
        let Some(l) = layers else {
            let jobs: Vec<_> = self
                .jobs
                .iter()
                .map(|j| (j.sys.clone(), j.run.clone()))
                .collect();
            let (mut cold, cs) = run_all_cached(jobs.clone(), SWEEP_WORKERS, &self.cache);
            let (warm, ws) = run_all_cached(jobs, SWEEP_WORKERS, &self.cache);
            cold.extend(warm);
            return (cold, u64::from(cs.misses != n) + u64::from(ws.hits != n));
        };
        // The same two passes, serial and decomposed into probe, simulate
        // and store, so that each layer can be timed.
        let mut outs = Vec::with_capacity(2 * n);
        let mut failed = 0;
        for pass in 0..2 {
            for job in &self.jobs {
                let key = job_key(&job.sys, &job.run);
                let probe = layer_span(Some(&mut *l), Layer::CacheProbe, || {
                    key.map(|k| self.cache.lookup_classified(k))
                });
                let out = match probe {
                    Some(Lookup::Hit(hit)) => {
                        l.cache_hits += 1;
                        *hit
                    }
                    _ => {
                        let out = simulate(job, Some(&mut *l));
                        if let Some(k) = key {
                            layer_span(Some(&mut *l), Layer::CacheStore, || {
                                self.cache.insert(k, &out)
                            });
                        }
                        failed += u64::from(pass == 1);
                        out
                    }
                };
                outs.push(out);
            }
        }
        (outs, failed)
    }
}

/// Build and run one job serially; with `layers`, under the phase profiler
/// and with build and step timed.
fn simulate(job: &Job, mut layers: Option<&mut Layers>) -> RunOutcome {
    let mut run = job.run.clone();
    if let Some(l) = layers.as_deref_mut() {
        run = run.with_profiler(l.profiler.clone());
        l.quanta += job.quanta;
    }
    let sys = job.sys.clone();
    let sim = layer_span(layers.as_deref_mut(), Layer::Build, || {
        Simulation::new(sys, run)
    });
    layer_span(layers, Layer::Step, || sim.run())
}
