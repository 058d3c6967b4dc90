//! Per-layer accounting for `--trace 1` runs.
//!
//! Spans are taken in the benchmark around each call into a layer of the
//! program; the phases inside one simulated quantum come from the
//! program's own wall-clock profiler (`RunConfig::with_profiler`). All
//! figures are host time.
//!
//! | metric           | layer                                              | per       |
//! |------------------|----------------------------------------------------|-----------|
//! | `pid_ns`         | global PID, Eq. 1–2 (profiler phase `control`)     | quantum   |
//! | `vr_ns`          | VR voltage schedule (`vr-schedule`)                | quantum   |
//! | `domains_ns`     | per-domain tick: link, PDN, local ctl, chiplet     | quantum   |
//! | `aggregate_ns`   | power aggregation and health (`aggregate`)         | quantum   |
//! | `loop_ns`        | rest of the run loop: loop set-up, batching        | quantum   |
//! | `build_us`       | `Simulation::new` (system assembly)                | call      |
//! | `codec_us`       | `encode_outcome` (the result codec)                | call      |
//! | `cache_probe_us` | result-cache key and lookup (decode on a hit)      | call      |
//! | `cache_store_us` | result-cache insert                                | call      |
//! | `observe_us`     | trace drain, JSONL export, report serialization    | call      |
//! | `replay_us`      | trace validation and offline replay                | call      |
//!
//! The cache and observation layers are timed wherever a run calls them:
//! in the sweep's rounds, and in every workload's verification (see
//! `check`). Counts: `quanta` simulated under the profiler and result-cache
//! `cache_hits`; both grow with the speed of the instrumented rounds.

use std::sync::Arc;
use std::time::Instant;

use hcapp_telemetry::Profiler;

/// A layer the benchmark times from the outside.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    Build,
    Step,
    Codec,
    CacheProbe,
    CacheStore,
    Observe,
    Replay,
}

const N_LAYERS: usize = 7;

#[derive(Debug, Default)]
pub struct Layers {
    ns: [u128; N_LAYERS],
    calls: [u64; N_LAYERS],
    /// Attached to every simulation of an instrumented round.
    pub profiler: Arc<Profiler>,
    /// Quanta simulated with `profiler` attached.
    pub quanta: u64,
    pub cache_hits: u64,
}

impl Layers {
    fn charge<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns[layer as usize] += t0.elapsed().as_nanos();
        self.calls[layer as usize] += 1;
        out
    }

    fn per_call_us(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        self.ns[i] as f64 / 1e3 / self.calls[i].max(1) as f64
    }

    pub fn layer_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let phase_ns = |name: &str| -> f64 {
            self.profiler
                .phases()
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, s)| s.total.as_nanos() as f64)
                .sum()
        };
        let q = self.quanta.max(1) as f64;
        let phases = [
            ("pid_ns", phase_ns("control")),
            ("vr_ns", phase_ns("vr-schedule")),
            ("domains_ns", phase_ns("domains")),
            ("aggregate_ns", phase_ns("aggregate")),
        ];
        let in_phases: f64 = phases.iter().map(|(_, ns)| ns).sum();
        let step_ns = self.ns[Layer::Step as usize] as f64;
        let mut m: Vec<(&'static str, f64, &'static str)> = phases
            .iter()
            .map(|&(name, ns)| (name, ns / q, "ns"))
            .collect();
        m.push(("loop_ns", (step_ns - in_phases) / q, "ns"));
        m.extend([
            ("build_us", self.per_call_us(Layer::Build), "us"),
            ("codec_us", self.per_call_us(Layer::Codec), "us"),
            ("cache_probe_us", self.per_call_us(Layer::CacheProbe), "us"),
            ("cache_store_us", self.per_call_us(Layer::CacheStore), "us"),
            ("observe_us", self.per_call_us(Layer::Observe), "us"),
            ("replay_us", self.per_call_us(Layer::Replay), "us"),
            ("quanta", self.quanta as f64, "count"),
            ("cache_hits", self.cache_hits as f64, "count"),
        ]);
        m
    }
}

/// Run `f`, charging its wall time to `layer` when accounting is on.
pub fn layer_span<T>(layers: Option<&mut Layers>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match layers {
        Some(l) => l.charge(layer, f),
        None => f(),
    }
}
