//! The 8-core CPU chiplet.
//!
//! Owns the cores, the shared workload program (one cursor/player per
//! chiplet — PARSEC apps are data-parallel, so phases are barrier-coupled
//! across cores), the uncore power model, and the McPAT-style energy
//! breakdown. The chiplet is stepped with one supply voltage per core (the
//! local controllers in `hcapp` compute those) and exposes the per-core IPC
//! fractions those controllers need next cycle.

use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::{StepFrame, TickMemo, TickSums, UnitPoint};
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::program::{WorkloadProgram, WorkloadSource};

use crate::config::CpuConfig;
use crate::core::Core;
use crate::mcpat::PowerBreakdown;

/// The CPU chiplet simulator.
#[derive(Debug, Clone)]
pub struct CpuChiplet {
    cfg: CpuConfig,
    cores: Vec<Core>,
    uncore: ComponentPowerModel,
    program: WorkloadProgram,
    workload_name: String,
    /// Per-core measured IPC fractions from the last step.
    last_ipc: Vec<f64>,
    /// Total chiplet power from the last step.
    last_power: Watt,
    breakdown: PowerBreakdown,
    /// The previous kernel tick, replayed while the inputs repeat (a
    /// cache: not checkpointed, dropped by `load_state`).
    memo: TickMemo,
}

impl CpuChiplet {
    /// Build a chiplet running `workload` (a [`BenchmarkSpec`] or a recorded
    /// trace via [`WorkloadSource`]), with randomness derived from
    /// `(seed, stream_base)`.
    ///
    /// [`BenchmarkSpec`]: hcapp_workloads::spec::BenchmarkSpec
    pub fn new(
        cfg: CpuConfig,
        workload: impl Into<WorkloadSource>,
        seed: u64,
        stream_base: u64,
    ) -> Self {
        let workload = workload.into();
        cfg.validate();
        let fm = cfg.frequency_model();
        let core_model = ComponentPowerModel::calibrated(
            fm.clone(),
            cfg.v_nominal,
            cfg.core_peak_dynamic,
            cfg.core_leakage,
        );
        let uncore = ComponentPowerModel::calibrated(
            fm,
            cfg.v_nominal,
            cfg.uncore_peak_dynamic,
            cfg.uncore_leakage,
        );
        let f_nominal = core_model.frequency(cfg.v_nominal).value();
        // Jitter resample period in 100 ns ticks is computed from the config
        // assuming the canonical tick; any tick works, the period just
        // shifts.
        let jitter_ticks = (cfg.jitter_resample_ns / 100).max(1);
        let cores = (0..cfg.cores)
            .map(|i| {
                Core::new(
                    core_model.clone(),
                    f_nominal,
                    cfg.core_jitter_std,
                    jitter_ticks,
                    DeterministicRng::derive(seed, stream_base + 1 + i as u64),
                )
            })
            .collect();
        let program = workload.instantiate(seed, stream_base);
        CpuChiplet {
            last_ipc: vec![0.0; cfg.cores],
            memo: TickMemo::new(cfg.cores),
            cfg,
            cores,
            uncore,
            workload_name: workload.name().to_string(),
            program,
            last_power: Watt::ZERO,
            breakdown: PowerBreakdown::new(),
        }
    }

    /// Number of locally-controllable units (cores).
    pub fn units(&self) -> usize {
        self.cores.len()
    }

    /// The chiplet configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Advance one tick.
    ///
    /// `core_voltages[i]` is the supply voltage the local controller chose
    /// for core `i` (clamped here to the safe range — the pass-through
    /// over/under-voltage protection of §3.3). Returns total chiplet power.
    ///
    /// # Panics
    /// Panics if `core_voltages.len() != units()`.
    pub fn step(&mut self, core_voltages: &[Volt], dt: SimDuration) -> Watt {
        assert_eq!(
            core_voltages.len(),
            self.cores.len(),
            "need one voltage per core"
        );
        let sample = self.program.sample();
        let mut total_core_power = Watt::ZERO;
        let mut total_dynamic = Watt::ZERO;
        let mut total_rate = 0.0;
        let dt_ns = dt.as_nanos() as f64;
        for (i, core) in self.cores.iter_mut().enumerate() {
            let v = core_voltages[i].clamp(self.cfg.v_min, self.cfg.v_max);
            let out = core.step(v, sample, dt);
            total_core_power += out.power;
            total_dynamic += out.power - core.model().leakage_power(v);
            total_rate += out.work_ns / dt_ns;
            self.last_ipc[i] = out.ipc_fraction;
        }
        // The shared program advances at the average core rate (barrier-
        // coupled data parallelism).
        let avg_rate = total_rate / self.cores.len() as f64;
        self.program.advance(avg_rate * dt_ns);

        // Uncore runs at the mean core voltage; its switching tracks memory
        // traffic (≈ mem_intensity of the current phase, scaled by how busy
        // the cores are).
        let mean_v = Volt::new(
            core_voltages
                .iter()
                .map(|v| v.clamp(self.cfg.v_min, self.cfg.v_max).value())
                .sum::<f64>()
                / self.cores.len() as f64,
        );
        let uncore_activity = sample.mem_intensity * sample.activity;
        let uncore_power = self.uncore.power(mean_v, uncore_activity);

        let leakage = total_core_power - total_dynamic;
        self.breakdown.record(total_dynamic, leakage, uncore_power, dt);

        self.last_power = total_core_power + uncore_power;
        self.last_power
    }

    /// Advance one tick through a borrowed [`StepFrame`] — the
    /// quantum-stepper kernel's entry point.
    ///
    /// Bit-identical to [`CpuChiplet::step`] (pinned by
    /// `step_into_matches_step` below and the golden-digest corpus), but
    /// engineered for the hot loop:
    ///
    /// * **Steady-tick replay.** When the core voltages, the phase sample
    ///   and `dt` repeat the previous tick bit-for-bit and no core is due
    ///   to resample its jitter, every core would compute exactly last
    ///   tick's outputs, so the tick replays the [`TickMemo`]'d sums (and
    ///   `last_ipc` already holds last tick's IPCs). Only the jitter
    ///   clocks, the program cursor, the breakdown and the power output
    ///   advance.
    /// * **Shared operating points.** Otherwise the per-voltage inputs
    ///   (a [`UnitPoint`]: frequency, leakage, `f / f_nominal`, progress
    ///   rate) are computed once per *distinct consecutive* core voltage
    ///   and shared across cores holding that voltage — under uniform
    ///   local-controller ratios that is one evaluation per tick instead
    ///   of one per core ([`Core::step`] also evaluates the frequency
    ///   curve twice and the leakage curve twice per call).
    ///
    /// # Panics
    /// Panics if `frame.voltages.len() != units()`.
    pub fn step_into(&mut self, frame: &mut StepFrame<'_>) {
        assert_eq!(
            frame.voltages.len(),
            self.cores.len(),
            "need one voltage per core"
        );
        let dt = frame.dt;
        let sample = self.program.sample();
        let phase = [sample.activity, sample.mem_intensity];
        if let Some(sums) = self.memo.probe(frame.voltages, phase, dt) {
            if !self.cores.iter().any(Core::jitter_due) {
                self.cores.iter_mut().for_each(Core::replay_tick);
                self.finish_tick(frame, sums);
                return;
            }
        }
        let mut total_core_power = Watt::ZERO;
        let mut total_dynamic = Watt::ZERO;
        let mut total_rate = 0.0;
        let mut v_sum = 0.0;
        let dt_ns = dt.as_nanos() as f64;
        // One-entry operating-point memo, keyed on the voltage's bit
        // pattern: the point is a pure function of the voltage and the
        // tick's sample, so reuse is value-identical to recomputation.
        let mut memo_v = f64::NAN.to_bits();
        let mut op = UnitPoint::default();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let v = frame.voltages[i].clamp(self.cfg.v_min, self.cfg.v_max);
            v_sum += v.value();
            if v.value().to_bits() != memo_v {
                op = core.operating_point(v, sample);
                memo_v = v.value().to_bits();
            }
            let out = core.step_at(v, &op, sample, dt);
            total_core_power += out.power;
            total_dynamic += out.power - op.leak;
            total_rate += out.work_ns / dt_ns;
            self.last_ipc[i] = out.ipc_fraction;
        }
        let mean_v = Volt::new(v_sum / self.cores.len() as f64);
        let uncore_activity = sample.mem_intensity * sample.activity;
        let sums = TickSums {
            avg_rate: total_rate / self.cores.len() as f64,
            unit_dynamic: total_dynamic,
            unit_power: total_core_power,
            uncore: self.uncore.power(mean_v, uncore_activity),
        };
        self.memo.fill(sums);
        self.finish_tick(frame, sums);
    }

    /// The per-tick tail shared by evaluated and replayed ticks: advance
    /// the program, record the breakdown, publish the chiplet power.
    #[inline]
    fn finish_tick(&mut self, frame: &mut StepFrame<'_>, sums: TickSums) {
        let dt = frame.dt;
        self.program.advance(sums.avg_rate * dt.as_nanos() as f64);
        let leakage = sums.unit_power - sums.unit_dynamic;
        self.breakdown
            .record(sums.unit_dynamic, leakage, sums.uncore, dt);
        self.last_power = sums.unit_power + sums.uncore;
        *frame.power_acc += self.last_power.value();
    }

    /// Per-core measured IPC fractions from the last step (local-controller
    /// inputs).
    pub fn ipc_fractions(&self) -> &[f64] {
        &self.last_ipc
    }

    /// Total chiplet power from the last step.
    pub fn power(&self) -> Watt {
        self.last_power
    }

    /// Program work completed so far, in nominal nanoseconds.
    pub fn work_done(&self) -> f64 {
        self.program.work_done()
    }

    /// McPAT-style energy breakdown.
    pub fn breakdown(&self) -> &PowerBreakdown {
        &self.breakdown
    }

    /// The name of the workload this chiplet runs.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }
}

impl hcapp_sim_core::state::Snapshot for CpuChiplet {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        for core in &self.cores {
            core.save_state(w);
        }
        self.program.save_state(w);
        w.f64_slice("cpu.last_ipc", &self.last_ipc);
        w.f64("cpu.last_power", self.last_power.0);
        self.breakdown.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        // The memo describes the pre-restore tick; even a failed partial
        // load must not replay it.
        self.memo.forget();
        for core in &mut self.cores {
            core.load_state(r)?;
        }
        self.program.load_state(r)?;
        let ipc = r.f64_vec("cpu.last_ipc")?;
        if ipc.len() != self.last_ipc.len() {
            return None;
        }
        self.last_ipc = ipc;
        self.last_power = Watt(r.f64("cpu.last_power")?);
        self.breakdown.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_workloads::benchmarks::Benchmark;

    fn chiplet(b: Benchmark) -> CpuChiplet {
        CpuChiplet::new(CpuConfig::default(), b.spec(), 42, 100)
    }

    fn run(c: &mut CpuChiplet, v: f64, ticks: usize) -> (f64, f64) {
        let volts = vec![Volt::new(v); c.units()];
        let dt = SimDuration::from_nanos(100);
        let mut energy = 0.0;
        for _ in 0..ticks {
            energy += c.step(&volts, dt).value() * dt.as_secs_f64();
        }
        (energy, c.work_done())
    }

    #[test]
    fn eight_units_by_default() {
        assert_eq!(chiplet(Benchmark::Swaptions).units(), 8);
    }

    /// Per-tick core voltages for the kernel-equivalence tests: 100-tick
    /// ramps whose voltage changes every tick (periodically spread per
    /// core, defeating the operating-point memo) alternate with held
    /// stretches of 10–700 ticks, uniform or spread per core, so the
    /// steady-tick replay runs across jitter resamples (every 500 ticks)
    /// and workload phase boundaries.
    fn equivalence_schedule(ticks: usize, n: usize) -> Vec<Vec<Volt>> {
        const HOLDS: [usize; 6] = [10, 700, 37, 501, 120, 640];
        let mut lanes = Vec::with_capacity(ticks);
        for k in 0.. {
            for t in 0..100u64 {
                lanes.push(
                    (0..n)
                        .map(|i| {
                            let spread = if t % 7 == 0 { 0.01 * i as f64 } else { 0.0 };
                            Volt::new(0.85 + 0.2 * (t as f64 / 100.0) + spread)
                        })
                        .collect(),
                );
            }
            let spread = if k % 2 == 1 { 0.01 } else { 0.0 };
            let held: Vec<Volt> = (0..n)
                .map(|i| Volt::new(0.85 + 0.03 * (k % 7) as f64 + spread * i as f64))
                .collect();
            lanes.extend(std::iter::repeat_n(held, HOLDS[k % HOLDS.len()]));
            if lanes.len() >= ticks {
                break;
            }
        }
        lanes.truncate(ticks);
        lanes
    }

    /// Carry `c` into a fresh chiplet through a checkpoint round trip.
    fn restored(c: &CpuChiplet, b: Benchmark) -> CpuChiplet {
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        let text = w.finish();
        let mut fresh = chiplet(b);
        fresh
            .load_state(&mut StateReader::new(&text))
            .expect("checkpoint round trip");
        fresh
    }

    fn assert_lockstep(
        t: usize,
        reference: &mut CpuChiplet,
        kernel: &mut CpuChiplet,
        volts: &[Volt],
    ) {
        use hcapp_sim_core::frame::StepFrame;
        let dt = SimDuration::from_nanos(100);
        let p_ref = reference.step(volts, dt).value();
        let mut acc = 0.0;
        kernel.step_into(&mut StepFrame::new(volts, dt, &mut acc));
        assert_eq!(p_ref.to_bits(), acc.to_bits(), "tick {t}: power diverged");
        assert_eq!(
            reference.ipc_fractions(),
            kernel.ipc_fractions(),
            "tick {t}: IPC diverged"
        );
        assert_eq!(
            reference.work_done().to_bits(),
            kernel.work_done().to_bits(),
            "tick {t}: cursor diverged"
        );
    }

    #[test]
    fn step_into_matches_step() {
        // The kernel entry point must be bit-identical to the reference
        // path — same power, same IPC, same workload cursor, same
        // breakdown — under per-core voltage spreads that defeat the
        // operating-point memo, and through held stretches that take the
        // steady-tick replay, including a checkpoint restore mid-hold.
        let mut reference = chiplet(Benchmark::Ferret);
        let mut kernel = chiplet(Benchmark::Ferret);
        let lanes = equivalence_schedule(20_000, reference.units());
        let restore_at = (5_000..lanes.len())
            .find(|&t| lanes[t - 1] == lanes[t] && lanes[t] == lanes[t + 1])
            .expect("schedule holds past tick 5000");
        for (t, volts) in lanes.iter().enumerate() {
            if t == restore_at {
                kernel = restored(&kernel, Benchmark::Ferret);
            }
            assert_lockstep(t, &mut reference, &mut kernel, volts);
        }
        assert_eq!(
            reference.breakdown().total_joules().to_bits(),
            kernel.breakdown().total_joules().to_bits()
        );
    }

    #[test]
    fn load_state_drops_the_replay_memo() {
        // Rewind both paths across a jitter resample inside one long hold:
        // the kernel's memo then holds post-resample sums under a key the
        // rewound tick repeats, so replaying it would diverge.
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let mut reference = chiplet(Benchmark::Ferret);
        let mut kernel = chiplet(Benchmark::Ferret);
        let volts = vec![Volt::new(0.95); reference.units()];
        let save = |c: &CpuChiplet| {
            let mut w = StateWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        for t in 0..300 {
            assert_lockstep(t, &mut reference, &mut kernel, &volts);
        }
        let (ref_ckpt, kernel_ckpt) = (save(&reference), save(&kernel));
        for t in 300..900 {
            assert_lockstep(t, &mut reference, &mut kernel, &volts);
        }
        reference
            .load_state(&mut StateReader::new(&ref_ckpt))
            .unwrap();
        kernel
            .load_state(&mut StateReader::new(&kernel_ckpt))
            .unwrap();
        for t in 300..900 {
            assert_lockstep(t, &mut reference, &mut kernel, &volts);
        }
    }

    #[test]
    fn power_positive_and_below_theoretical_peak() {
        let mut c = chiplet(Benchmark::Fluidanimate);
        let volts = vec![Volt::new(1.0); c.units()];
        let dt = SimDuration::from_nanos(100);
        let peak = c.config().peak_power_at(Volt::new(1.0)).value();
        for _ in 0..10_000 {
            let p = c.step(&volts, dt).value();
            assert!(p > 0.0);
            assert!(p <= peak * 1.0 + 1e-6, "power {p} above peak {peak}");
        }
    }

    #[test]
    fn higher_voltage_completes_more_work() {
        let mut slow = chiplet(Benchmark::Swaptions);
        let mut fast = chiplet(Benchmark::Swaptions);
        let (_, w_slow) = run(&mut slow, 0.85, 20_000);
        let (_, w_fast) = run(&mut fast, 1.15, 20_000);
        assert!(
            w_fast > w_slow * 1.2,
            "work {w_fast} vs {w_slow}: speedup too small"
        );
    }

    #[test]
    fn low_class_draws_less_than_hi_class() {
        let mut low = chiplet(Benchmark::Blackscholes);
        let mut hi = chiplet(Benchmark::Fluidanimate);
        let (e_low, _) = run(&mut low, 0.95, 50_000);
        let (e_hi, _) = run(&mut hi, 0.95, 50_000);
        assert!(e_hi > e_low * 1.3, "Hi {e_hi} J vs Low {e_low} J");
    }

    #[test]
    fn ipc_fractions_populated_and_bounded() {
        let mut c = chiplet(Benchmark::Ferret);
        let volts = vec![Volt::new(0.95); c.units()];
        c.step(&volts, SimDuration::from_nanos(100));
        assert_eq!(c.ipc_fractions().len(), 8);
        for &f in c.ipc_fractions() {
            assert!((0.0..=1.0).contains(&f), "ipc fraction {f} out of range");
        }
    }

    #[test]
    fn deterministic_replay() {
        let mut a = chiplet(Benchmark::Ferret);
        let mut b = chiplet(Benchmark::Ferret);
        let volts = vec![Volt::new(0.95); a.units()];
        let dt = SimDuration::from_nanos(100);
        for _ in 0..5_000 {
            let pa = a.step(&volts, dt);
            let pb = b.step(&volts, dt);
            assert_eq!(pa, pb);
        }
        assert_eq!(a.work_done(), b.work_done());
    }

    #[test]
    fn breakdown_energy_matches_integrated_power() {
        let mut c = chiplet(Benchmark::Swaptions);
        let (energy, _) = run(&mut c, 1.0, 10_000);
        let acc = c.breakdown().total_joules();
        assert!(
            (acc - energy).abs() < 1e-6 * energy.max(1.0),
            "breakdown {acc} J vs integrated {energy} J"
        );
    }

    #[test]
    #[should_panic(expected = "one voltage per core")]
    fn wrong_voltage_arity_panics() {
        let mut c = chiplet(Benchmark::Swaptions);
        let volts = vec![Volt::new(1.0); 3];
        c.step(&volts, SimDuration::from_nanos(100));
    }
}
