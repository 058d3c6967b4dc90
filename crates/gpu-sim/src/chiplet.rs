//! The 15-SM GPU chiplet.
//!
//! Structure mirrors `hcapp_cpu_sim::chiplet`: a shared workload program
//! (Rodinia kernels launch across all SMs), per-SM jitter, an uncore (L2 +
//! memory controllers) and a GPUWattch-style energy breakdown. The SMs are
//! lanes, as the CPU's cores are: one [`SmModel`], the SMs' jitter in
//! [`JitterLanes`] on one resample clock, and per-SM utilization,
//! operating-point and IPC lanes.

use hcapp_power_model::breakdown::PowerBreakdown;
use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::{StepFrame, TickMemo, TickSums, UnitPoint};
use hcapp_sim_core::jitter::JitterLanes;
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::program::{WorkloadProgram, WorkloadSource};

use crate::config::GpuConfig;
use crate::sm::SmModel;
use crate::warp::WarpModel;

/// The GPU chiplet simulator.
#[derive(Debug, Clone)]
pub struct GpuChiplet {
    cfg: GpuConfig,
    /// The model every SM shares.
    sm: SmModel,
    /// Per-SM activity jitter and random streams on one resample clock.
    jitter: JitterLanes,
    /// Per-SM issue utilization of the last evaluated tick.
    utilization: Vec<f64>,
    /// The phase activity's bits and the jitter generation the
    /// utilization lane was computed from (`None` before the first
    /// evaluation).
    lane_key: Option<(u64, u64)>,
    /// Per-SM operating point of the last evaluated tick (scratch).
    points: Vec<UnitPoint>,
    uncore: ComponentPowerModel,
    program: WorkloadProgram,
    workload_name: String,
    last_ipc: Vec<f64>,
    last_power: Watt,
    breakdown: PowerBreakdown,
    /// The previous kernel tick, replayed while the inputs repeat (a
    /// cache: not checkpointed, dropped by `load_state`).
    memo: TickMemo,
}

impl GpuChiplet {
    /// Build a chiplet running `workload` (a [`BenchmarkSpec`] or a recorded
    /// trace via [`WorkloadSource`]), with randomness derived from
    /// `(seed, stream_base)`.
    ///
    /// [`BenchmarkSpec`]: hcapp_workloads::spec::BenchmarkSpec
    pub fn new(
        cfg: GpuConfig,
        workload: impl Into<WorkloadSource>,
        seed: u64,
        stream_base: u64,
    ) -> Self {
        let workload = workload.into();
        cfg.validate();
        let fm = cfg.frequency_model();
        let sm_model = ComponentPowerModel::calibrated(
            fm.clone(),
            cfg.v_nominal,
            cfg.sm_peak_dynamic,
            cfg.sm_leakage,
        );
        let uncore = ComponentPowerModel::calibrated(
            fm,
            cfg.v_nominal,
            cfg.uncore_peak_dynamic,
            cfg.uncore_leakage,
        );
        let f_nominal = sm_model.frequency(cfg.v_nominal).value();
        let warp = WarpModel::new(cfg.max_warps, cfg.warp_half_occupancy);
        let jitter_ticks = (cfg.jitter_resample_ns / 100).max(1);
        let rngs = (0..cfg.sms)
            .map(|i| DeterministicRng::derive(seed, stream_base + 1 + i as u64))
            .collect();
        let jitter = JitterLanes::new(
            cfg.sm_jitter_std,
            jitter_ticks,
            rngs,
            ["sm.jitter", "sm.jitter_countdown"],
        );
        let program = workload.instantiate(seed, stream_base);
        GpuChiplet {
            last_ipc: vec![0.0; cfg.sms],
            utilization: vec![0.0; cfg.sms],
            lane_key: None,
            points: vec![UnitPoint::default(); cfg.sms],
            memo: TickMemo::new(cfg.sms),
            cfg,
            sm: SmModel::new(sm_model, warp, f_nominal),
            jitter,
            uncore,
            workload_name: workload.name().to_string(),
            program,
            last_power: Watt::ZERO,
            breakdown: PowerBreakdown::new(),
        }
    }

    /// Number of locally-controllable units (SMs).
    pub fn units(&self) -> usize {
        self.jitter.len()
    }

    /// The chiplet configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Advance one tick with one supply voltage per SM. Returns total
    /// chiplet power.
    ///
    /// # Panics
    /// Panics if `sm_voltages.len() != units()`.
    pub fn step(&mut self, sm_voltages: &[Volt], dt: SimDuration) -> Watt {
        assert_eq!(sm_voltages.len(), self.units(), "need one voltage per SM");
        let sample = self.program.sample();
        self.jitter.tick();
        let mut total_sm_power = Watt::ZERO;
        let mut total_dynamic = Watt::ZERO;
        let mut total_rate = 0.0;
        let dt_ns = dt.as_nanos() as f64;
        let sms = sm_voltages
            .iter()
            .zip(self.jitter.values())
            .zip(&mut self.last_ipc);
        for ((v, &jitter), ipc) in sms {
            let v = v.clamp(self.cfg.v_min, self.cfg.v_max);
            let out = self.sm.step(v, jitter, sample, dt);
            total_sm_power += out.power;
            total_dynamic += out.power - self.sm.model().leakage_power(v);
            total_rate += out.work_ns / dt_ns;
            *ipc = out.ipc_fraction;
        }
        let avg_rate = total_rate / self.units() as f64;
        self.program.advance(avg_rate * dt_ns);

        let mean_v = Volt::new(
            sm_voltages
                .iter()
                .map(|v| v.clamp(self.cfg.v_min, self.cfg.v_max).value())
                .sum::<f64>()
                / self.units() as f64,
        );
        let uncore_activity = sample.mem_intensity * sample.activity;
        let uncore_power = self.uncore.power(mean_v, uncore_activity);

        let leakage = total_sm_power - total_dynamic;
        self.breakdown.record(total_dynamic, leakage, uncore_power, dt);

        self.last_power = total_sm_power + uncore_power;
        self.last_power
    }

    /// Advance one tick through a borrowed [`StepFrame`] — the
    /// quantum-stepper kernel's entry point.
    ///
    /// Bit-identical to [`GpuChiplet::step`] (pinned by
    /// `step_into_matches_step` below and the golden-digest corpus), with
    /// the same two hot-loop savings as the CPU chiplet: a steady tick
    /// (SM voltages, phase sample and `dt` bit-identical to the previous
    /// tick, the SMs not due to resample their jitter) is a one-tick
    /// [`GpuChiplet::replay_span`] of the [`TickMemo`]'d sums, and
    /// otherwise the tick runs on hoisted lanes: a [`UnitPoint`] per
    /// distinct consecutive SM voltage, the utilization lane (recomputed
    /// only when the phase activity or the jitter generation moved), one loop
    /// summing in SM order and one loop writing the IPC lane, each SM's
    /// outputs being [`SmModel::step`]'s operations on the same operands.
    ///
    /// # Panics
    /// Panics if `frame.voltages.len() != units()`.
    pub fn step_into(&mut self, frame: &mut StepFrame<'_>) {
        let acc = std::slice::from_mut(frame.power_acc);
        if self.replay_span(frame.voltages, frame.dt, acc) == 1 {
            return;
        }
        self.evaluate_into(frame);
    }

    /// [`GpuChiplet::step_into`] without the steady-tick replay check: always
    /// the full evaluation on hoisted lanes. For a caller that has just
    /// seen [`GpuChiplet::replay_span`] refuse the tick or stop short of
    /// it, where the one-tick check would only refuse again; either path
    /// gives the same tick bit for bit.
    ///
    /// # Panics
    /// Panics if `frame.voltages.len() != units()`.
    pub fn evaluate_into(&mut self, frame: &mut StepFrame<'_>) {
        assert_eq!(
            frame.voltages.len(),
            self.units(),
            "need one voltage per SM"
        );
        let dt = frame.dt;
        let sample = self.program.sample();
        self.memo
            .key(frame.voltages, [sample.activity, sample.mem_intensity], dt);
        self.jitter.tick();
        let dt_ns = dt.as_nanos() as f64;
        let mut v_sum = 0.0;
        let mut memo_v = f64::NAN.to_bits();
        let mut op = UnitPoint::default();
        for (point, v) in self.points.iter_mut().zip(frame.voltages) {
            let v = v.clamp(self.cfg.v_min, self.cfg.v_max);
            v_sum += v.value();
            if v.value().to_bits() != memo_v {
                op = self.sm.point(v, sample, dt_ns);
                memo_v = v.value().to_bits();
            }
            *point = op;
        }
        // The lane is a pure function of the phase activity and the
        // jitter values, which hold while the generation does: recompute
        // it only when either moved.
        let lane_key = Some((sample.activity.to_bits(), self.jitter.generation()));
        if self.lane_key != lane_key {
            for (u, &jitter) in self.utilization.iter_mut().zip(self.jitter.values()) {
                *u = self.sm.utilization(sample.activity, jitter);
            }
            self.lane_key = lane_key;
        }
        let mut total_sm_power = Watt::ZERO;
        let mut total_dynamic = Watt::ZERO;
        let mut total_rate = 0.0;
        for (op, &u) in self.points.iter().zip(&self.utilization) {
            let power = Watt::new(op.switched * u.clamp(0.0, 1.0)) + op.leak;
            total_sm_power += power;
            total_dynamic += power - op.leak;
            let work_ns = if u > 0.0 { op.work_per_tick * u } else { 0.0 };
            total_rate += work_ns / dt_ns;
        }
        for ((ipc, op), &u) in self
            .last_ipc
            .iter_mut()
            .zip(&self.points)
            .zip(&self.utilization)
        {
            *ipc = u / op.ipc_denom;
        }
        let mean_v = Volt::new(v_sum / self.units() as f64);
        let uncore_activity = sample.mem_intensity * sample.activity;
        let sums = TickSums {
            avg_rate: total_rate / self.units() as f64,
            unit_dynamic: total_dynamic,
            unit_power: total_sm_power,
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

    /// Replay a steady span: up to `power_acc.len()` consecutive ticks at
    /// the SM voltages `voltages` (constant over the span), adding each
    /// tick's chiplet power into its slot. Returns how many ticks it
    /// replayed (0 when the span's preconditions fail). Same contract as
    /// `CpuChiplet::replay_span`: a full [`TickMemo`] key match to start,
    /// a stop before any phase change or SM jitter resample, the memo'd
    /// sums replayed per tick and the shared jitter clock advanced once. Pinned
    /// by `replay_span_matches_step_into` below.
    pub fn replay_span(
        &mut self,
        voltages: &[Volt],
        dt: SimDuration,
        power_acc: &mut [f64],
    ) -> usize {
        let sample = self.program.sample();
        let phase = [sample.activity, sample.mem_intensity];
        let Some(sums) = self.memo.peek(voltages, phase, dt) else {
            return 0;
        };
        let budget = self.jitter.replayable_ticks();
        let max_ticks = power_acc
            .len()
            .min(usize::try_from(budget).unwrap_or(usize::MAX));
        let work_ns = sums.avg_rate * dt.as_nanos() as f64;
        let ticks = self.program.advance_span(work_ns, max_ticks);
        if ticks == 0 {
            return 0;
        }
        let leakage = sums.unit_power - sums.unit_dynamic;
        self.breakdown
            .record_ticks(sums.unit_dynamic, leakage, sums.uncore, dt, ticks);
        let power = sums.unit_power + sums.uncore;
        for slot in power_acc.iter_mut().take(ticks) {
            *slot += power.value();
        }
        self.last_power = power;
        self.jitter.replay_ticks(ticks as u64);
        ticks
    }

    /// Per-SM measured IPC fractions from the last step.
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

    /// GPUWattch-style energy breakdown.
    pub fn breakdown(&self) -> &PowerBreakdown {
        &self.breakdown
    }

    /// The name of the workload this chiplet runs.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }
}

impl hcapp_sim_core::state::Snapshot for GpuChiplet {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.jitter.save_state(w);
        self.program.save_state(w);
        w.f64_slice("gpu.last_ipc", &self.last_ipc);
        w.f64("gpu.last_power", self.last_power.0);
        self.breakdown.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        // The memo describes the pre-restore tick; even a failed partial
        // load must not replay it.
        self.memo.forget();
        self.jitter.load_state(r)?;
        self.program.load_state(r)?;
        let ipc = r.f64_vec("gpu.last_ipc")?;
        if ipc.len() != self.last_ipc.len() {
            return None;
        }
        self.last_ipc = ipc;
        self.last_power = Watt(r.f64("gpu.last_power")?);
        self.breakdown.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_workloads::benchmarks::Benchmark;

    fn chiplet(b: Benchmark) -> GpuChiplet {
        GpuChiplet::new(GpuConfig::default(), b.spec(), 42, 200)
    }

    fn run(c: &mut GpuChiplet, v: f64, ticks: usize) -> (f64, f64) {
        let volts = vec![Volt::new(v); c.units()];
        let dt = SimDuration::from_nanos(100);
        let mut energy = 0.0;
        for _ in 0..ticks {
            energy += c.step(&volts, dt).value() * dt.as_secs_f64();
        }
        (energy, c.work_done())
    }

    #[test]
    fn fifteen_units_by_default() {
        assert_eq!(chiplet(Benchmark::Backprop).units(), 15);
    }

    /// Per-tick SM voltages for the kernel-equivalence tests: 90-tick
    /// ramps whose voltage changes every tick (periodically spread per SM,
    /// defeating the operating-point memo) alternate with held stretches
    /// of 10–700 ticks, uniform or spread per SM, so the steady-tick
    /// replay runs across jitter resamples (every 500 ticks) and kernel
    /// phase boundaries.
    fn equivalence_schedule(ticks: usize, n: usize) -> Vec<Vec<Volt>> {
        const HOLDS: [usize; 6] = [10, 700, 37, 501, 120, 640];
        let mut lanes = Vec::with_capacity(ticks);
        for k in 0.. {
            for t in 0..90u64 {
                lanes.push(
                    (0..n)
                        .map(|i| {
                            let spread = if t % 11 == 0 { 0.005 * i as f64 } else { 0.0 };
                            Volt::new(0.55 + 0.3 * (t as f64 / 90.0) + spread)
                        })
                        .collect(),
                );
            }
            let spread = if k % 2 == 1 { 0.005 } else { 0.0 };
            let held: Vec<Volt> = (0..n)
                .map(|i| Volt::new(0.6 + 0.04 * (k % 7) as f64 + spread * i as f64))
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
    fn restored(c: &GpuChiplet, b: Benchmark) -> GpuChiplet {
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
        reference: &mut GpuChiplet,
        kernel: &mut GpuChiplet,
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
        // Kernel entry point vs reference path: bit-identical power, IPC,
        // cursor and breakdown, under uniform and spread SM voltages, and
        // through held stretches that take the steady-tick replay,
        // including a checkpoint restore mid-hold.
        let mut reference = chiplet(Benchmark::Bfs);
        let mut kernel = chiplet(Benchmark::Bfs);
        let lanes = equivalence_schedule(20_000, reference.units());
        let restore_at = (5_000..lanes.len())
            .find(|&t| lanes[t - 1] == lanes[t] && lanes[t] == lanes[t + 1])
            .expect("schedule holds past tick 5000");
        for (t, volts) in lanes.iter().enumerate() {
            if t == restore_at {
                kernel = restored(&kernel, Benchmark::Bfs);
            }
            assert_lockstep(t, &mut reference, &mut kernel, volts);
        }
        assert_eq!(
            reference.breakdown().total_joules().to_bits(),
            kernel.breakdown().total_joules().to_bits()
        );
    }

    #[test]
    fn evaluate_into_matches_step_through_held_stretches() {
        // The full evaluation without the replay check, on every third tick
        // of the equivalence schedule (held ticks included, where
        // `step_into` would replay), and `step_into` on the others, so a
        // replay also starts from a memo that `evaluate_into` filled. Both
        // must match the reference path bit for bit.
        use hcapp_sim_core::frame::StepFrame;
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        let save = |c: &GpuChiplet| {
            let mut w = StateWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        let dt = SimDuration::from_nanos(100);
        let mut reference = chiplet(Benchmark::Bfs);
        let mut kernel = chiplet(Benchmark::Bfs);
        let lanes = equivalence_schedule(6_000, reference.units());
        for (t, volts) in lanes.iter().enumerate() {
            let p_ref = reference.step(volts, dt).value();
            let mut acc = 0.0;
            let mut frame = StepFrame::new(volts, dt, &mut acc);
            if t % 3 == 0 {
                kernel.evaluate_into(&mut frame);
            } else {
                kernel.step_into(&mut frame);
            }
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
        assert_eq!(save(&reference), save(&kernel));
        assert_eq!(
            reference.breakdown().total_joules().to_bits(),
            kernel.breakdown().total_joules().to_bits()
        );
    }

    #[test]
    fn lanes_match_per_unit_step_with_spread_voltages() {
        // A new voltage for every SM on every tick, equal for
        // neighbouring pairs, so each tick is a full evaluation whose point
        // lane both shares and recomputes points; 1 300 ticks cross two
        // jitter resamples (every 500 ticks). The hoisted lanes must match
        // the per-unit reference bit for bit: power, IPCs and cursor every
        // tick, the checkpoint text around each resample.
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        let save = |c: &GpuChiplet| {
            let mut w = StateWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        let mut reference = chiplet(Benchmark::Bfs);
        let mut kernel = chiplet(Benchmark::Bfs);
        let n = reference.units();
        for t in 0..1_300 {
            let volts: Vec<Volt> = (0..n)
                .map(|i| Volt::new(0.55 + 0.002 * ((t + i / 2 * 7) % 97) as f64))
                .collect();
            assert_lockstep(t, &mut reference, &mut kernel, &volts);
            if t % 500 >= 498 || t % 500 <= 1 {
                assert_eq!(save(&reference), save(&kernel), "tick {t}");
            }
        }
    }

    #[test]
    fn lanes_match_per_unit_step_across_resample_phase_and_restore() {
        // Voltages held per SM pair for the whole run, and every tick a
        // full evaluation, so every tick reads the cached lane: across
        // jitter resamples (every 500 ticks), across a phase change that
        // keeps the activity but moves the memory intensity, and across a
        // rewind of the same chiplet from after a resample to a checkpoint
        // taken before it, at the same phase activity.
        use hcapp_sim_core::frame::StepFrame;
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        use hcapp_workloads::{Phase, PhaseTrace};
        let save = |c: &GpuChiplet| {
            let mut w = StateWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        let trace = std::sync::Arc::new(PhaseTrace::new(
            "lanes",
            vec![
                Phase::new(0.6, 0.2, 8_000.0),
                Phase::new(0.6, 0.7, 60_000.0),
                Phase::new(0.9, 0.4, 20_000.0),
            ],
        ));
        let mut reference = GpuChiplet::new(GpuConfig::default(), trace, 42, 100);
        let mut kernel = reference.clone();
        let n = reference.units();
        let volts: Vec<Volt> = (0..n)
            .map(|i| Volt::new(0.8 + 0.01 * (i / 2) as f64))
            .collect();
        let dt = SimDuration::from_nanos(100);
        let (checkpoint_at, rewind_at) = (400, 700);
        let mut checkpoint = None;
        let mut kept_across_mem_change = false;
        let mut last_sample = None;
        for t in 0..2_400 {
            if t == checkpoint_at {
                checkpoint = Some((save(&reference), kernel.program.sample()));
            }
            if t == rewind_at {
                let (text, then) = checkpoint.take().expect("checkpoint taken");
                let now = kernel.program.sample();
                assert_eq!(
                    now.activity.to_bits(),
                    then.activity.to_bits(),
                    "fixture: same activity"
                );
                let generation = kernel.jitter.generation();
                for c in [&mut reference, &mut kernel] {
                    c.load_state(&mut StateReader::new(&text)).expect("rewind");
                }
                assert!(generation > 1, "fixture: a resample before the rewind");
            }
            let (sample, key) = (kernel.program.sample(), kernel.lane_key);
            let p_ref = reference.step(&volts, dt).value();
            let mut acc = 0.0;
            kernel.evaluate_into(&mut StepFrame::new(&volts, dt, &mut acc));
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
            if let Some(last) = last_sample.replace(sample) {
                kept_across_mem_change |= last.activity == sample.activity
                    && last.mem_intensity != sample.mem_intensity
                    && key == kernel.lane_key;
            }
        }
        assert!(
            kept_across_mem_change,
            "fixture: no activity-keeping phase change"
        );
        assert_eq!(save(&reference), save(&kernel));
    }

    #[test]
    fn restore_rejects_a_jitter_countdown_above_the_period() {
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let c = chiplet(Benchmark::Bfs);
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        let text = w.finish();
        let tag = "sm.jitter_countdown";
        let full = format!("{tag} 500");
        assert_eq!(
            text.matches(&full).count(),
            c.units(),
            "fixture: a fresh clock is full"
        );
        let mut fresh = chiplet(Benchmark::Bfs);
        assert!(fresh.load_state(&mut StateReader::new(&text)).is_some());
        let over = text.replace(&full, &format!("{tag} 501"));
        assert!(fresh.load_state(&mut StateReader::new(&over)).is_none());
    }

    #[test]
    fn restore_rejects_units_whose_jitter_countdowns_differ() {
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let c = chiplet(Benchmark::Bfs);
        let mut w = StateWriter::new();
        c.save_state(&mut w);
        let text = w.finish();
        let tag = "sm.jitter_countdown";
        // The last unit alone falls one tick behind the shared clock.
        let at = text
            .rfind(&format!("{tag} 500"))
            .expect("fixture names the countdown");
        let skewed = format!("{}{tag} 499{}", &text[..at], &text[at + tag.len() + 4..]);
        let mut fresh = chiplet(Benchmark::Bfs);
        assert!(fresh.load_state(&mut StateReader::new(&skewed)).is_none());
    }

    #[test]
    fn replay_span_matches_step_into() {
        // Twin chiplets: `stepped` takes every tick through `step_into`;
        // `spanned` hands each held stretch of the schedule to
        // `replay_span` and steps only the ticks a span refuses, as
        // `Domain::run_quantum` does. The held stretches (10–700 ticks)
        // cross jitter resamples (every 500 ticks) and workload phase
        // boundaries, so spans stop short. At every span end the power
        // slots, the IPCs and the checkpoint text must match bit for bit.
        use hcapp_sim_core::frame::StepFrame;
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        let save = |c: &GpuChiplet| {
            let mut w = StateWriter::new();
            c.save_state(&mut w);
            w.finish()
        };
        let dt = SimDuration::from_nanos(100);
        let mut stepped = chiplet(Benchmark::Backprop);
        let mut spanned = chiplet(Benchmark::Backprop);
        let lanes = equivalence_schedule(20_000, stepped.units());
        let mut want = vec![0.0; lanes.len()];
        let mut got = vec![0.0; lanes.len()];
        let (mut t, mut spans, mut cut_short, mut replayed) = (0, 0, 0, 0);
        while t < lanes.len() {
            let volts = &lanes[t];
            let held = t > 0 && lanes[t - 1] == *volts;
            let stretch = if held {
                lanes[t..].iter().take_while(|v| *v == volts).count()
            } else {
                1
            };
            let mut ticks = spanned.replay_span(volts, dt, &mut got[t..t + stretch]);
            if ticks == 0 {
                spanned.step_into(&mut StepFrame::new(volts, dt, &mut got[t]));
                ticks = 1;
            } else {
                assert!(held, "tick {t}: span accepted voltages the memo never saw");
                spans += 1;
                replayed += ticks;
                cut_short += usize::from(ticks < stretch);
            }
            for (v, slot) in lanes[t..t + ticks].iter().zip(&mut want[t..t + ticks]) {
                stepped.step_into(&mut StepFrame::new(v, dt, slot));
            }
            for u in t..t + ticks {
                assert_eq!(
                    want[u].to_bits(),
                    got[u].to_bits(),
                    "tick {u}: power diverged"
                );
            }
            assert_eq!(stepped.ipc_fractions(), spanned.ipc_fractions(), "tick {t}");
            if ticks > 1 {
                assert_eq!(
                    save(&stepped),
                    save(&spanned),
                    "span ending at tick {}",
                    t + ticks
                );
            }
            t += ticks;
        }
        assert_eq!(save(&stepped), save(&spanned));
        assert!(replayed > lanes.len() / 2, "only {replayed} ticks replayed");
        assert!(cut_short > 10, "{cut_short} of {spans} spans stopped short");
    }

    #[test]
    fn load_state_drops_the_replay_memo() {
        // Rewind both paths across a jitter resample inside one long hold:
        // the kernel's memo then holds post-resample sums under a key the
        // rewound tick repeats, so replaying it would diverge.
        use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
        let mut reference = chiplet(Benchmark::Bfs);
        let mut kernel = chiplet(Benchmark::Bfs);
        let volts = vec![Volt::new(0.7); reference.units()];
        let save = |c: &GpuChiplet| {
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
    fn power_bounded_by_peak() {
        let mut c = chiplet(Benchmark::Backprop);
        let volts = vec![Volt::new(0.72); c.units()];
        let dt = SimDuration::from_nanos(100);
        let peak = c.config().peak_power_at(Volt::new(0.72)).value();
        for _ in 0..10_000 {
            let p = c.step(&volts, dt).value();
            assert!(p > 0.0 && p <= peak + 1e-6, "power {p} vs peak {peak}");
        }
    }

    #[test]
    fn myocyte_draws_much_less_than_backprop() {
        let mut low = chiplet(Benchmark::Myocyte);
        let mut hi = chiplet(Benchmark::Backprop);
        let (e_low, _) = run(&mut low, 0.72, 50_000);
        let (e_hi, _) = run(&mut hi, 0.72, 50_000);
        assert!(e_hi > e_low * 1.5, "Hi {e_hi} J vs Low {e_low} J");
    }

    #[test]
    fn voltage_scales_work() {
        let mut slow = chiplet(Benchmark::Sradv2);
        let mut fast = chiplet(Benchmark::Sradv2);
        let (_, w_slow) = run(&mut slow, 0.55, 20_000);
        let (_, w_fast) = run(&mut fast, 0.90, 20_000);
        assert!(w_fast > w_slow * 1.3);
    }

    #[test]
    fn deterministic_replay() {
        let mut a = chiplet(Benchmark::Bfs);
        let mut b = chiplet(Benchmark::Bfs);
        let volts = vec![Volt::new(0.7); a.units()];
        let dt = SimDuration::from_nanos(100);
        for _ in 0..5_000 {
            assert_eq!(a.step(&volts, dt), b.step(&volts, dt));
        }
        assert_eq!(a.work_done(), b.work_done());
    }

    #[test]
    fn breakdown_consistency() {
        let mut c = chiplet(Benchmark::Backprop);
        let (energy, _) = run(&mut c, 0.72, 10_000);
        let acc = c.breakdown().total_joules();
        assert!((acc - energy).abs() < 1e-6 * energy.max(1.0));
    }

    #[test]
    fn ipc_fractions_bounded() {
        let mut c = chiplet(Benchmark::Myocyte);
        let volts = vec![Volt::new(0.72); c.units()];
        c.step(&volts, SimDuration::from_nanos(100));
        for &f in c.ipc_fractions() {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "one voltage per SM")]
    fn wrong_arity_panics() {
        let mut c = chiplet(Benchmark::Bfs);
        c.step(&[Volt::new(0.7)], SimDuration::from_nanos(100));
    }
}
