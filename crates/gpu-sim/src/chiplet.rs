//! The 15-SM GPU chiplet.
//!
//! Structure mirrors `hcapp_cpu_sim::chiplet`: a shared workload program
//! (Rodinia kernels launch across all SMs), per-SM jitter, an uncore (L2 +
//! memory controllers) and a GPUWattch-style energy breakdown.

use hcapp_power_model::breakdown::PowerBreakdown;
use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::{StepFrame, TickMemo, TickSums, UnitPoint};
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::program::{WorkloadProgram, WorkloadSource};

use crate::config::GpuConfig;
use crate::sm::StreamingMultiprocessor;
use crate::warp::WarpModel;

/// The GPU chiplet simulator.
#[derive(Debug, Clone)]
pub struct GpuChiplet {
    cfg: GpuConfig,
    sms: Vec<StreamingMultiprocessor>,
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
        let sms = (0..cfg.sms)
            .map(|i| {
                StreamingMultiprocessor::new(
                    sm_model.clone(),
                    warp,
                    f_nominal,
                    cfg.sm_jitter_std,
                    jitter_ticks,
                    DeterministicRng::derive(seed, stream_base + 1 + i as u64),
                )
            })
            .collect();
        let program = workload.instantiate(seed, stream_base);
        GpuChiplet {
            last_ipc: vec![0.0; cfg.sms],
            memo: TickMemo::new(cfg.sms),
            cfg,
            sms,
            uncore,
            workload_name: workload.name().to_string(),
            program,
            last_power: Watt::ZERO,
            breakdown: PowerBreakdown::new(),
        }
    }

    /// Number of locally-controllable units (SMs).
    pub fn units(&self) -> usize {
        self.sms.len()
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
        assert_eq!(
            sm_voltages.len(),
            self.sms.len(),
            "need one voltage per SM"
        );
        let sample = self.program.sample();
        let mut total_sm_power = Watt::ZERO;
        let mut total_dynamic = Watt::ZERO;
        let mut total_rate = 0.0;
        let dt_ns = dt.as_nanos() as f64;
        for (i, sm) in self.sms.iter_mut().enumerate() {
            let v = sm_voltages[i].clamp(self.cfg.v_min, self.cfg.v_max);
            let out = sm.step(v, sample, dt);
            total_sm_power += out.power;
            total_dynamic += out.power - sm.model().leakage_power(v);
            total_rate += out.work_ns / dt_ns;
            self.last_ipc[i] = out.ipc_fraction;
        }
        let avg_rate = total_rate / self.sms.len() as f64;
        self.program.advance(avg_rate * dt_ns);

        let mean_v = Volt::new(
            sm_voltages
                .iter()
                .map(|v| v.clamp(self.cfg.v_min, self.cfg.v_max).value())
                .sum::<f64>()
                / self.sms.len() as f64,
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
    /// tick, no SM due to resample its jitter) replays the [`TickMemo`]'d
    /// sums, and otherwise the per-voltage inputs (a `UnitPoint`) are
    /// computed once per distinct consecutive SM voltage.
    ///
    /// # Panics
    /// Panics if `frame.voltages.len() != units()`.
    pub fn step_into(&mut self, frame: &mut StepFrame<'_>) {
        assert_eq!(
            frame.voltages.len(),
            self.sms.len(),
            "need one voltage per SM"
        );
        let dt = frame.dt;
        let sample = self.program.sample();
        let phase = [sample.activity, sample.mem_intensity];
        if let Some(sums) = self.memo.probe(frame.voltages, phase, dt) {
            if !self.sms.iter().any(StreamingMultiprocessor::jitter_due) {
                self.sms
                    .iter_mut()
                    .for_each(StreamingMultiprocessor::replay_tick);
                self.finish_tick(frame, sums);
                return;
            }
        }
        let mut total_sm_power = Watt::ZERO;
        let mut total_dynamic = Watt::ZERO;
        let mut total_rate = 0.0;
        let mut v_sum = 0.0;
        let dt_ns = dt.as_nanos() as f64;
        let mut memo_v = f64::NAN.to_bits();
        let mut op = UnitPoint::default();
        for (i, sm) in self.sms.iter_mut().enumerate() {
            let v = frame.voltages[i].clamp(self.cfg.v_min, self.cfg.v_max);
            v_sum += v.value();
            if v.value().to_bits() != memo_v {
                op = sm.operating_point(v, sample);
                memo_v = v.value().to_bits();
            }
            let out = sm.step_at(v, &op, sample, dt);
            total_sm_power += out.power;
            total_dynamic += out.power - op.leak;
            total_rate += out.work_ns / dt_ns;
            self.last_ipc[i] = out.ipc_fraction;
        }
        let mean_v = Volt::new(v_sum / self.sms.len() as f64);
        let uncore_activity = sample.mem_intensity * sample.activity;
        let sums = TickSums {
            avg_rate: total_rate / self.sms.len() as f64,
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
        for sm in &self.sms {
            sm.save_state(w);
        }
        self.program.save_state(w);
        w.f64_slice("gpu.last_ipc", &self.last_ipc);
        w.f64("gpu.last_power", self.last_power.0);
        self.breakdown.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        // The memo describes the pre-restore tick; even a failed partial
        // load must not replay it.
        self.memo.forget();
        for sm in &mut self.sms {
            sm.load_state(r)?;
        }
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
