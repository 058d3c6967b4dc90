//! The stateless fault oracle.
//!
//! [`FaultInjector`] answers "is injection point X faulted at time T for
//! domain D, and how hard?" as a pure function of the plan seed — no
//! mutable PRNG stream, so the answer does not depend on query order. The
//! coordinator asks once per control quantum and hands the decisions to
//! the domains inside the per-quantum command, which is what lets a run
//! killed and resumed from a checkpoint replay the same faults without
//! serializing any injector state: domains never roll dice.
//!
//! Hashing uses the splitmix64 output finalizer (Steele et al.,
//! "Fast Splittable Pseudorandom Number Generators", OOPSLA'14) over a key
//! mixed from `(seed, point id, quantum index, domain index)`.

use crate::plan::{EpisodeSpec, FaultPlan, MAX_EPISODE_QUANTA};
use hcapp_pdn::{LinkFault, SensorFault};
use hcapp_sim_core::time::{SimDuration, SimTime};

/// A fault on the control hierarchy itself (decided per domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlFault {
    /// The domain controller ignores priority-register writes: the OS/
    /// coordinator can no longer re-prioritize the domain.
    DomainStuck,
    /// The local controllers stop evaluating: per-unit voltage ratios stay
    /// frozen at their last decision.
    LocalSilent,
}

/// Sentinel "domain" index for package-global injection points.
const GLOBAL: u64 = u64::MAX;

// Injection-point ids (part of the hash key, hence of the determinism
// contract — renumbering changes every seeded run).
const P_NOISE: u64 = 1;
const P_NOISE_MAG: u64 = 2;
const P_STUCK: u64 = 3;
const P_DROPOUT: u64 = 4;
const P_DROOP: u64 = 5;
const P_DROOP_MAG: u64 = 6;
const P_SLEW: u64 = 7;
const P_SLEW_MAG: u64 = 8;
const P_LINK_DELAY: u64 = 9;
const P_LINK_DELAY_MAG: u64 = 10;
const P_LINK_LOSS: u64 = 11;
const P_CTL_STUCK: u64 = 12;
const P_CTL_SILENT: u64 = 13;

/// splitmix64 output finalizer: a bijective avalanche over 64 bits.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash one (point, domain, quantum) cell of one plan's decision lattice.
fn cell(seed: u64, point: u64, domain: u64, quantum: u64) -> u64 {
    // The golden-gamma increment splitmix64 uses for stream separation.
    const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = mix64(seed ^ point.wrapping_mul(GAMMA));
    h = mix64(h ^ domain.wrapping_add(GAMMA));
    mix64(h ^ quantum)
}

/// Map a hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / 9_007_199_254_740_992.0
}

/// Deterministic per-run fault oracle over one [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    period_ns: u64,
}

impl FaultInjector {
    /// Build an injector for `plan`, quantized to the scheme's control
    /// `period` (faults are decided once per control quantum).
    ///
    /// # Panics
    /// Panics when the plan fails [`FaultPlan::validate`] or the period is
    /// zero.
    pub fn new(plan: FaultPlan, period: SimDuration) -> Self {
        plan.validate();
        assert!(!period.is_zero(), "control period must be positive");
        FaultInjector {
            period_ns: period.as_nanos(),
            plan,
        }
    }

    /// The plan this injector realizes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Quantum index of simulation time `t`.
    fn quantum(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.period_ns
    }

    /// The start quantum of the episode covering `quantum`, if any.
    ///
    /// Scans back over the (bounded) episode length for the most recent
    /// successful start roll; the newest start wins so magnitudes stay
    /// stable for the tail of an extended episode.
    fn episode_start(&self, spec: &EpisodeSpec, point: u64, domain: u64, quantum: u64) -> Option<u64> {
        if spec.is_off() {
            return None;
        }
        let dur = u64::from(spec.duration_quanta.min(MAX_EPISODE_QUANTA));
        let lo = quantum.saturating_sub(dur - 1);
        let mut q = quantum + 1;
        while q > lo {
            q -= 1;
            if unit_f64(cell(self.plan.seed, point, domain, q)) < spec.rate {
                return Some(q);
            }
        }
        None
    }

    /// The package power-sensor fault active at `t`, if any.
    ///
    /// Dropout dominates stuck-at dominates noise when episodes overlap.
    /// The noise factor is redrawn every quantum (white multiplicative
    /// noise, mean one).
    pub fn sensor_fault(&self, t: SimTime) -> Option<SensorFault> {
        let q = self.quantum(t);
        if self
            .episode_start(&self.plan.sensor_dropout, P_DROPOUT, GLOBAL, q)
            .is_some()
        {
            return Some(SensorFault::Dropout);
        }
        if self
            .episode_start(&self.plan.sensor_stuck, P_STUCK, GLOBAL, q)
            .is_some()
        {
            return Some(SensorFault::StuckAt);
        }
        self.episode_start(&self.plan.sensor_noise, P_NOISE, GLOBAL, q)
            .map(|_| {
                let u = unit_f64(cell(self.plan.seed, P_NOISE_MAG, GLOBAL, q));
                SensorFault::Noise {
                    factor: 1.0 + self.plan.noise_amplitude * (2.0 * u - 1.0),
                }
            })
    }

    /// The droop impulse (volts) to apply at `t`, if a droop episode starts
    /// exactly at this quantum. Droop is an impulse, not a level: the VR
    /// immediately begins slewing back toward its setpoint.
    pub fn vr_droop(&self, t: SimTime) -> Option<f64> {
        let q = self.quantum(t);
        self.episode_start(&self.plan.vr_droop, P_DROOP, GLOBAL, q)
            .filter(|&start| start == q)
            .map(|start| {
                let u = unit_f64(cell(self.plan.seed, P_DROOP_MAG, GLOBAL, start));
                self.plan.droop_depth * (0.25 + 0.75 * u)
            })
    }

    /// The VR slew-derating factor active at `t`, if any (uniform in
    /// `[slew_floor, 1)`, constant over an episode).
    pub fn vr_slew_derate(&self, t: SimTime) -> Option<f64> {
        let q = self.quantum(t);
        self.episode_start(&self.plan.vr_slew_derate, P_SLEW, GLOBAL, q)
            .map(|start| {
                let u = unit_f64(cell(self.plan.seed, P_SLEW_MAG, GLOBAL, start));
                self.plan.slew_floor + (1.0 - self.plan.slew_floor) * u
            })
    }

    /// The broadcast-link fault active at `t` for `domain`, if any. Loss
    /// dominates delay when episodes overlap.
    pub fn link_fault(&self, t: SimTime, domain: usize) -> Option<LinkFault> {
        let q = self.quantum(t);
        let d = domain as u64;
        if self
            .episode_start(&self.plan.link_loss, P_LINK_LOSS, d, q)
            .is_some()
        {
            return Some(LinkFault::Loss);
        }
        self.episode_start(&self.plan.link_delay, P_LINK_DELAY, d, q)
            .map(|start| {
                let h = cell(self.plan.seed, P_LINK_DELAY_MAG, d, start);
                LinkFault::Delay {
                    ticks: 1 + (h % u64::from(self.plan.delay_ticks)) as u32,
                }
            })
    }

    /// The controller fault active at `t` for `domain`, if any. A stuck
    /// domain controller dominates silent locals when episodes overlap.
    pub fn ctl_fault(&self, t: SimTime, domain: usize) -> Option<CtlFault> {
        let q = self.quantum(t);
        let d = domain as u64;
        if self
            .episode_start(&self.plan.ctl_stuck, P_CTL_STUCK, d, q)
            .is_some()
        {
            return Some(CtlFault::DomainStuck);
        }
        self.episode_start(&self.plan.ctl_silent, P_CTL_SILENT, d, q)
            .map(|_| CtlFault::LocalSilent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::time::{SimDuration, SimTime};

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    fn injector(seed: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan::severe(seed), SimDuration::from_micros(1))
    }

    #[test]
    fn decisions_are_pure_functions_of_the_seed() {
        let a = injector(42);
        let b = injector(42);
        for q in 0..2_000 {
            let t = us(q);
            assert_eq!(a.sensor_fault(t), b.sensor_fault(t));
            assert_eq!(a.vr_droop(t), b.vr_droop(t));
            assert_eq!(a.vr_slew_derate(t), b.vr_slew_derate(t));
            for d in 0..3 {
                assert_eq!(a.link_fault(t, d), b.link_fault(t, d));
                assert_eq!(a.ctl_fault(t, d), b.ctl_fault(t, d));
            }
        }
    }

    #[test]
    fn query_order_does_not_matter() {
        let inj = injector(7);
        let forward: Vec<_> = (0..500).map(|q| inj.ctl_fault(us(q), 1)).collect();
        let backward: Vec<_> = (0..500).rev().map(|q| inj.ctl_fault(us(q), 1)).collect();
        let reversed: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn different_seeds_differ() {
        let a = injector(1);
        let b = injector(2);
        let same = (0..4_000)
            .filter(|&q| a.sensor_fault(us(q)) == b.sensor_fault(us(q)))
            .count();
        assert!(same < 4_000, "seeds 1 and 2 produced identical sensor streams");
    }

    #[test]
    fn quiet_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::quiet(9), SimDuration::from_micros(1));
        for q in 0..5_000 {
            let t = us(q);
            assert_eq!(inj.sensor_fault(t), None);
            assert_eq!(inj.vr_droop(t), None);
            assert_eq!(inj.vr_slew_derate(t), None);
            assert_eq!(inj.link_fault(t, 0), None);
            assert_eq!(inj.ctl_fault(t, 0), None);
        }
    }

    #[test]
    fn episodes_respect_duration_bound() {
        // With rate r and duration d, a fault can stay active for long
        // stretches only through re-triggering; after d quanta with no
        // start roll succeeding, it must clear. Check the mechanical bound:
        // every active quantum is within d-1 of a successful start roll.
        let plan = FaultPlan {
            ctl_stuck: EpisodeSpec::new(0.05, 6),
            ..FaultPlan::quiet(11)
        };
        let inj = FaultInjector::new(plan, SimDuration::from_micros(1));
        let mut last_start: Option<u64> = None;
        let mut active_seen = 0u32;
        for q in 0..10_000u64 {
            let active = inj.ctl_fault(us(q), 2).is_some();
            // Recompute the raw start roll the injector uses internally.
            let start_roll = unit_f64(cell(11, P_CTL_STUCK, 2, q)) < 0.05;
            if start_roll {
                last_start = Some(q);
            }
            if active {
                active_seen += 1;
                let s = last_start.expect("active fault without a start roll");
                assert!(q - s < 6, "episode live {} quanta after its last start", q - s);
            }
        }
        assert!(active_seen > 0, "rate 0.05 never fired in 10k quanta");
    }

    #[test]
    fn severe_plan_fires_every_class_in_a_few_ms() {
        let inj = injector(7);
        let (mut noise, mut stuck, mut drop, mut droop, mut slew) = (0, 0, 0, 0, 0);
        let (mut delay, mut loss, mut dstuck, mut silent) = (0, 0, 0, 0);
        for q in 0..8_000 {
            let t = us(q);
            match inj.sensor_fault(t) {
                Some(SensorFault::Noise { .. }) => noise += 1,
                Some(SensorFault::StuckAt) => stuck += 1,
                Some(SensorFault::Dropout) => drop += 1,
                None => {}
            }
            droop += i32::from(inj.vr_droop(t).is_some());
            slew += i32::from(inj.vr_slew_derate(t).is_some());
            for d in 0..4 {
                match inj.link_fault(t, d) {
                    Some(LinkFault::Delay { ticks }) => {
                        assert!((1..=8).contains(&ticks));
                        delay += 1;
                    }
                    Some(LinkFault::Loss) => loss += 1,
                    None => {}
                }
                match inj.ctl_fault(t, d) {
                    Some(CtlFault::DomainStuck) => dstuck += 1,
                    Some(CtlFault::LocalSilent) => silent += 1,
                    None => {}
                }
            }
        }
        for (name, n) in [
            ("noise", noise),
            ("stuck", stuck),
            ("dropout", drop),
            ("droop", droop),
            ("slew", slew),
            ("delay", delay),
            ("loss", loss),
            ("ctl_stuck", dstuck),
            ("ctl_silent", silent),
        ] {
            assert!(n > 0, "severe plan never fired {name} in 8 ms");
        }
    }

    #[test]
    fn noise_factor_stays_in_band() {
        let inj = injector(5);
        for q in 0..20_000 {
            if let Some(SensorFault::Noise { factor }) = inj.sensor_fault(us(q)) {
                assert!((0.7..=1.3).contains(&factor), "noise factor {factor}");
            }
        }
    }
}
