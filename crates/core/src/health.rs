//! Graceful degradation: health watchdogs and the emergency throttle.
//!
//! The fault injector (`hcapp-faults`) is an *oracle* — it knows what it
//! broke. The controllers must not: a production power controller only
//! ever sees symptoms (a reading that stopped changing, a domain that
//! stopped answering). Everything in this module is therefore driven by
//! observable signals:
//!
//! * [`SensorWatchdog`] — watches the package power reading the global
//!   controller consumes. Bit-identical consecutive readings are the
//!   symptom of a stuck/dead sense path (quantization makes long accidental
//!   freezes of a live ~100 W signal vanishingly rare); after enough frozen
//!   steps the sensor is declared [`HealthState::Faulted`] and the
//!   coordinator switches the PID input to the *worst-case* power estimate
//!   at the present rail voltage, so regulation errs low instead of
//!   chasing a lie.
//! * [`DomainHealth`] — watches per-domain heartbeats (did the domain's
//!   controller accept commands this quantum). A faulted domain gets its
//!   voltage held and decayed toward a safe ratio — enforced by the
//!   domain's regulator path, which still obeys the coordinator even when
//!   the domain's own controller is dead.
//! * [`EmergencyThrottle`] — a leaky-bucket trip on "estimate above
//!   `P_SPEC`". Sustained over-cap estimates beyond the violation window
//!   engage a package-wide clamp: the global VR is pinned to its floor and
//!   every domain ratio is scaled by the safe ratio until the bucket
//!   drains, then the scale ramps back geometrically.
//!
//! All three are pure, allocation-free state machines stepped once per
//! control quantum by the coordinator, and checkpointed with the rest of
//! the loop state, which is one half of the kill/resume determinism
//! contract (the other half: fault decisions are pure functions of the
//! plan seed).

use hcapp_faults::plan::MIN_SLEW_DERATE;
use hcapp_sim_core::time::SimDuration;

/// Health of one watched subject (sensor or domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Behaving normally.
    Healthy,
    /// Suspicious for a few quanta (symptom present but short of the
    /// fault threshold) — observed, not yet acted on.
    Stale,
    /// Declared faulted: degraded-mode handling is in force.
    Faulted,
}

impl HealthState {
    /// Lower-case name used in telemetry (`health_transition` events).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Stale => "stale",
            HealthState::Faulted => "faulted",
        }
    }

    /// Inverse of [`HealthState::name`] (checkpoint decoding).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "healthy" => Some(HealthState::Healthy),
            "stale" => Some(HealthState::Stale),
            "faulted" => Some(HealthState::Faulted),
            _ => None,
        }
    }
}

/// Tuning for the degradation layer. The defaults are expressed in control
/// quanta, so the same config scales from HCAPP's 1 µs period to the
/// RAPL-like 100 µs period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedConfig {
    /// Consecutive bad quanta before a subject turns `Stale`.
    pub stale_after: u32,
    /// Consecutive bad quanta before a subject turns `Faulted`.
    pub faulted_after: u32,
    /// Consecutive good quanta a `Faulted` subject needs to recover.
    pub recover_after: u32,
    /// Consecutive good quanta a `Stale` subject must dwell before it is
    /// trusted again. Without this hysteresis a subject flapping right at
    /// the stale boundary (bad streaks of `stale_after`, one good sample,
    /// repeat) re-trips every cycle, spamming `health_transition` events
    /// and churning any consumer keyed on them.
    pub stale_dwell: u32,
    /// Consecutive over-estimate quanta (leaky bucket level) that engage
    /// the emergency throttle — the "configurable violation window".
    pub violation_window: u32,
    /// Ratio a faulted domain's voltage decays toward, and the package
    /// scale applied while the emergency throttle is engaged.
    pub safe_ratio: f64,
    /// Per-quantum geometric decay of a faulted domain's hold value toward
    /// `safe_ratio` (closer to 1.0 = gentler).
    pub hold_decay: f64,
    /// Per-quantum geometric ramp back to 1.0 after recovery (must exceed
    /// 1.0).
    pub recovery_growth: f64,
    /// Emergency trip threshold as a multiple of `P_SPEC`. A settled PID
    /// legitimately hovers a hair above its setpoint (that is what the
    /// near-miss counter tracks), so tripping at exactly `P_SPEC` would
    /// clamp healthy runs; the default 1.1 sits between normal regulation
    /// dither and the budget the guardband protects (`budget/P_SPEC` ≈
    /// 1.19).
    pub trip_margin: f64,
    /// Rail movement (volts) beyond which a frozen reading is suspicious.
    /// Quantization makes a *settled* reading freeze legitimately — the
    /// symptom of a dead sense path is a reading that stays bit-identical
    /// *while the rail moves away* from where the freeze began. Under this
    /// deadband a frozen reading is also a harmless lie: the rail is parked
    /// where the held value was true.
    pub sensor_deadband_v: f64,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            stale_after: 4,
            faulted_after: 12,
            recover_after: 8,
            stale_dwell: 3,
            violation_window: 8,
            safe_ratio: 0.7,
            hold_decay: 0.85,
            recovery_growth: 1.05,
            trip_margin: 1.1,
            sensor_deadband_v: 0.02,
        }
    }
}

impl DegradedConfig {
    /// Sanity-check thresholds and ratios, reporting the first offending
    /// field instead of panicking. This is the entry point for
    /// externally-sourced configs (CLI flags, files); internal invariants
    /// keep using [`DegradedConfig::validate`].
    pub fn try_validate(&self) -> Result<(), String> {
        fn req(ok: bool, msg: &str) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(msg.to_string())
            }
        }
        req(self.stale_after >= 1, "stale_after must be at least 1")?;
        req(
            self.faulted_after >= self.stale_after,
            "faulted_after below stale_after",
        )?;
        req(self.recover_after >= 1, "recover_after must be at least 1")?;
        req(self.stale_dwell >= 1, "stale_dwell must be at least 1")?;
        req(
            self.violation_window >= 1,
            "violation_window must be at least 1",
        )?;
        req(
            self.safe_ratio > 0.0 && self.safe_ratio <= 1.0,
            "safe_ratio outside (0, 1]",
        )?;
        req(
            self.hold_decay > 0.0 && self.hold_decay < 1.0,
            "hold_decay outside (0, 1)",
        )?;
        req(self.recovery_growth > 1.0, "recovery_growth must exceed 1.0")?;
        req(self.trip_margin >= 1.0, "trip_margin below 1.0")?;
        req(
            self.sensor_deadband_v > 0.0,
            "sensor_deadband_v must be positive",
        )?;
        Ok(())
    }

    /// Sanity-check thresholds and ratios.
    ///
    /// # Panics
    /// Panics (naming the field) on a zero window, inverted thresholds, or
    /// ratios outside their documented ranges.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            // simlint: allow(L2, L6): documented panicking validator for internal invariants; externally-sourced configs go through try_validate
            panic!("invalid DegradedConfig: {msg}");
        }
    }

    /// Upper bound (in control quanta) on the reaction path from "a fault
    /// starts lying to the controller" to "the package is being actively
    /// clamped": the fault must first be *detectable* for `faulted_after`
    /// quanta (a stuck sensor looks healthy until then), the violation
    /// bucket then needs `violation_window` over-estimates, plus slack for
    /// the sensor pipeline, VR response delay and one quantum for throttles
    /// to reach the domains. The acceptance tests bound observed over-cap
    /// episodes by this.
    pub fn reaction_quanta(&self) -> u32 {
        self.faulted_after + self.violation_window + REACTION_SLACK_QUANTA
    }

    /// The over-budget contract (DESIGN §6d) for a scheme whose control
    /// period is `period`: the longest tolerated over-budget episode under
    /// any valid fault plan. That is [`DegradedConfig::reaction_quanta`]
    /// periods, stretched by the worst-case slow-down of the rail's descent
    /// under a `vr_slew_derate` fault.
    pub fn reaction_bound(&self, period: SimDuration) -> SimDuration {
        period * u64::from(self.reaction_quanta() * SLEW_STRETCH)
    }
}

/// Detection/actuation slack (sensor delay, VR response, command transport)
/// folded into [`DegradedConfig::reaction_quanta`].
const REACTION_SLACK_QUANTA: u32 = 8;

/// Worst-case slew-down stretch of a `vr_slew_derate` fault: the regulator
/// keeps at least `MIN_SLEW_DERATE` of its slew rate, so a descent takes at
/// most `1 / MIN_SLEW_DERATE` times as long (4 for the 0.25 floor).
const SLEW_STRETCH: u32 = (1.0 / MIN_SLEW_DERATE).ceil() as u32;

/// A generic consecutive-counter state machine shared by both watchdogs.
#[derive(Debug, Clone)]
struct Watchdog {
    state: HealthState,
    bad_streak: u32,
    good_streak: u32,
}

impl Watchdog {
    fn new() -> Self {
        Watchdog {
            state: HealthState::Healthy,
            bad_streak: 0,
            good_streak: 0,
        }
    }

    /// Step with one observation; returns `(from, to)` when the state
    /// changed.
    fn observe(&mut self, bad: bool, cfg: &DegradedConfig) -> Option<(HealthState, HealthState)> {
        let from = self.state;
        if bad {
            self.bad_streak = self.bad_streak.saturating_add(1);
            self.good_streak = 0;
        } else {
            self.good_streak = self.good_streak.saturating_add(1);
            self.bad_streak = 0;
        }
        self.state = match from {
            HealthState::Healthy if self.bad_streak >= cfg.stale_after => HealthState::Stale,
            HealthState::Stale if self.bad_streak >= cfg.faulted_after => HealthState::Faulted,
            // Suspicion clears only after a dwell of consecutive good
            // samples — one good reading amid a flapping signal is not
            // trust; a declared fault needs an even longer sustained run.
            HealthState::Stale if self.good_streak >= cfg.stale_dwell => HealthState::Healthy,
            HealthState::Faulted if self.good_streak >= cfg.recover_after => HealthState::Healthy,
            s => s,
        };
        (from != self.state).then_some((from, self.state))
    }
}

/// Frozen-reading detector for the package power sensor.
///
/// A reading is *suspicious* only when it stays bit-identical while the
/// rail has moved more than [`DegradedConfig::sensor_deadband_v`] away from
/// where the freeze began: the sensor's quantization makes a settled
/// reading freeze legitimately, but a live sense path cannot ignore a real
/// voltage excursion (power moves watts per rail percent, far beyond the
/// quantization step).
#[derive(Debug, Clone)]
pub struct SensorWatchdog {
    dog: Watchdog,
    /// Bit pattern of the last reading; NaN so the first reading never
    /// matches.
    last_bits: u64,
    /// Rail voltage at the quantum where the current freeze began.
    anchor_v: f64,
}

impl SensorWatchdog {
    /// A fresh watchdog (healthy, nothing seen).
    pub fn new() -> Self {
        SensorWatchdog {
            dog: Watchdog::new(),
            last_bits: f64::NAN.to_bits(),
            anchor_v: f64::NAN,
        }
    }

    /// Feed the reading the controller is about to consume (in watts) and
    /// the present rail voltage; returns a state transition if one
    /// occurred.
    pub fn observe(
        &mut self,
        reading_w: f64,
        rail_v: f64,
        cfg: &DegradedConfig,
    ) -> Option<(HealthState, HealthState)> {
        let bits = reading_w.to_bits();
        let frozen = bits == self.last_bits;
        self.last_bits = bits;
        if !frozen {
            self.anchor_v = rail_v;
        }
        // NaN anchor (first sample) compares false — not suspicious.
        let bad = frozen && (rail_v - self.anchor_v).abs() > cfg.sensor_deadband_v;
        self.dog.observe(bad, cfg)
    }

    /// Current health.
    pub fn state(&self) -> HealthState {
        self.dog.state
    }
}

impl Default for SensorWatchdog {
    fn default() -> Self {
        Self::new()
    }
}

/// Heartbeat watchdog plus last-good-value hold for one domain.
#[derive(Debug, Clone)]
pub struct DomainHealth {
    dog: Watchdog,
    /// Voltage scale applied to the domain: 1.0 while trusted, decaying
    /// toward `safe_ratio` while faulted, ramping back after recovery.
    throttle: f64,
}

impl DomainHealth {
    /// A fresh, healthy domain.
    pub fn new() -> Self {
        DomainHealth {
            dog: Watchdog::new(),
            throttle: 1.0,
        }
    }

    /// Feed one quantum's heartbeat (`responded` = the domain's controller
    /// accepted commands); returns a state transition if one occurred.
    pub fn observe(
        &mut self,
        responded: bool,
        cfg: &DegradedConfig,
    ) -> Option<(HealthState, HealthState)> {
        let transition = self.dog.observe(!responded, cfg);
        self.throttle = match self.dog.state {
            // Last-good-value hold with exponential decay toward the safe
            // ratio: the longer the domain stays dark, the less rail it
            // gets, bounding what an uncontrolled domain can burn.
            HealthState::Faulted => {
                cfg.safe_ratio + (self.throttle - cfg.safe_ratio) * cfg.hold_decay
            }
            // Ramp back instead of stepping, so recovery cannot slam the
            // package over the cap in a single quantum.
            _ => (self.throttle * cfg.recovery_growth).min(1.0),
        };
        transition
    }

    /// Current health.
    pub fn state(&self) -> HealthState {
        self.dog.state
    }

    /// The voltage scale currently imposed on the domain.
    pub fn throttle(&self) -> f64 {
        self.throttle
    }
}

impl Default for DomainHealth {
    fn default() -> Self {
        Self::new()
    }
}

/// Package-level emergency clamp on sustained over-cap estimates.
#[derive(Debug, Clone)]
pub struct EmergencyThrottle {
    level: u32,
    engaged: bool,
    scale: f64,
}

impl EmergencyThrottle {
    /// Disengaged, empty bucket, unit scale.
    pub fn new() -> Self {
        EmergencyThrottle {
            level: 0,
            engaged: false,
            scale: 1.0,
        }
    }

    /// Feed one control step's verdict (`over` = the power estimate
    /// exceeded `P_SPEC`). Returns `Some(true)` on engagement,
    /// `Some(false)` on release, `None` otherwise.
    pub fn observe(&mut self, over: bool, cfg: &DegradedConfig) -> Option<bool> {
        // Leaky bucket: +1 per over step, -1 per clean step, capped so a
        // long incident cannot wind up unbounded release latency.
        if over {
            self.level = (self.level + 1).min(cfg.violation_window * 2);
        } else {
            self.level = self.level.saturating_sub(1);
        }
        if !self.engaged && self.level >= cfg.violation_window {
            self.engaged = true;
            self.scale = cfg.safe_ratio;
            return Some(true);
        }
        if self.engaged && self.level == 0 {
            self.engaged = false;
            return Some(false);
        }
        if !self.engaged && self.scale < 1.0 {
            self.scale = (self.scale * cfg.recovery_growth).min(1.0);
        }
        None
    }

    /// True while the clamp is in force.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// The package-wide domain-voltage scale (1.0 when fully released).
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Default for EmergencyThrottle {
    fn default() -> Self {
        Self::new()
    }
}

impl hcapp_sim_core::state::Snapshot for Watchdog {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.token("dog.state", self.state.name());
        w.u32("dog.bad", self.bad_streak);
        w.u32("dog.good", self.good_streak);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.state = HealthState::from_name(r.token("dog.state")?)?;
        self.bad_streak = r.u32("dog.bad")?;
        self.good_streak = r.u32("dog.good")?;
        Some(())
    }
}

impl hcapp_sim_core::state::Snapshot for SensorWatchdog {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.dog.save_state(w);
        w.u64("sw.last_bits", self.last_bits);
        w.f64("sw.anchor_v", self.anchor_v);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.dog.load_state(r)?;
        self.last_bits = r.u64("sw.last_bits")?;
        self.anchor_v = r.f64("sw.anchor_v")?;
        Some(())
    }
}

impl hcapp_sim_core::state::Snapshot for DomainHealth {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.dog.save_state(w);
        w.f64("dh.throttle", self.throttle);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.dog.load_state(r)?;
        let throttle = r.f64("dh.throttle")?;
        if !(0.0..=1.0).contains(&throttle) {
            return None;
        }
        self.throttle = throttle;
        Some(())
    }
}

impl hcapp_sim_core::state::Snapshot for EmergencyThrottle {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.u32("em.level", self.level);
        w.bool("em.engaged", self.engaged);
        w.f64("em.scale", self.scale);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.level = r.u32("em.level")?;
        self.engaged = r.bool("em.engaged")?;
        let scale = r.f64("em.scale")?;
        if !(0.0..=1.0).contains(&scale) {
            return None;
        }
        self.scale = scale;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DegradedConfig {
        DegradedConfig::default()
    }

    #[test]
    fn default_config_validates() {
        cfg().validate();
    }

    #[test]
    #[should_panic(expected = "faulted_after")]
    fn inverted_thresholds_rejected() {
        let c = DegradedConfig {
            stale_after: 10,
            faulted_after: 2,
            ..cfg()
        };
        c.validate();
    }

    #[test]
    fn sensor_watchdog_walks_healthy_stale_faulted() {
        let c = cfg();
        let mut w = SensorWatchdog::new();
        // A changing signal stays healthy whatever the rail does.
        for i in 0..10 {
            assert_eq!(w.observe(80.0 + f64::from(i), 0.95, &c), None);
        }
        assert_eq!(w.state(), HealthState::Healthy);
        // Freeze the reading while the rail climbs well past the deadband:
        // stale after 4 suspicious repeats, faulted after 12.
        let mut transitions = Vec::new();
        w.observe(99.0, 0.95, &c); // last fresh value anchors the rail
        for _ in 0..20 {
            if let Some(tr) = w.observe(99.0, 1.10, &c) {
                transitions.push(tr);
            }
        }
        assert_eq!(
            transitions,
            vec![
                (HealthState::Healthy, HealthState::Stale),
                (HealthState::Stale, HealthState::Faulted),
            ]
        );
        // Recovery needs a sustained run of changing samples.
        for i in 0..(c.recover_after - 1) {
            assert_eq!(w.observe(100.0 + f64::from(i), 1.10, &c), None);
        }
        assert_eq!(
            w.observe(200.0, 1.10, &c),
            Some((HealthState::Faulted, HealthState::Healthy))
        );
    }

    #[test]
    fn settled_quantized_reading_is_not_suspicious() {
        // A regulated run with a parked rail freezes its quantized reading
        // legitimately — the watchdog must not trip (this was a real false
        // positive: declaring the sensor dead engaged the emergency clamp
        // on a perfectly healthy run).
        let c = cfg();
        let mut w = SensorWatchdog::new();
        for _ in 0..1000 {
            // Rail dithers inside the deadband, reading pinned by
            // quantization.
            assert_eq!(w.observe(84.0, 0.951, &c), None);
            assert_eq!(w.observe(84.0, 0.949, &c), None);
        }
        assert_eq!(w.state(), HealthState::Healthy);
    }

    #[test]
    fn brief_sensor_freeze_only_reaches_stale() {
        let c = cfg();
        let mut w = SensorWatchdog::new();
        w.observe(80.0, 0.95, &c);
        for _ in 0..(c.stale_after + 1) {
            w.observe(80.0, 1.10, &c);
        }
        assert_eq!(w.state(), HealthState::Stale);
        // Fresh readings clear suspicion only after the dwell window — a
        // single good sample is not trust.
        for i in 0..(c.stale_dwell - 1) {
            assert_eq!(w.observe(81.0 + f64::from(i), 1.10, &c), None);
            assert_eq!(w.state(), HealthState::Stale);
        }
        assert_eq!(
            w.observe(90.0, 1.10, &c),
            Some((HealthState::Stale, HealthState::Healthy))
        );
    }

    #[test]
    fn flapping_sensor_at_the_stale_boundary_does_not_retrip() {
        // Regression: a sensor alternating between "frozen long enough to
        // go stale" and one fresh sample used to bounce Stale -> Healthy ->
        // Stale forever, emitting a transition pair per cycle. With the
        // dwell window it trips once and then *stays* stale until the
        // signal is good for `stale_dwell` consecutive quanta.
        let c = cfg();
        let mut w = SensorWatchdog::new();
        let mut reading = 80.0;
        w.observe(reading, 0.95, &c);
        let mut transitions = Vec::new();
        for _ in 0..10 {
            // The reading freezes while the rail walks away — a bad streak
            // exactly at the stale boundary...
            for _ in 0..c.stale_after {
                if let Some(tr) = w.observe(reading, 1.10, &c) {
                    transitions.push(tr);
                }
            }
            // ...then a single fresh sample back at the anchor rail.
            reading += 1.0;
            if let Some(tr) = w.observe(reading, 0.95, &c) {
                transitions.push(tr);
            }
        }
        assert_eq!(
            transitions,
            vec![(HealthState::Healthy, HealthState::Stale)],
            "flapping must trip exactly once, not once per cycle"
        );
        assert_eq!(w.state(), HealthState::Stale);
        // A genuinely recovered signal still clears after the dwell.
        for _ in 0..c.stale_dwell {
            reading += 1.0;
            w.observe(reading, 0.95, &c);
        }
        assert_eq!(w.state(), HealthState::Healthy);
    }

    #[test]
    fn domain_throttle_decays_toward_safe_ratio_and_ramps_back() {
        let c = cfg();
        let mut d = DomainHealth::new();
        for _ in 0..c.faulted_after {
            d.observe(false, &c);
        }
        assert_eq!(d.state(), HealthState::Faulted);
        // While faulted the throttle decays toward (never below) safe_ratio.
        let mut prev = d.throttle();
        for _ in 0..50 {
            d.observe(false, &c);
            let t = d.throttle();
            assert!(t <= prev + 1e-12 && t >= c.safe_ratio - 1e-12);
            prev = t;
        }
        assert!((prev - c.safe_ratio).abs() < 0.01, "decayed to {prev}");
        // Heartbeats return: recover, then ramp monotonically to 1.0.
        for _ in 0..c.recover_after {
            d.observe(true, &c);
        }
        assert_eq!(d.state(), HealthState::Healthy);
        let mut prev = d.throttle();
        for _ in 0..200 {
            d.observe(true, &c);
            assert!(d.throttle() >= prev);
            prev = d.throttle();
        }
        assert!((prev - 1.0).abs() < 1e-12, "ramped back to {prev}");
    }

    #[test]
    fn healthy_domain_keeps_unit_throttle_exactly() {
        let c = cfg();
        let mut d = DomainHealth::new();
        for _ in 0..100 {
            d.observe(true, &c);
            // Bitwise 1.0, so multiplying by it cannot perturb clean runs.
            assert_eq!(d.throttle().to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn emergency_engages_after_window_and_releases_when_drained() {
        let c = cfg();
        let mut e = EmergencyThrottle::new();
        let mut engaged_at = None;
        for i in 0..(c.violation_window * 3) {
            match e.observe(true, &c) {
                Some(true) => {
                    engaged_at = Some(i);
                    break;
                }
                Some(false) => unreachable!("released while over"),
                None => {}
            }
        }
        assert_eq!(engaged_at, Some(c.violation_window - 1));
        assert!(e.engaged());
        assert!((e.scale() - c.safe_ratio).abs() < 1e-12);
        // Clean steps drain the bucket; release fires exactly once.
        let mut released = 0;
        for _ in 0..(c.violation_window * 3) {
            if e.observe(false, &c) == Some(false) {
                released += 1;
            }
        }
        assert_eq!(released, 1);
        assert!(!e.engaged());
        // After release the scale ramps back up to 1.0.
        for _ in 0..200 {
            e.observe(false, &c);
        }
        assert!((e.scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intermittent_overs_below_duty_cycle_never_engage() {
        let c = cfg();
        let mut e = EmergencyThrottle::new();
        // 50% duty cycle: the bucket never accumulates.
        for i in 0..1000 {
            assert_eq!(e.observe(i % 2 == 0, &c), None);
        }
        assert!(!e.engaged());
    }

    #[test]
    fn reaction_bound_is_finite_and_scales_with_config() {
        let c = cfg();
        assert!(c.reaction_quanta() >= c.faulted_after + c.violation_window);
        let wider = DegradedConfig {
            violation_window: 100,
            ..c
        };
        assert!(wider.reaction_quanta() > c.reaction_quanta());
        // The bound stretches the quanta by 1 / MIN_SLEW_DERATE = 4.
        let us = SimDuration::from_micros;
        let q = u64::from(c.reaction_quanta());
        assert_eq!(c.reaction_bound(us(1)), us(q * 4));
        assert_eq!(c.reaction_bound(us(100)), us(q * 400));
    }
}
