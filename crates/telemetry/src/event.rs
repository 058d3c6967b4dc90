//! Typed trace events, one per level of the HCAPP control hierarchy.
//!
//! Every event is keyed by the [`SimTime`] of the control-quantum boundary
//! it was observed at. The coordinator emits the global events (retarget,
//! PID step, VR slew) before the per-domain events of the same quantum, and
//! per-domain events follow in domain order — so a recorded stream is
//! totally ordered and a pure function of the run's inputs.

use hcapp_sim_core::time::SimTime;
use hcapp_sim_core::units::{Volt, Watt};

/// One structured observation from a run.
///
/// Thresholds that a controller does not have (pass-through, adversarial)
/// are carried as `f64::NAN` and serialize to JSON `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The global power target (`P_SPEC`) was (re)programmed — once at run
    /// start for the initial target, then at every scheduled retarget.
    Retarget {
        /// Quantum boundary the new target takes effect at.
        t: SimTime,
        /// The new target.
        target: Watt,
    },
    /// One level-1 global control action: sensed power through the
    /// cube-root error (Eq. 1) and the feed-forward PID (Eq. 2).
    GlobalPidStep {
        /// Quantum boundary of the control action.
        t: SimTime,
        /// Peak-hold sensed package power the controller acted on.
        p_now: Watt,
        /// The target (`P_SPEC`) in force for this action.
        setpoint: Watt,
        /// Eq. 1's signed cube-root voltage error.
        v_err: f64,
        /// Proportional contribution in volts (boosted `kp` included).
        p_term: f64,
        /// Integral contribution in volts (after anti-windup clamping).
        i_term: f64,
        /// Derivative contribution in volts.
        d_term: f64,
        /// The resulting global VR setpoint.
        v_next: Volt,
    },
    /// The global VR's trajectory across one quantum: where it was told to
    /// go and where its slew-limited output actually started/ended.
    VrSlew {
        /// Quantum start.
        t: SimTime,
        /// The VR's current setpoint.
        setpoint: Volt,
        /// Output at the first tick of the quantum.
        start: Volt,
        /// Output at the last tick of the quantum.
        end: Volt,
    },
    /// One level-2 domain controller observation at a quantum boundary:
    /// how the domain derived its voltage from the delivered global rail.
    DomainScale {
        /// Quantum boundary.
        t: SimTime,
        /// Domain index in system order.
        domain: u32,
        /// Component kind name (`CPU`, `GPU`, …).
        kind: &'static str,
        /// The domain voltage after priority, scale and range clamping.
        v_domain: Volt,
        /// `v_domain / v_global_delivered` — the effective normalization.
        normalized_v: f64,
        /// The software priority register value.
        priority: f64,
    },
    /// A fault plan fired at this quantum boundary (`hcapp faults` runs).
    FaultInjected {
        /// Quantum boundary the fault is active at.
        t: SimTime,
        /// Injection point name (`sensor_noise`, `sensor_stuck`,
        /// `sensor_dropout`, `vr_droop`, `vr_slew_derate`, `link_delay`,
        /// `link_loss`, `ctl_stuck`, `ctl_silent`).
        point: &'static str,
        /// Domain index for per-domain points; `None` for package-global
        /// ones (serializes to JSON `null`).
        domain: Option<u32>,
        /// Point-specific magnitude (noise factor, droop volts, slew
        /// factor, delay ticks); NaN when the point has none.
        magnitude: f64,
    },
    /// A degraded-mode health state machine changed state.
    HealthTransition {
        /// Quantum boundary of the transition.
        t: SimTime,
        /// What is being watched: `sensor` (package power sensing) or
        /// `domain` (a domain's controller heartbeat).
        subject: &'static str,
        /// Domain index for `domain` subjects; `None` for the sensor.
        domain: Option<u32>,
        /// State left (`healthy`, `stale`, `faulted`).
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// The package-level emergency throttle engaged or released.
    EmergencyThrottle {
        /// Quantum boundary of the change.
        t: SimTime,
        /// True on engagement, false on release.
        engaged: bool,
        /// The power estimate (sensed or worst-case) that drove the
        /// decision.
        estimate: Watt,
        /// The target (`P_SPEC`) the estimate was judged against.
        target: Watt,
        /// The domain-ratio scale now in force (1.0 once fully released).
        scale: f64,
    },
    /// One level-3 local controller decision at a quantum boundary.
    LocalDecision {
        /// Quantum boundary.
        t: SimTime,
        /// Domain index in system order.
        domain: u32,
        /// Local controller name (`cpu-ipc-static`, …).
        controller: &'static str,
        /// Mean per-unit IPC fraction the decision was made from.
        mean_ipc: f64,
        /// Raise-ratio threshold (NaN when the controller has none).
        up_threshold: f64,
        /// Lower-ratio threshold (NaN when the controller has none).
        down_threshold: f64,
        /// Mean per-unit voltage ratio after the decision.
        mean_ratio: f64,
    },
}

/// The event kinds, in canonical order (used by the schema header and
/// the validators). The first five fire on every traced run; the last
/// three only when a fault plan and its degradation layer are active.
pub const EVENT_KINDS: &[&str] = &[
    "retarget",
    "global_pid",
    "vr_slew",
    "domain_scale",
    "local_decision",
    "fault_injected",
    "health_transition",
    "emergency_throttle",
];

impl TraceEvent {
    /// The simulated instant this event is keyed by.
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::Retarget { t, .. }
            | TraceEvent::GlobalPidStep { t, .. }
            | TraceEvent::VrSlew { t, .. }
            | TraceEvent::DomainScale { t, .. }
            | TraceEvent::LocalDecision { t, .. }
            | TraceEvent::FaultInjected { t, .. }
            | TraceEvent::HealthTransition { t, .. }
            | TraceEvent::EmergencyThrottle { t, .. } => *t,
        }
    }

    /// The schema kind tag (one of [`EVENT_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Retarget { .. } => "retarget",
            TraceEvent::GlobalPidStep { .. } => "global_pid",
            TraceEvent::VrSlew { .. } => "vr_slew",
            TraceEvent::DomainScale { .. } => "domain_scale",
            TraceEvent::LocalDecision { .. } => "local_decision",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::HealthTransition { .. } => "health_transition",
            TraceEvent::EmergencyThrottle { .. } => "emergency_throttle",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_canonical_list() {
        let events = [
            TraceEvent::Retarget {
                t: SimTime::from_micros(1),
                target: Watt::new(84.0),
            },
            TraceEvent::GlobalPidStep {
                t: SimTime::from_micros(2),
                p_now: Watt::new(80.0),
                setpoint: Watt::new(84.0),
                v_err: 1.6,
                p_term: 0.02,
                i_term: 0.01,
                d_term: 0.0,
                v_next: Volt::new(0.98),
            },
            TraceEvent::VrSlew {
                t: SimTime::from_micros(3),
                setpoint: Volt::new(0.98),
                start: Volt::new(0.95),
                end: Volt::new(0.96),
            },
            TraceEvent::DomainScale {
                t: SimTime::from_micros(4),
                domain: 1,
                kind: "GPU",
                v_domain: Volt::new(0.72),
                normalized_v: 0.75,
                priority: 1.0,
            },
            TraceEvent::LocalDecision {
                t: SimTime::from_micros(5),
                domain: 1,
                controller: "gpu-ipc-dynamic",
                mean_ipc: 0.5,
                up_threshold: 0.6,
                down_threshold: 0.3,
                mean_ratio: 0.95,
            },
            TraceEvent::FaultInjected {
                t: SimTime::from_micros(6),
                point: "sensor_noise",
                domain: None,
                magnitude: 1.12,
            },
            TraceEvent::HealthTransition {
                t: SimTime::from_micros(7),
                subject: "domain",
                domain: Some(2),
                from: "healthy",
                to: "stale",
            },
            TraceEvent::EmergencyThrottle {
                t: SimTime::from_micros(8),
                engaged: true,
                estimate: Watt::new(112.0),
                target: Watt::new(84.0),
                scale: 0.7,
            },
        ];
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, EVENT_KINDS);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.time(), SimTime::from_micros(i as u64 + 1));
        }
    }
}
