//! The Table 1 delay budget.
//!
//! The paper derives HCAPP's 1 µs control period from the round-trip delay
//! of the control loop: global VR transition → supply-network propagation →
//! component current change → sensing → controller computation. The numbers
//! come from the Raven VR design \[16\], Cadence Spectre simulations, and the
//! Gupta et al. supply-network model scaled ×5 for 2.5D integration.
//!
//! This module encodes those numbers verbatim and reproduces the table's
//! arithmetic (per-component scaling factors, totals, and the conservative
//! rounding to 1 µs).

use hcapp_sim_core::time::{SimDuration, MICROSECOND};

/// A min–max delay range in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayRange {
    /// Best-case delay in nanoseconds.
    pub min_ns: u64,
    /// Worst-case delay in nanoseconds.
    pub max_ns: u64,
}

impl DelayRange {
    /// Construct a range.
    ///
    /// # Panics
    /// Panics if `min_ns > max_ns`.
    pub const fn new(min_ns: u64, max_ns: u64) -> Self {
        assert!(min_ns <= max_ns, "inverted delay range");
        DelayRange { min_ns, max_ns }
    }

    /// Multiply both endpoints by an integer factor (the ×2 for the two VRs
    /// in the loop, the ×5 2.5D scaling of the supply-network model).
    pub const fn scaled(self, factor: u64) -> Self {
        DelayRange {
            min_ns: self.min_ns * factor,
            max_ns: self.max_ns * factor,
        }
    }

    /// Element-wise sum of two ranges.
    pub const fn plus(self, other: DelayRange) -> Self {
        DelayRange {
            min_ns: self.min_ns + other.min_ns,
            max_ns: self.max_ns + other.max_ns,
        }
    }

    /// The worst case as a [`SimDuration`].
    pub const fn worst(self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Component name as printed in the paper.
    pub component: &'static str,
    /// Simulated (unscaled) transition time.
    pub simulated: DelayRange,
    /// Scaling factor applied for the 2.5D system (1 = unscaled).
    pub scale: u64,
}

impl BudgetRow {
    /// The scaled transition time (the paper's right-hand column).
    pub fn scaled(&self) -> DelayRange {
        self.simulated.scaled(self.scale)
    }
}

/// The full Table 1 delay budget.
#[derive(Debug, Clone)]
pub struct TransitionBudget {
    rows: Vec<BudgetRow>,
}

impl Default for TransitionBudget {
    fn default() -> Self {
        Self::paper()
    }
}

impl TransitionBudget {
    /// The budget exactly as published in Table 1.
    pub fn paper() -> Self {
        TransitionBudget {
            rows: vec![
                BudgetRow {
                    component: "Voltage Regulator (global and domain)",
                    simulated: DelayRange::new(36, 226),
                    scale: 2,
                },
                BudgetRow {
                    component: "Sensing Circuitry",
                    simulated: DelayRange::new(50, 60),
                    scale: 1,
                },
                BudgetRow {
                    component: "Controller",
                    simulated: DelayRange::new(10, 30),
                    scale: 1,
                },
                BudgetRow {
                    component: "Power Supply Network",
                    simulated: DelayRange::new(3, 15),
                    scale: 5,
                },
            ],
        }
    }

    /// A custom budget (for scaling studies that add aggregation hops).
    pub fn new(rows: Vec<BudgetRow>) -> Self {
        assert!(!rows.is_empty(), "empty delay budget");
        TransitionBudget { rows }
    }

    /// The budget rows.
    pub fn rows(&self) -> &[BudgetRow] {
        &self.rows
    }

    /// Total scaled round-trip range (the paper's "Total" row: 147–617 ns).
    pub fn total(&self) -> DelayRange {
        self.rows
            .iter()
            .map(|r| r.scaled())
            .fold(DelayRange::new(0, 0), |acc, r| acc.plus(r))
    }

    /// Conservative control period: the worst-case total rounded up to the
    /// next microsecond (the paper rounds 617 ns to 1 µs).
    pub fn control_period(&self) -> SimDuration {
        let worst = self.total().max_ns;
        let us = worst.div_ceil(MICROSECOND.as_nanos());
        MICROSECOND * us.max(1)
    }
}

/// A transient fault on the global-voltage broadcast for one domain, as
/// decided by a fault plan (`hcapp-faults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The schedule arrives late: tick `i` of the quantum sees the value
    /// scheduled `ticks` earlier (floored at the quantum start).
    Delay {
        /// Lag in simulation ticks.
        ticks: u32,
    },
    /// The broadcast for this quantum is lost entirely; the receiver holds
    /// the last value it heard.
    Loss,
}

/// A quantum's global-voltage schedule as one domain receives it: tick by
/// tick what [`BroadcastLink::receive`] returns, in closed form, so a
/// domain reads a whole quantum off the schedule and its flat-run table
/// without a call per tick ([`BroadcastLink::receive_quantum`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reception {
    /// Tick `i` receives the schedule's slot `i − lag`, floored at the
    /// quantum's first slot (healthy: `lag = 0`).
    Lagged(usize),
    /// Every tick receives this held sample (a lost broadcast).
    Held(f64),
}

impl Reception {
    /// The voltage received at tick `i` of the quantum whose schedule is
    /// `sched` (NaN past the schedule's end).
    #[inline]
    pub fn at(self, sched: &[f64], i: usize) -> f64 {
        match self {
            Reception::Lagged(lag) => sched
                .get(i.saturating_sub(lag))
                .copied()
                .unwrap_or(f64::NAN),
            Reception::Held(v) => v,
        }
    }

    /// How many ticks from tick `i` on receive tick `i`'s voltage, read
    /// off the schedule's flat-run table `runs`
    /// (`core::kernel::flat_runs_into`: `runs[k]` counts the slots from
    /// `k` on with slot `k`'s bits). The count may run past the quantum's
    /// end; callers cap it.
    #[inline]
    pub fn run_len(self, runs: &[u32], i: usize) -> usize {
        match self {
            // Ticks before `lag` all receive slot 0, then the schedule
            // repeats itself `lag` ticks late.
            Reception::Lagged(lag) => {
                let run = runs.get(i.saturating_sub(lag)).map_or(1, |&r| r as usize);
                run.saturating_add(lag.saturating_sub(i))
            }
            Reception::Held(_) => usize::MAX,
        }
    }
}

/// The receive side of the global-voltage "broadcast": how one domain reads
/// the per-quantum schedule the coordinator precomputed from the global VR.
///
/// Healthy operation is a zero-cost passthrough (`sched[i]`). Under a
/// [`LinkFault`] the link degrades the way a real voltage-observation path
/// would: delay re-reads an earlier slot, loss holds the last good sample —
/// never an invented value, so the result is always something the VR
/// actually output (and hence in its legal range).
#[derive(Debug, Clone, Default)]
pub struct BroadcastLink {
    last_good: Option<f64>,
}

impl BroadcastLink {
    /// A link that has heard nothing yet.
    pub fn new() -> Self {
        BroadcastLink::default()
    }

    /// Read slot `i` of this quantum's schedule through the link, one tick
    /// at a time (the per-tick reference for
    /// [`BroadcastLink::receive_quantum`]).
    pub fn receive(&mut self, sched: &[f64], i: usize, fault: Option<LinkFault>) -> f64 {
        let v = match fault {
            None => sched[i],
            Some(LinkFault::Delay { ticks }) => sched[i.saturating_sub(ticks as usize)],
            Some(LinkFault::Loss) => return self.last_good.unwrap_or(sched[i]),
        };
        self.last_good = Some(v);
        v
    }

    /// Receive a whole quantum's schedule `sched` under `fault`: returns
    /// what each tick receives and leaves the link as `sched.len()` calls
    /// of [`BroadcastLink::receive`] would (the held sample becomes the
    /// last tick's reception, except under a loss, which leaves it).
    pub fn receive_quantum(&mut self, sched: &[f64], fault: Option<LinkFault>) -> Reception {
        let rx = match fault {
            None => Reception::Lagged(0),
            Some(LinkFault::Delay { ticks }) => Reception::Lagged(ticks as usize),
            // Nothing heard yet: the loss falls back to the live schedule
            // and still hears nothing.
            Some(LinkFault::Loss) => {
                return self.last_good.map_or(Reception::Lagged(0), Reception::Held)
            }
        };
        if let Some(last) = sched.len().checked_sub(1) {
            self.last_good = Some(rx.at(sched, last));
        }
        rx
    }

    /// Forget the held sample (start-of-run reset).
    pub fn reset(&mut self) {
        self.last_good = None;
    }
}

impl hcapp_sim_core::state::Snapshot for BroadcastLink {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.opt_f64("link.last_good", self.last_good);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.last_good = r.opt_f64("link.last_good")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals_match_table_1() {
        let b = TransitionBudget::paper();
        let total = b.total();
        assert_eq!(total.min_ns, 147);
        assert_eq!(total.max_ns, 617);
    }

    #[test]
    fn paper_scaled_rows_match() {
        let b = TransitionBudget::paper();
        let vr = b.rows()[0].scaled();
        assert_eq!((vr.min_ns, vr.max_ns), (72, 452));
        let psn = b.rows()[3].scaled();
        assert_eq!((psn.min_ns, psn.max_ns), (15, 75));
    }

    #[test]
    fn control_period_is_one_microsecond() {
        assert_eq!(TransitionBudget::paper().control_period(), MICROSECOND);
    }

    #[test]
    fn control_period_rounds_up() {
        let b = TransitionBudget::new(vec![BudgetRow {
            component: "slow aggregation bus",
            simulated: DelayRange::new(900, 1_700),
            scale: 1,
        }]);
        assert_eq!(b.control_period(), MICROSECOND * 2);
    }

    #[test]
    fn range_arithmetic() {
        let r = DelayRange::new(3, 15).scaled(5);
        assert_eq!((r.min_ns, r.max_ns), (15, 75));
        let s = r.plus(DelayRange::new(5, 5));
        assert_eq!((s.min_ns, s.max_ns), (20, 80));
        assert_eq!(s.worst(), SimDuration::from_nanos(80));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = DelayRange::new(10, 5);
    }

    #[test]
    fn healthy_link_is_passthrough() {
        let sched = [0.9, 0.91, 0.92, 0.93];
        let mut link = BroadcastLink::new();
        for (i, &v) in sched.iter().enumerate() {
            assert_eq!(link.receive(&sched, i, None), v);
        }
    }

    #[test]
    fn delayed_link_rereads_earlier_slots() {
        let sched = [0.9, 0.91, 0.92, 0.93];
        let mut link = BroadcastLink::new();
        let fault = Some(LinkFault::Delay { ticks: 2 });
        assert_eq!(link.receive(&sched, 0, fault), 0.9); // floored at slot 0
        assert_eq!(link.receive(&sched, 3, fault), 0.91);
    }

    #[test]
    fn quantum_reception_matches_per_tick_receive() {
        // Schedules with repeats, a ±0 pair and a NaN, received whole and
        // tick by tick under every fault kind, from a fresh link and from
        // one that has heard a sample: the same voltages (by bits), the
        // same flat runs and the same link state afterwards.
        let sched = [
            0.9,
            0.9,
            -0.0,
            0.0,
            0.95,
            0.95,
            0.95,
            f64::NAN,
            f64::NAN,
            1.0,
        ];
        let mut runs = [0u32; 10];
        let mut next = None;
        let mut len = 0;
        for (run, v) in runs.iter_mut().zip(&sched).rev() {
            len = if next == Some(v.to_bits()) {
                len + 1
            } else {
                1
            };
            next = Some(v.to_bits());
            *run = len;
        }
        let faults = [
            None,
            Some(LinkFault::Delay { ticks: 1 }),
            Some(LinkFault::Delay { ticks: 3 }),
            Some(LinkFault::Delay { ticks: 20 }),
            Some(LinkFault::Loss),
        ];
        for heard in [None, Some(0.85)] {
            for fault in faults {
                let mut per_tick = BroadcastLink { last_good: heard };
                let mut whole = per_tick.clone();
                let got: Vec<f64> = (0..sched.len())
                    .map(|i| per_tick.receive(&sched, i, fault))
                    .collect();
                let rx = whole.receive_quantum(&sched, fault);
                for (i, v) in got.iter().enumerate() {
                    let what = format!("{fault:?} heard {heard:?} tick {i}");
                    assert_eq!(rx.at(&sched, i).to_bits(), v.to_bits(), "{what}");
                    let run = got[i..]
                        .iter()
                        .take_while(|w| w.to_bits() == v.to_bits())
                        .count();
                    let read = rx.run_len(&runs, i).min(sched.len() - i);
                    assert_eq!(read, run, "{what}: run");
                }
                assert_eq!(
                    whole.last_good.map(f64::to_bits),
                    per_tick.last_good.map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn lossy_link_holds_last_good_value() {
        let sched = [0.9, 0.95, 1.0, 1.05];
        let mut link = BroadcastLink::new();
        // Nothing heard yet: loss falls back to the live schedule.
        assert_eq!(link.receive(&sched, 0, Some(LinkFault::Loss)), 0.9);
        assert_eq!(link.receive(&sched, 1, None), 0.95);
        assert_eq!(link.receive(&sched, 3, Some(LinkFault::Loss)), 0.95);
        link.reset();
        assert_eq!(link.receive(&sched, 2, Some(LinkFault::Loss)), 1.0);
    }
}
