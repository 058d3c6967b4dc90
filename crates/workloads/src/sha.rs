//! The SHA accelerator's work model.
//!
//! §4.4: "The total work that the accelerator has to complete is modeled as
//! a fixed number. The work completed on each cycle is linearly proportional
//! to the maximum usable voltage setting … When the total work is less than
//! or equal to zero, the accelerator can enter an idle state."
//!
//! [`ShaWorkload`] is that model: a backlog of hash work (in gigabits)
//! drained at the throughput the accelerator's LUT provides for the current
//! voltage. A `looping` variant refills the backlog — used when the
//! accelerator should stay busy for the entire test (the paper loops short
//! workloads, §4).

use hcapp_sim_core::accum::{jump_countdown, CLOSED_FORM_MIN_TICKS};

/// A fixed (or looping) backlog of hashing work.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaWorkload {
    /// Work remaining in gigabits.
    remaining_gbits: f64,
    /// Initial backlog (for refills and progress reporting).
    initial_gbits: f64,
    /// Refill the backlog when drained instead of idling.
    looping: bool,
    /// Total work completed in gigabits.
    completed_gbits: f64,
}

impl ShaWorkload {
    /// A one-shot backlog of `gbits` gigabits.
    ///
    /// # Panics
    /// Panics if `gbits` is not positive.
    pub fn fixed(gbits: f64) -> Self {
        assert!(gbits > 0.0, "non-positive workload");
        ShaWorkload {
            remaining_gbits: gbits,
            initial_gbits: gbits,
            looping: false,
            completed_gbits: 0.0,
        }
    }

    /// A backlog that refills when drained (runs for the whole test).
    pub fn looping(gbits: f64) -> Self {
        let mut w = ShaWorkload::fixed(gbits);
        w.looping = true;
        w
    }

    /// Drain `gbits` of completed work; returns the amount actually drained
    /// (less than requested only when a one-shot backlog runs out).
    pub fn drain(&mut self, gbits: f64) -> f64 {
        debug_assert!(gbits >= 0.0);
        let mut todo = gbits;
        let mut done = 0.0;
        while todo > 0.0 {
            if self.remaining_gbits <= 0.0 {
                if self.looping {
                    self.remaining_gbits = self.initial_gbits;
                } else {
                    break;
                }
            }
            let step = todo.min(self.remaining_gbits);
            self.remaining_gbits -= step;
            self.completed_gbits += step;
            done += step;
            todo -= step;
        }
        done
    }

    /// Drain `gbits` once per tick for up to `max_ticks` ticks, while the
    /// current backlog still holds at least `gbits`; returns how many
    /// ticks it drained. Each tick is the [`ShaWorkload::drain`] that takes
    /// exactly `gbits` in one step without a refill, so the span is
    /// bit-identical to the per-tick calls; it stops before the tick that
    /// would refill a looping backlog or run a one-shot backlog dry. A
    /// long span jumps the bulk of its ticks in closed form first
    /// ([`jump_countdown`]). Drains nothing unless `gbits > 0`.
    pub fn drain_span(&mut self, gbits: f64, max_ticks: usize) -> usize {
        if !(gbits > 0.0) {
            return 0;
        }
        let mut ticks = 0;
        if max_ticks >= CLOSED_FORM_MIN_TICKS {
            ticks = self.jump_backlog(gbits, max_ticks);
        }
        let (mut remaining, mut completed) = (self.remaining_gbits, self.completed_gbits);
        while ticks < max_ticks && remaining >= gbits {
            remaining -= gbits;
            completed += gbits;
            ticks += 1;
        }
        (self.remaining_gbits, self.completed_gbits) = (remaining, completed);
        ticks
    }

    /// Jump the bulk of a long span inside the current backlog in closed
    /// form ([`jump_countdown`]); returns the ticks jumped. Out of line, so
    /// the per-tick loop that short spans run keeps its shape.
    #[inline(never)]
    fn jump_backlog(&mut self, gbits: f64, max_ticks: usize) -> usize {
        let (ticks, completed, remaining) = jump_countdown(
            self.completed_gbits,
            self.remaining_gbits,
            gbits,
            max_ticks,
            |r| r >= gbits,
        );
        (self.completed_gbits, self.remaining_gbits) = (completed, remaining);
        ticks
    }

    /// True when a one-shot backlog is exhausted (the idle state of §4.4).
    pub fn is_idle(&self) -> bool {
        !self.looping && self.remaining_gbits <= 0.0
    }

    /// Work completed so far in gigabits.
    pub fn completed_gbits(&self) -> f64 {
        self.completed_gbits
    }

    /// Work remaining in the current backlog in gigabits.
    pub fn remaining_gbits(&self) -> f64 {
        self.remaining_gbits.max(0.0)
    }
}

impl hcapp_sim_core::state::Snapshot for ShaWorkload {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        w.f64("sha.remaining_gbits", self.remaining_gbits);
        w.f64("sha.completed_gbits", self.completed_gbits);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.remaining_gbits = r.f64("sha.remaining_gbits")?;
        self.completed_gbits = r.f64("sha.completed_gbits")?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    #[test]
    fn drain_span_matches_per_tick_drain() {
        // A looping and a one-shot backlog, spans of 0 to 40 ticks, steps
        // that divide the backlog exactly and steps that do not, and
        // backlogs of thousands of steps; then again with every fourth
        // span up to 4 000 ticks, so long spans take the closed-form jump.
        // The per-tick loop is the one `drain_span` replaces.
        let cases = [
            (true, 0.25, 10.0),
            (true, 0.3, 10.0),
            (false, 0.25, 100.0),
            (false, 0.7, 100.0),
            (true, 0.003, 10.0),
            (true, 1e-4 / 3.0, 1.0),
            (false, 0.0125, 100.0),
        ];
        let passes = [false, true].into_iter().flat_map(|l| cases.map(|c| (l, c)));
        for (long_spans, (looping, gbits, backlog)) in passes {
            let mut spanned = if looping {
                ShaWorkload::looping(backlog)
            } else {
                ShaWorkload::fixed(backlog)
            };
            let mut ticked = spanned.clone();
            for k in 0..400 {
                let max_ticks = if long_spans && k % 4 == 3 {
                    (k * 997) % 4_001
                } else {
                    (k * 7) % 41
                };
                let got = spanned.drain_span(gbits, max_ticks);
                let mut want = 0;
                while want < max_ticks && ticked.remaining_gbits() >= gbits {
                    ticked.drain(gbits);
                    want += 1;
                }
                assert_eq!(got, want, "span {k}, looping {looping}, step {gbits}");
                assert_eq!(spanned, ticked, "span {k}, looping {looping}, step {gbits}");
                if got < max_ticks {
                    // The tick a span refuses: a refill or the last crumb.
                    spanned.drain(gbits);
                    ticked.drain(gbits);
                }
            }
        }
        let mut w = ShaWorkload::looping(1.0);
        assert_eq!(w.drain_span(0.0, 10), 0);
        assert_eq!(w.drain_span(f64::NAN, 10), 0);
        assert_eq!(w, ShaWorkload::looping(1.0));
    }

    #[test]
    fn fixed_drains_to_idle() {
        let mut w = ShaWorkload::fixed(10.0);
        assert!(!w.is_idle());
        assert_close!(w.drain(4.0), 4.0, 1e-12);
        assert_close!(w.remaining_gbits(), 6.0, 1e-12);
        // Requesting more than remains drains only what's left.
        assert_close!(w.drain(10.0), 6.0, 1e-12);
        assert!(w.is_idle());
        assert_close!(w.completed_gbits(), 10.0, 1e-12);
        // Further drains are no-ops.
        assert_close!(w.drain(5.0), 0.0, 1e-12);
    }

    #[test]
    fn looping_never_idles() {
        let mut w = ShaWorkload::looping(3.0);
        let drained = w.drain(10.0);
        assert_close!(drained, 10.0, 1e-12);
        assert!(!w.is_idle());
        assert_close!(w.completed_gbits(), 10.0, 1e-12);
        // Backlog refilled mid-drain: 10 = 3 + 3 + 3 + 1, leaving 2.
        assert_close!(w.remaining_gbits(), 2.0, 1e-12);
    }

    #[test]
    fn zero_drain_is_noop() {
        let mut w = ShaWorkload::fixed(5.0);
        assert_close!(w.drain(0.0), 0.0, 1e-12);
        assert_close!(w.remaining_gbits(), 5.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_backlog_panics() {
        let _ = ShaWorkload::fixed(0.0);
    }
}
