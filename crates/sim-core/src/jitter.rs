//! Per-unit activity jitter on one shared resample clock.
//!
//! Every core of a CPU chiplet and every SM of a GPU chiplet scales the
//! shared workload phase's activity by its own slowly-varying jitter,
//! resampled every `period` ticks from `N(1, std)` (clamped to
//! `[0.5, 1.5]`) out of the unit's own random stream. All units of a
//! chiplet start together and step together, so they resample on the same
//! tick: [`JitterLanes`] keeps one countdown for the chiplet and one jitter
//! value and one random stream per unit. A steady span's budget and its
//! clock advance are then one read and one subtraction, however many units
//! the chiplet has.
//!
//! The checkpoint keeps the per-unit layout of earlier versions: each unit
//! writes its jitter, the (shared) countdown and its random stream under
//! the chiplet's key names, so `hcapp.ckpt` files are unchanged. Restoring
//! rejects a countdown above the period and units whose countdowns differ,
//! which the shared clock cannot represent.
//!
//! A [`JitterLanes::generation`] counter changes whenever the values may
//! have (a resample or a restore), so a chiplet can keep a lane derived
//! from them until it does.

use crate::rng::DeterministicRng;
use crate::state::{Snapshot, StateReader, StateWriter};

/// Jitter values and random streams of a chiplet's units, one lane each,
/// on one resample clock.
#[derive(Debug, Clone)]
pub struct JitterLanes {
    /// Standard deviation of the resampled jitter (0 = no jitter).
    std: f64,
    /// Ticks between resamples.
    period: u64,
    /// Ticks until every unit resamples (0 = the next stepped tick does).
    countdown: u64,
    /// Current multiplicative activity jitter per unit.
    values: Vec<f64>,
    /// Each unit's own random stream.
    rngs: Vec<DeterministicRng>,
    /// Checkpoint tags of a unit's jitter and countdown.
    tags: [&'static str; 2],
    /// Resamples and restores so far (not checkpointed).
    generation: u64,
}

impl JitterLanes {
    /// Lanes for one unit per stream in `rngs`, each resampled once, as a
    /// freshly built unit is. `tags` names a unit's jitter and countdown
    /// in the checkpoint (for example `["core.jitter",
    /// "core.jitter_countdown"]`).
    ///
    /// # Panics
    /// Panics on a zero period.
    pub fn new(
        std: f64,
        period: u64,
        rngs: Vec<DeterministicRng>,
        tags: [&'static str; 2],
    ) -> Self {
        assert!(period > 0, "zero jitter period");
        let mut lanes = JitterLanes {
            std,
            period,
            countdown: 0,
            values: vec![1.0; rngs.len()],
            rngs,
            tags,
            generation: 0,
        };
        lanes.resample();
        lanes
    }

    fn resample(&mut self) {
        for (jitter, rng) in self.values.iter_mut().zip(&mut self.rngs) {
            *jitter = if self.std > 0.0 {
                rng.normal(1.0, self.std).clamp(0.5, 1.5)
            } else {
                1.0
            };
        }
        self.countdown = self.period;
        self.generation += 1;
    }

    /// Start a stepped tick: resample every unit when the clock is due,
    /// then count the tick.
    #[inline]
    pub fn tick(&mut self) {
        if self.countdown == 0 {
            self.resample();
        }
        self.countdown -= 1;
    }

    /// Ticks the units can replay before the next resample (0 when the
    /// next stepped tick resamples). Until then every unit's jitter holds.
    #[inline]
    pub fn replayable_ticks(&self) -> u64 {
        self.countdown
    }

    /// Count `ticks` replayed ticks, exactly as `ticks` calls of
    /// [`JitterLanes::tick`] would; only valid for
    /// `ticks <= self.replayable_ticks()`.
    #[inline]
    pub fn replay_ticks(&mut self, ticks: u64) {
        debug_assert!(ticks <= self.countdown, "replayed a jitter resample tick");
        self.countdown -= ticks;
    }

    /// The units' current jitter, in unit order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Counts the resamples and restores so far: while it holds, so do
    /// [`JitterLanes::values`]. It is not checkpointed, so compare it only
    /// with earlier readings of the same lanes.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a chiplet without units.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Snapshot for JitterLanes {
    fn save_state(&self, w: &mut StateWriter) {
        let [jitter, countdown] = self.tags;
        for (&value, rng) in self.values.iter().zip(&self.rngs) {
            w.f64(jitter, value);
            w.u64(countdown, self.countdown);
            rng.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Option<()> {
        // Even a failed partial load may have changed the values.
        self.generation += 1;
        let [jitter, countdown] = self.tags;
        let mut clock = None;
        for (value, rng) in self.values.iter_mut().zip(&mut self.rngs) {
            *value = r.f64(jitter)?;
            let c = r.u64(countdown)?;
            if c > self.period || clock.is_some_and(|first| first != c) {
                return None;
            }
            clock = Some(c);
            rng.load_state(r)?;
        }
        self.countdown = clock.unwrap_or(self.period);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAGS: [&str; 2] = ["unit.jitter", "unit.jitter_countdown"];

    fn lanes(std: f64, period: u64) -> JitterLanes {
        let rngs = (0..3).map(|i| DeterministicRng::derive(5, i)).collect();
        JitterLanes::new(std, period, rngs, TAGS)
    }

    fn save(l: &JitterLanes) -> String {
        let mut w = StateWriter::new();
        l.save_state(&mut w);
        w.finish()
    }

    #[test]
    fn units_resample_together_every_period() {
        let mut l = lanes(0.1, 4);
        let first = l.values().to_vec();
        assert!(first.iter().all(|j| (0.5..=1.5).contains(j)));
        assert_ne!(first[0], first[1], "units draw from their own streams");
        for _ in 0..4 {
            l.tick();
            assert_eq!(l.values(), &first[..]);
        }
        assert_eq!(l.replayable_ticks(), 0);
        l.tick();
        assert_ne!(l.values(), &first[..], "fifth tick resamples");
        assert_eq!(l.replayable_ticks(), 3);
        l.replay_ticks(3);
        assert_eq!(l.replayable_ticks(), 0);
        assert!(lanes(0.0, 4).values().iter().all(|&j| j == 1.0));
    }

    #[test]
    fn checkpoint_round_trips_per_unit() {
        let mut l = lanes(0.1, 4);
        for _ in 0..6 {
            l.tick();
        }
        let text = save(&l);
        assert_eq!(text.matches("unit.jitter_countdown 2").count(), 3, "{text}");
        let mut fresh = lanes(0.1, 4);
        fresh.load_state(&mut StateReader::new(&text)).unwrap();
        assert_eq!(save(&fresh), text);
        for _ in 0..9 {
            l.tick();
            fresh.tick();
            assert_eq!(l.values(), fresh.values());
        }
    }

    #[test]
    fn generation_moves_on_every_resample_and_restore() {
        let mut l = lanes(0.1, 4);
        let g = l.generation();
        for _ in 0..4 {
            l.tick();
        }
        l.replay_ticks(0);
        assert_eq!(l.generation(), g, "no resample within the period");
        l.tick();
        assert_eq!(l.generation(), g + 1, "fifth tick resamples");
        let text = save(&l);
        l.load_state(&mut StateReader::new(&text)).unwrap();
        assert_eq!(l.generation(), g + 2, "a restore counts");
        assert!(l.load_state(&mut StateReader::new("")).is_none());
        assert_eq!(l.generation(), g + 3, "so does a failed one");
    }

    #[test]
    fn restore_rejects_a_countdown_above_the_period() {
        let l = lanes(0.1, 4);
        let text = save(&l);
        let mut fresh = lanes(0.1, 4);
        assert!(fresh.load_state(&mut StateReader::new(&text)).is_some());
        let over = text.replace("unit.jitter_countdown 4", "unit.jitter_countdown 5");
        assert_ne!(over, text);
        assert!(fresh.load_state(&mut StateReader::new(&over)).is_none());
    }

    #[test]
    fn restore_rejects_units_out_of_lockstep() {
        let l = lanes(0.1, 4);
        let text = save(&l);
        let skewed = text.replacen("unit.jitter_countdown 4", "unit.jitter_countdown 3", 1);
        assert_ne!(skewed, text);
        let mut fresh = lanes(0.1, 4);
        assert!(fresh.load_state(&mut StateReader::new(&skewed)).is_none());
    }
}
