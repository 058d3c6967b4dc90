//! Closed-form repeated accumulation.
//!
//! A long control quantum (the RAPL-like scheme's 100 µs, the
//! Software-like scheme's 10 ms) spends most of its ticks adding the same
//! value to the same accumulator: a chiplet's energy account while its
//! power is steady, the package energy while the package power is, the
//! workload cursor's consumed work while a phase lasts. [`repeat_add`] does
//! `n` rounds of `x += step` bit for bit in one step per binade crossing
//! instead of one per round, and [`jump_countdown`] uses it to skip the
//! bulk of a loop that counts a quantity down to a threshold (DESIGN §6j,
//! obligations 21–22).
//!
//! Every closed form in the workspace chooses between itself and its plain
//! per-tick loop from the length it observes, against the one cutoff
//! [`CLOSED_FORM_MIN_TICKS`]: HCAPP's 10-tick quanta keep their plain
//! loops.

/// Shortest length, in ticks or rounds, for which a closed form replaces
/// its plain per-tick loop. Below it the plain loop is cheaper than the
/// closed form's setup: timed on a 2-vCPU Xeon, a one-binade
/// [`repeat_add`] costs about 5.5 ns at any length, and the plain loop
/// 2.8 ns at 16 rounds, 5.4 ns at 32 and 12.6 ns at 64. It also keeps
/// HCAPP's 10-tick quanta on their plain loops.
pub const CLOSED_FORM_MIN_TICKS: usize = 32;

/// Ticks a [`jump_countdown`] leaves to the per-tick loop below its
/// estimate of the last tick the countdown allows.
const JUMP_MARGIN: usize = 2;

const FRAC_BITS: u32 = 52;
/// The implicit leading bit of a normal `f64` mantissa.
const IMPLICIT: u64 = 1 << FRAC_BITS;
const FRAC_MASK: u64 = IMPLICIT - 1;
/// Smallest and largest mantissa a jump may land on: one ulp inside the
/// binade, so a round from there cannot round across the binade's edge.
const LANDING: std::ops::RangeInclusive<u64> = (IMPLICIT + 1)..=(2 * IMPLICIT - 1);

/// `n` rounds of `x += step`, bit for bit.
///
/// Inside the binade of a normal `x`, `x` is an integer mantissa `m` times
/// the binade's ulp, and a round adds `step / ulp` rounded to the nearest
/// integer `d`, the same `d` for every `x` in the binade. So `k` rounds are
/// `m + k·d`, for as many rounds as land at least one ulp inside the
/// binade. A round whose `step / ulp` ends in exactly one half (a tie,
/// where the rounding depends on the parity of `m`), a round that would
/// leave the binade, and every round on a zero, subnormal or non-finite
/// `x` are real adds; a real add that leaves `x` unchanged ends the call,
/// since every later round repeats it. Below [`CLOSED_FORM_MIN_TICKS`]
/// rounds this is the plain loop.
///
/// ```
/// use hcapp_sim_core::accum::repeat_add;
///
/// let mut x = 0.25f64;
/// for _ in 0..100_000 {
///     x += 1e-7;
/// }
/// assert_eq!(repeat_add(0.25, 1e-7, 100_000).to_bits(), x.to_bits());
/// ```
pub fn repeat_add(mut x: f64, step: f64, n: usize) -> f64 {
    if n < CLOSED_FORM_MIN_TICKS {
        for _ in 0..n {
            x += step;
        }
        return x;
    }
    let mut left = n;
    while left > 0 {
        let (k, y) = binade_jump(x, step, left).unwrap_or((1, x + step));
        if y.to_bits() == x.to_bits() {
            return x;
        }
        x = y;
        left -= k;
    }
    x
}

/// Up to `left` rounds of `x += step` inside `x`'s binade, as
/// `(rounds, result)`: `None` when the next round must be a real add (see
/// [`repeat_add`]).
#[inline]
fn binade_jump(x: f64, step: f64, left: usize) -> Option<(usize, f64)> {
    let bits = x.to_bits();
    let biased = (bits >> FRAC_BITS) & 0x7ff;
    if biased == 0 || biased == 0x7ff || !step.is_finite() {
        return None;
    }
    let m = (bits & FRAC_MASK) | IMPLICIT;
    let d = ulps_per_round(biased, step)?;
    // The binade is symmetric under negation, and so is round-to-nearest-
    // even: a negative `x` moves its magnitude by `-step`.
    let grows = (step > 0.0) == (x > 0.0);
    let room = if grows {
        LANDING.end().saturating_sub(m)
    } else {
        m.saturating_sub(*LANDING.start())
    };
    let k = (room / d).min(u64::try_from(left).unwrap_or(u64::MAX));
    if k == 0 {
        return None;
    }
    let moved = k * d;
    let m = if grows { m + moved } else { m - moved };
    let rounds = usize::try_from(k).unwrap_or(left);
    Some((
        rounds,
        f64::from_bits((bits & !FRAC_MASK) | (m & FRAC_MASK)),
    ))
}

/// `|step|` in ulps of the binade with biased exponent `biased`, rounded
/// to the nearest integer: `None` on a tie or when it rounds to zero.
#[inline]
fn ulps_per_round(biased: u64, step: f64) -> Option<u64> {
    let sbits = step.to_bits();
    let sbiased = (sbits >> FRAC_BITS) & 0x7ff;
    let (ms, se) = if sbiased == 0 {
        (sbits & FRAC_MASK, 1)
    } else {
        ((sbits & FRAC_MASK) | IMPLICIT, sbiased)
    };
    // |step| = ms · 2^(se - biased) ulps.
    let d = if se >= biased {
        // At most 10 doublings keep `ms << shift` inside a u64; a larger
        // step leaves the binade in one round anyway.
        let shift = se - biased;
        if shift > 10 {
            return None;
        }
        ms << shift
    } else {
        let shift = biased - se;
        if shift >= 64 {
            return None;
        }
        let half = 1u64 << (shift - 1);
        let rem = ms & ((half << 1) - 1);
        let whole = ms >> shift;
        if rem == half {
            return None;
        }
        whole + u64::from(rem > half)
    };
    (d > 0).then_some(d)
}

/// Jump a countdown loop over its bulk: `max` rounds of `up += step;
/// down -= step`, each taken while `holds(down)`, where `holds` can only
/// turn false as `down` falls. Returns `(ticks, up, down)` after the
/// largest number of rounds, short of its estimate by a few, that the
/// countdown is proven to allow; `(0, up, down)` when that is below
/// [`CLOSED_FORM_MIN_TICKS`] or not proven. The caller's per-tick loop
/// then finishes the span; callers skip the call for spans shorter than
/// the cutoff.
///
/// The proof is a check on the landing value: `down` never rises under
/// `down -= step` with `step >= 0`, so if `holds` is true after the jump it
/// was true before every skipped round (DESIGN §6j, obligation 22).
#[inline]
pub fn jump_countdown(
    up: f64,
    down: f64,
    step: f64,
    max: usize,
    holds: impl Fn(f64) -> bool,
) -> (usize, f64, f64) {
    if step.is_nan() || step < 0.0 {
        return (0, up, down);
    }
    // A truncating cast of the non-negative estimate: NaN reads 0 and the
    // infinity of a zero step saturates.
    let estimate = (down / step) as usize;
    let k = estimate.saturating_sub(JUMP_MARGIN).min(max);
    if k < CLOSED_FORM_MIN_TICKS {
        return (0, up, down);
    }
    let landed = repeat_add(down, -step, k);
    if !holds(landed) {
        return (0, up, down);
    }
    (k, repeat_add(up, step, k), landed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;

    fn plain(mut x: f64, step: f64, n: usize) -> f64 {
        for _ in 0..n {
            x += step;
        }
        x
    }

    fn check(x: f64, step: f64, n: usize) {
        let got = repeat_add(x, step, n);
        let want = plain(x, step, n);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "repeat_add({x:e}, {step:e}, {n}) = {got:e}, plain loop {want:e}"
        );
    }

    #[test]
    fn repeat_add_matches_the_plain_loop() {
        let ulp1 = f64::EPSILON;
        let cases = [
            // Ties at half an ulp of 1.0 and of 2.0, up and down.
            (1.0, 0.5 * ulp1, 1_000),
            (1.0, 1.5 * ulp1, 1_000),
            (1.0 + ulp1, 2.5 * ulp1, 1_000),
            (2.0, 1.5 * ulp1, 1_000),
            (2.0, -1.5 * ulp1, 1_000),
            (2.0 - ulp1, -0.5 * ulp1, 1_000),
            // Just off a tie, so the closed form takes it.
            (1.0, 0.5 * ulp1 * (1.0 + ulp1), 1_000),
            (1.0, 1.75 * ulp1, 1_000_000),
            // Binade crossings up and down, many of them.
            (1e-3, 1e-7, 1_000_000),
            (0.02, -3.3e-8, 1_000_000),
            (1.0, 1.0, 100_000),
            (1.0 - ulp1, ulp1, 64),
            (2.0, -ulp1, 64),
            (2.0, -0.75 * ulp1, 64),
            (1.0 + 10.0 * ulp1, -1.3 * ulp1, 64),
            (1.0 + 10.0 * ulp1, -0.7 * ulp1, 64),
            (2.0 - 10.0 * ulp1, 1.3 * ulp1, 64),
            (4.0, -0.3 * ulp1, 64),
            (1.5, -0.51, 1_000),
            // Steps that round to zero, at the binade's bottom as well.
            (1.0, 0.25 * ulp1, 1_000),
            (1.0, -0.2 * ulp1, 1_000),
            (1.0, -0.3 * ulp1, 1_000),
            (1e300, 1.0, 1_000),
            // A zero start, negative and subnormal values.
            (0.0, 1e-3, 10_000),
            (-0.0, 0.0, 100),
            (0.0, -0.0, 100),
            (-0.0, -0.0, 100),
            (0.0, f64::MIN_POSITIVE * 0.25, 10_000),
            (-5.0, 0.001, 100_000),
            (-5.0, -0.001, 100_000),
            (0.5, -0.001, 100_000),
            (-1e-310, 1e-320, 10_000),
            (f64::MIN_POSITIVE, -1e-320, 10_000),
            (f64::MIN_POSITIVE * 3.0, -f64::MIN_POSITIVE * 0.01, 1_000),
            // Overflow, NaN and infinity.
            (f64::MAX * 0.5, f64::MAX * 0.125, 100),
            (f64::NAN, 1.0, 100),
            (1.0, f64::NAN, 100),
            (f64::INFINITY, 1.0, 100),
            (f64::NEG_INFINITY, f64::INFINITY, 100),
            (1.0, f64::INFINITY, 100),
            (1.0, f64::NEG_INFINITY, 100),
        ];
        for (x, step, n) in cases {
            for n in [0, 1, 31, 32, 33, n] {
                check(x, step, n);
            }
        }
    }

    #[test]
    fn repeat_add_matches_the_plain_loop_on_random_steps() {
        // Random starts and steps over many magnitudes and both signs,
        // with steps drawn near whole and half ulps of the start, and
        // starts a few ulps above a binade's bottom stepping down by a
        // fraction of an ulp or a few.
        let mut rng = DeterministicRng::new(25);
        for case in 0..2_000 {
            if case % 4 == 3 {
                let bottom = 2f64.powi(rng.below(20) as i32 - 10);
                let ulp = bottom * f64::EPSILON;
                let x = bottom + ulp * rng.below(200) as f64;
                check(
                    x,
                    -ulp * rng.uniform(0.0, 3.0),
                    32 + rng.below(300) as usize,
                );
                continue;
            }
            let x = rng.uniform(-1.0, 1.0) * 10f64.powi(rng.below(12) as i32 - 6);
            let step = match case % 4 {
                0 => rng.uniform(-1.0, 1.0) * 10f64.powi(rng.below(12) as i32 - 9),
                1 => {
                    let ulp = f64::from_bits(x.abs().to_bits() + 1) - x.abs();
                    ulp * (rng.below(9) as f64 * 0.5) * if rng.chance(0.5) { 1.0 } else { -1.0 }
                }
                _ => x * rng.uniform(-1e-4, 1e-4),
            };
            let n = 32 + rng.below(20_000) as usize;
            check(x, step, n);
        }
    }

    #[test]
    fn jump_countdown_lands_where_the_loop_would() {
        // (down, step): a countdown that allows many rounds, one that
        // allows none, a zero step, and steps that do not divide it.
        for (down, step) in [
            (1e4, 100.0),
            (1e4, 333.3),
            (50.0, 100.0),
            (7e3, 0.0),
            (1e6, 0.7),
        ] {
            for max in [0, 31, 32, 100, 5_000, 1_000_000] {
                let (k, up, landed) = jump_countdown(3.5, down, step, max, |d| step < d);
                let (mut u, mut d) = (3.5, down);
                for _ in 0..k {
                    assert!(step < d, "a skipped round the countdown refuses");
                    u += step;
                    d -= step;
                }
                assert_eq!((up.to_bits(), landed.to_bits()), (u.to_bits(), d.to_bits()));
                assert!(k <= max);
                assert!(k == 0 || k >= CLOSED_FORM_MIN_TICKS);
            }
        }
        // A landing value that fails the check keeps the state.
        assert_eq!(
            jump_countdown(1.0, 1e4, 1.0, 1_000, |_| false),
            (0, 1.0, 1e4)
        );
    }
}
