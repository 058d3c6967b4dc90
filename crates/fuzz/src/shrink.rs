//! Greedy failing-case reduction.
//!
//! [`shrink`] takes a case the oracle rejects and repeatedly applies
//! structure-removing passes — drop retargets, halve the duration, strip
//! the fault plan, the memory domain, the software policy and the trace
//! flags, move the kill point to the first quantum — keeping a candidate
//! only if it *still* fails. Every pass strictly shrinks a
//! field, so the loop terminates at a local minimum: the smallest repro
//! this pass set can reach, emitted as the `hcapp.fuzzcase` the user
//! actually debugs.

use crate::case::{FuzzCase, Plant};
use crate::oracle::check_case;

/// Reduce `case` to a locally-minimal case that still fails the oracle.
/// If `case` passes the oracle it is returned unchanged (there is nothing
/// to preserve while shrinking).
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    let mut best = case.clone();
    if check_case(&best).is_empty() {
        return best;
    }
    // Greedy descent: retry the pass list until no candidate both shrinks
    // and still fails. Each acceptance strictly reduces the size metric,
    // so the explicit round cap is a backstop, not a limiter.
    for _round in 0..40 {
        let mut improved = false;
        for cand in candidates(&best) {
            if cand.validate().is_err() || size(&cand) >= size(&best) {
                continue;
            }
            if !check_case(&cand).is_empty() {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    best
}

/// How much structure a case carries — the quantity shrinking minimizes.
fn size(c: &FuzzCase) -> u64 {
    let mut s = c.duration_ns / 1_000;
    s += c.retargets.len() as u64 * 50;
    s += u64::from(c.faults.is_some()) * 40;
    s += u64::from(c.memory) * 30;
    s += u64::from(!matches!(c.software, hcapp::coordinator::SoftwareConfig::None)) * 20;
    s += u64::from(c.record_trace) * 10;
    s += u64::from(c.record_vtrace) * 10;
    s += c.kill_at.min(100);
    s
}

/// The ordered candidate list: most structure removed first.
fn candidates(c: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // Retarget passes: all, first half, each single element.
    if !c.retargets.is_empty() {
        let mut x = c.clone();
        x.retargets.clear();
        out.push(x);
        if c.retargets.len() > 1 {
            let mut x = c.clone();
            x.retargets.truncate(c.retargets.len() / 2);
            out.push(x);
            for i in 0..c.retargets.len() {
                let mut x = c.clone();
                x.retargets.remove(i);
                out.push(x);
            }
        }
    }
    // Halve the duration (whole microseconds, floored at 20 µs — below
    // that every scheme degenerates to a single quantum anyway).
    if c.duration_ns > 20_000 {
        let mut x = c.clone();
        x.duration_ns = ((c.duration_ns / 2) / 1_000).max(20) * 1_000;
        out.push(x);
    }
    if c.faults.is_some() {
        let mut x = c.clone();
        x.faults = None;
        out.push(x);
    }
    if c.memory {
        let mut x = c.clone();
        x.memory = false;
        out.push(x);
    }
    if !matches!(c.software, hcapp::coordinator::SoftwareConfig::None) {
        let mut x = c.clone();
        x.software = hcapp::coordinator::SoftwareConfig::None;
        out.push(x);
    }
    if c.record_trace || c.record_vtrace {
        let mut x = c.clone();
        x.record_trace = false;
        x.record_vtrace = false;
        out.push(x);
    }
    if c.kill_at > 1 {
        let mut x = c.clone();
        x.kill_at = 1;
        out.push(x);
    }
    out
}

/// True if the shrunk case kept the planted defect (plants are the failing
/// cause for planted cases, so passes never touch [`Plant`]).
pub fn keeps_plant(original: &FuzzCase, shrunk: &FuzzCase) -> bool {
    original.plant == Plant::None || original.plant == shrunk.plant
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn a_passing_case_is_returned_unchanged() {
        let case = generate(3);
        assert_eq!(shrink(&case), case);
    }

    #[test]
    fn a_planted_case_shrinks_to_a_smaller_failing_repro() {
        // Pick a seed whose generated case carries real structure to strip.
        let mut case = generate(21);
        case.memory = true;
        case.record_trace = true;
        case.duration_ns = 400_000;
        case.plant = Plant::ResumeBitflip;
        assert!(!check_case(&case).is_empty(), "plant must fail pre-shrink");
        let small = shrink(&case);
        assert!(
            !check_case(&small).is_empty(),
            "shrunk case no longer fails: {small:?}"
        );
        assert!(size(&small) < size(&case), "no reduction: {small:?}");
        assert!(keeps_plant(&case, &small));
        // The bitflip fails regardless of structure, so the minimum is
        // deep: everything optional stripped.
        assert!(small.retargets.is_empty());
        assert!(small.faults.is_none());
        assert!(!small.memory);
        assert_eq!(small.kill_at, 1);
        assert_eq!(small.duration_ns, 20_000);
    }
}
