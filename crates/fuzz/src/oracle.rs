//! The differential and metamorphic oracles.
//!
//! [`check_case`] runs one [`FuzzCase`] and diffs every other way of
//! obtaining its result against the reference run: the encoded outcome
//! (`encode_outcome` bytes — every float as its IEEE-754 bit pattern) and
//! the JSONL telemetry trace. Three differential legs:
//!
//! 1. **serial** — the traced reference run; its trace must replay into an
//!    offline `hcapp.report`, and the same run untraced must produce the
//!    same encoded outcome.
//! 2. **resume** — kill at the case's quantum, resume from the checkpoint,
//!    compare the outcome *and* the stitched trace-sink bytes.
//! 3. **cache** — `encode_outcome` → `decode_outcome` → re-encode, plus a
//!    disk roundtrip through `RunCache`.
//!
//! Then three metamorphic invariants derived from the paper, checked on the
//! reference outcome (no second opinion needed — the transformed run must
//! agree with the original bit for bit):
//!
//! * **meta-ppe** — Eq. 1–2/4 normalize by the provisioned power, so
//!   scaling the provisioned budget by a power of two must scale PPE by
//!   exactly its inverse (power-of-two float ops touch only the exponent).
//! * **meta-priority** — §5.3's priority register is last-write-wins:
//!   permuting all but the final write cannot change any domain voltage.
//! * **meta-retarget** — §5.2's dynamic limit applies at the next control
//!   quantum boundary, so ceiling every retarget time to its boundary is
//!   outcome-invariant for dynamic schemes.
//!
//! A [`Plant`] carried by the case perturbs exactly one leg, which is how
//! the catch → shrink → replay pipeline is exercised end to end.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use hcapp::cache::{decode_outcome, encode_outcome, job_key};
use hcapp::campaign::{kill_chain, reference_trace};
use hcapp::{total_quanta, DomainController, ResumeOptions, RunCache, RunOutcome, Simulation};
use hcapp_analyze::StreamAnalyzer;
use hcapp_sim_core::units::{Volt, Watt};

use crate::case::{FuzzCase, Plant};
use crate::rng::SplitMix64;

/// One oracle violation: which leg tripped, and a deterministic description
/// (no paths, no timings — campaign logs must be byte-stable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The oracle leg that tripped (`serial`, `resume`, `cache`,
    /// `meta-ppe`, `meta-priority`, `meta-retarget`).
    pub leg: &'static str,
    /// What diverged.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.leg, self.detail)
    }
}

/// Run every oracle leg over `case`. An empty vector means the case upheld
/// the determinism contract and all three metamorphic invariants.
pub fn check_case(case: &FuzzCase) -> Vec<Failure> {
    let mut fails = Vec::new();

    // Leg 1: the traced serial reference, whose trace must replay, and
    // which the same run untraced must reproduce (tracing observes, it
    // never steers).
    let (sys, run) = case.build();
    let (out_s, trace_s) = match reference_trace(&sys, &run, &[]) {
        Ok(r) => r,
        Err(e) => {
            fails.push(Failure {
                leg: "serial",
                detail: e.to_string(),
            });
            return fails;
        }
    };
    let enc_s = encode_outcome(&out_s);
    let mut analyzer = StreamAnalyzer::new();
    if let Err(e) = analyzer.consume_jsonl(&trace_s) {
        fails.push(Failure {
            leg: "serial",
            detail: format!("trace replay rejected the serial trace: {e}"),
        });
    }
    let enc_u = encode_outcome(&Simulation::new(sys, run).run());
    if enc_u != enc_s {
        fails.push(Failure {
            leg: "serial",
            detail: format!(
                "untraced outcome diverges from the traced reference ({})",
                first_divergence(&enc_s, &enc_u)
            ),
        });
    }

    // Leg 2: kill-and-resume.
    check_resume(case, &enc_s, &trace_s, &mut fails);

    // Leg 3: cache roundtrip (in-memory codec + disk store).
    check_cache(case, &out_s, &enc_s, &mut fails);

    // Metamorphic invariants.
    check_meta_ppe(case, &out_s, &mut fails);
    check_meta_priority(case, &mut fails);
    check_meta_retarget(case, &enc_s, &mut fails);

    fails
}

/// Kill the run at the case's quantum, resume it from the checkpoint, and
/// compare both the final outcome and the stitched trace-sink bytes.
fn check_resume(case: &FuzzCase, enc_s: &str, trace_s: &str, fails: &mut Vec<Failure>) {
    let (sys, run) = case.build();
    let total = total_quanta(&sys, &run);
    let kill = case.kill_at.min(total.saturating_sub(1));
    let dir = tmp_dir("resume", case.seed);
    let opts = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(case.checkpoint_every)
        .with_trace_sink(dir.join("hcapp.trace"));
    let kills: &[u64] = if kill >= 1 { &[kill] } else { &[] };
    match kill_chain(&sys, &run, &opts, kills) {
        Ok(mut chain) => {
            if case.plant == Plant::ResumeBitflip {
                let bits = chain.outcome.avg_power.value().to_bits();
                chain.outcome.avg_power = Watt::new(f64::from_bits(bits ^ 1));
            }
            let enc = encode_outcome(&chain.outcome);
            if enc != enc_s {
                fails.push(Failure {
                    leg: "resume",
                    detail: format!(
                        "resumed outcome diverges from the serial reference ({})",
                        first_divergence(enc_s, &enc)
                    ),
                });
            }
            if chain.trace != trace_s {
                fails.push(Failure {
                    leg: "resume",
                    detail: format!(
                        "stitched trace sink diverges from the serial trace ({})",
                        first_divergence(trace_s, &chain.trace)
                    ),
                });
            }
        }
        Err(e) => fails.push(Failure {
            leg: "resume",
            detail: e.to_string(),
        }),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Codec + disk roundtrip: decode must re-encode to the same bytes, and a
/// `RunCache` store/load cycle must return the identical outcome.
fn check_cache(case: &FuzzCase, out_s: &RunOutcome, enc_s: &str, fails: &mut Vec<Failure>) {
    let mut body = enc_s.to_string();
    if case.plant == Plant::CacheTruncate {
        body.truncate(body.len() / 2);
    }
    match decode_outcome(&body) {
        Some(out) => {
            let enc = encode_outcome(&out);
            if enc != enc_s {
                fails.push(Failure {
                    leg: "cache",
                    detail: format!(
                        "decode → re-encode is not a fixpoint ({})",
                        first_divergence(enc_s, &enc)
                    ),
                });
            }
        }
        None => fails.push(Failure {
            leg: "cache",
            detail: "encoded outcome failed to decode".into(),
        }),
    }
    let (sys, run) = case.build();
    if let Some(key) = job_key(&sys, &run) {
        let dir = tmp_dir("cache", case.seed);
        let cache = RunCache::new(&dir);
        cache.insert(key, out_s);
        match cache.lookup(key) {
            Some(got) => {
                let enc = encode_outcome(&got);
                if enc != enc_s {
                    fails.push(Failure {
                        leg: "cache",
                        detail: format!(
                            "disk roundtrip changed the outcome ({})",
                            first_divergence(enc_s, &enc)
                        ),
                    });
                }
            }
            None => fails.push(Failure {
                leg: "cache",
                detail: "stored entry did not load back".into(),
            }),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Eq. 1–2/4: PPE normalizes by the provisioned power, so a power-of-two
/// budget scale must invert exactly (exponent-only float arithmetic).
fn check_meta_ppe(case: &FuzzCase, out_s: &RunOutcome, fails: &mut Vec<Failure>) {
    let reference = out_s.ppe(Watt::new(case.target));
    for k in [2.0f64, 4.0, 8.0] {
        let rescaled = out_s.ppe(Watt::new(case.target * k)) * k;
        if rescaled.to_bits() != reference.to_bits() {
            fails.push(Failure {
                leg: "meta-ppe",
                detail: format!(
                    "ppe not invariant under provisioned-power scale {k}: {} vs {}",
                    crate::case::f64_hex(reference),
                    crate::case::f64_hex(rescaled)
                ),
            });
        }
    }
}

/// §5.3: the domain priority register is last-write-wins, so permuting all
/// but the final write in a register sequence cannot change any voltage.
fn check_meta_priority(case: &FuzzCase, fails: &mut Vec<Failure>) {
    let mut r = SplitMix64::new(case.seed ^ 0x9D0F_55AA_C3E1_7B24);
    let prefix: Vec<f64> = (0..4).map(|_| 0.5 + r.below(101) as f64 / 100.0).collect();
    let last = 0.5 + r.below(101) as f64 / 100.0;
    let grid = [0.7, 0.9, 1.1, 1.3];
    let volts_of = |writes: &[f64]| -> Vec<u64> {
        let mut dc = DomainController::scaled(1.0, Volt::new(0.7), Volt::new(1.3));
        for &p in writes {
            dc.set_priority(p);
        }
        grid.iter()
            .map(|&vg| dc.domain_voltage(Volt::new(vg)).value().to_bits())
            .collect()
    };
    let mut fwd = prefix.clone();
    fwd.push(last);
    let mut rev: Vec<f64> = prefix.iter().rev().copied().collect();
    rev.push(last);
    if volts_of(&fwd) != volts_of(&rev) {
        fails.push(Failure {
            leg: "meta-priority",
            detail: "permuting non-final priority writes changed a domain voltage".into(),
        });
    }
}

/// §5.2: a dynamic retarget takes effect at the next control-quantum
/// boundary, so ceiling every retarget time onto its boundary must leave
/// the outcome bit-identical.
fn check_meta_retarget(case: &FuzzCase, enc_s: &str, fails: &mut Vec<Failure>) {
    let Some(period) = case.scheme.control_period() else {
        return;
    };
    if case.retargets.is_empty() {
        return;
    }
    let p_ns = period.as_nanos();
    let mut alt = case.clone();
    alt.retargets = case
        .retargets
        .iter()
        .map(|&(t, w)| (t.div_ceil(p_ns) * p_ns, w))
        .collect();
    // Ceiled times may collide on one boundary; `build` tolerates the
    // resulting non-strict ordering, and last-write-wins matches the
    // original bucketed application order.
    let (sys, run) = alt.build();
    let out = Simulation::new(sys, run).run();
    let enc = encode_outcome(&out);
    if enc != enc_s {
        fails.push(Failure {
            leg: "meta-retarget",
            detail: format!(
                "boundary-ceiled retargets changed the outcome ({})",
                first_divergence(enc_s, &enc)
            ),
        });
    }
}

/// Deterministic one-line description of where two artifacts diverge.
fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first divergence at line {}", i + 1);
        }
    }
    format!("lengths differ: {} vs {} bytes", a.len(), b.len())
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory unique to this process and call site. Under the OS
/// temp root, tagged so a crashed run's leftovers are identifiable.
fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hcapp_fuzz_{tag}_{}_{seed:016x}_{seq}",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn clean_cases_pass_every_leg() {
        // A handful of generated seeds; each exercises all three legs plus
        // the metamorphic trio.
        for seed in [3u64, 11, 42] {
            let case = generate(seed);
            let fails = check_case(&case);
            assert!(fails.is_empty(), "seed {seed}: {fails:?}");
        }
    }

    #[test]
    fn planted_resume_bitflip_is_caught_only_on_the_resume_leg() {
        let mut case = generate(7);
        case.plant = Plant::ResumeBitflip;
        let fails = check_case(&case);
        assert!(!fails.is_empty(), "plant went undetected");
        assert!(
            fails.iter().all(|f| f.leg == "resume"),
            "plant leaked into other legs: {fails:?}"
        );
    }

    #[test]
    fn planted_cache_truncation_is_caught_on_the_cache_leg() {
        let mut case = generate(9);
        case.plant = Plant::CacheTruncate;
        let fails = check_case(&case);
        assert!(
            fails.iter().any(|f| f.leg == "cache"),
            "truncated cache body decoded cleanly: {fails:?}"
        );
    }
}
