//! `hcapp fuzz` — the deterministic config-space fuzzer.
//!
//! Four modes:
//!
//! * default — a seeded campaign (`--seed`, `--cases`): generate cases,
//!   run every differential + metamorphic oracle leg, shrink any failure,
//!   print the byte-stable campaign log. Nonzero exit on any failure, with
//!   each shrunk repro written to
//!   `results/fuzz/finding-<seed>-<i>.fuzzcase` for `--replay`.
//! * `--smoke` — the fixed-seed CI corpus (seed `0xC0FFEE`, 24 cases,
//!   capped at 32): `scripts/check.sh` runs it twice and byte-compares the
//!   logs, so determinism itself is gated, not just correctness.
//! * `--plant resume|cache` — the self-test: plant a known defect, verify
//!   the oracle catches it, shrink it to a minimal repro, write that as an
//!   `hcapp.fuzzcase` file (`--out`, valid only here) and verify
//!   `--replay` of the written bytes reproduces the catch.
//! * `--replay PATH` — rerun a committed `hcapp.fuzzcase` exactly; exit
//!   nonzero (listing the failing legs) if it still fails.

use std::fs;
use std::path::{Path, PathBuf};

use hcapp_fuzz::case::FuzzCase;
use hcapp_fuzz::{check_case, rng, run_campaign, shrink, CampaignConfig, Plant};

use crate::args::{ArgError, Args};

/// Default campaign seed (also the smoke corpus seed).
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Smoke corpus size; `--cases` is clamped to [`SMOKE_CAP`] in smoke mode
/// so the CI gate stays bounded.
const SMOKE_CASES: u64 = 24;
/// Hard cap on smoke-mode cases.
const SMOKE_CAP: u64 = 32;

fn bad(flag: &str, value: String, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value,
        expected,
    }
}

fn fail(msg: String) -> ArgError {
    ArgError::Failed(msg)
}

/// Execute `hcapp fuzz`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let replay = args.opt_string("replay")?;
    let plant = args.opt_string("plant")?;
    let smoke = args.switch("smoke")?;
    let seed = args.u64("seed", DEFAULT_SEED)?;
    let cases = args.u64("cases", if smoke { SMOKE_CASES } else { 64 })?;
    let out = args.opt_string("out")?;
    args.finish()?;

    if let (Some(path), None) = (&out, &plant) {
        return Err(bad("out", path.clone(), "--out only together with --plant"));
    }
    if let Some(path) = replay {
        return replay_case(&path);
    }
    if let Some(kind) = plant {
        return plant_and_catch(&kind, seed, out);
    }
    let cfg = CampaignConfig {
        seed,
        cases: if smoke { cases.min(SMOKE_CAP).max(1) } else { cases.max(1) },
        plant: Plant::None,
    };
    campaign(&cfg, Path::new("results/fuzz"))
}

/// Run a campaign. On failure, write each shrunk repro to
/// `dir/finding-<seed>-<i>.fuzzcase` and list the paths in the error.
fn campaign(cfg: &CampaignConfig, dir: &Path) -> Result<String, ArgError> {
    let report = run_campaign(cfg);
    if report.clean() {
        return Ok(report.log);
    }
    let mut msg = format!(
        "{}fuzz FAILED: {} of {} cases diverged\n",
        report.log,
        report.findings.len(),
        report.cases
    );
    fs::create_dir_all(dir)
        .map_err(|e| fail(format!("{msg}fuzz: cannot create {}: {e}", dir.display())))?;
    for (i, f) in report.findings.iter().enumerate() {
        let path = dir.join(format!("finding-{:#x}-{i:03}.fuzzcase", cfg.seed));
        fs::write(&path, f.shrunk.encode())
            .map_err(|e| fail(format!("{msg}fuzz: cannot write {}: {e}", path.display())))?;
        msg.push_str(&format!("  repro {i}: {}\n", path.display()));
    }
    Err(fail(msg))
}

/// `--replay PATH`: decode a committed fuzzcase and rerun the full oracle
/// set over it.
fn replay_case(path: &str) -> Result<String, ArgError> {
    let text = fs::read_to_string(path)
        .map_err(|e| fail(format!("fuzz: cannot read {path}: {e}")))?;
    let case = FuzzCase::decode(&text).map_err(|e| fail(format!("fuzz: {path}: {e}")))?;
    let failures = check_case(&case);
    if failures.is_empty() {
        Ok(format!("fuzzcase ok: {} passes every oracle leg\n", case.brief()))
    } else {
        let mut msg = format!("fuzzcase FAILS ({}):\n", case.brief());
        for f in &failures {
            msg.push_str(&format!("  {f}\n"));
        }
        Err(fail(msg))
    }
}

/// `--plant resume|cache`: verify the whole catch → shrink → emit →
/// replay pipeline against a defect we know is there.
fn plant_and_catch(kind: &str, seed: u64, out: Option<String>) -> Result<String, ArgError> {
    let plant = match kind {
        "resume" => Plant::ResumeBitflip,
        "cache" => Plant::CacheTruncate,
        _ => {
            return Err(bad(
                "plant",
                kind.to_string(),
                "resume (bitflip across the resume seam) or cache (torn cache entry)",
            ))
        }
    };
    let mut case = hcapp_fuzz::generate(rng::derive(seed, 0));
    case.plant = plant;
    let failures = check_case(&case);
    if failures.is_empty() {
        return Err(fail(format!(
            "fuzz: planted defect `{}` went UNDETECTED on {}",
            plant.tag(),
            case.brief()
        )));
    }
    let shrunk = shrink(&case);
    let still = check_case(&shrunk);
    if still.is_empty() {
        return Err(fail(
            "fuzz: shrinking lost the planted failure".to_string(),
        ));
    }
    let path = PathBuf::from(
        out.unwrap_or_else(|| format!("results/fuzz/planted-{}.fuzzcase", plant.tag())),
    );
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)
            .map_err(|e| fail(format!("fuzz: cannot create {}: {e}", dir.display())))?;
    }
    fs::write(&path, shrunk.encode())
        .map_err(|e| fail(format!("fuzz: cannot write {}: {e}", path.display())))?;
    // Close the loop: the written bytes must decode and reproduce.
    let back = FuzzCase::decode(
        &fs::read_to_string(&path)
            .map_err(|e| fail(format!("fuzz: cannot re-read {}: {e}", path.display())))?,
    )
    .map_err(|e| fail(format!("fuzz: written fuzzcase does not decode: {e}")))?;
    let replayed = check_case(&back);
    if replayed.is_empty() {
        return Err(fail(format!(
            "fuzz: replay of {} does NOT reproduce the failure",
            path.display()
        )));
    }
    let mut msg = format!(
        "planted `{}`: caught, shrunk, replay reproduces\n  repro: {}\n  written: {}\n",
        plant.tag(),
        shrunk.brief(),
        path.display()
    );
    for f in &replayed {
        msg.push_str(&format!("  {f}\n"));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(s: &str) -> Result<String, ArgError> {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap())
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcapp_fuzz_cmd_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn smoke_corpus_is_clean_and_byte_stable() {
        let a = run_cli("--smoke --cases 3").unwrap();
        let b = run_cli("--smoke --cases 3").unwrap();
        assert_eq!(a, b);
        assert!(a.contains("campaign done: 3 cases, 0 failing"), "{a}");
        assert!(a.contains(&format!("{DEFAULT_SEED:#018x}")), "{a}");
    }

    #[test]
    fn plant_catch_shrink_replay_closes_the_loop() {
        let dir = scratch("plant");
        let out = dir.join("repro.fuzzcase");
        let msg = run_cli(&format!("--plant resume --out {}", out.display())).unwrap();
        assert!(msg.contains("caught, shrunk, replay reproduces"), "{msg}");
        assert!(out.exists());
        // Replaying the emitted repro fails loudly, naming the leg.
        let err = run_cli(&format!("--replay {}", out.display()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("fuzzcase FAILS"), "{err}");
        assert!(err.contains("resume"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_campaign_writes_replayable_repros() {
        let dir = scratch("campaign");
        let cfg = CampaignConfig {
            seed: 5,
            cases: 1,
            plant: Plant::ResumeBitflip,
        };
        let err = campaign(&cfg, &dir).unwrap_err().to_string();
        let repro = dir.join("finding-0x5-000.fuzzcase");
        assert!(err.contains("fuzz FAILED: 1 of 1"), "{err}");
        assert!(err.contains(&repro.display().to_string()), "{err}");
        let replayed = run_cli(&format!("--replay {}", repro.display()))
            .unwrap_err()
            .to_string();
        assert!(replayed.contains("fuzzcase FAILS"), "{replayed}");
        assert!(replayed.contains("resume"), "{replayed}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_without_plant_is_a_flag_error() {
        let e = run_cli("--smoke --cases 1 --out x.fuzzcase").unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "out"), "{e}");
    }

    #[test]
    fn replay_of_a_clean_case_passes() {
        let dir = scratch("replay");
        let case = hcapp_fuzz::generate(rng::derive(DEFAULT_SEED, 1));
        let path = dir.join("clean.fuzzcase");
        fs::write(&path, case.encode()).unwrap();
        let msg = run_cli(&format!("--replay {}", path.display())).unwrap();
        assert!(msg.contains("passes every oracle leg"), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_plant_kind_names_the_choices() {
        let e = run_cli("--plant gremlin").unwrap_err().to_string();
        assert!(e.contains("resume"), "{e}");
        assert!(e.contains("cache"), "{e}");
    }

    #[test]
    fn damaged_fuzzcase_is_rejected_with_the_reason() {
        let dir = scratch("damaged");
        let path = dir.join("bad.fuzzcase");
        fs::write(&path, "hcapp.fuzzcase v2\nseed banana\n").unwrap();
        let e = run_cli(&format!("--replay {}", path.display()))
            .unwrap_err()
            .to_string();
        assert!(e.contains("bad integer"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }
}
