//! The batch driver behind `hcapp fuzz` and the soak script.
//!
//! [`run_campaign`] derives one independent splitmix stream per case from
//! the campaign seed, generates and checks each case in order, shrinks any
//! failure, and returns a byte-stable log — two invocations with the same
//! config produce identical output, which is what lets `scripts/check.sh`
//! gate the smoke corpus by literal byte comparison.

use crate::case::{FuzzCase, Plant};
use crate::gen::generate;
use crate::oracle::{check_case, Failure};
use crate::rng::derive;
use crate::shrink::shrink;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Campaign seed; per-case seeds are derived from it.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Plant carried by every generated case (`Plant::None` for real
    /// fuzzing; a defect variant to exercise the catch/shrink pipeline).
    pub plant: Plant,
}

/// One caught divergence: the case as generated, its shrunk repro, and the
/// oracle legs that tripped.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The case exactly as the generator emitted it.
    pub original: FuzzCase,
    /// The locally-minimal repro that still fails.
    pub shrunk: FuzzCase,
    /// The failures the *original* case produced.
    pub failures: Vec<Failure>,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Byte-stable per-case log (one line per case plus a summary line).
    pub log: String,
    /// Caught and shrunk divergences, in case order.
    pub findings: Vec<Finding>,
    /// Number of cases checked.
    pub cases: u64,
}

impl CampaignReport {
    /// True if every case upheld every oracle.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run `cfg.cases` generated cases through the full oracle set, shrinking
/// every failure. Deterministic: the report (log included) is a pure
/// function of `cfg`.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut log = String::new();
    let mut findings = Vec::new();
    log.push_str(&format!(
        "hcapp-fuzz campaign seed={:#018x} cases={} plant={}\n",
        cfg.seed,
        cfg.cases,
        cfg.plant.tag()
    ));
    for i in 0..cfg.cases {
        let mut case = generate(derive(cfg.seed, i));
        case.plant = cfg.plant;
        let failures = check_case(&case);
        if failures.is_empty() {
            log.push_str(&format!("case {i:03} {} | ok\n", case.brief()));
        } else {
            let mut legs: Vec<&str> = failures.iter().map(|f| f.leg).collect();
            legs.dedup();
            log.push_str(&format!(
                "case {i:03} {} | FAIL {}\n",
                case.brief(),
                legs.join(",")
            ));
            let shrunk = shrink(&case);
            log.push_str(&format!("  shrunk -> {}\n", shrunk.brief()));
            for f in &failures {
                log.push_str(&format!("  {f}\n"));
            }
            findings.push(Finding {
                original: case,
                shrunk,
                failures,
            });
        }
    }
    log.push_str(&format!(
        "campaign done: {} cases, {} failing\n",
        cfg.cases,
        findings.len()
    ));
    CampaignReport {
        log,
        findings,
        cases: cfg.cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_log_is_byte_stable() {
        let cfg = CampaignConfig {
            seed: 0xC0FFEE,
            cases: 3,
            plant: Plant::None,
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.log, b.log);
        assert!(a.clean(), "seed corpus regressed:\n{}", a.log);
        assert_eq!(a.cases, 3);
    }

    #[test]
    fn planted_campaign_catches_and_shrinks() {
        let cfg = CampaignConfig {
            seed: 5,
            cases: 1,
            plant: Plant::ResumeBitflip,
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.findings.len(), 1, "log:\n{}", report.log);
        let f = &report.findings[0];
        assert!(f.failures.iter().all(|x| x.leg == "resume"));
        assert!(!check_case(&f.shrunk).is_empty(), "shrunk repro passes");
        assert!(report.log.contains("FAIL resume"));
        assert!(report.log.contains("shrunk ->"));
    }
}
