//! CLI for simlint: `cargo run -p simlint -- [--deny-all] [--rule L2]...
//! [--format json] [--changed] [ROOT]`.
//!
//! Exit status: 0 when no unbaselined findings and no stale baseline
//! entries (the acceptance gate for the workspace), 1 when either exists,
//! 2 on usage or I/O errors.
//! `--deny-all` is the explicit "treat everything as an error" mode used
//! by `scripts/check.sh`; since every rule already denies by default it is
//! an alias for the default behaviour, kept as a stable flag so CI
//! invocations read clearly.
//!
//! Baseline workflow: findings are filtered against
//! `<root>/simlint.baseline.json` unless `--no-baseline` is given;
//! `--write-baseline` runs all rules and rewrites that file from the
//! current findings (a deliberate, reviewable act — the diff shows every
//! newly-accepted violation). An entry that budgets more findings than
//! the rules it names still produce is stale and reported as a finding.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::baseline::{Baseline, BASELINE_FILE};
use simlint::{find_workspace_root, Finding, LoadedWorkspace, Rule};

const USAGE: &str = "\
simlint — static analysis for the HCAPP workspace

USAGE: simlint [OPTIONS] [ROOT]

OPTIONS:
  --deny-all         fail on any unbaselined finding from any rule (default)
  --rule <R>         run only rule R (repeatable); R is L1..L9 or a rule name
  --format <F>       output format: text (default) or json (one object/line)
  --json             alias for --format json
  --changed          report only findings in files modified vs git HEAD
  --no-baseline      ignore simlint.baseline.json (report everything)
  --write-baseline   rewrite simlint.baseline.json from current findings
  --list-rules       print the rule table and exit
  -h, --help         this text

ROOT defaults to the enclosing cargo workspace of the current directory.";

/// Workspace-relative paths of files modified vs HEAD, from
/// `git diff --name-only HEAD` plus untracked files.
fn changed_files(root: &std::path::Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for args in [
        &["diff", "--name-only", "HEAD"][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let out = std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
        if !out.status.success() {
            return Err(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        files.extend(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .map(|l| l.trim().replace('\\', "/"))
                .filter(|l| !l.is_empty()),
        );
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn print_findings(findings: &[Finding], json: bool) {
    for f in findings {
        if json {
            println!("{}", f.to_json());
        } else {
            println!("{f}");
        }
    }
}

fn main() -> ExitCode {
    let mut rules: Vec<Rule> = Vec::new();
    let mut json = false;
    let mut changed_only = false;
    let mut use_baseline = true;
    let mut write_baseline = false;
    let mut root_arg: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => { /* default; accepted for explicit CI use */ }
            "--json" => json = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "error: --format needs `text` or `json`, got {:?}\n\n{USAGE}",
                        other.unwrap_or("")
                    );
                    return ExitCode::from(2);
                }
            },
            "--changed" => changed_only = true,
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => write_baseline = true,
            "--list-rules" => {
                for r in Rule::ALL {
                    println!("{}  {}", r.code(), r.name());
                }
                return ExitCode::SUCCESS;
            }
            "--rule" => match args.next().as_deref().and_then(Rule::parse) {
                Some(r) => rules.push(r),
                None => {
                    eprintln!("error: --rule needs L1..L9 or a rule name\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root_arg = Some(PathBuf::from(other)),
            other => {
                eprintln!("error: unknown option {other}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root_arg.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: no cargo workspace found; pass ROOT explicitly");
            return ExitCode::from(2);
        }
    };

    let ws = match LoadedWorkspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let run_rules: &[Rule] = if rules.is_empty() { &Rule::ALL } else { &rules };
    let mut findings = ws.check(run_rules);

    if write_baseline {
        let base = Baseline::from_findings(&findings);
        let path = root.join(BASELINE_FILE);
        if let Err(e) = std::fs::write(&path, base.render()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "simlint: baselined {} finding(s) in {} class(es) -> {}",
            base.total(),
            base.entries.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut baselined = 0usize;
    if use_baseline {
        if let Some(base) = Baseline::load(&root) {
            let before = findings.len();
            let stale = base.stale(&findings, run_rules);
            findings = base.filter_new(findings);
            baselined = before - findings.len();
            // A stale entry fails the gate like a new finding does.
            findings.extend(stale);
        }
    }

    // `--changed` filters the *report*, not the analysis: semantic rules
    // need the whole workspace (a panic in an unchanged file can become
    // reachable through a changed one), so the full and incremental passes
    // agree by construction on any file they both report.
    if changed_only {
        match changed_files(&root) {
            Ok(files) => findings.retain(|f| files.iter().any(|c| c == &f.file)),
            Err(e) => {
                eprintln!("error: --changed needs a git checkout: {e}");
                return ExitCode::from(2);
            }
        }
    }

    print_findings(&findings, json);

    if findings.is_empty() {
        if !json {
            let scope = if changed_only { "changed files" } else { "workspace" };
            match baselined {
                0 => println!("simlint: {scope} clean (rules: all deny)"),
                n => println!("simlint: {scope} clean ({n} legacy finding(s) baselined)"),
            }
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("simlint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}
