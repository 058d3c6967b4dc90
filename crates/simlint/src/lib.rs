//! simlint — zero-dependency static analysis for the HCAPP workspace.
//!
//! The simulator's credibility rests on properties `rustc` cannot check:
//! physical quantities staying inside their unit newtypes, library code
//! never panicking out of a sweep, bit-identical reruns, a dependency DAG
//! that keeps the workspace buildable offline, and controller code that is
//! traceable back to the paper. simlint checks all five as plain line/token
//! scans over the source tree and the `Cargo.toml` files — no `syn`, no
//! registry dependencies, no network — so it runs anywhere tier-1 runs.
//!
//! | Rule | Name | What it enforces |
//! |------|------|------------------|
//! | L1 | `unit-safety`    | no raw f64 arithmetic on voltage/power/time values outside `sim-core/src/units.rs` and the power-model internals |
//! | L2 | `no-panic`       | no `unwrap`/`panic!`/message-less `expect` in non-test library code |
//! | L3 | `determinism`    | no `Instant::now`/`SystemTime`/`thread_rng`/`HashMap` in simulation crates |
//! | L4 | `dep-layering`   | paper-shaped crate DAG, zero registry deps |
//! | L5 | `doc-coverage`   | every pub item in `crates/core/src/controller/` cites a paper section/equation |
//!
//! Suppression: `// simlint: allow(L2)` (or the rule name) on the offending
//! line or the line above; `simlint: allow-file(L3)` in any comment for a
//! whole file. Allowlisting is deliberate and greppable.
//!
//! Entry points: [`check_workspace`] (library), the `simlint` binary
//! (`cargo run -p simlint -- --deny-all`), and [`assert_workspace_clean`]
//! which each crate calls from a `tests/simlint.rs` so tier-1 runs the lint
//! automatically.

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;
pub mod sem;
pub mod source;

use std::fmt;
use std::path::{Path, PathBuf};

use manifest::Manifest;
use source::SourceFile;

/// The lint rules. `code()` gives the short `L*` id used in output and
/// allow directives. L1–L5 are the line-lexical rules from v1; L6–L8 are
/// the v2 semantic rules over the symbol graph; L9 audits the allow
/// directives themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    UnitSafety,
    NoPanic,
    Determinism,
    DepLayering,
    DocCoverage,
    PanicReachability,
    LockDiscipline,
    TimeDomain,
    AllowHygiene,
}

impl Rule {
    pub const ALL: [Rule; 9] = [
        Rule::UnitSafety,
        Rule::NoPanic,
        Rule::Determinism,
        Rule::DepLayering,
        Rule::DocCoverage,
        Rule::PanicReachability,
        Rule::LockDiscipline,
        Rule::TimeDomain,
        Rule::AllowHygiene,
    ];

    pub fn code(&self) -> &'static str {
        match self {
            Rule::UnitSafety => "L1",
            Rule::NoPanic => "L2",
            Rule::Determinism => "L3",
            Rule::DepLayering => "L4",
            Rule::DocCoverage => "L5",
            Rule::PanicReachability => "L6",
            Rule::LockDiscipline => "L7",
            Rule::TimeDomain => "L8",
            Rule::AllowHygiene => "L9",
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Rule::UnitSafety => "unit-safety",
            Rule::NoPanic => "no-panic",
            Rule::Determinism => "determinism",
            Rule::DepLayering => "dep-layering",
            Rule::DocCoverage => "doc-coverage",
            Rule::PanicReachability => "panic-reachability",
            Rule::LockDiscipline => "lock-discipline",
            Rule::TimeDomain => "time-domain",
            Rule::AllowHygiene => "allow-hygiene",
        }
    }

    /// Accepts either the code (`L2`) or the name (`no-panic`),
    /// case-insensitively.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(s) || r.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line (trimmed) or manifest entry. Baselines match on
    /// `(rule, file, excerpt)` so line drift never resurrects a finding.
    pub excerpt: String,
    /// Extra context for semantic rules (e.g. the call chain from the hot
    /// loop for L6). Display/JSON only — never part of baseline identity.
    pub note: String,
}

impl Finding {
    /// The one-object-per-line JSON form emitted by `simlint --format json`
    /// and pinned by the golden fixture tests.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"name\":{},\"file\":{},\"line\":{},\"excerpt\":{},\"note\":{}}}",
            baseline::quote(self.rule.code()),
            baseline::quote(self.rule.name()),
            baseline::quote(&self.file),
            self.line,
            baseline::quote(&self.excerpt),
            baseline::quote(&self.note),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule,
            self.excerpt
        )?;
        if !self.note.is_empty() {
            write!(f, "  ({})", self.note)?;
        }
        Ok(())
    }
}

/// Walk upward from `start` to the manifest containing `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = if start.is_dir() {
        start.to_path_buf()
    } else {
        start.parent()?.to_path_buf()
    };
    loop {
        let candidate = dir.join("Cargo.toml");
        if candidate.is_file() {
            if let Ok(text) = std::fs::read_to_string(&candidate) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Directories never scanned.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

pub(crate) fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    walk_rs(dir, out);
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort(); // deterministic findings order regardless of OS
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk_rs(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

pub(crate) fn crate_name_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

/// Whole-file test/bench/example targets, and fixtures that intentionally
/// trip rules.
pub(crate) fn whole_file_is_test(rel: &str) -> bool {
    let in_dir = |d: &str| {
        rel.split('/')
            .any(|seg| seg == d)
    };
    in_dir("tests") || in_dir("benches") || in_dir("examples")
}

pub(crate) fn is_fixture(rel: &str) -> bool {
    rel.contains("tests/fixtures/")
}

/// Load every `.rs` file and every `Cargo.toml` under `root`.
pub struct LoadedWorkspace {
    pub root: PathBuf,
    pub sources: Vec<SourceFile>,
    pub manifests: Vec<Manifest>,
    /// The token-level view: lexed + parsed files, symbol table, call
    /// graph. Built from the same bytes as `sources`.
    pub graph: graph::Workspace,
}

impl LoadedWorkspace {
    pub fn load(root: &Path) -> std::io::Result<LoadedWorkspace> {
        let mut rs_files = Vec::new();
        walk_rs(root, &mut rs_files);

        let mut sources = Vec::new();
        let mut parsed = Vec::new();
        for abs in rs_files {
            let rel = source::rel_to(root, &abs);
            if is_fixture(&rel) {
                continue;
            }
            let crate_name = crate_name_of(&rel);
            let is_test = whole_file_is_test(&rel);
            let text = std::fs::read_to_string(&abs)?;
            sources.push(SourceFile::from_text(
                &text,
                rel.clone(),
                crate_name.clone(),
                is_test,
            ));
            parsed.push(graph::ParsedFile::new(rel, crate_name, &text, is_test));
        }
        let graph = graph::Workspace::build(parsed);
        // Item-level allow directives need the item extents the parser
        // just produced; graft them onto the line-based sources.
        source::attach_item_allows(&mut sources, &graph);

        let mut manifests = Vec::new();
        let mut manifest_paths = vec![root.join("Cargo.toml")];
        let crates_dir = root.join("crates");
        if let Ok(entries) = std::fs::read_dir(&crates_dir) {
            let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
            dirs.sort();
            for d in dirs {
                let m = d.join("Cargo.toml");
                if m.is_file() {
                    manifest_paths.push(m);
                }
            }
        }
        for abs in manifest_paths {
            let rel = source::rel_to(root, &abs);
            manifests.push(Manifest::load(&abs, rel)?);
        }

        Ok(LoadedWorkspace {
            root: root.to_path_buf(),
            sources,
            manifests,
            graph,
        })
    }

    /// Build an in-memory workspace from `(rel_path, text)` pairs — the
    /// entry point for fixture tests of the semantic rules, which need a
    /// symbol graph rather than a single [`SourceFile`]. No filesystem,
    /// no manifests, no baseline.
    pub fn from_texts(files: &[(&str, &str)]) -> LoadedWorkspace {
        let mut sources = Vec::new();
        let mut parsed = Vec::new();
        for (rel, text) in files {
            let crate_name = crate_name_of(rel);
            let is_test = whole_file_is_test(rel);
            sources.push(SourceFile::from_text(
                text,
                rel.to_string(),
                crate_name.clone(),
                is_test,
            ));
            parsed.push(graph::ParsedFile::new(rel.to_string(), crate_name, text, is_test));
        }
        let graph = graph::Workspace::build(parsed);
        source::attach_item_allows(&mut sources, &graph);
        LoadedWorkspace {
            root: PathBuf::new(),
            sources,
            manifests: Vec::new(),
            graph,
        }
    }

    /// The line-view of `rel`, for allow lookups from the semantic rules.
    pub fn source_by_rel(&self, rel: &str) -> Option<&SourceFile> {
        self.sources.iter().find(|s| s.rel_path == rel)
    }

    /// Run the requested rules, findings sorted by (rule, file, line).
    pub fn check(&self, rules: &[Rule]) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in &self.sources {
            if rules.contains(&Rule::UnitSafety) {
                rules::l1_unit_safety(file, &mut findings);
            }
            if rules.contains(&Rule::NoPanic) {
                rules::l2_no_panic(file, &mut findings);
            }
            if rules.contains(&Rule::Determinism) {
                rules::l3_determinism(file, &mut findings);
            }
            if rules.contains(&Rule::DocCoverage) {
                rules::l5_doc_coverage(file, &mut findings);
            }
        }
        if rules.contains(&Rule::DepLayering) {
            manifest::l4_dep_layering(&self.manifests, &mut findings);
        }
        if rules.contains(&Rule::PanicReachability) {
            sem::l6_panic_reachability(self, &mut findings);
        }
        if rules.contains(&Rule::LockDiscipline) {
            sem::l7_lock_discipline(self, &mut findings);
        }
        if rules.contains(&Rule::TimeDomain) {
            sem::l8_time_domain(self, &mut findings);
        }
        if rules.contains(&Rule::AllowHygiene) {
            sem::l9_allow_hygiene(self, &mut findings);
        }
        findings.sort_by(|a, b| {
            (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line))
        });
        findings
    }

    /// Run rules and subtract the committed baseline (when one exists at
    /// `<root>/simlint.baseline.json`). Returns the findings NOT covered
    /// by the baseline, plus one per stale baseline entry
    /// ([`baseline::Baseline::stale`]).
    pub fn check_against_baseline(&self, rules: &[Rule]) -> Vec<Finding> {
        let findings = self.check(rules);
        match baseline::Baseline::load(&self.root) {
            Some(base) => {
                let stale = base.stale(&findings, rules);
                let mut fresh = base.filter_new(findings);
                fresh.extend(stale);
                fresh
            }
            None => findings,
        }
    }
}

/// Run every rule over the workspace containing `root` (no baseline).
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(LoadedWorkspace::load(root)?.check(&Rule::ALL))
}

/// Test hookup: discover the workspace root from a crate's
/// `CARGO_MANIFEST_DIR`, run every rule, subtract the committed baseline,
/// and panic with a readable report if any *new* finding remains. Each
/// workspace crate calls this from `tests/simlint.rs`, so `cargo test`
/// enforces the lint on every change.
pub fn assert_workspace_clean(manifest_dir: &str) {
    let root = find_workspace_root(Path::new(manifest_dir))
        .expect("invariant: simlint tests run from inside the cargo workspace");
    let ws = LoadedWorkspace::load(&root)
        .expect("invariant: workspace sources are readable during tests");
    let findings = ws.check_against_baseline(&Rule::ALL);
    if !findings.is_empty() {
        let mut report = format!("simlint found {} new violation(s):\n", findings.len());
        for f in &findings {
            report.push_str(&format!("  {f}\n"));
        }
        report.push_str(
            "suppress intentionally with `// simlint: allow(<rule>): <why>` on or above the \
             line/item, or re-baseline deliberately with `cargo run -p simlint -- --write-baseline`\n",
        );
        panic!("{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parse_accepts_code_and_name() {
        assert_eq!(Rule::parse("L2"), Some(Rule::NoPanic));
        assert_eq!(Rule::parse("l4"), Some(Rule::DepLayering));
        assert_eq!(Rule::parse("determinism"), Some(Rule::Determinism));
        assert_eq!(Rule::parse("nope"), None);
    }

    #[test]
    fn crate_name_extraction() {
        assert_eq!(crate_name_of("crates/sim-core/src/units.rs"), "sim-core");
        assert_eq!(crate_name_of("src/lib.rs"), "");
    }

    #[test]
    fn test_paths_detected() {
        assert!(whole_file_is_test("crates/core/tests/props.rs"));
        assert!(whole_file_is_test("crates/bench/benches/system.rs"));
        assert!(!whole_file_is_test("crates/core/src/pid.rs"));
        assert!(is_fixture("crates/simlint/tests/fixtures/l2_panic.rs"));
    }

    #[test]
    fn finding_display_is_stable() {
        let f = Finding {
            rule: Rule::NoPanic,
            file: "crates/core/src/pid.rs".into(),
            line: 7,
            excerpt: "x.unwrap();".into(),
            note: String::new(),
        };
        assert_eq!(
            f.to_string(),
            "crates/core/src/pid.rs:7: [L2 (no-panic)] x.unwrap();"
        );
    }
}
