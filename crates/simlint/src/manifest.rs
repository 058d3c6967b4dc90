//! L4 — dependency layering and hermeticity, checked against the
//! `Cargo.toml` files themselves.
//!
//! Two properties are enforced:
//!
//! 1. **Hermeticity**: no crate on the default build path may name a
//!    registry dependency — every dependency must resolve through `path`
//!    (directly or via a `path`-backed `[workspace.dependencies]` entry).
//!    The offline container has no registry, so a single versioned dep
//!    breaks `cargo build` for the whole workspace.
//! 2. **Layering**: the crate DAG follows the paper's structure — level 0
//!    `sim-core`; level 1 models (`power-model`, `pdn`, `workloads`);
//!    level 2 components (`cpu-sim`, `gpu-sim`, `accel-sim`, `metrics`);
//!    level 3 observability and adversaries (`telemetry`, which the
//!    controller feeds, `faults`, whose plans the controller defends
//!    against, `cache`, which memoizes the controller's runs, and —
//!    half a step above, since it consumes `telemetry`'s event stream —
//!    `analyze`, the trace analytics engine); level 4 the HCAPP
//!    controller (`core`); level 5 hosts (`cli`, `experiments`); level 6
//!    the root harness. A crate may only depend on *strictly
//!    lower* levels (dev-dependencies exempt, so test utilities like
//!    `simlint` itself can go anywhere). Ranks are spaced by 10 so
//!    intra-level sublayers (analyze at 35) fit without renumbering.
//!
//! The parser below handles the TOML subset Cargo manifests actually use
//! (sections, `k = v`, inline tables, dotted `name.workspace = true`) —
//! deliberately, so simlint keeps its zero-dependency guarantee.

use std::path::Path;

use crate::{Finding, Rule};

/// How a dependency entry resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// `{ path = "..." }` — always resolvable offline.
    Path,
    /// `.workspace = true` — resolution depends on the root
    /// `[workspace.dependencies]` entry.
    Workspace,
    /// A bare version string or `{ version = "..." }` — needs a registry.
    Registry,
}

/// Which dependency table the entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepSection {
    Normal,
    Dev,
    Build,
}

/// One parsed dependency entry.
#[derive(Debug, Clone)]
pub struct Dep {
    pub name: String,
    pub kind: DepKind,
    pub section: DepSection,
    /// 1-based line in the manifest.
    pub line: usize,
    /// The raw entry text, for finding excerpts.
    pub raw: String,
}

/// One parsed manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// `package.name`, empty for a virtual manifest.
    pub package_name: String,
    pub deps: Vec<Dep>,
    /// Entries of `[workspace.dependencies]` (root manifest only).
    pub workspace_deps: Vec<Dep>,
}

/// Paper-structured layering. Returns `None` for crates outside the
/// hierarchy (the lint tool itself, the proptest shim).
pub fn level_of(package: &str) -> Option<u8> {
    Some(match package {
        "hcapp-sim-core" => 0,
        "hcapp-power-model" | "hcapp-pdn" | "hcapp-workloads" => 10,
        "hcapp-cpu-sim" | "hcapp-gpu-sim" | "hcapp-accel-sim" | "hcapp-metrics" => 20,
        "hcapp-telemetry" | "hcapp-faults" | "hcapp-cache" => 30,
        // Observability sublayer: the analytics engine reads telemetry's
        // event stream, so it sits strictly above telemetry but below the
        // controller, which attaches it to the run path.
        "hcapp-analyze" => 35,
        // Persistence sublayer: the checkpoint codec serializes component
        // state (sim-core's codec + cache's hashing) for the controller's
        // resume driver, so it sits beside analyze — above the leaf crates,
        // below the controller.
        "hcapp-resume" => 35,
        "hcapp" => 40,
        // Correctness tooling: the fuzzer drives the controller's executors
        // against each other, so it consumes `hcapp` (and the observability
        // stack) but is itself hosted by cli/experiments.
        "hcapp-fuzz" => 45,
        "hcapp-cli" | "hcapp-experiments" => 50,
        "hcapp-repro" => 60,
        _ => return None,
    })
}

fn strip_toml_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn classify_value(value: &str) -> DepKind {
    let v = value.trim();
    if v.starts_with('{') {
        if v.contains("path =") || v.contains("path=") {
            DepKind::Path
        } else if v.contains("workspace") {
            DepKind::Workspace
        } else {
            DepKind::Registry
        }
    } else if v.starts_with('"') {
        DepKind::Registry
    } else {
        // `true`/other scalar from a dotted key; the caller decides.
        DepKind::Registry
    }
}

impl Manifest {
    pub fn parse(text: &str, rel_path: String) -> Manifest {
        let mut package_name = String::new();
        let mut deps: Vec<Dep> = Vec::new();
        let mut workspace_deps: Vec<Dep> = Vec::new();

        #[derive(Clone, PartialEq)]
        enum Sect {
            Package,
            Deps(DepSection),
            WorkspaceDeps,
            /// `[dependencies.foo]` long-form table.
            DepTable(DepSection, String, usize),
            Other,
        }
        let mut sect = Sect::Other;
        // Accumulator for long-form dep tables.
        let mut table_kind: Option<DepKind> = None;

        let flush_table = |sect: &Sect, kind: &mut Option<DepKind>,
                           deps: &mut Vec<Dep>| {
            if let Sect::DepTable(section, name, line) = sect {
                deps.push(Dep {
                    name: name.clone(),
                    kind: kind.take().unwrap_or(DepKind::Registry),
                    section: *section,
                    line: *line,
                    raw: format!("[{name}] table"),
                });
            }
        };

        for (idx, raw_line) in text.lines().enumerate() {
            let line = strip_toml_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') {
                flush_table(&sect, &mut table_kind, &mut deps);
                let name = &line[1..line.len() - 1];
                // Normalize `target.'cfg(..)'.dependencies` to its tail.
                let tail = name.rsplit('.').next().unwrap_or(name);
                sect = match (name, tail) {
                    ("package", _) => Sect::Package,
                    ("workspace.dependencies", _) => Sect::WorkspaceDeps,
                    (_, "dependencies") if name == "dependencies" || name.starts_with("target.") => {
                        Sect::Deps(DepSection::Normal)
                    }
                    (_, "dev-dependencies")
                        if name == "dev-dependencies" || name.starts_with("target.") =>
                    {
                        Sect::Deps(DepSection::Dev)
                    }
                    (_, "build-dependencies")
                        if name == "build-dependencies" || name.starts_with("target.") =>
                    {
                        Sect::Deps(DepSection::Build)
                    }
                    _ => {
                        // `[dependencies.foo]` / `[dev-dependencies.foo]`.
                        if let Some(dep_name) = name.strip_prefix("dependencies.") {
                            Sect::DepTable(DepSection::Normal, dep_name.to_string(), idx + 1)
                        } else if let Some(dep_name) = name.strip_prefix("dev-dependencies.") {
                            Sect::DepTable(DepSection::Dev, dep_name.to_string(), idx + 1)
                        } else if let Some(dep_name) = name.strip_prefix("build-dependencies.") {
                            Sect::DepTable(DepSection::Build, dep_name.to_string(), idx + 1)
                        } else {
                            Sect::Other
                        }
                    }
                };
                continue;
            }
            let Some(eq) = line.find('=') else { continue };
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            match &sect {
                Sect::Package => {
                    if key == "name" {
                        package_name = value.trim_matches('"').to_string();
                    }
                }
                Sect::Deps(section) => {
                    let (name, kind) = if let Some(base) = key.strip_suffix(".workspace") {
                        (base.to_string(), DepKind::Workspace)
                    } else {
                        (key.to_string(), classify_value(value))
                    };
                    deps.push(Dep {
                        name,
                        kind,
                        section: *section,
                        line: idx + 1,
                        raw: line.to_string(),
                    });
                }
                Sect::WorkspaceDeps => {
                    let (name, kind) = if let Some(base) = key.strip_suffix(".workspace") {
                        (base.to_string(), DepKind::Workspace)
                    } else {
                        (key.to_string(), classify_value(value))
                    };
                    workspace_deps.push(Dep {
                        name,
                        kind,
                        section: DepSection::Normal,
                        line: idx + 1,
                        raw: line.to_string(),
                    });
                }
                Sect::DepTable(..) => match key {
                    "path" => table_kind = Some(DepKind::Path),
                    "workspace" => table_kind = Some(DepKind::Workspace),
                    "version" | "git" => {
                        if table_kind != Some(DepKind::Path) {
                            table_kind = Some(DepKind::Registry);
                        }
                    }
                    _ => {}
                },
                Sect::Other => {}
            }
        }
        flush_table(&sect, &mut table_kind, &mut deps);

        Manifest {
            rel_path,
            package_name,
            deps,
            workspace_deps,
        }
    }

    pub fn load(abs: &Path, rel_path: String) -> std::io::Result<Manifest> {
        Ok(Self::parse(&std::fs::read_to_string(abs)?, rel_path))
    }
}

fn finding(rule: Rule, m: &Manifest, dep: &Dep, note: &str) -> Finding {
    Finding {
        rule,
        file: m.rel_path.clone(),
        line: dep.line,
        excerpt: format!("{} [{}]", dep.raw, note),
        note: String::new(),
    }
}

/// Run all L4 checks over the collected manifests. `root_manifest` is the
/// workspace root `Cargo.toml` (also present in `manifests`).
pub fn l4_dep_layering(manifests: &[Manifest], findings: &mut Vec<Finding>) {
    let root = manifests
        .iter()
        .find(|m| m.rel_path == "Cargo.toml");
    let workspace_path_deps: Vec<&str> = root
        .map(|r| {
            r.workspace_deps
                .iter()
                .filter(|d| d.kind == DepKind::Path)
                .map(|d| d.name.as_str())
                .collect()
        })
        .unwrap_or_default();

    // Root [workspace.dependencies] must itself be path-only.
    if let Some(r) = root {
        for d in &r.workspace_deps {
            if d.kind != DepKind::Path {
                findings.push(finding(
                    Rule::DepLayering,
                    r,
                    d,
                    "registry entry in [workspace.dependencies]; hermetic builds need path deps",
                ));
            }
        }
    }

    for m in manifests {
        for d in &m.deps {
            // 1. Hermeticity.
            let resolves_offline = match d.kind {
                DepKind::Path => true,
                DepKind::Workspace => workspace_path_deps.contains(&d.name.as_str()),
                DepKind::Registry => false,
            };
            if !resolves_offline {
                findings.push(finding(
                    Rule::DepLayering,
                    m,
                    d,
                    "registry dependency; workspace must build offline",
                ));
            }
            // 2. Layering (normal/build deps between hcapp crates only).
            if d.section != DepSection::Dev {
                if let (Some(me), Some(dep_level)) =
                    (level_of(&m.package_name), level_of(&d.name))
                {
                    if dep_level >= me {
                        findings.push(finding(
                            Rule::DepLayering,
                            m,
                            d,
                            "dependency violates the layer hierarchy (must point strictly downward)",
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Manifest {
        Manifest::parse(
            "[workspace]\nmembers = [\"crates/a\"]\n\n[workspace.dependencies]\nhcapp-sim-core = { path = \"crates/sim-core\" }\n",
            "Cargo.toml".into(),
        )
    }

    #[test]
    fn parses_package_and_dep_kinds() {
        let m = Manifest::parse(
            "[package]\nname = \"hcapp-cpu-sim\"\n\n[dependencies]\nhcapp-sim-core.workspace = true\nserde = \"1\"\nlocal = { path = \"../local\" }\n\n[dev-dependencies]\nproptest = { workspace = true }\n",
            "crates/cpu-sim/Cargo.toml".into(),
        );
        assert_eq!(m.package_name, "hcapp-cpu-sim");
        assert_eq!(m.deps.len(), 4);
        assert_eq!(m.deps[0].kind, DepKind::Workspace);
        assert_eq!(m.deps[1].kind, DepKind::Registry);
        assert_eq!(m.deps[2].kind, DepKind::Path);
        assert_eq!(m.deps[3].kind, DepKind::Workspace);
        assert_eq!(m.deps[3].section, DepSection::Dev);
    }

    #[test]
    fn flags_registry_dep() {
        let m = Manifest::parse(
            "[package]\nname = \"hcapp-pdn\"\n[dependencies]\nserde = \"1\"\n",
            "crates/pdn/Cargo.toml".into(),
        );
        let mut out = Vec::new();
        l4_dep_layering(&[root(), m], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].excerpt.contains("registry"));
    }

    #[test]
    fn flags_criterion_outside_bench() {
        let m = Manifest::parse(
            "[package]\nname = \"hcapp-metrics\"\n[dev-dependencies]\ncriterion = \"0.5\"\n",
            "crates/metrics/Cargo.toml".into(),
        );
        let mut out = Vec::new();
        l4_dep_layering(&[root(), m], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].excerpt.contains("criterion"));
    }

    #[test]
    fn flags_upward_layer_dep() {
        let m = Manifest::parse(
            "[package]\nname = \"hcapp-sim-core\"\n[dependencies]\nhcapp = { path = \"../core\" }\n",
            "crates/sim-core/Cargo.toml".into(),
        );
        let mut out = Vec::new();
        l4_dep_layering(&[root(), m], &mut out);
        assert!(out.iter().any(|f| f.excerpt.contains("hierarchy")), "{out:?}");
    }

    #[test]
    fn dev_deps_exempt_from_layering() {
        let m = Manifest::parse(
            "[package]\nname = \"hcapp-sim-core\"\n[dev-dependencies]\nhcapp = { path = \"../core\" }\n",
            "crates/sim-core/Cargo.toml".into(),
        );
        let mut out = Vec::new();
        l4_dep_layering(&[root(), m], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn analyze_sits_between_telemetry_and_core() {
        // The analytics engine reads telemetry's events and is attached by
        // the controller: telemetry < analyze < core, strictly.
        assert!(level_of("hcapp-telemetry") < level_of("hcapp-analyze"));
        assert!(level_of("hcapp-metrics") < level_of("hcapp-analyze"));
        assert!(level_of("hcapp-analyze") < level_of("hcapp"));
    }

    #[test]
    fn long_form_dep_table_parsed() {
        let m = Manifest::parse(
            "[package]\nname = \"hcapp-pdn\"\n[dependencies.hcapp-sim-core]\npath = \"../sim-core\"\n",
            "crates/pdn/Cargo.toml".into(),
        );
        assert_eq!(m.deps.len(), 1);
        assert_eq!(m.deps[0].kind, DepKind::Path);
    }
}
