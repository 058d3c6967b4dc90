//! The semantic rules: L6 panic-reachability, L7 lock discipline, L8
//! time-domain confusion, L9 allow hygiene.
//!
//! L6–L8 run over the token-level [`crate::graph::Workspace`] — per
//! *symbol*, not per line — so test code is excluded structurally (the
//! parser saw the `#[cfg(test)]`/`#[test]` attributes) and findings carry
//! the evidence in their `note` (the call chain from the hot loop, the
//! lock held across a channel op). L9 audits the suppression mechanism
//! itself: every `simlint: allow(...)` must carry a justification.

use std::collections::BTreeMap;

use crate::graph::ParsedFile;
use crate::lexer::TokKind;
use crate::parser::Item;
use crate::rules::LIB_CRATES;
use crate::{Finding, LoadedWorkspace, Rule};

/// Files whose fns seed the L6 reachability walk: the controller hot loop.
const L6_ROOT_FILES: &[&str] = &["crates/core/src/coordinator.rs", "crates/core/src/pid.rs"];

/// Impl types whose methods are also L6 roots wherever they live.
const L6_ROOT_IMPLS: &[&str] = &["QuantumCtl"];

/// The wall-clock quarantine for L8: profiling is *about* wall time.
const L8_QUARANTINE_FILE: &str = "crates/telemetry/src/profile.rs";
const L8_QUARANTINE_IMPLS: &[&str] = &["Profiler"];

/// Rust keywords that disqualify the preceding token from being an
/// indexed expression (`let [a, b] = …` is a pattern, not an index).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async" | "await" | "box" | "break" | "const" | "continue" | "crate" | "dyn"
            | "else" | "enum" | "extern" | "fn" | "for" | "if" | "impl" | "in" | "let" | "loop"
            | "match" | "mod" | "move" | "mut" | "pub" | "ref" | "return" | "self" | "static"
            | "struct" | "super" | "trait" | "type" | "unsafe" | "use" | "where" | "while"
    )
}

/// Emit a finding unless an allow directive covers it.
fn push_sem(
    ws: &LoadedWorkspace,
    findings: &mut Vec<Finding>,
    rule: Rule,
    rel: &str,
    line: usize,
    note: String,
) {
    let Some(src) = ws.source_by_rel(rel) else { return };
    if line == 0 || src.is_allowed(rule, line - 1) {
        return;
    }
    let excerpt = src
        .lines
        .get(line - 1)
        .map(|l| l.raw.trim().to_string())
        .unwrap_or_default();
    findings.push(Finding {
        rule,
        file: rel.to_string(),
        line,
        excerpt,
        note,
    });
}

fn in_lib_crate(pf: &ParsedFile) -> bool {
    LIB_CRATES.contains(&pf.crate_name.as_str())
}

/// One potential panic site inside a fn body.
struct PanicSite {
    line: usize,
    what: &'static str,
}

/// Scan a fn body's token range for panic sites: `unwrap`/`expect` calls,
/// panicking macros, and index expressions.
fn panic_sites(pf: &ParsedFile, item: &Item) -> Vec<PanicSite> {
    let Some((b0, b1)) = item.body else {
        return Vec::new();
    };
    let tf = &pf.tf;
    let mut out = Vec::new();
    let mut i = b0;
    while i < b1 {
        let Some(j) = tf.next_code(i) else { break };
        if j >= b1 {
            break;
        }
        i = j + 1;
        let t = tf.text(j);
        match tf.toks[j].kind {
            TokKind::Ident => {
                let next_is = |s: &str| {
                    tf.next_code(j + 1).is_some_and(|n| tf.text(n) == s)
                };
                let prev_is_dot = tf.prev_code(j).is_some_and(|p| tf.text(p) == ".");
                if (t == "unwrap" || t == "expect") && prev_is_dot && next_is("(") {
                    out.push(PanicSite {
                        line: tf.toks[j].line,
                        what: if t == "unwrap" { "unwrap()" } else { "expect()" },
                    });
                } else if matches!(t, "panic" | "todo" | "unimplemented" | "unreachable")
                    && next_is("!")
                {
                    out.push(PanicSite {
                        line: tf.toks[j].line,
                        what: "panicking macro",
                    });
                }
            }
            TokKind::Punct if t == "[" => {
                // `expr[idx]` panics on out-of-bounds. An opening bracket
                // indexes when the previous code token ends an expression.
                let indexes = tf.prev_code(j).is_some_and(|p| {
                    let pt = tf.text(p);
                    match tf.toks[p].kind {
                        TokKind::Ident => !is_keyword(pt),
                        TokKind::Punct => pt == ")" || pt == "]",
                        _ => false,
                    }
                });
                if indexes {
                    out.push(PanicSite {
                        line: tf.toks[j].line,
                        what: "index expression",
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// L6 — panic reachability.
///
/// The controller hot loop (`coordinator.rs`, `pid.rs`, and `QuantumCtl`
/// methods) must not reach a panic site through the call graph: a panic
/// mid-quantum tears down a sweep and, in the firmware this models, the
/// power controller itself. The walk over-approximates (name-based call
/// resolution), so every finding carries its call chain for triage.
pub fn l6_panic_reachability(ws: &LoadedWorkspace, findings: &mut Vec<Finding>) {
    let g = &ws.graph;
    let mut roots = Vec::new();
    for (sid, sym) in g.symbols.iter().enumerate() {
        if sym.is_test {
            continue;
        }
        let (pf, _) = g.symbol_item(sid);
        let rooted = L6_ROOT_FILES.contains(&pf.rel.as_str())
            || sym
                .parent_impl
                .as_deref()
                .is_some_and(|p| L6_ROOT_IMPLS.contains(&p));
        if rooted {
            roots.push(sid);
        }
    }
    let reach = g.reachable_from(&roots);
    for (&sid, _) in &reach {
        let (pf, item) = g.symbol_item(sid);
        if !in_lib_crate(pf) {
            continue; // host/tool crates may panic; the hot loop never
                      // actually crosses into them (name-collision edges)
        }
        let chain = g.chain_to(&reach, sid);
        for site in panic_sites(pf, item) {
            push_sem(
                ws,
                findings,
                Rule::PanicReachability,
                &pf.rel,
                site.line,
                format!("{} reachable from hot loop via {}", site.what, chain),
            );
        }
    }
}

/// A lock guard currently live during the L7 scan of one fn body.
struct LiveGuard {
    /// The field the lock was acquired from (`queue` in
    /// `self.shared.queue.lock()`), or `"<expr>"`.
    lock_name: String,
    /// The `let` binding holding the guard, when one exists.
    binding: Option<String>,
    /// Brace depth at acquisition; let-bound guards die when the block
    /// closes, temporaries at the next `;` at this depth.
    depth: i64,
    let_bound: bool,
}

/// One observed "acquired `second` while holding `first`" event.
struct OrderEdge {
    first: String,
    second: String,
    rel: String,
    line: usize,
}

/// L7 — lock discipline.
///
/// Two checks over the worker-pool concurrency surface: (a) no channel
/// `send`/`recv` while a `Mutex` guard is live — the receiving side may
/// block on the same lock, so results must drain independently of the
/// queue lock; (b) every pair of locks is acquired in one global order.
pub fn l7_lock_discipline(ws: &LoadedWorkspace, findings: &mut Vec<Finding>) {
    let g = &ws.graph;
    let mut edges: Vec<OrderEdge> = Vec::new();
    for (sid, sym) in g.symbols.iter().enumerate() {
        if sym.is_test {
            continue;
        }
        let (pf, item) = g.symbol_item(sid);
        if !in_lib_crate(pf) {
            continue;
        }
        scan_fn_locks(ws, pf, item, findings, &mut edges);
    }

    // Inconsistent acquisition order: both (A then B) and (B then A) seen.
    let mut seen: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for e in &edges {
        seen.entry((e.first.clone(), e.second.clone()))
            .or_insert((e.rel.clone(), e.line));
    }
    for e in &edges {
        if e.first == e.second {
            continue;
        }
        if let Some((orel, oline)) = seen.get(&(e.second.clone(), e.first.clone())) {
            push_sem(
                ws,
                findings,
                Rule::LockDiscipline,
                &e.rel,
                e.line,
                format!(
                    "lock `{}` acquired while holding `{}`, but the reverse order exists at {}:{}",
                    e.second, e.first, orel, oline
                ),
            );
        }
    }
}

fn scan_fn_locks(
    ws: &LoadedWorkspace,
    pf: &ParsedFile,
    item: &Item,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<OrderEdge>,
) {
    let Some((b0, b1)) = item.body else { return };
    let tf = &pf.tf;
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth: i64 = 0;
    // Token index where the current statement started, for `let` lookback.
    let mut stmt_start = b0;
    let mut i = b0;
    while i < b1 {
        let Some(j) = tf.next_code(i) else { break };
        if j >= b1 {
            break;
        }
        i = j + 1;
        let t = tf.text(j);
        match t {
            "{" => {
                depth += 1;
                stmt_start = j + 1;
            }
            "}" => {
                depth -= 1;
                guards.retain(|gd| gd.depth <= depth);
                stmt_start = j + 1;
            }
            ";" => {
                guards.retain(|gd| gd.let_bound || gd.depth != depth);
                stmt_start = j + 1;
            }
            _ if tf.toks[j].kind == TokKind::Ident => {
                let next_is = |s: &str| tf.next_code(j + 1).is_some_and(|n| tf.text(n) == s);
                let prev_is_dot = tf.prev_code(j).is_some_and(|p| tf.text(p) == ".");
                if t == "lock" && prev_is_dot && next_is("(") {
                    let lock_name = receiver_name(pf, j);
                    let (let_bound, binding) = stmt_let_binding(pf, stmt_start, j);
                    for held in &guards {
                        edges.push(OrderEdge {
                            first: held.lock_name.clone(),
                            second: lock_name.clone(),
                            rel: pf.rel.clone(),
                            line: tf.toks[j].line,
                        });
                    }
                    guards.push(LiveGuard {
                        lock_name,
                        binding,
                        depth,
                        let_bound,
                    });
                } else if t == "drop" && next_is("(") {
                    // `drop(guard)` releases the named binding.
                    if let Some(arg) = tf
                        .next_code(j + 1)
                        .and_then(|open| tf.next_code(open + 1))
                    {
                        let name = tf.text(arg).to_string();
                        guards.retain(|gd| gd.binding.as_deref() != Some(name.as_str()));
                    }
                } else if matches!(t, "send" | "recv" | "recv_timeout" | "try_recv" | "try_send")
                    && prev_is_dot
                    && next_is("(")
                {
                    if let Some(held) = guards.last() {
                        push_sem(
                            ws,
                            findings,
                            Rule::LockDiscipline,
                            &pf.rel,
                            tf.toks[j].line,
                            format!(
                                "channel `{}` while holding lock `{}` in {}",
                                t,
                                held.lock_name,
                                item.qualified()
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// The field name a `.lock()` call is invoked on: the ident directly
/// before the final `.`.
fn receiver_name(pf: &ParsedFile, lock_idx: usize) -> String {
    let tf = &pf.tf;
    let dot = tf.prev_code(lock_idx);
    let recv = dot.and_then(|d| tf.prev_code(d));
    match recv {
        Some(r) if tf.toks[r].kind == TokKind::Ident => tf.text(r).to_string(),
        _ => "<expr>".to_string(),
    }
}

/// Whether the statement `[stmt_start, lock_idx]` is a `let` binding, and
/// the bound name (first ident after `let`, skipping `mut`/patterns).
fn stmt_let_binding(pf: &ParsedFile, stmt_start: usize, lock_idx: usize) -> (bool, Option<String>) {
    let tf = &pf.tf;
    let mut k = stmt_start;
    while k <= lock_idx {
        let Some(j) = tf.next_code(k) else { break };
        if j > lock_idx {
            break;
        }
        k = j + 1;
        if tf.toks[j].kind == TokKind::Ident && tf.text(j) == "let" {
            // First ident after `let` that isn't `mut` / `ref`.
            let mut m = j + 1;
            while let Some(n) = tf.next_code(m) {
                if n > lock_idx {
                    break;
                }
                m = n + 1;
                let nt = tf.text(n);
                if tf.toks[n].kind == TokKind::Ident && nt != "mut" && nt != "ref" {
                    return (true, Some(nt.to_string()));
                }
                if nt == "=" {
                    break;
                }
            }
            return (true, None);
        }
    }
    (false, None)
}

/// Is this numeric literal a float? (`1.5`, `2e9`, `0.0f64`, `1f32` —
/// but not `0x1e5` or plain integers.)
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return false;
    }
    text.contains('.')
        || text.contains("f32")
        || text.contains("f64")
        || text.contains('e')
        || text.contains('E')
}

/// L8 — time-domain confusion.
///
/// Simulation code runs on simulated time: wall-clock types (`Instant`,
/// `SystemTime`) outside the quarantined `Profiler` mean a wall-time
/// quantity is leaking into control decisions. Float `==`/`!=` against a
/// literal is the same class of bug in the value domain — control math
/// accumulates rounding, so exact comparison encodes a wall-of-luck
/// invariant. Per-symbol: the whole fn is the unit of quarantine.
pub fn l8_time_domain(ws: &LoadedWorkspace, findings: &mut Vec<Finding>) {
    let g = &ws.graph;
    for (sid, sym) in g.symbols.iter().enumerate() {
        if sym.is_test {
            continue;
        }
        let (pf, item) = g.symbol_item(sid);
        if !in_lib_crate(pf) {
            continue;
        }
        if pf.rel == L8_QUARANTINE_FILE
            || sym
                .parent_impl
                .as_deref()
                .is_some_and(|p| L8_QUARANTINE_IMPLS.contains(&p))
        {
            continue;
        }
        let Some((_, b1)) = item.body else { continue };
        let tf = &pf.tf;
        let mut i = item.first_tok;
        while i < b1 {
            let Some(j) = tf.next_code(i) else { break };
            if j >= b1 {
                break;
            }
            i = j + 1;
            let t = tf.text(j);
            match tf.toks[j].kind {
                TokKind::Ident if t == "Instant" || t == "SystemTime" => {
                    push_sem(
                        ws,
                        findings,
                        Rule::TimeDomain,
                        &pf.rel,
                        tf.toks[j].line,
                        format!("wall-clock type `{}` in {}", t, item.qualified()),
                    );
                }
                TokKind::Punct if t == "==" || t == "!=" => {
                    let float_side = |idx: Option<usize>| {
                        idx.is_some_and(|k| {
                            tf.toks[k].kind == TokKind::Num && is_float_literal(tf.text(k))
                        })
                    };
                    if float_side(tf.prev_code(j)) || float_side(tf.next_code(j + 1)) {
                        push_sem(
                            ws,
                            findings,
                            Rule::TimeDomain,
                            &pf.rel,
                            tf.toks[j].line,
                            format!("exact float comparison in {}", item.qualified()),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// L9 — allow hygiene.
///
/// Every suppression must say why: `// simlint: allow(L2): <reason>`.
/// A bare allow is a decision with no audit trail.
pub fn l9_allow_hygiene(ws: &LoadedWorkspace, findings: &mut Vec<Finding>) {
    for src in &ws.sources {
        for site in &src.directives {
            if site.justified {
                continue;
            }
            let rules: Vec<&str> = site.rules.iter().map(|r| r.code()).collect();
            push_sem(
                ws,
                findings,
                Rule::AllowHygiene,
                &src.rel_path,
                site.line + 1,
                format!(
                    "bare `allow({})` without justification — append `: <reason>`",
                    rules.join(",")
                ),
            );
        }
    }
}
