//! The line-oriented rules: L1 unit-safety, L2 no-panic, L3 determinism,
//! L5 doc coverage. (L4 dependency layering lives in `manifest.rs` since it
//! reads Cargo.toml, not Rust source.)

use crate::source::SourceFile;
use crate::{Finding, Rule};

/// Crates holding simulation/library code subject to L1–L3. `cli`,
/// `experiments`, `simlint` and the proptest shim are hosts/tools, not
/// simulation code.
pub const LIB_CRATES: &[&str] = &[
    "analyze",
    "cache",
    "core",
    "sim-core",
    "power-model",
    "pdn",
    "cpu-sim",
    "fuzz",
    "gpu-sim",
    "accel-sim",
    "faults",
    "metrics",
    "telemetry",
    "workloads",
];

/// Files where raw f64 arithmetic on physical quantities is the point:
/// the unit newtypes themselves, the time base, and the analytic power
/// model internals (Eq. 1–4 of the paper are plain algebra there).
const L1_EXEMPT_PREFIXES: &[&str] = &[
    "crates/sim-core/src/units.rs",
    "crates/sim-core/src/time.rs",
    "crates/power-model/src/",
];

/// Identifier fragments that mark a value as carrying physical units.
const L1_UNIT_IDENTS: &[&str] = &[
    "voltage", "volts", "v_dd", "vdd", "watts", "power_w", "droop_v",
];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn push(findings: &mut Vec<Finding>, rule: Rule, file: &SourceFile, idx: usize) {
    if file.is_allowed(rule, idx) {
        return;
    }
    findings.push(Finding {
        rule,
        file: file.rel_path.clone(),
        line: idx + 1,
        excerpt: file.lines[idx].raw.trim().to_string(),
        note: String::new(),
    });
}

/// L1 — unit safety.
///
/// Physical quantities must travel as the `sim-core` newtypes (`Volt`,
/// `Watt`, `Hertz`, …). Mixing an unwrapped `.value()` with a bare numeric
/// literal, or comparing a unit-named identifier against a float literal,
/// silently drops the unit and is exactly the class of bug the newtypes
/// exist to stop. Fix: lift the literal (`Volt::new(0.9)`) or compare
/// newtype to newtype.
pub fn l1_unit_safety(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !LIB_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    if L1_EXEMPT_PREFIXES
        .iter()
        .any(|p| file.rel_path.starts_with(p))
    {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let m = line.masked.as_str();
        if value_call_mixed_with_literal(m) || unit_ident_vs_float_literal(m) {
            push(findings, Rule::UnitSafety, file, idx);
        }
    }
}

/// `.value()` adjacent to an arithmetic/comparison operator whose other
/// operand is a bare numeric literal: `p.value() * 1.2`, `0.9 < v.value()`.
///
/// Comparisons against a *zero* literal are exempt: a sign check
/// (`p.value() > 0.0`) is dimensionally valid in any unit, so it cannot be
/// a unit-drop bug.
fn value_call_mixed_with_literal(line: &str) -> bool {
    let bytes = line.as_bytes();
    let needle = b".value()";
    let mut start = 0usize;
    while let Some(pos) = find_from(bytes, needle, start) {
        let after = skip_spaces(bytes, pos + needle.len());
        if let Some(op_end) = binary_op_end(bytes, after) {
            let operand = skip_spaces(bytes, op_end);
            if starts_with_number(bytes, operand) {
                let comparison = compare_op_end(bytes, after).is_some();
                if !(comparison && literal_at_is_zero(bytes, operand)) {
                    return true;
                }
            }
        }
        // Literal on the left: `0.9 + v.value()` — walk back over the
        // receiver path (`self.v_max`, `cfg::cap`) to the operator.
        let mut r = pos;
        while r > 0 && {
            let b = bytes[r - 1];
            is_ident_byte(b) || b == b'.' || b == b':'
        } {
            r -= 1;
        }
        if let Some(before_op) = rskip_spaces(bytes, r) {
            if let Some(op_start) = binary_op_start(bytes, before_op) {
                if let Some(before_lit) = rskip_spaces(bytes, op_start) {
                    if ends_with_number(bytes, before_lit) {
                        let comparison =
                            matches!(bytes[op_start], b'<' | b'>' | b'=' | b'!');
                        if !(comparison && literal_ending_is_zero(bytes, before_lit)) {
                            return true;
                        }
                    }
                }
            }
        }
        start = pos + needle.len();
    }
    false
}

/// A unit-named identifier compared to a bare float literal:
/// `if voltage < 0.54`, `while watts >= 120.0`.
fn unit_ident_vs_float_literal(line: &str) -> bool {
    let lower = line.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    for unit in L1_UNIT_IDENTS {
        let mut start = 0usize;
        while let Some(pos) = find_from(bytes, unit.as_bytes(), start) {
            start = pos + unit.len();
            // Must be the tail of an identifier path, not a substring of a
            // longer word (e.g. `overvoltages`→`voltage` is fine to match,
            // but `voltage_limit_docs` ending differently is handled by the
            // boundary check below).
            let end = pos + unit.len();
            if end < bytes.len() && is_ident_byte(bytes[end]) {
                continue;
            }
            let after = skip_spaces(bytes, end);
            if let Some(op_end) = compare_op_end(bytes, after) {
                let operand = skip_spaces(bytes, op_end);
                if starts_with_float(bytes, operand) && !literal_at_is_zero(bytes, operand) {
                    return true;
                }
            }
        }
    }
    false
}

/// L2 — no panics in library code.
///
/// Simulation crates are embedded by the CLI, the experiment harness and the
/// benches; an `unwrap()` that fires mid-sweep throws away the whole run.
/// Error paths must use `Result`/`Option` combinators, or — for genuine
/// invariants — `.expect("...")` with a message that states the invariant
/// (which this rule accepts). Bare `unwrap`, `panic!`, `todo!`,
/// `unimplemented!`, `unreachable!` and message-less `expect` are flagged.
pub fn l2_no_panic(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !LIB_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    const FORBIDDEN: &[&str] = &[
        ".unwrap()",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let m = line.masked.as_str();
        let hit = FORBIDDEN.iter().any(|pat| contains_token(m, pat))
            || expect_without_message(m);
        if hit {
            push(findings, Rule::NoPanic, file, idx);
        }
    }
}

/// Substring match with a left identifier boundary, so `panic!(` cannot
/// match inside a longer identifier like `explain_panic!(`-free names. The
/// boundary only applies to patterns that start with an identifier byte —
/// method patterns like `.unwrap()` legitimately follow a receiver ident.
fn contains_token(line: &str, pat: &str) -> bool {
    let bytes = line.as_bytes();
    let pat_bytes = pat.as_bytes();
    let needs_boundary = pat_bytes.first().is_some_and(|&b| is_ident_byte(b));
    let mut start = 0usize;
    while let Some(pos) = find_from(bytes, pat_bytes, start) {
        if !needs_boundary || pos == 0 || !is_ident_byte(bytes[pos - 1]) {
            return true;
        }
        start = pos + 1;
    }
    false
}

/// `.expect(` not immediately followed by a string literal. The masked text
/// preserves quote delimiters, so `.expect("msg")` shows `.expect("`.
fn expect_without_message(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = find_from(bytes, b".expect(", start) {
        let after = skip_spaces(bytes, pos + b".expect(".len());
        if after >= bytes.len() || bytes[after] != b'"' {
            return true;
        }
        start = pos + 1;
    }
    false
}

/// L3 — determinism.
///
/// The HCAPP evaluation depends on bit-identical reruns (the parallel
/// executor is checked against the serial path, and experiment CSVs are
/// diffed across machines). Wall-clock reads, OS entropy and iteration
/// order of `HashMap`/`HashSet` all break that. Use `SimTime`, the seeded
/// `sim-core` RNG, and `BTreeMap`/`Vec` instead.
pub fn l3_determinism(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !LIB_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    const FORBIDDEN: &[&str] = &[
        "Instant::now",
        "SystemTime",
        "thread_rng",
        "from_entropy",
        "HashMap",
        "HashSet",
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let m = line.masked.as_str();
        if FORBIDDEN.iter().any(|pat| contains_token(m, pat)) {
            push(findings, Rule::Determinism, file, idx);
        }
    }
}

/// L5 — doc coverage with paper citations.
///
/// Every public item in `crates/core/src/controller/` implements a specific
/// piece of the HCAPP hierarchy, so its doc comment must say *which* piece:
/// a `§`, `Eq.`, `Fig.`, `Table`, `Algorithm` or `Section` reference (or an
/// explicit mention of the paper). An undocumented controller entry point
/// is unreviewable against the source.
pub fn l5_doc_coverage(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !file.rel_path.starts_with("crates/core/src/controller/") {
        return;
    }
    const CITES: &[&str] = &[
        "§", "Eq.", "Eq ", "Fig.", "Fig ", "Table", "Section", "Sec.", "Algorithm", "paper",
        "HCAPP",
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let trimmed = line.masked.trim_start();
        let is_pub_item = ["pub fn ", "pub struct ", "pub enum ", "pub trait ", "pub const fn "]
            .iter()
            .any(|p| trimmed.starts_with(p));
        if !is_pub_item {
            continue;
        }
        // Collect the doc block above: walk up over attributes/derives to
        // contiguous `///` lines.
        let mut docs = String::new();
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let t = file.lines[j].raw.trim_start();
            if t.starts_with("#[") || t.starts_with("#!") {
                continue;
            }
            if t.starts_with("///") {
                docs.push_str(t);
                docs.push('\n');
                continue;
            }
            break;
        }
        let cited = CITES.iter().any(|c| docs.contains(c));
        if docs.is_empty() || !cited {
            push(findings, Rule::DocCoverage, file, idx);
        }
    }
}

// ---- tiny scanning helpers (no regex: L4 forbids the dependency) ----

fn find_from(haystack: &[u8], needle: &[u8], start: usize) -> Option<usize> {
    if start >= haystack.len() || needle.is_empty() {
        return None;
    }
    haystack[start..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + start)
}

fn skip_spaces(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    i
}

/// Index of the last non-space byte strictly before `end`, or None.
fn rskip_spaces(bytes: &[u8], end: usize) -> Option<usize> {
    let mut i = end;
    while i > 0 {
        i -= 1;
        if bytes[i] != b' ' {
            return Some(i);
        }
    }
    None
}

/// If a binary arithmetic/comparison operator starts at `i`, return the
/// index just past it.
fn binary_op_end(bytes: &[u8], i: usize) -> Option<usize> {
    if i >= bytes.len() {
        return None;
    }
    match bytes[i] {
        b'+' | b'-' | b'*' | b'/' | b'%' => Some(i + 1),
        b'<' | b'>' => {
            if bytes.get(i + 1) == Some(&b'=') {
                Some(i + 2)
            } else {
                Some(i + 1)
            }
        }
        b'=' | b'!' if bytes.get(i + 1) == Some(&b'=') => Some(i + 2),
        _ => None,
    }
}

/// If a binary operator *ends* at index `i` (inclusive), return the index of
/// its first byte.
fn binary_op_start(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes[i] {
        b'+' | b'*' | b'/' | b'%' | b'<' | b'>' => Some(i),
        b'-' => Some(i), // could be unary; the literal check guards it
        b'=' if i > 0 && matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!') => Some(i - 1),
        _ => None,
    }
}

/// Comparison operators only (for the ident-vs-literal check; assignment
/// `=` must not match).
fn compare_op_end(bytes: &[u8], i: usize) -> Option<usize> {
    if i >= bytes.len() {
        return None;
    }
    match bytes[i] {
        b'<' | b'>' => {
            if bytes.get(i + 1) == Some(&b'=') {
                Some(i + 2)
            } else {
                Some(i + 1)
            }
        }
        b'=' | b'!' if bytes.get(i + 1) == Some(&b'=') => Some(i + 2),
        _ => None,
    }
}

fn starts_with_number(bytes: &[u8], i: usize) -> bool {
    bytes.get(i).is_some_and(|b| b.is_ascii_digit())
}

fn starts_with_float(bytes: &[u8], i: usize) -> bool {
    if !starts_with_number(bytes, i) {
        return false;
    }
    let mut j = i;
    while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'.'
}

/// The numeric literal starting at `i` is zero (`0`, `0.0`, `0.00`, `0_0.0`).
/// Anything with a nonzero digit or an exponent (`1e-9`) is nonzero.
fn literal_at_is_zero(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    let mut any = false;
    while j < bytes.len() && matches!(bytes[j], b'0'..=b'9' | b'.' | b'_') {
        if matches!(bytes[j], b'1'..=b'9') {
            return false;
        }
        any = true;
        j += 1;
    }
    // An exponent suffix (`0e3` is still zero, but `e` after digits usually
    // means `1e-9`-style nonzero) — only literals made purely of 0/./_ are
    // treated as zero.
    any && (j >= bytes.len() || !is_ident_byte(bytes[j]))
}

/// The numeric literal ending at `i` (inclusive) is zero.
fn literal_ending_is_zero(bytes: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    while j > 0 && matches!(bytes[j - 1], b'0'..=b'9' | b'.' | b'_') {
        if matches!(bytes[j - 1], b'1'..=b'9') {
            return false;
        }
        j -= 1;
    }
    j <= i
}

/// The bytes ending at `i` (inclusive) terminate a numeric literal, and
/// that literal is not part of an identifier (`x2` must not count).
fn ends_with_number(bytes: &[u8], i: usize) -> bool {
    if !bytes[i].is_ascii_digit() {
        return false;
    }
    let mut j = i;
    while j > 0 && (bytes[j - 1].is_ascii_digit() || bytes[j - 1] == b'.' || bytes[j - 1] == b'_')
    {
        j -= 1;
    }
    j == 0 || !is_ident_byte(bytes[j - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lib_file(text: &str) -> SourceFile {
        SourceFile::from_text(text, "crates/core/src/x.rs".into(), "core".into(), false)
    }

    fn run(rule: fn(&SourceFile, &mut Vec<Finding>), text: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        rule(&lib_file(text), &mut out);
        out
    }

    #[test]
    fn l1_flags_value_times_literal() {
        assert_eq!(run(l1_unit_safety, "let p = cap.value() * 1.2;").len(), 1);
        assert_eq!(run(l1_unit_safety, "let p = 0.9 + v.value();").len(), 1);
    }

    #[test]
    fn l1_flags_unit_ident_vs_float() {
        assert_eq!(run(l1_unit_safety, "if voltage < 0.54 { x(); }").len(), 1);
        assert_eq!(run(l1_unit_safety, "while total_watts >= 120.0 {}").len(), 1);
    }

    #[test]
    fn l1_clean_code_passes() {
        assert!(run(l1_unit_safety, "let v = Volt::new(0.9); let w = a.value() + b.value();").is_empty());
        assert!(run(l1_unit_safety, "if voltage < v_min { x(); }").is_empty());
        // Integer compare is index-like, not a unit bug.
        assert!(run(l1_unit_safety, "if voltage_steps > 4 {}").is_empty());
    }

    #[test]
    fn l1_zero_comparisons_are_sign_checks() {
        assert!(run(l1_unit_safety, "assert!(target.value() > 0.0, \"msg\");").is_empty());
        assert!(run(l1_unit_safety, "if 0.0 >= v.value() { x(); }").is_empty());
        assert!(run(l1_unit_safety, "if voltage <= 0.0 { x(); }").is_empty());
        // Nonzero comparison and zero *arithmetic* still flag.
        assert_eq!(run(l1_unit_safety, "if v.value() > 1e-9 { x(); }").len(), 1);
        assert_eq!(run(l1_unit_safety, "let p = q.value() + 0.0;").len(), 1);
    }

    #[test]
    fn l1_exempt_paths() {
        let f = SourceFile::from_text(
            "let x = self.0 * 1.2;",
            "crates/power-model/src/dvfs.rs".into(),
            "power-model".into(),
            false,
        );
        let mut out = Vec::new();
        l1_unit_safety(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn l2_flags_panics() {
        for bad in [
            "let x = y.unwrap();",
            "panic!(\"boom\");",
            "unreachable!()",
            "todo!()",
            "let z = q.expect(msg);",
        ] {
            assert_eq!(run(l2_no_panic, bad).len(), 1, "should flag: {bad}");
        }
    }

    #[test]
    fn l2_accepts_expect_with_message_and_tests() {
        assert!(run(l2_no_panic, "let x = y.expect(\"invariant: queue open\");").is_empty());
        assert!(run(
            l2_no_panic,
            "#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}"
        )
        .is_empty());
    }

    #[test]
    fn l3_flags_nondeterminism() {
        for bad in [
            "let t = Instant::now();",
            "use std::time::SystemTime;",
            "let mut r = thread_rng();",
            "use std::collections::HashMap;",
        ] {
            assert_eq!(run(l3_determinism, bad).len(), 1, "should flag: {bad}");
        }
    }

    #[test]
    fn l3_clean_and_masked() {
        assert!(run(l3_determinism, "let m: BTreeMap<u32, f64> = BTreeMap::new();").is_empty());
        assert!(run(l3_determinism, "// HashMap would be wrong here").is_empty());
        assert!(run(l3_determinism, "let s = \"HashMap\";").is_empty());
    }

    #[test]
    fn l5_requires_citation() {
        let path = "crates/core/src/controller/x.rs";
        let undocumented = SourceFile::from_text("pub fn go() {}", path.into(), "core".into(), false);
        let uncited = SourceFile::from_text(
            "/// Runs the loop.\npub fn go() {}",
            path.into(),
            "core".into(),
            false,
        );
        let cited = SourceFile::from_text(
            "/// Global reallocation step (paper §4.2, Eq. 7).\n#[inline]\npub fn go() {}",
            path.into(),
            "core".into(),
            false,
        );
        for (f, want) in [(&undocumented, 1), (&uncited, 1), (&cited, 0)] {
            let mut out = Vec::new();
            l5_doc_coverage(f, &mut out);
            assert_eq!(out.len(), want);
        }
    }

    #[test]
    fn allow_directive_suppresses() {
        let text = "// simlint: allow(L2)\nlet x = y.unwrap();";
        assert!(run(l2_no_panic, text).is_empty());
    }
}
