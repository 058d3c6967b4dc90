//! Declarative bounds checking for JSON metric documents — the engine
//! behind `hcapp analyze --assert`.
//!
//! A checks file is a versioned `hcapp.checks` document listing per-metric
//! `min`/`max` bounds. [`run_checks`] evaluates them against *any* JSON
//! document: it first looks for the metric inside a `"metrics"` object
//! (the [`crate::RunReport`] shape) and falls back to a top-level member,
//! so the same gate runs against `hcapp.report` files and flat documents
//! like the `hcapp.bench-kernel` output alike.
//!
//! ```json
//! {"schema": "hcapp.checks", "version": 1, "checks": [
//!   {"metric": "over_budget_frac", "max": 0.25},
//!   {"metric": "qps_serial_3", "min": 30000}
//! ]}
//! ```
//!
//! Missing metrics and `NaN`/`null` values fail any bound — a metric that
//! silently vanishes from a report should trip the gate, not pass it.

use hcapp_telemetry::json::{self, JsonValue};

/// Schema tag expected at the top of a checks file.
pub const CHECKS_SCHEMA: &str = "hcapp.checks";
/// Current checks schema version.
pub const CHECKS_VERSION: u64 = 1;

/// One declarative bound on a metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Metric name to look up in the target document.
    pub metric: String,
    /// Inclusive lower bound, if any.
    pub min: Option<f64>,
    /// Inclusive upper bound, if any.
    pub max: Option<f64>,
}

/// Outcome of evaluating one [`Check`].
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// The check that was evaluated.
    pub check: Check,
    /// The value found in the document, if present and numeric.
    pub value: Option<f64>,
    /// Whether the value satisfied every bound.
    pub passed: bool,
    /// Human-readable verdict ("ok", or why it failed).
    pub detail: String,
}

/// Parse a `hcapp.checks` document.
pub fn parse_checks(text: &str) -> Result<Vec<Check>, String> {
    let v = json::parse(text.trim()).map_err(|e| format!("checks: {e}"))?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == CHECKS_SCHEMA => {}
        Some(s) => return Err(format!("unknown schema {s:?} (expected {CHECKS_SCHEMA:?})")),
        None => return Err("checks file missing \"schema\"".into()),
    }
    match v.get("version").and_then(JsonValue::as_f64) {
        Some(n) if n == CHECKS_VERSION as f64 => {}
        Some(n) => return Err(format!("unsupported checks version {n}")),
        None => return Err("checks file missing \"version\"".into()),
    }
    let Some(JsonValue::Arr(items)) = v.get("checks") else {
        return Err("checks file missing \"checks\" array".into());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Some(metric) = item.get("metric").and_then(JsonValue::as_str) else {
            return Err(format!("check #{i}: missing \"metric\""));
        };
        let min = item.get("min").and_then(JsonValue::as_f64);
        let max = item.get("max").and_then(JsonValue::as_f64);
        if min.is_none() && max.is_none() {
            return Err(format!("check #{i} ({metric}): needs \"min\" and/or \"max\""));
        }
        out.push(Check {
            metric: metric.to_string(),
            min,
            max,
        });
    }
    Ok(out)
}

/// Look a metric up in `doc`: inside a `"metrics"` object first (report
/// shape), then as a top-level member (flat documents like bench output).
fn lookup(doc: &JsonValue, name: &str) -> Option<f64> {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .or_else(|| doc.get(name))
        .and_then(JsonValue::as_f64)
}

/// Evaluate every check against a parsed JSON document.
pub fn run_checks(doc: &JsonValue, checks: &[Check]) -> Vec<CheckResult> {
    checks
        .iter()
        .map(|c| {
            let value = lookup(doc, &c.metric);
            let (passed, detail) = match value {
                None => (false, "metric missing or non-numeric".to_string()),
                Some(v) if v.is_nan() => (false, "value is NaN".to_string()),
                Some(v) => {
                    if c.min.is_some_and(|lo| v < lo) {
                        (false, format!("{v} < min {}", c.min.unwrap_or(f64::NAN)))
                    } else if c.max.is_some_and(|hi| v > hi) {
                        (false, format!("{v} > max {}", c.max.unwrap_or(f64::NAN)))
                    } else {
                        (true, "ok".to_string())
                    }
                }
            };
            CheckResult {
                check: c.clone(),
                value,
                passed,
                detail,
            }
        })
        .collect()
}

/// Render check results as a one-line-per-check summary.
pub fn render_results(results: &[CheckResult]) -> String {
    let mut out = String::new();
    for r in results {
        let bounds = match (r.check.min, r.check.max) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            (Some(lo), None) => format!(">= {lo}"),
            (None, Some(hi)) => format!("<= {hi}"),
            (None, None) => "(unbounded)".to_string(),
        };
        out.push_str(&format!(
            "{} {}: {} {} — {}\n",
            if r.passed { "PASS" } else { "FAIL" },
            r.check.metric,
            r.value.map_or_else(|| "missing".to_string(), |v| format!("{v}")),
            bounds,
            r.detail,
        ));
    }
    let failed = results.iter().filter(|r| !r.passed).count();
    out.push_str(&format!("{failed} failed / {} checks\n", results.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECKS: &str = r#"{"schema":"hcapp.checks","version":1,"checks":[
        {"metric":"over_budget_frac","max":0.25},
        {"metric":"epochs_settled","min":1},
        {"metric":"mean_p_now_w","min":10,"max":200}
    ]}"#;

    #[test]
    fn parses_and_passes_against_report_shape() {
        let checks = parse_checks(CHECKS).unwrap();
        assert_eq!(checks.len(), 3);
        let doc = json::parse(
            r#"{"schema":"hcapp.report","version":1,"metrics":{"over_budget_frac":0.1,"epochs_settled":2,"mean_p_now_w":84.5}}"#,
        )
        .unwrap();
        let results = run_checks(&doc, &checks);
        assert!(results.iter().all(|r| r.passed), "{}", render_results(&results));
    }

    #[test]
    fn falls_back_to_top_level_members() {
        let checks = parse_checks(
            r#"{"schema":"hcapp.checks","version":1,"checks":[{"metric":"qps_serial_3","min":30000}]}"#,
        )
        .unwrap();
        // Flat document, the hcapp.bench-kernel shape.
        let doc = json::parse(r#"{"schema":"hcapp.bench-kernel","qps_serial_3":500000.0}"#).unwrap();
        assert!(run_checks(&doc, &checks).iter().all(|r| r.passed));
    }

    #[test]
    fn bound_violations_missing_metrics_and_nan_fail() {
        let checks = parse_checks(CHECKS).unwrap();
        let doc = json::parse(
            r#"{"schema":"hcapp.report","version":1,"metrics":{"over_budget_frac":0.4,"mean_p_now_w":null}}"#,
        )
        .unwrap();
        let results = run_checks(&doc, &checks);
        let by = |n: &str| results.iter().find(|r| r.check.metric == n).unwrap();
        assert!(!by("over_budget_frac").passed, "0.4 > max 0.25");
        assert!(!by("epochs_settled").passed, "missing metric fails");
        assert!(!by("mean_p_now_w").passed, "null parses to missing/NaN and fails");
        let rendered = render_results(&results);
        assert!(rendered.contains("3 failed / 3"), "{rendered}");
    }

    #[test]
    fn malformed_checks_files_are_rejected() {
        assert!(parse_checks("").is_err());
        assert!(parse_checks(r#"{"schema":"nope","version":1,"checks":[]}"#).is_err());
        assert!(parse_checks(r#"{"schema":"hcapp.checks","version":2,"checks":[]}"#).is_err());
        assert!(parse_checks(r#"{"schema":"hcapp.checks","version":1}"#).is_err());
        assert!(
            parse_checks(r#"{"schema":"hcapp.checks","version":1,"checks":[{"metric":"x"}]}"#)
                .is_err(),
            "a check with no bounds is a mistake"
        );
        assert!(
            parse_checks(r#"{"schema":"hcapp.checks","version":1,"checks":[{"min":1}]}"#).is_err()
        );
    }
}
