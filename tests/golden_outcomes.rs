//! Golden-digest conformance corpus.
//!
//! Pins the byte-exact behaviour of every Table 3 CPU×GPU combo under all
//! four control schemes on the 3-domain paper package: the
//! `encode_outcome` byte stream, the JSONL trace line count, and the
//! `hcapp.report` produced by *replaying* that trace offline. The fixture
//! (`tests/golden_digests.txt`) was generated before the quantum-stepper
//! kernel landed, so any kernel-era change that moves a single output bit
//! fails here first.
//!
//! Re-bless deliberately (after verifying the change is intentional) with:
//!
//! ```text
//! HCAPP_BLESS=1 cargo test --test golden_outcomes
//! ```

use std::sync::{Arc, Mutex};

use hcapp_analyze::StreamAnalyzer;
use hcapp_repro::hcapp::cache::encode_outcome;
use hcapp_repro::hcapp::run_analyzed;
use hcapp_repro::hcapp::scheme::ControlScheme;
use hcapp_repro::hcapp::testutil::{all_combos, digest_hex, paper_config};
use hcapp_telemetry::tracer::RingTracer;
use hcapp_telemetry::{jsonl, SharedTracer};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_digests.txt");
const SEED: u64 = 11;
const MS: u64 = 1;
/// Large enough that a 1 ms run can never wrap the ring (asserted below);
/// a wrapped ring would make the pinned line counts capacity-dependent.
const RING_CAP: usize = 1 << 18;

/// One corpus row: everything we pin for a (combo, scheme) cell.
fn golden_row(combo_name: &str, scheme: ControlScheme) -> String {
    let combo = hcapp_repro::hcapp::testutil::combo(combo_name);
    let (sys, run) = paper_config(combo, scheme, SEED, MS);
    let ring = Arc::new(Mutex::new(RingTracer::new(RING_CAP)));
    let run = run.with_tracer(ring.clone() as SharedTracer);
    let (outcome, live_report) = run_analyzed(sys, run);

    let events = ring
        .lock()
        .expect("invariant: tracer mutex never poisoned")
        .drain();
    assert!(
        events.len() < RING_CAP,
        "{combo_name}/{}: ring wrapped ({} events)",
        scheme.name(),
        events.len()
    );
    let trace = jsonl::export(&events, &[]);
    jsonl::validate(&trace).expect("exported trace must validate");

    // The report must be reproducible from the trace alone (offline replay
    // == live analysis), and that replayed report is what the corpus pins.
    let mut replay = StreamAnalyzer::new();
    replay.consume_jsonl(&trace).expect("replay failed");
    let replayed = replay.report().to_json();
    assert_eq!(
        replayed,
        live_report.to_json(),
        "{combo_name}/{}: offline replay diverged from live report",
        scheme.name()
    );

    format!(
        "{combo_name} {} outcome={} trace_lines={} report={}",
        scheme.name(),
        digest_hex(&encode_outcome(&outcome)),
        trace.lines().count(),
        digest_hex(&replayed),
    )
}

fn corpus() -> String {
    let mut out = String::from(
        "# hcapp golden digests v1 — seed 11, 1 ms, package-pin guardbanded target\n\
         # columns: combo scheme outcome=<fnv1a64> trace_lines=<n> report=<fnv1a64>\n\
         # re-bless: HCAPP_BLESS=1 cargo test --test golden_outcomes\n",
    );
    for combo in all_combos() {
        for scheme in ControlScheme::all() {
            out.push_str(&golden_row(combo.name, scheme));
            out.push('\n');
        }
    }
    out
}

#[test]
fn table3_digests_match_the_committed_fixture() {
    let fresh = corpus();
    if std::env::var_os("HCAPP_BLESS").is_some() {
        std::fs::write(FIXTURE, &fresh).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let committed = std::fs::read_to_string(FIXTURE)
        .expect("tests/golden_digests.txt missing — run with HCAPP_BLESS=1 to generate");
    let mut mismatches = Vec::new();
    for (want, got) in committed.lines().zip(fresh.lines()) {
        if want != got {
            mismatches.push(format!("  committed: {want}\n  fresh:     {got}"));
        }
    }
    if committed.lines().count() != fresh.lines().count() {
        mismatches.push(format!(
            "  line counts differ: committed {} vs fresh {}",
            committed.lines().count(),
            fresh.lines().count()
        ));
    }
    assert!(
        mismatches.is_empty(),
        "golden digests diverged — an output bit moved:\n{}",
        mismatches.join("\n")
    );
}
