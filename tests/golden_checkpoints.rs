//! Golden digests of `hcapp.ckpt` bytes.
//!
//! The checkpoint text is a format: a checkpoint written by one build must
//! restore in the next, and the resume oracle only proves that a build
//! round-trips its *own* checkpoints. This corpus pins the bytes
//! themselves, at two quantum boundaries of each run below, so a change to
//! how state is held in memory (a window ring that grows as samples
//! arrive, a run-sized scratch arena, the loop owning its domains) cannot
//! move the text it serializes to.
//!
//! The runs cover the window states the codec has to spell out:
//! - `hcapp_1ms`: the paper's 1 µs loop; the 20 µs ring has wrapped while
//!   the 1 ms and 10 ms rings are still filling;
//! - `fixed_batched`: the fixed baseline at its 100 µs quantum (the name
//!   dates from when this run shipped four quanta per dispatch; it is kept
//!   so the committed rows do not move);
//! - `sw_like`: the 10 ms Software-like quantum; the run is 25 ms, because
//!   a run shorter than one quantum has no mid-run boundary to checkpoint
//!   at, and its last quantum is cut short by the end of the run;
//! - `window_1ms`: a single 1 ms limit window, still filling at the first
//!   boundary and wrapped at the second.
//!
//! Re-bless deliberately (after verifying the change is intentional) with:
//!
//! ```text
//! HCAPP_BLESS=1 cargo test --test golden_checkpoints
//! ```

use hcapp_repro::hcapp::coordinator::RunConfig;
use hcapp_repro::hcapp::limits::PowerLimit;
use hcapp_repro::hcapp::resume::{run_resumable, ResumeEnd, ResumeOptions};
use hcapp_repro::hcapp::scheme::ControlScheme;
use hcapp_repro::hcapp::system::SystemConfig;
use hcapp_repro::hcapp::testutil::{combo, fnv1a64};
use hcapp_repro::sim_core::time::SimDuration;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_checkpoints.txt");
const SEED: u64 = 13;

/// A checkpointed run: its name, its configuration and the two quanta at
/// which a checkpoint is taken.
struct Case {
    name: &'static str,
    run: RunConfig,
    stops: [u64; 2],
}

fn cases() -> Vec<Case> {
    let target = PowerLimit::package_pin().guardbanded_target();
    let run = |ms: u64, scheme| RunConfig::new(SimDuration::from_millis(ms), scheme, target);
    let mut window_1ms = run(2, ControlScheme::Hcapp);
    window_1ms.track_windows = vec![SimDuration::from_millis(1)];
    vec![
        Case {
            name: "hcapp_1ms",
            run: run(1, ControlScheme::Hcapp),
            stops: [50, 700],
        },
        Case {
            name: "fixed_batched",
            run: run(1, ControlScheme::fixed_baseline()),
            stops: [4, 8],
        },
        Case {
            name: "sw_like",
            run: run(25, ControlScheme::SoftwareLike),
            stops: [1, 2],
        },
        Case {
            name: "window_1ms",
            run: window_1ms,
            stops: [500, 1500],
        },
    ]
}

/// Run `case` until quantum `stop`, checkpointing exactly there, and
/// return the checkpoint file's bytes.
fn checkpoint_bytes(case: &Case, stop: u64) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "hcapp_golden_ckpt_{}_{stop}_{}",
        case.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let path = dir.join("hcapp.ckpt");
    let opts = ResumeOptions::new(&path)
        .with_checkpoint_every(stop)
        .with_stop_at(stop);
    let sys = SystemConfig::paper_system(combo("Hi-Hi"), SEED);
    let summary = run_resumable(sys, case.run.clone(), &opts).expect("checkpointed run");
    assert!(
        matches!(summary.end, ResumeEnd::Stopped { quantum } if quantum == stop),
        "{} did not stop at quantum {stop}: {:?}",
        case.name,
        summary.end
    );
    assert_eq!(summary.checkpoints_written, 1, "{} stop {stop}", case.name);
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn corpus() -> String {
    let mut out = String::from(
        "# hcapp checkpoint digests v1 — Hi-Hi, seed 13, package-pin guardbanded target\n\
         # columns: case stop=<quantum> bytes=<len> ckpt=<fnv1a64 of hcapp.ckpt>\n\
         # re-bless: HCAPP_BLESS=1 cargo test --test golden_checkpoints\n",
    );
    for case in cases() {
        for stop in case.stops {
            let bytes = checkpoint_bytes(&case, stop);
            out.push_str(&format!(
                "{} stop={stop} bytes={} ckpt={:016x}\n",
                case.name,
                bytes.len(),
                fnv1a64(&bytes),
            ));
        }
    }
    out
}

#[test]
fn checkpoint_bytes_match_the_committed_fixture() {
    let fresh = corpus();
    if std::env::var_os("HCAPP_BLESS").is_some() {
        std::fs::write(FIXTURE, &fresh).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let committed = std::fs::read_to_string(FIXTURE)
        .expect("tests/golden_checkpoints.txt missing — run with HCAPP_BLESS=1 to generate");
    assert_eq!(
        committed, fresh,
        "checkpoint bytes diverged — the hcapp.ckpt format moved"
    );
}
