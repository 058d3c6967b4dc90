//! `hcapp record` — materialize a benchmark's phase trace to disk.
//!
//! The output is self-describing JSONL (schema `hcapp.phase-trace`),
//! which replays bit-exactly through `hcapp run --cpu-trace` /
//! `--gpu-trace`. Those flags also read user-measured traces as CSV.

use hcapp_sim_core::time::SimDuration;
use hcapp_workloads::benchmarks::Benchmark;
use hcapp_workloads::trace::PhaseTrace;

use crate::args::{ArgError, Args};
use crate::commands::shared;

/// Execute `hcapp record`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let bench_name = args.string("bench", "ferret")?;
    let work_ms = args.u64("work-ms", 50)?.max(1);
    let seed = args.u64("seed", 11)?;
    let out = args.string("out", &format!("results/{bench_name}.trace.jsonl"))?;
    args.finish()?;

    let bench = Benchmark::by_name(&bench_name).ok_or_else(|| ArgError::BadValue {
        flag: "bench".into(),
        value: bench_name.clone(),
        expected: "a benchmark name (see `hcapp list`)",
    })?;
    let total_ns = SimDuration::from_millis(work_ms).as_nanos() as f64;
    let trace = PhaseTrace::record(bench.spec(), seed, 0, total_ns);
    let body = shared::phase_trace_to_jsonl(&trace);
    shared::write_output(&out, &body).map_err(|e| ArgError::BadValue {
        flag: "out".into(),
        value: format!("{out}: {e}"),
        expected: "a writable path",
    })?;
    Ok(format!(
        "recorded {} phases ({:.1} ms of nominal work) from {} to {} (JSONL)\n",
        trace.phases().len(),
        trace.total_work_ns() * 1e-6,
        bench.name(),
        out,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(s: &str) -> Result<String, ArgError> {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap())
    }

    #[test]
    fn records_a_replayable_jsonl_by_default() {
        let path = std::env::temp_dir().join("hcapp_record_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let msg = record(&format!("--bench bfs --work-ms 5 --out {}", path.display())).unwrap();
        assert!(msg.contains("bfs"));
        assert!(msg.contains("JSONL"));
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = shared::phase_trace_from_jsonl("bfs", &text).unwrap();
        assert!(trace.total_work_ns() >= 5_000_000.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn both_formats_describe_the_same_phases() {
        let bench = Benchmark::by_name("ferret").unwrap();
        let trace = PhaseTrace::record(bench.spec(), 3, 0, 1_000_000.0);
        let via_jsonl =
            shared::phase_trace_from_jsonl("ferret", &shared::phase_trace_to_jsonl(&trace))
                .unwrap();
        let via_csv = PhaseTrace::from_csv("ferret", &trace.to_csv()).unwrap();
        assert_eq!(via_jsonl.phases().len(), via_csv.phases().len());
        // JSONL keeps full f64 precision; CSV rounds to fixed decimals.
        for (a, b) in via_jsonl.phases().iter().zip(trace.phases()) {
            assert_eq!(a, b, "JSONL round-trip must be exact");
        }
    }

    #[test]
    fn unknown_benchmark_rejected() {
        assert!(record("--bench nope").is_err());
    }
}
