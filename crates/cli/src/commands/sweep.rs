//! `hcapp sweep` — run the Table 3 suite for one or more schemes.
//!
//! Sweeps are memoized through the content-addressed result cache
//! (`results/cache/` by default): re-running an identical sweep replays
//! bit-identical outcomes from disk instead of re-simulating. `--no-cache`
//! bypasses the cache, `--cache-dir PATH` relocates it, and `--wipe-cache`
//! clears it before running (always safe — every entry is derivable).

use hcapp::cache::{run_all_cached, CacheStats, RunCache};
use hcapp::coordinator::RunConfig;
use hcapp::parallel::run_all;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_metrics::suite::{ComboRow, SuiteSummary};
use hcapp_sim_core::time::SimDuration;
use hcapp_workloads::combos::combo_suite;

use crate::args::{ArgError, Args};
use crate::commands::shared;

fn parse_schemes(list: &str) -> Result<Vec<ControlScheme>, ArgError> {
    list.split(',')
        .map(|tok| {
            let args = crate::args::Args::parse(&[
                "--scheme".to_string(),
                tok.trim().to_string(),
            ])
            .expect("literal flags");
            shared::scheme(&args)
        })
        .collect()
}

/// Execute `hcapp sweep`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let limit = shared::limit(args)?;
    let ms = shared::positive_u64(args, "ms", 50)?;
    let seed = args.u64("seed", 11)?;
    let scheme_list = args.string("scheme", "hcapp,rapl,sw")?;
    // `--parallel N` sizes the run-level pool; absent or 0 means one worker
    // per core, because the job list is the whole Table 3 matrix.
    let workers = match args.u64("parallel", 0)? as usize {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        n => n,
    };
    let no_cache = args.switch("no-cache")?;
    let cache_dir = args.string(
        "cache-dir",
        hcapp::cache::default_cache_dir()
            .to_str()
            .unwrap_or("results/cache"),
    )?;
    let wipe_cache = args.switch("wipe-cache")?;
    args.finish()?;
    let schemes = parse_schemes(&scheme_list)?;

    let combos = combo_suite();
    let cache = RunCache::new(&cache_dir);
    let wiped = if wipe_cache { Some(cache.wipe()) } else { None };

    // Baseline first, then each requested scheme; one job pool.
    let mut jobs = Vec::new();
    for scheme in std::iter::once(ControlScheme::fixed_baseline()).chain(schemes.iter().copied()) {
        for &combo in &combos {
            jobs.push((
                SystemConfig::paper_system(combo, seed),
                RunConfig::new(
                    SimDuration::from_millis(ms),
                    scheme,
                    limit.guardbanded_target(),
                ),
            ));
        }
    }
    let (outcomes, stats): (Vec<_>, Option<CacheStats>) = if no_cache {
        (run_all(jobs, workers), None)
    } else {
        let (outcomes, stats) = run_all_cached(jobs, workers, &cache);
        (outcomes, Some(stats))
    };
    let mut outcomes = outcomes.into_iter();
    let baseline: Vec<_> = combos.iter().map(|_| outcomes.next().unwrap()).collect();

    let mut out = String::new();
    if let Some(n) = wiped {
        out.push_str(&format!("cache: wiped {n} entries from {cache_dir}\n"));
    }
    if let Some(s) = stats {
        out.push_str(&format!(
            "cache: {} hits, {} misses, {} corrupt ({cache_dir})\n",
            s.hits, s.misses, s.corrupt
        ));
        if s.unstored > 0 {
            out.push_str(&format!(
                "cache: {} results not stored ({cache_dir})\n",
                s.unstored
            ));
        }
        out.push('\n');
    }
    for &scheme in &schemes {
        let mut summary = SuiteSummary::new(scheme.name());
        for (i, &combo) in combos.iter().enumerate() {
            let o = outcomes.next().expect("one outcome per job");
            summary.push(ComboRow {
                combo: combo.name.to_string(),
                max_ratio: o.max_ratio(&limit).unwrap_or(0.0),
                ppe: o.ppe(limit.budget),
                speedup: o.speedup_vs(&baseline[i]),
            });
        }
        out.push_str(&summary.to_table().render());
        out.push_str(&format!(
            "viable under the limit: {}\n\n",
            if summary.viable() { "yes" } else { "NO" }
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(s: &str) -> String {
        let toks: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&toks).unwrap()).unwrap()
    }

    #[test]
    fn sweep_renders_summaries() {
        // --no-cache so the test never leaves entries in the repo's
        // working-directory cache.
        let out = run_cli("--scheme hcapp --ms 1 --no-cache");
        assert!(out.contains("HCAPP across the Table 3 suite"));
        assert!(out.contains("Ave."));
        assert!(out.contains("viable under the limit"));
        assert!(!out.contains("cache:"), "--no-cache must skip the cache line");
    }

    #[test]
    fn warm_sweep_hits_cache_and_matches_cold_output() {
        let dir = std::env::temp_dir().join(format!(
            "hcapp_sweep_cache_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let flags = format!(
            "--scheme hcapp --ms 1 --parallel 2 --cache-dir {}",
            dir.display()
        );
        let cold = run_cli(&flags);
        let warm = run_cli(&flags);
        assert!(cold.contains("cache: 0 hits, 16 misses, 0 corrupt"), "{cold}");
        assert!(warm.contains("cache: 16 hits, 0 misses, 0 corrupt"), "{warm}");
        // Identical tables after the cache line: cached replay is exact.
        let tail = |s: &str| s.split_once("\n\n").map(|(_, t)| t.to_string()).unwrap();
        assert_eq!(tail(&cold), tail(&warm));
        assert!(!cold.contains("not stored"), "{cold}");
        // --wipe-cache empties it again.
        let wiped = run_cli(&format!("{flags} --wipe-cache"));
        assert!(wiped.contains("cache: wiped 16 entries"), "{wiped}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn impossible_cache_dir_is_cold_and_reports_unstored_results() {
        // The cache directory runs through a file, so it can never exist:
        // every rerun is cold, nothing is corrupt, and the sweep says that
        // its results were not stored.
        let blocker =
            std::env::temp_dir().join(format!("hcapp_sweep_cache_blocker_{}", std::process::id()));
        std::fs::write(&blocker, "file").expect("writable temp dir");
        let dir = blocker.join("sub");
        let flags = format!("--scheme hcapp --ms 1 --cache-dir {}", dir.display());
        let first = run_cli(&flags);
        let rerun = run_cli(&flags);
        for out in [&first, &rerun] {
            assert!(out.contains("cache: 0 hits, 16 misses, 0 corrupt"), "{out}");
            assert!(
                out.contains(&format!("cache: 16 results not stored ({})", dir.display())),
                "{out}"
            );
        }
        let tail = |s: &str| s.split_once("\n\n").map(|(_, t)| t.to_string()).unwrap();
        assert_eq!(tail(&first), tail(&rerun));
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn parallel_one_means_pooled_single_worker() {
        let out = run_cli("--scheme hcapp --ms 1 --parallel 1 --no-cache");
        assert!(out.contains("viable under the limit"));
    }

    #[test]
    fn scheme_list_parsing() {
        let s = parse_schemes("hcapp, rapl,sw").unwrap();
        assert_eq!(s.len(), 3);
        assert!(parse_schemes("hcapp,bogus").is_err());
    }
}
