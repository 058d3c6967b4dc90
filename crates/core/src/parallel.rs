//! Run-level parallel execution.
//!
//! The experiment sweeps (8 combos × 4 schemes × limits) are embarrassingly
//! parallel: each job is an independent run, so a mutex-guarded work queue
//! feeds system/run configs to worker threads and results land in input
//! order. No determinism protocol is needed — a job's outcome is a pure
//! function of its configs, whichever thread runs it. [`WorkerPool`] keeps
//! the threads alive between sweeps, so an experiment campaign pays thread
//! spawn/join once instead of once per figure; [`shared_pool`] hands out
//! one process-wide pool for exactly that use. A caller with per-result
//! work of its own (the result cache stores each outcome) streams through
//! [`WorkerPool::batch`] instead: a job starts as soon as it is submitted,
//! and each result reaches the caller as soon as it is done.
//!
//! A job that panics does not take its worker with it: the worker catches
//! the panic, sends it back in the job's result slot and takes the next
//! job, and [`Batch::for_each_result`] re-raises it on the caller's thread.
//! A bad job therefore fails its sweep loudly instead of hanging it, and
//! the process-wide pool keeps all its workers for later sweeps.
//!
//! Inside one run, domains are stepped serially: one control quantum is
//! 1 µs of simulated time (§4.1), and handing a quantum's domain work to
//! other threads cost more than the work itself on every package size
//! measured (see `DESIGN.md` §5). The pool is built on the standard library
//! only (`std::sync::mpsc`, `Mutex`/`Condvar`), so the workspace stays
//! hermetic (simlint rule L4).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use crate::coordinator::{RunConfig, Simulation};
use crate::outcome::RunOutcome;
use crate::system::SystemConfig;

/// A job's result as it comes back from a worker: its input index and
/// the outcome, or the panic the run raised.
type JobResult = (usize, thread::Result<RunOutcome>);

/// One queued run-level job: input index, its configs, and the channel its
/// result goes back on (each [`Batch`] brings its own).
type PoolJob = (usize, SystemConfig, RunConfig, Sender<JobResult>);

/// Shared state between a [`WorkerPool`]'s owner and its threads.
struct PoolShared {
    /// Pending jobs plus the shutdown flag, under one lock.
    queue: Mutex<(VecDeque<PoolJob>, bool)>,
    /// Signaled when jobs arrive or shutdown is requested.
    ready: Condvar,
}

/// A persistent run-level worker pool.
///
/// Threads are spawned once and then parked on a condvar between
/// submissions, so a campaign of sweeps (the figure binaries, `hcapp
/// sweep`, the scaling study) reuses them instead of re-spawning a scoped
/// pool per sweep. Dropping the pool shuts the threads down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || loop {
                    let job = {
                        let mut guard = shared
                            .queue
                            .lock()
                            .expect("invariant: no worker panics while holding the job-queue lock");
                        loop {
                            if let Some(job) = guard.0.pop_front() {
                                break Some(job);
                            }
                            if guard.1 {
                                break None;
                            }
                            guard = shared
                                .ready
                                .wait(guard)
                                .expect("invariant: no worker panics while holding the job-queue lock");
                        }
                    };
                    let Some((i, sys, run, tx)) = job else { return };
                    // The configs move into the run and nothing outlives a
                    // panic in it, so no broken state can be observed.
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| Simulation::new(sys, run).run()));
                    // A dropped receiver just means the submitter gave up on
                    // this batch; the pool itself stays healthy.
                    let _ = tx.send((i, outcome));
                })
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Open a streamed batch on the pool: a job starts as soon as it is
    /// [`Batch::submit`]ted, and [`Batch::for_each_result`] hands each
    /// `(index, outcome)` to a callback in completion order. This is the
    /// pool's one dispatch path; [`WorkerPool::run_all`] wraps it.
    /// Concurrent batches from different threads interleave safely (each
    /// batch collects only its own results).
    pub fn batch(&self) -> Batch<'_> {
        let (tx, rx) = channel();
        Batch { pool: self, tx, rx }
    }

    /// Run `jobs` on the pool, blocking until all complete; results are in
    /// input order.
    pub fn run_all(&self, jobs: Vec<(SystemConfig, RunConfig)>) -> Vec<RunOutcome> {
        let mut slots: Vec<Option<RunOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let batch = self.batch();
        for (i, (sys, run)) in jobs.into_iter().enumerate() {
            batch.submit(i, sys, run);
        }
        batch.for_each_result(|i, outcome| slots[i] = Some(outcome));
        slots
            .into_iter()
            .map(|s| s.expect("invariant: every queued job sends exactly one result"))
            .collect()
    }
}

/// A streamed submission to a [`WorkerPool`] (see [`WorkerPool::batch`]).
///
/// Dropping a batch before [`Batch::for_each_result`] is allowed: its
/// queued jobs still run, and their results are discarded.
pub struct Batch<'p> {
    pool: &'p WorkerPool,
    tx: Sender<JobResult>,
    rx: Receiver<JobResult>,
}

impl Batch<'_> {
    /// Queue one job under the caller's `index` and wake one idle worker,
    /// so it starts while the caller prepares the next submission.
    pub fn submit(&self, index: usize, sys: SystemConfig, run: RunConfig) {
        let shared = &self.pool.shared;
        shared
            .queue
            .lock()
            .expect("invariant: no worker panics while holding the job-queue lock")
            .0
            .push_back((index, sys, run, self.tx.clone()));
        shared.ready.notify_one();
    }

    /// Block until every submitted job has finished, calling `on_result`
    /// with each `(index, outcome)` on the calling thread as it arrives, so
    /// the caller's per-result work overlaps the workers' remaining jobs.
    ///
    /// # Panics
    /// Re-raises the panic of a job whose run panicked, as soon as its
    /// result arrives. The batch's other jobs still run; their results are
    /// discarded.
    pub fn for_each_result(self, mut on_result: impl FnMut(usize, RunOutcome)) {
        let Batch { tx, rx, .. } = self;
        // The queued jobs hold the remaining senders: the channel closes
        // once the last of them has reported.
        drop(tx);
        for (i, outcome) in rx {
            match outcome {
                Ok(outcome) => on_result(i, outcome),
                Err(panic) => resume_unwind(panic),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut guard = self
                .shared
                .queue
                .lock()
                .expect("invariant: no worker panics while holding the job-queue lock");
            guard.1 = true;
        }
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The process-wide run-level pool, created on first use with `workers`
/// threads (later calls reuse the first pool regardless of the argument —
/// callers across one campaign pass the same configured worker count).
/// Threads persist for the process lifetime, parked when idle.
pub fn shared_pool(workers: usize) -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(workers))
}

/// Run many independent simulations on a persistent pool of `workers`
/// threads, preserving input order in the result.
///
/// The pool behind this function is the process-wide [`shared_pool`], so an
/// experiment campaign that issues many sweeps reuses one set of threads
/// instead of re-spawning per sweep. The first call fixes the pool size;
/// later calls with a different `workers` still run every job (idle workers
/// wait on the queue, a smaller pool just drains it more slowly), and
/// results never depend on the worker count. Callers needing an exactly
/// sized private pool can hold a [`WorkerPool`] directly.
pub fn run_all(jobs: Vec<(SystemConfig, RunConfig)>, workers: usize) -> Vec<RunOutcome> {
    if jobs.is_empty() {
        return Vec::new();
    }
    shared_pool(workers.max(1)).run_all(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PowerLimit;
    use crate::scheme::ControlScheme;

    use hcapp_sim_core::time::SimDuration;
    use hcapp_workloads::combos::combo_suite;

    fn job(seed: u64) -> (SystemConfig, RunConfig) {
        let sys = SystemConfig::paper_system(combo_suite()[4], seed); // Hi-Low
        let target = PowerLimit::package_pin().guardbanded_target();
        let run = RunConfig::new(
            SimDuration::from_millis(2),
            ControlScheme::Hcapp,
            target,
        );
        (sys, run)
    }

    #[test]
    fn run_all_preserves_order_and_determinism() {
        let jobs: Vec<_> = (0..4).map(job).collect();
        let par = run_all(jobs.clone(), 4);
        let ser: Vec<RunOutcome> = jobs
            .into_iter()
            .map(|(s, r)| Simulation::new(s, r).run())
            .collect();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.avg_power, s.avg_power);
            assert_eq!(p.work, s.work);
        }
    }

    #[test]
    fn run_all_with_single_worker() {
        let out = run_all(vec![job(9)], 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].avg_power.value() > 0.0);
    }

    #[test]
    fn run_all_with_more_workers_than_jobs() {
        let out = run_all(vec![job(3), job(5)], 16);
        assert_eq!(out.len(), 2);
        for o in &out {
            assert!(o.avg_power.value() > 0.0);
        }
    }

    #[test]
    fn run_all_with_empty_job_list() {
        let out = run_all(Vec::new(), 4);
        assert!(out.is_empty());
        // The pool form likewise returns without blocking on a condvar.
        let pool = WorkerPool::new(2);
        assert!(pool.run_all(Vec::new()).is_empty());
    }

    #[test]
    fn batch_streams_each_result_once_under_the_callers_index() {
        let pool = WorkerPool::new(2);
        // An abandoned batch's jobs still run; the pool stays usable.
        let abandoned = pool.batch();
        let (sys, run) = job(1);
        abandoned.submit(0, sys, run);
        drop(abandoned);
        let batch = pool.batch();
        for (i, seed) in [(40, 3), (7, 5), (12, 7)] {
            let (sys, run) = job(seed);
            batch.submit(i, sys, run);
        }
        let mut seen = Vec::new();
        batch.for_each_result(|i, outcome| seen.push((i, outcome.work)));
        seen.sort_by_key(|&(i, _)| i);
        let want: Vec<_> = [(7, 5), (12, 7), (40, 3)]
            .into_iter()
            .map(|(i, seed)| {
                let (sys, run) = job(seed);
                (i, Simulation::new(sys, run).run().work)
            })
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn a_panicking_job_fails_its_batch_and_spares_the_worker() {
        // One worker, so the panicking run and every later job share it: a
        // lost worker would hang the rest of the batch and the next one.
        let pool = WorkerPool::new(1);
        let (sys, mut run) = job(3);
        run.duration = SimDuration::ZERO;
        let jobs = vec![(sys, run), job(5)];
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run_all(jobs)));
        let panic = caught.expect_err("a zero-length run must panic");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("zero run duration"), "{message}");
        let out = pool.run_all(vec![job(7), job(9)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].work, Simulation::new(job(7).0, job(7).1).run().work);
    }

    #[test]
    fn worker_pool_reused_across_submissions() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let first = pool.run_all(vec![job(3), job(5), job(7)]);
        let second = pool.run_all(vec![job(3)]);
        assert_eq!(first.len(), 3);
        assert_eq!(second.len(), 1);
        // Same job, same pool → bit-identical outcome on reuse.
        assert_eq!(first[0].avg_power, second[0].avg_power);
        assert_eq!(first[0].work, second[0].work);
    }
}
