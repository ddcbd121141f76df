//! Shared worker pool with supervision.
//!
//! Any indexed batch of independent jobs (fleet houses, cross-validation
//! folds, experiment-matrix cells, gateway session workers) runs through
//! the same loop:
//!
//! ```text
//! next: AtomicUsize ─┬─ claim ─▶ worker 0 (the calling thread) ─┐
//!   (0..n_jobs)      ├─ claim ─▶ worker 1 (scoped thread)       ├─ join ─▶ caller places
//!                    └─ claim ─▶ …                              ┘          results[idx]
//!        each worker keeps its outcomes in its own Vec<(idx, Outcome)>
//! ```
//!
//! [`run_indexed_supervised_with`] is the one implementation. The calling
//! thread runs the worker loop as worker 0 and `workers − 1` scoped threads
//! run it beside it, so a one-worker run spawns no thread. Each worker
//! claims the next job index from a shared counter and keeps its outcomes
//! in its own vector; no job or result crosses a channel. Every job
//! attempt executes under `catch_unwind`; a panicking job is retried per
//! [`RetryPolicy`] (deterministic jittered backoff) and reported as a
//! per-job [`Outcome`] (`Ok`, `Retried` or `Panicked`) inside a
//! [`PoolReport`] instead of taking the run down. There is no deadline: an
//! attempt already running cannot be cancelled in safe Rust, so every job
//! runs to an outcome. A worker whose loop
//! itself crashes is re-armed with fresh scratch state (a logical respawn),
//! so one panic never shrinks the pool. [`run_indexed_supervised`] drops the
//! per-worker scratch, and [`run_indexed`] is the single-attempt form for
//! callers that want a plain `Result`: the lowest-indexed panicking job
//! fails the run with a typed [`Error::Engine`] carrying its panic payload.
//!
//! Determinism contract: after the join the caller places every outcome at
//! its job index, so the output is **independent of worker count and
//! scheduling** whenever each job is a pure function of its index (and,
//! under supervision, of its attempt number). Callers that fold the results
//! do so over that index-ordered vector, which is what makes parallel
//! cross-validation bit-identical to serial (see `DESIGN.md` §9) and fleet
//! quarantine decisions bit-identical at any worker count (`DESIGN.md` §10).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::error::{Error, Result};
use crate::json::JsonWriter;
use crate::telemetry::{Log2Histogram, Registry};

/// Parallelism knobs for one pool run.
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Worker count, the calling thread included; `0` means one worker per
    /// available core.
    pub workers: usize,
}

impl PoolConfig {
    /// Config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig { workers }
    }

    /// The effective worker count: `workers`, or the machine's parallelism
    /// when `workers` is `0`, never exceeding the job count.
    pub fn effective_workers(&self, n_jobs: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.workers
        };
        requested.max(1).min(n_jobs.max(1))
    }
}

/// Retry schedule for supervised jobs whose attempt panicked.
///
/// Delays are **fully deterministic**: exponential doubling from
/// [`backoff_base`](Self::backoff_base), saturating at
/// [`backoff_cap`](Self::backoff_cap), plus a jitter derived by hashing the
/// `(job index, attempt)` pair — no wall-clock or RNG nondeterminism, so a
/// replayed run waits exactly as long as the original while distinct jobs
/// still decorrelate their retry storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, counting the first (`1` = never retry).
    pub max_attempts: u32,
    /// Delay before the first retry; later retries double it.
    pub backoff_base: Duration,
    /// Upper bound on any single retry delay.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Policy that retries up to `max_attempts` total attempts with the
    /// default backoff schedule.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), ..Self::default() }
    }

    /// Disables the inter-attempt sleep (for tests and benchmarks).
    pub fn no_backoff(mut self) -> Self {
        self.backoff_base = Duration::ZERO;
        self
    }

    /// The deterministic delay before retrying `job` after its
    /// `attempt`-th attempt (1-based) failed: `backoff_base * 2^(attempt-1)`
    /// capped at `backoff_cap`, plus up to 50% index-derived jitter.
    pub fn delay(&self, job: usize, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let step = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.backoff_cap);
        let jitter_span = step.as_nanos() as u64 / 2;
        if jitter_span == 0 {
            return step;
        }
        let jitter =
            crate::shard::splitmix64((job as u64) ^ ((attempt as u64) << 32)) % (jitter_span + 1);
        (step + Duration::from_nanos(jitter)).min(self.backoff_cap)
    }
}

/// Per-job result of a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<R> {
    /// The first attempt succeeded.
    Ok(R),
    /// The job succeeded after `retries` panicking attempts.
    Retried {
        /// The successful attempt's result.
        value: R,
        /// How many earlier attempts panicked.
        retries: u32,
    },
    /// Every allowed attempt panicked; `message` is the last panic payload.
    Panicked {
        /// Rendered payload of the final panic.
        message: String,
        /// Attempts consumed (== the policy's `max_attempts`).
        attempts: u32,
    },
}

impl<R> Outcome<R> {
    /// The successful value, if any (first-try or retried).
    pub fn value(&self) -> Option<&R> {
        match self {
            Outcome::Ok(v) | Outcome::Retried { value: v, .. } => Some(v),
            _ => None,
        }
    }

    /// Consumes the outcome, returning the successful value if any.
    pub fn into_value(self) -> Option<R> {
        match self {
            Outcome::Ok(v) | Outcome::Retried { value: v, .. } => Some(v),
            _ => None,
        }
    }

    /// Whether the job produced a value.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Ok(_) | Outcome::Retried { .. })
    }
}

/// One failed job of a supervised run, in job-index order: every allowed
/// attempt panicked.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Index of the failed job.
    pub index: usize,
    /// The last panic payload.
    pub message: String,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

/// Everything a supervised run reports: index-ordered per-job outcomes, the
/// failures extracted from them (also index-ordered), and run counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport<R> {
    /// `results[i]` is the outcome of job `i`.
    pub results: Vec<Outcome<R>>,
    /// Jobs that produced no value, in index order.
    pub errors: Vec<JobFailure>,
    /// Counters for the run.
    pub stats: PoolStats,
}

impl<R> PoolReport<R> {
    /// Consumes the report, returning `(index, value)` for every job that
    /// succeeded (first-try or after retries), in index order.
    pub fn into_successes(self) -> Vec<(usize, R)> {
        self.results
            .into_iter()
            .enumerate()
            .filter_map(|(i, o)| o.into_value().map(|v| (i, v)))
            .collect()
    }
}

/// Counters describing one pool run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Workers that ran jobs, the calling thread included.
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs claimable when the run starts: every job is, so this is the
    /// run's job count (the largest run's, once merged across runs).
    pub queue_capacity: usize,
    /// High-water mark of jobs not yet claimed by a worker. Every job is
    /// claimable from the start, so it equals `queue_capacity` exactly.
    pub max_queue_depth: usize,
    /// Job attempts that panicked (caught by the supervisor; includes
    /// attempts that were later retried successfully).
    pub panics: u64,
    /// Retry attempts executed after a panicking attempt.
    pub retries: u64,
    /// Jobs that exhausted every allowed attempt.
    pub gave_up: u64,
    /// Times a worker's loop crashed and was re-armed with fresh scratch
    /// state (a logical respawn; per-job panics are caught one level deeper
    /// and do not count here).
    pub respawns: u64,
    /// Distribution of attempts needed per resolved job (1 = first try).
    /// The caller observes it from each job's outcome after the join, so it
    /// is identical at any worker count.
    /// Rendered through the `"histograms"` section of
    /// [`crate::engine::EngineStats::to_json`], not this block's object.
    pub job_attempts: Log2Histogram,
}

crate::telemetry::declare_metrics! {
    PoolStats as pool {
        set workers, "threads", "Workers that ran jobs, the calling thread included.";
        add jobs, "jobs", "Jobs executed.";
        set queue_capacity, "jobs", "Jobs claimable when the run starts (its job count).";
        set_max max_queue_depth, "jobs", "High-water mark of jobs not yet claimed (the job count).";
        add panics, "attempts", "Job attempts that panicked (caught by the supervisor).";
        add retries, "attempts", "Retry attempts executed after a panicking attempt.";
        add gave_up, "jobs", "Jobs that exhausted every allowed attempt.";
        add respawns, "workers", "Worker loops re-armed after a crash.";
        merge_histogram job_attempts, "attempts",
            "Attempts needed per resolved job (1 = first try).";
    }
}

impl PoolStats {
    /// JSON object for benchmark trajectories.
    pub fn to_json(&self) -> String {
        let reg = Registry::new();
        self.register_into(&reg);
        let mut w = JsonWriter::new();
        reg.write_block_json(&mut w, "pool");
        w.finish()
    }
}

/// Renders a caught panic payload (`&str` and `String` payloads cover
/// `panic!` in practice; anything else is labelled opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `n_jobs` independent jobs across a worker pool and returns the
/// results in job order: the single-attempt form of
/// [`run_indexed_supervised`]. `job(idx)` must be a pure function of `idx`
/// for the output to be deterministic (the pool guarantees placement, the
/// caller guarantees purity). Fallible jobs simply use `R = Result<T>` and
/// the caller short-circuits over the ordered results, which keeps *which*
/// error surfaces deterministic too.
///
/// A panicking job fails the whole run with a typed [`Error::Engine`]
/// carrying the panic payload of the lowest-indexed panicking job, instead
/// of aborting the process; callers that must survive poisoned jobs use
/// [`run_indexed_supervised`].
pub fn run_indexed<R, F>(n_jobs: usize, config: &PoolConfig, job: F) -> Result<(Vec<R>, PoolStats)>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let report = run_indexed_supervised(n_jobs, config, &RetryPolicy::default(), |idx, _| job(idx));
    if let Some(failure) = report.errors.first() {
        return Err(Error::Engine(format!("pool worker panicked: {}", failure.message)));
    }
    let results = report.results.into_iter().filter_map(Outcome::into_value).collect();
    Ok((results, report.stats))
}

/// [`run_indexed_supervised_with`] without per-worker scratch state. The
/// job receives `(index, attempt)`; `attempt` is 1-based and only exceeds 1
/// when the policy retried a panicking attempt.
pub fn run_indexed_supervised<R, F>(
    n_jobs: usize,
    config: &PoolConfig,
    retry: &RetryPolicy,
    job: F,
) -> PoolReport<R>
where
    R: Send,
    F: Fn(usize, u32) -> R + Sync,
{
    run_indexed_supervised_with(
        n_jobs,
        config,
        retry,
        || (),
        move |(), idx, attempt| job(idx, attempt),
    )
}

/// The supervised pool: every job attempt runs under `catch_unwind`, panics
/// are retried per `retry` (the scratch state is re-initialized after each
/// caught panic, since the panicking attempt may have torn it), and a worker
/// whose loop itself crashes is re-armed with fresh scratch instead of
/// shrinking the pool. `init` runs once per
/// worker, before its first claim, and again after each respawn. The
/// calling thread is worker 0, so a one-worker run spawns no thread.
///
/// The report's `results` are index-ordered and — when `job` is
/// deterministic per `(index, attempt)` — independent of worker count and
/// scheduling.
pub fn run_indexed_supervised_with<S, R, I, F>(
    n_jobs: usize,
    config: &PoolConfig,
    retry: &RetryPolicy,
    init: I,
    job: F,
) -> PoolReport<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, u32) -> R + Sync,
{
    let workers = config.effective_workers(n_jobs);
    // Every job is claimable from the start: the "queue" is the whole run.
    let mut stats = PoolStats {
        workers,
        jobs: n_jobs,
        queue_capacity: n_jobs,
        max_queue_depth: n_jobs,
        ..PoolStats::default()
    };
    if n_jobs == 0 {
        return PoolReport { results: Vec::new(), errors: Vec::new(), stats };
    }

    let next = AtomicUsize::new(0);
    let panics = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let gave_up = AtomicU64::new(0);
    let respawns = AtomicU64::new(0);

    // Runs every attempt job `idx` is allowed, rebuilding the scratch after
    // each caught panic.
    let supervise = |state: &mut S, idx: usize| -> Outcome<R> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if attempt > 1 {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(retry.delay(idx, attempt - 1));
            }
            match catch_unwind(AssertUnwindSafe(|| job(state, idx, attempt))) {
                Ok(value) if attempt == 1 => return Outcome::Ok(value),
                Ok(value) => return Outcome::Retried { value, retries: attempt - 1 },
                Err(payload) => {
                    panics.fetch_add(1, Ordering::Relaxed);
                    // The attempt may have torn the scratch buffers
                    // mid-write; rebuild them before any retry touches them.
                    *state = init();
                    if attempt >= retry.max_attempts.max(1) {
                        gave_up.fetch_add(1, Ordering::Relaxed);
                        return Outcome::Panicked {
                            message: panic_message(&*payload),
                            attempts: attempt,
                        };
                    }
                }
            }
        }
    };

    // The worker loop. Should it panic outside the per-attempt catch (an
    // `init` panic, first call or rebuild), it is re-armed with fresh
    // scratch and keeps claiming rather than shrinking the pool; the job it
    // held never reaches `done` and is repaired below.
    let worker = || {
        let mut done: Vec<(usize, Outcome<R>)> = Vec::with_capacity(n_jobs.div_ceil(workers));
        loop {
            let body = catch_unwind(AssertUnwindSafe(|| {
                let mut state = init();
                loop {
                    // Relaxed: the counter only hands out indices and
                    // publishes no data. Each index is still claimed exactly
                    // once (a read-modify-write sees the latest value), and
                    // the join below is what makes `done` visible.
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n_jobs {
                        return;
                    }
                    let outcome = supervise(&mut state, idx);
                    done.push((idx, outcome));
                }
            }));
            if body.is_ok() {
                return done;
            }
            respawns.fetch_add(1, Ordering::Relaxed);
        }
    };
    let finished: Vec<Vec<(usize, Outcome<R>)>> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
        let mut finished = vec![worker()];
        for helper in helpers {
            finished.push(helper.join().expect("supervised workers catch their own panics"));
        }
        finished
    });

    let mut results: Vec<Option<Outcome<R>>> = (0..n_jobs).map(|_| None).collect();
    for (idx, outcome) in finished.into_iter().flatten() {
        // Attempts-per-job is a pure function of the job index (given a
        // deterministic fault plan), so the histogram is independent of
        // worker count. The lost claims repaired below are not observed.
        let attempts = match &outcome {
            Outcome::Ok(_) => 1,
            Outcome::Retried { retries, .. } => retries + 1,
            Outcome::Panicked { attempts, .. } => *attempts,
        };
        stats.job_attempts.observe(u64::from(attempts));
        results[idx] = Some(outcome);
    }

    // A job claimed by a worker that crashed outside the per-attempt catch
    // never reported back; account it as a panic failure so the report stays
    // total (every index has exactly one outcome).
    let results: Vec<Outcome<R>> = results
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                panics.fetch_add(1, Ordering::Relaxed);
                gave_up.fetch_add(1, Ordering::Relaxed);
                Outcome::Panicked {
                    message: "worker crashed outside the job (lost the claim)".to_string(),
                    attempts: 1,
                }
            })
        })
        .collect();

    stats.panics = panics.load(Ordering::Relaxed);
    stats.retries = retries.load(Ordering::Relaxed);
    stats.gave_up = gave_up.load(Ordering::Relaxed);
    stats.respawns = respawns.load(Ordering::Relaxed);

    let errors = results
        .iter()
        .enumerate()
        .filter_map(|(index, outcome)| match outcome {
            Outcome::Panicked { message, attempts } => {
                Some(JobFailure { index, message: message.clone(), attempts: *attempts })
            }
            _ => None,
        })
        .collect();

    PoolReport { results, errors, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_index_ordered_at_any_worker_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for workers in [1, 2, 8] {
            let (got, stats) =
                run_indexed(97, &PoolConfig::with_workers(workers), |i| i * i).unwrap();
            assert_eq!(got, expected, "workers={workers}");
            assert_eq!(stats.jobs, 97);
            assert_eq!(stats.workers, workers);
            assert!(
                stats.max_queue_depth <= stats.queue_capacity,
                "exact gauge must never report depth above capacity: {} > {}",
                stats.max_queue_depth,
                stats.queue_capacity
            );
        }
    }

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        for workers in [1, 4] {
            let seen = Mutex::new(HashSet::new());
            let (got, _) = run_indexed(64, &PoolConfig::with_workers(workers), |i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                i
            })
            .unwrap();
            assert_eq!(got, (0..64).collect::<Vec<_>>());
            let seen = seen.into_inner().unwrap();
            let others = seen.iter().filter(|&&id| id != caller).count();
            if workers == 1 {
                assert_eq!(seen, HashSet::from([caller]), "one worker spawns no thread");
            } else {
                assert!(others < workers, "workers={workers}: {others} threads besides the caller");
            }
        }
    }

    #[test]
    fn queue_gauges_report_the_job_count() {
        for workers in [1, 2, 8] {
            let (_, stats) = run_indexed(97, &PoolConfig::with_workers(workers), |i| i).unwrap();
            assert_eq!(stats.queue_capacity, 97, "workers={workers}");
            assert_eq!(stats.max_queue_depth, 97, "workers={workers}");
        }
    }

    #[test]
    fn an_init_that_panics_once_is_re_armed() {
        for workers in [1, 2, 8] {
            let first = std::sync::atomic::AtomicBool::new(true);
            let report = run_indexed_supervised_with(
                40,
                &PoolConfig::with_workers(workers),
                &RetryPolicy::default(),
                || {
                    if first.swap(false, Ordering::Relaxed) {
                        panic!("init fails on its first call");
                    }
                },
                |(), idx, _attempt| idx,
            );
            assert_eq!(report.stats.respawns, 1, "workers={workers}");
            assert!(report.errors.is_empty(), "workers={workers}: {:?}", report.errors);
            let expected: Vec<Outcome<usize>> = (0..40).map(Outcome::Ok).collect();
            assert_eq!(report.results, expected, "workers={workers}");
        }
    }

    #[test]
    fn a_job_whose_scratch_rebuild_panics_loses_its_claim() {
        use std::cell::Cell;
        thread_local! {
            // Set by the failing attempt, so only its own worker's rebuild
            // panics, whichever thread that is.
            static TORN: Cell<bool> = const { Cell::new(false) };
        }
        for workers in [1, 2, 8] {
            let report = run_indexed_supervised_with(
                20,
                &PoolConfig::with_workers(workers),
                &RetryPolicy::default(),
                || {
                    if TORN.with(|t| t.replace(false)) {
                        panic!("scratch rebuild fails");
                    }
                },
                |(), idx, _attempt| {
                    if idx == 5 {
                        TORN.with(|t| t.set(true));
                        panic!("job 5 tears its scratch");
                    }
                    idx
                },
            );
            match &report.results[5] {
                Outcome::Panicked { message, attempts: 1 } => {
                    assert!(message.contains("lost the claim"), "workers={workers}: {message}")
                }
                other => panic!("workers={workers}: {other:?}"),
            }
            for (i, outcome) in report.results.iter().enumerate().filter(|(i, _)| *i != 5) {
                assert_eq!(*outcome, Outcome::Ok(i), "workers={workers}");
            }
            assert_eq!(report.errors.iter().map(|f| f.index).collect::<Vec<_>>(), vec![5]);
            assert_eq!(report.stats.gave_up, 1, "workers={workers}");
            assert_eq!(report.stats.respawns, 1, "workers={workers}");
        }
    }

    #[test]
    fn empty_run_is_fine() {
        let (got, stats) = run_indexed(0, &PoolConfig::default(), |i| i).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.jobs, 0);
    }

    #[test]
    fn worker_count_is_capped_by_jobs() {
        let (got, stats) = run_indexed(3, &PoolConfig::with_workers(16), |i| i + 1).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(stats.workers, 3);
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_thread() {
        let inits = AtomicU64::new(0);
        let report = run_indexed_supervised_with(
            50,
            &PoolConfig::with_workers(4),
            &RetryPolicy::default(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, idx, _attempt| {
                scratch.push(idx); // reused buffer, grows per worker
                idx
            },
        );
        let stats = report.stats;
        let got: Vec<usize> = report.into_successes().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed) as usize, stats.workers);
    }

    #[test]
    fn fallible_jobs_surface_deterministic_errors() {
        for workers in [1, 3] {
            let (results, _) = run_indexed(10, &PoolConfig::with_workers(workers), |i| {
                if i % 4 == 3 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap();
            let first_err =
                results.into_iter().collect::<std::result::Result<Vec<_>, usize>>().unwrap_err();
            assert_eq!(first_err, 3, "index order makes error selection deterministic");
        }
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        let config = PoolConfig::default();
        assert!(config.effective_workers(100) >= 1);
        let (got, _) = run_indexed(8, &config, |i| i).unwrap();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn legacy_path_turns_job_panic_into_typed_error() {
        for workers in [1, 4] {
            let err = run_indexed(16, &PoolConfig::with_workers(workers), |i| {
                if i == 7 {
                    panic!("poisoned job {i}");
                }
                i
            })
            .unwrap_err();
            match err {
                Error::Engine(msg) => {
                    assert!(msg.contains("panicked"), "workers={workers}: {msg}")
                }
                other => panic!("expected Engine error, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_indexed_error_carries_the_job_panic_payload() {
        for workers in [1, 4] {
            let err = run_indexed(16, &PoolConfig::with_workers(workers), |i| {
                if i == 7 {
                    panic!("poisoned job {i}");
                }
                i
            })
            .unwrap_err();
            assert_eq!(
                err,
                Error::Engine("pool worker panicked: poisoned job 7".to_string()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn supervised_isolates_panics_and_reports_index_ordered() {
        let policy = RetryPolicy::default(); // max_attempts = 1
        for workers in [1, 2, 8] {
            let report = run_indexed_supervised(
                20,
                &PoolConfig::with_workers(workers),
                &policy,
                |i, _attempt| {
                    if i % 5 == 2 {
                        panic!("injected fault at job {i}");
                    }
                    i * 10
                },
            );
            assert_eq!(report.results.len(), 20);
            for (i, outcome) in report.results.iter().enumerate() {
                if i % 5 == 2 {
                    assert!(
                        matches!(outcome, Outcome::Panicked { attempts: 1, .. }),
                        "workers={workers} job={i}: {outcome:?}"
                    );
                } else {
                    assert_eq!(*outcome, Outcome::Ok(i * 10), "workers={workers}");
                }
            }
            assert_eq!(report.errors.len(), 4);
            assert_eq!(
                report.errors.iter().map(|f| f.index).collect::<Vec<_>>(),
                vec![2, 7, 12, 17],
                "failures are index-ordered at workers={workers}"
            );
            assert_eq!(report.stats.panics, 4);
            assert_eq!(report.stats.gave_up, 4);
            assert_eq!(report.stats.retries, 0);
        }
    }

    #[test]
    fn supervised_retries_recover_flaky_jobs() {
        use std::collections::HashMap;
        use std::sync::Mutex;
        // Job 3 panics on its first 2 attempts, then succeeds; job 9 always
        // panics. With max_attempts = 3 the first recovers, the second
        // exhausts.
        let attempts_seen: Mutex<HashMap<usize, u32>> = Mutex::new(HashMap::new());
        let policy = RetryPolicy::with_max_attempts(3).no_backoff();
        let report =
            run_indexed_supervised(12, &PoolConfig::with_workers(3), &policy, |i, attempt| {
                *attempts_seen.lock().unwrap().entry(i).or_insert(0) = attempt;
                if i == 3 && attempt <= 2 {
                    panic!("flaky job 3");
                }
                if i == 9 {
                    panic!("hopeless job 9");
                }
                i
            });
        assert_eq!(report.results[3], Outcome::Retried { value: 3, retries: 2 });
        assert!(matches!(report.results[9], Outcome::Panicked { attempts: 3, .. }));
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].index, 9);
        assert_eq!(report.stats.panics, 2 + 3);
        assert_eq!(report.stats.retries, 2 + 2);
        assert_eq!(report.stats.gave_up, 1);
        assert_eq!(attempts_seen.lock().unwrap()[&3], 3);
        let successes = report.into_successes();
        assert_eq!(successes.len(), 11);
        assert!(successes.contains(&(3, 3)));
    }

    #[test]
    fn supervised_scratch_is_rebuilt_after_a_panic() {
        // A panicking attempt must not leak its torn scratch into the retry.
        let policy = RetryPolicy::with_max_attempts(2).no_backoff();
        let report = run_indexed_supervised_with(
            6,
            &PoolConfig::with_workers(2),
            &policy,
            Vec::<usize>::new,
            |scratch, idx, attempt| {
                scratch.push(idx); // simulate a partial write...
                if idx == 4 && attempt == 1 {
                    panic!("tear the scratch"); // ...torn mid-job
                }
                scratch.len()
            },
        );
        // Job 4's retry sees a *fresh* scratch: exactly one element (its own
        // push), not the torn leftovers plus one.
        assert_eq!(report.results[4], Outcome::Retried { value: 1, retries: 1 });
    }

    #[test]
    fn retry_delays_are_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
        };
        for job in [0usize, 1, 17, 1000] {
            for attempt in 1..=6u32 {
                let a = policy.delay(job, attempt);
                let b = policy.delay(job, attempt);
                assert_eq!(a, b, "same coordinates, same delay");
                assert!(a <= policy.backoff_cap);
                assert!(a >= policy.backoff_base.min(policy.backoff_cap));
            }
        }
        // Jitter decorrelates jobs at the same attempt.
        assert_ne!(policy.delay(1, 2), policy.delay(2, 2));
        // Zero base disables sleeping entirely.
        assert_eq!(RetryPolicy::with_max_attempts(3).no_backoff().delay(9, 4), Duration::ZERO);
    }

    #[test]
    fn supervised_empty_run_is_fine() {
        let report =
            run_indexed_supervised(0, &PoolConfig::default(), &RetryPolicy::default(), |i, _| i);
        assert!(report.results.is_empty());
        assert!(report.errors.is_empty());
        assert_eq!(report.stats.jobs, 0);
    }

    #[test]
    fn pool_stats_json_has_supervision_counters() {
        let stats = PoolStats {
            workers: 2,
            jobs: 10,
            queue_capacity: 64,
            max_queue_depth: 5,
            panics: 3,
            retries: 2,
            gave_up: 1,
            respawns: 1,
            ..PoolStats::default()
        };
        let json = stats.to_json();
        for key in ["workers", "jobs", "panics", "retries", "gave_up", "respawns"] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }
}
