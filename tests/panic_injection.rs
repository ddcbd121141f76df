//! Seeded panic-injection fuzz for the supervised worker pool: thousands of
//! runs with deterministic panic schedules must produce zero escaping
//! panics, index-ordered reports identical at every worker count, and
//! counter totals that match the injected schedule exactly.
//!
//! Override the iteration count with `PANIC_FUZZ_ITERS` (a quick smoke
//! value while debugging, or a larger soak).

use smart_meter_symbolics::core::pool::{run_indexed_supervised, Outcome, PoolConfig, RetryPolicy};

/// SplitMix64 — the same deterministic scramble the pool's retry jitter
/// uses, re-derived here so the schedule needs no RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How many leading attempts of job `idx` panic in iteration `iter`:
/// 0 (clean), 1 (flaky, recoverable), or 2 (dead under 2 attempts).
fn panics_for(iter: u64, idx: usize) -> u32 {
    (splitmix64(iter ^ ((idx as u64) << 17)) % 3) as u32
}

/// The ISSUE's headline robustness guarantee: ≥1k seeded iterations of a
/// 16-job supervised run where every job panics 0, 1, or 2 times by
/// schedule, retried at most twice with zero backoff — at workers 1, 2,
/// and 8. No panic may escape (the harness would abort the test), every
/// report must be byte-identical across worker counts, and the stats
/// counters must equal the totals the schedule implies.
#[test]
fn seeded_panic_fuzz_never_escapes_and_reports_deterministically() {
    let iters: u64 =
        std::env::var("PANIC_FUZZ_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(1_000);
    const JOBS: usize = 16;
    let policy = RetryPolicy::with_max_attempts(2).no_backoff();

    for iter in 0..iters {
        // The schedule implies exact totals: a 1-panic job costs one panic
        // and one retry; a 2-panic job costs two panics, one retry, and one
        // gave-up slot.
        let schedule: Vec<u32> = (0..JOBS).map(|idx| panics_for(iter, idx)).collect();
        let want_panics: u64 = schedule.iter().map(|&p| p.min(2) as u64).sum();
        let want_retries: u64 = schedule.iter().filter(|&&p| p >= 1).count() as u64;
        let want_gave_up: u64 = schedule.iter().filter(|&&p| p >= 2).count() as u64;

        let mut reference: Option<Vec<Outcome<usize>>> = None;
        for workers in [1usize, 2, 8] {
            let report = run_indexed_supervised(
                JOBS,
                &PoolConfig::with_workers(workers),
                &policy,
                |idx, attempt| {
                    if attempt <= panics_for(iter, idx) {
                        panic!("injected: iter {iter} job {idx} attempt {attempt}");
                    }
                    idx * 10
                },
            );

            assert_eq!(report.results.len(), JOBS, "iter {iter} workers {workers}");
            for (idx, outcome) in report.results.iter().enumerate() {
                match (schedule[idx], outcome) {
                    (0, Outcome::Ok(v)) => assert_eq!(*v, idx * 10),
                    (1, Outcome::Retried { value, retries }) => {
                        assert_eq!((*value, *retries), (idx * 10, 1));
                    }
                    (2, Outcome::Panicked { attempts, .. }) => assert_eq!(*attempts, 2),
                    (p, o) => {
                        panic!("iter {iter} job {idx}: {p} panics gave {o:?} (workers {workers})")
                    }
                }
            }
            // Failures mirror the failed outcomes, in index order.
            let failed: Vec<usize> = (0..JOBS).filter(|&i| schedule[i] >= 2).collect();
            assert_eq!(
                report.errors.iter().map(|e| e.index).collect::<Vec<_>>(),
                failed,
                "iter {iter} workers {workers}"
            );

            assert_eq!(report.stats.panics, want_panics, "iter {iter} workers {workers}");
            assert_eq!(report.stats.retries, want_retries, "iter {iter} workers {workers}");
            assert_eq!(report.stats.gave_up, want_gave_up, "iter {iter} workers {workers}");

            // Worker count must not change a single outcome or error.
            match &reference {
                None => reference = Some(report.results),
                Some(want) => {
                    assert_eq!(&report.results, want, "iter {iter} workers {workers}")
                }
            }
        }
    }
}

/// Panic payloads that are not `&str`/`String` still surface as outcomes
/// with a stable placeholder message, never as an escape.
#[test]
fn non_string_panic_payloads_are_contained() {
    let policy = RetryPolicy::with_max_attempts(1);
    let report =
        run_indexed_supervised(3, &PoolConfig::with_workers(2), &policy, |idx, _attempt| {
            if idx == 1 {
                std::panic::panic_any(42usize);
            }
            idx
        });
    assert!(report.results[0].is_success() && report.results[2].is_success());
    match &report.results[1] {
        Outcome::Panicked { message, attempts } => {
            assert_eq!(*attempts, 1);
            assert_eq!(message, "non-string panic payload");
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert_eq!(report.stats.panics, 1);
}
