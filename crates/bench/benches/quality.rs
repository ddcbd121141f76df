//! Quality-path overhead benchmark: sanitizer throughput on clean vs
//! corrupted series, and the supervised pool's wall time on panic-free
//! workloads.
//!
//! Like the `ml` bench this computes its medians directly so it can emit a
//! machine-readable summary: set `BENCH_QUALITY_OUT` to a path to write a
//! JSON record, and `BENCH_QUALITY_SMOKE=1` to run a down-scaled smoke pass
//! (used by `scripts/ci.sh`).

use sms_bench::ingest_exp::{FaultInjector, ALL_SERIES_FAULTS};
use sms_core::pool::{run_indexed_supervised, PoolConfig, RetryPolicy};
use sms_core::quality::{Sanitizer, SanitizerConfig};
use sms_core::timeseries::{Sample, TimeSeries};
use std::time::Instant;

/// A regular 60 s series with a mild daily shape, `n` samples long.
fn clean_series(n: usize) -> TimeSeries {
    let values: Vec<f64> =
        (0..n).map(|i| 200.0 + 150.0 * (((i * 7) % 1440) as f64 / 1440.0)).collect();
    TimeSeries::from_regular(0, 60, &values).expect("regular series")
}

/// The same series with one of each series fault applied per ~2k samples.
fn dirty_series(n: usize) -> TimeSeries {
    let mut samples: Vec<Sample> = clean_series(n).samples().to_vec();
    let mut inj = FaultInjector::new(0xD1E7);
    let faults = (n / 2000).max(ALL_SERIES_FAULTS.len()) as u64;
    for k in 0..faults {
        inj.corrupt_series_nth(k, &mut samples);
    }
    TimeSeries::from_samples_unchecked(samples)
}

/// Median seconds per run over `samples` runs.
fn median_secs(samples: usize, mut run: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn main() {
    let smoke = std::env::var("BENCH_QUALITY_SMOKE").is_ok();
    let (n, samples, jobs) = if smoke { (20_000, 2, 64) } else { (200_000, 5, 512) };

    let clean = clean_series(n);
    let dirty = dirty_series(n);
    let sanitizer = Sanitizer::new(SanitizerConfig::default().gap_tolerance_secs(120));

    let clean_secs = median_secs(samples, || {
        sanitizer.sanitize(&clean).expect("clean sanitize");
    });
    let dirty_secs = median_secs(samples, || {
        sanitizer.sanitize(&dirty).expect("repair-policy sanitize");
    });

    // Pool overhead: cheap panic-free jobs through the supervised pool.
    let config = PoolConfig::with_workers(2);
    let policy = RetryPolicy::with_max_attempts(2);
    let work = |i: usize| -> u64 { (0..400u64).fold(i as u64, |a, x| a.wrapping_mul(31) ^ x) };
    let supervised_secs = median_secs(samples, || {
        let report = run_indexed_supervised(jobs, &config, &policy, |i, _attempt| work(i));
        assert!(report.errors.is_empty());
    });

    let clean_msps = n as f64 / clean_secs.max(f64::MIN_POSITIVE) / 1e6;
    let dirty_msps = dirty.len() as f64 / dirty_secs.max(f64::MIN_POSITIVE) / 1e6;
    println!("quality bench: {n} samples/series, {jobs} pool jobs, median of {samples} runs");
    println!("sanitize clean:      {:>9.3} ms  ({clean_msps:.1} Msamples/s)", clean_secs * 1e3);
    println!("sanitize dirty:      {:>9.3} ms  ({dirty_msps:.1} Msamples/s)", dirty_secs * 1e3);
    println!("pool supervised:     {:>9.3} ms", supervised_secs * 1e3);

    if let Ok(path) = std::env::var("BENCH_QUALITY_OUT") {
        let json = format!(
            "{{\"bench\":\"quality\",\"samples_per_series\":{n},\"jobs\":{jobs},\
             \"sanitize_clean_ms\":{:.4},\"sanitize_dirty_ms\":{:.4},\
             \"clean_msamples_per_sec\":{clean_msps:.2},\
             \"dirty_msamples_per_sec\":{dirty_msps:.2},\
             \"pool_supervised_ms\":{:.4}}}\n",
            clean_secs * 1e3,
            dirty_secs * 1e3,
            supervised_secs * 1e3,
        );
        std::fs::write(&path, json).unwrap();
        println!("wrote {path}");
    }
}
