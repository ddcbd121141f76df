//! Cross-crate guarantees of the telemetry subsystem: engine stats —
//! including the new histograms and span tree — must be byte-identical at
//! every worker count once wall-clock fields are normalized, the legacy
//! `EngineStats::to_json` key layout must survive the migration onto
//! `telemetry::Registry` byte for byte, spans must stay well-formed when
//! supervised encode jobs panic, and both exporters must emit stable,
//! parseable documents.

use meterdata::generator::fleet_series;
use smart_meter_symbolics::core::engine::{
    EngineConfig, EngineStats, EvalStats, FleetEncoding, FleetEngine, PanicPlan, QuarantinePolicy,
};
use smart_meter_symbolics::core::ingest::IngestStats;
use smart_meter_symbolics::core::json::{parse, JsonValue};
use smart_meter_symbolics::core::pipeline::CodecBuilder;
use smart_meter_symbolics::core::pool::{PoolStats, RetryPolicy};
use smart_meter_symbolics::core::quality::{DefectCounts, QualityStats, SanitizerConfig};
use smart_meter_symbolics::core::separators::SeparatorMethod;
use smart_meter_symbolics::core::telemetry::{render_metrics_json, Registry};
use smart_meter_symbolics::core::timeseries::{Sample, TimeSeries};

fn builder() -> CodecBuilder {
    CodecBuilder::new()
        .method(SeparatorMethod::Median)
        .alphabet_size(16)
        .expect("16 symbols")
        .window_secs(3600)
}

/// Zeroes every wall-clock quantity in a stats block so two runs of the
/// same workload can be compared byte for byte. Worker counts and queue
/// high-water marks are scheduling-dependent gauges, so they are
/// normalized too; everything else — counters, histograms, span paths and
/// call counts — is part of the determinism contract and left untouched.
fn scrub(mut s: EngineStats) -> EngineStats {
    s.workers = 0;
    s.train_secs = 0.0;
    s.encode_secs = 0.0;
    if let Some(i) = &mut s.ingest {
        i.decode_secs = 0.0;
    }
    if let Some(e) = &mut s.eval {
        e.train_secs = 0.0;
        e.test_secs = 0.0;
        e.workers = 0;
        e.max_queue_depth = 0;
    }
    if let Some(p) = &mut s.pool {
        p.workers = 0;
        p.max_queue_depth = 0;
    }
    if let Some(q) = &mut s.quality {
        q.sanitize_secs = 0.0;
    }
    for span in &mut s.spans {
        span.secs = 0.0;
    }
    s
}

/// Histograms, counters, span structure: byte-identical engine stats at 1,
/// 2, and 8 workers on a clean fleet.
#[test]
fn engine_stats_are_worker_count_invariant_after_timing_scrub() {
    let fleet = fleet_series(99, 40, 2, 600).expect("fleet generator");
    let b = builder();
    let run = |workers: usize| -> FleetEncoding {
        FleetEngine::new(b.clone(), EngineConfig::with_workers(workers))
            .encode_fleet(&fleet)
            .expect("encode")
    };

    let reference = scrub(run(1).stats).to_json();
    assert!(reference.contains("\"histograms\""));
    for workers in [2usize, 8] {
        assert_eq!(scrub(run(workers).stats).to_json(), reference, "workers={workers}");
    }

    // The histograms actually saw the fleet: one observation per house.
    let stats = run(2).stats;
    assert_eq!(stats.house_samples.count(), 40);
    assert_eq!(stats.house_symbols.count(), 40);
    assert_eq!(stats.house_samples.sum(), fleet.iter().map(|h| h.len() as u64).sum::<u64>());
    // Clean fleet: every house went through the columnar fast path, one
    // batch per house, pushing exactly its symbol count in values.
    assert_eq!(stats.encode_batch_values.count(), 40);
    assert_eq!(stats.encode_batch_values.sum(), stats.house_symbols.sum());
    let pool = stats.pool.expect("pool stats");
    assert_eq!(pool.job_attempts.count(), 40, "one resolved encode job per house");
    assert_eq!(pool.job_attempts.sum(), 40, "clean jobs succeed on attempt 1");
}

/// The supervised path keeps the contract under injected faults: NaN
/// houses quarantined, panicking jobs retried — and the scrubbed stats,
/// histograms and span tree still byte-identical at every worker count.
#[test]
fn faulted_supervised_stats_and_spans_are_worker_count_invariant() {
    let mut fleet = fleet_series(2013, 20, 1, 600).expect("fleet generator");
    for &h in &[3usize, 11] {
        let mut samples: Vec<Sample> = fleet[h].samples().to_vec();
        let mid = samples.len() / 2;
        for s in &mut samples[mid..mid + 4] {
            s.v = f64::NAN;
        }
        fleet[h] = TimeSeries::from_samples_unchecked(samples);
    }
    let chaos = PanicPlan { houses: [5usize, 14].into_iter().collect(), panics_per_job: 1 };
    let b = builder();

    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 8] {
        let config = EngineConfig::with_workers(workers)
            .quarantine(QuarantinePolicy::Isolate)
            .sanitizer(SanitizerConfig::strict())
            .retry(RetryPolicy::with_max_attempts(2).no_backoff())
            .chaos(chaos.clone());
        let enc = FleetEngine::new(b.clone(), config).encode_fleet(&fleet).expect("encode");

        // Spans survive the panics intact: every stage appears exactly
        // once, correctly nested under the root, with no orphan paths.
        let spans = &enc.stats.spans;
        for path in
            ["encode_fleet", "encode_fleet/sanitize", "encode_fleet/train", "encode_fleet/encode"]
        {
            let matches: Vec<_> = spans.iter().filter(|s| s.path == path).collect();
            assert_eq!(matches.len(), 1, "span {path} (workers={workers})");
            assert_eq!(matches[0].calls, 1, "span {path} (workers={workers})");
        }
        for s in spans {
            if let Some((parent, _)) = s.path.rsplit_once('/') {
                assert!(
                    spans.iter().any(|p| p.path == parent),
                    "span {} has no parent {parent}",
                    s.path
                );
            }
        }

        // Retried jobs need 2 attempts; job_attempts counts one entry per
        // resolved job over the 18 surviving houses.
        let pool = enc.stats.pool.as_ref().expect("pool stats");
        assert_eq!(pool.job_attempts.count(), 18, "workers={workers}");
        assert_eq!(pool.job_attempts.sum(), 20, "two flaky houses cost one extra attempt each");
        let quality = enc.stats.quality.as_ref().expect("quality stats");
        assert_eq!(quality.house_defects.count(), 18, "one observation per sanitized house");

        let scrubbed = scrub(enc.stats).to_json();
        match &reference {
            None => reference = Some(scrubbed),
            Some(want) => assert_eq!(&scrubbed, want, "workers={workers}"),
        }
    }
}

/// The migration compat gate: a fully-populated `EngineStats` renders the
/// exact pre-telemetry scalar layout, with the `"histograms"` and
/// `"spans"` sections appended — asserted byte for byte.
#[test]
fn to_json_preserves_legacy_keys_byte_for_byte() {
    let stats = EngineStats {
        workers: 4,
        houses: 7,
        samples_in: 3500,
        symbols_out: 350,
        train_secs: 1.0,
        encode_secs: 0.75,
        ingest: Some(IngestStats {
            frames_ok: 9,
            frames_corrupt: 8,
            resyncs: 7,
            frames_oversized: 6,
            bytes_in: 5,
            bytes_decoded: 11,
            bytes_discarded: 10,
            meters_rejected: 3,
            backlog_rejections: 2,
            decode_secs: 0.5,
            ..IngestStats::default()
        }),
        eval: Some(EvalStats {
            cells: 26,
            folds: 260,
            train_secs: 1.5,
            test_secs: 2.5,
            workers: 4,
            max_queue_depth: 9,
            ..EvalStats::default()
        }),
        pool: Some(PoolStats {
            workers: 4,
            jobs: 7,
            queue_capacity: 64,
            max_queue_depth: 7,
            panics: 2,
            retries: 2,
            gave_up: 0,
            respawns: 1,
            ..PoolStats::default()
        }),
        quality: Some(QualityStats {
            houses: 7,
            quarantined: 1,
            samples_in: 3500,
            samples_out: 3400,
            defects: DefectCounts {
                non_finite: 1,
                negative_power: 2,
                duplicate_timestamps: 3,
                out_of_order: 4,
                gaps: 5,
                reset_spikes: 6,
            },
            dropped: 50,
            clamped: 20,
            filled: 30,
            marked_missing: 2,
            sanitize_secs: 0.125,
            ..QualityStats::default()
        }),
        ..EngineStats::default()
    };

    let want = concat!(
        "{\"workers\":4,\"houses\":7,\"samples_in\":3500,\"symbols_out\":350,",
        "\"train_secs\":1.0,\"encode_secs\":0.75,",
        "\"samples_per_sec\":2000.0,\"symbols_per_sec\":200.0,",
        "\"ingest\":{\"frames_ok\":9,\"frames_corrupt\":8,\"resyncs\":7,",
        "\"frames_oversized\":6,\"bytes_in\":5,\"bytes_decoded\":11,",
        "\"bytes_discarded\":10,",
        "\"meters_rejected\":3,\"backlog_rejections\":2,",
        "\"decode_secs\":0.5},",
        "\"eval\":{\"cells\":26,\"folds\":260,\"train_secs\":1.5,\"test_secs\":2.5,",
        "\"workers\":4,\"max_queue_depth\":9},",
        "\"pool\":{\"workers\":4,\"jobs\":7,\"queue_capacity\":64,\"max_queue_depth\":7,",
        "\"panics\":2,\"retries\":2,\"gave_up\":0,\"respawns\":1},",
        "\"quality\":{\"houses\":7,\"quarantined\":1,\"samples_in\":3500,",
        "\"samples_out\":3400,\"defects\":{\"non_finite\":1,\"negative_power\":2,",
        "\"duplicate_timestamps\":3,\"out_of_order\":4,\"gaps\":5,\"reset_spikes\":6},",
        "\"dropped\":50,\"clamped\":20,\"filled\":30,\"marked_missing\":2,",
        "\"sanitize_secs\":0.125},",
        "\"histograms\":{",
        "\"sms_engine_house_samples\":{\"unit\":\"samples\",\"count\":0,\"sum\":0,\"buckets\":[]},",
        "\"sms_engine_house_symbols\":{\"unit\":\"symbols\",\"count\":0,\"sum\":0,\"buckets\":[]},",
        "\"sms_engine_encode_batch_values\":{\"unit\":\"values\",\"count\":0,\"sum\":0,\"buckets\":[]},",
        "\"sms_ingest_frame_bytes\":{\"unit\":\"bytes\",\"count\":0,\"sum\":0,\"buckets\":[]},",
        "\"sms_eval_fold_test_rows\":{\"unit\":\"rows\",\"count\":0,\"sum\":0,\"buckets\":[]},",
        "\"sms_pool_job_attempts\":{\"unit\":\"attempts\",\"count\":0,\"sum\":0,\"buckets\":[]},",
        "\"sms_quality_house_defects\":{\"unit\":\"defects\",\"count\":0,\"sum\":0,\"buckets\":[]}",
        "},\"spans\":[]}",
    );
    assert_eq!(stats.to_json(), want);
}

/// Both exporters on a real run: the Prometheus text is stable across
/// renders and line-by-line parseable, histogram bucket series are
/// cumulative and agree with their `_count`, and the merged JSON document
/// round-trips through `sms_core::json` with the documented shape.
#[test]
fn exporters_are_stable_and_parseable() {
    let fleet = fleet_series(7, 10, 1, 900).expect("fleet generator");
    let enc = FleetEngine::new(builder(), EngineConfig::with_workers(2))
        .encode_fleet(&fleet)
        .expect("encode");

    let reg = Registry::with_catalog();
    enc.stats.register_into(&reg);

    let text = reg.render_prometheus();
    assert_eq!(text, reg.render_prometheus(), "exposition must be stable across renders");

    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        // Every sample line is `name[{labels}] value` with a numeric value.
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        assert!(value.parse::<f64>().is_ok(), "unparseable value in: {line}");
        assert!(series.starts_with("sms_"), "unprefixed series: {line}");

        // Bucket series must be cumulative within one histogram.
        if let Some((name, _)) = series.split_once("_bucket{le=") {
            let count: u64 = value.parse().expect("bucket count");
            if let Some((prev_name, prev_count)) = &last_bucket {
                if prev_name == name {
                    assert!(count >= *prev_count, "non-cumulative buckets in: {line}");
                }
            }
            last_bucket = Some((name.to_string(), count));
        }
    }
    assert!(text.contains("sms_engine_house_samples_bucket{le=\"+Inf\"} 10"));
    assert!(text.contains("sms_engine_house_samples_count 10"));
    assert!(text.contains("sms_span_calls{span=\"encode_fleet\"} 1"));

    let doc = render_metrics_json(&reg, "fleet");
    let parsed = parse(&doc).expect("metrics JSON parses");
    assert_eq!(parsed.get("experiment").and_then(JsonValue::as_str), Some("fleet"));
    for key in ["metrics", "histograms", "spans"] {
        assert!(parsed.get(key).is_some(), "missing top-level key {key}");
    }
    let engine = parsed.get("metrics").and_then(|m| m.get("engine")).expect("engine block");
    assert_eq!(engine.get("houses").and_then(JsonValue::as_u64), Some(10));
    assert_eq!(
        engine.get("samples_in").and_then(JsonValue::as_u64),
        Some(fleet.iter().map(|h| h.len() as u64).sum())
    );
    let hists = parsed.get("histograms").and_then(JsonValue::as_object).expect("histograms");
    assert!(hists.contains_key("sms_engine_house_samples"));
    let spans = parsed.get("spans").and_then(JsonValue::as_array).expect("spans");
    assert!(
        spans.iter().any(|s| s.get("path").and_then(JsonValue::as_str) == Some("encode_fleet")),
        "root span missing from spans section"
    );
}
