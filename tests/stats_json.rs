//! Pins the complete `EngineStats::to_json` layout: every one of the nine
//! sub-blocks present, every scalar distinct and nonzero (so a swapped key
//! or value cannot hide behind an equal neighbour), every histogram
//! observed at least once, and one span. `tests/telemetry.rs` pins the
//! engine, ingest, eval, pool and quality blocks; this adds the gateway,
//! shard, store, durable and adaptive blocks and the histograms' buckets.

use smart_meter_symbolics::core::adaptive::AdaptiveStats;
use smart_meter_symbolics::core::durable::DurableStats;
use smart_meter_symbolics::core::engine::{EngineStats, EvalStats};
use smart_meter_symbolics::core::gateway::GatewayStats;
use smart_meter_symbolics::core::ingest::IngestStats;
use smart_meter_symbolics::core::pool::PoolStats;
use smart_meter_symbolics::core::quality::{DefectCounts, QualityStats};
use smart_meter_symbolics::core::segstore::StoreStats;
use smart_meter_symbolics::core::shard::ShardStats;
use smart_meter_symbolics::core::telemetry::{Log2Histogram, SpanSnapshot};

fn hist(values: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

fn populated() -> EngineStats {
    EngineStats {
        workers: 2,
        houses: 3,
        samples_in: 6000,
        symbols_out: 600,
        train_secs: 1.25,
        encode_secs: 1.75,
        ingest: Some(IngestStats {
            frames_ok: 11,
            frames_corrupt: 12,
            resyncs: 13,
            frames_oversized: 14,
            bytes_in: 15,
            bytes_decoded: 16,
            bytes_discarded: 17,
            meters_rejected: 19,
            backlog_rejections: 20,
            decode_secs: 0.5,
            frame_bytes: hist(&[40, 300]),
        }),
        eval: Some(EvalStats {
            cells: 21,
            folds: 22,
            train_secs: 2.5,
            test_secs: 3.5,
            workers: 23,
            max_queue_depth: 24,
            fold_test_rows: hist(&[5]),
        }),
        pool: Some(PoolStats {
            workers: 25,
            jobs: 26,
            queue_capacity: 27,
            max_queue_depth: 28,
            panics: 29,
            retries: 30,
            gave_up: 31,
            respawns: 33,
            job_attempts: hist(&[1, 1, 2]),
        }),
        quality: Some(QualityStats {
            houses: 34,
            quarantined: 35,
            samples_in: 36,
            samples_out: 37,
            defects: DefectCounts {
                non_finite: 38,
                negative_power: 39,
                duplicate_timestamps: 40,
                out_of_order: 41,
                gaps: 42,
                reset_spikes: 43,
            },
            dropped: 44,
            clamped: 45,
            filled: 46,
            marked_missing: 47,
            sanitize_secs: 4.5,
            house_defects: hist(&[0, 7]),
        }),
        gateway: Some(GatewayStats {
            connections_accepted: 48,
            connections_rejected: 49,
            connections_active: 50,
            auth_failures: 51,
            handshake_errors: 52,
            rate_limit_hits: 53,
            quota_closed: 54,
            idle_closed: 55,
            bytes_in: 56,
            frames_acked: 57,
            drain_secs: 5.5,
        }),
        shard: Some(ShardStats {
            shards: 58,
            houses_routed: 59,
            cache_hits: 60,
            cache_misses: 61,
            cache_evictions: 62,
            max_shard_houses: 63,
            merge_wait_secs: 6.5,
        }),
        store: Some(StoreStats {
            segments_written: 64,
            symbols_written: 65,
            packed_bytes: 66,
            recompressed_bytes: 67,
            reads: 68,
            truncated_reads: 69,
            segments_pruned: 70,
            query_secs: 7.5,
        }),
        durable: Some(DurableStats {
            wal_appends: 71,
            wal_bytes: 72,
            fsyncs: 73,
            torn_records_dropped: 74,
            chunks_dropped: 740,
            checkpoints: 75,
            checkpoint_bytes: 750,
            recoveries: 76,
            replayed_records: 77,
            shard_failovers: 78,
        }),
        adaptive: Some(AdaptiveStats {
            rebuilds: 79,
            suppressed_hysteresis: 80,
            suppressed_min_interval: 81,
            epochs_shipped: 82,
            sketch_bytes: 83,
            samples: 84,
            symbols: 85,
        }),
        house_samples: hist(&[2000, 2000, 2000]),
        house_symbols: hist(&[200, 200, 200]),
        encode_batch_values: hist(&[3, 600]),
        spans: vec![SpanSnapshot { path: "encode_fleet".to_string(), calls: 86, secs: 8.5 }],
    }
}

#[test]
fn to_json_pins_every_block_byte_for_byte() {
    let want = concat!(
        "{\"workers\":2,\"houses\":3,\"samples_in\":6000,\"symbols_out\":600,",
        "\"train_secs\":1.25,\"encode_secs\":1.75,",
        "\"samples_per_sec\":2000.0,\"symbols_per_sec\":200.0,",
        "\"ingest\":{\"frames_ok\":11,\"frames_corrupt\":12,\"resyncs\":13,",
        "\"frames_oversized\":14,\"bytes_in\":15,\"bytes_decoded\":16,",
        "\"bytes_discarded\":17,",
        "\"meters_rejected\":19,\"backlog_rejections\":20,",
        "\"decode_secs\":0.5},",
        "\"eval\":{\"cells\":21,\"folds\":22,\"train_secs\":2.5,\"test_secs\":3.5,",
        "\"workers\":23,\"max_queue_depth\":24},",
        "\"pool\":{\"workers\":25,\"jobs\":26,\"queue_capacity\":27,\"max_queue_depth\":28,",
        "\"panics\":29,\"retries\":30,\"gave_up\":31,\"respawns\":33},",
        "\"quality\":{\"houses\":34,\"quarantined\":35,\"samples_in\":36,",
        "\"samples_out\":37,\"defects\":{\"non_finite\":38,\"negative_power\":39,",
        "\"duplicate_timestamps\":40,\"out_of_order\":41,\"gaps\":42,\"reset_spikes\":43},",
        "\"dropped\":44,\"clamped\":45,\"filled\":46,\"marked_missing\":47,",
        "\"sanitize_secs\":4.5},",
        "\"gateway\":{\"connections_accepted\":48,\"connections_rejected\":49,",
        "\"connections_active\":50,\"auth_failures\":51,\"handshake_errors\":52,",
        "\"rate_limit_hits\":53,\"quota_closed\":54,\"idle_closed\":55,",
        "\"bytes_in\":56,\"frames_acked\":57,\"drain_secs\":5.5},",
        "\"shard\":{\"shards\":58,\"houses_routed\":59,\"cache_hits\":60,",
        "\"cache_misses\":61,\"cache_evictions\":62,\"max_shard_houses\":63,",
        "\"merge_wait_secs\":6.5},",
        "\"store\":{\"segments_written\":64,\"symbols_written\":65,\"packed_bytes\":66,",
        "\"recompressed_bytes\":67,\"reads\":68,\"truncated_reads\":69,",
        "\"segments_pruned\":70,\"query_secs\":7.5},",
        "\"durable\":{\"wal_appends\":71,\"wal_bytes\":72,\"fsyncs\":73,",
        "\"torn_records_dropped\":74,\"chunks_dropped\":740,\"checkpoints\":75,",
        "\"checkpoint_bytes\":750,",
        "\"recoveries\":76,",
        "\"replayed_records\":77,\"shard_failovers\":78},",
        "\"adaptive\":{\"rebuilds\":79,\"suppressed_hysteresis\":80,",
        "\"suppressed_min_interval\":81,\"epochs_shipped\":82,\"sketch_bytes\":83,",
        "\"samples\":84,\"symbols\":85},",
        "\"histograms\":{",
        "\"sms_engine_house_samples\":{\"unit\":\"samples\",\"count\":3,\"sum\":6000,",
        "\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,3]},",
        "\"sms_engine_house_symbols\":{\"unit\":\"symbols\",\"count\":3,\"sum\":600,",
        "\"buckets\":[0,0,0,0,0,0,0,0,3]},",
        "\"sms_engine_encode_batch_values\":{\"unit\":\"values\",\"count\":2,\"sum\":603,",
        "\"buckets\":[0,0,1,0,0,0,0,0,0,0,1]},",
        "\"sms_ingest_frame_bytes\":{\"unit\":\"bytes\",\"count\":2,\"sum\":340,",
        "\"buckets\":[0,0,0,0,0,0,1,0,0,1]},",
        "\"sms_eval_fold_test_rows\":{\"unit\":\"rows\",\"count\":1,\"sum\":5,",
        "\"buckets\":[0,0,0,1]},",
        "\"sms_pool_job_attempts\":{\"unit\":\"attempts\",\"count\":3,\"sum\":4,",
        "\"buckets\":[0,2,1]},",
        "\"sms_quality_house_defects\":{\"unit\":\"defects\",\"count\":2,\"sum\":7,",
        "\"buckets\":[1,0,0,1]}},",
        "\"spans\":[{\"path\":\"encode_fleet\",\"calls\":86,\"secs\":8.5}]}",
    );
    assert_eq!(populated().to_json(), want);
}
