//! Fleet-encoding types and [`FleetEngine`], the one-shard front over the
//! crate's one fleet batch path, [`ShardedFleetEngine`]'s.
//!
//! The paper's evaluation encodes *hundreds of households* with either a
//! table per house (Figs. 5–6, Table 1) or one global table (Fig. 7); a
//! serial [`SymbolicCodec`](crate::pipeline::SymbolicCodec) walk over the
//! fleet leaves most of a multi-core sensor gateway idle.
//!
//! * **Batch API** — [`FleetEngine::encode_fleet`] / [`encode_fleet`] run
//!   one batch on a one-shard engine with no table cache and no drift
//!   detection: the optional sanitize pre-pass, shared-table training
//!   under [`TableMode::Shared`], then the fleet encode loop of
//!   [`crate::shard`] on the supervised pool. Results are placed by house
//!   index, so the output is **byte-identical to the serial codec
//!   regardless of worker count**. [`QuarantinePolicy`] decides whether a
//!   failing house fails the run or is quarantined.
//! * **Table modes** — [`TableMode::PerHouse`] learns one lookup table per
//!   household (the paper's default protocol); [`TableMode::Shared`] pools
//!   training values across the fleet and learns a single table reused by
//!   every house (the global all-houses table of Fig. 7).
//!
//! Throughput counters ([`EngineStats`]) report samples/sec, symbols/sec and
//! per-stage wall time, and serialize to JSON for benchmark trajectories.

use std::collections::BTreeSet;

use crate::error::{Error, Result};
use crate::horizontal::SymbolicSeries;
use crate::json::JsonWriter;
use crate::pipeline::CodecBuilder;
use crate::pool::{PoolStats, RetryPolicy};
use crate::quality::{QualityStats, SanitizerConfig};
use crate::shard::{ShardedEngineConfig, ShardedFleetEngine};
use crate::telemetry::{Log2Histogram, Registry, SpanSnapshot};
use crate::timeseries::TimeSeries;

/// How the engine obtains lookup tables for a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableMode {
    /// Learn one lookup table per household from that household's own
    /// history (the paper's per-customer protocol). Matches calling
    /// `builder.train(house)` per house.
    #[default]
    PerHouse,
    /// Pool training values across the households of the first batch,
    /// learn **one** table, and reuse it for every house of every batch
    /// (the global table of Fig. 7). Training cost is paid once instead of
    /// per house.
    Shared,
}

/// How a fleet batch treats a house that cannot be encoded (its series
/// fails sanitization, or its job errors or exhausts every retry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuarantinePolicy {
    /// A sanitizer rejection fails the whole run; so does a failing encode
    /// job, which gets one attempt: the lowest-indexed failing house decides
    /// the error (its encode error, or [`Error::Engine`] carrying its panic
    /// payload).
    #[default]
    Strict,
    /// Failing houses are quarantined into
    /// [`FleetEncoding::quarantined`] with their reason while every healthy
    /// house still encodes — byte-identically to a serial run over the same
    /// healthy set.
    Isolate,
}

/// Deterministic chaos-injection plan for the supervised encode stage:
/// selected houses panic on their first `panics_per_job` attempts. Used by
/// the fault-injection tests and the `repro quality --faults` experiment; a
/// house recovers iff the engine's [`RetryPolicy`] allows more attempts
/// than the plan poisons.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PanicPlan {
    /// Input indices of the houses whose jobs panic.
    pub houses: BTreeSet<usize>,
    /// How many leading attempts panic for each selected house.
    pub panics_per_job: u32,
}

/// Why a house landed in [`FleetEncoding::quarantined`].
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineReason {
    /// The sanitizer rejected the house's series (a defect whose policy is
    /// [`crate::quality::Policy::Reject`]).
    DirtyData(Error),
    /// The encode job returned a typed error (e.g. empty series).
    EncodeError(Error),
    /// The encode job panicked on every allowed attempt.
    Panicked {
        /// Rendered payload of the final panic.
        message: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::DirtyData(e) => write!(f, "dirty data: {e}"),
            QuarantineReason::EncodeError(e) => write!(f, "encode error: {e}"),
            QuarantineReason::Panicked { message, attempts } => {
                write!(f, "panicked after {attempts} attempt(s): {message}")
            }
        }
    }
}

/// One quarantined house of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarantined {
    /// Input index of the house.
    pub house: usize,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
}

/// Configuration of the fleet batch path: of [`FleetEngine`], and the
/// [`engine`](crate::shard::ShardedEngineConfig::engine) part of a sharded
/// engine's.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Workers per pool, the calling thread included; `0` (the default)
    /// means one per available core.
    pub workers: usize,
    /// Per-house or shared lookup tables.
    pub table_mode: TableMode,
    /// Abort the run or quarantine failing houses.
    pub quarantine: QuarantinePolicy,
    /// Sanitization pre-pass applied to every house before encoding
    /// (`None` skips it: input is trusted to uphold the clean invariants).
    pub sanitizer: Option<SanitizerConfig>,
    /// Retry schedule for panicking encode jobs (only consulted under
    /// [`QuarantinePolicy::Isolate`]; the default never retries).
    pub retry: RetryPolicy,
    /// Deterministic panic injection for robustness tests (`None` in
    /// production).
    pub chaos: Option<PanicPlan>,
}

impl EngineConfig {
    /// Config with an explicit worker count and defaults otherwise.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig { workers, ..Self::default() }
    }

    /// Sets the table mode.
    pub fn table_mode(mut self, mode: TableMode) -> Self {
        self.table_mode = mode;
        self
    }

    /// Sets the quarantine policy.
    pub fn quarantine(mut self, policy: QuarantinePolicy) -> Self {
        self.quarantine = policy;
        self
    }

    /// Enables the sanitization pre-pass.
    pub fn sanitizer(mut self, config: SanitizerConfig) -> Self {
        self.sanitizer = Some(config);
        self
    }

    /// Sets the retry schedule for panicking encode jobs.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a deterministic panic-injection plan (tests only).
    pub fn chaos(mut self, plan: PanicPlan) -> Self {
        self.chaos = Some(plan);
        self
    }
}

/// Throughput counters of a fleet engine over every batch it ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineStats {
    /// Workers per pool, the calling thread included.
    pub workers: usize,
    /// Households encoded or quarantined, summed over batches.
    pub houses: usize,
    /// Raw samples consumed.
    pub samples_in: u64,
    /// Symbols produced.
    pub symbols_out: u64,
    /// Wall time of the up-front training stage, seconds. In
    /// [`TableMode::PerHouse`] training happens inside the encode stage, so
    /// this covers only the shared-table pre-pass and is `0` there.
    pub train_secs: f64,
    /// Wall time of the encode stage (routing, cache pre-pass, the pools
    /// and the merge), seconds.
    pub encode_secs: f64,
    /// Wire-ingest counters, when the run consumed a byte stream through
    /// [`crate::ingest`] (`None` for purely in-memory encodes).
    pub ingest: Option<crate::ingest::IngestStats>,
    /// Evaluation counters, when the run drove a parallel experiment matrix
    /// (`None` for pure encode runs).
    pub eval: Option<EvalStats>,
    /// Worker-pool counters (queue depth, panics, retries, respawns)
    /// when the run dispatched jobs through [`crate::pool`].
    pub pool: Option<PoolStats>,
    /// Data-quality counters when the run sanitized or quarantined houses.
    pub quality: Option<QualityStats>,
    /// Network-gateway counters when the run terminated meter connections
    /// through [`crate::gateway`] (`None` for in-process runs).
    pub gateway: Option<crate::gateway::GatewayStats>,
    /// Sharding counters when the run partitioned fleet state through
    /// [`crate::shard`] (`None` for [`FleetEngine`]'s single shard).
    pub shard: Option<crate::shard::ShardStats>,
    /// Segment-store counters when the run persisted encoded output
    /// through [`crate::segstore`] (`None` when output stayed in memory).
    pub store: Option<crate::segstore::StoreStats>,
    /// Durability counters when the run wrote through the WAL + checkpoint
    /// layer of [`crate::durable`] (`None` for in-memory stores).
    pub durable: Option<crate::durable::DurableStats>,
    /// Drift-adaptation counters when the run re-learned separators online
    /// through [`crate::adaptive`] (`None` when drift detection was off).
    pub adaptive: Option<crate::adaptive::AdaptiveStats>,
    /// Distribution of per-house input sample counts. Deterministic (a
    /// pure function of the input fleet), rendered in the `"histograms"`
    /// section of [`to_json`](Self::to_json).
    pub house_samples: Log2Histogram,
    /// Distribution of per-house output symbol counts (quarantined houses
    /// observe their empty placeholder, i.e. `0`).
    pub house_symbols: Log2Histogram,
    /// Distribution of per-house value counts pushed through the columnar
    /// encode fast path (one observation per *active* house; quarantined
    /// houses never reach the encoder). Deterministic — a pure function of
    /// the input fleet, independent of worker count.
    pub encode_batch_values: Log2Histogram,
    /// Stage-attribution spans (`encode_fleet` → `sanitize` / `train` /
    /// `encode`, one call per batch), sorted by path. Paths and call counts
    /// are deterministic; the seconds are wall-clock.
    pub spans: Vec<SpanSnapshot>,
}

crate::telemetry::declare_metrics! {
    EngineStats as engine {
        set workers, "threads", "Workers per pool of the fleet engine, the calling thread included.";
        set houses, "houses", "Households encoded or quarantined, over every batch.";
        add samples_in, "samples", "Raw samples consumed by the engine.";
        add symbols_out, "symbols", "Symbols produced by the engine.";
        set_f64 train_secs, "seconds", "Wall time of the up-front training stage.";
        set_f64 encode_secs, "seconds", "Wall time of the parallel encode stage.";
        set_f64 samples_per_sec = Self::samples_per_sec, "samples/second",
            "Raw samples consumed per wall-clock second.";
        set_f64 symbols_per_sec = Self::symbols_per_sec, "symbols/second",
            "Symbols produced per wall-clock second.";
        merge_histogram house_samples, "samples", "Per-house input sample counts.";
        merge_histogram house_symbols, "symbols", "Per-house output symbol counts.";
        merge_histogram encode_batch_values, "values",
            "Per-house value counts pushed through the columnar encode fast path.";
    } then {
        register_into ingest;
        register_into eval;
        register_into pool;
        register_into quality;
        register_into gateway;
        register_into shard;
        register_into store;
        register_into durable;
        register_into adaptive;
        record_span spans;
    }
}

/// Timing counters for a parallel evaluation run (cross-validated
/// classification cells dispatched through [`crate::pool`]). Mirrors the
/// paper's habit of reporting *processing time* next to F-measure
/// (Figs. 5–7), and merges into [`EngineStats::to_json`] like the ingest
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalStats {
    /// Experiment cells completed.
    pub cells: u64,
    /// Cross-validation folds executed (k × runs per cell, summed).
    pub folds: u64,
    /// Total per-fold training wall time, seconds.
    pub train_secs: f64,
    /// Total per-fold prediction wall time, seconds.
    pub test_secs: f64,
    /// Worker threads used by the evaluation pool.
    pub workers: usize,
    /// High-water mark of the evaluation pool's unclaimed jobs: its job
    /// count, since every job is claimable from the start.
    pub max_queue_depth: usize,
    /// Distribution of test-set sizes over the executed folds (one
    /// observation per fold). Rendered in the `"histograms"` section of
    /// [`EngineStats::to_json`], not this block's object.
    pub fold_test_rows: Log2Histogram,
}

crate::telemetry::declare_metrics! {
    EvalStats as eval {
        add cells, "cells", "Experiment cells completed.";
        add folds, "folds", "Cross-validation folds executed.";
        set_f64 train_secs, "seconds", "Total per-fold training wall time.";
        set_f64 test_secs, "seconds", "Total per-fold prediction wall time.";
        set workers, "threads", "Worker threads used by the evaluation pool.";
        set_max max_queue_depth, "jobs", "High-water mark of the evaluation pool's unclaimed jobs.";
        merge_histogram fold_test_rows, "rows",
            "Test-set sizes of the executed cross-validation folds.";
    }
}

impl EngineStats {
    /// Raw samples consumed per wall-clock second (train + encode).
    pub fn samples_per_sec(&self) -> f64 {
        self.samples_in as f64 / (self.train_secs + self.encode_secs).max(f64::MIN_POSITIVE)
    }

    /// Symbols produced per wall-clock second (train + encode).
    pub fn symbols_per_sec(&self) -> f64 {
        self.symbols_out as f64 / (self.train_secs + self.encode_secs).max(f64::MIN_POSITIVE)
    }

    /// JSON object for benchmark trajectories: the engine block's scalars,
    /// then each present sub-block as an object in the order
    /// `register_into` loads them, then the `"histograms"` and `"spans"`
    /// sections.
    pub fn to_json(&self) -> String {
        let reg = Registry::new();
        self.register_into(&reg);
        let mut w = JsonWriter::new();
        w.begin_object();
        reg.write_block_fields(&mut w, "engine");
        for block in reg.blocks().into_iter().filter(|&b| b != "engine") {
            w.key(block);
            reg.write_block_json(&mut w, block);
        }
        w.key("histograms");
        reg.write_histograms_json(&mut w);
        w.key("spans");
        reg.write_spans_json(&mut w);
        w.end_object();
        w.finish()
    }
}

/// The result of one fleet batch: one symbolic series per input house
/// (same order), the separator epoch each was encoded under, throughput
/// counters, and (under [`QuarantinePolicy::Isolate`]) the houses that
/// could not be encoded.
#[derive(Debug, Clone)]
pub struct FleetEncoding {
    /// `series[i]` encodes `fleet[i]`. A quarantined house's slot holds an
    /// **empty placeholder** series (at the codec's resolution) so indices
    /// stay aligned with the input fleet; consult
    /// [`quarantined`](Self::quarantined) before consuming a slot.
    pub series: Vec<SymbolicSeries>,
    /// Houses that failed sanitization or encoding, in index order. Empty
    /// under [`QuarantinePolicy::Strict`] (failures error out instead).
    pub quarantined: Vec<Quarantined>,
    /// `epochs[i]` is the separator epoch the `i`-th input house was
    /// encoded under: `0` until its first drift cutover, incremented at
    /// each confirmed rebuild, all zeros when drift detection is off. Feed
    /// this to [`crate::segstore::SegmentStore::append_epoch`] so stored
    /// segments record which separator generation their bits mean.
    pub epochs: Vec<u32>,
    /// The engine's counters over every batch it has run, this one
    /// included.
    pub stats: EngineStats,
}

impl FleetEncoding {
    /// Whether `house` was quarantined.
    pub fn is_quarantined(&self, house: usize) -> bool {
        self.quarantined.iter().any(|q| q.house == house)
    }
}

/// A configured parallel encoder for fleets of household streams: one
/// batch on a one-shard [`ShardedFleetEngine`] with no table cache and no
/// drift detection.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    builder: CodecBuilder,
    config: EngineConfig,
}

impl FleetEngine {
    /// Assembles an engine from a codec recipe and a parallelism config.
    pub fn new(builder: CodecBuilder, config: EngineConfig) -> Self {
        FleetEngine { builder, config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Encodes every house of `fleet`, returning symbolic series in input
    /// order plus throughput counters. Output is byte-identical to training
    /// and encoding each house serially with the same [`CodecBuilder`],
    /// regardless of `workers` — and under [`QuarantinePolicy::Isolate`]
    /// the surviving houses stay byte-identical to a serial run over the
    /// same healthy set while failing houses are reported in
    /// [`FleetEncoding::quarantined`] instead of failing the run.
    pub fn encode_fleet(&self, fleet: &[TimeSeries]) -> Result<FleetEncoding> {
        let config = ShardedEngineConfig {
            shards: 1,
            table_cache_capacity: 0,
            drift: None,
            engine: self.config.clone(),
        };
        let mut engine = ShardedFleetEngine::new(self.builder.clone(), config)?;
        let mut enc = engine.encode_with(fleet.len(), |i| i as u64, |i| &fleet[i])?;
        // One shard and no cache: there is no ring to report.
        enc.stats.shard = None;
        Ok(enc)
    }
}

/// One-shot convenience: encode a fleet and keep only the symbolic series.
pub fn encode_fleet(
    fleet: &[TimeSeries],
    builder: &CodecBuilder,
    config: &EngineConfig,
) -> Result<Vec<SymbolicSeries>> {
    Ok(FleetEngine::new(builder.clone(), config.clone()).encode_fleet(fleet)?.series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separators::SeparatorMethod;

    fn fleet(houses: usize, samples: usize) -> Vec<TimeSeries> {
        (0..houses)
            .map(|h| {
                let values: Vec<f64> =
                    (0..samples).map(|i| 50.0 + ((i * 31 + h * 97) % 500) as f64).collect();
                TimeSeries::from_regular(0, 60, &values).unwrap()
            })
            .collect()
    }

    fn builder() -> CodecBuilder {
        CodecBuilder::new()
            .method(SeparatorMethod::Median)
            .alphabet_size(16)
            .unwrap()
            .window_secs(900)
    }

    #[test]
    fn batch_matches_serial_per_house() {
        let fleet = fleet(12, 300);
        let b = builder();
        let serial: Vec<SymbolicSeries> =
            fleet.iter().map(|h| b.train(h).unwrap().encode(h).unwrap()).collect();
        for workers in [1, 2, 8] {
            let config = EngineConfig::with_workers(workers);
            let got = encode_fleet(&fleet, &b, &config).unwrap();
            assert_eq!(got, serial, "workers={workers}");
        }
    }

    #[test]
    fn batch_shared_table_reuses_one_table() {
        let fleet = fleet(6, 300);
        let b = builder();
        let config = EngineConfig::with_workers(3).table_mode(TableMode::Shared);
        let enc = FleetEngine::new(b.clone(), config).encode_fleet(&fleet).unwrap();
        // Shared mode == serially encoding every house with the pooled table.
        let mut pool = Vec::new();
        for h in &fleet {
            pool.extend(h.values());
        }
        let codec = b.learn_from_values(&pool).unwrap();
        for (house, got) in fleet.iter().zip(&enc.series) {
            assert_eq!(*got, codec.encode(house).unwrap());
        }
        assert_eq!(enc.stats.houses, 6);
        assert_eq!(enc.stats.samples_in, 6 * 300);
        assert!(enc.stats.symbols_out > 0);
    }

    #[test]
    fn empty_fleet_is_fine() {
        let enc =
            FleetEngine::new(builder(), EngineConfig::with_workers(4)).encode_fleet(&[]).unwrap();
        assert!(enc.series.is_empty());
        assert_eq!(enc.stats.samples_in, 0);
    }

    #[test]
    fn per_house_empty_house_propagates_training_error() {
        let mut f = fleet(3, 200);
        f.push(TimeSeries::new());
        let err = FleetEngine::new(builder(), EngineConfig::with_workers(2))
            .encode_fleet(&f)
            .unwrap_err();
        assert_eq!(err, Error::EmptyInput("CodecBuilder::train"));
    }

    #[test]
    fn stats_json_has_counters() {
        let enc = FleetEngine::new(builder(), EngineConfig::with_workers(2))
            .encode_fleet(&fleet(4, 300))
            .unwrap();
        let json = enc.stats.to_json();
        for key in [
            "workers",
            "houses",
            "samples_in",
            "symbols_out",
            "train_secs",
            "encode_secs",
            "samples_per_sec",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
        assert!(enc.stats.samples_per_sec() > 0.0);
    }

    #[test]
    fn isolate_quarantines_dirty_houses_and_keeps_clean_ones_identical() {
        use crate::quality::SanitizerConfig;

        let clean = fleet(6, 300);
        let serial: Vec<SymbolicSeries> =
            clean.iter().map(|h| builder().train(h).unwrap().encode(h).unwrap()).collect();

        // Corrupt houses 1 and 4 with NaN runs; strict sanitizer rejects them.
        let mut dirty = clean.clone();
        for &h in &[1usize, 4] {
            let mut samples = dirty[h].samples().to_vec();
            for s in samples.iter_mut().take(10) {
                s.v = f64::NAN;
            }
            dirty[h] = TimeSeries::from_samples_unchecked(samples);
        }

        for workers in [1, 2, 8] {
            let config = EngineConfig::with_workers(workers)
                .quarantine(QuarantinePolicy::Isolate)
                .sanitizer(SanitizerConfig::strict());
            let enc = FleetEngine::new(builder(), config).encode_fleet(&dirty).unwrap();
            assert_eq!(
                enc.quarantined.iter().map(|q| q.house).collect::<Vec<_>>(),
                vec![1, 4],
                "workers={workers}"
            );
            for q in &enc.quarantined {
                assert!(
                    matches!(&q.reason, QuarantineReason::DirtyData(Error::DataQuality { .. })),
                    "workers={workers}: {:?}",
                    q.reason
                );
            }
            for (h, expected) in serial.iter().enumerate() {
                if h == 1 || h == 4 {
                    assert!(enc.series[h].is_empty(), "quarantined slot is a placeholder");
                } else {
                    assert_eq!(enc.series[h], *expected, "workers={workers} house={h}");
                }
            }
            let q = enc.stats.quality.expect("quality block present");
            assert_eq!(q.quarantined, 2);
            assert_eq!(q.houses, 6);
            let json = enc.stats.to_json();
            for key in ["\"pool\"", "\"quality\"", "panics", "quarantined"] {
                assert!(json.contains(key), "{json} missing {key}");
            }
        }
    }

    #[test]
    fn strict_sanitizer_rejects_the_run_on_dirty_data() {
        use crate::quality::SanitizerConfig;
        let mut f = fleet(3, 200);
        let mut samples = f[2].samples().to_vec();
        samples[5].v = f64::NAN;
        f[2] = TimeSeries::from_samples_unchecked(samples);
        let config = EngineConfig::with_workers(2).sanitizer(SanitizerConfig::strict());
        let err = FleetEngine::new(builder(), config).encode_fleet(&f).unwrap_err();
        assert_eq!(err, Error::DataQuality { defect: "non_finite", index: 5 });
    }

    #[test]
    fn chaos_panics_recover_via_retry_or_quarantine() {
        use crate::pool::RetryPolicy;
        let f = fleet(8, 300);
        let serial: Vec<SymbolicSeries> =
            f.iter().map(|h| builder().train(h).unwrap().encode(h).unwrap()).collect();
        // Houses 2 and 5 each panic on their first attempt...
        let merged = PanicPlan { houses: [2, 5].into_iter().collect(), panics_per_job: 1 };
        for workers in [1, 2, 8] {
            let config = EngineConfig::with_workers(workers)
                .quarantine(QuarantinePolicy::Isolate)
                .retry(RetryPolicy::with_max_attempts(2).no_backoff())
                .chaos(merged.clone());
            let enc = FleetEngine::new(builder(), config).encode_fleet(&f).unwrap();
            // ...and max_attempts=2 lets both recover.
            assert!(enc.quarantined.is_empty(), "workers={workers}: {:?}", enc.quarantined);
            assert_eq!(enc.series, serial, "workers={workers}");
            let pool = enc.stats.pool.expect("pool block present");
            assert_eq!(pool.panics, 2, "workers={workers}");
            assert_eq!(pool.retries, 2, "workers={workers}");
            assert_eq!(pool.gave_up, 0);

            // With no retries allowed, the same plan quarantines both houses.
            let config = EngineConfig::with_workers(workers)
                .quarantine(QuarantinePolicy::Isolate)
                .chaos(merged.clone());
            let enc = FleetEngine::new(builder(), config).encode_fleet(&f).unwrap();
            assert_eq!(
                enc.quarantined.iter().map(|q| q.house).collect::<Vec<_>>(),
                vec![2, 5],
                "workers={workers}"
            );
            for q in &enc.quarantined {
                assert!(matches!(q.reason, QuarantineReason::Panicked { attempts: 1, .. }));
            }
            for (h, expected) in serial.iter().enumerate() {
                if h != 2 && h != 5 {
                    assert_eq!(enc.series[h], *expected, "workers={workers} house={h}");
                }
            }
        }
    }

    #[test]
    fn strict_chaos_panic_is_a_typed_error_not_an_abort() {
        let f = fleet(4, 200);
        let plan = PanicPlan { houses: [1].into_iter().collect(), panics_per_job: u32::MAX };
        let config = EngineConfig::with_workers(2).chaos(plan);
        let err = FleetEngine::new(builder(), config).encode_fleet(&f).unwrap_err();
        assert!(matches!(err, Error::Engine(ref msg) if msg.contains("panicked")), "{err:?}");
    }

    #[test]
    fn strict_error_comes_from_the_lowest_failing_house() {
        // House 1 fails with a typed error and house 4 panics on every
        // attempt: the lower house decides the run's error.
        let mut f = fleet(6, 200);
        f[1] = TimeSeries::new();
        let plan = PanicPlan { houses: [4].into_iter().collect(), panics_per_job: u32::MAX };
        for workers in [1, 2, 8] {
            let config = EngineConfig::with_workers(workers).chaos(plan.clone());
            let err = FleetEngine::new(builder(), config).encode_fleet(&f).unwrap_err();
            assert_eq!(err, Error::EmptyInput("CodecBuilder::train"), "workers={workers}");
        }
    }

    #[test]
    fn isolate_quarantines_empty_house_as_encode_error() {
        let mut f = fleet(3, 200);
        f.push(TimeSeries::new());
        let config = EngineConfig::with_workers(2).quarantine(QuarantinePolicy::Isolate);
        let enc = FleetEngine::new(builder(), config).encode_fleet(&f).unwrap();
        assert_eq!(enc.quarantined.len(), 1);
        assert_eq!(enc.quarantined[0].house, 3);
        assert!(matches!(
            enc.quarantined[0].reason,
            QuarantineReason::EncodeError(Error::EmptyInput(_))
        ));
        assert!(enc.is_quarantined(3) && !enc.is_quarantined(0));
    }

    #[test]
    fn stats_json_merges_ingest_block() {
        let mut enc = FleetEngine::new(builder(), EngineConfig::with_workers(2))
            .encode_fleet(&fleet(2, 300))
            .unwrap();
        assert!(!enc.stats.to_json().contains("ingest"), "no block for in-memory runs");
        enc.stats.ingest = Some(crate::ingest::IngestStats {
            frames_ok: 7,
            backlog_rejections: 3,
            ..Default::default()
        });
        let json = enc.stats.to_json();
        for key in ["\"ingest\"", "frames_ok", "frames_corrupt", "resyncs", "backlog_rejections"] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }
}
