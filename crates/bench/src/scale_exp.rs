//! `repro scale` — the million-house experiment behind ROADMAP open item 1.
//!
//! Streams a synthetic fleet of [`Scale::houses`] houses (one day of
//! quarter-hour readings each — the paper's §2.3 pricing unit) through the
//! sharded engine ([`sms_core::shard::ShardedFleetEngine`]) into the
//! bit-packed segment store ([`sms_core::segstore::SegmentStore`]), then
//! reports:
//!
//! * end-to-end encode throughput (samples/s into the packed store);
//! * bytes/house — raw `f64` input vs bit-packed vs after the second-stage
//!   RLE + dictionary pass (the arXiv:2006.03208 re-compression question);
//! * query latency (p50/p95) for time-range reads, symbol-prefix counts,
//!   and lookup-table aggregate pushdown;
//! * two correctness witnesses that run *inside* the experiment: packed
//!   reads must decode byte-identical to a serial in-memory encode of the
//!   sampled houses, and a shard/worker sweep ({1,4,16} × {1,2,8}) over a
//!   deterministic subsample must produce byte-identical store images.
//!
//! Houses are generated on the fly from `(seed, house)` alone — a base
//! load, a triangular daily shape, and SplitMix64 noise — so a
//! million-house run streams through in chunks of bounded memory instead
//! of materializing the fleet.

use sms_core::engine::EngineStats;
use sms_core::error::Error;
use sms_core::json::JsonWriter;
use sms_core::pipeline::CodecBuilder;
use sms_core::segstore::SegmentStore;
use sms_core::separators::SeparatorMethod;
use sms_core::shard::{splitmix64, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::symbol::Symbol;
use sms_core::timeseries::TimeSeries;
use std::time::Instant;

use crate::Scale;

/// Readings per house: one day of quarter-hours (§2.3's "only 384 bit"
/// unit at 4-bit symbols).
pub const SAMPLES_PER_HOUSE: usize = 96;
/// Sampling interval: 15 minutes.
pub const INTERVAL_SECS: i64 = 900;
/// Houses per streamed chunk.
const CHUNK: usize = 8192;
/// Houses sampled for the query-latency/identity set.
const QUERY_HOUSES: usize = 512;
/// Houses in the shard/worker byte-identity sweep.
const SWEEP_HOUSES: usize = 4096;

/// Latency percentiles of one query type, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyUs {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

fn percentiles(mut us: Vec<f64>) -> LatencyUs {
    if us.is_empty() {
        return LatencyUs::default();
    }
    us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let at = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    LatencyUs { p50: at(0.50), p95: at(0.95) }
}

/// Everything one `repro scale` run measured.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Houses encoded.
    pub houses: usize,
    /// Shards used for the main run.
    pub shards: usize,
    /// Workers per shard pool.
    pub workers: usize,
    /// Raw samples consumed.
    pub samples: u64,
    /// Symbols written into the store.
    pub symbols: u64,
    /// Wall time of the streamed encode (train + encode + append), seconds.
    pub encode_secs: f64,
    /// Raw input bytes per house (`f64` samples).
    pub raw_bytes_per_house: f64,
    /// Bit-packed store bytes per house (payload only).
    pub packed_bytes_per_house: f64,
    /// Bytes per house after the second-stage RLE + dictionary pass.
    pub recompressed_bytes_per_house: f64,
    /// Time-range read latency.
    pub read_latency: LatencyUs,
    /// Symbol-prefix count latency.
    pub prefix_latency: LatencyUs,
    /// Aggregate-pushdown latency.
    pub aggregate_latency: LatencyUs,
    /// Houses whose packed reads were checked byte-identical to a serial
    /// in-memory encode.
    pub identity_houses: usize,
    /// Houses in the shard/worker sweep subsample.
    pub sweep_houses: usize,
    /// `(shards, workers)` combinations whose store images matched.
    pub sweep_combos: usize,
    /// Engine counters (shard + store + pool blocks included).
    pub stats: EngineStats,
}

impl ScaleReport {
    /// Raw samples encoded per wall-clock second, end to end.
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.encode_secs.max(f64::MIN_POSITIVE)
    }

    /// Machine-readable record (the `BENCH_scale.json` payload).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("houses").u64(self.houses as u64);
        w.key("shards").u64(self.shards as u64);
        w.key("workers").u64(self.workers as u64);
        w.key("samples").u64(self.samples);
        w.key("symbols").u64(self.symbols);
        w.key("encode_secs").f64(self.encode_secs);
        w.key("samples_per_sec").f64(self.samples_per_sec());
        w.key("raw_bytes_per_house").f64(self.raw_bytes_per_house);
        w.key("packed_bytes_per_house").f64(self.packed_bytes_per_house);
        w.key("recompressed_bytes_per_house").f64(self.recompressed_bytes_per_house);
        w.key("read_p50_us").f64(self.read_latency.p50);
        w.key("read_p95_us").f64(self.read_latency.p95);
        w.key("prefix_p50_us").f64(self.prefix_latency.p50);
        w.key("prefix_p95_us").f64(self.prefix_latency.p95);
        w.key("aggregate_p50_us").f64(self.aggregate_latency.p50);
        w.key("aggregate_p95_us").f64(self.aggregate_latency.p95);
        w.key("identity_houses").u64(self.identity_houses as u64);
        w.key("sweep_houses").u64(self.sweep_houses as u64);
        w.key("sweep_combos").u64(self.sweep_combos as u64);
        w.end_object();
        w.finish()
    }
}

/// Renders the human-readable report.
pub fn render_scale(r: &ScaleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "scale: {} houses x {SAMPLES_PER_HOUSE} quarter-hour samples, \
         {} shards x {} workers\n",
        r.houses, r.shards, r.workers
    ));
    out.push_str(&format!(
        "  encode: {} samples in {:.2}s -> {:.0} samples/s end-to-end (packed store included)\n",
        r.samples,
        r.encode_secs,
        r.samples_per_sec()
    ));
    out.push_str(&format!(
        "  bytes/house: raw {:.0} -> packed {:.1} ({:.1}x) -> re-compressed {:.1} ({:.1}x)\n",
        r.raw_bytes_per_house,
        r.packed_bytes_per_house,
        r.raw_bytes_per_house / r.packed_bytes_per_house.max(f64::MIN_POSITIVE),
        r.recompressed_bytes_per_house,
        r.raw_bytes_per_house / r.recompressed_bytes_per_house.max(f64::MIN_POSITIVE)
    ));
    out.push_str(&format!(
        "  query latency (us): range-read p50 {:.1} p95 {:.1} | prefix-count p50 {:.1} \
         p95 {:.1} | aggregate p50 {:.1} p95 {:.1}\n",
        r.read_latency.p50,
        r.read_latency.p95,
        r.prefix_latency.p50,
        r.prefix_latency.p95,
        r.aggregate_latency.p50,
        r.aggregate_latency.p95
    ));
    out.push_str(&format!(
        "  verified: {} houses read back byte-identical to the serial codec; \
         {} shard/worker combos byte-identical over {} houses\n",
        r.identity_houses, r.sweep_combos, r.sweep_houses
    ));
    out
}

/// One house's synthetic day, derived from `(seed, house)` alone, shaped
/// like a real meter trace: flat standby at night with a fridge duty
/// cycle, a triangular daytime peak with appliance-step noise quantized
/// to 50 W. The plateaus matter — they are what gives the second-stage
/// RLE pass runs to collapse, exactly as standby power does in real
/// traces. Values are exact multiples of 0.1 W, so every value
/// round-trips `f64` exactly and the byte-identity checks compare
/// stable bits.
pub fn house_series(seed: u64, house: u64) -> TimeSeries {
    let mut values = Vec::with_capacity(SAMPLES_PER_HOUSE);
    let base = 50.0 + (splitmix64(seed ^ house) % 2000) as f64 / 10.0;
    let fridge_phase = splitmix64(seed ^ house ^ 0xF00D) % 8;
    for i in 0..SAMPLES_PER_HOUSE {
        // Night: 20:00–06:00 (samples 80.. and ..24 at 15-minute steps).
        let night = !(24..80).contains(&i);
        let v = if night {
            // Standby plus a fridge cycling 80 W on a 2 h period.
            let fridge = if (i as u64 / 4 + fridge_phase).is_multiple_of(2) { 80.0 } else { 0.0 };
            base + fridge
        } else {
            let day_pos = (i as i64 * INTERVAL_SECS % 86_400) as f64 / 86_400.0;
            let tri = 1.0 - (2.0 * day_pos - 1.0).abs();
            let step = (splitmix64(seed ^ house.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64))
                % 8) as f64
                * 50.0;
            base + 400.0 * tri + step
        };
        values.push(v);
    }
    TimeSeries::from_regular(0, INTERVAL_SECS, &values).expect("regular synthetic series")
}

fn codec_builder() -> Result<CodecBuilder, Error> {
    Ok(CodecBuilder::new().method(SeparatorMethod::Median).alphabet_size(16)?.no_aggregation())
}

/// Streams `houses` houses through a sharded engine into a fresh store,
/// returning the engine's stats over every batch and the store.
fn encode_into_store(
    seed: u64,
    houses: usize,
    config: ShardedEngineConfig,
) -> Result<(EngineStats, SegmentStore), Error> {
    let mut engine = ShardedFleetEngine::new(codec_builder()?, config)?;
    let mut stats = EngineStats::default();
    let mut store = SegmentStore::new();
    let mut chunk: Vec<(u64, TimeSeries)> = Vec::with_capacity(CHUNK);
    let mut next = 0usize;
    while next < houses {
        chunk.clear();
        let end = (next + CHUNK).min(houses);
        for h in next..end {
            chunk.push((h as u64, house_series(seed, h as u64)));
        }
        let enc = engine.encode_batch(&chunk)?;
        if let Some(q) = enc.quarantined.first() {
            return Err(Error::Engine(format!(
                "scale fleet unexpectedly quarantined house {}: {}",
                q.house, q.reason
            )));
        }
        for (i, s) in enc.series.iter().enumerate() {
            store.append(chunk[i].0, s)?;
        }
        stats = enc.stats;
        next = end;
    }
    Ok((stats, store))
}

/// Runs the full experiment at `scale.houses` houses. `shards`/`workers`
/// configure the main streamed run; the correctness sweep always covers
/// {1, 4, 16} shards × {1, 2, 8} workers on a subsample.
pub fn run_scale(scale: Scale, shards: usize, workers: usize) -> Result<ScaleReport, Error> {
    let houses = scale.houses;
    let config = ShardedEngineConfig::with_shards(shards.max(1)).workers(workers.max(1));

    let t0 = Instant::now();
    let (mut stats, mut store) = encode_into_store(scale.seed, houses, config)?;
    let encode_secs = t0.elapsed().as_secs_f64();
    let samples = stats.samples_in;
    let recompression = store.recompress()?;

    // --- query set: latency + identity against the serial codec ---------
    let q = QUERY_HOUSES.min(houses);
    let step = (houses / q.max(1)).max(1);
    let builder = codec_builder()?;
    let mut read_us = Vec::with_capacity(q);
    let mut prefix_us = Vec::with_capacity(q);
    let mut agg_us = Vec::with_capacity(q);
    let mid = (SAMPLES_PER_HOUSE as i64 / 4) * INTERVAL_SECS;
    let mid_end = (3 * SAMPLES_PER_HOUSE as i64 / 4 - 1) * INTERVAL_SECS;
    for k in 0..q {
        let house = (k * step) as u64;
        let ts = house_series(scale.seed, house);
        let codec = builder.train(&ts)?;
        let serial = codec.encode(&ts)?;

        // Full-range read must be byte-identical to the in-memory encode.
        let t = Instant::now();
        let full = store.read_range(house, i64::MIN, i64::MAX)?;
        read_us.push(t.elapsed().as_secs_f64() * 1e6);
        if full.symbols() != serial.symbols() || full.timestamps() != serial.timestamps() {
            return Err(Error::Engine(format!(
                "house {house}: packed-store read differs from the serial codec"
            )));
        }

        // Prefix predicate over the middle half vs a scan of the serial
        // symbols (prefix = upper half of the value range, rank 1 @ 1 bit).
        let prefix = Symbol::from_rank(1, 1)?;
        let t = Instant::now();
        let count = store.count_prefix(house, mid, mid_end, prefix)?;
        prefix_us.push(t.elapsed().as_secs_f64() * 1e6);
        let expected = serial
            .iter()
            .filter(|(ts, s)| (mid..=mid_end).contains(ts) && prefix.covers(*s))
            .count() as u64;
        if count != expected {
            return Err(Error::Engine(format!(
                "house {house}: prefix count {count} != scan {expected}"
            )));
        }

        // Aggregate pushdown vs a naive decode-and-average.
        let t = Instant::now();
        let agg = store.aggregate_range(house, mid, mid_end, codec.table())?;
        agg_us.push(t.elapsed().as_secs_f64() * 1e6);
        let naive: Vec<f64> = serial
            .iter()
            .filter(|(ts, _)| (mid..=mid_end).contains(ts))
            .map(|(_, s)| {
                codec.table().decode_symbol(s, sms_core::lookup::SymbolSemantics::RangeMean)
            })
            .collect::<Result<_, _>>()?;
        let naive_mean = naive.iter().sum::<f64>() / naive.len().max(1) as f64;
        if agg.count != naive.len() as u64 || (agg.mean - naive_mean).abs() > 1e-9 {
            return Err(Error::Engine(format!(
                "house {house}: aggregate pushdown {:.6} != naive {naive_mean:.6}",
                agg.mean
            )));
        }
    }

    // --- shard/worker sweep: byte-identical store images -----------------
    let sweep_houses = SWEEP_HOUSES.min(houses);
    let mut reference: Option<Vec<u8>> = None;
    let mut sweep_combos = 0usize;
    for sweep_shards in [1usize, 4, 16] {
        for sweep_workers in [1usize, 2, 8] {
            let cfg = ShardedEngineConfig::with_shards(sweep_shards).workers(sweep_workers);
            let (_, sweep_store) = encode_into_store(scale.seed, sweep_houses, cfg)?;
            let image = sweep_store.to_bytes();
            match &reference {
                None => reference = Some(image),
                Some(expected) if *expected == image => {}
                Some(_) => {
                    return Err(Error::Engine(format!(
                        "store image differs at {sweep_shards} shards x {sweep_workers} \
                         workers — sharding leaked into the output"
                    )));
                }
            }
            sweep_combos += 1;
        }
    }

    let store_stats = store.stats();
    stats.store = Some(store_stats);

    Ok(ScaleReport {
        houses,
        shards: shards.max(1),
        workers: workers.max(1),
        samples,
        symbols: store_stats.symbols_written,
        encode_secs,
        raw_bytes_per_house: (samples as f64 / houses.max(1) as f64) * 8.0,
        packed_bytes_per_house: store.arena_bytes() as f64 / houses.max(1) as f64,
        recompressed_bytes_per_house: recompression.recompressed_bytes as f64
            / houses.max(1) as f64,
        read_latency: percentiles(read_us),
        prefix_latency: percentiles(prefix_us),
        aggregate_latency: percentiles(agg_us),
        identity_houses: q,
        sweep_houses,
        sweep_combos,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_verifies_end_to_end() {
        let scale = Scale { houses: 300, ..Scale::quick() };
        let report = run_scale(scale, 4, 2).unwrap();
        assert_eq!(report.houses, 300);
        assert_eq!(report.samples, 300 * SAMPLES_PER_HOUSE as u64);
        assert_eq!(report.sweep_combos, 9);
        assert_eq!(report.identity_houses, 300);
        // 4-bit symbols: 96 × 4 bits = 48 bytes/house packed.
        assert!((report.packed_bytes_per_house - 48.0).abs() < 1.0);
        assert!(report.raw_bytes_per_house > report.packed_bytes_per_house);
        let json = report.to_json();
        let doc = sms_core::json::parse(&json).unwrap();
        assert_eq!(doc.get("houses").and_then(|v| v.as_u64()), Some(300));
        assert!(doc.get("samples_per_sec").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn house_series_is_deterministic() {
        let a = house_series(42, 7);
        let b = house_series(42, 7);
        assert_eq!(a.values(), b.values());
        let c = house_series(42, 8);
        assert_ne!(a.values(), c.values());
    }
}
