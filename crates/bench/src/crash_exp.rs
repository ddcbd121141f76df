//! `repro crash` — the crash-point sweep behind the durable segment store.
//!
//! The `scale` experiment ([`crate::scale_exp`]) proved the sharded encode
//! path byte-identical across topologies; this one proves the durability
//! layer ([`sms_core::durable`]) keeps that property through power loss.
//! Three legs, all deterministic per seed:
//!
//! 1. **Crash sweep** — encode [`Scale::houses`] houses once, then replay
//!    the same append workload against a [`FaultStorage`] backend that is
//!    killed after every Nth mutating storage operation (stride 1 unless the
//!    run is large; the stride is reported, never silent). Each crash point
//!    cycles the fault shapes of [`crate::ingest_exp::ALL_STORAGE_FAULTS`]
//!    (hard fail, short write, torn-and-corrupted tail). After every crash
//!    the store is recovered from the surviving bytes and must satisfy:
//!    the recovered record count `j` covers every acknowledged (fsynced)
//!    record, the recovered image is byte-identical to an uncrashed
//!    reference holding the first `j` records, truncated reads at every
//!    resolution `r ∈ 1..=b` match the reference, and resuming the workload
//!    from `j` converges on the full reference image.
//! 2. **Failover** — a [`DurableFleet`] whose shard 0 backend dies mid-run
//!    must re-route deterministically (two runs, identical images and
//!    stats) and lose no acknowledged record.
//! 3. **Gateway path** — a loopback [`Gateway`] fleet streams windows and
//!    collects cumulative acks; every gateway-acked frame must survive a
//!    mid-append crash of the durable store it lands in (recover + resume,
//!    then read back byte-identical). The gateway's `/readyz` must report
//!    `degraded` while the fleet runs with a dead shard.

use std::io::{Read, Write};
use std::net::TcpStream;

use crate::ingest_exp::FaultInjector;
use crate::scale::Scale;
use crate::scale_exp::house_series;
use sms_core::durable::{DurableConfig, DurableFleet, DurableStats, DurableStore, FaultStorage};
use sms_core::encoder::SensorMessage;
use sms_core::engine::EngineStats;
use sms_core::error::{Error, Result};
use sms_core::gateway::{encode_handshake, Gateway, GatewayConfig, HANDSHAKE_ACK};
use sms_core::horizontal::SymbolicSeries;
use sms_core::json::JsonWriter;
use sms_core::pipeline::CodecBuilder;
use sms_core::segstore::SegmentStore;
use sms_core::separators::SeparatorMethod;
use sms_core::shard::{ShardedEngineConfig, ShardedFleetEngine};
use sms_core::symbol::Symbol;
use sms_core::timeseries::TimeSeries;
use sms_core::wire::encode_message;

/// Crash points swept exhaustively; larger runs stride so the sweep stays
/// `O(records × MAX_CRASH_POINTS)`. The stride is part of the report.
const MAX_CRASH_POINTS: u64 = 256;
/// Houses whose truncated reads are compared per crash point.
const TRUNCATED_SAMPLE_HOUSES: usize = 2;
/// Records per WAL group commit in the sweep workload — small, so crash
/// points land between acknowledgement boundaries often.
const GROUP_COMMIT: usize = 4;
/// Most records between automatic checkpoints — co-prime with the group
/// size, so crashes hit every phase of the checkpoint protocol. Small runs
/// shrink the interval so the sweep always crosses checkpoints.
const CHECKPOINT_EVERY_MAX: u64 = 37;
/// Meters in the gateway leg.
const GATEWAY_METERS: usize = 6;
/// Hourly windows each gateway meter streams.
const GATEWAY_WINDOWS: usize = 24;

/// Everything one `repro crash` run verified.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Houses in the sweep workload.
    pub houses: usize,
    /// Shards in the failover leg.
    pub shards: usize,
    /// Workers used for the (deterministic) encode.
    pub workers: usize,
    /// Records the workload appends per run.
    pub records: u64,
    /// Mutating storage operations in an uncrashed run.
    pub total_ops: u64,
    /// Crash points actually injected.
    pub crash_points: usize,
    /// Sweep stride over `1..=total_ops` (1 = every operation).
    pub stride: u64,
    /// Symbol resolution of the stored segments (truncated reads cover
    /// `1..=resolution_bits`).
    pub resolution_bits: u8,
    /// Truncated-read comparisons performed across the sweep.
    pub truncated_reads: u64,
    /// Meters in the gateway leg.
    pub gateway_meters: usize,
    /// Frames the gateway acknowledged (all survived the crash).
    pub gateway_acked_frames: u64,
    /// Shards the failover leg killed.
    pub failover_dead_shards: usize,
    /// Engine counters with the `durable` block aggregated over every leg.
    pub stats: EngineStats,
}

impl CrashReport {
    /// Machine-readable record (the `BENCH_crash.json` payload).
    pub fn to_json(&self) -> String {
        let d = self.stats.durable.as_ref().expect("run_crash always sets the durable block");
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("houses").u64(self.houses as u64);
        w.key("shards").u64(self.shards as u64);
        w.key("workers").u64(self.workers as u64);
        w.key("records").u64(self.records);
        w.key("total_ops").u64(self.total_ops);
        w.key("crash_points").u64(self.crash_points as u64);
        w.key("stride").u64(self.stride);
        w.key("resolution_bits").u64(self.resolution_bits as u64);
        w.key("truncated_reads").u64(self.truncated_reads);
        w.key("gateway_meters").u64(self.gateway_meters as u64);
        w.key("gateway_acked_frames").u64(self.gateway_acked_frames);
        w.key("failover_dead_shards").u64(self.failover_dead_shards as u64);
        w.key("recoveries").u64(d.recoveries);
        w.key("replayed_records").u64(d.replayed_records);
        w.key("torn_records_dropped").u64(d.torn_records_dropped);
        w.key("checkpoints").u64(d.checkpoints);
        w.key("shard_failovers").u64(d.shard_failovers);
        w.end_object();
        w.finish()
    }
}

/// Renders the human-readable report.
pub fn render_crash(r: &CrashReport) -> String {
    let d = r.stats.durable.as_ref().expect("run_crash always sets the durable block");
    let mut out = String::new();
    out.push_str(&format!(
        "crash: {} houses -> {} records, {} storage ops/run; {} crash points \
         (stride {})\n",
        r.houses, r.records, r.total_ops, r.crash_points, r.stride
    ));
    out.push_str(&format!(
        "  every recovery covered its acknowledged prefix and matched the reference \
         byte-for-byte (full resolution + {} truncated reads at r in 1..={})\n",
        r.truncated_reads, r.resolution_bits
    ));
    out.push_str(&format!(
        "  durability: {} recoveries, {} records replayed, {} torn records dropped, \
         {} checkpoints, {} fsyncs\n",
        d.recoveries, d.replayed_records, d.torn_records_dropped, d.checkpoints, d.fsyncs
    ));
    out.push_str(&format!(
        "  failover: {} of {} shards killed mid-run, {} failovers, zero acknowledged \
         records lost, deterministic across replays\n",
        r.failover_dead_shards, r.shards, d.shard_failovers
    ));
    out.push_str(&format!(
        "  gateway: {} meters, {} acked frames all present after crash + recovery; \
         /readyz reported degraded while a shard was dead\n",
        r.gateway_meters, r.gateway_acked_frames
    ));
    out
}

fn codec_builder() -> Result<CodecBuilder> {
    Ok(CodecBuilder::new().method(SeparatorMethod::Median).alphabet_size(16)?.no_aggregation())
}

/// Encodes the sweep workload once: `(house, series)` records in append
/// order, via the sharded engine (output is worker-count independent),
/// and the batch's engine counters.
fn encode_workload(
    scale: Scale,
    workers: usize,
) -> Result<(Vec<(u64, SymbolicSeries)>, EngineStats)> {
    let config = ShardedEngineConfig::with_shards(4).workers(workers.max(1));
    let mut engine = ShardedFleetEngine::new(codec_builder()?, config)?;
    let fleet: Vec<(u64, TimeSeries)> =
        (0..scale.houses).map(|h| (h as u64, house_series(scale.seed, h as u64))).collect();
    let enc = engine.encode_batch(&fleet)?;
    if let Some(q) = enc.quarantined.first() {
        return Err(Error::Engine(format!(
            "crash fleet unexpectedly quarantined house {}: {}",
            q.house, q.reason
        )));
    }
    Ok((fleet.iter().map(|(h, _)| *h).zip(enc.series).collect(), enc.stats))
}

/// Runs the full workload against `storage`, reporting how many records
/// were acknowledged (durable) when it stopped, and the store's counters.
/// An `Err` is a planned crash, not a failure of the harness.
fn run_workload(
    storage: &mut FaultStorage,
    config: DurableConfig,
    records: &[(u64, SymbolicSeries)],
    acked: &mut u64,
    stats: &mut DurableStats,
) -> Result<()> {
    let (mut ds, _) = DurableStore::open(&mut *storage, config)?;
    let finish = |ds: &DurableStore<&mut FaultStorage>, acked: &mut u64, st: &mut DurableStats| {
        *acked = ds.durable_records();
        st.merge(&ds.stats());
    };
    for (house, series) in records {
        if let Err(e) = ds.append(*house, series) {
            finish(&ds, acked, stats);
            return Err(e);
        }
    }
    let out = ds.commit();
    finish(&ds, acked, stats);
    out
}

/// Uncrashed reference image of the first `j` workload records.
fn prefix_image(records: &[(u64, SymbolicSeries)], j: usize) -> Result<Vec<u8>> {
    let mut store = SegmentStore::new();
    for (house, series) in &records[..j] {
        store.append(*house, series)?;
    }
    Ok(store.to_bytes())
}

/// One crash point: run to the planned crash, recover from the surviving
/// bytes, check the prefix/truncation invariants, then resume to the end.
/// Returns the truncated-read comparisons performed.
#[allow(clippy::too_many_arguments)]
fn check_crash_point(
    crash_at: u64,
    injector: &mut FaultInjector,
    total_ops: u64,
    config: DurableConfig,
    records: &[(u64, SymbolicSeries)],
    full_reference: &mut SegmentStore,
    full_image: &[u8],
    stats: &mut DurableStats,
) -> Result<u64> {
    let (_, mut plan) = injector.storage_plan_nth(crash_at, total_ops);
    plan.crash_at_op = Some(crash_at);
    let mut storage = FaultStorage::with_plan(plan);
    let mut acked = 0u64;
    let crashed = run_workload(&mut storage, config, records, &mut acked, stats).is_err();

    // Recover from what a real disk would hold after the power cut.
    let (mut recovered, _) = DurableStore::open(storage.crash_view(), config)?;
    stats.merge(&recovered.stats());
    let j = recovered.durable_records();
    if j < acked || j > records.len() as u64 {
        return Err(Error::Engine(format!(
            "crash at op {crash_at}: recovered {j} records but {acked} were acknowledged \
             (of {})",
            records.len()
        )));
    }
    let expect = prefix_image(records, j as usize)?;
    if recovered.store().to_bytes() != expect {
        return Err(Error::Engine(format!(
            "crash at op {crash_at}: recovered image differs from the {j}-record reference"
        )));
    }

    // Truncated reads on a sample of recovered houses, at every resolution.
    let mut truncated_reads = 0u64;
    let step = (j as usize / TRUNCATED_SAMPLE_HOUSES.max(1)).max(1);
    for (house, series) in records[..j as usize].iter().step_by(step) {
        for r in 1..=series.resolution_bits() {
            let got = recovered.store_mut().read_truncated(*house, i64::MIN, i64::MAX, r)?;
            let want = full_reference.read_truncated(*house, i64::MIN, i64::MAX, r)?;
            if got.symbols() != want.symbols() || got.timestamps() != want.timestamps() {
                return Err(Error::Engine(format!(
                    "crash at op {crash_at}: truncated read of house {house} at {r} bits \
                     diverges from the reference"
                )));
            }
            truncated_reads += 1;
        }
    }

    // Resume: the recovered store must accept the rest of the workload and
    // converge on the full reference image.
    for (house, series) in &records[j as usize..] {
        recovered.append(*house, series)?;
    }
    recovered.commit()?;
    stats.merge(&recovered.stats());
    if recovered.store().to_bytes() != full_image {
        return Err(Error::Engine(format!(
            "crash at op {crash_at}: resumed store does not match the full reference \
             (crashed: {crashed})"
        )));
    }
    Ok(truncated_reads)
}

/// The failover leg: shard 0's backend dies mid-run; the fleet must keep
/// every record reachable and behave identically on a second run.
fn run_failover_leg(
    records: &[(u64, SymbolicSeries)],
    shards: usize,
    seed: u64,
) -> Result<(usize, DurableStats)> {
    let config = DurableConfig::default().group_commit(GROUP_COMMIT);
    let run = || -> Result<(Vec<Vec<u8>>, usize, DurableStats)> {
        let mut stores = Vec::with_capacity(shards);
        for s in 0..shards {
            // Shard 0 dies on its 9th mutating op: past the 5 ops of
            // initialization, early in the append stream.
            let plan = if s == 0 {
                sms_core::durable::FaultPlan::crash_at(9, seed)
            } else {
                sms_core::durable::FaultPlan::default()
            };
            let (ds, _) = DurableStore::open(FaultStorage::with_plan(plan), config)?;
            stores.push(ds);
        }
        let mut fleet = DurableFleet::new(stores)?;
        for (house, series) in records {
            fleet.append(*house, series)?;
        }
        fleet.commit()?;
        // Zero acknowledged loss: every record is on the shard that now
        // serves its house, or on a dead shard awaiting its re-open.
        for (house, _) in records {
            let routed = fleet
                .route(*house)
                .map(|s| fleet.shard(s).store().contains_house(*house))
                .unwrap_or(false);
            let on_dead = (0..shards)
                .any(|s| !fleet.alive()[s] && fleet.shard(s).store().contains_house(*house));
            if !routed && !on_dead {
                return Err(Error::Engine(format!(
                    "failover leg lost house {house}: on no live or dead shard"
                )));
            }
        }
        let dead = fleet.dead_shards();
        let stats = fleet.stats();
        let images =
            fleet.into_shards().into_iter().map(|s| s.store().to_bytes()).collect::<Vec<_>>();
        Ok((images, dead, stats))
    };
    let (images_a, dead_a, stats_a) = run()?;
    let (images_b, dead_b, stats_b) = run()?;
    if images_a != images_b || dead_a != dead_b || stats_a != stats_b {
        return Err(Error::Engine(
            "failover leg is not deterministic: two identical runs diverged".to_string(),
        ));
    }
    if dead_a == 0 || stats_a.shard_failovers == 0 {
        return Err(Error::Engine(
            "failover leg never killed a shard — the fault plan missed".to_string(),
        ));
    }
    Ok((dead_a, stats_a))
}

/// The gateway leg: stream `GATEWAY_METERS` meters of hourly windows over
/// loopback TCP, crash the durable store their decoded frames land in, and
/// prove every gateway-acknowledged frame survives recovery + resume. With
/// a dead shard in the (simulated) fleet, `/readyz` must say `degraded`.
fn run_gateway_leg(
    scale: Scale,
    workers: usize,
    dead_shards: usize,
    stats: &mut DurableStats,
) -> Result<(usize, u64)> {
    let gw = Gateway::start(GatewayConfig::default().workers(workers.max(1)).http_metrics(true))?;
    let addr = gw.local_addr();
    let token = b"smg-local-dev";

    // Per-meter wire: one table frame, then hourly 4-bit windows.
    let history = house_series(scale.seed, 0);
    let codec = codec_builder()?.train(&history)?;
    let table_frame = encode_message(&SensorMessage::Table(codec.table().clone()))?;
    let mut expected: Vec<SymbolicSeries> = Vec::with_capacity(GATEWAY_METERS);
    let mut acked_total = 0u64;
    for m in 0..GATEWAY_METERS {
        let meter = m as u64;
        let mut wire = table_frame.clone();
        let mut series = SymbolicSeries::new(4)?;
        for w in 0..GATEWAY_WINDOWS {
            let rank =
                (sms_core::shard::splitmix64(scale.seed ^ (meter << 8) ^ w as u64) % 16) as u16;
            let symbol = Symbol::from_rank(rank, 4)?;
            let start = (w as i64) * 3600;
            series.push(start, symbol)?;
            wire.extend(encode_message(&SensorMessage::Window(
                sms_core::encoder::EncodedWindow { window_start: start, symbol, samples: 4 },
            ))?);
        }
        let mut conn = TcpStream::connect(addr)
            .map_err(|e| Error::Engine(format!("gateway leg connect: {e}")))?;
        let io = |what: &str, e: std::io::Error| Error::Engine(format!("gateway leg {what}: {e}"));
        conn.write_all(&encode_handshake(meter, token)).map_err(|e| io("handshake", e))?;
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack).map_err(|e| io("handshake ack", e))?;
        if ack[0] != HANDSHAKE_ACK {
            return Err(Error::Engine(format!("gateway leg: meter {meter} not ACKed")));
        }
        conn.write_all(&wire).map_err(|e| io("stream", e))?;
        conn.shutdown(std::net::Shutdown::Write).ok();
        let mut last = 0u64;
        let mut buf = [0u8; 8];
        while conn.read_exact(&mut buf).is_ok() {
            last = u64::from_le_bytes(buf);
        }
        // 1 table frame + the windows: the stream is clean, all acked.
        if last != (GATEWAY_WINDOWS + 1) as u64 {
            return Err(Error::Engine(format!(
                "gateway leg: meter {meter} acked {last} of {} frames",
                GATEWAY_WINDOWS + 1
            )));
        }
        acked_total += last;
        expected.push(series);
    }

    // A dead storage shard degrades the instance without pulling it out of
    // the load-balancer rotation: /readyz stays 200 but says so.
    gw.set_degraded(dead_shards > 0);
    let mut http = TcpStream::connect(gw.metrics_addr().expect("sidecar enabled"))
        .map_err(|e| Error::Engine(format!("gateway leg readyz connect: {e}")))?;
    http.write_all(b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n")
        .map_err(|e| Error::Engine(format!("gateway leg readyz write: {e}")))?;
    let mut readyz = String::new();
    http.read_to_string(&mut readyz)
        .map_err(|e| Error::Engine(format!("gateway leg readyz read: {e}")))?;
    let want = if dead_shards > 0 { "degraded" } else { "ready" };
    if !readyz.starts_with("HTTP/1.1 200") || !readyz.trim_end().ends_with(want) {
        return Err(Error::Engine(format!(
            "gateway leg: /readyz did not report {want}: {readyz:?}"
        )));
    }

    let report = gw.shutdown();

    // Rebuild each meter's decoded windows from the gateway output and
    // push them through a durable store that crashes mid-append.
    let mut records: Vec<(u64, SymbolicSeries)> = Vec::with_capacity(GATEWAY_METERS);
    for (m, want) in expected.iter().enumerate().take(GATEWAY_METERS) {
        let meter = m as u64;
        let msgs = report.output.get(&meter).map(Vec::as_slice).unwrap_or(&[]);
        let mut series = SymbolicSeries::new(4)?;
        for msg in msgs {
            if let SensorMessage::Window(w) = msg {
                series.push(w.window_start, w.symbol)?;
            }
        }
        if series.symbols() != want.symbols() || series.timestamps() != want.timestamps() {
            return Err(Error::Engine(format!(
                "gateway leg: decoded windows for meter {meter} diverge from what was sent"
            )));
        }
        records.push((meter, series));
    }
    let config = DurableConfig::default().group_commit(2);
    // Crash roughly mid-append (past the 5 initialization ops).
    let plan = sms_core::durable::FaultPlan::crash_at(5 + GATEWAY_METERS as u64 / 2, scale.seed);
    let mut storage = FaultStorage::with_plan(plan);
    let mut acked = 0u64;
    let _ = run_workload(&mut storage, config, &records, &mut acked, stats);
    let (mut recovered, _) = DurableStore::open(storage.crash_view(), config)?;
    stats.merge(&recovered.stats());
    let j = recovered.durable_records() as usize;
    if (j as u64) < acked {
        return Err(Error::Engine(format!(
            "gateway leg: {acked} records acknowledged but only {j} recovered"
        )));
    }
    for (house, series) in &records[j..] {
        recovered.append(*house, series)?;
    }
    recovered.commit()?;
    stats.merge(&recovered.stats());
    // Every gateway-acked frame reads back bit-for-bit.
    for (meter, series) in &records {
        let got = recovered.store_mut().read_range(*meter, i64::MIN, i64::MAX)?;
        if got.symbols() != series.symbols() || got.timestamps() != series.timestamps() {
            return Err(Error::Engine(format!(
                "gateway leg: meter {meter}'s acked frames did not survive the crash"
            )));
        }
    }
    Ok((GATEWAY_METERS, acked_total))
}

/// Runs the full crash experiment at `scale.houses` houses.
pub fn run_crash(scale: Scale, shards: usize, workers: usize) -> Result<CrashReport> {
    let (records, engine_stats) = encode_workload(scale, workers)?;
    let resolution_bits = records.first().map(|(_, s)| s.resolution_bits()).unwrap_or(1);
    let checkpoint_every = (records.len() as u64 / 3).clamp(1, CHECKPOINT_EVERY_MAX);
    let config =
        DurableConfig::default().group_commit(GROUP_COMMIT).checkpoint_every(checkpoint_every);
    let mut totals = DurableStats::default();

    // Uncrashed run: counts the storage ops the sweep must cover and
    // doubles as the full-reference image.
    let mut reference_storage = FaultStorage::new();
    let mut reference_acked = 0u64;
    run_workload(&mut reference_storage, config, &records, &mut reference_acked, &mut totals)?;
    let total_ops = reference_storage.ops();
    if reference_acked != records.len() as u64 {
        return Err(Error::Engine(format!(
            "uncrashed reference only acknowledged {reference_acked} of {} records",
            records.len()
        )));
    }
    let full_image = prefix_image(&records, records.len())?;
    let mut full_reference = SegmentStore::from_bytes(&full_image)?;

    let stride = total_ops.div_ceil(MAX_CRASH_POINTS).max(1);
    let mut injector = FaultInjector::new(scale.seed ^ 0xC0A5_7D1E);
    let mut crash_points = 0usize;
    let mut truncated_reads = 0u64;
    let mut crash_at = 1u64;
    while crash_at <= total_ops {
        truncated_reads += check_crash_point(
            crash_at,
            &mut injector,
            total_ops,
            config,
            &records,
            &mut full_reference,
            &full_image,
            &mut totals,
        )?;
        crash_points += 1;
        crash_at += stride;
    }

    let shards = shards.max(2);
    let (failover_dead_shards, failover_stats) = run_failover_leg(&records, shards, scale.seed)?;
    totals.merge(&failover_stats);
    let shard_failovers = failover_stats.shard_failovers;

    let (gateway_meters, gateway_acked_frames) =
        run_gateway_leg(scale, workers, failover_dead_shards, &mut totals)?;

    // `merge` sums the failover counter like the others; the fleet is the
    // only leg that fails over, so pin it to that leg's count.
    totals.shard_failovers = shard_failovers;
    let stats = EngineStats { durable: Some(totals), ..engine_stats };

    Ok(CrashReport {
        houses: scale.houses,
        shards,
        workers: workers.max(1),
        records: records.len() as u64,
        total_ops,
        crash_points,
        stride,
        resolution_bits,
        truncated_reads,
        gateway_meters,
        gateway_acked_frames,
        failover_dead_shards,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_crash_sweep_verifies_end_to_end() {
        let scale = Scale { houses: 24, ..Scale::quick() };
        let report = run_crash(scale, 3, 2).unwrap();
        assert_eq!(report.records, 24);
        assert_eq!(report.stride, 1, "small runs sweep every op");
        assert_eq!(report.crash_points as u64, report.total_ops);
        assert!(report.truncated_reads > 0);
        assert_eq!(report.failover_dead_shards, 1);
        assert_eq!(report.gateway_acked_frames, (GATEWAY_METERS * (GATEWAY_WINDOWS + 1)) as u64);
        let d = report.stats.durable.as_ref().unwrap();
        assert!(d.recoveries as usize >= report.crash_points);
        assert!(d.shard_failovers >= 1);
        assert!(d.torn_records_dropped > 0, "the sweep must hit torn tails");
        assert!(d.checkpoints > 0, "the sweep must cross checkpoints");
        // The engine block is the workload batch's own.
        let e = &report.stats;
        assert_eq!((e.houses, e.house_samples.count(), e.house_symbols.count()), (24, 24, 24));
        assert_eq!(e.house_samples.sum(), e.samples_in);
        assert!(e.spans.iter().any(|s| s.path == "encode_fleet"));
        let json = report.to_json();
        let doc = sms_core::json::parse(&json).unwrap();
        assert_eq!(doc.get("records").and_then(|v| v.as_u64()), Some(24));
        assert!(doc.get("recoveries").and_then(|v| v.as_u64()).unwrap() > 0);
        let rendered = render_crash(&report);
        assert!(rendered.contains("byte-for-byte"), "{rendered}");
        assert!(rendered.contains("degraded"), "{rendered}");
    }

    #[test]
    fn large_runs_stride_and_report_it() {
        assert_eq!(1000u64.div_ceil(MAX_CRASH_POINTS).max(1), 4);
        assert_eq!(100u64.div_ceil(MAX_CRASH_POINTS).max(1), 1);
    }
}
