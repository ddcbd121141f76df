//! `fleet_backfill`: houses never seen before, one day of quarter-hour
//! readings each, streamed in batches through `ShardedFleetEngine` at its
//! defaults into a `DurableFleet` over `FsStorage`.
//!
//! Flush policy: default group commit (`DurableConfig::default()`),
//! `DurableFleet::commit` after every batch, and a checkpoint every
//! `checkpoint_every` records per shard. An op is a raw sample committed;
//! a latency sample is one batch, from `encode_batch` to the end of its
//! commit. The fleet is larger than the engine's 4 × 4096-entry table
//! cache, so every house trains.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use sms_core::durable::{DurableConfig, DurableFleet, DurableStore, FsStorage};
use sms_core::lookup::SymbolSemantics;
use sms_core::pipeline::CodecBuilder;
use sms_core::segstore::SegmentStore;
use sms_core::shard::{ShardRouter, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::symbol::Symbol;
use sms_core::timeseries::TimeSeries;

use crate::inputs::{self, DAY_SECS, SAMPLES_PER_DAY};
use crate::report::{median, Counts, Latency, Report, Round};
use crate::storage::{CountingStorage, StorageCounters};
use crate::sys::CpuMark;
use crate::trace::Tracer;
use crate::{fail, shards_touched, Ctx};

/// Durable shards: one per engine shard, on the same ring.
const SHARDS: usize = 4;
/// Warm-up houses get ids far from the measured ones.
const WARMUP_BASE: u64 = 1 << 40;
/// Set-ups per untraced round, each into a fresh directory: the last one
/// is the system the round times.
const SETUPS: usize = 8;
/// Batches between two speed probes.
const PROBE_EVERY: u64 = 4;

pub struct Size {
    /// Houses per round.
    pub houses: u64,
    /// Houses per batch.
    pub batch: u64,
    /// Houses in the one warm-up batch of set-up.
    pub warmup: u64,
    /// Records per shard between checkpoints.
    pub checkpoint_every: u64,
    /// Every this many houses is read back and compared with a serial
    /// encode.
    pub verify_every: u64,
}

impl Size {
    pub fn full() -> Self {
        Size { houses: 20_480, batch: 256, warmup: 256, checkpoint_every: 2048, verify_every: 8 }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Size { houses: 256, batch: 16, warmup: 16, checkpoint_every: 24, verify_every: 4 }
    }
}

fn durable_config(size: &Size) -> DurableConfig {
    DurableConfig::default().checkpoint_every(size.checkpoint_every)
}

fn batch_inputs(seed: u64, houses: impl Iterator<Item = u64>) -> Vec<(u64, TimeSeries)> {
    houses.map(|h| (h, inputs::house_series(seed, h, 0, 1, None))).collect()
}

fn open_fleet(
    dir: &Path,
    size: &Size,
    counters: &Rc<RefCell<StorageCounters>>,
    timed: bool,
) -> Result<DurableFleet<CountingStorage>, String> {
    let mut stores = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let fs = FsStorage::new(dir.join(format!("shard{s}"))).map_err(fail("storage"))?;
        let storage = CountingStorage::new(fs, Rc::clone(counters), timed);
        let (store, report) =
            DurableStore::open(storage, durable_config(size)).map_err(fail("durable open"))?;
        if report.recovered {
            return Err(format!("shard {s} found state in a fresh directory"));
        }
        stores.push(store);
    }
    DurableFleet::new(stores).map_err(fail("durable fleet"))
}

/// Encodes one batch and commits it durably.
fn ingest_batch(
    engine: &mut ShardedFleetEngine,
    fleet: &mut DurableFleet<CountingStorage>,
    batch: &[(u64, TimeSeries)],
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let enc = tracer.span("shard.encode_batch", op, || engine.encode_batch(batch));
    let enc = enc.map_err(fail("encode_batch"))?;
    if let Some(q) = enc.quarantined.first() {
        return Err(format!("house {} quarantined: {:?}", batch[q.house].0, q.reason));
    }
    for ((house, _), series) in batch.iter().zip(&enc.series) {
        let checkpoints = tracer.on().then(|| fleet.stats().checkpoints);
        let span = tracer.begin("durable.append", op);
        fleet.append(*house, series).map_err(fail("durable append"))?;
        if checkpoints.is_some_and(|c| c != fleet.stats().checkpoints) {
            tracer.end_as(span, "durable.append+checkpoint");
        } else {
            tracer.end(span);
        }
    }
    tracer.span("durable.commit", op, || fleet.commit()).map_err(fail("durable commit"))
}

/// What the replay leg measured over one round's inputs (warm-up batch
/// included), in ns, and what its read leg measured over the stores it
/// built.
#[derive(Default)]
struct Replay {
    train: f64,
    encode: f64,
    pack: f64,
    segstore: f64,
    load: f64,
    reads: Vec<f64>,
    prefixes: Vec<f64>,
    aggregates: Vec<f64>,
    pruned_ratio: f64,
}

fn replay(seed: u64, size: &Size) -> Result<Replay, String> {
    let b = CodecBuilder::new();
    let mut out = Replay::default();
    let router = ShardRouter::new(SHARDS).map_err(fail("router"))?;
    let mut stores: Vec<SegmentStore> = (0..SHARDS).map(|_| SegmentStore::new()).collect();
    let mut sampled = Vec::new();
    for house in (WARMUP_BASE..WARMUP_BASE + size.warmup).chain(0..size.houses) {
        let ts = inputs::house_series(seed, house, 0, 1, None);
        let t = Instant::now();
        let codec = b.train(&ts).map_err(fail("train"))?;
        let t1 = Instant::now();
        let series = codec.encode(&ts).map_err(fail("encode"))?;
        let t2 = Instant::now();
        std::hint::black_box(series.pack_symbols());
        let t3 = Instant::now();
        stores[router.route(house)].append(house, &series).map_err(fail("append"))?;
        let t4 = Instant::now();
        out.train += (t1 - t).as_nanos() as f64;
        out.encode += (t2 - t1).as_nanos() as f64;
        out.pack += (t3 - t2).as_nanos() as f64;
        out.segstore += (t4 - t3).as_nanos() as f64;
        if house < size.houses && house % size.verify_every == 0 {
            sampled.push((house, codec.table().clone()));
        }
    }

    // The read side of what was written: a restart of every shard's image,
    // then per sampled house a read at each coarser resolution, a prefix
    // count and an aggregate over its day.
    let images: Vec<Vec<u8>> = stores.iter().map(SegmentStore::to_bytes).collect();
    let t = Instant::now();
    for image in &images {
        std::hint::black_box(SegmentStore::from_bytes(image).map_err(fail("from_bytes"))?);
    }
    out.load = t.elapsed().as_nanos() as f64;
    let prefix = Symbol::from_rank(1, 2).map_err(fail("prefix"))?;
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    for (house, table) in &sampled {
        let store = &mut stores[router.route(*house)];
        for bits in 1..table.resolution_bits() {
            let t = Instant::now();
            let read = store.read_truncated(*house, 0, DAY_SECS, bits);
            out.reads.push(ns(t));
            std::hint::black_box(read.map_err(fail("read_truncated"))?);
        }
        let t = Instant::now();
        let count = store.count_prefix(*house, 0, DAY_SECS, prefix);
        out.prefixes.push(ns(t));
        std::hint::black_box(count.map_err(fail("count_prefix"))?);
        let t = Instant::now();
        let aggregate = store.aggregate_range(*house, 0, DAY_SECS, table);
        out.aggregates.push(ns(t));
        std::hint::black_box(aggregate.map_err(fail("aggregate_range"))?);
    }
    let pruned: u64 = stores.iter().map(|s| s.stats().segments_pruned).sum();
    // Each prefix count and aggregate covers one one-day segment.
    out.pruned_ratio = pruned as f64 / (2 * sampled.len()) as f64;
    Ok(out)
}

/// Reads `house` back at full and truncated resolution, compares it with
/// a serial encode, and returns its absolute reconstruction error sum.
fn check_house(seed: u64, house: u64, store: &mut SegmentStore) -> Result<f64, String> {
    let ts = inputs::house_series(seed, house, 0, 1, None);
    let codec = CodecBuilder::new().train(&ts).map_err(fail("train"))?;
    let expect = codec.encode(&ts).map_err(fail("encode"))?;
    let got = store.read_range(house, 0, DAY_SECS).map_err(fail("read_range"))?;
    if got != expect {
        return Err(format!("house {house}: stored symbols differ from a serial encode"));
    }
    for bits in 1..expect.resolution_bits() {
        let t = store.read_truncated(house, 0, DAY_SECS, bits).map_err(fail("read_truncated"))?;
        if t != expect.truncate_resolution(bits).map_err(fail("truncate"))? {
            return Err(format!("house {house}: {bits}-bit read differs from a serial encode"));
        }
    }
    let decoded = codec.decode(&got, SymbolSemantics::RangeMean).map_err(fail("decode"))?;
    Ok(ts.values().iter().zip(decoded.values()).map(|(a, b)| (a - b).abs()).sum())
}

/// Per-round figures the traced metrics need.
#[derive(Default)]
struct Traced {
    rounds: f64,
    recovery_ms: f64,
    merge_wait_ms: f64,
    max_queue_depth: f64,
    sync_ns: Vec<u64>,
    wal_io_ns: f64,
    other_io_ns: f64,
}

pub fn run(ctx: &Ctx, size: &Size, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let batches = size.houses.div_ceil(size.batch);
    let samples = (size.houses + size.warmup) * SAMPLES_PER_DAY as u64;
    report.notes.push(format!(
        "{} houses per round in {batches} batches of {} after a warm-up batch of {}; \
         ShardedEngineConfig::default(); DurableConfig::default() (group commit of 32 records) \
         with a checkpoint every {} records per shard and DurableFleet::commit after every batch; \
         files under {}",
        size.houses,
        size.batch,
        size.warmup,
        size.checkpoint_every,
        ctx.work_dir.display()
    ));
    report.input_digest = (0..size.houses.min(64)).fold(0, |h, house| {
        inputs::digest(h, inputs::day_values(ctx.seed, house, 0, 0.0).iter().map(|v| v.to_bits()))
    });
    let mut traced = Traced::default();
    let mut threads_per_batch = 0.0;
    let mut last_counts = Counts::new();

    ctx.rounds(tracer, &mut report, |r, tracer, report| {
        let round_dir = ctx.work_dir.join(format!("round-{r}"));
        std::fs::remove_dir_all(&round_dir).ok();
        let setup_dir = |k: usize| round_dir.join(format!("setup-{k}"));
        let warm = batch_inputs(ctx.seed, WARMUP_BASE..WARMUP_BASE + size.warmup);

        // Traced rounds set up once and time their storage calls.
        let traced_round = tracer.on();
        let ((mut fleet, mut engine, counters, open_io_ns), setups) = ctx.set_up(
            SETUPS,
            traced_round,
            |k| {
                let counters = Rc::new(RefCell::new(StorageCounters::default()));
                let mut fleet = open_fleet(&setup_dir(k), size, &counters, traced_round)?;
                // Storage time spent opening the fleet is outside every span.
                let open_io_ns = counters.borrow().other_io_ns;
                let config = ShardedEngineConfig::default();
                let mut engine =
                    ShardedFleetEngine::new(CodecBuilder::new(), config).map_err(fail("engine"))?;
                ingest_batch(&mut engine, &mut fleet, &warm, tracer, u64::MAX)?;
                Ok((fleet, engine, counters, open_io_ns))
            },
            // Dropping closes the files; the round removes its directory.
            |_| Ok(()),
        )?;
        let dir = setup_dir(setups.len() - 1);

        let mut round = Round::after_setup(setups);
        let mut pool_threads = 0u64;
        let mut latencies = Vec::with_capacity(batches as usize);
        for b in 0..batches {
            let gen = crate::sys::thread_cpu_s();
            let lo = b * size.batch;
            let batch = batch_inputs(ctx.seed, lo..(lo + size.batch).min(size.houses));
            report.generator_cpu_s += crate::sys::thread_cpu_s() - gen;
            let cpu = CpuMark::now();
            let t0 = Instant::now();
            ingest_batch(&mut engine, &mut fleet, &batch, tracer, b)?;
            let dt = t0.elapsed().as_secs_f64();
            round.sut_cpu_s += cpu.since().0;
            round.timed_s += dt;
            latencies.push(dt * 1e3);
            round.ops += batch.len() as u64 * SAMPLES_PER_DAY as u64;
            pool_threads += shards_touched(engine.router(), &batch);
            if b % PROBE_EVERY == 0 {
                round.probe();
            }
        }
        round.latency = Latency::of(latencies);
        report.attempted += round.ops;

        // Checks: every shard recovers from its files to the live image,
        // and a sample of houses reads back as a serial encode would.
        let durable = fleet.stats();
        let shard_stats = engine.stats();
        let pool = engine.pool_stats();
        let live: Vec<(Vec<u8>, u64, u64)> = fleet
            .into_shards()
            .iter()
            .map(|s| {
                (s.store().to_bytes(), s.store().arena_bytes(), s.store().segment_count() as u64)
            })
            .collect();
        let mut recovered = Vec::with_capacity(SHARDS);
        let t = Instant::now();
        for (s, (image, _, _)) in live.iter().enumerate() {
            let fs = FsStorage::new(dir.join(format!("shard{s}"))).map_err(fail("storage"))?;
            let (store, rep) =
                DurableStore::open(fs, durable_config(size)).map_err(fail("recovery"))?;
            if !rep.recovered || rep.discarded != 0 || store.store().to_bytes() != *image {
                return Err(format!("shard {s}: recovered image differs from the live one"));
            }
            recovered.push(store);
        }
        let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
        let router = ShardRouter::new(SHARDS).map_err(fail("router"))?;
        let (mut err, mut checked) = (0.0, 0u64);
        for house in (0..size.houses).step_by(size.verify_every as usize) {
            err += check_house(ctx.seed, house, recovered[router.route(house)].store_mut())?;
            checked += SAMPLES_PER_DAY as u64;
        }
        drop(recovered);
        std::fs::remove_dir_all(&round_dir).map_err(fail("remove round directory"))?;

        let c = counters.borrow().clone();
        let image: u64 = live.iter().map(|l| l.0.len() as u64).sum();
        let arena: u64 = live.iter().map(|l| l.1).sum();
        let segments: u64 = live.iter().map(|l| l.2).sum();
        if segments != size.houses + size.warmup {
            return Err(format!(
                "{segments} segments stored for {} houses",
                size.houses + size.warmup
            ));
        }
        let per_sample = |bytes: u64| bytes as f64 / samples as f64;
        let counts = Counts::from([
            ("samples_per_round", samples as f64),
            ("stored_bytes_per_sample", per_sample(image)),
            ("written_bytes_per_sample", per_sample(c.bytes_appended)),
            ("recon_mae_w", err / checked as f64),
            ("segstore.payload_bytes_per_sample", per_sample(arena)),
            ("segstore.meta_bytes_per_sample", per_sample(image - arena)),
            ("durable.wal_bytes_per_sample", per_sample(c.wal_bytes)),
            ("durable.checkpoint_bytes_per_sample", per_sample(c.checkpoint_bytes)),
            ("durable.checkpoints", durable.checkpoints as f64),
            ("durable.fsyncs_per_batch", durable.fsyncs as f64 / (batches + 1) as f64),
            ("storage.append_calls", c.append_calls as f64),
            ("storage.bytes_appended", c.bytes_appended as f64),
            ("shard.cache_misses", shard_stats.cache_misses as f64),
            (
                "shard.cache_hit_ratio",
                shard_stats.cache_hits as f64 / shard_stats.houses_routed as f64,
            ),
            ("shard.cache_evictions", shard_stats.cache_evictions as f64),
            ("pool.panics", pool.panics as f64),
            ("pool.retries", pool.retries as f64),
        ]);
        report.check_counts(r, counts.clone())?;
        last_counts = counts;
        threads_per_batch = pool_threads as f64 * pool.workers as f64 / batches as f64;
        if tracer.on() {
            traced.rounds += 1.0;
            traced.recovery_ms += recovery_ms;
            traced.merge_wait_ms += shard_stats.merge_wait_secs * 1e3;
            // Depends on how the pool's threads were scheduled.
            traced.max_queue_depth = pool.max_queue_depth as f64;
            traced.sync_ns.extend(&c.sync_ns);
            traced.wal_io_ns += c.wal_io_ns as f64;
            traced.other_io_ns += (c.other_io_ns - open_io_ns) as f64;
        }
        Ok(round)
    })?;

    if ctx.trace {
        let n = traced.rounds;
        let rep = replay(ctx.seed, size)?;
        // Spans cover the warm-up batch too, and so does the replay.
        let (samples, segments) = (samples as f64, (size.houses + size.warmup) as f64);
        let per_round_ms = |name: &str| tracer.agg(name).total_ns as f64 / 1e6 / n;
        let encode_batch_ms = per_round_ms("shard.encode_batch");
        let (plain, ckpt) = (tracer.agg("durable.append"), tracer.agg("durable.append+checkpoint"));
        let append_ms = per_round_ms("durable.append") + per_round_ms("durable.append+checkpoint");
        let commit_ms = per_round_ms("durable.commit");
        let wal_io_ms = traced.wal_io_ns / 1e6 / n;
        let other_io_ms = traced.other_io_ns / 1e6 / n;
        // A checkpointing append costs a plain append plus the checkpoint.
        let ckpt_ms = (ckpt.total_ns as f64
            - ckpt.calls as f64 * plain.total_ns as f64 / plain.calls.max(1) as f64)
            / 1e6
            / n;
        let durable_self_ms =
            append_ms + commit_ms - (rep.segstore + rep.pack) / 1e6 - wal_io_ms - ckpt_ms;
        let l = &mut report.layers;
        for (name, v) in &last_counts {
            if name.contains('.') {
                l.insert(name, *v);
            }
        }
        l.insert(
            "shard.self_ns_per_sample",
            (encode_batch_ms * 1e6 - rep.train - rep.encode) / samples,
        );
        l.insert("shard.merge_wait_ms", traced.merge_wait_ms / n);
        l.insert("pool.threads_per_batch", threads_per_batch);
        l.insert("pool.max_queue_depth", traced.max_queue_depth);
        l.insert("separators.train_ns_per_sample", rep.train / samples);
        l.insert("lookup.encode_ns_per_sample", rep.encode / samples);
        l.insert("segstore.append_ns_per_segment", rep.segstore / segments);
        l.insert("segstore.pack_ns_per_segment", rep.pack / segments);
        l.insert(
            "durable.append_ns_per_record",
            (plain.total_ns + ckpt.total_ns) as f64 / (plain.calls + ckpt.calls) as f64,
        );
        l.insert("segstore.read_us_p50", median(&rep.reads) / 1e3);
        l.insert("segstore.prefix_us_p50", median(&rep.prefixes) / 1e3);
        l.insert("segstore.aggregate_us_p50", median(&rep.aggregates) / 1e3);
        l.insert("segstore.pruned_ratio", rep.pruned_ratio);
        l.insert("segstore.load_ms", rep.load / 1e6);
        l.insert("durable.commit_us_p50", tracer.agg("durable.commit").p50_ns() / 1e3);
        l.insert("durable.recovery_ms", traced.recovery_ms / n);
        let sync: Vec<f64> = traced.sync_ns.iter().map(|&s| s as f64 / 1e3).collect();
        l.insert("storage.sync_us_p50", if sync.is_empty() { 0.0 } else { median(&sync) });
        report.time_table = vec![
            ("separators train".into(), rep.train / 1e6, "CodecBuilder::train replay".into()),
            ("lookup encode".into(), rep.encode / 1e6, "SymbolicCodec::encode replay".into()),
            (
                "shard + pool orchestration".into(),
                encode_batch_ms - (rep.train + rep.encode) / 1e6,
                "encode_batch span minus train and encode replays".into(),
            ),
            (
                "segstore append (packs once)".into(),
                rep.segstore / 1e6,
                "SegmentStore::append replay".into(),
            ),
            (
                "WAL record packing (second pack)".into(),
                rep.pack / 1e6,
                "SymbolicSeries::pack_symbols replay".into(),
            ),
            (
                "durable WAL records + commit".into(),
                durable_self_ms,
                "append and commit spans minus segstore, pack, WAL I/O, checkpoints".into(),
            ),
            (
                "durable checkpoints (minus I/O)".into(),
                ckpt_ms - other_io_ms,
                "checkpointing appends minus a plain append each, minus their file I/O".into(),
            ),
            ("storage WAL append + fsync".into(), wal_io_ms, "counting Storage wrapper".into()),
            (
                "storage checkpoint + manifest I/O".into(),
                other_io_ms,
                "counting Storage wrapper".into(),
            ),
        ];
    }
    Ok(report)
}
