//! `daily_drift`: a fleet that fits the table cache sends one batch per day
//! for several weeks; half-way through, every house gains 450 W of
//! always-on load. `ShardedFleetEngine` runs with a fixed `DriftConfig`
//! and writes through `SegmentStore::append_epoch`.
//!
//! Set-up is the paper's training window, the first two days of every
//! house, as one batch. Each later day is one batch of the whole fleet. An
//! op is a raw sample committed; a latency sample is one day's batch.

use std::time::Instant;

use sms_core::adaptive::DriftDetector;
use sms_core::lookup::SymbolSemantics;
use sms_core::pipeline::{CodecBuilder, SymbolicCodec};
use sms_core::segstore::SegmentStore;
use sms_core::shard::{DriftConfig, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::timeseries::TimeSeries;

use crate::inputs::{self, DAY_SECS, SAMPLES_PER_DAY};
use crate::report::{Counts, Latency, Report, Round};
use crate::sys::CpuMark;
use crate::trace::Tracer;
use crate::{fail, shards_touched, Ctx};

/// Days of the training window.
const TRAIN_DAYS: u64 = 2;
/// Set-ups per untraced round: the last one is the system the round times.
const SETUPS: usize = 8;

pub struct Size {
    pub houses: u64,
    /// Days in all, training window included.
    pub days: u64,
    /// First day with the extra load.
    pub shift_day: u64,
}

impl Size {
    pub fn full() -> Self {
        Size { houses: 256, days: 28, shift_day: 14 }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Size { houses: 16, days: 28, shift_day: 14 }
    }
}

fn inputs_for(seed: u64, size: &Size, first_day: u64, days: u64) -> Vec<(u64, TimeSeries)> {
    (0..size.houses)
        .map(|h| (h, inputs::house_series(seed, h, first_day, days, Some(size.shift_day))))
        .collect()
}

/// The day each house entered each epoch: `cutovers[h][e]` is the first
/// day of epoch `e` (epoch 0 starts on day 0).
type Cutovers = Vec<Vec<u64>>;

fn encode_day(
    engine: &mut ShardedFleetEngine,
    store: &mut SegmentStore,
    batch: &[(u64, TimeSeries)],
    day: u64,
    cutovers: &mut Cutovers,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let enc = tracer.span("shard.encode_batch", op, || engine.encode_batch(batch));
    let enc = enc.map_err(fail("encode_batch"))?;
    if let Some(q) = enc.quarantined.first() {
        return Err(format!("house {} quarantined: {:?}", batch[q.house].0, q.reason));
    }
    for (((house, _), series), &epoch) in batch.iter().zip(&enc.series).zip(&enc.epochs) {
        let seen = &mut cutovers[*house as usize];
        if epoch as usize == seen.len() {
            seen.push(day);
        } else if epoch as usize != seen.len() - 1 {
            return Err(format!("house {house} skipped from epoch {} to {epoch}", seen.len() - 1));
        }
        let span = tracer.begin("segstore.append_epoch", op);
        store.append_epoch(*house, epoch, series).map_err(fail("append_epoch"))?;
        tracer.end(span);
    }
    Ok(())
}

/// The codec of each epoch: epoch 0 trains on the training window, and a
/// cutover retrains on the batch that triggered it.
fn epoch_codecs(
    seed: u64,
    size: &Size,
    house: u64,
    cut: &[u64],
) -> Result<Vec<SymbolicCodec>, String> {
    cut.iter()
        .map(|&day| {
            let days = if day == 0 { TRAIN_DAYS } else { 1 };
            let ts = inputs::house_series(seed, house, day, days, Some(size.shift_day));
            CodecBuilder::new().train(&ts).map_err(fail("train"))
        })
        .collect()
}

/// Checks the cutover rule and each stored day against a serial encode
/// under its epoch's codec; returns the reconstruction error sum.
fn check_house(
    seed: u64,
    size: &Size,
    store: &mut SegmentStore,
    house: u64,
    cut: &[u64],
) -> Result<f64, String> {
    if cut.len() < 2 {
        return Err(format!("house {house} never cut over after the shift"));
    }
    if cut[1] < size.shift_day {
        return Err(format!("house {house} cut over on day {} before the shift", cut[1]));
    }
    let codecs = epoch_codecs(seed, size, house, cut)?;
    let mut err = 0.0;
    let mut day = 0;
    while day < size.days {
        let days = if day == 0 { TRAIN_DAYS } else { 1 };
        let epoch = cut.iter().rposition(|&d| d <= day).expect("epoch 0 starts on day 0");
        let ts = inputs::house_series(seed, house, day, days, Some(size.shift_day));
        let expect = codecs[epoch].encode(&ts).map_err(fail("encode"))?;
        let (t0, t1) = ((day * DAY_SECS as u64) as i64, ((day + days) as i64) * DAY_SECS - 1);
        let bits = expect.resolution_bits();
        let got = store
            .read_epoch_truncated(house, epoch as u32, t0, t1, bits)
            .map_err(fail("read_epoch_truncated"))?;
        if got != expect {
            return Err(format!("house {house} day {day}: epoch {epoch} segment differs"));
        }
        let decoded =
            codecs[epoch].decode(&got, SymbolSemantics::RangeMean).map_err(fail("decode"))?;
        err += ts.values().iter().zip(decoded.values()).map(|(a, b)| (a - b).abs()).sum::<f64>();
        day += days;
    }
    Ok(err)
}

/// Replays the drift pre-pass, training, encoding and packing over one
/// round's inputs, in ns: `[push, statistic calls, statistic, train,
/// encode, pack]`. Building a house's detector from its training window
/// counts as push.
fn replay(seed: u64, size: &Size, cutovers: &Cutovers) -> Result<[f64; 6], String> {
    let mut out = [0.0; 6];
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    for house in 0..size.houses {
        let cut = &cutovers[house as usize];
        let ts = inputs::house_series(seed, house, 0, TRAIN_DAYS, Some(size.shift_day));
        let t = Instant::now();
        let mut detector = DriftDetector::new(&ts.values(), DriftConfig::default().window)
            .map_err(fail("detector"))?;
        out[0] += ns(t);
        let t = Instant::now();
        let mut codec = CodecBuilder::new().train(&ts).map_err(fail("train"))?;
        out[3] += ns(t);
        let t = Instant::now();
        let series = codec.encode(&ts).map_err(fail("encode"))?;
        out[4] += ns(t);
        let t = Instant::now();
        std::hint::black_box(series.pack_symbols());
        out[5] += ns(t);
        for day in TRAIN_DAYS..size.days {
            let ts = inputs::house_series(seed, house, day, 1, Some(size.shift_day));
            let values = ts.values();
            let t = Instant::now();
            for &v in &values {
                detector.push(v);
            }
            out[0] += ns(t);
            let t = Instant::now();
            std::hint::black_box(detector.statistic());
            out[2] += ns(t);
            out[1] += 1.0;
            if cut.contains(&day) {
                detector.rebase();
                let t = Instant::now();
                codec = CodecBuilder::new().train(&ts).map_err(fail("train"))?;
                out[3] += ns(t);
            }
            let t = Instant::now();
            let series = codec.encode(&ts).map_err(fail("encode"))?;
            out[4] += ns(t);
            let t = Instant::now();
            std::hint::black_box(series.pack_symbols());
            out[5] += ns(t);
        }
    }
    Ok(out)
}

pub fn run(ctx: &Ctx, size: &Size, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let samples = size.houses * size.days * SAMPLES_PER_DAY as u64;
    let timed_samples = size.houses * (size.days - TRAIN_DAYS) * SAMPLES_PER_DAY as u64;
    report.notes.push(format!(
        "{} houses, {} days ({TRAIN_DAYS}-day training window in set-up), +{} W from day {}; \
         {:?}; one batch of the whole fleet per day",
        size.houses,
        size.days,
        inputs::DRIFT_SHIFT_W,
        size.shift_day,
        DriftConfig::default()
    ));
    report.input_digest = (0..size.houses.min(16)).fold(0, |h, house| {
        let v = inputs::day_values(ctx.seed, house, size.shift_day, inputs::DRIFT_SHIFT_W);
        inputs::digest(h, v.iter().map(|x| x.to_bits()))
    });
    // The last round's counts and cutovers; over traced rounds, the merge
    // wait and the last pool queue depth.
    let (mut counts_seen, mut cutovers_seen) = (Counts::new(), Vec::new());
    let (mut merge_wait_ms, mut max_queue_depth) = (0.0, 0.0);

    ctx.rounds(tracer, &mut report, |r, tracer, report| {
        let training = inputs_for(ctx.seed, size, 0, TRAIN_DAYS);
        let ((mut engine, mut store, mut cutovers), setups) = ctx.set_up(
            SETUPS,
            tracer.on(),
            |_| {
                let mut cutovers: Cutovers = vec![Vec::new(); size.houses as usize];
                let config = ShardedEngineConfig::default().drift(DriftConfig::default());
                let mut engine =
                    ShardedFleetEngine::new(CodecBuilder::new(), config).map_err(fail("engine"))?;
                let mut store = SegmentStore::new();
                encode_day(&mut engine, &mut store, &training, 0, &mut cutovers, tracer, 0)?;
                Ok((engine, store, cutovers))
            },
            |_| Ok(()),
        )?;
        drop(training);

        let mut round = Round::after_setup(setups);
        let (mut threads, mut batches) = (0, 0u64);
        let mut latencies = Vec::new();
        for day in TRAIN_DAYS..size.days {
            let gen = crate::sys::thread_cpu_s();
            let batch = inputs_for(ctx.seed, size, day, 1);
            report.generator_cpu_s += crate::sys::thread_cpu_s() - gen;
            let cpu = CpuMark::now();
            let t0 = Instant::now();
            encode_day(&mut engine, &mut store, &batch, day, &mut cutovers, tracer, day)?;
            let dt = t0.elapsed().as_secs_f64();
            round.sut_cpu_s += cpu.since().0;
            round.timed_s += dt;
            latencies.push(dt * 1e3);
            round.ops += batch.len() as u64 * SAMPLES_PER_DAY as u64;
            threads += shards_touched(engine.router(), &batch);
            batches += 1;
            round.probe();
        }
        round.latency = Latency::of(latencies);
        report.attempted += round.ops;

        let image = store.to_bytes().len() as u64;
        let empty = SegmentStore::new().to_bytes().len() as u64;
        let arena = store.arena_bytes();
        let mut err = 0.0;
        for house in 0..size.houses {
            err += check_house(ctx.seed, size, &mut store, house, &cutovers[house as usize])?;
        }
        let adaptive = engine.adaptive_stats();
        let shard = engine.stats();
        let pool = engine.pool_stats();
        let first_cut = cutovers.iter().map(|c| c[1]).min().expect("houses") as f64;
        let per_sample = |bytes: u64| bytes as f64 / samples as f64;
        let counts = Counts::from([
            ("samples_per_round", samples as f64),
            ("stored_bytes_per_sample", per_sample(image)),
            ("written_bytes_per_sample", per_sample(image - empty)),
            ("recon_mae_w", err / samples as f64),
            ("first_cutover_day", first_cut),
            ("epochs_total", cutovers.iter().map(|c| c.len() as f64).sum()),
            ("adaptive.rebuilds", adaptive.rebuilds as f64),
            ("adaptive.suppressed_hysteresis", adaptive.suppressed_hysteresis as f64),
            ("adaptive.suppressed_min_interval", adaptive.suppressed_min_interval as f64),
            ("adaptive.sketch_bytes", adaptive.sketch_bytes as f64),
            ("segstore.payload_bytes_per_sample", per_sample(arena)),
            ("segstore.meta_bytes_per_sample", per_sample(image - arena)),
            ("shard.cache_hit_ratio", shard.cache_hits as f64 / shard.houses_routed as f64),
            ("shard.cache_evictions", shard.cache_evictions as f64),
            ("pool.threads_per_batch", threads as f64 * pool.workers as f64 / batches as f64),
            ("pool.panics", pool.panics as f64),
            ("pool.retries", pool.retries as f64),
        ]);
        report.check_counts(r, counts.clone())?;
        if tracer.on() {
            merge_wait_ms += shard.merge_wait_secs * 1e3;
            // Depends on how the pool's threads were scheduled.
            max_queue_depth = pool.max_queue_depth as f64;
        }
        counts_seen = counts;
        cutovers_seen = cutovers;
        Ok(round)
    })?;

    if ctx.trace {
        let n = report.rounds.iter().filter(|r| r.traced).count() as f64;
        let [push, stat_calls, stat, train, encode, pack] = replay(ctx.seed, size, &cutovers_seen)?;
        let per_round_ms = |name: &str| tracer.agg(name).total_ns as f64 / 1e6 / n;
        let encode_batch_ms = per_round_ms("shard.encode_batch");
        let append = tracer.agg("segstore.append_epoch");
        let timed = timed_samples as f64;
        let all = samples as f64;
        let l = &mut report.layers;
        for (name, v) in &counts_seen {
            if name.contains('.') {
                l.insert(name, *v);
            }
        }
        l.insert("pool.max_queue_depth", max_queue_depth);
        l.insert(
            "shard.self_ns_per_sample",
            (encode_batch_ms * 1e6 - push - stat - train - encode) / all,
        );
        l.insert("shard.merge_wait_ms", merge_wait_ms / n);
        l.insert("separators.train_ns_per_sample", train / all);
        l.insert("lookup.encode_ns_per_sample", encode / all);
        l.insert("adaptive.statistic_us_per_call", stat / stat_calls / 1e3);
        l.insert("adaptive.push_ns_per_sample", push / timed);
        let segments_per_round = append.calls as f64 / n;
        l.insert("segstore.append_ns_per_segment", append.total_ns as f64 / append.calls as f64);
        l.insert("segstore.pack_ns_per_segment", pack / segments_per_round);
        report.time_table = vec![
            ("adaptive push".into(), push / 1e6, "DriftDetector::push replay".into()),
            ("adaptive statistic".into(), stat / 1e6, "DriftDetector::statistic replay".into()),
            ("separators train".into(), train / 1e6, "CodecBuilder::train replay".into()),
            ("lookup encode".into(), encode / 1e6, "SymbolicCodec::encode replay".into()),
            (
                "shard + pool + drift bookkeeping".into(),
                encode_batch_ms - (push + stat + train + encode) / 1e6,
                "encode_batch span minus the replays".into(),
            ),
            ("segstore append_epoch".into(), per_round_ms("segstore.append_epoch"), "span".into()),
        ];
    }
    Ok(report)
}
