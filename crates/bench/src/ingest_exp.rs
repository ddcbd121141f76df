//! §2.3's sensor→server link made hostile: the `ingest` experiment.
//!
//! The paper motivates symbols by the cost of shipping meter data to a
//! server; this experiment reproduces that link end to end and then attacks
//! it. Each meter of a synthetic fleet encodes its own readings with an
//! [`OnlineEncoder`] (the paper's online conversion, run on the sensor),
//! each meter's table + window messages are serialized to the
//! length-prefixed wire format, a deterministic
//! [`FaultInjector`] corrupts the byte streams (bit flips, truncation,
//! duplication), delivery is split at random mid-frame boundaries, and the
//! server-side [`FleetIngest`] gateway decodes what survives. The
//! [`IngestStats`](sms_core::ingest::IngestStats) counter block lands in
//! [`EngineStats`] JSON, which `repro ingest [--faults]` prints.
//!
//! The injector also owns the *compute-level* fault vocabulary
//! ([`SeriesFault`]): NaN runs, gaps, duplicated sample runs and reset
//! spikes applied to the generated series themselves, which the
//! `repro quality [--faults]` experiment (see [`crate::quality_exp`]) feeds
//! through the sanitizing, panic-isolating fleet engine.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::scale::Scale;
use meterdata::generator::fleet_series;
use sms_core::encoder::{OnlineEncoder, SensorMessage};
use sms_core::engine::EngineStats;
use sms_core::error::Result;
use sms_core::ingest::{FleetIngest, IngestConfig};
use sms_core::pipeline::{CodecBuilder, VerticalPolicy};
use sms_core::separators::SeparatorMethod;
use sms_core::telemetry::Log2Histogram;
use sms_core::timeseries::Sample;
use sms_core::wire::encode_message;

/// One kind of deterministic wire-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR one random bit of one random byte (line noise).
    BitFlip,
    /// Remove a short random byte range (lossy transport, reconnect gaps).
    Truncate,
    /// Re-insert a copy of a short random byte range right after itself
    /// (retransmission without dedup).
    Duplicate,
}

/// All fault kinds, in the order [`FaultInjector::apply_nth`] cycles them.
pub const ALL_FAULTS: [Fault; 3] = [Fault::BitFlip, Fault::Truncate, Fault::Duplicate];

/// Longest byte range a single truncation/duplication touches.
const MAX_FAULT_SPAN: usize = 24;

/// One kind of deterministic sample-level (compute) fault, mirroring the
/// defect taxonomy of [`sms_core::quality`]: these corrupt the *data* a
/// house hands the encoder, where [`Fault`] corrupts the *bytes* it ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFault {
    /// Overwrite a short run of values with `NaN` (sensor glitch).
    NanRun,
    /// Delete a short run of samples (outage / reporting gap).
    Gap,
    /// Re-insert a copy of a short sample run with identical timestamps
    /// (retransmission without dedup, now at the sample level).
    DuplicateRun,
    /// A meter-reset artifact: one implausibly huge spike followed by a
    /// negative reading.
    ResetSpike,
}

/// All series fault kinds, in the order
/// [`FaultInjector::corrupt_series_nth`] cycles them.
pub const ALL_SERIES_FAULTS: [SeriesFault; 4] =
    [SeriesFault::NanRun, SeriesFault::Gap, SeriesFault::DuplicateRun, SeriesFault::ResetSpike];

/// Longest sample run a single series fault touches.
const MAX_SERIES_SPAN: usize = 8;

/// One kind of deterministic storage-level fault, expressed as a
/// [`sms_core::durable::FaultPlan`] for the durable layer's
/// [`FaultStorage`](sms_core::durable::FaultStorage) backend: where [`Fault`]
/// corrupts bytes *in flight* and [`SeriesFault`] corrupts samples *before
/// encoding*, these corrupt bytes *at rest* — a disk that dies mid-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The backend fails hard at a seeded mutating call (power loss).
    FailAtOp,
    /// The crashing append persists a seeded prefix of its bytes before
    /// failing (a short write into the log tail).
    ShortWrite,
    /// Like [`StorageFault::ShortWrite`], but the last surviving un-synced
    /// byte is also bit-flipped, so recovery must take the CRC path rather
    /// than the short-record path.
    TornTail,
}

/// All storage fault kinds, in the order
/// [`FaultInjector::storage_plan_nth`] cycles them.
pub const ALL_STORAGE_FAULTS: [StorageFault; 3] =
    [StorageFault::FailAtOp, StorageFault::ShortWrite, StorageFault::TornTail];

/// Longest short-write prefix a storage fault keeps.
const MAX_SHORT_WRITE_KEEP: u64 = 32;

/// Wattage of an injected reset spike — far above any plausible household
/// draw, so the sanitizer's spike policy always sees it.
pub const RESET_SPIKE_WATTS: f64 = 5.0e6;

/// Seeded source of reproducible wire corruption and chunked delivery.
///
/// Every draw comes from one [`StdRng`], so a `(seed, call sequence)` pair
/// always produces the same mutations — failures found by the fuzz tests
/// replay exactly.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector with a fully deterministic stream.
    pub fn new(seed: u64) -> Self {
        FaultInjector { rng: StdRng::seed_from_u64(seed) }
    }

    /// Applies `fault` at a seeded position, returning the offset of the
    /// first byte affected (`0` on an empty buffer, which is left alone).
    pub fn apply(&mut self, fault: Fault, wire: &mut Vec<u8>) -> usize {
        if wire.is_empty() {
            return 0;
        }
        match fault {
            Fault::BitFlip => {
                let i = self.rng.gen_range(0..wire.len());
                let bit = self.rng.gen_range(0..8u32);
                wire[i] ^= 1 << bit;
                i
            }
            Fault::Truncate => {
                let i = self.rng.gen_range(0..wire.len());
                let n = self.rng.gen_range(1..=MAX_FAULT_SPAN.min(wire.len() - i));
                wire.drain(i..i + n);
                i
            }
            Fault::Duplicate => {
                let i = self.rng.gen_range(0..wire.len());
                let n = self.rng.gen_range(1..=MAX_FAULT_SPAN.min(wire.len() - i));
                let dup: Vec<u8> = wire[i..i + n].to_vec();
                wire.splice(i + n..i + n, dup);
                i
            }
        }
    }

    /// Applies the `n`-th fault of the cycling schedule
    /// (flip, truncate, duplicate, flip, …); see [`apply`](Self::apply).
    pub fn apply_nth(&mut self, n: u64, wire: &mut Vec<u8>) -> (Fault, usize) {
        let fault = ALL_FAULTS[(n % ALL_FAULTS.len() as u64) as usize];
        (fault, self.apply(fault, wire))
    }

    /// Applies `fault` to `samples` at a seeded position, returning the
    /// index of the first sample affected (`0` on an empty series, which is
    /// left alone). `DuplicateRun` and `NanRun` leave timestamps sorted but
    /// violate the clean-series invariants, so callers must rebuild through
    /// [`sms_core::timeseries::TimeSeries::from_samples_unchecked`].
    pub fn corrupt_series(&mut self, fault: SeriesFault, samples: &mut Vec<Sample>) -> usize {
        if samples.is_empty() {
            return 0;
        }
        match fault {
            SeriesFault::NanRun => {
                let i = self.rng.gen_range(0..samples.len());
                let n = self.rng.gen_range(1..=MAX_SERIES_SPAN.min(samples.len() - i));
                for s in &mut samples[i..i + n] {
                    s.v = f64::NAN;
                }
                i
            }
            SeriesFault::Gap => {
                // Keep at least one sample so the house stays non-empty.
                if samples.len() == 1 {
                    return 0;
                }
                let i = self.rng.gen_range(0..samples.len() - 1);
                let n = self.rng.gen_range(1..=MAX_SERIES_SPAN.min(samples.len() - 1 - i).max(1));
                samples.drain(i..i + n);
                i
            }
            SeriesFault::DuplicateRun => {
                let i = self.rng.gen_range(0..samples.len());
                let n = self.rng.gen_range(1..=MAX_SERIES_SPAN.min(samples.len() - i));
                let dup: Vec<Sample> = samples[i..i + n].to_vec();
                samples.splice(i + n..i + n, dup);
                i
            }
            SeriesFault::ResetSpike => {
                let i = self.rng.gen_range(0..samples.len());
                samples[i].v = RESET_SPIKE_WATTS;
                if i + 1 < samples.len() {
                    samples[i + 1].v = -samples[i + 1].v.abs().max(1.0);
                }
                i
            }
        }
    }

    /// Applies the `n`-th series fault of the cycling schedule
    /// (NaN, gap, duplicate, reset, NaN, …); see
    /// [`corrupt_series`](Self::corrupt_series).
    pub fn corrupt_series_nth(
        &mut self,
        n: u64,
        samples: &mut Vec<Sample>,
    ) -> (SeriesFault, usize) {
        let fault = ALL_SERIES_FAULTS[(n % ALL_SERIES_FAULTS.len() as u64) as usize];
        (fault, self.corrupt_series(fault, samples))
    }

    /// Builds a seeded [`sms_core::durable::FaultPlan`] for `fault`,
    /// crashing at a mutating call drawn from `1..=max_ops` (`max_ops` is
    /// clamped to at least 1). The tear seed comes from the same RNG stream
    /// as every other draw, so a `(seed, call sequence)` pair replays the
    /// exact crash.
    pub fn storage_plan(
        &mut self,
        fault: StorageFault,
        max_ops: u64,
    ) -> sms_core::durable::FaultPlan {
        let op = self.rng.gen_range(1..=max_ops.max(1));
        let mut plan = sms_core::durable::FaultPlan::crash_at(op, self.rng.next_u64());
        match fault {
            StorageFault::FailAtOp => {}
            StorageFault::ShortWrite => {
                plan.short_write_keep = Some(self.rng.gen_range(0..=MAX_SHORT_WRITE_KEEP));
            }
            StorageFault::TornTail => {
                plan.short_write_keep = Some(self.rng.gen_range(0..=MAX_SHORT_WRITE_KEEP));
                plan.corrupt_torn_byte = true;
            }
        }
        plan
    }

    /// Builds the `n`-th storage plan of the cycling schedule
    /// (fail, short-write, torn-tail, fail, …); see
    /// [`storage_plan`](Self::storage_plan).
    pub fn storage_plan_nth(
        &mut self,
        n: u64,
        max_ops: u64,
    ) -> (StorageFault, sms_core::durable::FaultPlan) {
        let fault = ALL_STORAGE_FAULTS[(n % ALL_STORAGE_FAULTS.len() as u64) as usize];
        (fault, self.storage_plan(fault, max_ops))
    }

    /// Draws `count` distinct house indices out of `0..n_houses`
    /// (deterministic per seed; fewer when `count > n_houses`).
    pub fn pick_houses(&mut self, n_houses: usize, count: usize) -> BTreeSet<usize> {
        let mut picked = BTreeSet::new();
        if n_houses == 0 {
            return picked;
        }
        // Rejection sampling keeps draws independent of `count`'s order of
        // magnitude; bounded because count is capped at n_houses.
        let count = count.min(n_houses);
        while picked.len() < count {
            picked.insert(self.rng.gen_range(0..n_houses));
        }
        picked
    }

    /// Splits `total` bytes into random delivery chunk lengths in
    /// `1..=max_chunk` — guaranteed to land mid-frame regularly, which is
    /// what stresses a streaming decoder's buffering.
    pub fn chunk_lens(&mut self, total: usize, max_chunk: usize) -> Vec<usize> {
        let max_chunk = max_chunk.max(1);
        let mut lens = Vec::new();
        let mut remaining = total;
        while remaining > 0 {
            let n = self.rng.gen_range(1..=max_chunk.min(remaining));
            lens.push(n);
            remaining -= n;
        }
        lens
    }
}

/// Outcome of one `ingest` experiment run.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Whether the transport was faulted.
    pub faults: bool,
    /// Meters in the fleet.
    pub houses: usize,
    /// Frames serialized sensor-side (tables + windows).
    pub frames_sent: u64,
    /// Faults injected across the fleet's byte streams.
    pub faults_injected: u64,
    /// Messages the server-side gateways decoded.
    pub messages_decoded: u64,
    /// Engine counters with the [`ingest`](EngineStats::ingest) block set.
    pub stats: EngineStats,
}

/// Runs the sensor→wire→fault→server pipeline at `scale`.
pub fn run_ingest(scale: Scale, faults: bool) -> Result<IngestReport> {
    let houses = if scale.days >= 30 { 24 } else { 8 };
    let fleet =
        fleet_series(scale.seed, houses as u32, scale.days.clamp(1, 7), scale.interval_secs)?;

    // Stage 1 — train a shared table.
    let t_train = Instant::now();
    let codec = CodecBuilder::new()
        .method(SeparatorMethod::Median)
        .alphabet_size(16)?
        .window_secs(3600)
        .train(&fleet[0])?;
    let train_secs = t_train.elapsed().as_secs_f64();
    let VerticalPolicy::Window { window_secs, min_samples } = codec.vertical_policy() else {
        unreachable!("the codec is built with a wall-clock window");
    };

    // Stage 2 — each meter encodes its own readings online and serializes
    // its stream: the table first, then one frame per closed window.
    let t_encode = Instant::now();
    let table_frame = encode_message(&SensorMessage::Table(codec.table().clone()))?;
    let mut wires: Vec<Vec<u8>> = Vec::with_capacity(houses);
    let mut symbols_out = 0u64;
    let mut house_samples = Log2Histogram::new();
    let mut house_symbols = Log2Histogram::new();
    for series in &fleet {
        let mut encoder =
            OnlineEncoder::new(codec.table().clone(), window_secs, codec.aggregation())?
                .with_min_samples(min_samples);
        let mut wire = table_frame.clone();
        let mut windows = 0u64;
        for (t, v) in series.iter() {
            if let Some(window) = encoder.push(t, v)? {
                wire.extend(encode_message(&SensorMessage::Window(window))?);
                windows += 1;
            }
        }
        if let Some(window) = encoder.finish() {
            wire.extend(encode_message(&SensorMessage::Window(window))?);
            windows += 1;
        }
        symbols_out += windows;
        house_samples.observe(series.len() as u64);
        house_symbols.observe(windows);
        wires.push(wire);
    }
    let encode_secs = t_encode.elapsed().as_secs_f64();
    let samples_in: u64 = fleet.iter().map(|s| s.len() as u64).sum();
    let frames_sent = houses as u64 + symbols_out;

    // Stage 3 — deterministic corruption, roughly one fault per 1.5 kB.
    let mut injector = FaultInjector::new(scale.seed ^ 0x1B4D_F00D);
    let mut faults_injected = 0u64;
    if faults {
        for wire in &mut wires {
            let n = 1 + (wire.len() / 1500) as u64;
            for _ in 0..n {
                injector.apply_nth(faults_injected, wire);
                faults_injected += 1;
            }
        }
    }

    // Stage 4 — server-side decode through per-meter gateways, delivered in
    // random chunks that split frames mid-header and mid-payload.
    let mut gateway = FleetIngest::new(IngestConfig::default().max_frame_len(1 << 16));
    let mut messages_decoded = 0u64;
    for (house, wire) in wires.iter().enumerate() {
        let mut offset = 0usize;
        for len in injector.chunk_lens(wire.len(), 777) {
            messages_decoded +=
                gateway.ingest(house as u64, &wire[offset..offset + len])?.len() as u64;
            offset += len;
        }
    }

    let stats = EngineStats {
        workers: 1,
        houses,
        samples_in,
        symbols_out,
        train_secs,
        encode_secs,
        ingest: Some(gateway.stats()),
        house_samples,
        house_symbols,
        ..Default::default()
    };
    Ok(IngestReport { faults, houses, frames_sent, faults_injected, messages_decoded, stats })
}

/// Human-readable summary printed by `repro ingest`.
pub fn render_ingest(r: &IngestReport) -> String {
    let s = r.stats.ingest.as_ref().expect("run_ingest always sets the ingest block");
    format!(
        "ingest: {} meters, {} samples -> {} frames on the wire (faults: {})\n\
         transport: {} faults injected, {} bytes delivered in mid-frame chunks\n\
         gateway: {} ok, {} corrupt, {} oversized, {} resyncs -> {} messages \
         ({:.1}% frame survival)",
        r.houses,
        r.stats.samples_in,
        r.frames_sent,
        if r.faults { "on" } else { "off" },
        r.faults_injected,
        s.bytes_in,
        s.frames_ok,
        s.frames_corrupt,
        s.frames_oversized,
        s.resyncs,
        r.messages_decoded,
        100.0 * s.frame_success_rate(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_per_seed() {
        let base: Vec<u8> = (0..=255u8).cycle().take(2000).collect();
        let mutate = |seed: u64| {
            let mut inj = FaultInjector::new(seed);
            let mut wire = base.clone();
            let offsets: Vec<(Fault, usize)> =
                (0..9).map(|n| inj.apply_nth(n, &mut wire)).collect();
            (wire, offsets, inj.chunk_lens(base.len(), 64))
        };
        assert_eq!(mutate(7), mutate(7));
        assert_ne!(mutate(7).0, mutate(8).0);
    }

    #[test]
    fn storage_plans_are_deterministic_and_shaped_per_fault() {
        let plans = |seed: u64| -> Vec<(StorageFault, sms_core::durable::FaultPlan)> {
            let mut inj = FaultInjector::new(seed);
            (0..9).map(|n| inj.storage_plan_nth(n, 100)).collect()
        };
        assert_eq!(plans(7), plans(7));
        assert_ne!(plans(7), plans(8));
        for (i, (fault, plan)) in plans(7).iter().enumerate() {
            assert_eq!(*fault, ALL_STORAGE_FAULTS[i % ALL_STORAGE_FAULTS.len()]);
            let op = plan.crash_at_op.expect("every storage plan crashes");
            assert!((1..=100).contains(&op));
            match fault {
                StorageFault::FailAtOp => {
                    assert_eq!(plan.short_write_keep, None);
                    assert!(!plan.corrupt_torn_byte);
                }
                StorageFault::ShortWrite => {
                    assert!(plan.short_write_keep.unwrap() <= MAX_SHORT_WRITE_KEEP);
                    assert!(!plan.corrupt_torn_byte);
                }
                StorageFault::TornTail => {
                    assert!(plan.short_write_keep.unwrap() <= MAX_SHORT_WRITE_KEEP);
                    assert!(plan.corrupt_torn_byte);
                }
            }
        }
        // max_ops = 0 is clamped, not a panic.
        let mut inj = FaultInjector::new(1);
        assert_eq!(inj.storage_plan(StorageFault::FailAtOp, 0).crash_at_op, Some(1));
    }

    #[test]
    fn injector_faults_change_the_stream_as_advertised() {
        let base: Vec<u8> = (0..=255u8).cycle().take(512).collect();
        let mut inj = FaultInjector::new(1);

        let mut flipped = base.clone();
        inj.apply(Fault::BitFlip, &mut flipped);
        assert_eq!(flipped.len(), base.len());
        assert_eq!(base.iter().zip(&flipped).filter(|(a, b)| a != b).count(), 1);

        let mut truncated = base.clone();
        inj.apply(Fault::Truncate, &mut truncated);
        assert!(truncated.len() < base.len());
        assert!(base.len() - truncated.len() <= MAX_FAULT_SPAN);

        let mut duplicated = base.clone();
        let at = inj.apply(Fault::Duplicate, &mut duplicated);
        assert!(duplicated.len() > base.len());
        let n = duplicated.len() - base.len();
        assert_eq!(duplicated[at..at + n], duplicated[at + n..at + 2 * n]);

        let mut empty = Vec::new();
        assert_eq!(inj.apply(Fault::Truncate, &mut empty), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn series_faults_corrupt_as_advertised() {
        let base: Vec<Sample> = (0..200).map(|i| Sample::new(i * 60, 100.0 + i as f64)).collect();
        let mut inj = FaultInjector::new(11);

        let mut nans = base.clone();
        let at = inj.corrupt_series(SeriesFault::NanRun, &mut nans);
        assert_eq!(nans.len(), base.len());
        let n_nan = nans.iter().filter(|s| s.v.is_nan()).count();
        assert!((1..=MAX_SERIES_SPAN).contains(&n_nan));
        assert!(nans[at].v.is_nan());

        let mut gapped = base.clone();
        inj.corrupt_series(SeriesFault::Gap, &mut gapped);
        assert!(gapped.len() < base.len());
        assert!(base.len() - gapped.len() <= MAX_SERIES_SPAN);

        let mut duped = base.clone();
        let at = inj.corrupt_series(SeriesFault::DuplicateRun, &mut duped);
        let n = duped.len() - base.len();
        assert!((1..=MAX_SERIES_SPAN).contains(&n));
        assert_eq!(duped[at..at + n], duped[at + n..at + 2 * n]);

        let mut reset = base.clone();
        let at = inj.corrupt_series(SeriesFault::ResetSpike, &mut reset);
        assert_eq!(reset[at].v, RESET_SPIKE_WATTS);
        if at + 1 < reset.len() {
            assert!(reset[at + 1].v < 0.0);
        }

        let mut empty: Vec<Sample> = Vec::new();
        assert_eq!(inj.corrupt_series(SeriesFault::NanRun, &mut empty), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn pick_houses_is_deterministic_and_bounded() {
        let pick = |seed: u64| FaultInjector::new(seed).pick_houses(24, 5);
        assert_eq!(pick(9), pick(9));
        let houses = pick(9);
        assert_eq!(houses.len(), 5);
        assert!(houses.iter().all(|&h| h < 24));
        assert_eq!(FaultInjector::new(1).pick_houses(3, 99).len(), 3);
        assert!(FaultInjector::new(1).pick_houses(0, 4).is_empty());
    }

    #[test]
    fn chunk_lens_cover_exactly_the_stream() {
        let mut inj = FaultInjector::new(3);
        for total in [1usize, 5, 999, 10_240] {
            let lens = inj.chunk_lens(total, 97);
            assert_eq!(lens.iter().sum::<usize>(), total);
            assert!(lens.iter().all(|&n| (1..=97).contains(&n)));
        }
        assert!(inj.chunk_lens(0, 8).is_empty());
    }

    #[test]
    fn clean_run_loses_nothing_and_reports_counters() {
        let mut scale = Scale::quick();
        scale.days = 2;
        let r = run_ingest(scale, false).unwrap();
        let s = r.stats.ingest.as_ref().unwrap();
        assert_eq!(r.faults_injected, 0);
        assert_eq!(s.frames_corrupt + s.frames_oversized + s.resyncs, 0);
        assert_eq!(s.frames_ok, r.frames_sent);
        assert_eq!(r.messages_decoded, r.frames_sent);
        // One observation per meter, as `FleetEngine` records them.
        let e = &r.stats;
        let houses = r.houses as u64;
        assert_eq!((e.house_samples.count(), e.house_symbols.count()), (houses, houses));
        assert_eq!((e.house_samples.sum(), e.house_symbols.sum()), (e.samples_in, e.symbols_out));
        let json = r.stats.to_json();
        assert!(json.contains("\"ingest\""), "{json}");
    }

    #[test]
    fn faulted_run_survives_and_recovers_most_frames() {
        let mut scale = Scale::quick();
        scale.days = 2;
        let r = run_ingest(scale, true).unwrap();
        let s = r.stats.ingest.as_ref().unwrap();
        assert!(r.faults_injected > 0);
        assert!(s.frames_corrupt + s.frames_oversized > 0, "{s:?}");
        assert!(s.resyncs > 0);
        // A handful of localized faults must not take down the stream.
        assert!(s.frame_success_rate() > 0.8, "expected most frames to survive: {s:?}");
        let rendered = render_ingest(&r);
        assert!(rendered.contains("faults: on"));
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let run = || {
            let r = run_ingest(Scale::quick(), true).unwrap();
            let mut ingest = r.stats.ingest.clone().unwrap();
            ingest.decode_secs = 0.0;
            (r.frames_sent, r.faults_injected, r.messages_decoded, r.stats.symbols_out, ingest)
        };
        assert_eq!(run(), run());
    }
}
