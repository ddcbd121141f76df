//! Hardened server-side ingest of meter byte streams.
//!
//! The paper's §2.3 motivates the symbolic representation by the
//! communication cost of a real sensor→server deployment; this module is the
//! server half of that deployment grown up: the collector for a fleet of
//! meters whose transports duplicate, truncate, and corrupt bytes, and whose
//! firmware may be buggy or adversarial. A collector serving millions of
//! meters cannot afford to trust a single byte, abort a connection on the
//! first bad frame, or let one misbehaving producer wedge the pipeline.
//!
//! Two layers provide that hardening:
//!
//! * [`crate::wire::FrameDecoder`] enforces a frame-size cap
//!   ([`Error::FrameTooLarge`]) and exposes
//!   [`resync`](crate::wire::FrameDecoder::resync) to skip to the next
//!   plausible frame boundary after corruption;
//! * [`MeterIngest`] (this module) is the per-meter gateway: it owns one
//!   decoder, turns the error/resync dance into a simple
//!   [`ingest`](MeterIngest::ingest) call, and counts every outcome in
//!   [`IngestStats`].
//!
//! [`IngestStats`] merges into [`crate::engine::EngineStats`] (its `ingest`
//! JSON block), so one counter line describes a whole collector run:
//!
//! ```
//! use sms_core::ingest::{FleetIngest, IngestConfig};
//! use sms_core::prelude::*;
//! use sms_core::wire::encode_message;
//!
//! let table = LookupTable::custom(&[100.0, 200.0, 300.0], 0.0, 400.0)?;
//! let mut wire = encode_message(&SensorMessage::Table(table))?;
//! wire.extend(encode_message(&SensorMessage::Window(EncodedWindow {
//!     window_start: 0,
//!     symbol: Symbol::from_rank(2, 2)?,
//!     samples: 900,
//! }))?);
//! wire[3] ^= 0x40; // a bit flip in flight
//!
//! let mut fleet = FleetIngest::new(IngestConfig::default());
//! let msgs = fleet.ingest(7, &wire)?; // meter 7's bytes, any chunking
//! let stats = fleet.stats();
//! assert_eq!(stats.frames_ok + stats.frames_corrupt + stats.frames_oversized, 2);
//! # Ok::<(), sms_core::error::Error>(())
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use crate::encoder::SensorMessage;
use crate::error::{Error, Result};
use crate::json::JsonWriter;
use crate::lookup::LookupTable;
use crate::wire::{FrameDecoder, DEFAULT_MAX_FRAME_LEN};

/// Policy knobs of an ingest gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Largest frame payload accepted before the decoder reports
    /// [`Error::FrameTooLarge`] (passed to the underlying
    /// [`FrameDecoder`]).
    pub max_frame_len: usize,
    /// Most distinct meters a [`FleetIngest`] will create gateways for;
    /// bytes from a meter beyond the cap are rejected with
    /// [`Error::TooManyMeters`]. An id-spoofing (or misconfigured) producer
    /// must not be able to allocate unbounded per-meter state. Default:
    /// unlimited.
    pub max_meters: usize,
    /// Cap on the bytes buffered across every gateway of a [`FleetIngest`]
    /// awaiting frame completion; a chunk that could push the backlog past
    /// it is rejected with [`Error::BacklogExceeded`] before buffering
    /// anything. Protects the collector from a fleet of producers that
    /// send headers and never finish their frames. Default: unlimited.
    pub max_buffered_bytes: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_meters: usize::MAX,
            max_buffered_bytes: usize::MAX,
        }
    }
}

impl IngestConfig {
    /// Sets the frame payload cap.
    pub fn max_frame_len(mut self, max: usize) -> Self {
        self.max_frame_len = max;
        self
    }

    /// Sets the distinct-meter cap.
    pub fn max_meters(mut self, max: usize) -> Self {
        self.max_meters = max;
        self
    }

    /// Sets the fleet-wide buffered-byte cap.
    pub fn max_buffered_bytes(mut self, max: usize) -> Self {
        self.max_buffered_bytes = max;
        self
    }
}

/// Counter block describing one ingest run; merged into
/// [`crate::engine::EngineStats`] JSON as its `ingest` object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestStats {
    /// Frames decoded successfully.
    pub frames_ok: u64,
    /// Frames rejected with a decode error (bad tag, bad payload,
    /// tampered table invariants).
    pub frames_corrupt: u64,
    /// Times the decoder scanned forward to a new frame boundary.
    pub resyncs: u64,
    /// Frames rejected because their header announced a payload above the
    /// configured cap.
    pub frames_oversized: u64,
    /// Raw bytes fed into the gateway.
    pub bytes_in: u64,
    /// Bytes consumed by successfully decoded frames (header + payload).
    ///
    /// Together with [`bytes_discarded`](Self::bytes_discarded) and the
    /// gateway's live [`MeterIngest::buffered`] count, this reconciles
    /// exactly against [`bytes_in`](Self::bytes_in):
    /// `bytes_decoded + bytes_discarded + buffered == bytes_in` — every fed
    /// byte is decoded, discarded by a resync, or still awaiting a frame.
    pub bytes_decoded: u64,
    /// Bytes discarded by corruption resyncs while scanning for the next
    /// plausible frame boundary (see
    /// [`resync`](crate::wire::FrameDecoder::resync)).
    pub bytes_discarded: u64,
    /// Chunks rejected because the sending meter would exceed
    /// [`IngestConfig::max_meters`].
    pub meters_rejected: u64,
    /// Chunks rejected because accepting them could exceed
    /// [`IngestConfig::max_buffered_bytes`].
    pub backlog_rejections: u64,
    /// Wall time spent in wire decode (including resync scans), seconds.
    pub decode_secs: f64,
    /// Wire sizes (header + payload bytes) of successfully decoded
    /// frames. Rendered through the `"histograms"` section of
    /// [`crate::engine::EngineStats::to_json`], not this block's object.
    pub frame_bytes: crate::telemetry::Log2Histogram,
}

crate::telemetry::declare_metrics! {
    IngestStats as ingest {
        add frames_ok, "frames", "Frames decoded successfully.";
        add frames_corrupt, "frames", "Frames rejected with a decode error.";
        add resyncs, "scans", "Times the decoder scanned forward to a new frame boundary.";
        add frames_oversized, "frames", "Frames whose header announced a payload above the cap.";
        add bytes_in, "bytes", "Raw bytes fed into the gateway.";
        add bytes_decoded, "bytes",
            "Bytes consumed by successfully decoded frames (header + payload).";
        add bytes_discarded, "bytes",
            "Bytes discarded by corruption resyncs scanning for a frame boundary.";
        add meters_rejected, "chunks", "Chunks rejected because the meter would exceed max_meters.";
        add backlog_rejections, "chunks",
            "Chunks rejected because the byte backlog cap would be exceeded.";
        set_f64 decode_secs, "seconds", "Wall time spent in wire decode (including resync scans).";
        merge_histogram frame_bytes, "bytes", "Wire sizes of successfully decoded frames.";
    }
}

impl IngestStats {
    /// Accumulates `other` into `self` (counters add, stage times add).
    pub fn merge(&mut self, other: &IngestStats) {
        self.frames_ok += other.frames_ok;
        self.frames_corrupt += other.frames_corrupt;
        self.resyncs += other.resyncs;
        self.frames_oversized += other.frames_oversized;
        self.bytes_in += other.bytes_in;
        self.bytes_decoded += other.bytes_decoded;
        self.bytes_discarded += other.bytes_discarded;
        self.meters_rejected += other.meters_rejected;
        self.backlog_rejections += other.backlog_rejections;
        self.decode_secs += other.decode_secs;
        self.frame_bytes.merge(&other.frame_bytes);
    }

    /// Fraction of seen frames that decoded, in `[0, 1]` (`1.0` for an
    /// empty run).
    pub fn frame_success_rate(&self) -> f64 {
        let total = self.frames_ok + self.frames_corrupt + self.frames_oversized;
        if total == 0 {
            return 1.0;
        }
        self.frames_ok as f64 / total as f64
    }

    /// JSON object for benchmark trajectories.
    pub fn to_json(&self) -> String {
        let reg = crate::telemetry::Registry::new();
        self.register_into(&reg);
        let mut w = JsonWriter::new();
        reg.write_block_json(&mut w, "ingest");
        w.finish()
    }
}

/// Per-meter ingest gateway: one untrusted byte stream in, decoded
/// [`SensorMessage`]s and [`IngestStats`] out.
///
/// Corruption never aborts the stream: corrupt and oversized frames are
/// counted, the decoder resynchronizes to the next plausible frame
/// boundary, and decoding continues. The gateway also tracks the most
/// recent lookup table the meter shipped, since every subsequent window is
/// meaningless without it.
#[derive(Debug)]
pub struct MeterIngest {
    decoder: FrameDecoder,
    stats: IngestStats,
    table: Option<LookupTable>,
    epoch: u32,
}

impl MeterIngest {
    /// Creates a gateway with the given policy.
    pub fn new(config: IngestConfig) -> Self {
        MeterIngest {
            decoder: FrameDecoder::with_max_frame_len(config.max_frame_len),
            stats: IngestStats::default(),
            table: None,
            epoch: 0,
        }
    }

    /// Feeds received bytes (any chunking, including mid-frame splits) and
    /// returns every message decodable so far.
    ///
    /// This never fails: corrupt frames increment
    /// [`IngestStats::frames_corrupt`] (or
    /// [`frames_oversized`](IngestStats::frames_oversized)), trigger a
    /// counted resync, and decoding continues with the next frame.
    pub fn ingest(&mut self, bytes: &[u8]) -> Vec<SensorMessage> {
        let t0 = Instant::now();
        self.stats.bytes_in += bytes.len() as u64;
        self.decoder.feed(bytes);
        let mut out = Vec::new();
        loop {
            let buffered_before = self.decoder.buffered();
            match self.decoder.next_message() {
                Ok(Some(msg)) => {
                    self.stats.frames_ok += 1;
                    // The decoder consumed exactly this frame's bytes, so
                    // the buffered() delta is its wire size — independent
                    // of how the bytes were chunked on the way in.
                    let frame_len = (buffered_before - self.decoder.buffered()) as u64;
                    self.stats.frame_bytes.observe(frame_len);
                    self.stats.bytes_decoded += frame_len;
                    match &msg {
                        // A bare table is the pre-drift separator set: it
                        // resets the meter to epoch 0 (the only epoch the
                        // legacy frame can describe).
                        SensorMessage::Table(t) => {
                            self.table = Some(t.clone());
                            self.epoch = 0;
                        }
                        // An epoch table is a drift cutover: subsequent
                        // windows decode under this table until the next one.
                        SensorMessage::EpochTable { epoch, table } => {
                            self.table = Some(table.clone());
                            self.epoch = *epoch;
                        }
                        SensorMessage::Window(_) => {}
                    }
                    out.push(msg);
                }
                Ok(None) => break,
                Err(e) => {
                    match e {
                        Error::FrameTooLarge { .. } => self.stats.frames_oversized += 1,
                        _ => self.stats.frames_corrupt += 1,
                    }
                    // `resync` always discards at least one byte, so this
                    // loop terminates within the buffered data.
                    self.stats.bytes_discarded += self.decoder.resync() as u64;
                    self.stats.resyncs += 1;
                }
            }
        }
        self.stats.decode_secs += t0.elapsed().as_secs_f64();
        out
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The most recent lookup table this meter shipped, if any survived.
    pub fn table(&self) -> Option<&LookupTable> {
        self.table.as_ref()
    }

    /// The separator epoch the meter is currently encoding under: `0` until
    /// an [`SensorMessage::EpochTable`] frame arrives, then that frame's
    /// epoch. Windows ingested now decode under this epoch's table.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Bytes buffered awaiting a frame completion.
    pub fn buffered(&self) -> usize {
        self.decoder.buffered()
    }
}

/// Fleet-level ingest: routes `(meter, bytes)` to per-meter gateways
/// created on first sight, aggregates their counters, and enforces the
/// fleet-wide resource caps ([`IngestConfig::max_meters`],
/// [`IngestConfig::max_buffered_bytes`]) — without them the per-meter map
/// and the decoders' partial-frame buffers grow without bound under an
/// id-spoofing or never-completing producer.
#[derive(Debug)]
pub struct FleetIngest {
    config: IngestConfig,
    meters: BTreeMap<u64, MeterIngest>,
    /// Bytes buffered across every gateway, maintained incrementally (the
    /// per-call delta of [`MeterIngest::buffered`]) so the backlog check is
    /// O(1) rather than a walk over millions of meters.
    buffered_total: usize,
    meters_rejected: u64,
    backlog_rejections: u64,
}

impl FleetIngest {
    /// Creates an empty router; gateways spawn lazily per meter id.
    pub fn new(config: IngestConfig) -> Self {
        FleetIngest {
            config,
            meters: BTreeMap::new(),
            buffered_total: 0,
            meters_rejected: 0,
            backlog_rejections: 0,
        }
    }

    /// Feeds bytes received from one meter; see [`MeterIngest::ingest`].
    ///
    /// Rejects with [`Error::TooManyMeters`] when the chunk would create a
    /// gateway beyond [`IngestConfig::max_meters`], and with
    /// [`Error::BacklogExceeded`] when `buffered + incoming` could exceed
    /// [`IngestConfig::max_buffered_bytes`] (a conservative upper bound:
    /// the chunk is rejected before buffering, so a rejected call changes
    /// no state and the caller may retry after the backlog drains).
    pub fn ingest(&mut self, meter: u64, bytes: &[u8]) -> Result<Vec<SensorMessage>> {
        if self.buffered_total.saturating_add(bytes.len()) > self.config.max_buffered_bytes {
            self.backlog_rejections += 1;
            return Err(Error::BacklogExceeded {
                buffered: self.buffered_total,
                incoming: bytes.len(),
                max: self.config.max_buffered_bytes,
            });
        }
        if !self.meters.contains_key(&meter) && self.meters.len() >= self.config.max_meters {
            self.meters_rejected += 1;
            return Err(Error::TooManyMeters { max: self.config.max_meters });
        }
        let gateway = self.meters.entry(meter).or_insert_with(|| MeterIngest::new(self.config));
        let before = gateway.buffered();
        let out = gateway.ingest(bytes);
        let after = gateway.buffered();
        self.buffered_total = self.buffered_total - before + after;
        Ok(out)
    }

    /// The gateway of one meter, if it has sent anything yet.
    pub fn meter(&self, meter: u64) -> Option<&MeterIngest> {
        self.meters.get(&meter)
    }

    /// Number of distinct meters seen.
    pub fn meter_count(&self) -> usize {
        self.meters.len()
    }

    /// Bytes currently buffered across every gateway awaiting frame
    /// completion.
    pub fn buffered_total(&self) -> usize {
        self.buffered_total
    }

    /// Counters aggregated across every meter, plus the fleet-level
    /// rejection counters.
    pub fn stats(&self) -> IngestStats {
        let mut total = IngestStats::default();
        for m in self.meters.values() {
            total.merge(m.stats());
        }
        total.meters_rejected = self.meters_rejected;
        total.backlog_rejections = self.backlog_rejections;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::encoder::EncodedWindow;
    use crate::separators::SeparatorMethod;
    use crate::symbol::Symbol;
    use crate::wire::encode_message;

    fn table() -> LookupTable {
        let values: Vec<f64> = (0..400).map(|i| ((i * 29) % 350) as f64).collect();
        LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(8).unwrap(), &values)
            .unwrap()
    }

    fn window(i: i64) -> SensorMessage {
        SensorMessage::Window(EncodedWindow {
            window_start: i * 900,
            symbol: Symbol::from_rank((i % 8) as u16, 3).unwrap(),
            samples: 900,
        })
    }

    fn stream(windows: i64) -> (Vec<SensorMessage>, Vec<u8>) {
        let mut msgs = vec![SensorMessage::Table(table())];
        msgs.extend((0..windows).map(window));
        let wire = msgs.iter().flat_map(|m| encode_message(m).unwrap()).collect();
        (msgs, wire)
    }

    #[test]
    fn clean_stream_decodes_fully_any_chunking() {
        let (msgs, wire) = stream(20);
        for chunk_size in [1, 3, 7, 64, wire.len()] {
            let mut gw = MeterIngest::new(IngestConfig::default());
            let mut out = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                out.extend(gw.ingest(chunk));
            }
            assert_eq!(out, msgs, "chunk_size={chunk_size}");
            let s = gw.stats();
            assert_eq!(s.frames_ok, 21);
            assert_eq!(s.frames_corrupt + s.frames_oversized + s.resyncs, 0);
            assert_eq!(s.bytes_in, wire.len() as u64);
            assert_eq!(s.frame_success_rate(), 1.0);
            assert!(gw.table().is_some());
        }
    }

    #[test]
    fn epoch_tables_advance_and_bare_tables_reset_the_epoch() {
        let mut wire = encode_message(&SensorMessage::Table(table())).unwrap();
        wire.extend(encode_message(&window(0)).unwrap());
        wire.extend(
            encode_message(&SensorMessage::EpochTable { epoch: 3, table: table() }).unwrap(),
        );
        wire.extend(encode_message(&window(1)).unwrap());
        let mut gw = MeterIngest::new(IngestConfig::default());
        assert_eq!(gw.epoch(), 0);
        let out = gw.ingest(&wire);
        assert_eq!(out.len(), 4);
        assert_eq!(gw.epoch(), 3, "epoch table must move the gateway forward");
        assert!(gw.table().is_some());
        // A bare (legacy) table frame can only describe epoch 0.
        gw.ingest(&encode_message(&SensorMessage::Table(table())).unwrap());
        assert_eq!(gw.epoch(), 0);
    }

    #[test]
    fn corruption_is_counted_and_survived() {
        let (_, mut wire) = stream(20);
        // Corrupt a window frame's tag in the middle of the stream.
        let table_frame_len = encode_message(&SensorMessage::Table(table())).unwrap().len();
        wire[table_frame_len + 5 * 20] ^= 0xFF;
        let mut gw = MeterIngest::new(IngestConfig::default());
        let out = gw.ingest(&wire);
        let s = gw.stats();
        assert!(s.frames_corrupt >= 1);
        assert!(s.resyncs >= 1);
        assert!(s.frames_ok >= 19, "one corrupt frame must not take neighbors down: {s:?}");
        assert!(out.len() >= 19);
        assert!(s.decode_secs >= 0.0);
    }

    #[test]
    fn oversized_header_counted_separately() {
        let (_, wire) = stream(3);
        let mut hostile = vec![0x02, 0xFF, 0xFF, 0xFF, 0xFF]; // 4 GiB announcement
        hostile.extend(&wire);
        let mut gw = MeterIngest::new(IngestConfig::default());
        let out = gw.ingest(&hostile);
        let s = gw.stats();
        assert_eq!(s.frames_oversized, 1);
        assert_eq!(s.frames_ok, 4);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn fleet_routes_per_meter_and_aggregates() {
        let (msgs, wire) = stream(4);
        let mut fleet = FleetIngest::new(IngestConfig::default());
        // Interleave two meters' streams chunk by chunk.
        for chunk in wire.chunks(9) {
            fleet.ingest(1, chunk).unwrap();
            fleet.ingest(2, chunk).unwrap();
        }
        assert_eq!(fleet.meter_count(), 2);
        for meter in [1, 2] {
            let s = fleet.meter(meter).unwrap().stats();
            assert_eq!(s.frames_ok, msgs.len() as u64, "meter {meter}");
        }
        let total = fleet.stats();
        assert_eq!(total.frames_ok, 2 * msgs.len() as u64);
        assert_eq!(total.bytes_in, 2 * wire.len() as u64);
        assert!(fleet.meter(3).is_none());
    }

    #[test]
    fn meter_cap_rejects_new_meters_only() {
        let (msgs, wire) = stream(2);
        let mut fleet = FleetIngest::new(IngestConfig::default().max_meters(2));
        fleet.ingest(1, &wire).unwrap();
        fleet.ingest(2, &wire).unwrap();
        // A third meter is rejected; the known meters keep working.
        assert_eq!(fleet.ingest(3, &wire).unwrap_err(), Error::TooManyMeters { max: 2 });
        assert_eq!(fleet.ingest(3, &wire).unwrap_err(), Error::TooManyMeters { max: 2 });
        let again = fleet.ingest(1, &wire).unwrap();
        assert_eq!(again.len(), msgs.len());
        assert_eq!(fleet.meter_count(), 2);
        assert_eq!(fleet.stats().meters_rejected, 2);
    }

    #[test]
    fn backlog_cap_rejects_before_buffering() {
        // A header that announces a large frame and never completes it.
        let mut fleet = FleetIngest::new(IngestConfig::default().max_buffered_bytes(64));
        let partial = vec![0x02, 200, 0, 0, 0]; // 200-byte payload, never sent
        fleet.ingest(1, &partial).unwrap();
        assert_eq!(fleet.buffered_total(), partial.len());

        // 61 incoming bytes would exceed 64 total; rejected, nothing buffered.
        let big = vec![0u8; 61];
        let err = fleet.ingest(1, &big).unwrap_err();
        assert_eq!(err, Error::BacklogExceeded { buffered: partial.len(), incoming: 61, max: 64 });
        assert_eq!(fleet.buffered_total(), partial.len(), "rejected chunk changes no state");
        assert_eq!(fleet.stats().backlog_rejections, 1);

        // A chunk that *completes* frames shrinks the backlog and is fine.
        let (_, wire) = stream(1);
        let mut fleet = FleetIngest::new(IngestConfig::default().max_buffered_bytes(wire.len()));
        for chunk in wire.chunks(7) {
            fleet.ingest(1, chunk).unwrap();
        }
        assert_eq!(fleet.buffered_total(), 0, "completed frames leave no backlog");
        assert_eq!(fleet.stats().backlog_rejections, 0);
    }

    #[test]
    fn byte_accounting_reconciles_exactly() {
        // Every fed byte must be decoded, discarded by a resync, or still
        // buffered — under clean streams, corruption, truncation, and any
        // chunking.
        let (_, clean) = stream(12);
        let mut corrupt = clean.clone();
        let table_frame_len = encode_message(&SensorMessage::Table(table())).unwrap().len();
        // Clobber a mid-stream window frame's tag byte: the decoder rejects
        // the frame and must resync (a payload flip could still decode as a
        // different-but-valid window, never exercising the discard arm).
        corrupt[table_frame_len + 20] ^= 0xFF;
        let mut truncated = clean.clone();
        truncated.truncate(clean.len() - 3); // dangling partial frame
        for wire in [&clean, &corrupt, &truncated] {
            for chunk_size in [1, 5, 64, wire.len()] {
                let mut gw = MeterIngest::new(IngestConfig::default());
                for chunk in wire.chunks(chunk_size) {
                    gw.ingest(chunk);
                }
                let s = gw.stats();
                assert_eq!(
                    s.bytes_decoded + s.bytes_discarded + gw.buffered() as u64,
                    s.bytes_in,
                    "chunk_size={chunk_size}: {s:?}"
                );
                assert_eq!(s.bytes_in, wire.len() as u64);
            }
        }
        // The corrupt run must actually exercise the discard arm.
        let mut gw = MeterIngest::new(IngestConfig::default());
        gw.ingest(&corrupt);
        assert!(gw.stats().bytes_discarded > 0, "{:?}", gw.stats());
    }

    #[test]
    fn stats_json_has_every_counter() {
        let stats = IngestStats {
            frames_ok: 1,
            frames_corrupt: 2,
            resyncs: 3,
            frames_oversized: 4,
            bytes_in: 5,
            bytes_decoded: 9,
            bytes_discarded: 10,
            meters_rejected: 7,
            backlog_rejections: 8,
            decode_secs: 0.5,
            ..IngestStats::default()
        };
        let json = stats.to_json();
        for key in [
            "frames_ok",
            "frames_corrupt",
            "resyncs",
            "frames_oversized",
            "bytes_in",
            "bytes_decoded",
            "bytes_discarded",
            "meters_rejected",
            "backlog_rejections",
            "decode_secs",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
        let mut merged = IngestStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.frames_ok, 2);
        assert_eq!(merged.bytes_in, 10);
        assert!((merged.decode_secs - 1.0).abs() < 1e-12);
    }
}
