//! Compact binary wire format for the sensor→server protocol.
//!
//! The paper's §2.3 notes that "communication and storage overhead, induced
//! for example by protocols and indexes should also be taken into account
//! for a real system". This module is the one encoding of
//! [`crate::encoder::SensorMessage`]: a length-prefixed binary framing that
//! carries a window message in 20 bytes (15-byte payload + 5-byte header)
//! and supports streaming decode.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [u8 tag] [u32 payload length] [payload…]
//! tag 0x01 = lookup table:  payload = bincode-free hand-rolled table body
//! tag 0x02 = window:        payload = i64 window_start, u8 bits, u16 rank,
//!                                      u32 samples
//! tag 0x03 = epoch table:   payload = u32 epoch, then the tag-0x01 table
//!                                      body (drift cutover, see
//!                                      `crate::adaptive`)
//! ```
//!
//! Tag 0x03 versions the table without breaking old decoders' *captures*:
//! a tag-0x01 frame is still emitted by non-adaptive sensors and still
//! decodes byte-for-byte — old epochs (and pre-epoch streams) remain
//! decodable forever; the epoch tag only adds a monotonic version so stored
//! segments can record which table encoded them.

use crate::alphabet::Alphabet;
use crate::encoder::{EncodedWindow, SensorMessage};
use crate::error::{Error, Result};
use crate::lookup::LookupTable;
use crate::separators::SeparatorMethod;
use crate::symbol::Symbol;

const TAG_TABLE: u8 = 0x01;
const TAG_WINDOW: u8 = 0x02;
const TAG_EPOCH_TABLE: u8 = 0x03;

/// Bytes the epoch prefix adds to a table body in a tag-0x03 payload.
const EPOCH_PREFIX_LEN: usize = 4;

/// Frame header size: one tag byte plus a little-endian `u32` payload length.
pub const HEADER_LEN: usize = 5;

/// Exact payload length of a window frame (`i64` start + `u8` bits +
/// `u16` rank + `u32` samples).
const WINDOW_PAYLOAD_LEN: usize = 8 + 1 + 2 + 4;

/// Exact payload length of a table frame for a `bits`-bit alphabet:
/// method + bits + lo/hi + `k-1` separators + `k` means + `k` counts.
pub(crate) fn table_payload_len(bits: u8) -> usize {
    let k = 1usize << bits;
    2 + 16 + 8 * (k - 1) + 8 * k + 8 * k
}

/// Default [`FrameDecoder`] payload cap: 2 MiB, comfortably above the
/// largest legitimate frame (a 16-bit table is ~1.5 MiB) while refusing the
/// up-to-4-GiB allocations an adversarial header could otherwise demand.
pub const DEFAULT_MAX_FRAME_LEN: usize = 2 << 20;

/// Little-endian cursor over a frame payload.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let bytes: [u8; N] =
            self.data[self.pos..self.pos + N].try_into().expect("length checked by caller");
        self.pos += N;
        bytes
    }

    fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

fn method_code(m: SeparatorMethod) -> u8 {
    match m {
        SeparatorMethod::Uniform => 0,
        SeparatorMethod::Median => 1,
        SeparatorMethod::DistinctMedian => 2,
    }
}

fn method_from(code: u8) -> Result<SeparatorMethod> {
    Ok(match code {
        0 => SeparatorMethod::Uniform,
        1 => SeparatorMethod::Median,
        2 => SeparatorMethod::DistinctMedian,
        other => return Err(Error::WireFormat(format!("unknown method code {other}"))),
    })
}

fn put_table(buf: &mut Vec<u8>, table: &LookupTable) {
    buf.push(method_code(table.method()));
    buf.push(table.resolution_bits());
    let (lo, hi) = table.value_range();
    buf.extend_from_slice(&lo.to_le_bytes());
    buf.extend_from_slice(&hi.to_le_bytes());
    for &s in table.separators() {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    for &m in table.bin_means() {
        buf.extend_from_slice(&m.to_le_bytes());
    }
    for &c in table.bin_counts() {
        buf.extend_from_slice(&c.to_le_bytes());
    }
}

fn get_table(buf: &mut Reader<'_>) -> Result<LookupTable> {
    if buf.remaining() < 2 + 16 {
        return Err(Error::WireFormat("table frame truncated".to_string()));
    }
    let method = method_from(buf.get_u8())?;
    let bits = buf.get_u8();
    let alphabet = Alphabet::with_resolution(bits)?;
    let k = alphabet.size();
    let need = 16 + 8 * (k - 1) + 8 * k + 8 * k;
    if buf.remaining() < need {
        return Err(Error::WireFormat(format!(
            "table frame truncated: need {need} bytes, have {}",
            buf.remaining()
        )));
    }
    let lo = buf.get_f64_le();
    let hi = buf.get_f64_le();
    let separators: Vec<f64> = (0..k - 1).map(|_| buf.get_f64_le()).collect();
    let means: Vec<f64> = (0..k).map(|_| buf.get_f64_le()).collect();
    let counts: Vec<u64> = (0..k).map(|_| buf.get_u64_le()).collect();
    LookupTable::from_wire_parts(method, alphabet, separators, means, counts, lo, hi)
}

/// Encodes one message as a binary frame.
pub fn encode_message(msg: &SensorMessage) -> Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_message_into(msg, &mut frame)?;
    Ok(frame)
}

/// Validates a payload length against the 4-byte header field, returning the
/// little-endian header bytes.
///
/// The header stores the payload length as a `u32`; a payload above
/// [`u32::MAX`] bytes used to be written as `payload_len as u32`, silently
/// truncating the announced length and emitting a frame no decoder could
/// ever reconcile with its actual size. Such a payload is now a typed
/// [`Error::FrameTooLarge`] at **encode** time, mirroring the decode-side
/// cap.
fn header_len_bytes(payload_len: usize) -> Result<[u8; 4]> {
    let len = u32::try_from(payload_len)
        .map_err(|_| Error::FrameTooLarge { len: payload_len, max: u32::MAX as usize })?;
    Ok(len.to_le_bytes())
}

/// Zero-copy variant of [`encode_message`]: **appends** the frame straight
/// into `out` (no intermediate payload buffer, no post-hoc copy), so a
/// sensor batching many windows writes every frame into one caller-owned
/// buffer. The 4 length bytes are reserved up front and patched once the
/// payload is in place; the emitted bytes are identical to
/// [`encode_message`]'s.
pub fn encode_message_into(msg: &SensorMessage, out: &mut Vec<u8>) -> Result<()> {
    let frame_start = out.len();
    let tag = match msg {
        SensorMessage::Table(t) => {
            out.reserve(HEADER_LEN + table_payload_len(t.resolution_bits()));
            TAG_TABLE
        }
        SensorMessage::Window(_) => {
            out.reserve(HEADER_LEN + WINDOW_PAYLOAD_LEN);
            TAG_WINDOW
        }
        SensorMessage::EpochTable { table, .. } => {
            out.reserve(HEADER_LEN + EPOCH_PREFIX_LEN + table_payload_len(table.resolution_bits()));
            TAG_EPOCH_TABLE
        }
    };
    out.push(tag);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let payload_start = out.len();
    match msg {
        SensorMessage::Table(t) => put_table(out, t),
        SensorMessage::EpochTable { epoch, table } => {
            out.extend_from_slice(&epoch.to_le_bytes());
            put_table(out, table);
        }
        SensorMessage::Window(w) => {
            out.extend_from_slice(&w.window_start.to_le_bytes());
            out.push(w.symbol.resolution_bits());
            out.extend_from_slice(&w.symbol.rank().to_le_bytes());
            out.extend_from_slice(&w.samples.to_le_bytes());
        }
    }
    let payload_len = out.len() - payload_start;
    let len_bytes = match header_len_bytes(payload_len) {
        Ok(bytes) => bytes,
        Err(e) => {
            // Roll the partial frame back so a batching caller's buffer is
            // left exactly as it was — no undecodable half-frame appended.
            out.truncate(frame_start);
            return Err(e);
        }
    };
    out[len_at..len_at + 4].copy_from_slice(&len_bytes);
    Ok(())
}

/// Decodes one payload whose frame header (tag + announced length) already
/// checked out.
fn decode_payload(tag: u8, payload_bytes: &[u8]) -> Result<SensorMessage> {
    let mut payload = Reader::new(payload_bytes);
    match tag {
        TAG_TABLE => Ok(SensorMessage::Table(get_table(&mut payload)?)),
        TAG_EPOCH_TABLE => {
            if payload.remaining() < EPOCH_PREFIX_LEN {
                return Err(Error::WireFormat("epoch-table frame truncated".to_string()));
            }
            let epoch = payload.get_u32_le();
            Ok(SensorMessage::EpochTable { epoch, table: get_table(&mut payload)? })
        }
        TAG_WINDOW => {
            if payload.remaining() != WINDOW_PAYLOAD_LEN {
                return Err(Error::WireFormat(format!(
                    "window frame has {} payload bytes, expected {WINDOW_PAYLOAD_LEN}",
                    payload.remaining()
                )));
            }
            let window_start = payload.get_i64_le();
            let bits = payload.get_u8();
            let rank = payload.get_u16_le();
            let samples = payload.get_u32_le();
            Ok(SensorMessage::Window(EncodedWindow {
                window_start,
                symbol: Symbol::from_rank(rank, bits)?,
                samples,
            }))
        }
        other => Err(Error::WireFormat(format!("unknown frame tag {other:#x}"))),
    }
}

/// Checks what the buffered start of a frame shows before its payload is
/// complete: a known tag, an announced length within `max_frame_len`, and
/// the tag's structural length — a window payload is exactly
/// [`WINDOW_PAYLOAD_LEN`] bytes, and a table's length follows from its
/// resolution byte (in `1..=16`, after a method byte of at most 2). Returns
/// the announced payload length once the header is buffered.
fn check_frame_start(buf: &[u8], max_frame_len: usize) -> Result<Option<usize>> {
    let Some(&tag) = buf.first() else { return Ok(None) };
    if tag != TAG_TABLE && tag != TAG_WINDOW && tag != TAG_EPOCH_TABLE {
        return Err(Error::WireFormat(format!("unknown frame tag {tag:#x}")));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
    if len > max_frame_len {
        return Err(Error::FrameTooLarge { len, max: max_frame_len });
    }
    if tag == TAG_WINDOW && len != WINDOW_PAYLOAD_LEN {
        return Err(Error::WireFormat(format!(
            "window frame announces {len} payload bytes, expected {WINDOW_PAYLOAD_LEN}"
        )));
    }
    // An epoch table carries a 4-byte epoch before the table body, shifting
    // its method and resolution bytes (any u32 is a valid epoch).
    let prefix = if tag == TAG_EPOCH_TABLE { EPOCH_PREFIX_LEN } else { 0 };
    if tag != TAG_WINDOW {
        if let Some(&method) = buf.get(HEADER_LEN + prefix) {
            method_from(method)?;
        }
        if let Some(&bits) = buf.get(HEADER_LEN + prefix + 1) {
            if !(1..=16).contains(&bits) || len != prefix + table_payload_len(bits) {
                return Err(Error::WireFormat(format!(
                    "table frame announces {len} payload bytes at resolution byte {bits}"
                )));
            }
        }
    }
    Ok(Some(len))
}

/// Whether `buf` could be the start of a valid frame — the resync predicate.
///
/// Passes [`check_frame_start`] and — when the whole frame is buffered —
/// decodes. Prefix-only matches are accepted tentatively; later bytes may
/// still disprove them, which simply triggers another resync.
fn plausible_frame_at(buf: &[u8], max_frame_len: usize) -> bool {
    // Resync scans garbage a byte at a time: reject a byte that is no tag
    // before any error message is built.
    if !matches!(buf.first(), Some(&(TAG_TABLE | TAG_WINDOW | TAG_EPOCH_TABLE))) {
        return false;
    }
    match check_frame_start(buf, max_frame_len) {
        Ok(Some(len)) if buf.len() >= HEADER_LEN + len => {
            decode_payload(buf[0], &buf[HEADER_LEN..HEADER_LEN + len]).is_ok()
        }
        checked => checked.is_ok(),
    }
}

/// Streaming frame decoder: feed bytes in arbitrary chunks, drain complete
/// messages as they become available.
///
/// Decoding is cursor-based: consumed frames advance a read offset instead
/// of draining the front of the buffer, and the consumed prefix is compacted
/// away on the next [`feed`](FrameDecoder::feed) — one amortized copy per
/// byte, where the previous per-frame `Vec::drain` re-copied the whole
/// remaining buffer for every frame (quadratic over large batched feeds).
///
/// The decoder is hardened against untrusted producers:
///
/// * a header announcing more than [`max_frame_len`](Self::max_frame_len)
///   payload bytes yields [`Error::FrameTooLarge`] instead of waiting
///   (potentially forever) for up to 4 GiB to arrive;
/// * an invalid tag is reported as soon as the byte arrives;
/// * after any error, [`resync`](Self::resync) skips to the next plausible
///   frame boundary so decoding can continue past corruption.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read offset: `buf[..pos]` is consumed, awaiting compaction.
    pos: usize,
    max_frame_len: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// Creates an empty decoder with the [`DEFAULT_MAX_FRAME_LEN`] cap.
    pub fn new() -> Self {
        Self::with_max_frame_len(DEFAULT_MAX_FRAME_LEN)
    }

    /// Creates an empty decoder rejecting payloads above `max_frame_len`
    /// bytes. Deployments whose meters only send window frames (and small
    /// re-issued tables) can set this far below the default.
    pub fn with_max_frame_len(max_frame_len: usize) -> Self {
        FrameDecoder { buf: Vec::new(), pos: 0, max_frame_len }
    }

    /// The largest payload length this decoder accepts.
    pub fn max_frame_len(&self) -> usize {
        self.max_frame_len
    }

    /// Appends received bytes, first compacting away the consumed prefix.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            let remaining = self.buf.len() - self.pos;
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(remaining);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (incomplete frame remainder).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete message, or `None` if more bytes are
    /// needed.
    ///
    /// On error the offending bytes are **not** consumed: calling
    /// `next_message` again returns the same error. Callers that want to
    /// continue past corruption call [`resync`](Self::resync) and retry;
    /// [`crate::ingest::MeterIngest`] packages that loop with counters.
    pub fn next_message(&mut self) -> Result<Option<SensorMessage>> {
        let avail = &self.buf[self.pos..];
        let Some(len) = check_frame_start(avail, self.max_frame_len)? else { return Ok(None) };
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let msg = decode_payload(avail[0], &avail[HEADER_LEN..HEADER_LEN + len])?;
        self.pos += HEADER_LEN + len;
        Ok(Some(msg))
    }

    /// Recovers from a corrupt frame: skips at least one byte, then scans to
    /// the next offset that could plausibly start a frame (valid tag, sane
    /// length, and — when fully buffered — a payload that actually decodes).
    /// Returns the number of bytes discarded. Progress is guaranteed, so a
    /// `next_message`/`resync` loop always terminates.
    pub fn resync(&mut self) -> usize {
        let start = self.pos;
        if self.pos < self.buf.len() {
            self.pos += 1;
        }
        while self.pos < self.buf.len()
            && !plausible_frame_at(&self.buf[self.pos..], self.max_frame_len)
        {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Drains all currently complete messages, stopping at the first error.
    pub fn drain(&mut self) -> Result<Vec<SensorMessage>> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LookupTable {
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 300) as f64).collect();
        LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(16).unwrap(), &values)
            .unwrap()
    }

    fn window(t: i64, rank: u16) -> SensorMessage {
        SensorMessage::Window(EncodedWindow {
            window_start: t,
            symbol: Symbol::from_rank(rank, 4).unwrap(),
            samples: 900,
        })
    }

    #[test]
    fn roundtrip_table_and_windows() {
        let msgs = vec![SensorMessage::Table(table()), window(0, 3), window(900, 15)];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend(encode_message(m).unwrap());
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let out = dec.drain().unwrap();
        assert_eq!(out, msgs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_handles_arbitrary_chunking() {
        let msgs = vec![SensorMessage::Table(table()), window(0, 1), window(900, 2)];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend(encode_message(m).unwrap());
        }
        // Feed one byte at a time.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &wire {
            dec.feed(&[b]);
            out.extend(dec.drain().unwrap());
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn roundtrip_epoch_tables_interleaved_with_legacy_frames() {
        // Epoch cutover mid-stream: legacy tag-0x01 table, symbols under it,
        // then epoch-versioned tables. All tags decode from one stream.
        let msgs = vec![
            SensorMessage::Table(table()),
            window(0, 3),
            SensorMessage::EpochTable { epoch: 1, table: table() },
            window(900, 9),
            SensorMessage::EpochTable { epoch: u32::MAX, table: table() },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend(encode_message(m).unwrap());
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.drain().unwrap(), msgs);
        assert_eq!(dec.buffered(), 0);

        // An epoch frame costs exactly 4 bytes more than the legacy frame.
        let legacy = encode_message(&SensorMessage::Table(table())).unwrap();
        let epoch =
            encode_message(&SensorMessage::EpochTable { epoch: 1, table: table() }).unwrap();
        assert_eq!(epoch.len(), legacy.len() + 4);
    }

    #[test]
    fn truncated_epoch_table_frame_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[TAG_EPOCH_TABLE, 3, 0, 0, 0, 1, 0, 0]); // payload < epoch prefix
        assert!(dec.next_message().is_err());
        let mut dec = FrameDecoder::new();
        dec.feed(&[TAG_EPOCH_TABLE, 5, 0, 0, 0, 1, 0, 0, 0, 9]); // table body truncated
        assert!(dec.next_message().is_err());
    }

    #[test]
    fn resync_lands_on_epoch_table_frames() {
        let msgs = vec![
            window(0, 1),
            SensorMessage::EpochTable { epoch: 2, table: table() },
            window(900, 2),
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend(encode_message(m).unwrap());
        }
        wire[0] = 0xEE; // corrupt the first frame's tag
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut out = Vec::new();
        loop {
            match dec.next_message() {
                Ok(Some(m)) => out.push(m),
                Ok(None) => break,
                Err(_) => {
                    dec.resync();
                }
            }
        }
        assert_eq!(out, msgs[1..], "resync must recover the epoch table and what follows");
    }

    #[test]
    fn window_frame_is_small() {
        let frame = encode_message(&window(86_400, 7)).unwrap();
        assert_eq!(frame.len(), 5 + 15, "15-byte payload + 5-byte header");
    }

    #[test]
    fn errors_on_garbage() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0xFF, 1, 0, 0, 0, 0]);
        assert!(dec.next_message().is_err(), "unknown tag");

        let mut dec = FrameDecoder::new();
        dec.feed(&[TAG_WINDOW, 3, 0, 0, 0, 1, 2, 3]); // payload too short
        assert!(dec.next_message().is_err());

        let mut dec = FrameDecoder::new();
        dec.feed(&[TAG_TABLE, 1, 0, 0, 0, 9]); // truncated table
        assert!(dec.next_message().is_err());
    }

    #[test]
    fn incomplete_frames_wait_for_more_bytes() {
        let frame = encode_message(&window(0, 0)).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&frame[..4]);
        assert_eq!(dec.next_message().unwrap(), None);
        dec.feed(&frame[4..frame.len() - 1]);
        assert_eq!(dec.next_message().unwrap(), None);
        dec.feed(&frame[frame.len() - 1..]);
        assert!(dec.next_message().unwrap().is_some());
    }

    #[test]
    fn oversized_header_is_rejected_not_buffered() {
        // The adversarial header: len = 0xFFFF_FFFF. The old decoder would
        // return Ok(None) forever, buffering everything it was fed.
        let mut dec = FrameDecoder::new();
        dec.feed(&[TAG_WINDOW, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(
            dec.next_message(),
            Err(Error::FrameTooLarge { len: 0xFFFF_FFFF, max: DEFAULT_MAX_FRAME_LEN })
        );

        // A tighter cap rejects frames the default would accept.
        let frame = encode_message(&SensorMessage::Table(table())).unwrap();
        let mut dec = FrameDecoder::with_max_frame_len(64);
        dec.feed(&frame);
        assert!(matches!(dec.next_message(), Err(Error::FrameTooLarge { .. })));
        // ... while windows (15-byte payloads) still pass.
        let mut dec = FrameDecoder::with_max_frame_len(64);
        dec.feed(&encode_message(&window(0, 3)).unwrap());
        assert_eq!(dec.next_message().unwrap(), Some(window(0, 3)));
    }

    #[test]
    fn unknown_tag_fails_fast_without_waiting_for_header() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0x7F]);
        assert!(dec.next_message().is_err(), "garbage tag must not buffer quietly");
    }

    #[test]
    fn resync_skips_corruption_and_recovers_following_frames() {
        let msgs = vec![window(0, 1), window(900, 2), window(1800, 3), window(2700, 4)];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend(encode_message(m).unwrap());
        }
        wire[20] = 0xEE; // corrupt the second frame's tag
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut out = Vec::new();
        let mut resyncs = 0;
        loop {
            match dec.next_message() {
                Ok(Some(m)) => out.push(m),
                Ok(None) => break,
                Err(_) => {
                    resyncs += 1;
                    assert!(resyncs < 100, "resync loop must make progress");
                    dec.resync();
                }
            }
        }
        assert!(resyncs >= 1);
        assert!(out.contains(&msgs[0]));
        assert!(out.contains(&msgs[2]), "frames after the corruption must decode");
        assert!(out.contains(&msgs[3]));
    }

    #[test]
    fn resync_rejects_implausible_table_structure() {
        // tag TABLE, len consistent-looking, but resolution byte of 200:
        // structurally impossible, so resync must skip past it.
        let mut bad = vec![TAG_TABLE, 40, 0, 0, 0, 0, 200];
        bad.extend(vec![0u8; 40]);
        let good = encode_message(&window(0, 5)).unwrap();
        let mut wire = vec![0xFFu8]; // force an initial error + resync
        wire.extend(&bad);
        wire.extend(&good);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut out = Vec::new();
        loop {
            match dec.next_message() {
                Ok(Some(m)) => out.push(m),
                Ok(None) => break,
                Err(_) => {
                    dec.resync();
                }
            }
        }
        assert_eq!(out, vec![window(0, 5)]);
    }

    #[test]
    fn tampered_table_frames_are_rejected() {
        // Regression: `get_table` used to accept wire tables whose
        // separators were not strictly increasing or whose lo > hi,
        // bypassing the invariant `learn_separators` enforces locally.
        let frame = encode_message(&SensorMessage::Table(table())).unwrap();
        // Payload layout: [5 header][1 method][1 bits][8 lo][8 hi][seps…].
        let (hi_at, seps_at) = (5 + 2 + 8, 5 + 2 + 16);

        // Tamper 1: inverted value range (hi below any training value).
        let mut inverted = frame.clone();
        inverted[hi_at..hi_at + 8].copy_from_slice(&(-1e12f64).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&inverted);
        match dec.next_message() {
            Err(Error::WireFormat(msg)) => assert!(msg.contains("inverted"), "{msg}"),
            other => panic!("inverted range must be rejected, got {other:?}"),
        }

        // Tamper 2: duplicate separator (β2 := β1) — no longer strictly
        // increasing.
        let mut duped = frame.clone();
        let first: [u8; 8] = duped[seps_at..seps_at + 8].try_into().unwrap();
        duped[seps_at + 8..seps_at + 16].copy_from_slice(&first);
        let mut dec = FrameDecoder::new();
        dec.feed(&duped);
        match dec.next_message() {
            Err(Error::WireFormat(msg)) => {
                assert!(msg.contains("strictly increasing"), "{msg}")
            }
            other => panic!("duplicate separators must be rejected, got {other:?}"),
        }

        // The untampered frame still round-trips.
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert_eq!(dec.next_message().unwrap(), Some(SensorMessage::Table(table())));
    }

    #[test]
    fn cursor_compaction_keeps_buffered_accounting_exact() {
        let frame = encode_message(&window(0, 1)).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        dec.feed(&frame[..7]); // one full frame + a partial one
        assert_eq!(dec.buffered(), frame.len() + 7);
        assert!(dec.next_message().unwrap().is_some());
        assert_eq!(dec.buffered(), 7, "consumed bytes no longer count");
        dec.feed(&frame[7..]); // compacts, then completes the second frame
        assert_eq!(dec.buffered(), frame.len());
        assert_eq!(dec.next_message().unwrap(), Some(window(0, 1)));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn oversized_payload_is_a_typed_encode_error_not_a_truncated_header() {
        // Regression: the header writer used to emit `payload_len as u32`,
        // so a payload over u32::MAX bytes wrote a silently wrapped length
        // and produced an undecodable frame. The length computation is
        // checked directly — no 4 GiB allocation needed to hit the path.
        assert_eq!(header_len_bytes(0).unwrap(), [0, 0, 0, 0]);
        assert_eq!(header_len_bytes(WINDOW_PAYLOAD_LEN).unwrap(), [15, 0, 0, 0]);
        assert_eq!(header_len_bytes(u32::MAX as usize).unwrap(), [0xFF; 4]);
        assert_eq!(
            header_len_bytes(u32::MAX as usize + 1),
            Err(Error::FrameTooLarge { len: u32::MAX as usize + 1, max: u32::MAX as usize })
        );
        // The wrapped value the old cast would have produced: 2^32 + 20
        // became a 20-byte announcement. That exact corruption is now the
        // error above rather than [20, 0, 0, 0].
        assert_ne!(header_len_bytes((1usize << 32) + 20).ok(), Some([20, 0, 0, 0]));
        // Every legitimate message stays far below the limit and still
        // encodes; a failed encode leaves the caller's buffer untouched
        // (asserted indirectly: encode_message_into never rolls back here).
        let mut buf = b"prefix".to_vec();
        encode_message_into(&window(0, 1), &mut buf).unwrap();
        assert!(buf.starts_with(b"prefix"));
        assert_eq!(buf.len(), 6 + HEADER_LEN + WINDOW_PAYLOAD_LEN);
    }

    #[test]
    fn day_of_windows_wire_cost() {
        // 96 windows/day at 15 min: binary cost per §2.3 discussion.
        let mut wire = Vec::new();
        for i in 0..96 {
            wire.extend(encode_message(&window(i * 900, (i % 16) as u16)).unwrap());
        }
        assert_eq!(wire.len(), 96 * 20);
        // Still far below the raw day (86 400 × 8 B), including all framing.
        assert!(wire.len() * 300 < 86_400 * 8);
    }
}
