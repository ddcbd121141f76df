//! The wire, segment-image and handshake byte formats, and the tables the
//! learners produce, pinned by files an earlier build wrote.
//!
//! `tests/corpus/wire/` holds:
//! * `house.f64`: a generated house's first two days at 900 s, 192 raw
//!   little-endian `f64` values with no gap;
//! * `house-50w.f64`: the same values rounded to 50 W, so quantile
//!   boundaries collapse and `distinctmedian` differs from `median`;
//! * `learn-<column>.frames`: one tag-0x01 frame of
//!   `LookupTable::learn` over the column per method (in
//!   [`SeparatorMethod::ALL`] order) and `k` in [`KS`];
//! * `sketch-<column>.frames`: one tag-0x03 frame per method and `k` of
//!   `LookupTable::learn_from_sketch` over a default-capacity
//!   [`QuantileSketch`] fed the column, at epochs 1 to 15;
//! * `meter-stream.frames`: an [`OnlineEncoder`] run over `house.f64` in
//!   hourly means: the median table, day one's windows, a tag-0x03 frame
//!   at epoch 1 of the table learned from day one's sketch, then day
//!   two's windows;
//! * `handshake.bin`: the gateway handshake of meter [`METER`] with token
//!   [`TOKEN`].
//!
//! `tests/corpus/segstore/` holds an `SMS2` image of house 1's two days
//! of the stream at epochs 0 and 1 and house 2's first day of the rounded
//! column at 3 bits, and an `SMS1` image of houses 1 and 2's epoch-0
//! segments.
//!
//! Every file decodes to a pinned count and a CRC32 digest of the decoded
//! fields. Files of the current version re-encode byte-identical, and
//! every committed table is learned again from its committed column. The
//! files are never regenerated. A format change adds files with their own
//! pins and edits no old one.

use std::path::Path;

use smart_meter_symbolics::core::alphabet::Alphabet;
use smart_meter_symbolics::core::durable::crc32;
use smart_meter_symbolics::core::encoder::{OnlineEncoder, SensorMessage};
use smart_meter_symbolics::core::gateway::{encode_handshake, HANDSHAKE_MAGIC};
use smart_meter_symbolics::core::lookup::LookupTable;
use smart_meter_symbolics::core::segstore::SegmentStore;
use smart_meter_symbolics::core::separators::SeparatorMethod;
use smart_meter_symbolics::core::stats::QuantileSketch;
use smart_meter_symbolics::core::vertical::Aggregation;
use smart_meter_symbolics::core::wire::{encode_message, FrameDecoder};

/// The alphabet sizes of the learned-table files, in file order.
const KS: [usize; 5] = [2, 4, 8, 16, 32];
/// The meter id and token of `handshake.bin`.
const METER: u64 = 0x5EED_0001;
const TOKEN: &[u8] = b"smg-local-dev";

fn read(path: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus").join(path);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn column(name: &str) -> Vec<f64> {
    let bytes = read(&format!("wire/{name}.f64"));
    bytes.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().unwrap())).collect()
}

/// The bytes of each frame of a corpus file, split at the lengths their
/// headers announce.
fn raw_frames(name: &str) -> Vec<Vec<u8>> {
    let bytes = read(&format!("wire/{name}.frames"));
    let mut rest = &bytes[..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        let len = 5 + u32::from_le_bytes(rest[1..5].try_into().unwrap()) as usize;
        out.push(rest[..len].to_vec());
        rest = &rest[len..];
    }
    out
}

/// Every frame of a corpus file; the file holds whole frames only.
fn frames(name: &str) -> Vec<SensorMessage> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(&read(&format!("wire/{name}.frames")));
    let messages = decoder.drain().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(decoder.buffered(), 0, "{name}: trailing bytes");
    messages
}

/// The fields of `table`, read through its accessors, in an order of this
/// test's own, so the digest does not follow the wire layout.
fn put_table(out: &mut Vec<u8>, table: &LookupTable) {
    out.extend_from_slice(table.method().name().as_bytes());
    out.push(table.resolution_bits());
    for &c in table.bin_counts() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    let (lo, hi) = table.value_range();
    let fields = table.separators().iter().chain(table.bin_means()).chain([&lo, &hi]);
    for v in fields {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// CRC32 over the decoded fields of `messages`.
fn digest(messages: &[SensorMessage]) -> u32 {
    let mut out = Vec::new();
    for message in messages {
        match message {
            SensorMessage::Table(table) => {
                out.push(b'T');
                put_table(&mut out, table);
            }
            SensorMessage::EpochTable { epoch, table } => {
                out.push(b'E');
                out.extend_from_slice(&epoch.to_le_bytes());
                put_table(&mut out, table);
            }
            SensorMessage::Window(w) => {
                out.push(b'W');
                out.extend_from_slice(&w.window_start.to_le_bytes());
                out.push(w.symbol.resolution_bits());
                out.extend_from_slice(&w.symbol.rank().to_le_bytes());
                out.extend_from_slice(&w.samples.to_le_bytes());
            }
        }
    }
    crc32(&out)
}

/// Segment count and CRC32 over every segment's meta fields and symbols.
fn store_digest(store: &mut SegmentStore) -> (usize, u32) {
    let metas = store.segments().to_vec();
    let mut out = Vec::new();
    for m in &metas {
        for field in [m.house, m.start as u64, m.interval as u64, m.count, m.offset, m.len] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.extend_from_slice(&m.min_rank.to_le_bytes());
        out.extend_from_slice(&m.max_rank.to_le_bytes());
        out.push(m.resolution_bits);
        out.extend_from_slice(&m.epoch.to_le_bytes());
        let series = store
            .read_epoch_truncated(m.house, m.epoch, m.start, m.end(), m.resolution_bits)
            .unwrap();
        assert_eq!(series.len() as u64, m.count);
        for (t, symbol) in series.iter() {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&symbol.rank().to_le_bytes());
        }
    }
    (metas.len(), crc32(&out))
}

#[test]
fn every_file_decodes_to_its_pins() {
    assert_eq!(column("house").len(), 192);
    assert_eq!(column("house-50w").len(), 192);
    let pins: [(&str, usize, u32); 5] = [
        ("learn-house", 15, 0xAEBC_2309),
        ("learn-house-50w", 15, 0x35EE_999E),
        ("sketch-house", 15, 0x43F6_65E3),
        ("sketch-house-50w", 15, 0xABC1_E2F1),
        ("meter-stream", 50, 0xC6D4_E352),
    ];
    for (name, count, crc) in pins {
        let messages = frames(name);
        assert_eq!((messages.len(), digest(&messages)), (count, crc), "{name}");
    }

    let mut v2 = SegmentStore::from_bytes(&read("segstore/v2-epochs.sms2")).unwrap();
    assert_eq!(v2.house_epochs(1), [0, 1]);
    assert_eq!(store_digest(&mut v2), (3, 0x90B5_1704));
    let mut v1 = SegmentStore::from_bytes(&read("segstore/v1.sms1")).unwrap();
    assert!(v1.segments().iter().all(|m| m.epoch == 0));
    assert_eq!(store_digest(&mut v1), (2, 0x2582_EFC4));

    let handshake = read("wire/handshake.bin");
    let (magic, rest) = handshake.split_at(4);
    let (meter, rest) = rest.split_at(8);
    let (token_len, token) = rest.split_at(2);
    assert_eq!(magic, HANDSHAKE_MAGIC);
    assert_eq!(u64::from_le_bytes(meter.try_into().unwrap()), METER);
    assert_eq!(u16::from_le_bytes(token_len.try_into().unwrap()) as usize, token.len());
    assert_eq!(token, TOKEN);
}

#[test]
fn current_version_files_re_encode_byte_identical() {
    for name in
        ["learn-house", "learn-house-50w", "sketch-house", "sketch-house-50w", "meter-stream"]
    {
        let encoded: Vec<Vec<u8>> =
            frames(name).iter().map(|m| encode_message(m).unwrap()).collect();
        assert!(encoded == raw_frames(name), "{name}");
    }
    let image = read("segstore/v2-epochs.sms2");
    assert!(SegmentStore::from_bytes(&image).unwrap().to_bytes() == image);
    assert_eq!(encode_handshake(METER, TOKEN), read("wire/handshake.bin"));
}

#[test]
fn committed_tables_are_learned_again_from_their_columns() {
    for name in ["house", "house-50w"] {
        let values = column(name);
        let mut sketch = QuantileSketch::with_default_capacity();
        for &v in &values {
            sketch.update(v).unwrap();
        }
        let learned = raw_frames(&format!("learn-{name}"));
        let sketched = raw_frames(&format!("sketch-{name}"));
        let cells = SeparatorMethod::ALL.into_iter().flat_map(|m| KS.map(|k| (m, k)));
        for (i, (method, k)) in cells.enumerate() {
            let alphabet = Alphabet::with_size(k).unwrap();
            let table = LookupTable::learn(method, alphabet, &values).unwrap();
            let got = encode_message(&SensorMessage::Table(table)).unwrap();
            assert!(got == learned[i], "{name}: learn {method} k={k}");
            let table = LookupTable::learn_from_sketch(method, alphabet, &sketch).unwrap();
            let epoch = i as u32 + 1;
            let got = encode_message(&SensorMessage::EpochTable { epoch, table }).unwrap();
            assert!(got == sketched[i], "{name}: learn_from_sketch {method} k={k}");
        }
    }

    // The meter stream, replayed from `house.f64`.
    let values = column("house");
    let alphabet = Alphabet::with_size(16).unwrap();
    let table = LookupTable::learn(SeparatorMethod::Median, alphabet, &values).unwrap();
    let mut encoder = OnlineEncoder::new(table.clone(), 3600, Aggregation::Mean).unwrap();
    let mut stream = vec![SensorMessage::Table(table)];
    let mut sketch = QuantileSketch::with_default_capacity();
    let (day_one, day_two) = values.split_at(96);
    for (day, samples) in [day_one, day_two].into_iter().enumerate() {
        if day == 1 {
            let table =
                LookupTable::learn_from_sketch(SeparatorMethod::Median, alphabet, &sketch).unwrap();
            encoder.set_table(table.clone());
            stream.push(SensorMessage::EpochTable { epoch: 1, table });
        }
        for (i, &v) in samples.iter().enumerate() {
            sketch.update(v).unwrap();
            let t = (day * 96 + i) as i64 * 900;
            stream.extend(encoder.push(t, v).unwrap().map(SensorMessage::Window));
        }
        stream.extend(encoder.finish().map(SensorMessage::Window));
    }
    let encoded: Vec<Vec<u8>> = stream.iter().map(|m| encode_message(m).unwrap()).collect();
    assert!(encoded == raw_frames("meter-stream"));
}
