//! Failure-injection tests: corrupted wire streams, fuzzed ARFF, malformed
//! CSV, and hostile numeric inputs must produce *errors*, never panics or
//! silent corruption.

use proptest::prelude::*;
use smart_meter_symbolics::core::encoder::{EncodedWindow, SensorMessage};
use smart_meter_symbolics::core::ingest::{IngestConfig, MeterIngest};
use smart_meter_symbolics::core::wire::{encode_message, FrameDecoder};
use smart_meter_symbolics::prelude::*;
use sms_bench::ingest_exp::{Fault, FaultInjector};
use sms_ml::arff::from_arff;
use std::collections::HashSet;

fn valid_stream() -> Vec<u8> {
    let values: Vec<f64> = (0..200).map(|i| ((i * 13) % 500) as f64).collect();
    let table =
        LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(8).unwrap(), &values)
            .unwrap();
    let mut wire = encode_message(&SensorMessage::Table(table)).unwrap();
    for i in 0..10i64 {
        wire.extend(
            encode_message(&SensorMessage::Window(EncodedWindow {
                window_start: i * 900,
                symbol: Symbol::from_rank((i % 8) as u16, 3).unwrap(),
                samples: 900,
            }))
            .unwrap(),
        );
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corrupted_wire_never_panics(flip_at in 0usize..400, flip_mask in 1u8..=255) {
        let mut wire = valid_stream();
        let idx = flip_at % wire.len();
        wire[idx] ^= flip_mask;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        // Drain until error or exhaustion — must terminate without panicking.
        let mut steps = 0;
        loop {
            match dec.next_message() {
                Ok(Some(_)) => {
                    steps += 1;
                    prop_assert!(steps <= 1000, "decoder must not loop forever");
                }
                Ok(None) => break,
                Err(_) => break, // graceful error is the acceptable outcome
            }
        }
    }

    #[test]
    fn truncated_wire_waits_or_errors(cut in 1usize..100) {
        let wire = valid_stream();
        let cut = cut.min(wire.len() - 1);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..cut]);
        // Must not panic; may yield some complete messages then wait.
        while let Ok(Some(_)) = dec.next_message() {}
    }

    #[test]
    fn arff_fuzz_never_panics(text in "[ -~\n]{0,400}") {
        let _ = from_arff(&text); // any outcome but a panic
    }

    #[test]
    fn arff_structured_fuzz(
        n_attrs in 1usize..5,
        rows in prop::collection::vec("[ -~]{0,30}", 0..10),
    ) {
        let mut text = String::from("@relation fuzz\n");
        for i in 0..n_attrs {
            text.push_str(&format!("@attribute a{i} numeric\n"));
        }
        text.push_str("@data\n");
        for r in &rows {
            text.push_str(r);
            text.push('\n');
        }
        let _ = from_arff(&text);
    }

    #[test]
    fn csv_fuzz_never_panics(text in "[ -~\n]{0,300}") {
        let dir = std::env::temp_dir()
            .join(format!("sms_fuzz_{}_{}", std::process::id(), text.len()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("fuzz.csv");
        std::fs::write(&p, &text).unwrap();
        let _ = smart_meter_symbolics::meterdata::io::read_series_csv(&p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_values_rejected_not_propagated(bad in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY])) {
        // Time series accept (storage is dumb), but every consumer rejects.
        prop_assert!(LookupTable::learn(
            SeparatorMethod::Median,
            Alphabet::with_size(4).unwrap(),
            &[1.0, bad, 3.0]
        )
        .is_err());
        let mut enc = OnlineEncoder::new(
            LookupTable::custom(&[1.0], 0.0, 2.0).unwrap(),
            60,
            Aggregation::Mean,
        )
        .unwrap();
        prop_assert!(enc.push(0, bad).is_err());
        prop_assert!(sms_core::stats::FiniteF64::new(bad).is_err());
    }

    #[test]
    fn symbol_parse_fuzz(text in "[01ab]{0,20}") {
        match text.parse::<Symbol>() {
            Ok(sym) => {
                prop_assert!(text.chars().all(|c| c == '0' || c == '1'));
                prop_assert_eq!(sym.to_string(), text);
            }
            Err(_) => {
                prop_assert!(
                    text.is_empty()
                        || text.len() > 16
                        || text.chars().any(|c| c != '0' && c != '1')
                );
            }
        }
    }
}

/// Byte range of one encoded frame, tagged (for windows) with its unique
/// `window_start` identity.
struct FrameSpan {
    start: usize,
    end: usize,
    id: Option<i64>,
}

/// A stream of `windows` frames after a table frame, plus each frame's span.
fn framed_stream(windows: i64) -> (Vec<u8>, Vec<FrameSpan>) {
    let values: Vec<f64> = (0..200).map(|i| ((i * 13) % 500) as f64).collect();
    let table =
        LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(8).unwrap(), &values)
            .unwrap();
    let mut msgs = vec![(SensorMessage::Table(table), None)];
    for i in 0..windows {
        let w = EncodedWindow {
            window_start: i * 900,
            symbol: Symbol::from_rank((i % 8) as u16, 3).unwrap(),
            samples: 900,
        };
        msgs.push((SensorMessage::Window(w), Some(i * 900)));
    }
    let mut wire = Vec::new();
    let mut frames = Vec::new();
    for (m, id) in &msgs {
        let start = wire.len();
        wire.extend(encode_message(m).unwrap());
        frames.push(FrameSpan { start, end: wire.len(), id: *id });
    }
    (wire, frames)
}

/// The ISSUE's headline guarantee: 10k seeded mutations of a 500-frame
/// stream (bit flips, truncations, duplications, delivered in random
/// mid-frame chunks) produce zero panics and zero hangs, and the gateway
/// resynchronizes well enough that ≥95% of the frames a mutation did *not*
/// touch still decode.
///
/// Override the iteration count with `MUTATION_FUZZ_ITERS` (e.g. a quick
/// smoke value while debugging, or a larger soak).
#[test]
fn mutation_fuzz_recovers_the_uncorrupted_stream() {
    let iters: u64 =
        std::env::var("MUTATION_FUZZ_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let (base, frames) = framed_stream(499);
    let mut inj = FaultInjector::new(0xFA57_F00D);
    let (mut expected_total, mut recovered_total) = (0u64, 0u64);

    for n in 0..iters {
        let mut wire = base.clone();
        let (fault, at) = inj.apply_nth(n, &mut wire);
        // Original-byte range this mutation touched: half-open for in-place
        // damage, zero-width at the insertion point for duplication (the
        // original bytes all survive, only the frame containing the
        // insertion point is interrupted).
        let (a, b) = match fault {
            Fault::BitFlip => (at, at + 1),
            Fault::Truncate => (at, at + (base.len() - wire.len())),
            Fault::Duplicate => {
                let ins = at + (wire.len() - base.len());
                (ins, ins)
            }
        };
        let untouched: Vec<i64> =
            frames
                .iter()
                .filter(|f| {
                    if a == b {
                        !(f.start < a && a < f.end)
                    } else {
                        !(f.start < b && a < f.end)
                    }
                })
                .filter_map(|f| f.id)
                .collect();

        let mut gw = MeterIngest::new(IngestConfig::default().max_frame_len(4096));
        let mut decoded: HashSet<i64> = HashSet::new();
        let mut offset = 0usize;
        for len in inj.chunk_lens(wire.len(), 97) {
            for msg in gw.ingest(&wire[offset..offset + len]) {
                if let SensorMessage::Window(w) = msg {
                    decoded.insert(w.window_start);
                }
            }
            offset += len;
        }

        // Byte-accounting invariant: every byte fed to the gateway is
        // consumed by a decoded frame, discarded by a resync, or still
        // buffered awaiting frame completion — nothing leaks, on every one
        // of the seeded mutations.
        let s = gw.stats();
        assert_eq!(
            s.bytes_decoded + s.bytes_discarded + gw.buffered() as u64,
            s.bytes_in,
            "byte accounting drifted on mutation {n} ({fault:?} at {at}): {s:?}"
        );

        expected_total += untouched.len() as u64;
        recovered_total += untouched.iter().filter(|id| decoded.contains(id)).count() as u64;
    }

    let ratio = recovered_total as f64 / expected_total.max(1) as f64;
    assert!(
        ratio >= 0.95,
        "recovered {recovered_total}/{expected_total} untouched frames ({ratio:.4}) over \
         {iters} mutations — below the 95% resync floor"
    );
}

/// Every possible mid-frame split point must decode identically to a
/// single-shot delivery: no spurious corruption, no leftover bytes.
#[test]
fn every_chunk_split_boundary_decodes_identically() {
    let (wire, frames) = framed_stream(20);
    for split in 1..wire.len() {
        let mut gw = MeterIngest::new(IngestConfig::default());
        let mut n = 0usize;
        n += gw.ingest(&wire[..split]).len();
        n += gw.ingest(&wire[split..]).len();
        assert_eq!(n, frames.len(), "split at byte {split}");
        let s = gw.stats();
        assert_eq!(s.frames_corrupt + s.frames_oversized + s.resyncs, 0, "split at byte {split}");
        assert_eq!(gw.buffered(), 0, "split at byte {split}");
    }
}
