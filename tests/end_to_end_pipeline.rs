//! Cross-crate integration: generator → codec → wire → reconstruction.

use smart_meter_symbolics::core::encoder::{SensorMessage, SensorPipeline};
use smart_meter_symbolics::core::horizontal::SymbolicSeries;
use smart_meter_symbolics::core::wire::{encode_message, FrameDecoder};
use smart_meter_symbolics::meterdata::generator::redd_like;
use smart_meter_symbolics::prelude::*;

fn house_series() -> TimeSeries {
    redd_like(7, 3, 30).generate().unwrap().house(1).unwrap().clone()
}

#[test]
fn codec_roundtrip_error_is_bounded_by_bin_width() {
    let series = house_series();
    let history = series.head_duration(2 * 86_400);
    for method in SeparatorMethod::ALL {
        let codec = CodecBuilder::new()
            .method(method)
            .alphabet_size(16)
            .unwrap()
            .window_secs(900)
            .train(&history)
            .unwrap();
        let aggregated = codec.aggregate(&series).unwrap();
        let symbols = codec.encode(&series).unwrap();
        let decoded = codec.decode(&symbols, SymbolSemantics::RangeCenter).unwrap();
        assert_eq!(aggregated.len(), decoded.len());
        for ((t1, actual), (t2, approx)) in aggregated.iter().zip(decoded.iter()) {
            assert_eq!(t1, t2);
            let sym = codec.table().encode_value(actual).unwrap();
            let (lo, hi) = codec.table().range_of(sym).unwrap();
            // The decoded center must sit inside the symbol's range, and the
            // actual value can only escape the range at the outer bins.
            assert!(approx >= lo - 1e-9 && approx <= hi + 1e-9, "{method}: {approx} ∉ [{lo},{hi}]");
            if sym.rank() > 0 && (sym.rank() as usize) < codec.table().size() - 1 {
                assert!(
                    actual > lo - 1e-9 && actual <= hi + 1e-9,
                    "{method}: inner-bin value {actual} outside ({lo},{hi}]"
                );
            }
        }
    }
}

#[test]
fn online_pipeline_matches_batch_encoding() {
    let series = house_series();
    let mut pipeline = SensorPipeline::new(
        SeparatorMethod::Median,
        Alphabet::with_size(16).unwrap(),
        900,
        Aggregation::Mean,
        2 * 86_400,
    )
    .unwrap();
    let mut online: Vec<(Timestamp, Symbol)> = Vec::new();
    let mut table = None;
    for (t, v) in series.iter() {
        for m in pipeline.push(t, v).unwrap() {
            match m {
                SensorMessage::Table(t) | SensorMessage::EpochTable { table: t, .. } => {
                    table = Some(t)
                }
                SensorMessage::Window(w) => online.push((w.window_start, w.symbol)),
            }
        }
    }
    for m in pipeline.finish() {
        if let SensorMessage::Window(w) = m {
            online.push((w.window_start, w.symbol));
        }
    }
    let table = table.expect("pipeline must emit its table");

    // Batch reference: same table, same windows.
    let codec = CodecBuilder::new().window_secs(900).with_table(table);
    let batch = codec.encode(&series).unwrap();
    let batch_pairs: Vec<(Timestamp, Symbol)> = batch.iter().collect();
    assert_eq!(online, batch_pairs);
}

#[test]
fn wire_roundtrip_preserves_symbols_and_tables() {
    let series = house_series();
    let history = series.head_duration(86_400);
    let codec = CodecBuilder::new()
        .method(SeparatorMethod::DistinctMedian)
        .alphabet_size(8)
        .unwrap()
        .window_secs(3600)
        .train(&history)
        .unwrap();
    let symbols = codec.encode(&series).unwrap();

    // Table over the binary wire.
    let frame = encode_message(&SensorMessage::Table(codec.table().clone())).unwrap();
    let mut decoder = FrameDecoder::new();
    decoder.feed(&frame);
    assert_eq!(decoder.drain().unwrap(), [SensorMessage::Table(codec.table().clone())]);

    // Symbols over packed bits (regular hourly stream).
    let packed = symbols.pack_symbols();
    assert_eq!(packed.len(), (symbols.len() * 3).div_ceil(8));
    let first_t = symbols.timestamps()[0];
    let restored =
        SymbolicSeries::unpack_symbols(&packed, 3, symbols.len(), first_t, 3600).unwrap();
    assert_eq!(restored.symbols(), symbols.symbols());
}

#[test]
fn truncation_equals_coarse_reencoding_on_real_data() {
    let series = house_series();
    let history = series.head_duration(2 * 86_400);
    for method in SeparatorMethod::ALL {
        let codec = CodecBuilder::new()
            .method(method)
            .alphabet_size(16)
            .unwrap()
            .window_secs(900)
            .train(&history)
            .unwrap();
        let fine = codec.encode(&series).unwrap();
        for bits in [1u8, 2, 3] {
            let coarse_table = codec.table().coarsen(bits).unwrap();
            let coarse_codec = CodecBuilder::new().window_secs(900).with_table(coarse_table);
            let direct = coarse_codec.encode(&series).unwrap();
            let truncated = fine.truncate_resolution(bits).unwrap();
            assert_eq!(direct.symbols(), truncated.symbols(), "{method} at {bits} bits");
        }
    }
}

#[test]
fn adaptive_encoder_handles_generated_regime_change() {
    use smart_meter_symbolics::core::adaptive::DriftConfig;

    // Two different houses spliced: distribution changes at the seam. The
    // sensor trains on the small house's first day.
    let ds = redd_like(3, 2, 30).generate().unwrap();
    let small = ds.house(2).unwrap();
    let big = ds.house(6).unwrap();
    let alphabet = Alphabet::with_size(8).unwrap();
    let mut enc =
        SensorPipeline::new(SeparatorMethod::Median, alphabet, 900, Aggregation::Mean, 86_400)
            .unwrap()
            .drift(DriftConfig { threshold: 0.3, window: 1000 })
            .unwrap();
    let mut t = 0i64;
    for (_, v) in small.iter() {
        enc.push(t, v).unwrap();
        t += 30;
    }
    let before = enc.adaptive_stats().rebuilds;
    for (_, v) in big.iter() {
        enc.push(t, v * 3.0).unwrap();
        t += 30;
    }
    assert!(
        enc.adaptive_stats().rebuilds > before,
        "splice to a 3× bigger house must trigger a rebuild"
    );
}

#[test]
fn csv_io_roundtrips_generated_dataset() {
    use smart_meter_symbolics::meterdata::io::{read_dataset, write_dataset};
    let ds = redd_like(11, 1, 300).generate().unwrap();
    let dir = std::env::temp_dir().join(format!("sms_e2e_io_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&ds, &dir).unwrap();
    let back = read_dataset(&dir).unwrap();
    assert_eq!(back, ds);
    let _ = std::fs::remove_dir_all(&dir);
}
