//! Property-based tests for `sms-core`'s data structures, beyond the
//! cross-crate suite in the workspace root: multiset/quantile equivalences,
//! lookup-table laws under adversarial separators (duplicates allowed),
//! bit-packing size accounting and byte layout, and wire-format totality.

use proptest::prelude::*;
use sms_core::alphabet::Alphabet;
use sms_core::encoder::{EncodedWindow, SensorMessage};
use sms_core::horizontal::SymbolicSeries;
use sms_core::lookup::{LookupTable, SymbolSemantics};
use sms_core::separators::SeparatorMethod;
use sms_core::stats::{ExactQuantiles, FiniteF64, OrderedMultiset};
use sms_core::symbol::{Symbol, SymbolWriter};
use sms_core::wire::{encode_message, FrameDecoder};

/// The packer `SymbolWriter::write` was before it moved whole words: one
/// bit per turn, MSB first, into a buffer grown a byte at a time. Kept as
/// the reference for the packed layout.
fn pack_bit_by_bit(symbols: &[Symbol]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut bit_pos = 0u8;
    for sym in symbols {
        for i in 0..sym.resolution_bits() {
            if bit_pos == 0 {
                buf.push(0);
            }
            if sym.bit(i) {
                *buf.last_mut().expect("just pushed") |= 1 << (7 - bit_pos);
            }
            bit_pos = (bit_pos + 1) % 8;
        }
    }
    buf
}

/// `rank` cut to its low `bits` bits, as a `bits`-bit symbol.
fn symbol(rank: u16, bits: u8) -> Symbol {
    Symbol::from_rank((rank as u32 & ((1u32 << bits) - 1)) as u16, bits).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn finite_f64_is_a_total_order_embedding(mut xs in prop::collection::vec(-1e12f64..1e12, 2..60)) {
        let keys: Vec<FiniteF64> = xs.iter().map(|&v| FiniteF64::new(v).unwrap()).collect();
        // Sorting by key equals sorting by value.
        let mut by_key: Vec<f64> = {
            let mut k = keys.clone();
            k.sort();
            k.into_iter().map(|x| x.get()).collect()
        };
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Normalize -0.0 vs 0.0 ties: compare with bit-insensitive equality.
        for (a, b) in xs.iter().zip(by_key.iter_mut()) {
            prop_assert!(a == b, "{a} vs {b}");
        }
    }

    #[test]
    fn multiset_quantiles_match_type1_definition(values in prop::collection::vec(0.0f64..1000.0, 1..80), qnum in 1usize..20) {
        let q = qnum as f64 / 20.0;
        let mut ms = OrderedMultiset::new();
        for &v in &values {
            ms.insert(v).unwrap();
        }
        // Type-1 reference: smallest value whose cumulative count ≥ ceil(q n).
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1).min(sorted.len());
        prop_assert_eq!(ms.quantile(q), Some(sorted[target - 1]));
    }

    #[test]
    fn exact_quantiles_are_monotone_in_q(values in prop::collection::vec(-500.0f64..500.0, 1..60)) {
        let eq = ExactQuantiles::new(&values).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let v = eq.quantile(i as f64 / 10.0);
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        prop_assert_eq!(eq.quantile(0.0), *values.iter().min_by(|a, b| a.partial_cmp(b).unwrap()).unwrap());
        prop_assert_eq!(eq.quantile(1.0), *values.iter().max_by(|a, b| a.partial_cmp(b).unwrap()).unwrap());
    }

    #[test]
    fn lookup_from_arbitrary_sorted_separators_is_total(
        mut seps in prop::collection::vec(0.0f64..1000.0, 7),
        values in prop::collection::vec(-100.0f64..1100.0, 1..50),
    ) {
        // Adversarial: duplicates allowed after sorting.
        seps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let table = LookupTable::from_parts(
            SeparatorMethod::Uniform,
            Alphabet::with_size(8).unwrap(),
            seps.clone(),
            &values,
        )
        .unwrap();
        for &v in &values {
            let sym = table.encode_value(v).unwrap();
            prop_assert!(sym.rank() < 8);
            // Definition 3 invariants against the raw separators.
            let r = sym.rank() as usize;
            if r > 0 {
                prop_assert!(v > seps[r - 1], "v={v} rank={r} sep={}", seps[r - 1]);
            }
            if r < 7 {
                prop_assert!(v <= seps[r], "v={v} rank={r} sep={}", seps[r]);
            }
            // Decoding is total and finite for every symbol.
            for sem in [SymbolSemantics::RangeCenter, SymbolSemantics::RangeMean] {
                prop_assert!(table.decode_symbol(sym, sem).unwrap().is_finite());
            }
        }
    }

    #[test]
    fn bin_counts_sum_to_training_size(values in prop::collection::vec(0.0f64..100.0, 1..120), bits in 1u8..5) {
        for method in SeparatorMethod::ALL {
            let t = LookupTable::learn(method, Alphabet::with_resolution(bits).unwrap(), &values)
                .unwrap();
            prop_assert_eq!(t.bin_counts().iter().sum::<u64>(), values.len() as u64);
            // Training mean is preserved by count-weighted bin means.
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let weighted: f64 = t
                .bin_counts()
                .iter()
                .zip(t.bin_means())
                .map(|(&c, &m)| c as f64 * m)
                .sum::<f64>()
                / values.len() as f64;
            prop_assert!((weighted - mean).abs() < 1e-6, "{method}: {weighted} vs {mean}");
        }
    }

    #[test]
    fn writer_bit_accounting(ranks in prop::collection::vec(0u16..64, 0..120), bits in 1u8..7) {
        let k = 1u16 << bits;
        let mut w = SymbolWriter::new();
        for &r in &ranks {
            w.write(Symbol::from_rank(r % k, bits).unwrap());
        }
        prop_assert_eq!(w.bits_written(), ranks.len() * bits as usize);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), (ranks.len() * bits as usize).div_ceil(8));
    }

    #[test]
    fn packer_matches_the_bit_loop_at_every_resolution(
        ranks in prop::collection::vec(0u16..=u16::MAX, 0..300),
    ) {
        for bits in 1..=16u8 {
            let symbols: Vec<Symbol> = ranks.iter().map(|&r| symbol(r, bits)).collect();
            let want = pack_bit_by_bit(&symbols);
            let mut w = SymbolWriter::new();
            for &s in &symbols {
                w.write(s);
            }
            prop_assert_eq!(w.bits_written(), symbols.len() * bits as usize);
            prop_assert_eq!(&w.into_bytes(), &want, "{} bits", bits);

            let timestamps = (0..symbols.len() as i64).map(|i| i * 900).collect();
            let series = SymbolicSeries::from_parts(bits, timestamps, symbols.clone()).unwrap();
            let packed = series.pack_symbols();
            prop_assert_eq!(&packed, &want, "{} bits", bits);
            prop_assert_eq!(packed.capacity(), want.len(), "pack_symbols sizes its output exactly");

            let back =
                SymbolicSeries::unpack_symbols(&packed, bits, symbols.len(), 0, 900).unwrap();
            prop_assert_eq!(back, series);
        }
    }

    #[test]
    fn packer_matches_the_bit_loop_across_mixed_resolutions(
        stream in prop::collection::vec((1u8..=16, 0u16..=u16::MAX), 0..300),
    ) {
        let symbols: Vec<Symbol> = stream.iter().map(|&(bits, r)| symbol(r, bits)).collect();
        let mut w = SymbolWriter::new();
        for &s in &symbols {
            w.write(s);
        }
        let total: usize = stream.iter().map(|&(bits, _)| bits as usize).sum();
        prop_assert_eq!(w.bits_written(), total);
        prop_assert_eq!(w.into_bytes(), pack_bit_by_bit(&symbols));
    }

    #[test]
    fn wire_roundtrip_is_total_for_windows(
        start in -1_000_000i64..1_000_000,
        rank in 0u16..16,
        samples in 0u32..100_000,
    ) {
        let msg = SensorMessage::Window(EncodedWindow {
            window_start: start,
            symbol: Symbol::from_rank(rank, 4).unwrap(),
            samples,
        });
        let frame = encode_message(&msg).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let out = dec.drain().unwrap();
        prop_assert_eq!(out, vec![msg]);
        prop_assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn wire_table_roundtrip(values in prop::collection::vec(0.0f64..5000.0, 8..100), bits in 1u8..5) {
        let table = LookupTable::learn(
            SeparatorMethod::Median,
            Alphabet::with_resolution(bits).unwrap(),
            &values,
        )
        .unwrap();
        let frame = encode_message(&SensorMessage::Table(table.clone())).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        match dec.drain().unwrap().pop().unwrap() {
            SensorMessage::Table(t) => prop_assert_eq!(t, table),
            other => prop_assert!(false, "unexpected message: {other:?}"),
        }
    }

    #[test]
    fn symbol_children_partition_parent_range(
        values in prop::collection::vec(0.0f64..1000.0, 16..120),
    ) {
        let table = LookupTable::learn(
            SeparatorMethod::Median,
            Alphabet::with_size(16).unwrap(),
            &values,
        )
        .unwrap();
        // For every 3-bit symbol, its two 4-bit children's ranges tile it.
        for rank in 0..8u16 {
            let parent = Symbol::from_rank(rank, 3).unwrap();
            let (l, r) = parent.children().unwrap();
            let (plo, phi) = table.range_of(parent).unwrap();
            let (llo, lhi) = table.range_of(l).unwrap();
            let (rlo, rhi) = table.range_of(r).unwrap();
            prop_assert!((plo - llo).abs() < 1e-12);
            prop_assert!((lhi - rlo).abs() < 1e-12, "children adjacent");
            prop_assert!((phi - rhi).abs() < 1e-12);
        }
    }
}
