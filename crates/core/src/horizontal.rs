//! Horizontal segmentation (paper Definition 3) and the symbolic time-series
//! type it produces.

use crate::error::{Error, Result};
use crate::lookup::{LookupTable, SymbolSemantics};
use crate::symbol::{Symbol, SymbolReader, SymbolWriter};
use crate::timeseries::{TimeSeries, Timestamp};

/// A symbolic time series `Ŝ = {ŝ_1, ŝ_2, …}`: timestamps plus symbols, all
/// of one resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicSeries {
    resolution_bits: u8,
    timestamps: Vec<Timestamp>,
    symbols: Vec<Symbol>,
}

impl SymbolicSeries {
    /// Creates an empty series of the given resolution.
    pub fn new(resolution_bits: u8) -> Result<Self> {
        if resolution_bits == 0 || resolution_bits > crate::symbol::MAX_RESOLUTION_BITS {
            return Err(Error::InvalidResolution(resolution_bits));
        }
        Ok(SymbolicSeries { resolution_bits, timestamps: Vec::new(), symbols: Vec::new() })
    }

    /// Creates an empty series of the given resolution with pre-allocated
    /// room for `capacity` symbols.
    pub fn with_capacity(resolution_bits: u8, capacity: usize) -> Result<Self> {
        let mut s = Self::new(resolution_bits)?;
        s.timestamps.reserve(capacity);
        s.symbols.reserve(capacity);
        Ok(s)
    }

    /// Removes all symbols, keeping the allocation and resolution. Combined
    /// with [`Self::reset`] this lets worker threads reuse one output buffer
    /// across many series.
    pub fn clear(&mut self) {
        self.timestamps.clear();
        self.symbols.clear();
    }

    /// Clears the series and switches it to a (possibly different)
    /// resolution, keeping the allocations.
    pub fn reset(&mut self, resolution_bits: u8) -> Result<()> {
        if resolution_bits == 0 || resolution_bits > crate::symbol::MAX_RESOLUTION_BITS {
            return Err(Error::InvalidResolution(resolution_bits));
        }
        self.resolution_bits = resolution_bits;
        self.clear();
        Ok(())
    }

    /// Builds from parallel timestamp/symbol vectors.
    pub fn from_parts(
        resolution_bits: u8,
        timestamps: Vec<Timestamp>,
        symbols: Vec<Symbol>,
    ) -> Result<Self> {
        if timestamps.len() != symbols.len() {
            return Err(Error::InvalidParameter {
                name: "timestamps/symbols",
                reason: format!("length mismatch: {} vs {}", timestamps.len(), symbols.len()),
            });
        }
        let mut s = Self::new(resolution_bits)?;
        for (t, sym) in timestamps.into_iter().zip(symbols) {
            s.push(t, sym)?;
        }
        Ok(s)
    }

    /// Appends one `(timestamp, symbol)` pair, enforcing timestamp order and
    /// resolution consistency.
    pub fn push(&mut self, t: Timestamp, sym: Symbol) -> Result<()> {
        if sym.resolution_bits() != self.resolution_bits {
            return Err(Error::ResolutionMismatch {
                left: sym.resolution_bits(),
                right: self.resolution_bits,
            });
        }
        if let Some(&last) = self.timestamps.last() {
            if t < last {
                return Err(Error::NonMonotonicTimestamps { index: self.timestamps.len() });
            }
        }
        self.timestamps.push(t);
        self.symbols.push(sym);
        Ok(())
    }

    /// Symbol resolution in bits.
    pub fn resolution_bits(&self) -> u8 {
        self.resolution_bits
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbols in order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// The timestamps in order.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// Iterator over `(timestamp, symbol)`.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, Symbol)> + '_ {
        self.timestamps.iter().copied().zip(self.symbols.iter().copied())
    }

    /// Symbol ranks as integers (the nominal-attribute view used by the ML
    /// substrate).
    pub fn ranks(&self) -> Vec<u16> {
        self.symbols.iter().map(|s| s.rank()).collect()
    }

    /// The concatenated string form, e.g. `"000 101 110"`.
    pub fn to_string_joined(&self, sep: &str) -> String {
        self.symbols.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(sep)
    }

    /// Down-converts every symbol to a lower resolution (§4: "higher
    /// resolution symbols can easily be converted to lower resolution").
    pub fn truncate_resolution(&self, to_bits: u8) -> Result<SymbolicSeries> {
        let symbols =
            self.symbols.iter().map(|s| s.truncate(to_bits)).collect::<Result<Vec<_>>>()?;
        Ok(SymbolicSeries {
            resolution_bits: to_bits,
            timestamps: self.timestamps.clone(),
            symbols,
        })
    }

    /// Packs the symbol payload into bits (timestamps are implicit for
    /// regular streams; the wire format stores `(start, interval)` separately).
    pub fn pack_symbols(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bits().div_ceil(8));
        self.pack_symbols_into(&mut out);
        out
    }

    /// Appends the bytes of [`pack_symbols`](Self::pack_symbols) to `out`,
    /// reserving room for them first.
    pub(crate) fn pack_symbols_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.payload_bits().div_ceil(8));
        let mut w = SymbolWriter::with_buffer(std::mem::take(out));
        for &s in &self.symbols {
            w.write(s);
        }
        *out = w.into_bytes();
    }

    /// Unpacks `count` symbols of `resolution_bits` from packed bytes,
    /// attaching regular timestamps `start + i·interval`.
    pub fn unpack_symbols(
        data: &[u8],
        resolution_bits: u8,
        count: usize,
        start: Timestamp,
        interval: i64,
    ) -> Result<SymbolicSeries> {
        let mut r = SymbolReader::new(data, resolution_bits)?;
        let mut out = Self::new(resolution_bits)?;
        for i in 0..count {
            let sym = r.read().ok_or_else(|| {
                Error::WireFormat(format!("expected {count} symbols, data ran out at {i}"))
            })?;
            out.push(start + i as i64 * interval, sym)?;
        }
        Ok(out)
    }

    /// Payload size in bits.
    pub fn payload_bits(&self) -> usize {
        self.len() * self.resolution_bits as usize
    }
}

/// Horizontal segmentation `H(S, L)` per Definition 3: encodes every value of
/// `series` through the lookup table, preserving timestamps.
pub fn horizontal_segmentation(series: &TimeSeries, table: &LookupTable) -> Result<SymbolicSeries> {
    let mut out = SymbolicSeries::with_capacity(table.resolution_bits(), series.len())?;
    horizontal_segmentation_into(series, table, &mut out)?;
    Ok(out)
}

/// Allocation-reusing variant of [`horizontal_segmentation`]: resets `out` to
/// the table's resolution and fills it in place.
///
/// This is the encode hot path (every fleet run funnels through here), so
/// instead of validating per push it runs three column passes that the
/// compiler can keep branch-free: a timestamp-order check, the batched
/// separator search of [`LookupTable::encode_batch_into`], and the column
/// install. Successful outputs are bit-identical to the legacy per-value
/// `push` loop, and each single defect reports the same index it did there
/// (an input carrying *both* a NaN and an out-of-order timestamp now
/// surfaces the timestamp error first).
pub fn horizontal_segmentation_into(
    series: &TimeSeries,
    table: &LookupTable,
    out: &mut SymbolicSeries,
) -> Result<()> {
    out.reset(table.resolution_bits())?;
    let samples = series.samples();
    // Same index semantics as `SymbolicSeries::push`: the reported index is
    // the output position at which the non-monotonic timestamp appeared.
    for (i, w) in samples.windows(2).enumerate() {
        if w[1].t < w[0].t {
            return Err(Error::NonMonotonicTimestamps { index: i + 1 });
        }
    }
    table.encode_samples_into(samples, &mut out.symbols)?;
    out.timestamps.extend(samples.iter().map(|s| s.t));
    Ok(())
}

/// Inverse of horizontal segmentation: maps each symbol back to a real value
/// under the chosen semantics, preserving timestamps.
pub fn reconstruct(
    symbolic: &SymbolicSeries,
    table: &LookupTable,
    semantics: SymbolSemantics,
) -> Result<TimeSeries> {
    let mut out = TimeSeries::with_capacity(symbolic.len());
    for (t, sym) in symbolic.iter() {
        out.push(t, table.decode_symbol(sym, semantics)?)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::separators::SeparatorMethod;

    fn table4() -> LookupTable {
        LookupTable::from_parts(
            SeparatorMethod::Uniform,
            Alphabet::with_size(4).unwrap(),
            vec![100.0, 200.0, 300.0],
            &[0.0, 400.0],
        )
        .unwrap()
    }

    #[test]
    fn horizontal_preserves_timestamps() {
        let s = TimeSeries::from_regular(1000, 60, &[50.0, 150.0, 250.0, 350.0]).unwrap();
        let sym = horizontal_segmentation(&s, &table4()).unwrap();
        assert_eq!(sym.timestamps(), &[1000, 1060, 1120, 1180]);
        assert_eq!(sym.to_string_joined(" "), "00 01 10 11");
        assert_eq!(sym.ranks(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reconstruct_uses_bin_centers() {
        let s = TimeSeries::from_regular(0, 1, &[50.0, 350.0]).unwrap();
        let t = table4();
        let sym = horizontal_segmentation(&s, &t).unwrap();
        let r = reconstruct(&sym, &t, SymbolSemantics::RangeCenter).unwrap();
        assert_eq!(r.values(), vec![50.0, 350.0]);
        assert_eq!(r.timestamps(), s.timestamps());
    }

    #[test]
    fn push_validates_resolution_and_order() {
        let mut s = SymbolicSeries::new(2).unwrap();
        s.push(0, Symbol::from_rank(1, 2).unwrap()).unwrap();
        assert!(s.push(1, Symbol::from_rank(1, 3).unwrap()).is_err());
        assert!(s.push(-1, Symbol::from_rank(0, 2).unwrap()).is_err());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(SymbolicSeries::from_parts(2, vec![0, 1], vec![Symbol::from_rank(0, 2).unwrap()])
            .is_err());
    }

    #[test]
    fn truncate_resolution_truncates_all() {
        let s = TimeSeries::from_regular(0, 1, &[50.0, 150.0, 250.0, 350.0]).unwrap();
        let sym = horizontal_segmentation(&s, &table4()).unwrap();
        let low = sym.truncate_resolution(1).unwrap();
        assert_eq!(low.to_string_joined(""), "0011");
        assert_eq!(low.resolution_bits(), 1);
        assert_eq!(low.timestamps(), sym.timestamps());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let s = TimeSeries::from_regular(500, 900, &[50.0, 150.0, 250.0, 350.0, 120.0]).unwrap();
        let sym = horizontal_segmentation(&s, &table4()).unwrap();
        let packed = sym.pack_symbols();
        assert_eq!(packed.len(), 2, "5 symbols × 2 bits = 10 bits = 2 bytes");
        let back = SymbolicSeries::unpack_symbols(&packed, 2, 5, 500, 900).unwrap();
        // Timestamps were regular so the roundtrip is lossless.
        assert_eq!(back.symbols(), sym.symbols());
        assert_eq!(back.timestamps(), sym.timestamps());
        assert!(SymbolicSeries::unpack_symbols(&packed, 2, 100, 0, 1).is_err());
    }

    #[test]
    fn payload_bits_counts() {
        let s = TimeSeries::from_regular(0, 1, &[50.0; 96]).unwrap();
        let t = LookupTable::from_parts(
            SeparatorMethod::Uniform,
            Alphabet::with_size(16).unwrap(),
            (1..16).map(|i| i as f64 * 100.0).collect(),
            &[],
        )
        .unwrap();
        let sym = horizontal_segmentation(&s, &t).unwrap();
        assert_eq!(sym.payload_bits(), 384, "the paper's §2.3 number");
    }
}
