//! Variable-length binary symbols (paper §2, Fig. 1).
//!
//! Symbols are binary strings such as `'0'`, `'101'`, `'00101'`, built by
//! recursively halving the value range. The alphabet therefore has a
//! *partial order*: a short symbol *covers* every longer symbol that extends
//! it (`'0'` "being equal to" `'01'`, `'00'`, … in the paper's wording).
//! This is what makes mixed-resolution streams comparable (§4: "higher
//! resolution symbols can easily be converted to lower resolution and lower
//! resolution symbols can be compared to higher resolution ones").

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum supported resolution in bits (alphabet of 2^16 symbols).
pub const MAX_RESOLUTION_BITS: u8 = 16;

/// A binary symbol: `len` bits, most significant bit first, stored in the low
/// `len` bits of `code`.
///
/// Two orders exist on symbols:
/// * within one resolution, symbols are **totally** ordered by their rank
///   (`Ord` is implemented for same-length symbols via [`Symbol::cmp_same_resolution`]);
/// * across resolutions, the **prefix partial order** applies
///   ([`Symbol::partial_cmp_prefix`]), where comparable symbols of different
///   length overlap in range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol {
    code: u16,
    len: u8,
}

impl Symbol {
    /// Creates a symbol from its rank within a `len`-bit alphabet.
    /// `rank` must be `< 2^len`.
    pub fn from_rank(rank: u16, len: u8) -> Result<Self> {
        if len == 0 || len > MAX_RESOLUTION_BITS {
            return Err(Error::InvalidResolution(len));
        }
        if len < 16 && rank >= (1u16 << len) {
            return Err(Error::InvalidParameter {
                name: "rank",
                reason: format!("rank {rank} does not fit in {len} bits"),
            });
        }
        Ok(Symbol { code: rank, len })
    }

    /// [`Symbol::from_rank`] without the per-call validation, for batch
    /// encode loops whose rank is already proven in range (a bin index of a
    /// table whose alphabet fixed `len`). Invariants are still checked in
    /// debug builds.
    #[inline]
    pub(crate) fn from_rank_unchecked(rank: u16, len: u8) -> Self {
        debug_assert!((1..=MAX_RESOLUTION_BITS).contains(&len), "invalid resolution {len}");
        debug_assert!(len == 16 || rank < (1u16 << len), "rank {rank} does not fit in {len} bits");
        Symbol { code: rank, len }
    }

    /// The rank of this symbol within its resolution (its bit pattern read as
    /// an unsigned integer). Rank 0 is the lowest value range.
    pub fn rank(self) -> u16 {
        self.code
    }

    /// Resolution in bits.
    pub fn resolution_bits(self) -> u8 {
        self.len
    }

    /// Bit `i` (0 = most significant / first character of the string form).
    pub fn bit(self, i: u8) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {}-bit symbol", self.len);
        (self.code >> (self.len - 1 - i)) & 1 == 1
    }

    /// Truncates to a lower resolution (`to_bits <= len`): the paper's
    /// higher-to-lower conversion, which simply drops trailing bits because
    /// ranges were built by recursive halving.
    pub fn truncate(self, to_bits: u8) -> Result<Symbol> {
        if to_bits == 0 || to_bits > self.len {
            return Err(Error::InvalidResolution(to_bits));
        }
        Ok(Symbol { code: self.code >> (self.len - to_bits), len: to_bits })
    }

    /// The immediate parent (one bit shorter), or `None` for 1-bit symbols.
    pub fn parent(self) -> Option<Symbol> {
        (self.len > 1).then(|| Symbol { code: self.code >> 1, len: self.len - 1 })
    }

    /// The two children one bit longer (`None` at [`MAX_RESOLUTION_BITS`]).
    pub fn children(self) -> Option<(Symbol, Symbol)> {
        if self.len >= MAX_RESOLUTION_BITS {
            return None;
        }
        let left = Symbol { code: self.code << 1, len: self.len + 1 };
        let right = Symbol { code: (self.code << 1) | 1, len: self.len + 1 };
        Some((left, right))
    }

    /// Whether `self` is a (non-strict) prefix of `other`; equivalently,
    /// whether `self`'s range covers `other`'s range.
    pub fn covers(self, other: Symbol) -> bool {
        self.len <= other.len && other.code >> (other.len - self.len) == self.code
    }

    /// Whether the two symbols are *compatible* under the partial order:
    /// one covers the other (their value ranges overlap).
    pub fn compatible(self, other: Symbol) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The prefix partial order of the paper: `None` when the ranges overlap
    /// (one symbol is a prefix of the other, paper: "'0' being equal to
    /// '01', '00' and so on"), otherwise the order of their disjoint ranges.
    pub fn partial_cmp_prefix(self, other: Symbol) -> Option<Ordering> {
        if self.compatible(other) {
            if self == other {
                return Some(Ordering::Equal);
            }
            return None;
        }
        // Compare at the shorter common resolution; ranges are disjoint here.
        let common = self.len.min(other.len);
        let a = self.code >> (self.len - common);
        let b = other.code >> (other.len - common);
        Some(a.cmp(&b))
    }

    /// Total order among symbols of the *same* resolution.
    pub fn cmp_same_resolution(self, other: Symbol) -> Result<Ordering> {
        if self.len != other.len {
            return Err(Error::ResolutionMismatch { left: self.len, right: other.len });
        }
        Ok(self.code.cmp(&other.code))
    }

    /// Distance in ranks between two same-resolution symbols (used by
    /// symbol-space error metrics).
    pub fn rank_distance(self, other: Symbol) -> Result<u16> {
        if self.len != other.len {
            return Err(Error::ResolutionMismatch { left: self.len, right: other.len });
        }
        Ok(self.code.abs_diff(other.code))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.bit(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromStr for Symbol {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        if s.is_empty() || s.len() > MAX_RESOLUTION_BITS as usize {
            return Err(Error::SymbolParse(s.to_string()));
        }
        let mut code: u16 = 0;
        for c in s.chars() {
            code = (code << 1)
                | match c {
                    '0' => 0,
                    '1' => 1,
                    _ => return Err(Error::SymbolParse(s.to_string())),
                };
        }
        Ok(Symbol { code, len: s.len() as u8 })
    }
}

/// Bit-packing writer for symbol streams: `len` bits per symbol, MSB first,
/// no padding between symbols. This is the storage format behind the §2.3
/// compression accounting ("16 symbols and an aggregation of 15 minutes …
/// only 384 bit" per day), and the crate's only bit packer.
///
/// Bits collect in a word accumulator and leave it 32 at a time, so a
/// symbol costs a few shifts rather than a loop turn per bit. The packed
/// bytes exist only once [`into_bytes`](Self::into_bytes) flushes the
/// accumulator.
#[derive(Debug, Default, Clone)]
pub struct SymbolWriter {
    buf: Vec<u8>,
    /// Bits not yet moved to `buf`: the low `pending` bits, oldest highest.
    acc: u64,
    /// Bits held in `acc`; under 32 between writes.
    pending: u32,
    bits_written: usize,
}

impl SymbolWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that packs after `buf`'s current end, which counts as a
    /// byte boundary; [`into_bytes`](Self::into_bytes) returns `buf` with
    /// the packed bits appended. Reserve room in `buf` to pack without
    /// reallocating.
    pub(crate) fn with_buffer(buf: Vec<u8>) -> Self {
        SymbolWriter { buf, ..Self::default() }
    }

    /// Appends one symbol.
    #[inline]
    pub fn write(&mut self, sym: Symbol) {
        self.write_bits(u32::from(sym.code), sym.len);
    }

    /// Appends the low `width ≤ 32` bits of `value`, MSB first.
    #[inline]
    pub(crate) fn write_bits(&mut self, value: u32, width: u8) {
        debug_assert!(width <= 32, "cannot write {width} bits at once");
        let width = u32::from(width);
        // Under 32 pending plus at most 32 new bits fit the u64; bits shifted
        // out above them were flushed already.
        self.acc = (self.acc << width) | (u64::from(value) & ((1u64 << width) - 1));
        self.pending += width;
        if self.pending >= 32 {
            self.pending -= 32;
            self.buf.extend_from_slice(&((self.acc >> self.pending) as u32).to_be_bytes());
        }
        self.bits_written += width as usize;
    }

    /// Total payload bits written (excluding final-byte padding).
    pub fn bits_written(&self) -> usize {
        self.bits_written
    }

    /// Finishes and returns the packed bytes (last byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        while self.pending >= 8 {
            self.pending -= 8;
            self.buf.push((self.acc >> self.pending) as u8);
        }
        if self.pending > 0 {
            self.buf.push((self.acc << (8 - self.pending)) as u8);
        }
        self.buf
    }
}

/// Reader matching [`SymbolWriter`]: decodes fixed-resolution symbols.
#[derive(Debug, Clone)]
pub struct SymbolReader<'a> {
    data: &'a [u8],
    bit_pos: usize,
    resolution_bits: u8,
}

impl<'a> SymbolReader<'a> {
    /// Reads `resolution_bits`-bit symbols from `data`.
    pub fn new(data: &'a [u8], resolution_bits: u8) -> Result<Self> {
        if resolution_bits == 0 || resolution_bits > MAX_RESOLUTION_BITS {
            return Err(Error::InvalidResolution(resolution_bits));
        }
        Ok(SymbolReader { data, bit_pos: 0, resolution_bits })
    }

    /// Reads the next symbol, or `None` when fewer than `resolution_bits`
    /// bits remain.
    pub fn read(&mut self) -> Option<Symbol> {
        let end = self.bit_pos + self.resolution_bits as usize;
        if end > self.data.len() * 8 {
            return None;
        }
        let mut code: u16 = 0;
        for i in self.bit_pos..end {
            let byte = self.data[i / 8];
            let bit = (byte >> (7 - (i % 8))) & 1;
            code = (code << 1) | bit as u16;
        }
        self.bit_pos = end;
        Some(Symbol { code, len: self.resolution_bits })
    }

    /// Drains all remaining symbols.
    pub fn read_all(&mut self) -> Vec<Symbol> {
        std::iter::from_fn(|| self.read()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "1", "101", "00101", "1111111111111111"] {
            assert_eq!(sym(s).to_string(), s);
        }
        assert!("".parse::<Symbol>().is_err());
        assert!("012".parse::<Symbol>().is_err());
        assert!("10101010101010101".parse::<Symbol>().is_err(), "17 bits too long");
    }

    #[test]
    fn from_rank_bounds() {
        assert_eq!(Symbol::from_rank(5, 3).unwrap().to_string(), "101");
        assert!(Symbol::from_rank(8, 3).is_err());
        assert!(Symbol::from_rank(0, 0).is_err());
        assert!(Symbol::from_rank(0, 17).is_err());
        // Full 16-bit range is representable.
        assert!(Symbol::from_rank(u16::MAX, 16).is_ok());
    }

    #[test]
    fn truncate_is_prefix() {
        let s = sym("00101");
        assert_eq!(s.truncate(3).unwrap(), sym("001"));
        assert_eq!(s.truncate(1).unwrap(), sym("0"));
        assert_eq!(s.truncate(5).unwrap(), s);
        assert!(s.truncate(6).is_err());
        assert!(s.truncate(0).is_err());
    }

    #[test]
    fn parent_children_inverse() {
        let s = sym("101");
        assert_eq!(s.parent().unwrap(), sym("10"));
        let (l, r) = s.children().unwrap();
        assert_eq!(l, sym("1010"));
        assert_eq!(r, sym("1011"));
        assert_eq!(l.parent().unwrap(), s);
        assert_eq!(r.parent().unwrap(), s);
        assert!(sym("0").parent().is_none());
    }

    #[test]
    fn covers_matches_paper_examples() {
        // Paper: "'0' being equal to '01', '00' and so on".
        assert!(sym("0").covers(sym("00")));
        assert!(sym("0").covers(sym("01")));
        assert!(sym("0").covers(sym("0")));
        assert!(!sym("0").covers(sym("10")));
        assert!(!sym("00").covers(sym("0")), "covers is directional");
        assert!(sym("0").compatible(sym("01")));
        assert!(sym("01").compatible(sym("0")));
        assert!(!sym("00").compatible(sym("01")));
    }

    #[test]
    fn prefix_partial_order() {
        use Ordering::*;
        assert_eq!(sym("0").partial_cmp_prefix(sym("0")), Some(Equal));
        assert_eq!(sym("0").partial_cmp_prefix(sym("01")), None, "overlapping ⇒ incomparable");
        assert_eq!(sym("00").partial_cmp_prefix(sym("01")), Some(Less));
        assert_eq!(sym("1").partial_cmp_prefix(sym("011")), Some(Greater));
        assert_eq!(sym("010").partial_cmp_prefix(sym("10")), Some(Less));
    }

    #[test]
    fn same_resolution_total_order() {
        assert_eq!(sym("000").cmp_same_resolution(sym("111")).unwrap(), Ordering::Less);
        assert!(sym("00").cmp_same_resolution(sym("000")).is_err());
        assert_eq!(sym("010").rank_distance(sym("110")).unwrap(), 4);
    }

    #[test]
    fn bit_indexing_msb_first() {
        let s = sym("100");
        assert!(s.bit(0));
        assert!(!s.bit(1));
        assert!(!s.bit(2));
    }

    #[test]
    fn writer_reader_roundtrip_various_resolutions() {
        for bits in [1u8, 2, 3, 4, 7, 8, 11, 16] {
            let k = 1u32 << bits;
            let symbols: Vec<Symbol> =
                (0..k.min(100)).map(|r| Symbol::from_rank(r as u16, bits).unwrap()).collect();
            let mut w = SymbolWriter::new();
            for &s in &symbols {
                w.write(s);
            }
            assert_eq!(w.bits_written(), symbols.len() * bits as usize);
            let bytes = w.into_bytes();
            let mut r = SymbolReader::new(&bytes, bits).unwrap();
            let decoded = r.read_all();
            // Padding may produce at most one extra zero symbol... it must not:
            // read() stops when fewer than `bits` bits remain, and padding is
            // < 8 bits, so spurious symbols can only appear when bits < 8 and
            // padding >= bits. Guard by truncating to the expected count.
            assert!(decoded.len() >= symbols.len());
            assert_eq!(&decoded[..symbols.len()], &symbols[..]);
        }
    }

    #[test]
    fn packed_size_matches_section_2_3() {
        // 24h at 15-minute aggregation = 96 symbols; 16-symbol alphabet =
        // 4 bits each ⇒ 384 bits = 48 bytes (paper §2.3).
        let mut w = SymbolWriter::new();
        for i in 0..96u16 {
            w.write(Symbol::from_rank(i % 16, 4).unwrap());
        }
        assert_eq!(w.bits_written(), 384);
        assert_eq!(w.into_bytes().len(), 48);
    }

    #[test]
    fn reader_rejects_bad_resolution() {
        assert!(SymbolReader::new(&[0u8], 0).is_err());
        assert!(SymbolReader::new(&[0u8], 17).is_err());
    }
}
