//! Persistent columnar segment store for encoded symbol streams.
//!
//! The paper's §2.3 compression story prices a day of readings at "only
//! 384 bit" — but that figure is only real if the symbols are actually
//! *stored* as packed bits. This module is that storage layer: encoded
//! [`SymbolicSeries`] are appended as **time-indexed segments** whose
//! payload is the MSB-first bit-packing of [`crate::symbol::SymbolWriter`],
//! with a per-segment footer (`min_rank`/`max_rank`/`count`) that lets
//! queries skip payloads entirely.
//!
//! Two properties of the alphabet's prefix partial order (§4, symbol
//! construction by recursive range halving) do the heavy lifting:
//!
//! 1. **Resolution truncation is a bit-slice.** A `b`-bit symbol's `r`-bit
//!    coarsening is its first `r` bits ([`crate::symbol::Symbol::truncate`]),
//!    and symbols are packed MSB-first — so reading a segment at a coarser
//!    resolution reads the first `r` bits of every `b`-bit group and never
//!    decodes the rest ([`SegmentStore::read_truncated`]).
//! 2. **Rank order survives truncation.** `a ≤ b ⇒ a>>k ≤ b>>k`, so the
//!    footer's min/max ranks bound every coarser read too, and a segment
//!    whose bounds collapse to one coarse rank aggregates without a scan
//!    ([`SegmentStore::aggregate_range`]).
//!
//! Aggregates reconstruct means through the lookup table's per-bin means
//! (§2.3 / [`crate::lookup::LookupTable::bin_means`]): the mean over a
//! time range is `Σ count[rank]·bin_mean[rank] / n`, computed from packed
//! bits without materializing a [`SymbolicSeries`].
//!
//! A second-stage re-compression pass ([`SegmentStore::recompress`]) runs
//! zero-dependency RLE + dictionary coding over the packed blocks and
//! reports bytes before/after, grounding the comparison against "Can the
//! Multi-Incoming Smart Meter Compressed Streams be Re-Compressed?"
//! (arXiv:2006.03208).
//!
//! ## Arithmetic hardening
//!
//! All segment sizes and offsets are `u64` end to end; every conversion to
//! `usize` is a checked `try_from`, every offset sum a `checked_add`, and
//! [`SegmentStore::from_bytes`] validates announced counts against the
//! actual buffer length **before any allocation** — the same
//! truncation/pre-allocation bug class the wire decoder's
//! [`Error::FrameTooLarge`] path closed.

use std::time::Instant;

use crate::error::{Error, Result};
use crate::horizontal::SymbolicSeries;
use crate::lookup::LookupTable;
use crate::symbol::{Symbol, SymbolWriter, MAX_RESOLUTION_BITS};
use crate::timeseries::Timestamp;

/// Magic prefix of a persisted store image (v2: epoch-tagged segments).
pub const STORE_MAGIC: &[u8; 4] = b"SMS2";

/// Magic prefix of the epoch-less v1 image layout. Still readable:
/// [`SegmentStore::from_bytes`] decodes v1 images with every segment at
/// epoch 0, so stores persisted before drift adaptation existed keep
/// loading (the "old epochs remain decodable" invariant extends to disk).
pub const STORE_MAGIC_V1: &[u8; 4] = b"SMS1";

/// Fixed wire size of one serialized v1 [`SegmentMeta`] (no epoch).
const META_V1_WIRE_BYTES: u64 = 8 + 8 + 8 + 8 + 8 + 8 + 2 + 2 + 1;

/// Fixed wire size of one serialized [`SegmentMeta`]: the v1 layout with
/// the separator epoch (`u32`) appended **last**, so every v1 field sits at
/// the same offset in both versions.
const META_WIRE_BYTES: u64 = META_V1_WIRE_BYTES + 4;

/// Fixed header size of a persisted image (magic + meta count + arena len).
const HEADER_BYTES: u64 = 4 + 8 + 8;

/// Trailing CRC32 footer of a persisted image (over everything before it).
const FOOTER_BYTES: u64 = 4;

/// High bit of a re-compressed segment's leading byte: the RLE + dictionary
/// tokenization would have expanded this segment (short or high-entropy
/// payloads), so the bit-packed payload follows verbatim instead. Safe to
/// overload because `resolution_bits ≤ 16 < 0x80`.
const RECOMPRESS_RAW_ESCAPE: u8 = 0x80;

/// Hard ceiling on the symbol count a re-compressed segment may announce.
/// [`decompress_segment`] sizes its output from an untrusted varint; this cap
/// bounds that allocation (2^27 ranks = 256 MiB) against hostile headers. Far
/// above any real segment — a year of 1-second readings is ~31.5 M symbols.
const MAX_DECODE_SYMBOLS: u64 = 1 << 27;

/// Counters for one [`SegmentStore`]; rendered as the `"store"` block of
/// [`crate::engine::EngineStats::to_json`] and the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreStats {
    /// Segments appended.
    pub segments_written: u64,
    /// Symbols appended across every segment.
    pub symbols_written: u64,
    /// Packed payload bytes in the arena.
    pub packed_bytes: u64,
    /// Total bytes after the second-stage RLE + dictionary pass (0 until
    /// [`SegmentStore::recompress`] runs).
    pub recompressed_bytes: u64,
    /// Full-resolution range reads served.
    pub reads: u64,
    /// Resolution-truncating reads served (pure bit-slice, no re-decode).
    pub truncated_reads: u64,
    /// Segments answered without scanning their payload: excluded by the
    /// footer/time bounds, or wholly counted from the footer alone.
    pub segments_pruned: u64,
    /// Wall time spent serving queries, seconds.
    pub query_secs: f64,
}

crate::telemetry::declare_metrics! {
    StoreStats as store {
        add segments_written, "segments", "Segments appended to the store.";
        add symbols_written, "symbols", "Symbols appended across every segment.";
        add packed_bytes, "bytes", "Bit-packed payload bytes in the store arena.";
        add recompressed_bytes, "bytes",
            "Total bytes after the second-stage RLE + dictionary pass.";
        add reads, "queries", "Full-resolution time-range reads served.";
        add truncated_reads, "queries",
            "Resolution-truncating reads served (pure bit-slice, no re-decode).";
        add segments_pruned, "segments",
            "Segments answered from footer bounds without a payload scan.";
        set_f64 query_secs, "seconds", "Wall time spent serving store queries.";
    }
}

/// One segment's descriptor: where its packed payload lives in the arena
/// plus the footer bounds that let queries prune it without a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// House (meter) id the segment belongs to.
    pub house: u64,
    /// Timestamp of the first symbol.
    pub start: Timestamp,
    /// Seconds between consecutive symbols (0 for single-symbol segments).
    pub interval: i64,
    /// Symbols in the segment.
    pub count: u64,
    /// Resolution of every symbol, in bits.
    pub resolution_bits: u8,
    /// Smallest symbol rank in the segment (footer).
    pub min_rank: u16,
    /// Largest symbol rank in the segment (footer).
    pub max_rank: u16,
    /// Byte offset of the packed payload in the arena.
    pub offset: u64,
    /// Packed payload length in bytes.
    pub len: u64,
    /// Separator epoch the segment's symbols were encoded under (`0` for
    /// pre-drift tables and every v1 image). Symbols from different epochs
    /// are not comparable — their separators differ — so queries mixing
    /// epochs must re-decode through the matching epoch's table.
    pub epoch: u32,
}

impl SegmentMeta {
    /// Timestamp of the last symbol.
    pub fn end(&self) -> Timestamp {
        self.start + (self.count as i64 - 1) * self.interval
    }

    /// Rows (symbol indices) of this segment overlapping `[t0, t1]`,
    /// inclusive on both ends, or `None` when disjoint.
    fn overlap_rows(&self, t0: Timestamp, t1: Timestamp) -> Option<(u64, u64)> {
        if self.count == 0 || t1 < self.start || t0 > self.end() {
            return None;
        }
        let first = if t0 <= self.start {
            0
        } else {
            // self.interval > 0 here: count == 1 segments were handled by
            // the disjointness check above (start == end). Widen to i128:
            // t0 - start fits i64 (t0 <= end, extent validated), but adding
            // interval - 1 can pass i64::MAX for near-extent intervals.
            (((t0 - self.start) as i128 + self.interval as i128 - 1) / self.interval as i128) as u64
        };
        let last = if t1 >= self.end() {
            self.count - 1
        } else {
            ((t1 - self.start) / self.interval) as u64
        };
        if first > last {
            None
        } else {
            Some((first, last))
        }
    }
}

/// Aggregate of one time-range query, computed with pushdown (per-rank
/// counts from packed bits, means reconstructed through the lookup table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Symbols in range.
    pub count: u64,
    /// Mean of the per-symbol reconstructed values (`0.0` when empty).
    pub mean: f64,
    /// Smallest rank in range at the query resolution (`0` when empty).
    pub min_rank: u16,
    /// Largest rank in range at the query resolution (`0` when empty).
    pub max_rank: u16,
}

/// Sizing report of one [`SegmentStore::recompress`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Recompression {
    /// Segments re-compressed.
    pub segments: u64,
    /// Packed payload bytes before the pass.
    pub packed_bytes: u64,
    /// Bytes after RLE + dictionary coding (headers included).
    pub recompressed_bytes: u64,
}

impl Recompression {
    /// Compression ratio of the second stage (`packed / recompressed`).
    pub fn ratio(&self) -> f64 {
        self.packed_bytes as f64 / (self.recompressed_bytes as f64).max(f64::MIN_POSITIVE)
    }
}

/// Append-only columnar store of bit-packed symbol segments.
///
/// Segments append cheapest in nondecreasing `(house, start)` order (the
/// order the sharded engine's deterministic merge emits); out-of-order
/// appends stay correct but pay an index insertion. Queries take `&mut
/// self` to maintain the [`StoreStats`] counters.
///
/// ```
/// use sms_core::prelude::*;
/// use sms_core::segstore::SegmentStore;
///
/// let history = TimeSeries::from_regular(0, 900, &[1.0, 5.0, 9.0, 13.0]).unwrap();
/// let codec = CodecBuilder::new()
///     .alphabet_size(4).unwrap()
///     .no_aggregation()
///     .train(&history).unwrap();
/// let series = codec.encode(&history).unwrap();
///
/// let mut store = SegmentStore::new();
/// store.append(7, &series).unwrap();
/// let back = store.read_range(7, 0, i64::MAX).unwrap();
/// assert_eq!(back.symbols(), series.symbols());
/// // Truncating to 1 bit is a bit-slice of the same payload.
/// let coarse = store.read_truncated(7, 0, i64::MAX, 1).unwrap();
/// assert_eq!(coarse.resolution_bits(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    metas: Vec<SegmentMeta>,
    arena: Vec<u8>,
    /// Meta indices sorted by `(house, start)`; appends in that order are
    /// O(1), stragglers pay a sorted insertion.
    index: Vec<u32>,
    stats: StoreStats,
}

impl SegmentStore {
    /// An empty store.
    pub fn new() -> Self {
        SegmentStore::default()
    }

    /// Number of segments stored.
    pub fn segment_count(&self) -> usize {
        self.metas.len()
    }

    /// Packed payload bytes stored.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.len() as u64
    }

    /// Segment descriptors, in append order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.metas
    }

    /// Counters for this store.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Appends `series` as one segment of `house` at epoch 0 (the pre-drift
    /// separator table). See [`append_epoch`](Self::append_epoch).
    pub fn append(&mut self, house: u64, series: &SymbolicSeries) -> Result<usize> {
        self.append_epoch(house, 0, series)
    }

    /// Appends `series` as one segment of `house`, recording the separator
    /// `epoch` its symbols were encoded under. The series must be
    /// **regular** — consecutive timestamps a constant positive interval
    /// apart — because the segment stores only `(start, interval, count)`;
    /// irregular series get a typed [`Error::Store`].
    pub fn append_epoch(
        &mut self,
        house: u64,
        epoch: u32,
        series: &SymbolicSeries,
    ) -> Result<usize> {
        if series.is_empty() {
            return Err(Error::EmptyInput("segment series"));
        }
        if self.metas.len() >= u32::MAX as usize {
            return Err(Error::Store("segment index full (u32::MAX segments)".to_string()));
        }
        let ts = series.timestamps();
        let interval = if ts.len() >= 2 { ts[1] - ts[0] } else { 0 };
        if ts.len() >= 2 && interval <= 0 {
            return Err(Error::Store(format!("segment interval must be positive, got {interval}")));
        }
        for (i, w) in ts.windows(2).enumerate() {
            if w[1] - w[0] != interval {
                return Err(Error::Store(format!(
                    "irregular series: interval {} at index {} differs from {}",
                    w[1] - w[0],
                    i + 1,
                    interval
                )));
            }
        }
        let mut min_rank = u16::MAX;
        let mut max_rank = 0u16;
        for s in series.symbols() {
            min_rank = min_rank.min(s.rank());
            max_rank = max_rank.max(s.rank());
        }
        let offset = self.arena.len() as u64;
        let len = series.payload_bits().div_ceil(8) as u64;
        offset.checked_add(len).ok_or_else(|| Error::Store("arena offset overflow".to_string()))?;
        series.pack_symbols_into(&mut self.arena);
        let meta = SegmentMeta {
            house,
            start: ts[0],
            interval,
            count: series.len() as u64,
            resolution_bits: series.resolution_bits(),
            min_rank,
            max_rank,
            offset,
            len,
            epoch,
        };
        let id = self.metas.len();
        self.metas.push(meta);
        self.index_insert(id as u32);
        self.stats.segments_written += 1;
        self.stats.symbols_written += meta.count;
        self.stats.packed_bytes += len;
        Ok(id)
    }

    fn index_key(&self, id: u32) -> (u64, Timestamp) {
        let m = &self.metas[id as usize];
        (m.house, m.start)
    }

    fn index_insert(&mut self, id: u32) {
        let key = self.index_key(id);
        match self.index.last() {
            Some(&last) if self.index_key(last) > key => {
                let pos = self.index.partition_point(|&i| self.index_key(i) <= key);
                self.index.insert(pos, id);
            }
            _ => self.index.push(id),
        }
    }

    /// Whether any segment of `house` exists.
    pub fn contains_house(&self, house: u64) -> bool {
        let lo = self.index.partition_point(|&i| self.index_key(i) < (house, Timestamp::MIN));
        self.index.get(lo).is_some_and(|&i| self.metas[i as usize].house == house)
    }

    /// The house's segment metas in `(house, start)` order.
    fn house_segments(&self, house: u64) -> impl Iterator<Item = &SegmentMeta> {
        let lo = self.index.partition_point(|&i| self.index_key(i) < (house, Timestamp::MIN));
        self.index[lo..]
            .iter()
            .map(move |&i| &self.metas[i as usize])
            .take_while(move |m| m.house == house)
    }

    /// Reads `house`'s symbols in `[t0, t1]` at full resolution. Every
    /// touched segment must share one resolution (mixed-resolution houses
    /// read through [`read_truncated`](Self::read_truncated) at the coarsest
    /// stored resolution instead). Unknown houses get a typed
    /// [`Error::Store`]; an empty overlap returns an empty series.
    pub fn read_range(
        &mut self,
        house: u64,
        t0: Timestamp,
        t1: Timestamp,
    ) -> Result<SymbolicSeries> {
        if !self.contains_house(house) {
            return Err(Error::Store(format!("house {house} has no segments")));
        }
        let bits = self.house_segments(house).next().map(|m| m.resolution_bits).unwrap_or(1);
        let t = Instant::now();
        let result = self.read_at(house, t0, t1, bits, true, None);
        self.stats.reads += 1;
        self.stats.query_secs += t.elapsed().as_secs_f64();
        result
    }

    /// Separator epochs with at least one segment for `house`, ascending.
    pub fn house_epochs(&self, house: u64) -> Vec<u32> {
        let mut epochs: Vec<u32> = self.house_segments(house).map(|m| m.epoch).collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }

    /// Reads `house`'s symbols in `[t0, t1]` restricted to segments of one
    /// separator `epoch`, truncated to `to_bits`. Like
    /// [`read_truncated`](Self::read_truncated) this is a pure bit-slice of
    /// the packed payloads — segments of other epochs are skipped entirely,
    /// never decoded, so a stored image holding both pre- and post-cutover
    /// segments serves each epoch independently.
    pub fn read_epoch_truncated(
        &mut self,
        house: u64,
        epoch: u32,
        t0: Timestamp,
        t1: Timestamp,
        to_bits: u8,
    ) -> Result<SymbolicSeries> {
        let t = Instant::now();
        let result = self.read_at(house, t0, t1, to_bits, false, Some(epoch));
        self.stats.truncated_reads += 1;
        self.stats.query_secs += t.elapsed().as_secs_f64();
        result
    }

    /// Reads `house`'s symbols in `[t0, t1]` truncated to `to_bits` —
    /// a pure bit-slice of the packed payload (the first `to_bits` of each
    /// symbol's group), never a decode-then-truncate.
    pub fn read_truncated(
        &mut self,
        house: u64,
        t0: Timestamp,
        t1: Timestamp,
        to_bits: u8,
    ) -> Result<SymbolicSeries> {
        let t = Instant::now();
        let result = self.read_at(house, t0, t1, to_bits, false, None);
        self.stats.truncated_reads += 1;
        self.stats.query_secs += t.elapsed().as_secs_f64();
        result
    }

    fn read_at(
        &self,
        house: u64,
        t0: Timestamp,
        t1: Timestamp,
        read_bits: u8,
        exact: bool,
        epoch: Option<u32>,
    ) -> Result<SymbolicSeries> {
        if read_bits == 0 || read_bits > MAX_RESOLUTION_BITS {
            return Err(Error::InvalidResolution(read_bits));
        }
        let mut out = SymbolicSeries::new(read_bits)?;
        let mut rows: Vec<(u64, u64, &SegmentMeta)> = Vec::new();
        for m in self.house_segments(house) {
            if epoch.is_some_and(|e| m.epoch != e) {
                continue;
            }
            if exact && m.resolution_bits != read_bits {
                return Err(Error::ResolutionMismatch {
                    left: m.resolution_bits,
                    right: read_bits,
                });
            }
            if m.resolution_bits < read_bits {
                return Err(Error::Store(format!(
                    "cannot read {read_bits}-bit symbols from a {}-bit segment \
                     (truncation only coarsens)",
                    m.resolution_bits
                )));
            }
            if let Some((first, last)) = m.overlap_rows(t0, t1) {
                rows.push((first, last, m));
            }
        }
        for (first, last, m) in rows {
            let payload = self.payload(m)?;
            let b = m.resolution_bits as usize;
            for row in first..=last {
                let code = read_bits_at(payload, row as usize * b, read_bits);
                let sym = Symbol::from_rank(code, read_bits)?;
                out.push(m.start + row as i64 * m.interval, sym)?;
            }
        }
        Ok(out)
    }

    /// Segment `id`'s meta and packed payload (`id` as returned by
    /// [`append_epoch`](Self::append_epoch)).
    pub(crate) fn segment(&self, id: usize) -> Result<(&SegmentMeta, &[u8])> {
        let m = self.metas.get(id).ok_or_else(|| Error::Store(format!("no segment {id}")))?;
        Ok((m, self.payload(m)?))
    }

    fn payload(&self, m: &SegmentMeta) -> Result<&[u8]> {
        let offset = usize::try_from(m.offset)
            .map_err(|_| Error::Store(format!("segment offset {} exceeds usize", m.offset)))?;
        let len = usize::try_from(m.len)
            .map_err(|_| Error::Store(format!("segment length {} exceeds usize", m.len)))?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| Error::Store("segment extent overflow".to_string()))?;
        self.arena.get(offset..end).ok_or_else(|| {
            Error::Store(format!(
                "segment extent [{offset}, {end}) outside the {}-byte arena",
                self.arena.len()
            ))
        })
    }

    /// Counts `house`'s symbols in `[t0, t1]` whose first
    /// `prefix.resolution_bits()` bits equal `prefix` — the symbol-prefix
    /// predicate of the alphabet's partial order. Segments whose footer
    /// bounds fall outside (or entirely inside) the prefix's rank range are
    /// answered without touching their payload.
    pub fn count_prefix(
        &mut self,
        house: u64,
        t0: Timestamp,
        t1: Timestamp,
        prefix: Symbol,
    ) -> Result<u64> {
        let t = Instant::now();
        let mut total = 0u64;
        let mut pruned = 0u64;
        let plen = prefix.resolution_bits();
        let mut scans: Vec<(u64, u64, &SegmentMeta)> = Vec::new();
        for m in self.house_segments(house) {
            if plen > m.resolution_bits {
                return Err(Error::Store(format!(
                    "prefix of {plen} bits is finer than the {}-bit segment",
                    m.resolution_bits
                )));
            }
            let Some((first, last)) = m.overlap_rows(t0, t1) else {
                continue;
            };
            // The prefix covers ranks [lo, hi] at the segment's resolution;
            // truncation preserves rank order, so the footer prunes.
            let shift = m.resolution_bits - plen;
            let lo = prefix.rank() << shift;
            // In u32: at 16-bit resolution the top prefix's exclusive bound
            // is 65536, which wraps to 0 in u16 and would underflow below.
            let hi = (((prefix.rank() as u32 + 1) << shift) - 1) as u16;
            if m.max_rank < lo || m.min_rank > hi {
                pruned += 1;
                continue;
            }
            let whole = first == 0 && last == m.count - 1;
            if whole && m.min_rank >= lo && m.max_rank <= hi {
                total += m.count;
                pruned += 1;
                continue;
            }
            scans.push((first, last, m));
        }
        for (first, last, m) in scans {
            let payload = self.payload(m)?;
            let b = m.resolution_bits as usize;
            for row in first..=last {
                if read_bits_at(payload, row as usize * b, plen) == prefix.rank() {
                    total += 1;
                }
            }
        }
        self.stats.segments_pruned += pruned;
        self.stats.query_secs += t.elapsed().as_secs_f64();
        Ok(total)
    }

    /// Aggregates `house`'s symbols in `[t0, t1]` at `table`'s resolution
    /// with pushdown: per-rank counts accumulate straight from the packed
    /// bits (truncating on the fly when the table is coarser than the
    /// segment), and the mean reconstructs as
    /// `Σ count[rank]·bin_mean[rank] / n` through the table (§2.3). A
    /// segment fully inside the range whose footer bounds collapse to one
    /// rank at the query resolution is counted without a scan.
    pub fn aggregate_range(
        &mut self,
        house: u64,
        t0: Timestamp,
        t1: Timestamp,
        table: &LookupTable,
    ) -> Result<Aggregate> {
        let t = Instant::now();
        let read_bits = table.resolution_bits();
        let mut counts = vec![0u64; 1usize << read_bits];
        let mut pruned = 0u64;
        let mut scans: Vec<(u64, u64, &SegmentMeta)> = Vec::new();
        for m in self.house_segments(house) {
            if read_bits > m.resolution_bits {
                return Err(Error::Store(format!(
                    "aggregate table of {read_bits} bits is finer than the {}-bit segment",
                    m.resolution_bits
                )));
            }
            let Some((first, last)) = m.overlap_rows(t0, t1) else {
                continue;
            };
            let shift = m.resolution_bits - read_bits;
            let (lo, hi) = (m.min_rank >> shift, m.max_rank >> shift);
            let whole = first == 0 && last == m.count - 1;
            if whole && lo == hi {
                counts[lo as usize] += m.count;
                pruned += 1;
                continue;
            }
            scans.push((first, last, m));
        }
        for (first, last, m) in scans {
            let payload = self.payload(m)?;
            let b = m.resolution_bits as usize;
            for row in first..=last {
                counts[read_bits_at(payload, row as usize * b, read_bits) as usize] += 1;
            }
        }
        self.stats.segments_pruned += pruned;
        let n: u64 = counts.iter().sum();
        let means = table.bin_means();
        let mut sum = 0.0;
        let mut min_rank = 0u16;
        let mut max_rank = 0u16;
        let mut seen = false;
        for (rank, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            sum += c as f64 * means[rank];
            if !seen {
                min_rank = rank as u16;
                seen = true;
            }
            max_rank = rank as u16;
        }
        self.stats.query_secs += t.elapsed().as_secs_f64();
        Ok(Aggregate {
            count: n,
            mean: if n == 0 { 0.0 } else { sum / n as f64 },
            min_rank,
            max_rank,
        })
    }

    // --- second-stage re-compression ------------------------------------

    /// Runs the zero-dependency second-stage pass (RLE over symbol ranks,
    /// then a first-appearance dictionary of `(rank, run)` pairs with
    /// fixed-width bit-packed indices; segments the tokenization would
    /// expand fall back to a raw-escape copy of the packed payload) over
    /// every segment, recording total bytes before/after in [`StoreStats`]. Payloads are left untouched —
    /// this prices the arXiv:2006.03208 question, it does not re-write the
    /// arena.
    pub fn recompress(&mut self) -> Result<Recompression> {
        let mut report = Recompression::default();
        for i in 0..self.metas.len() {
            let m = self.metas[i];
            let bytes = self.recompress_segment(&m)?;
            report.segments += 1;
            report.packed_bytes += m.len;
            report.recompressed_bytes += bytes.len() as u64;
        }
        self.stats.recompressed_bytes = report.recompressed_bytes;
        Ok(report)
    }

    /// Re-compresses one segment's payload; [`decompress_segment`] inverts
    /// it exactly.
    pub fn recompress_segment(&self, m: &SegmentMeta) -> Result<Vec<u8>> {
        let payload = self.payload(m)?;
        let b = m.resolution_bits as usize;
        // RLE over ranks.
        let mut tokens: Vec<(u16, u64)> = Vec::new();
        for row in 0..m.count {
            let rank = read_bits_at(payload, row as usize * b, m.resolution_bits);
            match tokens.last_mut() {
                Some((r, run)) if *r == rank => *run += 1,
                _ => tokens.push((rank, 1)),
            }
        }
        // First-appearance dictionary of (rank, run) pairs.
        let mut dict: Vec<(u16, u64)> = Vec::new();
        let mut indices: Vec<u32> = Vec::with_capacity(tokens.len());
        for tok in &tokens {
            let idx = match dict.iter().position(|d| d == tok) {
                Some(i) => i,
                None => {
                    dict.push(*tok);
                    dict.len() - 1
                }
            };
            indices.push(idx as u32);
        }
        let width = index_width(dict.len());
        let mut out = Vec::new();
        out.push(m.resolution_bits);
        write_varint(&mut out, m.count);
        write_varint(&mut out, tokens.len() as u64);
        write_varint(&mut out, dict.len() as u64);
        for (rank, run) in &dict {
            write_varint(&mut out, *rank as u64);
            write_varint(&mut out, *run);
        }
        let mut bits = SymbolWriter::with_buffer(out);
        for &idx in &indices {
            bits.write_bits(idx, width);
        }
        let out = bits.into_bytes();
        // Raw escape: on segments the tokenization expands (few runs, or
        // too short to amortize the dictionary), keep the packed payload
        // verbatim so re-compression is never worse than ~2 bytes/segment.
        let mut raw = Vec::with_capacity(11 + payload.len());
        raw.push(RECOMPRESS_RAW_ESCAPE | m.resolution_bits);
        write_varint(&mut raw, m.count);
        raw.extend_from_slice(payload);
        Ok(if out.len() <= raw.len() { out } else { raw })
    }

    // --- persistence ------------------------------------------------------

    /// Serializes the whole store (header, metas, arena) into one image,
    /// closed by a CRC32 footer over everything before it — bit-rot
    /// anywhere in the image (header, metas, or mid-arena) fails
    /// [`from_bytes`](Self::from_bytes) with a typed error instead of
    /// round-tripping silently as wrong symbols.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Serialize in index (house, start) order so the image is a pure
        // function of the stored content, not the append interleaving.
        let metas = self.index.iter().map(|&i| &self.metas[i as usize]);
        let mut out = Vec::new();
        write_image(&mut out, metas, &self.arena, 0);
        out
    }

    /// Appends to `out` an image of the segments appended since the store
    /// held `segments` segments and `arena_bytes` payload bytes: their
    /// metas in append order, with offsets rebased to the tail of the
    /// arena that holds their payloads. [`from_parts`](Self::from_parts)
    /// joins such images back into one store. `(segments, arena_bytes)`
    /// must be [`segment_count`](Self::segment_count) and
    /// [`arena_bytes`](Self::arena_bytes) read at some earlier time.
    pub(crate) fn image_since(&self, segments: usize, arena_bytes: u64, out: &mut Vec<u8>) {
        let tail = &self.metas[segments..];
        debug_assert!(tail.iter().all(|m| m.offset >= arena_bytes));
        write_image(out, tail.iter(), &self.arena[arena_bytes as usize..], arena_bytes);
    }

    /// Deserializes an image produced by [`to_bytes`](Self::to_bytes).
    ///
    /// The CRC32 footer is verified first (whole-image integrity), then
    /// every announced length is validated against the actual buffer
    /// **before** any allocation: a hostile header cannot make this
    /// function reserve memory it will never fill, and bit-rot anywhere
    /// in the image is a typed [`Error::Store`], not silent corruption.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        Self::from_parts(&[parse_image(buf)?])
    }

    /// Joins validated images of consecutive parts of one store, in
    /// order: each part's arena follows the previous part's, so its
    /// offsets are rebased by the arena bytes before it. The metas and the
    /// arena are allocated once, and the index is sorted once, at the end.
    pub(crate) fn from_parts(parts: &[ImagePart<'_>]) -> Result<Self> {
        let segments: usize = parts.iter().map(ImagePart::segment_count).sum();
        if segments > u32::MAX as usize {
            return Err(Error::Store(format!("{segments} segments exceed the u32 segment index")));
        }
        let mut store = SegmentStore::new();
        store.metas.reserve_exact(segments);
        store.arena.reserve_exact(parts.iter().map(|p| p.arena.len()).sum());
        for part in parts {
            let base = store.arena.len() as u64;
            let metas = part.metas.chunks_exact(part.meta_wire).map(decode_meta);
            store.metas.extend(metas.map(|m| SegmentMeta { offset: m.offset + base, ..m }));
            store.arena.extend_from_slice(part.arena);
        }
        let mut index: Vec<u32> = (0..segments as u32).collect();
        index.sort_by_key(|&i| {
            let m = &store.metas[i as usize];
            (m.house, m.start)
        });
        store.index = index;
        store.stats.segments_written = store.metas.len() as u64;
        store.stats.symbols_written = store.metas.iter().map(|m| m.count).sum();
        store.stats.packed_bytes = store.arena.len() as u64;
        Ok(store)
    }
}

/// A validated image: its serialized metas, whose offsets are relative
/// to its own arena, and that arena.
pub(crate) struct ImagePart<'a> {
    metas: &'a [u8],
    /// Bytes per serialized meta: v1 or v2.
    meta_wire: usize,
    arena: &'a [u8],
}

impl ImagePart<'_> {
    /// Segments in the image.
    pub(crate) fn segment_count(&self) -> usize {
        self.metas.len() / self.meta_wire
    }
}

/// Appends to `out` the image of `metas` over `arena`, each offset less
/// `rebase`: header, metas, arena and the CRC32 footer over the image
/// before it.
fn write_image<'a>(
    out: &mut Vec<u8>,
    metas: impl ExactSizeIterator<Item = &'a SegmentMeta>,
    arena: &[u8],
    rebase: u64,
) {
    let n = metas.len() as u64;
    let start = out.len();
    out.reserve((HEADER_BYTES + META_WIRE_BYTES * n + FOOTER_BYTES) as usize + arena.len());
    out.extend_from_slice(STORE_MAGIC);
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&(arena.len() as u64).to_le_bytes());
    for m in metas {
        out.extend_from_slice(&m.house.to_le_bytes());
        out.extend_from_slice(&m.start.to_le_bytes());
        out.extend_from_slice(&m.interval.to_le_bytes());
        out.extend_from_slice(&m.count.to_le_bytes());
        out.extend_from_slice(&(m.offset - rebase).to_le_bytes());
        out.extend_from_slice(&m.len.to_le_bytes());
        out.extend_from_slice(&m.min_rank.to_le_bytes());
        out.extend_from_slice(&m.max_rank.to_le_bytes());
        out.push(m.resolution_bits);
        // v2: the epoch goes LAST so every v1 field keeps its offset.
        out.extend_from_slice(&m.epoch.to_le_bytes());
    }
    out.extend_from_slice(arena);
    let crc = crate::durable::crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Validates an image produced by [`write_image`] (or a v1 image) and
/// splits it into its metas and arena; see [`SegmentStore::from_bytes`].
pub(crate) fn parse_image(buf: &[u8]) -> Result<ImagePart<'_>> {
    if (buf.len() as u64) < HEADER_BYTES + FOOTER_BYTES {
        return Err(Error::Store("image too short or bad magic".to_string()));
    }
    // v1 images predate drift adaptation: same layout minus the
    // trailing epoch in each meta, every segment at epoch 0.
    let meta_wire = match &buf[..4] {
        m if m == STORE_MAGIC => META_WIRE_BYTES,
        m if m == STORE_MAGIC_V1 => META_V1_WIRE_BYTES,
        _ => return Err(Error::Store("image too short or bad magic".to_string())),
    };
    // Whole-image integrity first: the CRC32 footer covers header,
    // metas, and arena, so bit-rot anywhere fails here — before any
    // length is trusted.
    let (buf, footer) = buf.split_at(buf.len() - FOOTER_BYTES as usize);
    let want = u32::from_le_bytes(footer.try_into().expect("4 bytes"));
    let got = crate::durable::crc32(buf);
    if got != want {
        return Err(Error::Store(format!(
            "image checksum mismatch: footer {want:#010x}, computed {got:#010x}"
        )));
    }
    let total = buf.len() as u64;
    let meta_count = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
    let arena_len = u64::from_le_bytes(buf[12..20].try_into().expect("8 bytes"));
    let metas_bytes = meta_count
        .checked_mul(meta_wire)
        .ok_or_else(|| Error::Store(format!("meta count {meta_count} overflows")))?;
    let announced = HEADER_BYTES
        .checked_add(metas_bytes)
        .and_then(|v| v.checked_add(arena_len))
        .ok_or_else(|| Error::Store("announced image size overflows".to_string()))?;
    if announced != total {
        return Err(Error::Store(format!(
            "announced {meta_count} metas + {arena_len} arena bytes = {announced} bytes, \
             but the image holds {total}"
        )));
    }
    if meta_count > u32::MAX as u64 {
        return Err(Error::Store(format!("meta count {meta_count} exceeds the u32 segment index")));
    }
    // All announced sizes reconcile with the buffer we actually hold, so
    // the slices below are in bounds; nothing is allocated from them here.
    let (metas, arena) = buf[HEADER_BYTES as usize..].split_at(metas_bytes as usize);
    for f in metas.chunks_exact(meta_wire as usize) {
        validate_meta(&decode_meta(f), arena_len)?;
    }
    Ok(ImagePart { metas, meta_wire: meta_wire as usize, arena })
}

/// Decodes one serialized meta; a v1 meta (no trailing epoch) is at
/// epoch 0.
fn decode_meta(f: &[u8]) -> SegmentMeta {
    SegmentMeta {
        house: u64::from_le_bytes(f[0..8].try_into().expect("8 bytes")),
        start: i64::from_le_bytes(f[8..16].try_into().expect("8 bytes")),
        interval: i64::from_le_bytes(f[16..24].try_into().expect("8 bytes")),
        count: u64::from_le_bytes(f[24..32].try_into().expect("8 bytes")),
        offset: u64::from_le_bytes(f[32..40].try_into().expect("8 bytes")),
        len: u64::from_le_bytes(f[40..48].try_into().expect("8 bytes")),
        min_rank: u16::from_le_bytes(f[48..50].try_into().expect("2 bytes")),
        max_rank: u16::from_le_bytes(f[50..52].try_into().expect("2 bytes")),
        resolution_bits: f[52],
        epoch: match f.get(53..57) {
            Some(epoch) => u32::from_le_bytes(epoch.try_into().expect("4 bytes")),
            None => 0,
        },
    }
}

fn validate_meta(m: &SegmentMeta, arena_len: u64) -> Result<()> {
    if m.resolution_bits == 0 || m.resolution_bits > MAX_RESOLUTION_BITS {
        return Err(Error::Store(format!(
            "segment resolution {} bits outside 1..={MAX_RESOLUTION_BITS}",
            m.resolution_bits
        )));
    }
    if m.count == 0 {
        return Err(Error::Store("segment with zero symbols".to_string()));
    }
    if m.count > 1 && m.interval <= 0 {
        return Err(Error::Store(format!(
            "multi-symbol segment with non-positive interval {}",
            m.interval
        )));
    }
    // `end()` computes start + (count-1)*interval unchecked; a hostile meta
    // (e.g. interval = i64::MAX, count >= 2) must not reach query arithmetic.
    let end_in_range = i64::try_from(m.count - 1)
        .ok()
        .and_then(|rows| rows.checked_mul(m.interval))
        .and_then(|span| m.start.checked_add(span));
    if end_in_range.is_none() {
        return Err(Error::Store(format!(
            "segment time extent overflows i64 (start {}, interval {}, count {})",
            m.start, m.interval, m.count
        )));
    }
    let bits = m
        .count
        .checked_mul(m.resolution_bits as u64)
        .ok_or_else(|| Error::Store(format!("segment bit size overflows ({} symbols)", m.count)))?;
    if m.len != bits.div_ceil(8) {
        return Err(Error::Store(format!(
            "segment payload of {} bytes does not match {} symbols × {} bits",
            m.len, m.count, m.resolution_bits
        )));
    }
    let end = m
        .offset
        .checked_add(m.len)
        .ok_or_else(|| Error::Store("segment extent overflow".to_string()))?;
    if end > arena_len {
        return Err(Error::Store(format!(
            "segment extent [{}, {end}) outside the {arena_len}-byte arena",
            m.offset
        )));
    }
    let max_rank_for_bits = ((1u32 << m.resolution_bits) - 1) as u16;
    if m.min_rank > m.max_rank || m.max_rank > max_rank_for_bits {
        return Err(Error::Store(format!(
            "segment footer ranks [{}, {}] invalid for {} bits",
            m.min_rank, m.max_rank, m.resolution_bits
        )));
    }
    Ok(())
}

/// Reads `n ≤ 16` bits MSB-first at `bit_off`, matching
/// [`crate::symbol::SymbolWriter`]'s layout. Reads past the final byte see
/// zero padding (callers bound rows by the segment count, so real symbol
/// bits are always in range).
#[inline]
fn read_bits_at(data: &[u8], bit_off: usize, n: u8) -> u16 {
    debug_assert!((1..=16).contains(&n));
    let byte = bit_off >> 3;
    let shift = bit_off & 7;
    let mut window: u32 = 0;
    for i in 0..3 {
        window = (window << 8) | *data.get(byte + i).unwrap_or(&0) as u32;
    }
    ((window >> (24 - shift - n as usize)) & ((1u32 << n) - 1)) as u16
}

/// Bits needed to index a dictionary of `len` entries (min 1).
fn index_width(len: usize) -> u8 {
    let mut w = 1u8;
    while (1usize << w) < len {
        w += 1;
    }
    w
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], at: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte =
            buf.get(*at).ok_or_else(|| Error::Store("varint ran off the buffer".to_string()))?;
        *at += 1;
        if shift >= 64 {
            return Err(Error::Store("varint longer than 64 bits".to_string()));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Inverts [`SegmentStore::recompress_segment`], returning the segment's
/// resolution and rank stream — the round-trip witness that the
/// second-stage pass is lossless.
pub fn decompress_segment(bytes: &[u8]) -> Result<(u8, Vec<u16>)> {
    let mut at = 0usize;
    let &first =
        bytes.first().ok_or_else(|| Error::Store("empty re-compressed segment".to_string()))?;
    at += 1;
    let bits = first & !RECOMPRESS_RAW_ESCAPE;
    if bits == 0 || bits > MAX_RESOLUTION_BITS {
        return Err(Error::Store(format!("re-compressed resolution {bits} invalid")));
    }
    let count = read_varint(bytes, &mut at)?;
    if count > MAX_DECODE_SYMBOLS {
        return Err(Error::Store(format!(
            "re-compressed segment announces {count} symbols (cap {MAX_DECODE_SYMBOLS})"
        )));
    }
    if first & RECOMPRESS_RAW_ESCAPE != 0 {
        // Raw escape: the bit-packed payload follows verbatim. Reconcile
        // the announced count against the buffer before any allocation.
        let body = &bytes[at..];
        let expected = count
            .checked_mul(bits as u64)
            .map(|b| b.div_ceil(8))
            .ok_or_else(|| Error::Store(format!("raw segment count {count} overflows")))?;
        if body.len() as u64 != expected {
            return Err(Error::Store(format!(
                "raw segment carries {} bytes, {count} x {bits}-bit symbols need {expected}",
                body.len()
            )));
        }
        let out =
            (0..count as usize).map(|row| read_bits_at(body, row * bits as usize, bits)).collect();
        return Ok((bits, out));
    }
    let n_tokens = read_varint(bytes, &mut at)?;
    let dict_len = read_varint(bytes, &mut at)?;
    // Both counts are bounded by what the buffer can actually describe
    // before any allocation: each dict entry needs ≥ 2 bytes, each token
    // ≥ 1 bit, and the decoded stream can't exceed `count` symbols.
    let remaining = (bytes.len() - at) as u64;
    if dict_len.checked_mul(2).is_none_or(|b| b > remaining) {
        return Err(Error::Store(format!(
            "dictionary of {dict_len} entries cannot fit in {remaining} bytes"
        )));
    }
    if n_tokens > count {
        return Err(Error::Store(format!(
            "{n_tokens} RLE tokens announced for only {count} symbols"
        )));
    }
    let mut dict = Vec::with_capacity(dict_len as usize);
    for _ in 0..dict_len {
        let rank = read_varint(bytes, &mut at)?;
        let run = read_varint(bytes, &mut at)?;
        if rank > u16::MAX as u64 {
            return Err(Error::Store(format!("dictionary rank {rank} exceeds u16")));
        }
        dict.push((rank as u16, run));
    }
    let width = index_width(dict.len());
    let body = &bytes[at..];
    let mut out: Vec<u16> = Vec::with_capacity(count as usize);
    for i in 0..n_tokens as usize {
        let bit_off = i * width as usize;
        if bit_off + width as usize > body.len() * 8 {
            return Err(Error::Store("token stream ran off the buffer".to_string()));
        }
        let idx = read_bits_at(body, bit_off, width) as usize;
        let (rank, run) = *dict
            .get(idx)
            .ok_or_else(|| Error::Store(format!("token index {idx} outside the dictionary")))?;
        // Hostile run lengths must not expand past the announced count —
        // check before pushing so a single token can't exhaust memory.
        if run > count - out.len() as u64 {
            return Err(Error::Store(format!(
                "run of {run} overflows the announced {count} symbols"
            )));
        }
        for _ in 0..run {
            out.push(rank);
        }
    }
    if out.len() as u64 != count {
        return Err(Error::Store(format!(
            "decoded {} symbols, header announced {count}",
            out.len()
        )));
    }
    Ok((bits, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::separators::SeparatorMethod;
    use crate::telemetry::Registry;
    use crate::timeseries::TimeSeries;

    fn table(bits: u8) -> LookupTable {
        let values: Vec<f64> = (0..512).map(|i| ((i * 37) % 400) as f64).collect();
        LookupTable::learn(
            SeparatorMethod::Median,
            Alphabet::with_size(1 << bits).unwrap(),
            &values,
        )
        .unwrap()
    }

    fn series(bits: u8, n: usize, start: i64) -> SymbolicSeries {
        let t = table(bits);
        let values: Vec<f64> = (0..n).map(|i| ((i * 73 + 11) % 400) as f64).collect();
        let ts = TimeSeries::from_regular(start, 900, &values).unwrap();
        crate::horizontal::horizontal_segmentation(&ts, &t).unwrap()
    }

    #[test]
    fn append_and_read_back_roundtrip() {
        let s = series(4, 100, 0);
        let mut store = SegmentStore::new();
        store.append(3, &s).unwrap();
        let back = store.read_range(3, i64::MIN, i64::MAX).unwrap();
        assert_eq!(back.symbols(), s.symbols());
        assert_eq!(back.timestamps(), s.timestamps());
        assert_eq!(store.stats().reads, 1);
    }

    #[test]
    fn time_range_reads_slice_rows() {
        let s = series(4, 96, 0);
        let mut store = SegmentStore::new();
        store.append(1, &s).unwrap();
        let mid = store.read_range(1, 900 * 10, 900 * 19).unwrap();
        assert_eq!(mid.len(), 10);
        assert_eq!(mid.timestamps()[0], 9000);
        assert_eq!(mid.symbols(), &s.symbols()[10..20]);
    }

    #[test]
    fn truncated_read_is_a_bit_slice_equal_to_truncate_resolution() {
        let s = series(5, 64, 0);
        let mut store = SegmentStore::new();
        store.append(9, &s).unwrap();
        for r in 1..=5u8 {
            let sliced = store.read_truncated(9, i64::MIN, i64::MAX, r).unwrap();
            let truncated = s.truncate_resolution(r).unwrap();
            assert_eq!(sliced.symbols(), truncated.symbols(), "bits {r}");
        }
        assert_eq!(store.stats().truncated_reads, 5);
    }

    #[test]
    fn irregular_series_is_a_typed_error() {
        let t = table(2);
        let mut s = SymbolicSeries::new(2).unwrap();
        for (ts, v) in [(0i64, 10.0), (900, 200.0), (2700, 390.0)] {
            s.push(ts, t.encode_value(v).unwrap()).unwrap();
        }
        let mut store = SegmentStore::new();
        match store.append(1, &s) {
            Err(Error::Store(msg)) => assert!(msg.contains("irregular"), "{msg}"),
            other => panic!("expected Store error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_house_is_a_typed_error() {
        let mut store = SegmentStore::new();
        assert!(matches!(store.read_range(5, 0, 100), Err(Error::Store(_))));
    }

    #[test]
    fn prefix_count_matches_scan_and_prunes() {
        let s = series(4, 200, 0);
        let mut store = SegmentStore::new();
        store.append(2, &s).unwrap();
        // A constant low-rank segment that the footer alone can answer.
        let t = table(4);
        let mut lows = SymbolicSeries::new(4).unwrap();
        for i in 0..50 {
            lows.push(200 * 900 + i * 900, t.encode_value(1.0).unwrap()).unwrap();
        }
        store.append(2, &lows).unwrap();
        for plen in 1..=4u8 {
            for code in 0..(1u16 << plen) {
                let prefix = Symbol::from_rank(code, plen).unwrap();
                let got = store.count_prefix(2, i64::MIN, i64::MAX, prefix).unwrap();
                let expected = s
                    .symbols()
                    .iter()
                    .chain(lows.symbols())
                    .filter(|sym| prefix.covers(**sym))
                    .count() as u64;
                assert_eq!(got, expected, "prefix {code}/{plen}");
            }
        }
        assert!(store.stats().segments_pruned > 0, "footer pruning never fired");
    }

    #[test]
    fn aggregate_pushdown_matches_naive_mean() {
        let t = table(4);
        let s = series(4, 150, 0);
        let mut store = SegmentStore::new();
        store.append(8, &s).unwrap();
        let agg = store.aggregate_range(8, 900 * 20, 900 * 119, &t).unwrap();
        let naive: Vec<f64> = s.symbols()[20..120]
            .iter()
            .map(|sym| t.decode_symbol(*sym, crate::lookup::SymbolSemantics::RangeMean).unwrap())
            .collect();
        let mean = naive.iter().sum::<f64>() / naive.len() as f64;
        assert_eq!(agg.count, 100);
        assert!((agg.mean - mean).abs() < 1e-9, "{} vs {mean}", agg.mean);
        // Coarser aggregate through a coarsened table: still exact against
        // the naive coarse decode.
        let t2 = t.coarsen(2).unwrap();
        let agg2 = store.aggregate_range(8, 900 * 20, 900 * 119, &t2).unwrap();
        let naive2: Vec<f64> = s.symbols()[20..120]
            .iter()
            .map(|sym| {
                t2.decode_symbol(
                    sym.truncate(2).unwrap(),
                    crate::lookup::SymbolSemantics::RangeMean,
                )
                .unwrap()
            })
            .collect();
        let mean2 = naive2.iter().sum::<f64>() / naive2.len() as f64;
        assert!((agg2.mean - mean2).abs() < 1e-9);
    }

    #[test]
    fn persistence_roundtrip_and_hostile_headers() {
        let mut store = SegmentStore::new();
        store.append(1, &series(4, 96, 0)).unwrap();
        store.append(2, &series(3, 48, 0)).unwrap();
        let img = store.to_bytes();
        let mut back = SegmentStore::from_bytes(&img).unwrap();
        assert_eq!(back.segment_count(), 2);
        let a = store.read_range(1, i64::MIN, i64::MAX).unwrap();
        let b = back.read_range(1, i64::MIN, i64::MAX).unwrap();
        assert_eq!(a.symbols(), b.symbols());

        // Re-seals a poked image's CRC32 footer so the poke reaches the
        // structural validation it targets (a stale footer would trip the
        // checksum first and mask the real check).
        let refoot = |mut evil: Vec<u8>| {
            let body = evil.len() - FOOTER_BYTES as usize;
            let crc = crate::durable::crc32(&evil[..body]);
            evil[body..].copy_from_slice(&crc.to_le_bytes());
            evil
        };
        // Hostile meta count: announced bytes no longer reconcile.
        let mut evil = img.clone();
        evil[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(SegmentStore::from_bytes(&refoot(evil)), Err(Error::Store(_))));
        // Hostile arena length.
        let mut evil = img.clone();
        evil[12..20].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(SegmentStore::from_bytes(&refoot(evil)), Err(Error::Store(_))));
        // Truncated image.
        assert!(matches!(SegmentStore::from_bytes(&img[..10]), Err(Error::Store(_))));
        // Segment extent poked outside the arena.
        let mut evil = img.clone();
        let off_at = HEADER_BYTES as usize + 32;
        evil[off_at..off_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(SegmentStore::from_bytes(&refoot(evil)), Err(Error::Store(_))));
        // Hostile interval: i64::MAX on a multi-symbol segment would make
        // end() = start + (count-1)*interval overflow in every later query.
        let mut evil = img.clone();
        let ivl_at = HEADER_BYTES as usize + 16;
        evil[ivl_at..ivl_at + 8].copy_from_slice(&i64::MAX.to_le_bytes());
        assert!(matches!(SegmentStore::from_bytes(&refoot(evil)), Err(Error::Store(_))));
    }

    #[test]
    fn epoch_segments_roundtrip_and_read_per_epoch() {
        let pre = series(4, 48, 0);
        let post = series(4, 48, 48 * 900);
        let mut store = SegmentStore::new();
        store.append(5, &pre).unwrap(); // epoch 0
        store.append_epoch(5, 1, &post).unwrap();
        assert_eq!(store.house_epochs(5), vec![0, 1]);

        // Persist and reload: epochs survive the image.
        let img = store.to_bytes();
        assert_eq!(&img[..4], STORE_MAGIC);
        let mut back = SegmentStore::from_bytes(&img).unwrap();
        assert_eq!(back.segments().iter().map(|m| m.epoch).collect::<Vec<_>>(), vec![0, 1]);

        // Per-epoch reads are pure bit-slices over that epoch's segments
        // only — the other epoch's payloads are never touched.
        for bits in 1..=4u8 {
            let e0 = back.read_epoch_truncated(5, 0, i64::MIN, i64::MAX, bits).unwrap();
            assert_eq!(e0.symbols(), pre.truncate_resolution(bits).unwrap().symbols());
            let e1 = back.read_epoch_truncated(5, 1, i64::MIN, i64::MAX, bits).unwrap();
            assert_eq!(e1.symbols(), post.truncate_resolution(bits).unwrap().symbols());
        }
        let none = back.read_epoch_truncated(5, 9, i64::MIN, i64::MAX, 4).unwrap();
        assert!(none.is_empty(), "an unknown epoch reads as empty, not as a mix");
    }

    #[test]
    fn v1_images_without_epochs_still_load() {
        // Build the v2 image, then rewrite it into the v1 layout by hand:
        // magic SMS1, each meta minus its trailing 4-byte epoch, re-sealed
        // CRC. from_bytes must load it with every segment at epoch 0.
        let mut store = SegmentStore::new();
        store.append(1, &series(4, 96, 0)).unwrap();
        store.append(2, &series(3, 48, 0)).unwrap();
        let v2 = store.to_bytes();
        let n = store.segment_count();
        let mut v1 = Vec::new();
        v1.extend_from_slice(STORE_MAGIC_V1);
        v1.extend_from_slice(&v2[4..HEADER_BYTES as usize]);
        let metas_at = HEADER_BYTES as usize;
        for i in 0..n {
            let rec = &v2[metas_at + i * META_WIRE_BYTES as usize..];
            v1.extend_from_slice(&rec[..META_V1_WIRE_BYTES as usize]);
        }
        let arena_at = metas_at + n * META_WIRE_BYTES as usize;
        v1.extend_from_slice(&v2[arena_at..v2.len() - FOOTER_BYTES as usize]);
        let crc = crate::durable::crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());

        let mut back = SegmentStore::from_bytes(&v1).unwrap();
        assert_eq!(back.segment_count(), 2);
        assert!(back.segments().iter().all(|m| m.epoch == 0));
        let a = store.read_range(1, i64::MIN, i64::MAX).unwrap();
        let b = back.read_range(1, i64::MIN, i64::MAX).unwrap();
        assert_eq!(a.symbols(), b.symbols());
    }

    #[test]
    fn bit_rot_anywhere_in_the_image_fails_the_checksum() {
        let mut store = SegmentStore::new();
        for h in 0..4u64 {
            store.append(h, &series(4, 24, 0)).unwrap();
        }
        let img = store.to_bytes();
        // Flip one bit at every position: header, metas, mid-arena, footer.
        for at in [0, 5, HEADER_BYTES as usize + 3, img.len() - 10, img.len() - 1] {
            let mut evil = img.clone();
            evil[at] ^= 0x10;
            match SegmentStore::from_bytes(&evil) {
                Err(Error::Store(_)) => {}
                other => panic!("bit flip at byte {at} was not detected: {other:?}"),
            }
        }
        assert!(SegmentStore::from_bytes(&img).is_ok());
    }

    #[test]
    fn count_prefix_at_max_resolution_does_not_overflow() {
        // 16-bit segments: the top prefix's exclusive rank bound is 65536,
        // which wraps to 0 as u16 — the old hi computation underflowed.
        let mut s = SymbolicSeries::new(16).unwrap();
        for i in 0..32u16 {
            s.push(i as i64 * 900, Symbol::from_rank(i * 2048, 16).unwrap()).unwrap();
        }
        let mut store = SegmentStore::new();
        store.append(11, &s).unwrap();
        for plen in 1..=3u8 {
            for code in 0..(1u16 << plen) {
                let prefix = Symbol::from_rank(code, plen).unwrap();
                let got = store.count_prefix(11, i64::MIN, i64::MAX, prefix).unwrap();
                let expected = s.symbols().iter().filter(|sym| prefix.covers(**sym)).count() as u64;
                assert_eq!(got, expected, "prefix {code}/{plen}");
            }
        }
    }

    #[test]
    fn hostile_recompressed_buffers_are_typed_errors() {
        // Announced count far past the decode cap: must error before the
        // output allocation, not panic on with_capacity.
        let mut evil = vec![4u8];
        write_varint(&mut evil, u64::MAX); // count
        write_varint(&mut evil, 1); // tokens
        write_varint(&mut evil, 1); // dict entries
        write_varint(&mut evil, 0); // rank
        write_varint(&mut evil, u64::MAX); // run
        evil.push(0); // index stream
        assert!(matches!(decompress_segment(&evil), Err(Error::Store(_))));

        // Count under the cap but a dictionary run that expands way past
        // it: must error at the offending token, not push 2^40 ranks.
        let mut evil = vec![4u8];
        write_varint(&mut evil, 10); // count
        write_varint(&mut evil, 2); // tokens
        write_varint(&mut evil, 1); // dict entries
        write_varint(&mut evil, 3); // rank
        write_varint(&mut evil, 1u64 << 40); // run
        evil.push(0); // index stream
        assert!(matches!(decompress_segment(&evil), Err(Error::Store(_))));

        // Raw escape with a count its body can't carry.
        let mut evil = vec![RECOMPRESS_RAW_ESCAPE | 4u8];
        write_varint(&mut evil, u64::MAX / 32); // count
        evil.push(0);
        assert!(matches!(decompress_segment(&evil), Err(Error::Store(_))));
    }

    #[test]
    fn image_is_append_order_independent() {
        let a_series = series(4, 96, 0);
        let b_series = series(4, 48, 0);
        let mut fwd = SegmentStore::new();
        fwd.append(1, &a_series).unwrap();
        fwd.append(2, &b_series).unwrap();
        let mut rev = SegmentStore::new();
        rev.append(2, &b_series).unwrap();
        rev.append(1, &a_series).unwrap();
        // Arena layout differs with append order, but reads agree.
        let x = fwd.read_range(2, i64::MIN, i64::MAX).unwrap();
        let y = rev.read_range(2, i64::MIN, i64::MAX).unwrap();
        assert_eq!(x.symbols(), y.symbols());
    }

    #[test]
    fn recompression_roundtrips_and_shrinks_runs() {
        let t = table(4);
        let mut runs = SymbolicSeries::new(4).unwrap();
        for i in 0..400i64 {
            let v = if (i / 100) % 2 == 0 { 5.0 } else { 350.0 };
            runs.push(i * 900, t.encode_value(v).unwrap()).unwrap();
        }
        let mut store = SegmentStore::new();
        store.append(4, &runs).unwrap();
        let report = store.recompress().unwrap();
        assert!(report.recompressed_bytes < report.packed_bytes, "{report:?}");
        let bytes = store.recompress_segment(&store.segments()[0]).unwrap();
        let (bits, ranks) = decompress_segment(&bytes).unwrap();
        assert_eq!(bits, 4);
        assert_eq!(ranks, runs.ranks());
        assert_eq!(store.stats().recompressed_bytes, report.recompressed_bytes);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            let mut at = 0;
            assert_eq!(read_varint(&buf, &mut at).unwrap(), v);
            assert_eq!(at, buf.len());
        }
    }

    #[test]
    fn store_stats_register_into_catalog() {
        let stats = StoreStats {
            segments_written: 3,
            symbols_written: 288,
            packed_bytes: 144,
            ..Default::default()
        };
        let reg = Registry::new();
        stats.register_into(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("sms_store_segments_written 3"));
        assert!(text.contains("sms_store_packed_bytes 144"));
    }
}
