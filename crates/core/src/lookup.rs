//! The lookup table `L = (A, B)` of Definition 3: an alphabet plus
//! separators, mapping real values to symbols and symbols back to
//! representative real values.
//!
//! The paper builds the table once at the sensor from historical data, ships
//! it to the aggregation server, and optionally rebuilds it when the
//! distribution drifts (§2, §4). Reconstruction uses either the *center* of
//! a symbol's range (the forecasting semantics of §3.2) or the *mean of the
//! training values* that fell into the range (the reconstruction semantics
//! of §2: "match each symbol to the average real value of it corresponding
//! range").
//!
//! Tables are learned two ways. [`LookupTable::learn`] and
//! [`LookupTable::learn_from_sample`] are exact: both take their separators
//! from one sort of the training values (see [`crate::separators`]) and sum
//! the bin statistics over the values in time order. The approximate
//! [`LookupTable::learn_from_sketch`] reads everything off a bounded-memory
//! [`QuantileSketch`], for the drift path, which keeps no raw history. Its
//! `Uniform` grid spans the sketch's observed `[lo, hi]` rather than §2.2's
//! `[0, max]`.

use crate::alphabet::Alphabet;
use crate::error::{Error, Result};
use crate::json::{self, JsonValue, JsonWriter};
use crate::separators::{
    def3_bin_index, learn_separators, learn_separators_from_sample, strictly_increasing,
    FlatSeparators, SeparatorMethod, SortedSample, ENCODE_CHUNK,
};
use crate::stats::QuantileSketch;
use crate::symbol::Symbol;

/// Boundary count at or below which the batch encode uses the columnar
/// per-boundary kernel; above it the fixed branchless search wins (the
/// columnar kernel's cost is linear in `k`, the search's is constant).
const COLUMNAR_MAX_SEPARATORS: usize = 7;

/// How to map a symbol back to a real value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolSemantics {
    /// Midpoint of the symbol's value range (§3.2: "we define semantics of a
    /// symbol as the center of its range").
    RangeCenter,
    /// Mean of the training values that fell in the range (§2's lookup-table
    /// reconstruction). Falls back to the range center for empty bins.
    RangeMean,
}

/// A fully specified lookup table: alphabet, separators, and per-bin
/// statistics gathered at training time.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupTable {
    method: SeparatorMethod,
    alphabet: Alphabet,
    /// `k - 1` non-decreasing boundaries.
    separators: Vec<f64>,
    /// Mean training value per bin (NaN-free; empty bins hold the center).
    bin_means: Vec<f64>,
    /// Training observations per bin (used to re-weight when coarsening).
    bin_counts: Vec<u64>,
    /// Smallest training value (lower edge of bin 0's effective range).
    value_min: f64,
    /// Largest training value (upper edge of the last bin's effective range).
    value_max: f64,
    /// Branchless search form of `separators` for k ≤ 32 (a pure function
    /// of `separators`, rebuilt on construction — derived `PartialEq` stays
    /// consistent). `None` for larger alphabets, which keep binary search.
    /// Boxed: the padded 32 slots would otherwise make every table, and
    /// every [`crate::encoder::SensorMessage`], 264 bytes larger.
    flat: Option<Box<FlatSeparators>>,
}

impl LookupTable {
    /// Learns a table of `k = alphabet.size()` symbols from historical
    /// `values` with the given separator `method`: separators from one
    /// sort of `values`, bin statistics over `values` as given.
    pub fn learn(method: SeparatorMethod, alphabet: Alphabet, values: &[f64]) -> Result<Self> {
        let separators = learn_separators(method, values, alphabet.size())?;
        Self::from_parts(method, alphabet, separators, values)
    }

    /// [`LookupTable::learn`] from a pre-sorted sample: bit-identical output
    /// (separator quantiles from the cached sort, bin statistics summed in
    /// the sample's original value order), but learning a whole grid of
    /// alphabet sizes from one sample pays the sort only once.
    pub fn learn_from_sample(
        method: SeparatorMethod,
        alphabet: Alphabet,
        sample: &SortedSample,
    ) -> Result<Self> {
        let separators = learn_separators_from_sample(method, sample, alphabet.size())?;
        Self::from_parts(method, alphabet, separators, sample.values())
    }

    /// Learns a table from a bounded-memory [`QuantileSketch`] instead of a
    /// retained sample — the drift path's constructor, since no raw history
    /// survives at fleet scale.
    ///
    /// Separators come from sketch quantiles (`Median`: the `j/k` rank
    /// quantiles; `Uniform`: an even grid over the sketch's value range
    /// `[lo, hi]`, not §2.2's `[0, max]`; `DistinctMedian` falls back to
    /// `Median`-over-the-sketch — a mergeable sketch cannot track distinct
    /// values, and once ranks are approximate the duplicate-bias correction
    /// is noise). Bin means come from mid-mass quantiles, bin counts from
    /// the sketch's rank mass per bin. Collapsed boundaries (constant runs,
    /// heavy duplicates) are nudged one ULP apart, as the exact learners
    /// nudge them, so the result keeps the strictly-increasing wire
    /// invariant.
    ///
    /// Errors on an empty sketch or one whose value range reaches ±∞ (the
    /// sketch accepts infinities as data, but a table's range must be
    /// finite).
    pub fn learn_from_sketch(
        method: SeparatorMethod,
        alphabet: Alphabet,
        sketch: &QuantileSketch,
    ) -> Result<Self> {
        if sketch.is_empty() {
            return Err(Error::EmptyInput("learn_from_sketch"));
        }
        let k = alphabet.size();
        let view = sketch.sorted_view();
        let lo = view.quantile(0.0).expect("non-empty sketch");
        let hi = view.quantile(1.0).expect("non-empty sketch");
        if !(lo.is_finite() && hi.is_finite()) {
            return Err(Error::InvalidParameter {
                name: "sketch",
                reason: format!("value range [{lo}, {hi}] is not finite"),
            });
        }
        let separators = strictly_increasing(
            (1..k)
                .map(|j| match method {
                    SeparatorMethod::Uniform => lo + (hi - lo) * j as f64 / k as f64,
                    SeparatorMethod::Median | SeparatorMethod::DistinctMedian => {
                        view.quantile(j as f64 / k as f64).expect("non-empty sketch")
                    }
                })
                .collect(),
        );

        let mut t = Self::from_parts(method, alphabet, separators, &[])?;
        t.value_min = lo;
        t.value_max = hi.max(t.separators[k - 2]);

        // Rank-mass boundaries per bin (monotone by construction).
        let total = view.count();
        let mut cum = Vec::with_capacity(k + 1);
        cum.push(0u64);
        for i in 0..k - 1 {
            let r = view.rank(t.separators[i]).min(total);
            cum.push(r.max(cum[i]));
        }
        cum.push(total);
        for i in 0..k {
            t.bin_counts[i] = cum[i + 1] - cum[i];
            t.bin_means[i] = if t.bin_counts[i] > 0 {
                let mid = (cum[i] + cum[i + 1]) as f64 / 2.0 / total as f64;
                let m = view.quantile(mid).expect("non-empty sketch");
                m.max(t.lower_edge(i)).min(t.upper_edge(i))
            } else {
                t.center_of_bin(i)
            };
        }
        Ok(t)
    }

    /// Builds a table from pre-computed separators, filling bin statistics
    /// from `values` (which may be empty — bins then use range centers).
    pub fn from_parts(
        method: SeparatorMethod,
        alphabet: Alphabet,
        separators: Vec<f64>,
        values: &[f64],
    ) -> Result<Self> {
        let k = alphabet.size();
        if separators.len() != k - 1 {
            return Err(Error::SeparatorCount { expected: k - 1, got: separators.len() });
        }
        for (i, w) in separators.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(Error::NonMonotonicSeparators { index: i + 1 });
            }
        }
        for (i, s) in separators.iter().enumerate() {
            if !s.is_finite() {
                return Err(Error::InvalidParameter {
                    name: "separators",
                    reason: format!("separator {i} is not finite: {s}"),
                });
            }
        }

        let (mut value_min, mut value_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0u64; k];
        for &v in values {
            if !v.is_finite() {
                return Err(Error::InvalidParameter {
                    name: "values",
                    reason: format!("training value is not finite: {v}"),
                });
            }
            value_min = value_min.min(v);
            value_max = value_max.max(v);
            let idx = def3_bin_index(&separators, v);
            sums[idx] += v;
            counts[idx] += 1;
        }
        if values.is_empty() {
            // No training data: derive a plausible range from the separators.
            value_min = separators.first().copied().unwrap_or(0.0).min(0.0);
            value_max = separators.last().copied().unwrap_or(1.0);
            let span = (value_max - value_min).abs().max(1.0);
            value_max += span / k as f64;
        }

        let flat = FlatSeparators::new(&separators).map(Box::new);
        let mut table = LookupTable {
            method,
            alphabet,
            separators,
            bin_means: vec![0.0; k],
            bin_counts: counts,
            value_min,
            value_max,
            flat,
        };
        for (i, &sum) in sums.iter().enumerate() {
            table.bin_means[i] = if table.bin_counts[i] > 0 {
                sum / table.bin_counts[i] as f64
            } else {
                table.center_of_bin(i)
            };
        }
        Ok(table)
    }

    /// Reassembles a table from wire-decoded parts (see [`crate::wire`]).
    ///
    /// The wire is untrusted, so this validates *more* than
    /// [`LookupTable::from_parts`]: separators must be **strictly**
    /// increasing (the invariant `separators::learn_separators` guarantees
    /// for every locally learned table — equal boundaries would let two bins
    /// claim the same range), the value range must satisfy
    /// `value_min ≤ value_max`, and bin means must be finite.
    pub fn from_wire_parts(
        method: SeparatorMethod,
        alphabet: Alphabet,
        separators: Vec<f64>,
        bin_means: Vec<f64>,
        bin_counts: Vec<u64>,
        value_min: f64,
        value_max: f64,
    ) -> Result<Self> {
        let k = alphabet.size();
        if bin_means.len() != k || bin_counts.len() != k {
            return Err(Error::WireFormat(format!(
                "table body has {} means / {} counts for k = {k}",
                bin_means.len(),
                bin_counts.len()
            )));
        }
        if !(value_min.is_finite() && value_max.is_finite()) {
            return Err(Error::WireFormat("non-finite value range".to_string()));
        }
        if value_min > value_max {
            return Err(Error::WireFormat(format!(
                "inverted value range: min {value_min} > max {value_max}"
            )));
        }
        for (i, w) in separators.windows(2).enumerate() {
            if w[1] <= w[0] {
                return Err(Error::WireFormat(format!(
                    "separators must be strictly increasing on the wire \
                     (separator {} = {} does not exceed separator {} = {})",
                    i + 1,
                    w[1],
                    i,
                    w[0]
                )));
            }
        }
        for (i, m) in bin_means.iter().enumerate() {
            if !m.is_finite() {
                return Err(Error::WireFormat(format!("bin mean {i} is not finite: {m}")));
            }
        }
        let mut table = Self::from_parts(method, alphabet, separators, &[])?;
        table.bin_means = bin_means;
        table.bin_counts = bin_counts;
        table.value_min = value_min;
        table.value_max = value_max;
        Ok(table)
    }

    /// Builds an expert/custom table from hand-chosen separators (the §3.2
    /// "low/high consumption" example is `custom(&[threshold], lo, hi)` with
    /// a 2-symbol alphabet).
    pub fn custom(separators: &[f64], value_min: f64, value_max: f64) -> Result<Self> {
        let k = separators.len() + 1;
        let alphabet = Alphabet::with_size(k)?;
        let mut t = Self::from_parts(SeparatorMethod::Uniform, alphabet, separators.to_vec(), &[])?;
        t.value_min = value_min;
        t.value_max = value_max;
        for i in 0..k {
            t.bin_means[i] = t.center_of_bin(i);
        }
        Ok(t)
    }

    /// The separator method the table was learned with.
    pub fn method(&self) -> SeparatorMethod {
        self.method
    }

    /// The table's alphabet.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Alphabet size `k`.
    pub fn size(&self) -> usize {
        self.alphabet.size()
    }

    /// Symbol resolution in bits.
    pub fn resolution_bits(&self) -> u8 {
        self.alphabet.resolution_bits()
    }

    /// The separators `β_1 ≤ … ≤ β_{k-1}`.
    pub fn separators(&self) -> &[f64] {
        &self.separators
    }

    /// Observed training range `(min, max)`.
    pub fn value_range(&self) -> (f64, f64) {
        (self.value_min, self.value_max)
    }

    /// Encodes one value per Definition 3:
    /// `v ≤ β_1 ⇒ a_1`; `v > β_{k-1} ⇒ a_k`; else `β_{j-1} < v ≤ β_j ⇒ a_j`.
    ///
    /// `±∞` encode deterministically to the outermost bins (`-∞ ⇒ a_1`,
    /// `+∞ ⇒ a_k`). `NaN` is rejected with [`Error::NonFiniteValue`]:
    /// every separator comparison is false for NaN, so the search would
    /// silently emit `a_1` for a value that belongs to *no* bin (NaN can
    /// still reach here via `TimeSeries::from_samples_unchecked` and the
    /// public API even though the normal ingest paths reject it).
    pub fn encode_value(&self, v: f64) -> Result<Symbol> {
        if v.is_nan() {
            return Err(Error::NonFiniteValue { index: 0 });
        }
        Ok(Symbol::from_rank_unchecked(self.bin_of(v) as u16, self.resolution_bits()))
    }

    /// The 0-based bin of a non-NaN `v`: the flat branchless scan for
    /// k ≤ 32, binary search above, with the search kept as the
    /// debug-assert reference for the flat path.
    #[inline]
    fn bin_of(&self, v: f64) -> usize {
        match &self.flat {
            Some(flat) => {
                let idx = flat.bin_index(v);
                debug_assert_eq!(
                    idx,
                    def3_bin_index(&self.separators, v),
                    "flat scan diverged from the binary-search reference at v={v}"
                );
                idx
            }
            None => def3_bin_index(&self.separators, v),
        }
    }

    /// Batch [`encode_value`](Self::encode_value) over a whole column:
    /// clears `out` and fills it with one symbol per value, in order.
    ///
    /// This is the encode hot path: the NaN screen runs as one branchless
    /// pass over the column (the index of the first NaN is only located
    /// after the scan, in the error case), and the per-value
    /// `Symbol::from_rank` range re-validation is dropped — the bin index
    /// of a `k`-bin table always fits the table's own resolution.
    /// Output is bit-identical to the scalar loop for every non-NaN input,
    /// `±∞` and subnormals included.
    pub fn encode_batch_into(&self, values: &[f64], out: &mut Vec<Symbol>) -> Result<()> {
        self.encode_column_into(values.iter().copied(), values.len(), out)
    }

    /// Allocating convenience for [`encode_batch_into`](Self::encode_batch_into).
    pub fn encode_slice(&self, values: &[f64]) -> Result<Vec<Symbol>> {
        let mut out = Vec::new();
        self.encode_batch_into(values, &mut out)?;
        Ok(out)
    }

    /// [`encode_batch_into`](Self::encode_batch_into) over the value column
    /// of interleaved samples, so `horizontal_segmentation_into` can feed
    /// its `(t, v)` storage straight through the batch path without
    /// gathering a separate `f64` column first.
    pub(crate) fn encode_samples_into(
        &self,
        samples: &[crate::timeseries::Sample],
        out: &mut Vec<Symbol>,
    ) -> Result<()> {
        self.encode_column_into(samples.iter().map(|s| s.v), samples.len(), out)
    }

    /// The shared batch-encode body: a branchless NaN screen over the whole
    /// column, then one unvalidated symbol per value (see
    /// [`encode_batch_into`](Self::encode_batch_into) for the contract).
    #[inline]
    fn encode_column_into<I>(&self, values: I, len: usize, out: &mut Vec<Symbol>) -> Result<()>
    where
        I: Iterator<Item = f64> + Clone,
    {
        let mut nan_seen = false;
        for v in values.clone() {
            nan_seen |= v.is_nan();
        }
        if nan_seen {
            let index = values.clone().position(f64::is_nan).expect("NaN was seen");
            debug_assert!(false, "NaN reached the batch encode path at index {index}");
            return Err(Error::NonFiniteValue { index });
        }
        out.clear();
        out.reserve(len);
        let bits = self.resolution_bits();
        match &self.flat {
            // Few boundaries: the columnar kernel's `k−1` vectorized passes
            // beat everything. Gather the iterator into a stack chunk, bin
            // the whole chunk, then mint the symbols
            // (see `FlatSeparators::bin_indices`).
            Some(flat) if flat.len() <= COLUMNAR_MAX_SEPARATORS => {
                let mut buf = [0.0f64; ENCODE_CHUNK];
                let mut counts = [0u64; ENCODE_CHUNK];
                let mut values = values;
                loop {
                    let mut m = 0;
                    for v in values.by_ref() {
                        buf[m] = v;
                        m += 1;
                        if m == ENCODE_CHUNK {
                            break;
                        }
                    }
                    if m == 0 {
                        break;
                    }
                    flat.bin_indices(&buf[..m], &mut counts);
                    for (&idx, &v) in counts[..m].iter().zip(&buf[..m]) {
                        debug_assert_eq!(
                            idx as usize,
                            def3_bin_index(&self.separators, v),
                            "columnar kernel diverged from the reference at v={v}"
                        );
                        out.push(Symbol::from_rank_unchecked(idx as u16, bits));
                    }
                    if m < ENCODE_CHUNK {
                        break;
                    }
                }
            }
            // 8–15 boundaries: the four-step branchless search (one
            // dependent load shorter than the full ladder). The dispatch
            // happens here, once per batch — a per-value `len` guard inside
            // the ladder was measured 4× slower.
            Some(flat) if flat.len() <= 15 => {
                self.ladder_chunks(values, bits, out, |v| flat.bin_index_narrow(v));
            }
            // More boundaries, still ≤ 32 slots: the fixed five-step
            // branchless search. Chunking through a stack buffer lets the
            // independent per-value searches pipeline and the bulk `extend`
            // skip the per-push capacity check.
            Some(flat) => {
                self.ladder_chunks(values, bits, out, |v| flat.bin_index(v));
            }
            None => {
                for v in values {
                    let idx = def3_bin_index(&self.separators, v);
                    out.push(Symbol::from_rank_unchecked(idx as u16, bits));
                }
            }
        }
        Ok(())
    }

    /// The chunked drive loop shared by both branchless-ladder regimes:
    /// gathers the iterator into a stack buffer, bins each value with
    /// `bin` (monomorphized per ladder, so each call site compiles to its
    /// own straight-line loop), and bulk-extends `out`.
    #[inline]
    fn ladder_chunks<I, F>(&self, mut values: I, bits: u8, out: &mut Vec<Symbol>, bin: F)
    where
        I: Iterator<Item = f64>,
        F: Fn(f64) -> usize,
    {
        let mut buf = [0.0f64; ENCODE_CHUNK];
        loop {
            let mut m = 0;
            for v in values.by_ref() {
                buf[m] = v;
                m += 1;
                if m == ENCODE_CHUNK {
                    break;
                }
            }
            if m == 0 {
                break;
            }
            out.extend(buf[..m].iter().map(|&v| {
                let idx = bin(v);
                debug_assert_eq!(
                    idx,
                    def3_bin_index(&self.separators, v),
                    "flat search diverged from the reference at v={v}"
                );
                Symbol::from_rank_unchecked(idx as u16, bits)
            }));
            if m < ENCODE_CHUNK {
                break;
            }
        }
    }

    /// Decodes a symbol of the table's own resolution (or any coarser
    /// resolution, thanks to the prefix structure) back to a real value.
    pub fn decode_symbol(&self, sym: Symbol, semantics: SymbolSemantics) -> Result<f64> {
        let bits = self.resolution_bits();
        if sym.resolution_bits() > bits {
            return Err(Error::ResolutionMismatch { left: sym.resolution_bits(), right: bits });
        }
        // A coarser symbol covers a contiguous run of this table's bins.
        let shift = bits - sym.resolution_bits();
        let first_bin = (sym.rank() as usize) << shift;
        let last_bin = first_bin + (1usize << shift) - 1;
        match semantics {
            SymbolSemantics::RangeCenter => {
                let lo = self.lower_edge(first_bin);
                let hi = self.upper_edge(last_bin);
                Ok((lo + hi) / 2.0)
            }
            SymbolSemantics::RangeMean => {
                let total: u64 = self.bin_counts[first_bin..=last_bin].iter().sum();
                if total == 0 {
                    let lo = self.lower_edge(first_bin);
                    let hi = self.upper_edge(last_bin);
                    return Ok((lo + hi) / 2.0);
                }
                let weighted: f64 = (first_bin..=last_bin)
                    .map(|i| self.bin_means[i] * self.bin_counts[i] as f64)
                    .sum();
                Ok(weighted / total as f64)
            }
        }
    }

    /// The value range `(lo, hi]`-style covered by `sym` (edges clamped to
    /// the observed training range for the outer bins).
    pub fn range_of(&self, sym: Symbol) -> Result<(f64, f64)> {
        let bits = self.resolution_bits();
        if sym.resolution_bits() > bits {
            return Err(Error::ResolutionMismatch { left: sym.resolution_bits(), right: bits });
        }
        let shift = bits - sym.resolution_bits();
        let first_bin = (sym.rank() as usize) << shift;
        let last_bin = first_bin + (1usize << shift) - 1;
        Ok((self.lower_edge(first_bin), self.upper_edge(last_bin)))
    }

    fn lower_edge(&self, bin: usize) -> f64 {
        if bin == 0 {
            self.value_min.min(self.separators.first().copied().unwrap_or(self.value_min))
        } else {
            self.separators[bin - 1]
        }
    }

    fn upper_edge(&self, bin: usize) -> f64 {
        if bin == self.size() - 1 {
            self.value_max.max(self.separators.last().copied().unwrap_or(self.value_max))
        } else {
            self.separators[bin]
        }
    }

    fn center_of_bin(&self, bin: usize) -> f64 {
        (self.lower_edge(bin) + self.upper_edge(bin)) / 2.0
    }

    /// Training observation count per bin.
    pub fn bin_counts(&self) -> &[u64] {
        &self.bin_counts
    }

    /// Mean training value per bin.
    pub fn bin_means(&self) -> &[f64] {
        &self.bin_means
    }

    /// Derives the coarser table with `to_bits` resolution by keeping every
    /// second separator (works because quantile and uniform boundaries nest
    /// when `k` halves). Satisfies: encoding with the coarse table equals
    /// encoding with this table then truncating the symbol (§4 flexibility;
    /// property-tested).
    pub fn coarsen(&self, to_bits: u8) -> Result<LookupTable> {
        let bits = self.resolution_bits();
        if to_bits == 0 || to_bits > bits {
            return Err(Error::InvalidResolution(to_bits));
        }
        if to_bits == bits {
            return Ok(self.clone());
        }
        let step = 1usize << (bits - to_bits);
        let new_k = 1usize << to_bits;
        // Keep separators at original (1-based) positions step, 2*step, ...
        let separators: Vec<f64> = (1..new_k).map(|j| self.separators[j * step - 1]).collect();
        let mut bin_means = Vec::with_capacity(new_k);
        let mut bin_counts = Vec::with_capacity(new_k);
        for j in 0..new_k {
            let bins = j * step..(j + 1) * step;
            let total: u64 = self.bin_counts[bins.clone()].iter().sum();
            let mean = if total > 0 {
                self.bin_counts[bins.clone()]
                    .iter()
                    .zip(&self.bin_means[bins.clone()])
                    .map(|(&c, &m)| c as f64 * m)
                    .sum::<f64>()
                    / total as f64
            } else {
                f64::NAN // fixed below once we can call center_of_bin
            };
            bin_means.push(mean);
            bin_counts.push(total);
        }
        let flat = FlatSeparators::new(&separators).map(Box::new);
        let mut out = LookupTable {
            method: self.method,
            alphabet: Alphabet::with_resolution(to_bits)?,
            separators,
            bin_means,
            bin_counts,
            value_min: self.value_min,
            value_max: self.value_max,
            flat,
        };
        for i in 0..new_k {
            if out.bin_means[i].is_nan() {
                out.bin_means[i] = out.center_of_bin(i);
            }
        }
        Ok(out)
    }

    /// Entropy (bits) of the symbol distribution this table induced on its
    /// training data. Median tables maximize this by construction (§2.2b:
    /// "aims to maximize the entropy of the generated symbols").
    pub fn training_entropy_bits(&self) -> f64 {
        let total: u64 = self.bin_counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.bin_counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum()
    }

    /// Serializes to the JSON wire format used when shipping the table from
    /// the sensor to the aggregation server.
    pub fn to_json(&self) -> Result<String> {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        Ok(w.finish())
    }

    /// Parses the JSON wire format.
    pub fn from_json(s: &str) -> Result<Self> {
        let doc = json::parse(s).map_err(Error::Serde)?;
        Self::from_json_value(&doc)
    }

    /// Writes this table as one JSON value into `w` (shared with the
    /// [`crate::encoder::SensorMessage`] wire encoding).
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("method").string(method_variant(self.method));
        w.key("alphabet").begin_object();
        w.key("resolution_bits").u64(self.alphabet.resolution_bits() as u64);
        w.end_object();
        w.key("separators").f64_array(&self.separators);
        w.key("bin_means").f64_array(&self.bin_means);
        w.key("bin_counts").u64_array(&self.bin_counts);
        w.key("value_min").f64(self.value_min);
        w.key("value_max").f64(self.value_max);
        w.end_object();
    }

    /// Rebuilds a table from a parsed JSON value, validating shapes and
    /// separator monotonicity like [`LookupTable::from_wire_parts`].
    pub(crate) fn from_json_value(doc: &JsonValue) -> Result<Self> {
        let field =
            |key: &str| doc.get(key).ok_or_else(|| Error::Serde(format!("missing field `{key}`")));
        let method = field("method")?
            .as_str()
            .and_then(method_from_variant)
            .ok_or_else(|| Error::Serde("invalid `method`".to_string()))?;
        let bits = field("alphabet")?
            .get("resolution_bits")
            .and_then(JsonValue::as_u64)
            .filter(|&b| b <= u8::MAX as u64)
            .ok_or_else(|| Error::Serde("invalid `alphabet`".to_string()))?;
        let f64_field = |key: &str| -> Result<Vec<f64>> {
            field(key)?
                .as_array()
                .ok_or_else(|| Error::Serde(format!("`{key}` is not an array")))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| Error::Serde(format!("non-number in `{key}`"))))
                .collect()
        };
        let bin_counts: Vec<u64> = field("bin_counts")?
            .as_array()
            .ok_or_else(|| Error::Serde("`bin_counts` is not an array".to_string()))?
            .iter()
            .map(|v| {
                v.as_u64().ok_or_else(|| Error::Serde("non-integer in `bin_counts`".to_string()))
            })
            .collect::<Result<_>>()?;
        let value_min = field("value_min")?
            .as_f64()
            .ok_or_else(|| Error::Serde("invalid `value_min`".to_string()))?;
        let value_max = field("value_max")?
            .as_f64()
            .ok_or_else(|| Error::Serde("invalid `value_max`".to_string()))?;
        Self::from_wire_parts(
            method,
            Alphabet::with_resolution(bits as u8)?,
            f64_field("separators")?,
            f64_field("bin_means")?,
            bin_counts,
            value_min,
            value_max,
        )
    }

    /// Approximate wire size in bytes of the serialized table (for the §2.3
    /// compression accounting, where the table cost "can be amortized over
    /// time").
    pub fn wire_size_bytes(&self) -> usize {
        self.to_json().map(|s| s.len()).unwrap_or(0)
    }
}

/// JSON tag for a method (the Rust variant name, matching what serde's
/// derive produced before the offline rewrite — old captures keep parsing).
fn method_variant(m: SeparatorMethod) -> &'static str {
    match m {
        SeparatorMethod::Uniform => "Uniform",
        SeparatorMethod::Median => "Median",
        SeparatorMethod::DistinctMedian => "DistinctMedian",
    }
}

fn method_from_variant(s: &str) -> Option<SeparatorMethod> {
    Some(match s {
        "Uniform" => SeparatorMethod::Uniform,
        "Median" => SeparatorMethod::Median,
        "DistinctMedian" => SeparatorMethod::DistinctMedian,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet(k: usize) -> Alphabet {
        Alphabet::with_size(k).unwrap()
    }

    #[test]
    fn learn_from_sample_is_bit_identical_to_learn() {
        let values: Vec<f64> =
            (0..500).map(|i| ((i * 37) % 97) as f64 + f64::from(i % 3) * 0.125).collect();
        let sample = SortedSample::new(&values).unwrap();
        for method in SeparatorMethod::ALL {
            for k in [2, 4, 16, 64] {
                let direct = LookupTable::learn(method, alphabet(k), &values).unwrap();
                let cached = LookupTable::learn_from_sample(method, alphabet(k), &sample).unwrap();
                assert_eq!(direct.separators(), cached.separators(), "{method} k={k}");
                assert_eq!(direct.bin_means(), cached.bin_means(), "{method} k={k}");
            }
        }
    }

    #[test]
    fn learn_from_sketch_tracks_exact_learn() {
        let values: Vec<f64> = (0..4000).map(|i| ((i * 37) % 997) as f64).collect();
        let mut sk = QuantileSketch::new(256).unwrap();
        for &v in &values {
            sk.update(v).unwrap();
        }
        for method in [SeparatorMethod::Median, SeparatorMethod::Uniform] {
            let exact = LookupTable::learn(method, alphabet(8), &values).unwrap();
            let approx = LookupTable::learn_from_sketch(method, alphabet(8), &sk).unwrap();
            let (elo, ehi) = exact.value_range();
            let (alo, ahi) = approx.value_range();
            assert_eq!((alo, ahi), (elo, ehi), "{method}: range is exact (min/max survive)");
            for (e, a) in exact.separators().iter().zip(approx.separators()) {
                assert!(
                    (e - a).abs() < 997.0 * 0.1,
                    "{method}: separator {a} strays from exact {e}"
                );
            }
            // Every separator strictly increasing — the wire invariant.
            for w in approx.separators().windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn learn_from_sketch_handles_constant_and_duplicate_streams() {
        let mut sk = QuantileSketch::new(32).unwrap();
        for _ in 0..5000 {
            sk.update(42.0).unwrap();
        }
        let t = LookupTable::learn_from_sketch(SeparatorMethod::Median, alphabet(4), &sk).unwrap();
        for w in t.separators().windows(2) {
            assert!(w[1] > w[0], "collapsed separators must be nudged strictly apart");
        }
        assert_eq!(t.encode_value(42.0).unwrap().resolution_bits(), 2);
        // The table survives a wire roundtrip (strict separator validation).
        let rt = LookupTable::from_wire_parts(
            t.method(),
            t.alphabet(),
            t.separators().to_vec(),
            t.bin_means().to_vec(),
            t.bin_counts().to_vec(),
            t.value_range().0,
            t.value_range().1,
        )
        .unwrap();
        assert_eq!(rt.separators(), t.separators());
    }

    #[test]
    fn learn_from_sketch_rejects_empty_and_infinite_range() {
        let sk = QuantileSketch::new(16).unwrap();
        assert!(LookupTable::learn_from_sketch(SeparatorMethod::Median, alphabet(4), &sk).is_err());
        let mut sk = QuantileSketch::new(16).unwrap();
        sk.update(f64::INFINITY).unwrap();
        sk.update(1.0).unwrap();
        assert!(LookupTable::learn_from_sketch(SeparatorMethod::Median, alphabet(4), &sk).is_err());
    }

    #[test]
    fn encode_respects_definition_3() {
        // separators 100, 200, 300 with k=4.
        let t = LookupTable::from_parts(
            SeparatorMethod::Uniform,
            alphabet(4),
            vec![100.0, 200.0, 300.0],
            &[0.0, 400.0],
        )
        .unwrap();
        assert_eq!(t.encode_value(50.0).unwrap().rank(), 0);
        assert_eq!(
            t.encode_value(100.0).unwrap().rank(),
            0,
            "v ≤ β1 ⇒ a1 (boundary inclusive below)"
        );
        assert_eq!(t.encode_value(100.1).unwrap().rank(), 1);
        assert_eq!(t.encode_value(200.0).unwrap().rank(), 1);
        assert_eq!(t.encode_value(300.0).unwrap().rank(), 2);
        assert_eq!(t.encode_value(300.1).unwrap().rank(), 3, "v > β_{{k-1}} ⇒ a_k");
        assert_eq!(t.encode_value(1e9).unwrap().rank(), 3);
        assert_eq!(t.encode_value(-1e9).unwrap().rank(), 0);
    }

    #[test]
    fn learn_uniform_from_values() {
        let vals: Vec<f64> = (0..=800).map(|x| x as f64).collect();
        let t = LookupTable::learn(SeparatorMethod::Uniform, alphabet(8), &vals).unwrap();
        assert_eq!(t.separators(), &[100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]);
        assert_eq!(t.value_range(), (0.0, 800.0));
    }

    #[test]
    fn from_parts_validates() {
        assert!(matches!(
            LookupTable::from_parts(SeparatorMethod::Uniform, alphabet(4), vec![1.0], &[]),
            Err(Error::SeparatorCount { expected: 3, got: 1 })
        ));
        assert!(matches!(
            LookupTable::from_parts(
                SeparatorMethod::Uniform,
                alphabet(4),
                vec![3.0, 2.0, 4.0],
                &[]
            ),
            Err(Error::NonMonotonicSeparators { index: 1 })
        ));
        assert!(LookupTable::from_parts(
            SeparatorMethod::Uniform,
            alphabet(2),
            vec![f64::NAN],
            &[]
        )
        .is_err());
        assert!(LookupTable::from_parts(
            SeparatorMethod::Uniform,
            alphabet(2),
            vec![1.0],
            &[f64::INFINITY]
        )
        .is_err());
    }

    #[test]
    fn from_wire_parts_rejects_tampered_invariants() {
        let ok = |seps: Vec<f64>, means: Vec<f64>, lo: f64, hi: f64| {
            LookupTable::from_wire_parts(
                SeparatorMethod::Uniform,
                alphabet(4),
                seps,
                means,
                vec![1; 4],
                lo,
                hi,
            )
        };
        // Baseline accepted.
        assert!(ok(vec![1.0, 2.0, 3.0], vec![0.5; 4], 0.0, 4.0).is_ok());
        // Equal separators: non-strict, rejected (learned tables nudge
        // collapsed quantiles apart; the wire must not bypass that).
        assert!(ok(vec![1.0, 1.0, 3.0], vec![0.5; 4], 0.0, 4.0).is_err());
        // Decreasing separators: rejected.
        assert!(ok(vec![3.0, 2.0, 1.0], vec![0.5; 4], 0.0, 4.0).is_err());
        // Inverted value range: rejected.
        assert!(ok(vec![1.0, 2.0, 3.0], vec![0.5; 4], 4.0, 0.0).is_err());
        // Non-finite bin mean: rejected.
        assert!(ok(vec![1.0, 2.0, 3.0], vec![0.5, f64::NAN, 0.5, 0.5], 0.0, 4.0).is_err());
        // Degenerate-but-legal constant range still accepted.
        assert!(ok(vec![1.0, 2.0, 3.0], vec![0.5; 4], 2.0, 2.0).is_ok());
    }

    #[test]
    fn decode_center_is_bin_midpoint() {
        let t = LookupTable::from_parts(
            SeparatorMethod::Uniform,
            alphabet(4),
            vec![100.0, 200.0, 300.0],
            &[0.0, 400.0],
        )
        .unwrap();
        let s1 = t.encode_value(150.0).unwrap();
        assert_eq!(t.decode_symbol(s1, SymbolSemantics::RangeCenter).unwrap(), 150.0);
        let s0 = t.encode_value(10.0).unwrap();
        assert_eq!(t.decode_symbol(s0, SymbolSemantics::RangeCenter).unwrap(), 50.0);
        let s3 = t.encode_value(350.0).unwrap();
        assert_eq!(t.decode_symbol(s3, SymbolSemantics::RangeCenter).unwrap(), 350.0);
    }

    #[test]
    fn decode_mean_uses_training_values() {
        let t = LookupTable::from_parts(
            SeparatorMethod::Uniform,
            alphabet(2),
            vec![100.0],
            &[10.0, 20.0, 500.0],
        )
        .unwrap();
        let lo = t.encode_value(15.0).unwrap();
        assert_eq!(t.decode_symbol(lo, SymbolSemantics::RangeMean).unwrap(), 15.0);
        let hi = t.encode_value(400.0).unwrap();
        assert_eq!(t.decode_symbol(hi, SymbolSemantics::RangeMean).unwrap(), 500.0);
    }

    #[test]
    fn decode_rejects_finer_symbols() {
        let t =
            LookupTable::from_parts(SeparatorMethod::Uniform, alphabet(2), vec![1.0], &[]).unwrap();
        let fine = Symbol::from_rank(0, 4).unwrap();
        assert!(t.decode_symbol(fine, SymbolSemantics::RangeCenter).is_err());
        assert!(t.range_of(fine).is_err());
    }

    #[test]
    fn coarser_symbol_decodes_through_finer_table() {
        let vals: Vec<f64> = (0..=800).map(|x| x as f64).collect();
        let t = LookupTable::learn(SeparatorMethod::Uniform, alphabet(8), &vals).unwrap();
        // '0' covers bins 0..4 = range (0, 400].
        let s: Symbol = "0".parse().unwrap();
        let (lo, hi) = t.range_of(s).unwrap();
        assert_eq!((lo, hi), (0.0, 400.0));
        assert_eq!(t.decode_symbol(s, SymbolSemantics::RangeCenter).unwrap(), 200.0);
    }

    #[test]
    fn coarsen_commutes_with_truncate() {
        // Core §4 flexibility invariant: encode-then-truncate equals
        // encode-with-coarsened-table.
        let vals: Vec<f64> = (0..5000).map(|i| ((i * 131) % 997) as f64).collect();
        for method in SeparatorMethod::ALL {
            let t16 = LookupTable::learn(method, alphabet(16), &vals).unwrap();
            for to_bits in [1u8, 2, 3] {
                let coarse = t16.coarsen(to_bits).unwrap();
                for &v in vals.iter().step_by(17) {
                    let fine = t16.encode_value(v).unwrap();
                    let truncated = fine.truncate(to_bits).unwrap();
                    let direct = coarse.encode_value(v).unwrap();
                    assert_eq!(truncated, direct, "{method} v={v} to_bits={to_bits}");
                }
            }
        }
    }

    #[test]
    fn coarsen_preserves_counts_and_means() {
        let vals: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        let t = LookupTable::learn(SeparatorMethod::Median, alphabet(8), &vals).unwrap();
        let c = t.coarsen(2).unwrap();
        assert_eq!(c.bin_counts().iter().sum::<u64>(), 1000);
        let global_mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let reconstructed: f64 =
            c.bin_counts().iter().zip(c.bin_means()).map(|(&n, &m)| n as f64 * m).sum::<f64>()
                / 1000.0;
        assert!((reconstructed - global_mean).abs() < 1e-9);
    }

    #[test]
    fn median_table_maximizes_entropy() {
        let vals: Vec<f64> = (0..4096).map(|i| ((i * 7919) % 65536) as f64 / 65536.0).collect();
        let vals: Vec<f64> = vals.iter().map(|v| v * v * 1000.0).collect(); // skewed
        let med = LookupTable::learn(SeparatorMethod::Median, alphabet(16), &vals).unwrap();
        let uni = LookupTable::learn(SeparatorMethod::Uniform, alphabet(16), &vals).unwrap();
        assert!(
            med.training_entropy_bits() >= uni.training_entropy_bits(),
            "median {} vs uniform {}",
            med.training_entropy_bits(),
            uni.training_entropy_bits()
        );
        assert!(med.training_entropy_bits() > 3.9, "near log2(16)=4");
    }

    #[test]
    fn custom_low_high_table() {
        // §3.2 expert example: low/high threshold at 500 W.
        let t = LookupTable::custom(&[500.0], 0.0, 3000.0).unwrap();
        assert_eq!(t.size(), 2);
        assert_eq!(t.encode_value(499.0).unwrap().to_string(), "0");
        assert_eq!(t.encode_value(501.0).unwrap().to_string(), "1");
        assert_eq!(
            t.decode_symbol("0".parse().unwrap(), SymbolSemantics::RangeCenter).unwrap(),
            250.0
        );
        assert_eq!(
            t.decode_symbol("1".parse().unwrap(), SymbolSemantics::RangeCenter).unwrap(),
            1750.0
        );
    }

    #[test]
    fn json_roundtrip() {
        let vals: Vec<f64> = (0..100).map(|x| x as f64).collect();
        let t = LookupTable::learn(SeparatorMethod::DistinctMedian, alphabet(8), &vals).unwrap();
        let json = t.to_json().unwrap();
        let back = LookupTable::from_json(&json).unwrap();
        assert_eq!(t, back);
        assert!(t.wire_size_bytes() > 0);
        assert!(LookupTable::from_json("not json").is_err());
    }

    #[test]
    fn boundary_values_map_to_lower_bin_deterministically() {
        // Audit of Def. 3's tie rule: a value exactly equal to separator β_j
        // always encodes as a_j — the LOWER of the two adjacent symbols
        // (`β_{j-1} < v ≤ β_j ⇒ a_j`) — for every boundary of every method.
        let vals: Vec<f64> = (0..1000).map(|i| ((i * 37) % 500) as f64).collect();
        for method in SeparatorMethod::ALL {
            let t = LookupTable::learn(method, alphabet(8), &vals).unwrap();
            for (j, &b) in t.separators().iter().enumerate() {
                assert_eq!(t.encode_value(b).unwrap().rank() as usize, j, "{method} β_{}", j + 1);
                // Infinitesimally above the boundary belongs to the next bin.
                assert_eq!(
                    t.encode_value(b.next_up()).unwrap().rank() as usize,
                    j + 1,
                    "{method} just above β_{}",
                    j + 1
                );
            }
        }
    }

    #[test]
    fn constant_data_encodes_to_first_symbol() {
        let vals = vec![42.0; 50];
        let t = LookupTable::learn(SeparatorMethod::Median, alphabet(4), &vals).unwrap();
        assert_eq!(t.encode_value(42.0).unwrap().rank(), 0);
    }

    #[test]
    fn nan_is_a_typed_error_not_a_silent_a1() {
        // The old scalar path quietly encoded NaN as a_1 (partition_point
        // sees every `b < NaN` comparison as false). It is now a typed error.
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = LookupTable::learn(SeparatorMethod::Median, alphabet(8), &vals).unwrap();
        match t.encode_value(f64::NAN) {
            Err(crate::error::Error::NonFiniteValue { index: 0 }) => {}
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
        // ±∞ stay encodable: they are ordered and land in the edge bins.
        assert_eq!(t.encode_value(f64::NEG_INFINITY).unwrap().rank(), 0);
        assert_eq!(t.encode_value(f64::INFINITY).unwrap().rank() as usize, t.size() - 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn batch_nan_reports_the_offending_index() {
        // Release builds surface the same typed error from the batch path,
        // pointing at the first NaN. (Debug builds fire a debug_assert
        // instead — NaN should have been sanitized long before encode.)
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = LookupTable::learn(SeparatorMethod::Median, alphabet(8), &vals).unwrap();
        let mut out = Vec::new();
        match t.encode_batch_into(&[1.0, 2.0, f64::NAN, 3.0, f64::NAN], &mut out) {
            Err(crate::error::Error::NonFiniteValue { index: 2 }) => {}
            other => panic!("expected NonFiniteValue at 2, got {other:?}"),
        }
    }

    #[test]
    fn batch_encode_matches_scalar_encode() {
        // Batch and scalar paths are the same function of the separators —
        // including on a k=64 table, which exceeds the 32-slot flat scan and
        // falls back to binary search.
        let vals: Vec<f64> = (0..4000).map(|i| ((i * 37) % 1999) as f64 / 3.0).collect();
        for k in [2usize, 8, 32, 64] {
            let t = LookupTable::learn(SeparatorMethod::Median, alphabet(k), &vals).unwrap();
            let mut probes: Vec<f64> = vals.iter().step_by(7).copied().collect();
            probes.extend_from_slice(t.separators());
            probes.extend([f64::NEG_INFINITY, f64::INFINITY, 0.0, -0.0]);
            let batch = t.encode_slice(&probes).unwrap();
            for (i, &v) in probes.iter().enumerate() {
                assert_eq!(batch[i], t.encode_value(v).unwrap(), "k={k} v={v}");
            }
        }
    }
}
