//! Separator learning (paper §2.2): the three strategies that place the
//! `k - 1` range boundaries `β_1 ≤ … ≤ β_{k-1}` of a lookup table.
//!
//! * **uniform** — equal-width bins over `[0, max]`;
//! * **median** — k-quantiles of the empirical distribution (maximizes the
//!   entropy of the generated symbols; generalizes SAX's Gaussian
//!   breakpoints to arbitrary distributions);
//! * **distinctmedian** — k-quantiles over the *set* of distinct values
//!   (avoids bias toward heavily repeated values such as standby power).

use crate::error::{Error, Result};
use crate::stats::{OrderedMultiset, QuantileSketch};

/// Which separator-generation strategy to use (paper §2.2 a–c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeparatorMethod {
    /// Equal-width bins over `[0, max]`.
    Uniform,
    /// k-quantiles of the value distribution.
    Median,
    /// k-quantiles of the distinct-value set ("distinctmedian").
    DistinctMedian,
}

impl SeparatorMethod {
    /// All three methods, in the order the paper's figures list them.
    pub const ALL: [SeparatorMethod; 3] =
        [SeparatorMethod::DistinctMedian, SeparatorMethod::Median, SeparatorMethod::Uniform];

    /// The paper's short name for the method.
    pub fn name(self) -> &'static str {
        match self {
            SeparatorMethod::Uniform => "uniform",
            SeparatorMethod::Median => "median",
            SeparatorMethod::DistinctMedian => "distinctmedian",
        }
    }
}

impl std::fmt::Display for SeparatorMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn validate_k(k: usize) -> Result<()> {
    if !(2..=1 << 16).contains(&k) || !k.is_power_of_two() {
        return Err(Error::InvalidAlphabetSize(k));
    }
    Ok(())
}

/// Enforces **strictly increasing** separators. Quantile boundaries collapse
/// onto a heavily repeated value (e.g. standby power), which would create
/// duplicate separators and therefore several bins claiming the same range;
/// each collapsed boundary is nudged up to the next representable double, the
/// smallest possible distortion that keeps every bin's range unique and the
/// encoding of every value deterministic (see [`def3_bin_index`] for the
/// Def. 3 tie rule).
fn strictly_increasing(mut seps: Vec<f64>) -> Vec<f64> {
    for i in 1..seps.len() {
        if seps[i] <= seps[i - 1] {
            seps[i] = seps[i - 1].next_up();
        }
    }
    seps
}

/// Definition 3's bin selection, the crate's **single** tie rule: the number
/// of separators strictly below `v` is the 0-based bin, which realizes
/// `β_{j-1} < v ≤ β_j ⇒ a_j` — a value exactly on a boundary goes to the
/// **lower** bin. `LookupTable`, SAX, and iSAX all quantize through this one
/// helper so their boundary behavior cannot drift apart (NaN counts zero
/// separators; callers that can see NaN must reject it first).
#[inline]
pub fn def3_bin_index(separators: &[f64], v: f64) -> usize {
    separators.partition_point(|&b| b < v)
}

/// Slot count of a [`FlatSeparators`]: enough for every alphabet the paper
/// evaluates (`k ≤ 32` ⇒ at most 31 separators), rounded to a power of two
/// so the compare loop unrolls into whole SIMD lanes.
pub const FLAT_SEPARATOR_SLOTS: usize = 32;

/// A fixed-width, branchless view of up to [`FLAT_SEPARATOR_SLOTS`]
/// separators for the encode hot path.
///
/// `partition_point`'s binary search takes ~log₂(k) *dependent* branches per
/// value — on the paper's small alphabets (k ≤ 32) that is slower than
/// simply comparing against **every** boundary with no branching at all,
/// and the batched [`bin_indices`](Self::bin_indices) kernel turns those
/// compares into vectorized passes along the value axis. The boundaries live
/// in a fixed `[f64; 32]` padded with `+∞`, and [`bin_index`](Self::bin_index)
/// sums `(β < v)` over every slot with no data-dependent branch, which the
/// compiler auto-vectorizes. Padding never miscounts: `+∞ < v` is false for
/// every finite `v` and for `v = +∞` itself.
///
/// The result is defined to be **bit-identical** to
/// `separators.partition_point(|&b| b < v)` for every `f64` input, including
/// `±∞` (below/above every boundary) and `NaN` (all comparisons false ⇒ bin
/// 0, which is why callers must reject NaN *before* the search — see
/// `LookupTable::encode_value`). The binary search stays on as the `k > 32`
/// fallback and as the debug-assert reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatSeparators {
    /// The separators, padded to the right with `+∞`.
    boundaries: [f64; FLAT_SEPARATOR_SLOTS],
    /// How many leading slots hold real separators.
    len: usize,
}

impl FlatSeparators {
    /// Flattens `separators` (finite, non-decreasing — the `LookupTable`
    /// invariants), or `None` when there are more than
    /// [`FLAT_SEPARATOR_SLOTS`] of them (large-k tables keep the binary
    /// search).
    pub fn new(separators: &[f64]) -> Option<Self> {
        if separators.len() > FLAT_SEPARATOR_SLOTS {
            return None;
        }
        let mut boundaries = [f64::INFINITY; FLAT_SEPARATOR_SLOTS];
        boundaries[..separators.len()].copy_from_slice(separators);
        Some(FlatSeparators { boundaries, len: separators.len() })
    }

    /// Number of real separators held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no separators are held (a `k = 1` table cannot exist, so
    /// this is only true for the trivial empty slice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The branchless Definition 3 bin selection: the number of boundaries
    /// strictly below `v`. Bit-identical to
    /// `separators.partition_point(|&b| b < v)` for every input, NaN
    /// included (NaN counts zero boundaries, like the binary search).
    ///
    /// Up to 31 separators this is a *fixed* five-step binary search over
    /// the padded 32-slot array: every step is a compare feeding an index
    /// add the compiler lowers to a conditional move, so unlike
    /// `partition_point` there is no data-dependent branch to mispredict —
    /// on random meter values that misprediction cost is what makes the
    /// classic search slow. Five steps cover counts 0..=31, which is every
    /// possible answer when at most 31 slots hold finite separators; the
    /// rare full 32-slot form falls back to a branchless linear count.
    #[inline]
    pub fn bin_index(&self, v: f64) -> usize {
        if self.len == FLAT_SEPARATOR_SLOTS {
            // All 32 slots real: count 32 is reachable, which the five-step
            // form cannot express. (Never hit via `LookupTable`: k ≤ 32
            // means at most 31 separators.)
            return self.boundaries.iter().map(|&b| (b < v) as usize).sum();
        }
        let b = &self.boundaries;
        let mut pos = 0usize;
        // Unconditional on purpose: for narrow tables the wide steps
        // compare against +∞ padding and add 0, and keeping every step
        // branch-free is what lets the compiler lower the whole ladder to
        // conditional moves. (Guarding the wide steps on `self.len` was
        // measured 4× *slower* — the guards block the cmov lowering.)
        pos += 16 * usize::from(b[15] < v);
        pos += 8 * usize::from(b[pos + 7] < v);
        pos += 4 * usize::from(b[pos + 3] < v);
        pos += 2 * usize::from(b[pos + 1] < v);
        pos += usize::from(b[pos] < v);
        pos
    }

    /// [`bin_index`](Self::bin_index) for tables with at most 15
    /// separators (k ≤ 16): the same cmov ladder minus the step-16 rung,
    /// one dependent load shorter. Callers dispatch on [`len`](Self::len)
    /// *once per batch* — selecting the ladder inside the per-value loop
    /// is exactly the guard that was measured 4× slower.
    ///
    /// # Panics
    /// Debug-asserts `len ≤ 15`; with more separators the missing rung
    /// would undercount.
    #[inline]
    pub fn bin_index_narrow(&self, v: f64) -> usize {
        debug_assert!(self.len <= 15, "narrow ladder needs len <= 15, got {}", self.len);
        let b = &self.boundaries;
        let mut pos = 0usize;
        pos += 8 * usize::from(b[7] < v);
        pos += 4 * usize::from(b[pos + 3] < v);
        pos += 2 * usize::from(b[pos + 1] < v);
        pos += usize::from(b[pos] < v);
        pos
    }

    /// Columnar variant of [`bin_index`](Self::bin_index): bins up to
    /// [`ENCODE_CHUNK`] values at once, writing each value's boundary count
    /// into the matching `counts` slot (slots past `values.len()` are left
    /// untouched).
    ///
    /// The loop nest is deliberately inverted from the scalar scan — the
    /// boundary loop *outside*, the value loop *inside* — so the compiler
    /// vectorizes along the long axis: one broadcast boundary compared
    /// against whole lanes of values, `k−1` strided passes over a
    /// cache-resident chunk. A k=4 table costs 3 vectorized passes instead
    /// of a 31-slot scalar scan per value, which is what makes the batch
    /// path win at *every* alphabet size, not just large ones.
    /// The counts are `u64` on purpose: an `f64` lane compare produces a
    /// 64-bit mask, so a same-width accumulator lets the vectorizer subtract
    /// the mask directly instead of packing lanes down to a narrower type.
    #[inline]
    pub fn bin_indices(&self, values: &[f64], counts: &mut [u64; ENCODE_CHUNK]) {
        let m = values.len().min(ENCODE_CHUNK);
        let (values, counts) = (&values[..m], &mut counts[..m]);
        counts.fill(0);
        for &b in &self.boundaries[..self.len] {
            for (c, &v) in counts.iter_mut().zip(values) {
                *c += (b < v) as u64;
            }
        }
    }
}

/// Chunk width of [`FlatSeparators::bin_indices`]: 64 values (512 bytes)
/// stay register/L1-resident across the per-boundary passes while giving
/// the vectorizer long enough runs to amortize loop overhead.
pub const ENCODE_CHUNK: usize = 64;

/// Uniform separators: `β_i = i * max / k` for `i = 1..k` (paper §2.2a:
/// "divide uniformly the range from zero to max in k subranges").
pub fn uniform_separators(max: f64, k: usize) -> Result<Vec<f64>> {
    validate_k(k)?;
    if !max.is_finite() || max <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "max",
            reason: format!("must be positive and finite, got {max}"),
        });
    }
    Ok((1..k).map(|i| i as f64 * max / k as f64).collect())
}

/// Median separators: `β_i` = the `i/k`-quantile of `values`
/// (the boundary value between consecutive k-quantile subsets, §2.2b).
pub fn median_separators(values: &[f64], k: usize) -> Result<Vec<f64>> {
    validate_k(k)?;
    if values.is_empty() {
        return Err(Error::EmptyInput("median_separators"));
    }
    let mut ms = OrderedMultiset::new();
    for &v in values {
        ms.insert(v)?;
    }
    Ok(strictly_increasing(
        (1..k).map(|i| ms.quantile(i as f64 / k as f64).expect("non-empty")).collect(),
    ))
}

/// Distinct-median separators: k-quantiles of the distinct-value set (§2.2c).
pub fn distinct_median_separators(values: &[f64], k: usize) -> Result<Vec<f64>> {
    validate_k(k)?;
    if values.is_empty() {
        return Err(Error::EmptyInput("distinct_median_separators"));
    }
    let mut ms = OrderedMultiset::new();
    for &v in values {
        ms.insert(v)?;
    }
    Ok(strictly_increasing(
        (1..k).map(|i| ms.distinct_quantile(i as f64 / k as f64).expect("non-empty")).collect(),
    ))
}

/// Learns separators with the chosen `method` from a batch of historical
/// values (the paper uses the first two days of each house's data, §3).
pub fn learn_separators(method: SeparatorMethod, values: &[f64], k: usize) -> Result<Vec<f64>> {
    match method {
        SeparatorMethod::Uniform => {
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if values.is_empty() {
                return Err(Error::EmptyInput("learn_separators"));
            }
            uniform_separators(max.max(f64::MIN_POSITIVE), k)
        }
        SeparatorMethod::Median => median_separators(values, k),
        SeparatorMethod::DistinctMedian => distinct_median_separators(values, k),
    }
}

/// A training batch sorted **once**, answering the same quantile queries as
/// [`OrderedMultiset`] for every alphabet size. The paper's experiments
/// learn a table per `(house, method, k)` cell over the same two training
/// days; going through the multiset re-inserted (re-sorted) those days once
/// per cell. Build one `SortedSample` per house and reuse it across the
/// whole `k` grid.
#[derive(Debug, Clone)]
pub struct SortedSample {
    /// Values in their original (time) order — bin statistics sum in this
    /// order, keeping cached tables bit-identical to the uncached path.
    original: Vec<f64>,
    /// Values sorted ascending (total order).
    sorted: Vec<f64>,
    /// Distinct sorted values (bitwise dedup, matching the multiset's
    /// `FiniteF64` keys — `-0.0` and `+0.0` stay distinct).
    distinct: Vec<f64>,
}

impl SortedSample {
    /// Sorts a non-empty batch of finite values.
    pub fn new(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::EmptyInput("SortedSample::new"));
        }
        for &v in values {
            if !v.is_finite() {
                return Err(Error::InvalidParameter {
                    name: "value",
                    reason: format!("must be finite, got {v}"),
                });
            }
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut distinct = Vec::new();
        for &v in &sorted {
            if distinct.last().map(|d: &f64| d.to_bits() != v.to_bits()).unwrap_or(true) {
                distinct.push(v);
            }
        }
        Ok(SortedSample { original: values.to_vec(), sorted, distinct })
    }

    /// Number of values (with multiplicity).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false — construction rejects empty batches.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The values in their original order.
    pub fn values(&self) -> &[f64] {
        &self.original
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Type-1 `q`-quantile over all values, identical to
    /// [`OrderedMultiset::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let target = ((q * n as f64).ceil() as usize).max(1);
        self.sorted[(target - 1).min(n - 1)]
    }

    /// `q`-quantile over the distinct-value set, identical to
    /// [`OrderedMultiset::distinct_quantile`].
    pub fn distinct_quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.distinct.len();
        let idx = ((q * n as f64).ceil() as usize).max(1) - 1;
        self.distinct[idx.min(n - 1)]
    }
}

/// [`learn_separators`] from a pre-sorted sample — same output, but the
/// `O(n log n)` work is paid once per sample instead of once per `(method, k)`.
pub fn learn_separators_from_sample(
    method: SeparatorMethod,
    sample: &SortedSample,
    k: usize,
) -> Result<Vec<f64>> {
    validate_k(k)?;
    match method {
        SeparatorMethod::Uniform => uniform_separators(sample.max().max(f64::MIN_POSITIVE), k),
        SeparatorMethod::Median => {
            Ok(strictly_increasing((1..k).map(|i| sample.quantile(i as f64 / k as f64)).collect()))
        }
        SeparatorMethod::DistinctMedian => Ok(strictly_increasing(
            (1..k).map(|i| sample.distinct_quantile(i as f64 / k as f64)).collect(),
        )),
    }
}

/// Streaming separator learner for the sensor side: feeds values one at a
/// time, then produces separators. `Exact` keeps an order-statistics multiset
/// (exact quantiles, memory ∝ distinct values); `Approximate` keeps one
/// [`QuantileSketch`] (memory logarithmic in the stream length, with a
/// tracked rank-error bound) and supports only [`SeparatorMethod::Median`]
/// and [`SeparatorMethod::Uniform`].
#[derive(Debug, Clone)]
pub struct StreamingLearner(LearnerImpl);

#[derive(Debug, Clone)]
enum LearnerImpl {
    Exact { method: SeparatorMethod, k: usize, multiset: OrderedMultiset },
    Approximate { method: SeparatorMethod, k: usize, sketch: QuantileSketch },
}

impl StreamingLearner {
    /// Exact learner for any method.
    pub fn exact(method: SeparatorMethod, k: usize) -> Result<Self> {
        validate_k(k)?;
        Ok(StreamingLearner(LearnerImpl::Exact { method, k, multiset: OrderedMultiset::new() }))
    }

    /// Approximate sketch-backed learner (Median or Uniform only —
    /// distinct-value quantiles have no sketch here).
    pub fn approximate(method: SeparatorMethod, k: usize) -> Result<Self> {
        validate_k(k)?;
        if method == SeparatorMethod::DistinctMedian {
            return Err(Error::InvalidParameter {
                name: "method",
                reason: "distinctmedian is not supported by the approximate learner".to_string(),
            });
        }
        Ok(StreamingLearner(LearnerImpl::Approximate {
            method,
            k,
            sketch: QuantileSketch::with_default_capacity(),
        }))
    }

    /// Feeds one observation.
    pub fn push(&mut self, v: f64) -> Result<()> {
        match &mut self.0 {
            LearnerImpl::Exact { multiset, .. } => multiset.insert(v),
            LearnerImpl::Approximate { sketch, .. } => {
                // The sketch orders ±∞; separators need finite values.
                if !v.is_finite() {
                    return Err(Error::InvalidParameter {
                        name: "value",
                        reason: format!("must be finite, got {v}"),
                    });
                }
                sketch.update(v)
            }
        }
    }

    /// Number of observations consumed.
    pub fn count(&self) -> u64 {
        match &self.0 {
            LearnerImpl::Exact { multiset, .. } => multiset.len(),
            LearnerImpl::Approximate { sketch, .. } => sketch.count(),
        }
    }

    /// The learner's configured method.
    pub fn method(&self) -> SeparatorMethod {
        match &self.0 {
            LearnerImpl::Exact { method, .. } => *method,
            LearnerImpl::Approximate { method, .. } => *method,
        }
    }

    /// Produces the separators from everything seen so far.
    pub fn separators(&self) -> Result<Vec<f64>> {
        match &self.0 {
            LearnerImpl::Exact { method, k, multiset } => {
                if multiset.is_empty() {
                    return Err(Error::EmptyInput("StreamingLearner::separators"));
                }
                match method {
                    SeparatorMethod::Uniform => uniform_separators(
                        multiset.iter().last().map(|(v, _)| v).unwrap().max(f64::MIN_POSITIVE),
                        *k,
                    ),
                    SeparatorMethod::Median => Ok(strictly_increasing(
                        (1..*k)
                            .map(|i| multiset.quantile(i as f64 / *k as f64).expect("non-empty"))
                            .collect(),
                    )),
                    SeparatorMethod::DistinctMedian => Ok(strictly_increasing(
                        (1..*k)
                            .map(|i| {
                                multiset.distinct_quantile(i as f64 / *k as f64).expect("non-empty")
                            })
                            .collect(),
                    )),
                }
            }
            LearnerImpl::Approximate { method, k, sketch } => {
                if sketch.is_empty() {
                    return Err(Error::EmptyInput("StreamingLearner::separators"));
                }
                let view = sketch.sorted_view();
                let quantile = |q: f64| view.quantile(q).expect("non-empty");
                match method {
                    SeparatorMethod::Uniform => {
                        uniform_separators(quantile(1.0).max(f64::MIN_POSITIVE), *k)
                    }
                    _ => Ok(strictly_increasing(
                        (1..*k).map(|i| quantile(i as f64 / *k as f64)).collect(),
                    )),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_splits_zero_to_max() {
        let s = uniform_separators(800.0, 8).unwrap();
        assert_eq!(s, vec![100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]);
        assert!(uniform_separators(0.0, 8).is_err());
        assert!(uniform_separators(800.0, 3).is_err());
        assert!(uniform_separators(f64::INFINITY, 4).is_err());
    }

    #[test]
    fn median_separators_are_quantile_boundaries() {
        // 1..=8, k=4 ⇒ boundaries at the 2nd, 4th, 6th values.
        let v: Vec<f64> = (1..=8).map(|x| x as f64).collect();
        let s = median_separators(&v, 4).unwrap();
        assert_eq!(s, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn median_biased_by_repeats_distinct_is_not() {
        let mut v = vec![0.0; 96];
        v.extend([100.0, 200.0, 300.0, 400.0].iter());
        let med = median_separators(&v, 4).unwrap();
        // Plain median collapses onto the repeated value (the §2.2c bias
        // motivating distinctmedian); collapsed boundaries are nudged to the
        // next representable doubles so they stay strictly increasing.
        assert_eq!(med[0], 0.0);
        assert!(med[2] <= f64::MIN_POSITIVE, "still collapsed near the repeat: {med:?}");
        assert!(med[0] < med[1] && med[1] < med[2], "no duplicates: {med:?}");
        let dm = distinct_median_separators(&v, 4).unwrap();
        // Distinct values {0,100,200,300,400}: boundary i sits at the
        // ceil(5·i/4)-th distinct value ⇒ the 2nd, 3rd and 4th.
        assert_eq!(dm, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn quantile_methods_never_emit_duplicate_or_decreasing_separators() {
        // Regression: heavy repeats and constant inputs used to yield
        // duplicate separators, i.e. several bins claiming the same range.
        let inputs: Vec<Vec<f64>> = vec![
            vec![7.5; 50], // constant
            {
                let mut v = vec![0.0; 96];
                v.extend([100.0, 200.0, 300.0, 400.0]);
                v
            },
            vec![-3.0; 10].into_iter().chain((0..10).map(f64::from)).collect(),
            vec![1.0, 1.0, 2.0, 2.0], // < k distinct values
        ];
        for v in &inputs {
            for method in [SeparatorMethod::Median, SeparatorMethod::DistinctMedian] {
                let s = learn_separators(method, v, 8).unwrap();
                for w in s.windows(2) {
                    assert!(w[0] < w[1], "{method} on {v:?}: duplicate/decreasing {s:?}");
                }
                // Streaming exact learner upholds the same invariant.
                let mut sl = StreamingLearner::exact(method, 8).unwrap();
                for &x in v {
                    sl.push(x).unwrap();
                }
                let s = sl.separators().unwrap();
                for w in s.windows(2) {
                    assert!(w[0] < w[1], "streaming {method} on {v:?}: {s:?}");
                }
            }
        }
        // Approximate learner too (median only).
        let mut sl = StreamingLearner::approximate(SeparatorMethod::Median, 8).unwrap();
        for _ in 0..100 {
            sl.push(42.0).unwrap();
        }
        let s = sl.separators().unwrap();
        for w in s.windows(2) {
            assert!(w[0] < w[1], "approximate on constants: {s:?}");
        }
    }

    #[test]
    fn separators_never_decrease() {
        let v = vec![5.0, 1.0, 3.0, 3.0, 3.0, 9.0, 2.0, 8.0, 7.0, 3.0];
        for method in SeparatorMethod::ALL {
            let s = learn_separators(method, &v, 8).unwrap();
            assert_eq!(s.len(), 7);
            for w in s.windows(2) {
                assert!(w[0] <= w[1], "{method}: {s:?}");
            }
        }
    }

    #[test]
    fn sorted_sample_matches_multiset_learning() {
        // Heavy repeats, unsorted input, < k distinct values — all the
        // cases where the quantile conventions could diverge.
        let inputs: Vec<Vec<f64>> = vec![
            vec![5.0, 1.0, 3.0, 3.0, 3.0, 9.0, 2.0, 8.0, 7.0, 3.0],
            {
                let mut v = vec![0.0; 96];
                v.extend([100.0, 200.0, 300.0, 400.0]);
                v
            },
            vec![7.5; 50],
            (0..1000).map(|i| ((i * 37) % 101) as f64).collect(),
        ];
        for v in &inputs {
            let sample = SortedSample::new(v).unwrap();
            assert_eq!(sample.len(), v.len());
            assert_eq!(sample.values(), &v[..]);
            for method in SeparatorMethod::ALL {
                for k in [2, 4, 8, 16] {
                    assert_eq!(
                        learn_separators_from_sample(method, &sample, k).unwrap(),
                        learn_separators(method, v, k).unwrap(),
                        "{method} k={k} on {v:?}"
                    );
                }
            }
        }
        assert!(SortedSample::new(&[]).is_err());
        assert!(SortedSample::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn learn_separators_rejects_empty() {
        for method in SeparatorMethod::ALL {
            assert!(learn_separators(method, &[], 4).is_err());
        }
    }

    #[test]
    fn streaming_exact_matches_batch() {
        let v: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        for method in SeparatorMethod::ALL {
            let batch = learn_separators(method, &v, 16).unwrap();
            let mut sl = StreamingLearner::exact(method, 16).unwrap();
            for &x in &v {
                sl.push(x).unwrap();
            }
            assert_eq!(sl.separators().unwrap(), batch, "{method}");
            assert_eq!(sl.count(), 1000);
        }
    }

    #[test]
    fn streaming_approximate_close_to_exact() {
        let v: Vec<f64> = (0..20_000).map(|i| ((i * 9973) % 4096) as f64).collect();
        let exact = median_separators(&v, 8).unwrap();
        let mut sl = StreamingLearner::approximate(SeparatorMethod::Median, 8).unwrap();
        for &x in &v {
            sl.push(x).unwrap();
        }
        let approx = sl.separators().unwrap();
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 150.0, "approx {a} vs exact {e}");
        }
        for w in approx.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn approximate_rejects_distinctmedian() {
        assert!(StreamingLearner::approximate(SeparatorMethod::DistinctMedian, 8).is_err());
    }

    #[test]
    fn flat_separators_match_partition_point_exactly() {
        // Every tricky input class: ties on boundaries, just above/below,
        // ±∞, NaN, subnormals, ±0.0 — the flat scan must agree bit-for-bit
        // with the binary search at every width up to the 32-slot cap.
        for n in [1usize, 3, 7, 15, 31, 32] {
            let seps: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
            let flat = FlatSeparators::new(&seps).expect("fits in 32 slots");
            assert_eq!(flat.len(), n);
            assert!(!flat.is_empty());
            let mut probes: Vec<f64> = vec![
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::NAN,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE / 2.0, // subnormal
                -0.0,
                0.0,
                -1e300,
                1e300,
            ];
            for &b in &seps {
                probes.extend([b, b.next_up(), b.next_down()]);
            }
            for &v in &probes {
                assert_eq!(flat.bin_index(v), seps.partition_point(|&b| b < v), "n={n} v={v}");
                if n <= 15 {
                    assert_eq!(
                        flat.bin_index_narrow(v),
                        seps.partition_point(|&b| b < v),
                        "n={n} narrow v={v}"
                    );
                }
            }
            // The columnar kernel agrees too, at every chunk fill level
            // (full, partial, and the singleton tail).
            let mut counts = [0u64; ENCODE_CHUNK];
            for chunk in probes.chunks(ENCODE_CHUNK) {
                flat.bin_indices(chunk, &mut counts);
                for (i, &v) in chunk.iter().enumerate() {
                    assert_eq!(
                        counts[i] as usize,
                        seps.partition_point(|&b| b < v),
                        "n={n} chunked v={v}"
                    );
                }
            }
            flat.bin_indices(&probes[..1], &mut counts);
            assert_eq!(counts[0] as usize, seps.partition_point(|&b| b < probes[0]));
        }
        // Above the cap the flat form is refused (binary search stays).
        assert!(FlatSeparators::new(&vec![0.0; 33]).is_none());
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(SeparatorMethod::Uniform.name(), "uniform");
        assert_eq!(SeparatorMethod::Median.name(), "median");
        assert_eq!(SeparatorMethod::DistinctMedian.name(), "distinctmedian");
    }
}
