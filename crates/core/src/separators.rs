//! Separator learning (paper §2.2): the three strategies that place the
//! `k - 1` range boundaries `β_1 ≤ … ≤ β_{k-1}` of a lookup table.
//!
//! * **uniform** — equal-width bins over `[0, max]`;
//! * **median** — k-quantiles of the empirical distribution (maximizes the
//!   entropy of the generated symbols; generalizes SAX's Gaussian
//!   breakpoints to arbitrary distributions);
//! * **distinctmedian** — k-quantiles over the *set* of distinct values
//!   (avoids bias toward heavily repeated values such as standby power).
//!
//! Exact tables have one learner. [`learn_separators`] reads `uniform`'s
//! maximum in one pass; for the two quantile methods it sorts one copy of
//! the training values and reads every boundary off that sort.
//! [`SortedSample`] keeps such a sort so that a grid of `(method, k)` cells
//! pays for it once, and [`learn_separators_from_sample`] answers from it
//! with the same code. Boundaries that collapse onto a repeated value are
//! nudged one ULP apart by the crate's one nudge, which the approximate
//! tables of
//! [`LookupTable::learn_from_sketch`](crate::lookup::LookupTable::learn_from_sketch)
//! share. A sensor that learns while it streams buffers its training
//! values and learns from them when training ends
//! ([`SensorPipeline`](crate::encoder::SensorPipeline)).

use crate::error::{Error, Result};
use crate::stats::FiniteF64;

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
pub(crate) fn strictly_increasing(mut seps: Vec<f64>) -> Vec<f64> {
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

/// Learns separators with the chosen `method` from a batch of historical
/// values (the paper uses the first two days of each house's data, §3).
///
/// `Uniform` needs only the maximum, which it reads in one pass. `Median`
/// and `DistinctMedian` check `k`, then sort one copy of `values` and read
/// their quantiles off it with the code [`SortedSample`] uses.
pub fn learn_separators(method: SeparatorMethod, values: &[f64], k: usize) -> Result<Vec<f64>> {
    if method == SeparatorMethod::Uniform {
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if values.is_empty() {
            return Err(Error::EmptyInput("learn_separators"));
        }
        return uniform_separators(max.max(f64::MIN_POSITIVE), k);
    }
    validate_k(k)?;
    let mut sorted = sort_finite(values, "learn_separators")?;
    if method == SeparatorMethod::DistinctMedian {
        dedup_bitwise(&mut sorted);
    }
    Ok(quantile_separators(&sorted, k))
}

/// A copy of `values` sorted ascending, after the checks the exact
/// learners make: the batch is non-empty (else [`Error::EmptyInput`] with
/// `label`) and every value is finite ([`FiniteF64::new`]'s error).
fn sort_finite(values: &[f64], label: &'static str) -> Result<Vec<f64>> {
    if values.is_empty() {
        return Err(Error::EmptyInput(label));
    }
    for &v in values {
        FiniteF64::new(v)?;
    }
    let mut sorted = values.to_vec();
    // Values equal under the total order are bitwise equal, so the
    // unstable sort yields the same sequence as a stable one.
    sorted.sort_unstable_by(f64::total_cmp);
    Ok(sorted)
}

/// Keeps one of each run of bitwise-equal values: the distinct-value set
/// of §2.2c (`-0.0` and `+0.0` stay distinct, as in
/// [`OrderedMultiset`](crate::stats::OrderedMultiset)).
fn dedup_bitwise(sorted: &mut Vec<f64>) {
    sorted.dedup_by_key(|v| v.to_bits());
}

/// The k-quantile separators of `sorted` (ascending, non-empty): `β_i` is
/// the type-1 `i/k`-quantile, the value at rank `⌈i·n/k⌉`, as
/// [`OrderedMultiset::quantile`](crate::stats::OrderedMultiset::quantile)
/// answers it, with collapsed boundaries nudged apart.
fn quantile_separators(sorted: &[f64], k: usize) -> Vec<f64> {
    let n = sorted.len();
    strictly_increasing(
        (1..k)
            .map(|i| {
                let rank = ((i as f64 / k as f64 * n as f64).ceil() as usize).max(1);
                sorted[rank.min(n) - 1]
            })
            .collect(),
    )
}

/// A training batch sorted **once**, answering [`learn_separators`] for
/// every `(method, k)` cell. The paper's experiments learn a table per
/// `(house, method, k)` cell over the same two training days; build one
/// `SortedSample` per house and reuse it across the whole grid.
#[derive(Debug, Clone)]
pub struct SortedSample {
    /// Values in their original (time) order — bin statistics sum in this
    /// order, keeping cached tables bit-identical to the uncached path.
    original: Vec<f64>,
    /// Values sorted ascending (total order).
    sorted: Vec<f64>,
    /// The distinct sorted values.
    distinct: Vec<f64>,
}

impl SortedSample {
    /// Sorts a non-empty batch of finite values.
    pub fn new(values: &[f64]) -> Result<Self> {
        let sorted = sort_finite(values, "SortedSample::new")?;
        let mut distinct = sorted.clone();
        dedup_bitwise(&mut distinct);
        Ok(SortedSample { original: values.to_vec(), sorted, distinct })
    }

    /// The values in their original order.
    pub fn values(&self) -> &[f64] {
        &self.original
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
        SeparatorMethod::Uniform => {
            let max = sample.sorted[sample.sorted.len() - 1];
            uniform_separators(max.max(f64::MIN_POSITIVE), k)
        }
        SeparatorMethod::Median => Ok(quantile_separators(&sample.sorted, k)),
        SeparatorMethod::DistinctMedian => Ok(quantile_separators(&sample.distinct, k)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OrderedMultiset;

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
        let s = learn_separators(SeparatorMethod::Median, &v, 4).unwrap();
        assert_eq!(s, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn median_biased_by_repeats_distinct_is_not() {
        let mut v = vec![0.0; 96];
        v.extend([100.0, 200.0, 300.0, 400.0].iter());
        let med = learn_separators(SeparatorMethod::Median, &v, 4).unwrap();
        // Plain median collapses onto the repeated value (the §2.2c bias
        // motivating distinctmedian); collapsed boundaries are nudged to the
        // next representable doubles so they stay strictly increasing.
        assert_eq!(med[0], 0.0);
        assert!(med[2] <= f64::MIN_POSITIVE, "still collapsed near the repeat: {med:?}");
        assert!(med[0] < med[1] && med[1] < med[2], "no duplicates: {med:?}");
        let dm = learn_separators(SeparatorMethod::DistinctMedian, &v, 4).unwrap();
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
            }
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
        // The reference: every value streamed into the order-statistics
        // multiset, each boundary read off it and nudged apart. Heavy
        // repeats, unsorted input, signed zeros and fewer distinct values
        // than k are the cases where the quantile conventions could
        // diverge.
        let inputs: Vec<Vec<f64>> = vec![
            vec![5.0, 1.0, 3.0, 3.0, 3.0, 9.0, 2.0, 8.0, 7.0, 3.0],
            {
                let mut v = vec![0.0; 96];
                v.extend([100.0, 200.0, 300.0, 400.0]);
                v
            },
            vec![7.5; 50],
            vec![-0.0, 0.0, 0.0, -0.0, 1.0, 1.0, 1.0, 2.0],
            (0..1000).map(|i| ((i * 37) % 101) as f64).collect(),
            (0..192).map(|i| ((i * 7919) % 613 / 50 * 50) as f64).collect(),
        ];
        for v in &inputs {
            let mut ms = OrderedMultiset::new();
            for &x in v {
                ms.insert(x).unwrap();
            }
            let sample = SortedSample::new(v).unwrap();
            assert_eq!(sample.values(), &v[..]);
            for method in SeparatorMethod::ALL {
                for k in [2, 4, 8, 16, 32] {
                    let q = |i: usize| i as f64 / k as f64;
                    let want = match method {
                        SeparatorMethod::Uniform => {
                            let max = ms.iter().last().unwrap().0;
                            uniform_separators(max.max(f64::MIN_POSITIVE), k).unwrap()
                        }
                        SeparatorMethod::Median => strictly_increasing(
                            (1..k).map(|i| ms.quantile(q(i)).unwrap()).collect(),
                        ),
                        SeparatorMethod::DistinctMedian => strictly_increasing(
                            (1..k).map(|i| ms.distinct_quantile(q(i)).unwrap()).collect(),
                        ),
                    };
                    let got = learn_separators(method, v, k).unwrap();
                    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{method} k={k} on {v:?}");
                    let cached = learn_separators_from_sample(method, &sample, k).unwrap();
                    assert_eq!(bits(&cached), bits(&want), "{method} k={k} cached");
                }
            }
        }
        assert!(SortedSample::new(&[]).is_err());
        assert!(SortedSample::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn learn_separators_checks_k_then_the_input() {
        for method in SeparatorMethod::ALL {
            assert!(learn_separators(method, &[], 4).is_err());
        }
        for method in [SeparatorMethod::Median, SeparatorMethod::DistinctMedian] {
            assert!(matches!(learn_separators(method, &[], 3), Err(Error::InvalidAlphabetSize(3))));
            assert!(matches!(
                learn_separators(method, &[], 4),
                Err(Error::EmptyInput("learn_separators"))
            ));
            assert!(matches!(
                learn_separators(method, &[1.0, f64::INFINITY], 4),
                Err(Error::InvalidParameter { name: "value", .. })
            ));
        }
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
