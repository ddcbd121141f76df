//! Streaming and batch statistics used by separator learning and by the
//! paper's exploratory figures (Fig. 2 distribution histogram, Fig. 4
//! accumulative mean/median/distinct-median convergence).

use crate::error::{Error, Result};
use std::collections::BTreeMap;

/// Totally ordered wrapper for finite `f64` values, so they can key a
/// `BTreeMap`. NaN is rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FiniteF64(u64);

impl FiniteF64 {
    /// Wraps a finite float. Returns an error on NaN/infinite input.
    pub fn new(v: f64) -> Result<Self> {
        if !v.is_finite() {
            return Err(Error::InvalidParameter {
                name: "value",
                reason: format!("must be finite, got {v}"),
            });
        }
        // Order-preserving bijection from finite f64 to u64:
        // flip all bits for negatives, flip just the sign bit for positives.
        let bits = v.to_bits();
        let key = if bits >> 63 == 1 { !bits } else { bits ^ (1 << 63) };
        Ok(FiniteF64(key))
    }

    /// Recovers the float value.
    pub fn get(self) -> f64 {
        let key = self.0;
        let bits = if key >> 63 == 1 { key ^ (1 << 63) } else { !key };
        f64::from_bits(bits)
    }
}

/// Welford running mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningMoments { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Folds in one observation.
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance (`None` when empty).
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Sample variance with Bessel correction (`None` for n < 2).
    pub fn sample_variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observed value.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observed value.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Exact quantiles over a materialized sample (sorts once, then answers any
/// number of queries). Quantiles use the "type 7" linear-interpolation rule,
/// matching NumPy's default and close enough to Weka's for the paper's
/// purposes.
#[derive(Debug, Clone)]
pub struct ExactQuantiles {
    sorted: Vec<f64>,
}

impl ExactQuantiles {
    /// Builds from any sample; copies and sorts.
    pub fn new(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::EmptyInput("ExactQuantiles"));
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
        Ok(ExactQuantiles { sorted })
    }

    /// The sorted sample.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// `q`-quantile for `q` in `[0, 1]` with linear interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Order-statistics multiset over finite floats: supports streaming insert
/// and exact median / distinct-median queries at any time. Backs the Fig. 4
/// accumulative-statistics experiment, and is the reference the separator
/// learner's tests check its one-sort quantiles against.
#[derive(Debug, Clone, Default)]
pub struct OrderedMultiset {
    counts: BTreeMap<FiniteF64, u64>,
    total: u64,
}

impl OrderedMultiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one value. Errors on non-finite input.
    pub fn insert(&mut self, v: f64) -> Result<()> {
        *self.counts.entry(FiniteF64::new(v)?).or_insert(0) += 1;
        self.total += 1;
        Ok(())
    }

    /// Total number of inserted values (with multiplicity).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no values have been inserted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of *distinct* values.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// `q`-quantile over all values (with multiplicity), lower-value
    /// convention (type-1: the smallest value whose cumulative count reaches
    /// `ceil(q * n)`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (k, &c) in &self.counts {
            cum += c;
            if cum >= target {
                return Some(k.get());
            }
        }
        self.counts.keys().next_back().map(|k| k.get())
    }

    /// Median over all values.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// `q`-quantile over the *set of distinct values* (paper's
    /// "median of distinct values", §2.2(c)).
    pub fn distinct_quantile(&self, q: f64) -> Option<f64> {
        if self.counts.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.counts.len();
        let idx = ((q * n as f64).ceil() as usize).max(1) - 1;
        self.counts.keys().nth(idx.min(n - 1)).map(|k| k.get())
    }

    /// Median of distinct values.
    pub fn distinct_median(&self) -> Option<f64> {
        self.distinct_quantile(0.5)
    }

    /// Iterator over `(value, multiplicity)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().map(|(k, &c)| (k.get(), c))
    }
}

/// Deterministic bounded-memory streaming quantile sketch (KLL/MRL-style).
///
/// Items live in levels; an item at level `l` represents `2^l` stream values.
/// When a level fills, it is sorted and every other item survives at doubled
/// weight (one compaction). The surviving parity comes from a [splitmix64]
/// counter — no wall clock, no OS RNG — so the same stream always produces
/// the same sketch, which is what lets the fleet engine keep its byte-identity
/// witness across shard/worker topologies.
///
/// Each compaction at level `l` perturbs any rank by at most `2^l`; the sketch
/// tracks the running sum in [`rank_error_bound`](Self::rank_error_bound), so
/// callers get a *provable* per-instance bound rather than a probabilistic
/// one. Memory is `O(k · log(n/k))` for `n` stream values.
///
/// NaN is rejected at [`update`](Self::update) (the PR 6 policy: ±∞ is data,
/// NaN is an error); ±∞ order correctly via total ordering.
///
/// [splitmix64]: crate::shard::splitmix64
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Per-level buffer capacity.
    k: usize,
    /// `levels[l]` holds items of weight `2^l`. Only kept sorted right after
    /// compaction; queries sort on demand.
    levels: Vec<Vec<f64>>,
    count: u64,
    err_bound: u64,
    /// splitmix64 state advanced once per compaction (parity source).
    rng: u64,
}

/// Default per-level capacity: ±0.5% rank error per compaction level at
/// a few KiB per sketch.
pub const SKETCH_DEFAULT_K: usize = 128;

impl QuantileSketch {
    /// Creates an empty sketch with per-level capacity `k` (must be ≥ 2).
    pub fn new(k: usize) -> Result<Self> {
        if k < 2 {
            return Err(Error::InvalidParameter {
                name: "k",
                reason: format!("sketch level capacity must be at least 2, got {k}"),
            });
        }
        Ok(QuantileSketch {
            k,
            levels: vec![Vec::new()],
            count: 0,
            err_bound: 0,
            // Fixed seed: mixes k so differently-sized sketches decorrelate,
            // but stays a pure function of the constructor arguments.
            rng: crate::shard::splitmix64(0x5157_4b45_5443_4821 ^ k as u64),
        })
    }

    /// Creates a sketch with [`SKETCH_DEFAULT_K`].
    pub fn with_default_capacity() -> Self {
        QuantileSketch::new(SKETCH_DEFAULT_K).expect("default capacity is valid")
    }

    /// Feeds one value. NaN is rejected (`Error::NonFiniteValue`); ±∞ is
    /// accepted and ordered at the extremes.
    pub fn update(&mut self, v: f64) -> Result<()> {
        if v.is_nan() {
            return Err(Error::NonFiniteValue { index: self.count as usize });
        }
        self.count += 1;
        self.levels[0].push(v);
        self.compact_cascade();
        Ok(())
    }

    /// Merges another sketch into this one (counts and error bounds add).
    /// Deterministic: the result depends only on the two operands and the
    /// merge order, never on wall clock or OS randomness.
    pub fn merge(&mut self, other: &QuantileSketch) {
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
        }
        for (l, items) in other.levels.iter().enumerate() {
            self.levels[l].extend_from_slice(items);
        }
        self.count += other.count;
        self.err_bound += other.err_bound;
        // Overfull levels compact immediately so memory stays bounded.
        for l in 0.. {
            if l >= self.levels.len() {
                break;
            }
            while self.levels[l].len() >= self.level_capacity(l) {
                self.compact_level(l);
            }
        }
    }

    fn compact_cascade(&mut self) {
        let mut l = 0;
        while l < self.levels.len() {
            if self.levels[l].len() < self.level_capacity(l) {
                break;
            }
            self.compact_level(l);
            l += 1;
        }
    }

    fn level_capacity(&self, _l: usize) -> usize {
        self.k
    }

    /// Sorts level `l`, keeps every other item at doubled weight (parity from
    /// the deterministic counter), and charges `2^l` to the error bound.
    fn compact_level(&mut self, l: usize) {
        if self.levels.len() == l + 1 {
            self.levels.push(Vec::new());
        }
        let mut items = std::mem::take(&mut self.levels[l]);
        items.sort_by(|a, b| a.total_cmp(b));
        // An odd item count would drop half a weight; leave the last (largest)
        // item behind at this level so weights always balance exactly.
        if items.len() % 2 == 1 {
            self.levels[l].push(items.pop().expect("non-empty after parity check"));
        }
        if items.is_empty() {
            return;
        }
        self.rng = crate::shard::splitmix64(self.rng);
        let offset = (self.rng & 1) as usize;
        for (i, v) in items.into_iter().enumerate() {
            if i % 2 == offset {
                self.levels[l + 1].push(v);
            }
        }
        self.err_bound += 1u64 << l;
    }

    /// Number of stream values folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no values have been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Provable absolute rank-error bound for this instance: for any `v`,
    /// `|rank(v) - true_rank(v)| <= rank_error_bound()`, where `true_rank`
    /// counts stream values `<= v`.
    pub fn rank_error_bound(&self) -> u64 {
        self.err_bound
    }

    /// The retained items as `(value, weight)` pairs, level by level and
    /// unsorted; the weights sum to [`count`](Self::count).
    pub fn retained(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.levels
            .iter()
            .enumerate()
            .flat_map(|(l, level)| level.iter().map(move |&v| (v, 1u64 << l)))
    }

    /// Approximate number of stream values `<= v` (weighted item count).
    pub fn rank(&self, v: f64) -> u64 {
        let mut r = 0u64;
        for (l, items) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            r += w * items.iter().filter(|x| x.total_cmp(&v).is_le()).count() as u64;
        }
        r
    }

    /// Approximate `q`-quantile for `q` in `[0, 1]` (`None` when empty):
    /// the smallest retained value whose cumulative weight reaches
    /// `ceil(q * count)`. Sorts the retained items on every call; callers
    /// with several queries should ask one [`sorted_view`](Self::sorted_view).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sorted_view().quantile(q)
    }

    /// The retained items sorted once, answering [`rank`](Self::rank) and
    /// [`quantile`](Self::quantile) by binary search with the same results.
    pub fn sorted_view(&self) -> SketchView {
        let mut items: Vec<(f64, u64)> = self.retained().collect();
        // Items that compare equal under `total_cmp` have identical bits, so
        // their order changes neither a rank nor the value a quantile returns.
        items.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut cum = 0u64;
        for item in &mut items {
            cum += item.1;
            item.1 = cum;
        }
        SketchView { items, count: self.count }
    }

    /// Bytes of heap + inline state currently held (the O(log n) budget the
    /// fleet engine accounts per house).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.levels.iter().map(|l| l.capacity() * std::mem::size_of::<f64>()).sum::<usize>()
            + self.levels.capacity() * std::mem::size_of::<Vec<f64>>()
    }
}

/// A [`QuantileSketch`]'s retained items sorted by `total_cmp`, each paired
/// with the running weight up to and including it (see
/// [`QuantileSketch::sorted_view`]). A snapshot: later updates to the sketch
/// do not show in it.
#[derive(Debug)]
pub struct SketchView {
    /// `(value, cumulative weight)` in `total_cmp` order of the values.
    items: Vec<(f64, u64)>,
    count: u64,
}

impl SketchView {
    /// Number of stream values the sketch had folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// [`QuantileSketch::rank`]: approximate number of stream values `<= v`.
    pub fn rank(&self, v: f64) -> u64 {
        match self.items.partition_point(|(x, _)| x.total_cmp(&v).is_le()) {
            0 => 0,
            i => self.items[i - 1].1,
        }
    }

    /// [`QuantileSketch::quantile`]: the smallest retained value whose
    /// cumulative weight reaches `ceil(q * count)` (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let i = self.items.partition_point(|&(_, cum)| cum < target);
        self.items.get(i).or(self.items.last()).map(|&(v, _)| v)
    }
}

/// Fixed-width histogram over `[0, max)`, as used for the Fig. 2 power-level
/// distribution plot (100 W bins from 0 to 2400 W in the paper).
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// `n_bins` equal bins of `bin_width` starting at zero.
    pub fn new(bin_width: f64, n_bins: usize) -> Result<Self> {
        if bin_width <= 0.0 || !bin_width.is_finite() {
            return Err(Error::InvalidParameter {
                name: "bin_width",
                reason: format!("must be positive and finite, got {bin_width}"),
            });
        }
        if n_bins == 0 {
            return Err(Error::InvalidParameter {
                name: "n_bins",
                reason: "must be at least 1".to_string(),
            });
        }
        Ok(Histogram { bin_width, bins: vec![0; n_bins], underflow: 0, overflow: 0 })
    }

    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        if v < 0.0 {
            self.underflow += 1;
            return;
        }
        let idx = (v / self.bin_width) as usize;
        match self.bins.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count of negative observations.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or beyond the last bin edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(lower_edge, count)` pairs.
    pub fn edges_and_counts(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bins.iter().enumerate().map(move |(i, &c)| (i as f64 * self.bin_width, c))
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// Maximum-likelihood log-normal fit: parameters of `ln X ~ N(mu, sigma^2)`
/// over the strictly positive observations. The paper observes (Fig. 2) that
/// smart-meter power levels follow a log-normal distribution; the Fig. 2
/// experiment fits and reports these parameters on the synthetic substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalFit {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Standard deviation of `ln X`.
    pub sigma: f64,
    /// Number of positive observations used.
    pub n: u64,
    /// Fraction of observations discarded as non-positive.
    pub discarded_fraction: f64,
}

impl LogNormalFit {
    /// Fits over the positive subset of `values`.
    pub fn fit(values: &[f64]) -> Result<Self> {
        let mut m = RunningMoments::new();
        let mut discarded = 0u64;
        for &v in values {
            if v > 0.0 {
                m.push(v.ln());
            } else {
                discarded += 1;
            }
        }
        let n = m.count();
        if n == 0 {
            return Err(Error::EmptyInput("LogNormalFit: no positive values"));
        }
        Ok(LogNormalFit {
            mu: m.mean().unwrap(),
            sigma: m.std_dev().unwrap(),
            n,
            discarded_fraction: discarded as f64 / (discarded + n) as f64,
        })
    }

    /// Density of the fitted log-normal at `x > 0`.
    pub fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 || self.sigma == 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Kolmogorov–Smirnov distance between the empirical CDF of `values`
    /// (positive subset) and the fitted log-normal CDF. A small statistic
    /// supports the paper's log-normality observation.
    pub fn ks_statistic(&self, values: &[f64]) -> Result<f64> {
        let mut pos: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
        if pos.is_empty() {
            return Err(Error::EmptyInput("ks_statistic"));
        }
        pos.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ks input"));
        let n = pos.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in pos.iter().enumerate() {
            let cdf = self.cdf(x);
            let lo = i as f64 / n;
            let hi = (i + 1) as f64 / n;
            d = d.max((cdf - lo).abs()).max((hi - cdf).abs());
        }
        Ok(d)
    }

    /// CDF of the fitted log-normal at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if self.sigma == 0.0 {
            return if x.ln() >= self.mu { 1.0 } else { 0.0 };
        }
        let z = (x.ln() - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

/// Error function via the Abramowitz–Stegun 7.1.26 rational approximation
/// (|error| < 1.5e-7, ample for distribution fitting and SAX breakpoints).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Inverse of the standard normal CDF (probit), via Acklam's rational
/// approximation (relative error < 1.15e-9). Used to build SAX's Gaussian
/// breakpoints for arbitrary alphabet sizes.
pub fn probit(p: f64) -> Result<f64> {
    if !(0.0 < p && p < 1.0) {
        return Err(Error::InvalidParameter {
            name: "p",
            reason: format!("must be strictly between 0 and 1, got {p}"),
        });
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_f64_order_matches_float_order() {
        let xs = [-1e9, -3.5, -0.0, 0.0, 1e-12, 2.0, 7e8];
        for w in xs.windows(2) {
            let a = FiniteF64::new(w[0]).unwrap();
            let b = FiniteF64::new(w[1]).unwrap();
            assert!(a <= b, "{} should sort before {}", w[0], w[1]);
        }
        assert!(FiniteF64::new(f64::NAN).is_err());
        assert!(FiniteF64::new(f64::INFINITY).is_err());
    }

    #[test]
    fn finite_f64_roundtrips() {
        for v in [-123.456, -0.0, 0.0, 1.0, 9e99] {
            assert_eq!(FiniteF64::new(v).unwrap().get(), v);
        }
    }

    #[test]
    fn running_moments_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = RunningMoments::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((m.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((m.std_dev().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(m.min(), Some(2.0));
        assert_eq!(m.max(), Some(9.0));
    }

    #[test]
    fn exact_quantiles_interpolate() {
        let q = ExactQuantiles::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(1.0), 4.0);
        assert!((q.median() - 2.5).abs() < 1e-12);
        assert!(ExactQuantiles::new(&[]).is_err());
    }

    #[test]
    fn multiset_median_and_distinct_median_differ_under_repeats() {
        // 0 appears very often (standby), a few large values.
        let mut ms = OrderedMultiset::new();
        for _ in 0..90 {
            ms.insert(0.0).unwrap();
        }
        for v in [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0] {
            ms.insert(v).unwrap();
        }
        assert_eq!(ms.len(), 100);
        assert_eq!(ms.median(), Some(0.0), "plain median biased toward the repeated value");
        // Distinct values: {0, 100..1000} = 11 values, median is the 6th = 500.
        assert_eq!(ms.distinct_median(), Some(500.0));
    }

    #[test]
    fn multiset_quantiles_walk_cumulative_counts() {
        let mut ms = OrderedMultiset::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            ms.insert(v).unwrap();
        }
        assert_eq!(ms.quantile(0.25), Some(1.0));
        assert_eq!(ms.quantile(0.5), Some(2.0));
        assert_eq!(ms.quantile(1.0), Some(4.0));
        assert_eq!(OrderedMultiset::new().median(), None);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(100.0, 3).unwrap();
        for v in [-5.0, 0.0, 99.9, 100.0, 250.0, 300.0, 1e6] {
            h.push(v);
        }
        assert_eq!(h.bins(), &[2, 1, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        assert!(Histogram::new(0.0, 3).is_err());
        assert!(Histogram::new(1.0, 0).is_err());
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        // Deterministic log-normal-ish sample: exp(mu + sigma * z) over a
        // grid of probits.
        let (mu, sigma) = (5.0, 0.8);
        let mut vals = Vec::new();
        for i in 1..1000 {
            let p = i as f64 / 1000.0;
            let z = probit(p).unwrap();
            vals.push((mu + sigma * z).exp());
        }
        let fit = LogNormalFit::fit(&vals).unwrap();
        assert!((fit.mu - mu).abs() < 0.01, "mu {}", fit.mu);
        assert!((fit.sigma - sigma).abs() < 0.02, "sigma {}", fit.sigma);
        let ks = fit.ks_statistic(&vals).unwrap();
        assert!(ks < 0.01, "ks {ks}");
    }

    fn lcg_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0
            })
            .collect()
    }

    #[test]
    fn sketch_rank_stays_within_tracked_bound() {
        let vals = lcg_stream(7, 50_000);
        let mut sk = QuantileSketch::new(64).unwrap();
        for &v in &vals {
            sk.update(v).unwrap();
        }
        assert_eq!(sk.count(), vals.len() as u64);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let v = sorted[((q * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)];
            let true_rank = sorted.partition_point(|&x| x <= v) as i64;
            let est = sk.rank(v) as i64;
            let bound = sk.rank_error_bound() as i64;
            assert!(
                (est - true_rank).abs() <= bound,
                "q={q}: est rank {est} vs true {true_rank}, bound {bound}"
            );
        }
        // Worst-case tracked bound is ~levels·n/k; sanity-check it stays a
        // fraction of n rather than degenerating to n itself.
        assert!(
            sk.rank_error_bound() < vals.len() as u64 / 4,
            "bound {} too loose for n={}",
            sk.rank_error_bound(),
            vals.len()
        );
    }

    #[test]
    fn sketch_memory_stays_logarithmic() {
        let mut sk = QuantileSketch::new(64).unwrap();
        for v in lcg_stream(3, 200_000) {
            sk.update(v).unwrap();
        }
        // 200k values, k=64: ~log2(200k/64) ≈ 12 levels of ≤64 f64s each.
        assert!(sk.memory_bytes() < 32 * 1024, "memory {} bytes", sk.memory_bytes());
    }

    #[test]
    fn sketch_merge_matches_single_stream_count_and_bound() {
        let vals = lcg_stream(11, 8_192);
        let (a_half, b_half) = vals.split_at(vals.len() / 2);
        let mut a = QuantileSketch::new(32).unwrap();
        let mut b = QuantileSketch::new(32).unwrap();
        for &v in a_half {
            a.update(v).unwrap();
        }
        for &v in b_half {
            b.update(v).unwrap();
        }
        a.merge(&b);
        assert_eq!(a.count(), vals.len() as u64);
        let mut sorted = vals.clone();
        sorted.sort_by(|x, y| x.total_cmp(y));
        let mid = sorted[sorted.len() / 2];
        let true_rank = sorted.partition_point(|&x| x <= mid) as i64;
        assert!((a.rank(mid) as i64 - true_rank).abs() <= a.rank_error_bound() as i64);
    }

    #[test]
    fn sketch_is_deterministic() {
        let vals = lcg_stream(5, 10_000);
        let mut a = QuantileSketch::new(32).unwrap();
        let mut b = QuantileSketch::new(32).unwrap();
        for &v in &vals {
            a.update(v).unwrap();
            b.update(v).unwrap();
        }
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q), "same stream, same sketch at q={q}");
        }
        assert_eq!(a.rank_error_bound(), b.rank_error_bound());
    }

    #[test]
    fn sketch_rejects_nan_accepts_infinities() {
        let mut sk = QuantileSketch::new(8).unwrap();
        assert!(sk.update(f64::NAN).is_err());
        assert!(sk.is_empty(), "rejected NaN must not count");
        sk.update(f64::NEG_INFINITY).unwrap();
        sk.update(0.0).unwrap();
        sk.update(f64::INFINITY).unwrap();
        assert_eq!(sk.quantile(0.0), Some(f64::NEG_INFINITY));
        assert_eq!(sk.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(sk.rank(0.0), 2);
    }

    #[test]
    fn sketch_constant_stream_is_exact() {
        let mut sk = QuantileSketch::new(16).unwrap();
        for _ in 0..10_000 {
            sk.update(42.0).unwrap();
        }
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(sk.quantile(q), Some(42.0));
        }
        assert_eq!(sk.rank(42.0), 10_000);
        assert_eq!(sk.rank(41.9), 0);
    }

    #[test]
    fn sketch_validates_capacity() {
        assert!(QuantileSketch::new(0).is_err());
        assert!(QuantileSketch::new(1).is_err());
        assert!(QuantileSketch::new(2).is_ok());
        assert!(QuantileSketch::with_default_capacity().is_empty());
        assert_eq!(QuantileSketch::new(8).unwrap().quantile(0.5), None);
    }

    #[test]
    fn erf_and_probit_sanity() {
        assert!((erf(0.0)).abs() < 1e-6, "A&S 7.1.26 is accurate to ~1.5e-7");
        assert!((erf(10.0) - 1.0).abs() < 1e-7);
        assert!((erf(-10.0) + 1.0).abs() < 1e-7);
        assert!((probit(0.5).unwrap()).abs() < 1e-9);
        assert!((probit(0.975).unwrap() - 1.959964).abs() < 1e-4);
        assert!((probit(0.025).unwrap() + 1.959964).abs() < 1e-4);
        assert!(probit(0.0).is_err());
        assert!(probit(1.0).is_err());
    }
}
