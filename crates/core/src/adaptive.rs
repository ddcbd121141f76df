//! On-the-fly lookup-table adaptation (paper §4 future work: "when the
//! consumer consumption pattern changes drastically, e.g., due to seasonal
//! change, or having an additional family member, on the fly symbol table
//! modification could be useful").
//!
//! This is the production drift path: bounded memory, deterministic, and
//! epoch-versioned.
//!
//! * [`DriftDetector`] holds no raw history. The reference distribution and
//!   the recent window are both [`QuantileSketch`]es — `O(log n)` bytes per
//!   meter — and the drift statistic is a two-sample Kolmogorov–Smirnov
//!   distance evaluated over sketch rank queries.
//! * One cutover rule serves a meter and a fleet house alike, under one
//!   [`DriftConfig`]. It gates rebuilds with **hysteresis**: an
//!   over-threshold reading rebuilds only while the rule is armed, a
//!   rebuild dis-arms it, and it re-arms once the statistic falls below
//!   half the threshold or the window has fully turned over since the
//!   rebuild. Suppressed readings are counted in [`AdaptiveStats`]. Two
//!   rebuilds are at least `window` samples apart, because a rebuild
//!   restarts the window and the statistic waits for it to refill.
//! * Two paths apply the rule. They differ in when they test and in how
//!   they retrain:
//!   - the meter,
//!     [`SensorPipeline::drift`](crate::encoder::SensorPipeline::drift),
//!     tests after every sample and relearns its table from the window
//!     sketch with [`LookupTable::learn_from_sketch`]. That learner's
//!     `Uniform` divides the sketch's `[lo, hi]`, not §2.2's `[0, max]`,
//!     and its `DistinctMedian` falls back to median, so a meter's epoch
//!     table for those methods is neither the paper's nor the fleet's;
//!   - the fleet, [`ShardedFleetEngine`](crate::shard::ShardedFleetEngine),
//!     tests once per house per batch, evicts the house's cached table and
//!     retrains exactly on the batch.
//! * Every rebuild is a **cutover to a new epoch**: the rebuilt table ships
//!   as [`SensorMessage::EpochTable`](crate::encoder::SensorMessage::EpochTable)
//!   carrying a monotonic per-meter version, so the server (and the segment
//!   store) can record which table encoded which symbols and old epochs
//!   remain decodable — exactly the protocol the paper sketches
//!   ("rebuilding and resending the lookup table periodically or if the
//!   distribution of the data changes too much", §2).
//!
//! [`LookupTable::learn_from_sketch`]: crate::lookup::LookupTable::learn_from_sketch

use crate::error::{Error, Result};
use crate::stats::QuantileSketch;

/// Sketch capacity used by drift detectors: small enough that a million
/// meters fit in a few GiB, accurate enough for a KS test over 16–64 bins.
pub const DRIFT_SKETCH_K: usize = 64;

/// Divisions of the KS statistic's quantile grid: each side is probed at
/// `q = i / KS_GRID` for `i` in `0..=KS_GRID`, 65 probes per side.
const KS_GRID: usize = 64;

/// Two-sample distribution-shift detector over streaming quantile sketches:
/// a sealed reference distribution versus a recent window, both `O(log n)`
/// memory, compared by Kolmogorov–Smirnov distance over rank queries.
///
/// The "window" is the classic two-buffer sliding approximation: samples
/// fill a current sketch; each time it reaches `window_size` samples it
/// becomes the previous sketch and a fresh one starts. The effective window
/// therefore covers between `window_size` and `2 × window_size` recent
/// samples — never less, never unboundedly more — without retaining any raw
/// values.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    reference: QuantileSketch,
    prev: QuantileSketch,
    cur: QuantileSketch,
    window_size: usize,
}

impl DriftDetector {
    /// Creates a detector whose frozen reference is sketched from
    /// `reference` and whose sliding window covers `window_size` to
    /// `2 × window_size` recent values.
    ///
    /// NaN in the reference is a typed error at this trust boundary
    /// ([`Error::NonFiniteValue`] with the offending index) — the PR 6
    /// policy: ±∞ is data, NaN is an error. The old implementation accepted
    /// NaN here and panicked later inside the quantile sort.
    pub fn new(reference: &[f64], window_size: usize) -> Result<Self> {
        if reference.is_empty() {
            return Err(Error::EmptyInput("DriftDetector reference"));
        }
        let mut sketch = QuantileSketch::new(DRIFT_SKETCH_K)?;
        for (index, &v) in reference.iter().enumerate() {
            if v.is_nan() {
                return Err(Error::NonFiniteValue { index });
            }
            sketch.update(v)?;
        }
        Self::from_sketch(sketch, window_size)
    }

    /// Creates a detector from an already-built reference sketch, for a
    /// caller that holds no raw values. The meter and the fleet seed their
    /// detectors from raw values through [`new`](Self::new).
    pub fn from_sketch(reference: QuantileSketch, window_size: usize) -> Result<Self> {
        if reference.is_empty() {
            return Err(Error::EmptyInput("DriftDetector reference"));
        }
        check_window(window_size)?;
        Ok(DriftDetector {
            reference,
            prev: QuantileSketch::new(DRIFT_SKETCH_K)?,
            cur: QuantileSketch::new(DRIFT_SKETCH_K)?,
            window_size,
        })
    }

    /// Feeds one recent value. NaN is ignored (the encoder upstream rejects
    /// it with a typed error; the detector must not corrupt its ordering).
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.cur.update(v).expect("NaN filtered above");
        if self.cur.count() as usize >= self.window_size {
            self.prev = std::mem::replace(
                &mut self.cur,
                QuantileSketch::new(DRIFT_SKETCH_K).expect("constant capacity is valid"),
            );
        }
    }

    /// Recent samples currently covered by the window sketches.
    pub fn window_len(&self) -> usize {
        (self.prev.count() + self.cur.count()) as usize
    }

    /// Whether enough recent samples are buffered for the statistic to be
    /// meaningful.
    pub fn window_full(&self) -> bool {
        self.window_len() >= self.window_size
    }

    /// A merged sketch of the recent window (used for retraining the table
    /// on the post-drift distribution).
    pub fn window_sketch(&self) -> QuantileSketch {
        let mut w = self.prev.clone();
        w.merge(&self.cur);
        w
    }

    /// Two-sample KS distance between the reference and the recent window
    /// (`None` until the window fills), evaluated on a quantile probe grid
    /// drawn from both distributions. Each sketch is sorted once per call;
    /// the grid's quantile and rank queries are binary searches.
    pub fn statistic(&self) -> Option<f64> {
        if !self.window_full() {
            return None;
        }
        let reference = self.reference.sorted_view();
        let win = self.window_sketch().sorted_view();
        let n_ref = reference.count() as f64;
        let n_win = win.count() as f64;
        let mut d: f64 = 0.0;
        for i in 0..=KS_GRID {
            let q = i as f64 / KS_GRID as f64;
            for x in [reference.quantile(q), win.quantile(q)] {
                let x = x.expect("both sketches are non-empty");
                let f_ref = reference.rank(x) as f64 / n_ref;
                let f_win = win.rank(x) as f64 / n_win;
                d = d.max((f_ref - f_win).abs());
            }
        }
        Some(d.min(1.0))
    }

    /// Replaces the reference with the merged window sketch and restarts the
    /// window (called after a table rebuild so drift is measured against the
    /// new regime).
    pub fn rebase(&mut self) {
        self.reference = self.window_sketch();
        self.prev = QuantileSketch::new(DRIFT_SKETCH_K).expect("constant capacity is valid");
        self.cur = QuantileSketch::new(DRIFT_SKETCH_K).expect("constant capacity is valid");
    }

    /// Bytes currently held across the detector's three sketches — the
    /// `O(log n)` memory budget the fleet engine accounts per house.
    pub fn sketch_bytes(&self) -> usize {
        self.reference.memory_bytes() + self.prev.memory_bytes() + self.cur.memory_bytes()
    }
}

/// Drift policy of a meter
/// ([`SensorPipeline::drift`](crate::encoder::SensorPipeline::drift)) or a
/// fleet ([`ShardedEngineConfig::drift`](crate::shard::ShardedEngineConfig::drift)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// KS-statistic threshold above which drift fires (hysteresis re-arms
    /// below `threshold / 2`).
    pub threshold: f64,
    /// Sliding-window length in samples; also the fewest samples between
    /// two rebuilds of one meter or house, since the window must refill.
    pub window: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { threshold: 0.3, window: 512 }
    }
}

impl DriftConfig {
    /// Rejects a policy the rule cannot act on: a threshold outside
    /// `(0, 1]`, the range of the KS distance, NaN included (at or below 0
    /// every reading is over the threshold, and above 1 none is), or a
    /// window below 2.
    pub(crate) fn validate(self) -> Result<Self> {
        if !(0.0..=1.0).contains(&self.threshold) || self.threshold == 0.0 {
            return Err(Error::InvalidParameter {
                name: "threshold",
                reason: format!("must be in (0, 1], got {}", self.threshold),
            });
        }
        check_window(self.window)?;
        Ok(self)
    }
}

/// Rejects a detection window shorter than 2 samples.
fn check_window(window_size: usize) -> Result<()> {
    if window_size < 2 {
        return Err(Error::InvalidParameter {
            name: "window_size",
            reason: "must be at least 2".to_string(),
        });
    }
    Ok(())
}

/// Statistics of one adaptive-encoding run; the `"adaptive"` stats block of
/// [`crate::engine::EngineStats`] and the Prometheus exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Table rebuilds triggered by drift (each ships one epoch).
    pub rebuilds: u64,
    /// Over-threshold drift readings suppressed because the detector had
    /// fired recently and not yet re-armed (the statistic never fell below
    /// the re-arm threshold).
    pub suppressed_hysteresis: u64,
    /// Always 0: no statistic exists until the window refills after a
    /// rebuild, so no minimum rebuild interval can hold a reading back.
    pub suppressed_min_interval: u64,
    /// Epoch-versioned tables shipped (equals `rebuilds` for a single
    /// encoder; summed across a fleet).
    pub epochs_shipped: u64,
    /// Bytes currently held by quantile sketches (gauge).
    pub sketch_bytes: u64,
    /// Raw samples processed.
    pub samples: u64,
    /// Symbols emitted.
    pub symbols: u64,
}

crate::telemetry::declare_metrics! {
    AdaptiveStats as adaptive {
        add rebuilds, "rebuilds", "Lookup-table rebuilds triggered by the drift detector.";
        add suppressed_hysteresis, "decisions",
            "Over-threshold drift readings suppressed because the detector was not re-armed.";
        add suppressed_min_interval, "decisions",
            "Always 0: no drift statistic exists until the window refills after a rebuild.";
        add epochs_shipped, "epochs", "Epoch-versioned lookup tables shipped after drift cutover.";
        set sketch_bytes, "bytes",
            "Bytes held by streaming quantile sketches across all drift detectors.";
        add samples, "samples", "Raw samples folded into drift detectors.";
        add symbols, "symbols", "Symbols emitted by meters and houses under a drift policy.";
    }
}

impl AdaptiveStats {
    /// Folds another run's counters into this one (the sketch-bytes gauge
    /// adds, since fleet totals are the sum over meters).
    pub fn merge(&mut self, other: &AdaptiveStats) {
        self.rebuilds += other.rebuilds;
        self.suppressed_hysteresis += other.suppressed_hysteresis;
        self.suppressed_min_interval += other.suppressed_min_interval;
        self.epochs_shipped += other.epochs_shipped;
        self.sketch_bytes += other.sketch_bytes;
        self.samples += other.samples;
        self.symbols += other.symbols;
    }
}

/// The drift state of one meter or one fleet house: its detector, the
/// rule's hysteresis arm, the samples since the last rebuild and the epoch
/// of its current table. [`decide`](Self::decide) is the one cutover rule.
#[derive(Debug, Clone)]
pub(crate) struct DriftTracker {
    detector: DriftDetector,
    armed: bool,
    /// Samples pushed since the last rebuild or since seeding, NaN
    /// included.
    since_rebuild: u64,
    epoch: u32,
}

impl DriftTracker {
    /// An armed tracker at epoch 0 whose reference is sketched from
    /// `reference`; errors as [`DriftDetector::new`] does.
    pub(crate) fn new(reference: &[f64], window: usize) -> Result<Self> {
        let detector = DriftDetector::new(reference, window)?;
        Ok(DriftTracker { detector, armed: true, since_rebuild: 0, epoch: 0 })
    }

    /// Feeds one sample to the detector, which skips NaN.
    pub(crate) fn push(&mut self, v: f64) {
        self.detector.push(v);
        self.since_rebuild += 1;
    }

    /// The cutover rule: applies the hysteresis of the module doc to the
    /// current statistic, counts into `stats`, and returns whether to cut
    /// over. A cutover bumps the epoch and rebases the detector, so
    /// [`reference`](Self::reference) is then the window the rule fired on.
    /// The statistic exists only once `window` non-NaN samples have arrived
    /// since the rebase, so two cutovers are at least `window` samples
    /// apart.
    pub(crate) fn decide(&mut self, policy: &DriftConfig, stats: &mut AdaptiveStats) -> bool {
        let Some(d) = self.detector.statistic() else {
            return false;
        };
        // The turnover re-arm: a rebuild that fired on a window straddling
        // the drift leaves a mixed reference the statistic never settles
        // against, and the corrective rebuild must not wait forever.
        if !self.armed
            && (d < policy.threshold / 2.0 || self.since_rebuild >= 2 * policy.window as u64)
        {
            self.armed = true;
        }
        if d <= policy.threshold {
            return false;
        }
        if !self.armed {
            stats.suppressed_hysteresis += 1;
            return false;
        }
        self.detector.rebase();
        self.armed = false;
        self.since_rebuild = 0;
        self.epoch += 1;
        stats.rebuilds += 1;
        stats.epochs_shipped += 1;
        true
    }

    /// The detector's reference: after a cutover, the window the rule fired
    /// on.
    pub(crate) fn reference(&self) -> &QuantileSketch {
        &self.detector.reference
    }

    /// The epoch of the current table (0 until the first cutover).
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Bytes held by the detector's sketches.
    pub(crate) fn sketch_bytes(&self) -> u64 {
        self.detector.sketch_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::encoder::{SensorMessage, SensorPipeline};
    use crate::lookup::LookupTable;
    use crate::separators::SeparatorMethod;
    use crate::vertical::Aggregation;

    fn training() -> Vec<f64> {
        (0..500).map(|i| 100.0 + ((i * 13) % 50) as f64).collect()
    }

    #[test]
    fn detector_quiet_on_same_distribution() {
        let mut d = DriftDetector::new(&training(), 200).unwrap();
        assert_eq!(d.statistic(), None, "no statistic before window fills");
        for i in 0..200 {
            d.push(100.0 + ((i * 13) % 50) as f64);
        }
        let s = d.statistic().unwrap();
        assert!(s < 0.15, "same distribution should look calm, got {s}");
    }

    #[test]
    fn detector_fires_on_shift() {
        let mut d = DriftDetector::new(&training(), 200).unwrap();
        for i in 0..200 {
            d.push(1000.0 + ((i * 13) % 50) as f64); // 10× level shift
        }
        let s = d.statistic().unwrap();
        assert!(s > 0.9, "disjoint distributions should max the KS distance, got {s}");
    }

    #[test]
    fn detector_rebase_resets() {
        let mut d = DriftDetector::new(&training(), 100).unwrap();
        for i in 0..100 {
            d.push(1000.0 + (i % 50) as f64);
        }
        assert!(d.statistic().unwrap() > 0.9);
        d.rebase();
        assert_eq!(d.statistic(), None, "rebase restarts the window");
        for i in 0..100 {
            d.push(1000.0 + (i % 50) as f64);
        }
        assert!(d.statistic().unwrap() < 0.15, "after rebase the new regime is the reference");
    }

    #[test]
    fn detector_validation_rejects_nan_reference() {
        assert!(DriftDetector::new(&[], 10).is_err());
        assert!(DriftDetector::new(&[1.0], 1).is_err());
        // Regression: a NaN reference used to pass construction and panic
        // later inside the exact-quantile sort. It is now a typed error at
        // the trust boundary, with the offending index.
        match DriftDetector::new(&[1.0, 2.0, f64::NAN, 4.0], 10) {
            Err(Error::NonFiniteValue { index }) => assert_eq!(index, 2),
            other => panic!("expected NonFiniteValue {{ index: 2 }}, got {other:?}"),
        }
        // ±∞ is data, per the PR 6 NaN policy.
        assert!(DriftDetector::new(&[1.0, f64::INFINITY], 10).is_ok());
    }

    #[test]
    fn detector_memory_stays_bounded() {
        let mut d = DriftDetector::new(&training(), 500).unwrap();
        let mut peak = 0;
        for i in 0..200_000u64 {
            d.push((i % 997) as f64);
            peak = peak.max(d.sketch_bytes());
        }
        assert!(peak < 64 * 1024, "sketch memory must stay O(log n), got {peak} bytes");
    }

    /// A drift-enabled sensor of 8 symbols over 60 s windows that trains
    /// for 500 s.
    fn sensor(threshold: f64, window: usize) -> Result<SensorPipeline> {
        let alphabet = Alphabet::with_size(8).unwrap();
        SensorPipeline::new(SeparatorMethod::Median, alphabet, 60, Aggregation::Mean, 500)?
            .drift(DriftConfig { threshold, window })
    }

    /// Trains `p` on [`training`], one sample a second from t = 0; returns
    /// the next timestamp.
    fn train(p: &mut SensorPipeline) -> i64 {
        for (t, v) in training().into_iter().enumerate() {
            assert!(p.push(t as i64, v).unwrap().is_empty(), "still training");
        }
        500
    }

    #[test]
    fn sensor_rebuilds_once_per_regime() {
        let mut p = sensor(0.5, 200).unwrap();
        let mut t = train(&mut p);
        let mut msgs = Vec::new();
        // Regime 1: same as training — the first sample ends training and
        // ships the table, and no rebuild follows.
        for i in 0..400 {
            msgs.extend(p.push(t, 100.0 + ((i * 13) % 50) as f64).unwrap());
            t += 1;
        }
        assert!(matches!(msgs[0], SensorMessage::Table(_)), "the table ships first");
        let epoch_tables = |msgs: &[SensorMessage]| -> Vec<(u32, LookupTable)> {
            msgs.iter()
                .filter_map(|m| match m {
                    SensorMessage::EpochTable { epoch, table } => Some((*epoch, table.clone())),
                    _ => None,
                })
                .collect()
        };
        assert!(epoch_tables(&msgs).is_empty(), "no drift yet");

        // Regime 2: level shift — exactly one rebuild (then rebase and
        // hysteresis dis-arm hold further firings).
        for i in 0..600 {
            msgs.extend(p.push(t, 1000.0 + ((i * 13) % 50) as f64).unwrap());
            t += 1;
        }
        let rebuilt = epoch_tables(&msgs);
        assert_eq!(rebuilt.len(), 1, "one rebuild for one regime change");
        assert_eq!(p.adaptive_stats().rebuilds, 1);
        assert_eq!(p.adaptive_stats().epochs_shipped, 1);
        assert_eq!(rebuilt[0].0, 1, "first cutover ships epoch 1");

        // The rebuilt table should now cover the new level.
        let (_, hi) = rebuilt[0].1.value_range();
        assert!(hi >= 1000.0, "table retrained on the new regime, max {hi}");
        assert!(p.adaptive_stats().sketch_bytes > 0, "sketch bytes are accounted");
        p.finish();
        assert!(p.adaptive_stats().symbols > 0);
    }

    #[test]
    fn sensor_hysteresis_suppresses_thrash() {
        let mut p = sensor(0.3, 100).unwrap();
        let mut t = train(&mut p);
        // Shift, then shift again immediately: the second regime change
        // lands inside the un-armed span and must be suppressed.
        for i in 0..150 {
            p.push(t, 1000.0 + (i % 50) as f64).unwrap();
            t += 1;
        }
        let after_first = p.adaptive_stats().rebuilds;
        for i in 0..80 {
            p.push(t, 5000.0 + (i % 50) as f64).unwrap();
            t += 1;
        }
        let s = p.adaptive_stats();
        assert_eq!(after_first, 1);
        assert!(s.suppressed_hysteresis > 0, "rapid re-drift must be visibly suppressed: {s:?}");
        assert!(s.rebuilds <= 2, "gating must prevent per-sample rebuild thrash");
    }

    #[test]
    fn sensor_validates_its_drift_policy() {
        for (threshold, window) in [(0.0, 100), (f64::NAN, 100), (1.5, 100), (0.3, 1)] {
            assert!(
                matches!(sensor(threshold, window), Err(Error::InvalidParameter { .. })),
                "threshold {threshold}, window {window}"
            );
        }
        assert!(sensor(1.0, 2).is_ok());
    }

    #[test]
    fn adaptive_stats_merge_is_commutative() {
        let a = AdaptiveStats { rebuilds: 1, samples: 10, ..AdaptiveStats::default() };
        let b = AdaptiveStats { rebuilds: 2, symbols: 3, ..AdaptiveStats::default() };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!((ab.rebuilds, ab.samples, ab.symbols), (3, 10, 3));
    }
}
