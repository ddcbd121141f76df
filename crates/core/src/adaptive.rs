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
//! * [`AdaptiveEncoder`] gates rebuilds with **hysteresis** (an
//!   over-threshold reading only fires while the detector is armed; it
//!   re-arms once the statistic falls below half the threshold) and a
//!   **minimum rebuild interval**, so noisy meters cannot thrash retraining.
//!   Suppressed firings are counted per cause in [`AdaptiveStats`].
//! * Every rebuild is a **cutover to a new epoch**: the rebuilt table ships
//!   as [`SensorMessage::EpochTable`] carrying a monotonic per-meter version,
//!   so the server (and the segment store) can record which table encoded
//!   which symbols and old epochs remain decodable — exactly the protocol the
//!   paper sketches ("rebuilding and resending the lookup table periodically
//!   or if the distribution of the data changes too much", §2).

use crate::alphabet::Alphabet;
use crate::encoder::{OnlineEncoder, SensorMessage};
use crate::error::{Error, Result};
use crate::lookup::LookupTable;
use crate::separators::SeparatorMethod;
use crate::stats::QuantileSketch;
use crate::telemetry::Log2Histogram;
use crate::timeseries::Timestamp;
use crate::vertical::Aggregation;

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

    /// Creates a detector from an already-built reference sketch (the fleet
    /// path, where training never materializes a raw sample).
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

/// Rejects a drift threshold outside `(0, 1]`, the range of the KS
/// distance, NaN included: at or below 0 every reading is over the
/// threshold, and above 1 none is.
pub(crate) fn check_threshold(threshold: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&threshold) || threshold == 0.0 {
        return Err(Error::InvalidParameter {
            name: "threshold",
            reason: format!("must be in (0, 1], got {threshold}"),
        });
    }
    Ok(())
}

/// Rejects a detection window shorter than 2 samples.
pub(crate) fn check_window(window_size: usize) -> Result<()> {
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
    /// Over-threshold drift readings suppressed by the minimum rebuild
    /// interval.
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
    /// Samples between the first suppressed over-threshold reading and the
    /// rebuild that eventually served it — how long cutover lagged behind
    /// detectable drift.
    pub cutover_lag: Log2Histogram,
}

crate::telemetry::declare_metrics! {
    AdaptiveStats as adaptive {
        add rebuilds, "rebuilds", "Lookup-table rebuilds triggered by the drift detector.";
        add suppressed_hysteresis, "decisions",
            "Over-threshold drift readings suppressed because the detector was not re-armed.";
        add suppressed_min_interval, "decisions",
            "Over-threshold drift readings suppressed by the minimum rebuild interval.";
        add epochs_shipped, "epochs", "Epoch-versioned lookup tables shipped after drift cutover.";
        set sketch_bytes, "bytes",
            "Bytes held by streaming quantile sketches across all drift detectors.";
        add samples, "samples", "Raw samples folded into drift detectors.";
        add symbols, "symbols", "Symbols emitted by adaptive encoders.";
        merge_histogram cutover_lag, "samples",
            "Samples between a suppressed over-threshold drift reading and the eventual rebuild.";
    }
}

impl AdaptiveStats {
    /// Folds another run's counters into this one (histograms merge
    /// commutatively; the sketch-bytes gauge adds, since fleet totals are
    /// the sum over meters).
    pub fn merge(&mut self, other: &AdaptiveStats) {
        self.rebuilds += other.rebuilds;
        self.suppressed_hysteresis += other.suppressed_hysteresis;
        self.suppressed_min_interval += other.suppressed_min_interval;
        self.epochs_shipped += other.epochs_shipped;
        self.sketch_bytes += other.sketch_bytes;
        self.samples += other.samples;
        self.symbols += other.symbols;
        self.cutover_lag.merge(&other.cutover_lag);
    }
}

/// Online encoder that rebuilds its lookup table when the raw-value
/// distribution drifts, shipping each rebuilt table under a new epoch.
#[derive(Debug)]
pub struct AdaptiveEncoder {
    encoder: OnlineEncoder,
    detector: DriftDetector,
    method: SeparatorMethod,
    alphabet: Alphabet,
    threshold: f64,
    /// Hysteresis: a firing dis-arms the detector; it re-arms once the
    /// statistic falls below `threshold / 2`, or once the detection window
    /// has fully turned over since the rebuild (`2 × min_interval` samples),
    /// so a rebuild trained on a window straddling the drift cannot
    /// suppress its own correction forever.
    armed: bool,
    /// Minimum samples between rebuilds.
    min_interval: u64,
    since_rebuild: u64,
    /// Sample count at the first suppressed over-threshold reading since the
    /// last rebuild (for the cutover-lag histogram).
    pending_since: Option<u64>,
    epoch: u32,
    stats: AdaptiveStats,
}

impl AdaptiveEncoder {
    /// Wraps a trained table. `threshold` is the KS distance that triggers a
    /// rebuild (typical values 0.1–0.3); `window_size` is the recent-sample
    /// window used both for detection and for re-training, and doubles as
    /// the minimum rebuild interval.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        table: LookupTable,
        training_values: Vec<f64>,
        method: SeparatorMethod,
        window_secs: i64,
        aggregation: Aggregation,
        threshold: f64,
        window_size: usize,
    ) -> Result<Self> {
        check_threshold(threshold)?;
        let alphabet = table.alphabet();
        Ok(AdaptiveEncoder {
            encoder: OnlineEncoder::new(table, window_secs, aggregation)?,
            detector: DriftDetector::new(&training_values, window_size)?,
            method,
            alphabet,
            threshold,
            armed: true,
            min_interval: window_size as u64,
            since_rebuild: 0,
            pending_since: None,
            epoch: 0,
            stats: AdaptiveStats::default(),
        })
    }

    /// Feeds one raw sample; returns wire messages (an epoch-versioned
    /// rebuilt table and/or an encoded window).
    pub fn push(&mut self, t: Timestamp, v: f64) -> Result<Vec<SensorMessage>> {
        let mut out = Vec::new();
        if let Some(w) = self.encoder.push(t, v)? {
            self.stats.symbols += 1;
            out.push(SensorMessage::Window(w));
        }
        // Past the encoder's validation: v is finite from here on.
        self.stats.samples += 1;
        self.since_rebuild += 1;
        self.detector.push(v);

        if let Some(d) = self.detector.statistic() {
            // Re-arm when the statistic settles, or once the detection
            // window has fully turned over since the rebuild: a rebuild
            // that fired on a window straddling the drift leaves a mixed
            // reference the statistic never settles against, and the
            // corrective rebuild must not be suppressed forever.
            if !self.armed
                && (d < self.threshold / 2.0 || self.since_rebuild >= 2 * self.min_interval)
            {
                self.armed = true;
            }
            if d > self.threshold {
                if !self.armed {
                    self.stats.suppressed_hysteresis += 1;
                } else if self.since_rebuild < self.min_interval {
                    self.stats.suppressed_min_interval += 1;
                    self.pending_since.get_or_insert(self.stats.samples);
                } else {
                    out.push(self.cut_over()?);
                }
            }
        }
        self.stats.sketch_bytes = self.detector.sketch_bytes() as u64;
        Ok(out)
    }

    /// Rebuilds the table from the window sketch, bumps the epoch, rebases
    /// the detector, and returns the epoch-table message.
    fn cut_over(&mut self) -> Result<SensorMessage> {
        let table = LookupTable::learn_from_sketch(
            self.method,
            self.alphabet,
            &self.detector.window_sketch(),
        )?;
        self.encoder.set_table(table.clone());
        self.detector.rebase();
        let lag = self.stats.samples - self.pending_since.take().unwrap_or(self.stats.samples);
        self.stats.cutover_lag.observe(lag);
        self.since_rebuild = 0;
        self.armed = false;
        self.epoch += 1;
        self.stats.rebuilds += 1;
        self.stats.epochs_shipped += 1;
        Ok(SensorMessage::EpochTable { epoch: self.epoch, table })
    }

    /// Flushes the trailing window.
    pub fn finish(&mut self) -> Vec<SensorMessage> {
        match self.encoder.finish() {
            Some(w) => {
                self.stats.symbols += 1;
                vec![SensorMessage::Window(w)]
            }
            None => Vec::new(),
        }
    }

    /// Run statistics so far.
    pub fn stats(&self) -> AdaptiveStats {
        self.stats
    }

    /// The table currently in use.
    pub fn current_table(&self) -> &LookupTable {
        self.encoder.table()
    }

    /// The epoch of the table currently in use (0 until the first cutover).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn adaptive_encoder_rebuilds_once_per_regime() {
        let train = training();
        let table =
            LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(8).unwrap(), &train)
                .unwrap();
        let mut enc = AdaptiveEncoder::new(
            table,
            train,
            SeparatorMethod::Median,
            60,
            Aggregation::Mean,
            0.5,
            200,
        )
        .unwrap();

        let is_table = |m: &SensorMessage| {
            matches!(m, SensorMessage::EpochTable { .. } | SensorMessage::Table(_))
        };
        let mut tables = 0;
        let mut t = 0i64;
        // Regime 1: same as training — no rebuild expected.
        for i in 0..400 {
            let msgs = enc.push(t, 100.0 + ((i * 13) % 50) as f64).unwrap();
            tables += msgs.iter().filter(|m| is_table(m)).count();
            t += 1;
        }
        assert_eq!(tables, 0, "no drift yet");
        assert_eq!(enc.epoch(), 0);

        // Regime 2: level shift — exactly one rebuild (then rebase,
        // hysteresis dis-arm, and the min interval hold further firings).
        for i in 0..600 {
            let msgs = enc.push(t, 1000.0 + ((i * 13) % 50) as f64).unwrap();
            tables += msgs.iter().filter(|m| is_table(m)).count();
            t += 1;
        }
        assert_eq!(tables, 1, "one rebuild for one regime change");
        assert_eq!(enc.stats().rebuilds, 1);
        assert_eq!(enc.stats().epochs_shipped, 1);
        assert_eq!(enc.epoch(), 1, "first cutover ships epoch 1");

        // The rebuilt table should now cover the new level.
        let (_, hi) = enc.current_table().value_range();
        assert!(hi >= 1000.0, "table retrained on the new regime, max {hi}");
        assert!(enc.stats().sketch_bytes > 0, "sketch bytes are accounted");
        enc.finish();
        assert!(enc.stats().symbols > 0);
    }

    #[test]
    fn adaptive_encoder_min_interval_suppresses_thrash() {
        let train = training();
        let table =
            LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(8).unwrap(), &train)
                .unwrap();
        let mut enc = AdaptiveEncoder::new(
            table,
            train,
            SeparatorMethod::Median,
            60,
            Aggregation::Mean,
            0.3,
            100,
        )
        .unwrap();
        let mut t = 0i64;
        // Shift, then shift again immediately: the second regime change lands
        // inside the min interval / un-armed span and must be suppressed.
        for i in 0..150 {
            enc.push(t, 1000.0 + (i % 50) as f64).unwrap();
            t += 1;
        }
        let after_first = enc.stats().rebuilds;
        for i in 0..80 {
            enc.push(t, 5000.0 + (i % 50) as f64).unwrap();
            t += 1;
        }
        let s = enc.stats();
        assert_eq!(after_first, 1);
        assert!(
            s.suppressed_min_interval > 0 || s.suppressed_hysteresis > 0,
            "rapid re-drift must be visibly suppressed, got {s:?}"
        );
        assert!(s.rebuilds <= 2, "gating must prevent per-sample rebuild thrash");
    }

    #[test]
    fn adaptive_encoder_validates_threshold() {
        let train = training();
        let table =
            LookupTable::learn(SeparatorMethod::Median, Alphabet::with_size(4).unwrap(), &train)
                .unwrap();
        assert!(AdaptiveEncoder::new(
            table,
            train,
            SeparatorMethod::Median,
            60,
            Aggregation::Mean,
            0.0,
            100
        )
        .is_err());
    }

    #[test]
    fn adaptive_stats_merge_is_commutative() {
        let mut a = AdaptiveStats { rebuilds: 1, samples: 10, ..AdaptiveStats::default() };
        a.cutover_lag.observe(5);
        let mut b = AdaptiveStats { rebuilds: 2, symbols: 3, ..AdaptiveStats::default() };
        b.cutover_lag.observe(9);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.rebuilds, 3);
        assert_eq!(ab.cutover_lag.count(), 2);
    }
}
