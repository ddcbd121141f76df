//! Online (streaming) conversion, the sensor side of the paper's
//! architecture (§2: "the lookup table is built once at the sensor level and
//! then sent to the aggregation server before starting to send the symbolic
//! data").
//!
//! [`OnlineEncoder`] turns a stream of raw samples into a stream of symbols
//! one window at a time; [`SensorPipeline`] adds the training phase and the
//! wire protocol ([`SensorMessage`]). The pipeline buffers its training
//! samples, which it must replay through the encoder anyway, and learns its
//! table from them with [`LookupTable::learn`] when training ends, so a
//! sensor's table is the one the batch path learns from the same values.
//! Under a drift policy it also rebuilds the table when the data drift and
//! ships each rebuild under a new epoch ([`crate::adaptive`]).

use crate::adaptive::{AdaptiveStats, DriftConfig, DriftTracker};
use crate::alphabet::Alphabet;
use crate::error::{Error, Result};
use crate::lookup::LookupTable;
use crate::separators::SeparatorMethod;
use crate::stats::FiniteF64;
use crate::symbol::Symbol;
use crate::timeseries::Timestamp;
use crate::vertical::Aggregation;

/// Streaming vertical + horizontal segmentation with a fixed, pre-trained
/// lookup table. Feed samples in timestamp order; a symbol is emitted every
/// time a wall-clock window closes.
#[derive(Debug, Clone)]
pub struct OnlineEncoder {
    table: LookupTable,
    window_secs: i64,
    aggregation: Aggregation,
    min_samples: usize,
    // Current window state.
    window_start: Option<Timestamp>,
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
    first: f64,
    last: f64,
}

/// One emitted symbol with the window it summarizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedWindow {
    /// Start of the closed window.
    pub window_start: Timestamp,
    /// The symbol summarizing the window.
    pub symbol: Symbol,
    /// Number of raw samples aggregated into the symbol.
    pub samples: u32,
}

impl OnlineEncoder {
    /// Creates an encoder emitting one symbol per `window_secs` window.
    pub fn new(table: LookupTable, window_secs: i64, aggregation: Aggregation) -> Result<Self> {
        if window_secs <= 0 {
            return Err(Error::InvalidParameter {
                name: "window_secs",
                reason: format!("must be positive, got {window_secs}"),
            });
        }
        Ok(OnlineEncoder {
            table,
            window_secs,
            aggregation,
            min_samples: 1,
            window_start: None,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            first: 0.0,
            last: 0.0,
        })
    }

    /// Requires at least `n` samples for a window to emit a symbol
    /// (sparser windows are dropped as gaps).
    pub fn with_min_samples(mut self, n: usize) -> Self {
        self.min_samples = n.max(1);
        self
    }

    /// The lookup table in use.
    pub fn table(&self) -> &LookupTable {
        &self.table
    }

    /// Replaces the lookup table (a drift cutover of [`SensorPipeline`],
    /// §4).
    pub fn set_table(&mut self, table: LookupTable) {
        self.table = table;
    }

    fn aggregate_current(&self) -> f64 {
        match self.aggregation {
            Aggregation::Mean => self.sum / self.count as f64,
            Aggregation::Sum => self.sum,
            Aggregation::Min => self.min,
            Aggregation::Max => self.max,
            Aggregation::First => self.first,
            Aggregation::Last => self.last,
        }
    }

    fn close_window(&mut self) -> Option<EncodedWindow> {
        let start = self.window_start?;
        let out = (self.count >= self.min_samples).then(|| EncodedWindow {
            window_start: start,
            // `push` rejects non-finite samples, so the aggregate can
            // overflow to ±∞ (which encodes to an outer bin) but can never
            // be NaN — the only value `encode_value` refuses.
            symbol: self
                .table
                .encode_value(self.aggregate_current())
                .expect("aggregate of finite samples is never NaN"),
            samples: self.count as u32,
        });
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        out
    }

    /// Feeds one sample. Returns the symbol of the *previous* window when
    /// `t` crosses a window boundary (possibly none if that window was too
    /// sparse).
    pub fn push(&mut self, t: Timestamp, v: f64) -> Result<Option<EncodedWindow>> {
        if !v.is_finite() {
            return Err(Error::InvalidParameter {
                name: "v",
                reason: format!("must be finite, got {v}"),
            });
        }
        let start = t.div_euclid(self.window_secs) * self.window_secs;
        let emitted = match self.window_start {
            Some(s) if s == start => None,
            Some(s) => {
                if start < s {
                    return Err(Error::NonMonotonicTimestamps { index: 0 });
                }
                let e = self.close_window();
                self.window_start = Some(start);
                e
            }
            None => {
                self.window_start = Some(start);
                None
            }
        };
        if self.count == 0 {
            self.first = v;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        Ok(emitted)
    }

    /// Flushes the open window (e.g. at end of stream).
    pub fn finish(&mut self) -> Option<EncodedWindow> {
        let e = self.close_window();
        self.window_start = None;
        e
    }
}

/// Wire messages from sensor to aggregation server.
///
/// Servers store them in bulk: the gateway's output keeps one per decoded
/// frame. A table keeps its branchless search form behind a `Box`, so a
/// message takes 112 bytes on 64-bit targets, not the 376 an inline copy
/// of the 32 padded separator slots made it.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorMessage {
    /// A (re)issued lookup table; subsequent symbols use it.
    Table(LookupTable),
    /// One encoded window.
    Window(EncodedWindow),
    /// An epoch-versioned lookup table, shipped when the adaptive path cuts
    /// over after drift. The epoch is a per-meter monotonic version: stored
    /// segments record which epoch encoded them, so old epochs remain
    /// decodable after a cutover. Epoch 0 is reserved for the pre-drift
    /// table implied by [`SensorMessage::Table`].
    EpochTable {
        /// Monotonic per-meter table version (first cutover ships epoch 1).
        epoch: u32,
        /// The rebuilt table taking effect at this epoch.
        table: LookupTable,
    },
}

/// Sensor-side state machine implementing the paper's full protocol:
/// 1. **Training**: buffer `train_duration` seconds of raw samples (the paper
///    uses the first two days); a non-finite training sample is an error;
/// 2. **Table emission**: learn the table from the buffered values with
///    [`LookupTable::learn`], emit [`SensorMessage::Table`];
/// 3. **Streaming**: encode every subsequent window, emitting
///    [`SensorMessage::Window`]s. Training samples are *also* replayed
///    through the encoder, so no data is lost.
///
/// Under a drift policy ([`drift`](Self::drift)) streaming also rebuilds
/// the table when the data drift, emitting [`SensorMessage::EpochTable`]s.
#[derive(Debug)]
pub struct SensorPipeline {
    method: SeparatorMethod,
    alphabet: Alphabet,
    window_secs: i64,
    aggregation: Aggregation,
    train_duration: i64,
    drift: Option<DriftConfig>,
    state: PipelineState,
}

#[derive(Debug)]
enum PipelineState {
    Training { buffer: Vec<(Timestamp, f64)>, started: Option<Timestamp> },
    Streaming(Box<Stream>),
}

/// The streaming phase: the encoder and, under a drift policy, the policy,
/// the meter's drift state and its counters.
#[derive(Debug)]
struct Stream {
    encoder: OnlineEncoder,
    drift: Option<(DriftConfig, DriftTracker)>,
    stats: AdaptiveStats,
}

impl Stream {
    /// Encodes one sample into `msgs`, then, under a drift policy, feeds
    /// the tracker and applies the cutover rule. A cutover relearns the
    /// table and ships it right after the window this sample closed.
    fn push(
        &mut self,
        t: Timestamp,
        v: f64,
        (method, alphabet): (SeparatorMethod, Alphabet),
        msgs: &mut Vec<SensorMessage>,
    ) -> Result<()> {
        let window = self.encoder.push(t, v)?;
        let Some((policy, tracker)) = &mut self.drift else {
            msgs.extend(window.map(SensorMessage::Window));
            return Ok(());
        };
        if let Some(w) = window {
            self.stats.symbols += 1;
            msgs.push(SensorMessage::Window(w));
        }
        // Past the encoder's validation: v is finite from here on.
        self.stats.samples += 1;
        tracker.push(v);
        if tracker.decide(policy, &mut self.stats) {
            let table = LookupTable::learn_from_sketch(method, alphabet, tracker.reference())?;
            self.encoder.set_table(table.clone());
            msgs.push(SensorMessage::EpochTable { epoch: tracker.epoch(), table });
        }
        self.stats.sketch_bytes = tracker.sketch_bytes();
        Ok(())
    }
}

impl SensorPipeline {
    /// Creates a pipeline that trains for `train_duration` seconds before
    /// streaming symbols.
    pub fn new(
        method: SeparatorMethod,
        alphabet: Alphabet,
        window_secs: i64,
        aggregation: Aggregation,
        train_duration: i64,
    ) -> Result<Self> {
        if window_secs <= 0 || train_duration <= 0 {
            return Err(Error::InvalidParameter {
                name: "window_secs/train_duration",
                reason: "must be positive".to_string(),
            });
        }
        Ok(SensorPipeline {
            method,
            alphabet,
            window_secs,
            aggregation,
            train_duration,
            drift: None,
            state: PipelineState::Training { buffer: Vec::new(), started: None },
        })
    }

    /// Rebuilds the table when the data drift, under `policy` (§4's future
    /// work, [`crate::adaptive`]); set it before the first sample. The
    /// training values seed the drift tracker, and the cutover rule is
    /// tested after every replayed and later sample. A cutover relearns the
    /// table with [`LookupTable::learn_from_sketch`] from the window the
    /// rule fired on: `Uniform` divides the window's `[lo, hi]` and
    /// `DistinctMedian` falls back to median. The fleet instead tests once
    /// per house per batch and retrains exactly on the batch
    /// ([`crate::shard::ShardedEngineConfig::drift`]). Errors with
    /// [`Error::InvalidParameter`] on a threshold outside `(0, 1]` or a
    /// window below 2.
    pub fn drift(mut self, policy: DriftConfig) -> Result<Self> {
        self.drift = Some(policy.validate()?);
        Ok(self)
    }

    /// Whether the pipeline is still in its training phase.
    pub fn is_training(&self) -> bool {
        matches!(self.state, PipelineState::Training { .. })
    }

    /// Drift counters so far: zeroes without a drift policy and while
    /// training.
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        match &self.state {
            PipelineState::Streaming(stream) => stream.stats,
            PipelineState::Training { .. } => AdaptiveStats::default(),
        }
    }

    /// Feeds one sample; returns the messages to ship (zero or more — the
    /// transition out of training emits the table plus any windows covered
    /// by the buffered training data).
    pub fn push(&mut self, t: Timestamp, v: f64) -> Result<Vec<SensorMessage>> {
        let learn = (self.method, self.alphabet);
        let mut msgs = Vec::new();
        match &mut self.state {
            PipelineState::Training { buffer, started } => {
                let t0 = *started.get_or_insert(t);
                if t - t0 < self.train_duration {
                    FiniteF64::new(v)?;
                    buffer.push((t, v));
                    return Ok(msgs);
                }
                // Training complete: build the table and seed the drift
                // tracker from the buffer, replay it, continue.
                let values: Vec<f64> = buffer.iter().map(|&(_, v)| v).collect();
                let table = LookupTable::learn(self.method, self.alphabet, &values)?;
                let drift = match self.drift {
                    Some(policy) => Some((policy, DriftTracker::new(&values, policy.window)?)),
                    None => None,
                };
                let encoder =
                    OnlineEncoder::new(table.clone(), self.window_secs, self.aggregation)?;
                let mut stream = Stream { encoder, drift, stats: AdaptiveStats::default() };
                msgs.push(SensorMessage::Table(table));
                for &(bt, bv) in buffer.iter() {
                    stream.push(bt, bv, learn, &mut msgs)?;
                }
                stream.push(t, v, learn, &mut msgs)?;
                self.state = PipelineState::Streaming(Box::new(stream));
            }
            PipelineState::Streaming(stream) => stream.push(t, v, learn, &mut msgs)?,
        }
        Ok(msgs)
    }

    /// Flushes the trailing window at end of stream.
    pub fn finish(&mut self) -> Vec<SensorMessage> {
        let PipelineState::Streaming(stream) = &mut self.state else {
            return Vec::new();
        };
        let Some(w) = stream.encoder.finish() else {
            return Vec::new();
        };
        if stream.drift.is_some() {
            stream.stats.symbols += 1;
        }
        vec![SensorMessage::Window(w)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LookupTable {
        LookupTable::custom(&[100.0, 200.0, 300.0], 0.0, 400.0).unwrap()
    }

    #[test]
    fn online_encoder_emits_on_window_close() {
        let mut enc = OnlineEncoder::new(table(), 60, Aggregation::Mean).unwrap();
        for t in 0..60 {
            assert_eq!(enc.push(t, 50.0).unwrap(), None);
        }
        // First sample of next window triggers emission of window [0, 60).
        let e = enc.push(60, 350.0).unwrap().expect("window closed");
        assert_eq!(e.window_start, 0);
        assert_eq!(e.samples, 60);
        assert_eq!(e.symbol.rank(), 0);
        let f = enc.finish().expect("flush open window");
        assert_eq!(f.window_start, 60);
        assert_eq!(f.symbol.rank(), 3);
        assert!(enc.finish().is_none(), "second flush is a no-op");
    }

    #[test]
    fn online_encoder_matches_batch_aggregation() {
        use crate::horizontal::horizontal_segmentation;
        use crate::timeseries::TimeSeries;
        use crate::vertical::aggregate_by_window;

        let values: Vec<f64> = (0..500).map(|i| ((i * 97) % 400) as f64).collect();
        let series = TimeSeries::from_regular(0, 7, &values).unwrap();
        let t = table();

        let agg = aggregate_by_window(&series, 60, Aggregation::Mean, 1).unwrap();
        let batch = horizontal_segmentation(&agg, &t).unwrap();

        let mut enc = OnlineEncoder::new(t, 60, Aggregation::Mean).unwrap();
        let mut online = Vec::new();
        for (ts, v) in series.iter() {
            if let Some(w) = enc.push(ts, v).unwrap() {
                online.push((w.window_start, w.symbol));
            }
        }
        if let Some(w) = enc.finish() {
            online.push((w.window_start, w.symbol));
        }
        let batch_pairs: Vec<(Timestamp, Symbol)> = batch.iter().collect();
        assert_eq!(online, batch_pairs);
    }

    #[test]
    fn online_encoder_rejects_time_regression_and_nan() {
        let mut enc = OnlineEncoder::new(table(), 60, Aggregation::Mean).unwrap();
        enc.push(120, 10.0).unwrap();
        assert!(enc.push(0, 10.0).is_err());
        assert!(enc.push(120, f64::NAN).is_err());
    }

    #[test]
    fn min_samples_drops_sparse_windows() {
        let mut enc =
            OnlineEncoder::new(table(), 60, Aggregation::Mean).unwrap().with_min_samples(10);
        enc.push(0, 50.0).unwrap();
        // Jump two windows ahead: sparse window [0,60) is dropped.
        assert_eq!(enc.push(130, 50.0).unwrap(), None);
    }

    #[test]
    fn pipeline_trains_then_streams() {
        let mut p = SensorPipeline::new(
            SeparatorMethod::Median,
            Alphabet::with_size(4).unwrap(),
            60,
            Aggregation::Mean,
            600, // train on 10 minutes
        )
        .unwrap();
        let mut msgs = Vec::new();
        for t in 0..1200i64 {
            let v = ((t * 31) % 400) as f64;
            msgs.extend(p.push(t, v).unwrap());
        }
        msgs.extend(p.finish());

        // Exactly one table message, emitted before any window message.
        let table_positions: Vec<usize> = msgs
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m, SensorMessage::Table(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(table_positions, vec![0]);

        // Training data is replayed: windows cover t=0 onwards, 20 windows total.
        let windows: Vec<&EncodedWindow> = msgs
            .iter()
            .filter_map(|m| match m {
                SensorMessage::Window(w) => Some(w),
                _ => None,
            })
            .collect();
        assert_eq!(windows.len(), 20);
        assert_eq!(windows[0].window_start, 0);
        assert_eq!(windows.last().unwrap().window_start, 1140);
        assert!(!p.is_training());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_message_is_small_enough_to_store_per_frame() {
        // A window needs 16 bytes; a table's three `Vec`s, two bounds and
        // boxed search form set the size of every message.
        assert_eq!(std::mem::size_of::<EncodedWindow>(), 16);
        assert_eq!(std::mem::size_of::<SensorMessage>(), 112);
    }

    #[test]
    fn pipeline_rejects_non_finite_training_samples() {
        let a = Alphabet::with_size(4).unwrap();
        let mut p =
            SensorPipeline::new(SeparatorMethod::Median, a, 60, Aggregation::Mean, 600).unwrap();
        p.push(0, 10.0).unwrap();
        for (t, bad) in [(1, f64::NAN), (2, f64::INFINITY)] {
            assert!(matches!(p.push(t, bad), Err(Error::InvalidParameter { name: "value", .. })));
        }
        p.push(3, 20.0).unwrap();
        // Training ends at t = 600: the table counts the two finite samples.
        match &p.push(600, 30.0).unwrap()[0] {
            SensorMessage::Table(t) => assert_eq!(t.bin_counts().iter().sum::<u64>(), 2),
            other => panic!("expected the table first, got {other:?}"),
        }
    }

    #[test]
    fn pipeline_validates_parameters() {
        let a = Alphabet::with_size(4).unwrap();
        assert!(SensorPipeline::new(SeparatorMethod::Median, a, 0, Aggregation::Mean, 10).is_err());
        assert!(SensorPipeline::new(SeparatorMethod::Median, a, 60, Aggregation::Mean, 0).is_err());
    }
}
