//! `repro drift` — injected-drift adaptation experiment.
//!
//! [`meterdata::generator::cer_drifted`] materializes a CER-like fleet whose
//! houses change character at a known day (new always-on equipment, a
//! seasonal heating uptick, a seasonally shifted daily rhythm). The
//! run measures reconstruction accuracy **before / during / after** the
//! drift, once with the static day-one lookup table and once with
//! [`sms_core::adaptive::AdaptiveEncoder`] re-learning separators from its
//! drift-window sketch and shipping each rebuilt table under a new epoch.
//!
//! Two further legs exercise the fleet path: the drifted fleet runs through
//! the sharded engine with its drift gate enabled (pre-drift batch, then
//! post-drift batch — every house must cut to epoch 1), and a topology
//! sweep re-runs both batches at {1,4,16} shards × {1,2,8} workers proving
//! the symbols *and* epochs byte-identical across the cutover.

use meterdata::generator::cer_drifted;
use sms_core::adaptive::{AdaptiveEncoder, AdaptiveStats};
use sms_core::alphabet::Alphabet;
use sms_core::encoder::{OnlineEncoder, SensorMessage};
use sms_core::engine::EngineStats;
use sms_core::error::{Error, Result};
use sms_core::json::JsonWriter;
use sms_core::lookup::{LookupTable, SymbolSemantics};
use sms_core::pipeline::CodecBuilder;
use sms_core::separators::SeparatorMethod;
use sms_core::shard::{DriftConfig, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::timeseries::{Sample, TimeSeries, Timestamp, SECONDS_PER_DAY};
use sms_core::vertical::Aggregation;

/// Symbols per table (k = 16, the paper's default resolution).
const ALPHABET: usize = 16;
/// Aggregation window for encoded symbols (hourly over half-hourly data).
const WINDOW_SECS: i64 = 3600;
/// Days of pre-drift data the day-one table is trained on.
const TRAIN_DAYS: i64 = 4;
/// Drift-detector window in samples (4 days of half-hourly readings). The
/// detector compares its reference sketch against the last `window..2×window`
/// samples, so the adaptation lag is bounded by twice this count.
const DETECT_WINDOW: usize = 4 * 48;
/// KS-distance threshold that triggers a rebuild.
const THRESHOLD: f64 = 0.2;

/// Reconstruction MAE (watts) split at the drift cut: `pre` covers windows
/// before the cut, `during` the adaptation-lag span right after it (twice
/// the detector window), `post` everything later.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseMae {
    /// MAE over windows that end before the drift cut.
    pub pre: f64,
    /// MAE over the adaptation-lag span right after the cut.
    pub during: f64,
    /// MAE after the adaptation-lag span.
    pub post: f64,
}

/// Outcome of the drift experiment.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Houses in the fleet.
    pub houses: usize,
    /// Days generated.
    pub days: i64,
    /// Day every house cut to its post-drift configuration.
    pub drift_day: i64,
    /// Per-phase MAE with the frozen day-one table.
    pub static_mae: PhaseMae,
    /// Per-phase MAE with the adaptive encoder.
    pub adaptive_mae: PhaseMae,
    /// Table rebuilds across the adaptive streams.
    pub rebuilds: u64,
    /// Epoch tables shipped over the wire (one per rebuild).
    pub epochs_shipped: u64,
    /// Windows compared per encoder.
    pub symbols: u64,
    /// Houses the sharded engine's drift gate cut to a new epoch.
    pub fleet_cutovers: u64,
    /// Shard × worker combinations whose output matched byte-for-byte
    /// across the cutover.
    pub sweep_combos: usize,
    /// Whether post-drift adaptive MAE recovered to within 5% of the
    /// pre-drift baseline.
    pub recovered: bool,
    /// Engine counters with the `adaptive` block aggregated over every leg.
    pub stats: EngineStats,
}

impl DriftReport {
    /// Machine-readable record (the `drift_bench:` payload).
    pub fn to_json(&self) -> String {
        let a = self.stats.adaptive.as_ref().expect("run_drift always sets the adaptive block");
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("houses").u64(self.houses as u64);
        w.key("days").u64(self.days as u64);
        w.key("drift_day").u64(self.drift_day as u64);
        w.key("static_mae_pre").f64(self.static_mae.pre);
        w.key("static_mae_during").f64(self.static_mae.during);
        w.key("static_mae_post").f64(self.static_mae.post);
        w.key("adaptive_mae_pre").f64(self.adaptive_mae.pre);
        w.key("adaptive_mae_during").f64(self.adaptive_mae.during);
        w.key("adaptive_mae_post").f64(self.adaptive_mae.post);
        w.key("rebuilds").u64(self.rebuilds);
        w.key("epochs_shipped").u64(self.epochs_shipped);
        w.key("symbols").u64(self.symbols);
        w.key("fleet_cutovers").u64(self.fleet_cutovers);
        w.key("sweep_combos").u64(self.sweep_combos as u64);
        w.key("recovered").u64(self.recovered as u64);
        w.key("sketch_bytes").u64(a.sketch_bytes);
        w.key("suppressed_hysteresis").u64(a.suppressed_hysteresis);
        w.key("suppressed_min_interval").u64(a.suppressed_min_interval);
        w.end_object();
        w.finish()
    }
}

/// Text rendering of a [`DriftReport`].
pub fn render_drift(r: &DriftReport) -> String {
    format!(
        "Injected drift ({} houses, {} days, cut at day {})\n\
         phase MAE (W)        pre      during    post\n\
         static table    {:>8.1}  {:>8.1}  {:>8.1}\n\
         adaptive tables {:>8.1}  {:>8.1}  {:>8.1}\n\
         rebuilds: {} ({} epoch tables shipped) over {} windows/encoder\n\
         fleet drift gate: {} houses cut over; {} topology combos byte-identical\n\
         post-drift recovery to within 5% of baseline: {}\n\
         note: the `during` column is the adaptation lag — the detector needs\n\
         a window of post-drift samples before it can fire, so the adaptive\n\
         path degrades exactly like the static one until the first cutover.\n",
        r.houses,
        r.days,
        r.drift_day,
        r.static_mae.pre,
        r.static_mae.during,
        r.static_mae.post,
        r.adaptive_mae.pre,
        r.adaptive_mae.during,
        r.adaptive_mae.post,
        r.rebuilds,
        r.epochs_shipped,
        r.symbols,
        r.fleet_cutovers,
        r.sweep_combos,
        if r.recovered { "yes" } else { "NO" },
    )
}

/// Unifying view over the two sensor-side encoders.
trait StreamEncoder {
    fn push(&mut self, t: Timestamp, v: f64) -> Result<Vec<SensorMessage>>;
    fn finish(&mut self) -> Vec<SensorMessage>;
}

/// Static encoder that announces its fixed table once up front.
struct StaticEncoder {
    encoder: OnlineEncoder,
    pending_table: Option<LookupTable>,
}

impl StreamEncoder for StaticEncoder {
    fn push(&mut self, t: Timestamp, v: f64) -> Result<Vec<SensorMessage>> {
        let mut msgs = Vec::new();
        if let Some(table) = self.pending_table.take() {
            msgs.push(SensorMessage::Table(table));
        }
        if let Some(w) = self.encoder.push(t, v)? {
            msgs.push(SensorMessage::Window(w));
        }
        Ok(msgs)
    }

    fn finish(&mut self) -> Vec<SensorMessage> {
        self.encoder.finish().map(SensorMessage::Window).into_iter().collect()
    }
}

/// Adaptive encoder that announces its initial table once up front.
struct AdaptiveStream {
    encoder: AdaptiveEncoder,
    pending_table: Option<LookupTable>,
}

impl StreamEncoder for AdaptiveStream {
    fn push(&mut self, t: Timestamp, v: f64) -> Result<Vec<SensorMessage>> {
        let mut msgs = Vec::new();
        if let Some(table) = self.pending_table.take() {
            msgs.push(SensorMessage::Table(table));
        }
        msgs.extend(self.encoder.push(t, v)?);
        Ok(msgs)
    }

    fn finish(&mut self) -> Vec<SensorMessage> {
        self.encoder.finish()
    }
}

/// Error/count accumulator for one phase.
#[derive(Default, Clone, Copy)]
struct PhaseAcc {
    err: f64,
    n: u64,
}

impl PhaseAcc {
    fn mae(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.err / self.n as f64
        }
    }
}

/// Streams a series through an encoder, decodes every window with the table
/// in force at that time (epoch cutovers included), and accumulates absolute
/// error against the batch aggregates, bucketed by phase boundary.
fn reconstruction_phases(
    series: &TimeSeries,
    enc: &mut dyn StreamEncoder,
    cut: Timestamp,
    settle: Timestamp,
) -> Result<([PhaseAcc; 3], u64)> {
    let truth_series =
        sms_core::vertical::aggregate_by_window(series, WINDOW_SECS, Aggregation::Mean, 1)?;
    let mut truth: std::collections::BTreeMap<Timestamp, f64> = truth_series.iter().collect();

    let mut current_table: Option<LookupTable> = None;
    let mut phases = [PhaseAcc::default(); 3];
    let mut symbols = 0u64;
    let mut consume = |msgs: Vec<SensorMessage>,
                       current_table: &mut Option<LookupTable>|
     -> Result<()> {
        for m in msgs {
            match m {
                SensorMessage::Table(t) => *current_table = Some(t),
                SensorMessage::EpochTable { table, .. } => *current_table = Some(table),
                SensorMessage::Window(w) => {
                    let table =
                        current_table.as_ref().ok_or(Error::EmptyInput("window before table"))?;
                    let d = table.decode_symbol(w.symbol, SymbolSemantics::RangeCenter)?;
                    if let Some(actual) = truth.remove(&w.window_start) {
                        let phase = if w.window_start < cut {
                            0
                        } else if w.window_start < settle {
                            1
                        } else {
                            2
                        };
                        phases[phase].err += (actual - d).abs();
                        phases[phase].n += 1;
                        symbols += 1;
                    }
                }
            }
        }
        Ok(())
    };
    for (t, v) in series.iter() {
        let msgs = enc.push(t, v)?;
        consume(msgs, &mut current_table)?;
    }
    let tail = enc.finish();
    consume(tail, &mut current_table)?;
    if symbols == 0 {
        return Err(Error::EmptyInput("reconstruction_phases: no overlapping windows"));
    }
    Ok((phases, symbols))
}

/// Splits a series at timestamp `cut` into (before, from-cut-on) halves.
fn split_at(series: &TimeSeries, cut: Timestamp) -> Result<(TimeSeries, TimeSeries)> {
    let before: Vec<Sample> =
        series.iter().filter(|(t, _)| *t < cut).map(|(t, v)| Sample::new(t, v)).collect();
    let after: Vec<Sample> =
        series.iter().filter(|(t, _)| *t >= cut).map(|(t, v)| Sample::new(t, v)).collect();
    Ok((TimeSeries::from_samples(before)?, TimeSeries::from_samples(after)?))
}

/// Fleet leg: run the drifted fleet through the sharded engine with its
/// drift gate on — a pre-drift batch, then a post-drift batch — and return
/// the cutover houses and the engine's stats over both batches.
fn run_fleet_leg(
    fleet_pre: &[(u64, TimeSeries)],
    fleet_post: &[(u64, TimeSeries)],
    shards: usize,
    workers: usize,
) -> Result<(u64, EngineStats)> {
    let builder = CodecBuilder::new()
        .method(SeparatorMethod::Median)
        .alphabet_size(ALPHABET)?
        .window_secs(WINDOW_SECS);
    let config = ShardedEngineConfig::with_shards(shards)
        .workers(workers)
        .drift(DriftConfig { threshold: THRESHOLD, window: DETECT_WINDOW });
    let mut engine = ShardedFleetEngine::new(builder, config)?;
    let enc_pre = engine.encode_batch(fleet_pre)?;
    let enc_post = engine.encode_batch(fleet_post)?;
    if enc_pre.epochs.iter().any(|&e| e != 0) {
        return Err(Error::Engine("drift gate fired on pre-drift data".into()));
    }
    let cutovers = enc_post.epochs.iter().filter(|&&e| e > 0).count() as u64;
    Ok((cutovers, enc_post.stats))
}

/// Topology sweep: both batches re-run at {1,4,16} shards × {1,2,8} workers
/// must yield identical symbols and identical epoch vectors.
fn sweep_topologies(
    fleet_pre: &[(u64, TimeSeries)],
    fleet_post: &[(u64, TimeSeries)],
) -> Result<usize> {
    let mut reference: Option<(Vec<_>, Vec<u32>, Vec<_>, Vec<u32>)> = None;
    let mut combos = 0usize;
    for shards in [1usize, 4, 16] {
        for workers in [1usize, 2, 8] {
            let builder = CodecBuilder::new()
                .method(SeparatorMethod::Median)
                .alphabet_size(ALPHABET)?
                .window_secs(WINDOW_SECS);
            let config = ShardedEngineConfig::with_shards(shards)
                .workers(workers)
                .drift(DriftConfig { threshold: THRESHOLD, window: DETECT_WINDOW });
            let mut engine = ShardedFleetEngine::new(builder, config)?;
            let pre = engine.encode_batch(fleet_pre)?;
            let post = engine.encode_batch(fleet_post)?;
            let image = (pre.series, pre.epochs, post.series, post.epochs);
            match &reference {
                None => reference = Some(image),
                Some(expected) if *expected == image => {}
                Some(_) => {
                    return Err(Error::Engine(format!(
                        "drift output differs at {shards} shards x {workers} workers — \
                         the cutover leaked topology into the symbols"
                    )));
                }
            }
            combos += 1;
        }
    }
    Ok(combos)
}

/// Runs the drift experiment at `scale` (fleet size and duration derive from
/// it; `shards`/`workers` size the fleet leg's main run).
pub fn run_drift(scale: crate::Scale, shards: usize, workers: usize) -> Result<DriftReport> {
    let days = if scale.days >= 30 { 60 } else { 40 };
    let drift_day = days / 2;
    let houses = scale.houses.clamp(2, 6) as u32;
    let cut = drift_day * SECONDS_PER_DAY;
    // Adaptation-lag span: detection takes up to 2× the detector window of
    // post-drift samples (the effective window must fill with them), and the
    // first rebuild can land on a window straddling the cut — the corrective
    // rebuild is then gated by the min-interval (one more window). "during"
    // covers that whole lag; "post" is steady state.
    let settle = cut + 3 * DETECT_WINDOW as i64 * 1800;

    let ds = cer_drifted(scale.seed, houses, days, drift_day).generate()?;

    let alphabet = Alphabet::with_size(ALPHABET)?;
    let mut static_acc = [PhaseAcc::default(); 3];
    let mut adaptive_acc = [PhaseAcc::default(); 3];
    let mut symbols = 0u64;
    let mut adaptive_stats = AdaptiveStats::default();
    for r in ds.records() {
        let train = r.series.head_duration(TRAIN_DAYS * SECONDS_PER_DAY);
        if train.is_empty() {
            return Err(Error::EmptyInput("run_drift: no training data"));
        }
        let table = LookupTable::learn(SeparatorMethod::Median, alphabet, &train.values())?;

        let mut static_enc = StaticEncoder {
            encoder: OnlineEncoder::new(table.clone(), WINDOW_SECS, Aggregation::Mean)?,
            pending_table: Some(table.clone()),
        };
        let (sp, n) = reconstruction_phases(&r.series, &mut static_enc, cut, settle)?;
        symbols += n;

        let mut adaptive = AdaptiveStream {
            encoder: AdaptiveEncoder::new(
                table.clone(),
                train.values(),
                SeparatorMethod::Median,
                WINDOW_SECS,
                Aggregation::Mean,
                THRESHOLD,
                DETECT_WINDOW,
            )?,
            pending_table: Some(table),
        };
        let (ap, _) = reconstruction_phases(&r.series, &mut adaptive, cut, settle)?;
        adaptive_stats.merge(&adaptive.encoder.stats());

        for i in 0..3 {
            static_acc[i].err += sp[i].err;
            static_acc[i].n += sp[i].n;
            adaptive_acc[i].err += ap[i].err;
            adaptive_acc[i].n += ap[i].n;
        }
    }

    // Fleet legs: drift gate through the sharded engine + topology sweep.
    let mut fleet_pre = Vec::with_capacity(ds.records().len());
    let mut fleet_post = Vec::with_capacity(ds.records().len());
    for r in ds.records() {
        let (before, after) = split_at(&r.series, cut)?;
        fleet_pre.push((r.house_id as u64, before));
        fleet_post.push((r.house_id as u64, after));
    }
    let (fleet_cutovers, mut stats) =
        run_fleet_leg(&fleet_pre, &fleet_post, shards.max(1), workers.max(1))?;
    let sweep_combos = sweep_topologies(&fleet_pre, &fleet_post)?;

    // The adaptive block adds the per-house encoder leg to the engine's.
    let adaptive = stats.adaptive.get_or_insert_with(AdaptiveStats::default);
    adaptive.merge(&adaptive_stats);
    let static_mae = PhaseMae {
        pre: static_acc[0].mae(),
        during: static_acc[1].mae(),
        post: static_acc[2].mae(),
    };
    let adaptive_mae = PhaseMae {
        pre: adaptive_acc[0].mae(),
        during: adaptive_acc[1].mae(),
        post: adaptive_acc[2].mae(),
    };
    let recovered = adaptive_mae.post <= adaptive_mae.pre * 1.05;
    let (rebuilds, epochs_shipped) = (adaptive.rebuilds, adaptive.epochs_shipped);

    Ok(DriftReport {
        houses: houses as usize,
        days,
        drift_day,
        static_mae,
        adaptive_mae,
        rebuilds,
        epochs_shipped,
        symbols,
        fleet_cutovers,
        sweep_combos,
        recovered,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_report() -> DriftReport {
        run_drift(crate::Scale::quick(), 2, 2).unwrap()
    }

    #[test]
    fn adaptation_recovers_where_the_static_table_degrades() {
        let r = quick_report();
        assert!(r.symbols > 100);
        assert!(
            r.static_mae.post > r.static_mae.pre * 1.3,
            "static table should degrade measurably: pre {} post {}",
            r.static_mae.pre,
            r.static_mae.post
        );
        assert!(
            r.recovered,
            "adaptive post-drift MAE {} should be within 5% of pre-drift {}",
            r.adaptive_mae.post, r.adaptive_mae.pre
        );
        assert!(
            r.adaptive_mae.post < r.static_mae.post,
            "adaptation should beat the static table post-drift: {} vs {}",
            r.adaptive_mae.post,
            r.static_mae.post
        );
        assert!(r.rebuilds >= r.houses as u64, "every house should rebuild at least once");
        assert_eq!(r.rebuilds, r.epochs_shipped);
    }

    #[test]
    fn fleet_drift_gate_cuts_every_house_across_all_topologies() {
        let r = quick_report();
        assert_eq!(r.fleet_cutovers, r.houses as u64, "every house cuts to a new epoch");
        assert_eq!(r.sweep_combos, 9, "{{1,4,16}} shards x {{1,2,8}} workers");
        let a = r.stats.adaptive.as_ref().unwrap();
        assert!(a.sketch_bytes > 0, "sketch memory is reported");
        // O(log n) witness: sketches stay far below the raw sample footprint.
        assert!(
            a.sketch_bytes < 64 * 1024 * (2 * r.houses as u64),
            "bounded sketch memory, got {}",
            a.sketch_bytes
        );
        let json = r.to_json();
        assert!(json.contains("\"recovered\":1"), "json: {json}");
        assert!(render_drift(&r).contains("adaptation lag"));
    }
}
