//! Dirty-data sanitization for untrusted meter readings.
//!
//! The paper's pipeline (Def. 2/3 segmentation → symbols → ML) assumes
//! clean, regular REDD-style input; a production fleet gets neither. Real
//! meter streams carry NaN/∞ payloads from firmware glitches, negative
//! power from miswired CTs, duplicate and out-of-order timestamps from
//! retransmitting gateways, gap spans from outages, and absurd spikes when
//! a register resets. This module is the trust boundary between those raw
//! readings and the encoder, which (since this PR) *enforces* finiteness at
//! [`crate::timeseries::TimeSeries::push`].
//!
//! A [`Sanitizer`] walks a series once, classifies each sample against the
//! defect taxonomy ([`Defect`]), and applies the per-defect [`Policy`]
//! configured in [`SanitizerConfig`]:
//!
//! * [`Policy::Reject`] — fail the whole series with
//!   [`Error::DataQuality`]; under the engine's
//!   [`QuarantinePolicy::Isolate`](crate::engine::QuarantinePolicy) that
//!   quarantines the house instead of aborting the fleet run.
//! * [`Policy::Drop`] — silently discard the offending sample (counted).
//! * [`Policy::Clamp`] — coerce the value to the nearest plausible bound.
//! * [`Policy::FillForward`] — repair with the previous accepted value
//!   (or, for gaps, synthesize carried-forward samples on the nominal
//!   grid).
//! * [`Policy::MarkMissing`] — keep the span out of the data but record it
//!   in [`QualityReport::missing_spans`] so downstream day-coverage filters
//!   (§3.1's ≥ 20 h rule) can account for it.
//!
//! Everything is deterministic: one input always produces one output and
//! one [`QualityReport`], independent of worker count or scheduling —
//! sanitization runs *before* the parallel encode stage precisely so
//! quarantine decisions are reproducible.

use crate::error::{Error, Result};
use crate::json::JsonWriter;
use crate::telemetry::{Log2Histogram, Registry};
use crate::timeseries::{Sample, TimeSeries, Timestamp};

/// The defect taxonomy the sanitizer can detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// NaN or ±∞ value.
    NonFinite,
    /// Negative power reading (miswired CT, sign glitch).
    NegativePower,
    /// Same timestamp as the previous sample.
    DuplicateTimestamp,
    /// Timestamp earlier than the previous sample.
    OutOfOrderTimestamp,
    /// Consecutive timestamps further apart than the configured tolerance
    /// (builds on [`TimeSeries::gaps`]).
    Gap,
    /// Value above the plausibility ceiling (meter register reset/rollover).
    ResetSpike,
}

impl Defect {
    /// Stable lowercase name used in error messages and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Defect::NonFinite => "non_finite",
            Defect::NegativePower => "negative_power",
            Defect::DuplicateTimestamp => "duplicate_timestamp",
            Defect::OutOfOrderTimestamp => "out_of_order_timestamp",
            Defect::Gap => "gap",
            Defect::ResetSpike => "reset_spike",
        }
    }
}

/// What to do when a sample exhibits a given [`Defect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Fail the series with [`Error::DataQuality`] at the first offending
    /// sample (strictest; the default for nothing).
    Reject,
    /// Discard the offending sample and continue.
    #[default]
    Drop,
    /// Coerce the value to the nearest plausible bound: `0.0` for negative
    /// power, the plausibility ceiling for reset spikes, the previous
    /// accepted value for non-finite readings (falls back to `Drop` when
    /// there is no previous sample). Timestamp defects (duplicate,
    /// out-of-order, gap) have no value to clamp and degrade to `Drop`.
    Clamp,
    /// Repair using the last accepted sample: value defects take its value
    /// (falling back to `Drop` at series start); duplicate timestamps keep
    /// the *newest* reading (last-write-wins retransmission semantics);
    /// gaps are bridged with synthetic carried-forward samples on the
    /// nominal interval grid. Out-of-order samples degrade to `Drop` (there
    /// is no meaningful forward value for a timestamp in the past).
    FillForward,
    /// Like `Drop`, but additionally records the affected span in
    /// [`QualityReport::missing_spans`]. Mostly useful for [`Defect::Gap`],
    /// where nothing is dropped but the outage window is made visible.
    MarkMissing,
}

/// Per-defect policies plus the thresholds that define the defects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizerConfig {
    /// Policy for NaN/±∞ values.
    pub non_finite: Policy,
    /// Policy for negative power readings.
    pub negative_power: Policy,
    /// Policy for duplicated timestamps.
    pub duplicate_timestamp: Policy,
    /// Policy for out-of-order timestamps.
    pub out_of_order: Policy,
    /// Policy for gap spans.
    pub gap: Policy,
    /// Policy for reset spikes.
    pub reset_spike: Policy,
    /// Two consecutive timestamps further apart than this are a [`Defect::Gap`].
    /// `0` disables gap detection entirely.
    pub gap_tolerance_secs: i64,
    /// Grid step for [`Policy::FillForward`] gap bridging; must be positive
    /// when gap filling is enabled.
    pub nominal_interval_secs: i64,
    /// Values above this are [`Defect::ResetSpike`]s. A household main is
    /// physically bounded well below 100 kW.
    pub max_plausible_watts: f64,
}

impl Default for SanitizerConfig {
    /// Repair-oriented defaults: drop what cannot be repaired, fill forward
    /// what can, record gaps as missing spans, never reject.
    fn default() -> Self {
        SanitizerConfig {
            non_finite: Policy::Drop,
            negative_power: Policy::Clamp,
            duplicate_timestamp: Policy::Drop,
            out_of_order: Policy::Drop,
            gap: Policy::MarkMissing,
            reset_spike: Policy::Clamp,
            gap_tolerance_secs: 0,
            nominal_interval_secs: 60,
            max_plausible_watts: 100_000.0,
        }
    }
}

impl SanitizerConfig {
    /// All-[`Policy::Reject`] config: any defect fails the series. The
    /// right choice when dirty data indicates an upstream bug rather than
    /// an expected field condition.
    pub fn strict() -> Self {
        SanitizerConfig {
            non_finite: Policy::Reject,
            negative_power: Policy::Reject,
            duplicate_timestamp: Policy::Reject,
            out_of_order: Policy::Reject,
            gap: Policy::Reject,
            reset_spike: Policy::Reject,
            ..Self::default()
        }
    }

    /// Sets the gap tolerance (`0` disables gap detection).
    pub fn gap_tolerance_secs(mut self, secs: i64) -> Self {
        self.gap_tolerance_secs = secs;
        self
    }

    /// Sets the nominal sampling interval used for gap filling.
    pub fn nominal_interval_secs(mut self, secs: i64) -> Self {
        self.nominal_interval_secs = secs;
        self
    }

    /// Sets the reset-spike plausibility ceiling.
    pub fn max_plausible_watts(mut self, watts: f64) -> Self {
        self.max_plausible_watts = watts;
        self
    }

    fn policy_for(&self, defect: Defect) -> Policy {
        match defect {
            Defect::NonFinite => self.non_finite,
            Defect::NegativePower => self.negative_power,
            Defect::DuplicateTimestamp => self.duplicate_timestamp,
            Defect::OutOfOrderTimestamp => self.out_of_order,
            Defect::Gap => self.gap,
            Defect::ResetSpike => self.reset_spike,
        }
    }
}

/// Per-defect occurrence counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DefectCounts {
    /// NaN/±∞ values seen.
    pub non_finite: u64,
    /// Negative power readings seen.
    pub negative_power: u64,
    /// Duplicated timestamps seen.
    pub duplicate_timestamps: u64,
    /// Out-of-order timestamps seen.
    pub out_of_order: u64,
    /// Gap spans seen.
    pub gaps: u64,
    /// Reset spikes seen.
    pub reset_spikes: u64,
}

impl DefectCounts {
    /// Total defects of any class.
    pub fn total(&self) -> u64 {
        self.non_finite
            + self.negative_power
            + self.duplicate_timestamps
            + self.out_of_order
            + self.gaps
            + self.reset_spikes
    }

    fn bump(&mut self, defect: Defect) {
        match defect {
            Defect::NonFinite => self.non_finite += 1,
            Defect::NegativePower => self.negative_power += 1,
            Defect::DuplicateTimestamp => self.duplicate_timestamps += 1,
            Defect::OutOfOrderTimestamp => self.out_of_order += 1,
            Defect::Gap => self.gaps += 1,
            Defect::ResetSpike => self.reset_spikes += 1,
        }
    }

    fn merge(&mut self, other: &DefectCounts) {
        self.non_finite += other.non_finite;
        self.negative_power += other.negative_power;
        self.duplicate_timestamps += other.duplicate_timestamps;
        self.out_of_order += other.out_of_order;
        self.gaps += other.gaps;
        self.reset_spikes += other.reset_spikes;
    }
}

/// What one sanitization pass found and did for one house.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualityReport {
    /// Samples examined.
    pub samples_in: u64,
    /// Samples surviving sanitization (including synthesized fill samples).
    pub samples_out: u64,
    /// Defects found, by class.
    pub defects: DefectCounts,
    /// Samples discarded.
    pub dropped: u64,
    /// Values coerced to a plausible bound.
    pub clamped: u64,
    /// Samples repaired or synthesized by fill-forward.
    pub filled: u64,
    /// Spans recorded as missing (without repair).
    pub marked_missing: u64,
    /// `(start, end)` timestamp pairs of spans recorded by
    /// [`Policy::MarkMissing`], exclusive of the samples that bound them.
    pub missing_spans: Vec<(Timestamp, Timestamp)>,
}

impl QualityReport {
    /// Whether the pass found nothing to fix.
    pub fn is_clean(&self) -> bool {
        self.defects.total() == 0
    }
}

/// Fleet-level aggregate of [`QualityReport`]s, merged into
/// [`crate::engine::EngineStats`] JSON like the ingest and eval blocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualityStats {
    /// Every house of every batch the block covers, rejected houses
    /// included.
    pub houses: u64,
    /// Houses quarantined (sanitization rejected them, or their encode job
    /// exhausted retries).
    pub quarantined: u64,
    /// Every sample of every house the block counts, rejected houses
    /// included.
    pub samples_in: u64,
    /// Samples surviving across the fleet.
    pub samples_out: u64,
    /// Defects found across the fleet.
    pub defects: DefectCounts,
    /// Samples discarded across the fleet.
    pub dropped: u64,
    /// Values clamped across the fleet.
    pub clamped: u64,
    /// Samples filled across the fleet.
    pub filled: u64,
    /// Spans marked missing across the fleet.
    pub marked_missing: u64,
    /// Wall time of the sanitization pre-pass, seconds.
    pub sanitize_secs: f64,
    /// Distribution of per-house defect totals (one observation per
    /// sanitized house). Rendered through the `"histograms"` section of
    /// [`crate::engine::EngineStats::to_json`], not this block's object.
    pub house_defects: Log2Histogram,
}

crate::telemetry::declare_metrics! {
    QualityStats as quality {
        add houses, "houses", "Every house of every batch the block counts.";
        add quarantined, "houses", "Houses quarantined (dirty data or exhausted retries).";
        add samples_in, "samples", "Every sample of every house the block counts.";
        add samples_out, "samples", "Samples surviving sanitization across the fleet.";
        add defects.non_finite, "defects", "NaN/infinite values seen.";
        add defects.negative_power, "defects", "Negative power readings seen.";
        add defects.duplicate_timestamps, "defects", "Duplicated timestamps seen.";
        add defects.out_of_order, "defects", "Out-of-order timestamps seen.";
        add defects.gaps, "defects", "Gap spans seen.";
        add defects.reset_spikes, "defects", "Reset spikes seen.";
        add dropped, "samples", "Samples discarded across the fleet.";
        add clamped, "samples", "Values clamped across the fleet.";
        add filled, "samples", "Samples repaired or synthesized by fill-forward.";
        add marked_missing, "spans", "Spans marked missing across the fleet.";
        set_f64 sanitize_secs, "seconds", "Wall time of the sanitization pre-pass.";
        merge_histogram house_defects, "defects", "Per-house defect totals found by the sanitizer.";
    }
}

impl QualityStats {
    /// Folds one house's report into the aggregate.
    pub fn merge_report(&mut self, report: &QualityReport) {
        self.houses += 1;
        self.samples_in += report.samples_in;
        self.samples_out += report.samples_out;
        self.defects.merge(&report.defects);
        self.dropped += report.dropped;
        self.clamped += report.clamped;
        self.filled += report.filled;
        self.marked_missing += report.marked_missing;
        self.house_defects.observe(report.defects.total());
    }

    /// JSON object for benchmark trajectories.
    pub fn to_json(&self) -> String {
        let reg = Registry::new();
        self.register_into(&reg);
        let mut w = JsonWriter::new();
        reg.write_block_json(&mut w, "quality");
        w.finish()
    }
}

/// Single-pass series sanitizer; see the module docs for semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sanitizer {
    config: SanitizerConfig,
}

impl Sanitizer {
    /// Sanitizer with the given per-defect policies.
    pub fn new(config: SanitizerConfig) -> Self {
        Sanitizer { config }
    }

    /// The configured policies.
    pub fn config(&self) -> &SanitizerConfig {
        &self.config
    }

    /// Sanitizes a series (which may have been built with
    /// [`TimeSeries::from_samples_unchecked`] and thus violate the clean
    /// invariants), returning the cleaned series and a report of what was
    /// found and done. Fails with [`Error::DataQuality`] at the first
    /// defect whose policy is [`Policy::Reject`].
    pub fn sanitize(&self, series: &TimeSeries) -> Result<(TimeSeries, QualityReport)> {
        self.sanitize_samples(series.samples())
    }

    /// [`sanitize`](Self::sanitize) over a raw sample slice.
    pub fn sanitize_samples(&self, samples: &[Sample]) -> Result<(TimeSeries, QualityReport)> {
        let cfg = &self.config;
        let mut report = QualityReport { samples_in: samples.len() as u64, ..Default::default() };
        let mut kept: Vec<Sample> = Vec::with_capacity(samples.len());

        for (index, &sample) in samples.iter().enumerate() {
            let Sample { t, mut v } = sample;

            // Timestamp defects first: a sample the timeline rejects never
            // gets a say about its value.
            if let Some(last) = kept.last().copied() {
                if t < last.t {
                    match self.apply_timestamp_policy(
                        Defect::OutOfOrderTimestamp,
                        index,
                        &mut report,
                    )? {
                        TimestampAction::Skip => continue,
                        TimestampAction::ReplaceLast => unreachable!("out-of-order never replaces"),
                    }
                }
                if t == last.t {
                    match self.apply_timestamp_policy(
                        Defect::DuplicateTimestamp,
                        index,
                        &mut report,
                    )? {
                        TimestampAction::Skip => continue,
                        TimestampAction::ReplaceLast => {
                            // Last-write-wins: the retransmitted reading
                            // replaces the earlier one, after its own value
                            // checks below.
                            kept.pop();
                        }
                    }
                }
            }

            // Value defects.
            let mut keep_value = true;
            if !v.is_finite() {
                report.defects.bump(Defect::NonFinite);
                match cfg.non_finite {
                    Policy::Reject => {
                        return Err(Error::DataQuality { defect: Defect::NonFinite.name(), index })
                    }
                    Policy::Drop => {
                        report.dropped += 1;
                        keep_value = false;
                    }
                    Policy::Clamp | Policy::FillForward => match kept.last() {
                        Some(prev) => {
                            v = prev.v;
                            report.filled += 1;
                        }
                        None => {
                            report.dropped += 1;
                            keep_value = false;
                        }
                    },
                    Policy::MarkMissing => {
                        report.dropped += 1;
                        report.marked_missing += 1;
                        report.missing_spans.push((t, t));
                        keep_value = false;
                    }
                }
            } else if v < 0.0 {
                report.defects.bump(Defect::NegativePower);
                match cfg.negative_power {
                    Policy::Reject => {
                        return Err(Error::DataQuality {
                            defect: Defect::NegativePower.name(),
                            index,
                        })
                    }
                    Policy::Drop => {
                        report.dropped += 1;
                        keep_value = false;
                    }
                    Policy::Clamp => {
                        v = 0.0;
                        report.clamped += 1;
                    }
                    Policy::FillForward => match kept.last() {
                        Some(prev) => {
                            v = prev.v;
                            report.filled += 1;
                        }
                        None => {
                            report.dropped += 1;
                            keep_value = false;
                        }
                    },
                    Policy::MarkMissing => {
                        report.dropped += 1;
                        report.marked_missing += 1;
                        report.missing_spans.push((t, t));
                        keep_value = false;
                    }
                }
            } else if v > cfg.max_plausible_watts {
                report.defects.bump(Defect::ResetSpike);
                match cfg.reset_spike {
                    Policy::Reject => {
                        return Err(Error::DataQuality { defect: Defect::ResetSpike.name(), index })
                    }
                    Policy::Drop => {
                        report.dropped += 1;
                        keep_value = false;
                    }
                    Policy::Clamp => {
                        v = cfg.max_plausible_watts;
                        report.clamped += 1;
                    }
                    Policy::FillForward => match kept.last() {
                        Some(prev) => {
                            v = prev.v;
                            report.filled += 1;
                        }
                        None => {
                            report.dropped += 1;
                            keep_value = false;
                        }
                    },
                    Policy::MarkMissing => {
                        report.dropped += 1;
                        report.marked_missing += 1;
                        report.missing_spans.push((t, t));
                        keep_value = false;
                    }
                }
            }

            if keep_value {
                kept.push(Sample::new(t, v));
            }
        }

        // Gap pass over the surviving timeline.
        if cfg.gap_tolerance_secs > 0 {
            kept = self.apply_gap_policy(kept, &mut report)?;
        }

        report.samples_out = kept.len() as u64;
        // The kept timeline is non-decreasing and finite by construction,
        // but go through the checked constructor anyway: the sanitizer is
        // the trust boundary, and a future policy bug should fail loudly
        // here rather than corrupt the encoder.
        let clean = TimeSeries::from_samples(kept)?;
        Ok((clean, report))
    }

    fn apply_timestamp_policy(
        &self,
        defect: Defect,
        index: usize,
        report: &mut QualityReport,
    ) -> Result<TimestampAction> {
        report.defects.bump(defect);
        let policy = self.config.policy_for(defect);
        match policy {
            Policy::Reject => Err(Error::DataQuality { defect: defect.name(), index }),
            Policy::FillForward if defect == Defect::DuplicateTimestamp => {
                report.filled += 1;
                Ok(TimestampAction::ReplaceLast)
            }
            Policy::MarkMissing => {
                report.dropped += 1;
                report.marked_missing += 1;
                Ok(TimestampAction::Skip)
            }
            // Clamp and (for out-of-order) FillForward have no meaningful
            // repair for a timestamp defect; degrade to Drop as documented.
            _ => {
                report.dropped += 1;
                Ok(TimestampAction::Skip)
            }
        }
    }

    fn apply_gap_policy(
        &self,
        kept: Vec<Sample>,
        report: &mut QualityReport,
    ) -> Result<Vec<Sample>> {
        let cfg = &self.config;
        let tolerance = cfg.gap_tolerance_secs;
        match cfg.gap {
            Policy::Reject => {
                if let Some(i) = kept.windows(2).position(|w| w[1].t - w[0].t > tolerance) {
                    report.defects.bump(Defect::Gap);
                    return Err(Error::DataQuality { defect: Defect::Gap.name(), index: i + 1 });
                }
                Ok(kept)
            }
            Policy::FillForward => {
                let interval = cfg.nominal_interval_secs.max(1);
                let mut out: Vec<Sample> = Vec::with_capacity(kept.len());
                for sample in kept {
                    if let Some(prev) = out.last().copied() {
                        if sample.t - prev.t > tolerance {
                            report.defects.bump(Defect::Gap);
                            let mut t = prev.t + interval;
                            while t < sample.t {
                                out.push(Sample::new(t, prev.v));
                                report.filled += 1;
                                t += interval;
                            }
                        }
                    }
                    out.push(sample);
                }
                Ok(out)
            }
            // Drop/Clamp/MarkMissing: nothing to remove — the gap *is*
            // absence — so they all reduce to "record it" (MarkMissing also
            // exposes the span).
            policy => {
                for w in kept.windows(2) {
                    if w[1].t - w[0].t > tolerance {
                        report.defects.bump(Defect::Gap);
                        if policy == Policy::MarkMissing {
                            report.marked_missing += 1;
                            report.missing_spans.push((w[0].t, w[1].t));
                        }
                    }
                }
                Ok(kept)
            }
        }
    }
}

enum TimestampAction {
    Skip,
    ReplaceLast,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty(samples: &[(Timestamp, f64)]) -> TimeSeries {
        TimeSeries::from_samples_unchecked(
            samples.iter().map(|&(t, v)| Sample::new(t, v)).collect(),
        )
    }

    #[test]
    fn clean_series_passes_through_untouched() {
        let s = TimeSeries::from_regular(0, 60, &[1.0, 2.0, 3.0]).unwrap();
        let (clean, report) = Sanitizer::default().sanitize(&s).unwrap();
        assert_eq!(clean, s);
        assert!(report.is_clean());
        assert_eq!(report.samples_in, 3);
        assert_eq!(report.samples_out, 3);
    }

    #[test]
    fn strict_rejects_first_defect_with_its_class() {
        let san = Sanitizer::new(SanitizerConfig::strict());
        let err = san.sanitize(&dirty(&[(0, 1.0), (60, f64::NAN)])).unwrap_err();
        assert_eq!(err, Error::DataQuality { defect: "non_finite", index: 1 });
        let err = san.sanitize(&dirty(&[(0, 1.0), (60, -2.0)])).unwrap_err();
        assert_eq!(err, Error::DataQuality { defect: "negative_power", index: 1 });
        let err = san.sanitize(&dirty(&[(0, 1.0), (60, 1e9)])).unwrap_err();
        assert_eq!(err, Error::DataQuality { defect: "reset_spike", index: 1 });
        let err = san.sanitize(&dirty(&[(0, 1.0), (0, 2.0)])).unwrap_err();
        assert_eq!(err, Error::DataQuality { defect: "duplicate_timestamp", index: 1 });
        let err = san.sanitize(&dirty(&[(60, 1.0), (0, 2.0)])).unwrap_err();
        assert_eq!(err, Error::DataQuality { defect: "out_of_order_timestamp", index: 1 });
    }

    #[test]
    fn strict_rejects_gaps_when_tolerance_set() {
        let san = Sanitizer::new(SanitizerConfig::strict().gap_tolerance_secs(60));
        let err = san.sanitize(&dirty(&[(0, 1.0), (600, 2.0)])).unwrap_err();
        assert_eq!(err, Error::DataQuality { defect: "gap", index: 1 });
        // Tolerance 0 disables detection even under strict().
        let san = Sanitizer::new(SanitizerConfig::strict());
        assert!(san.sanitize(&dirty(&[(0, 1.0), (600, 2.0)])).is_ok());
    }

    #[test]
    fn drop_discards_and_counts() {
        let cfg = SanitizerConfig {
            non_finite: Policy::Drop,
            negative_power: Policy::Drop,
            reset_spike: Policy::Drop,
            ..SanitizerConfig::default()
        };
        let (clean, report) = Sanitizer::new(cfg)
            .sanitize(&dirty(&[(0, 1.0), (60, f64::NAN), (120, -5.0), (180, 1e9), (240, 2.0)]))
            .unwrap();
        assert_eq!(clean.values(), vec![1.0, 2.0]);
        assert_eq!(report.dropped, 3);
        assert_eq!(report.defects.non_finite, 1);
        assert_eq!(report.defects.negative_power, 1);
        assert_eq!(report.defects.reset_spikes, 1);
        assert_eq!(report.samples_out, 2);
    }

    #[test]
    fn clamp_coerces_to_plausible_bounds() {
        let cfg = SanitizerConfig {
            negative_power: Policy::Clamp,
            reset_spike: Policy::Clamp,
            max_plausible_watts: 1000.0,
            ..SanitizerConfig::default()
        };
        let (clean, report) =
            Sanitizer::new(cfg).sanitize(&dirty(&[(0, -3.0), (60, 5000.0), (120, 7.0)])).unwrap();
        assert_eq!(clean.values(), vec![0.0, 1000.0, 7.0]);
        assert_eq!(report.clamped, 2);
    }

    #[test]
    fn fill_forward_repairs_value_defects() {
        let cfg = SanitizerConfig { non_finite: Policy::FillForward, ..SanitizerConfig::default() };
        let (clean, report) = Sanitizer::new(cfg)
            .sanitize(&dirty(&[(0, f64::NAN), (60, 4.0), (120, f64::NAN), (180, 6.0)]))
            .unwrap();
        // Leading NaN has nothing to carry forward → dropped.
        assert_eq!(clean.values(), vec![4.0, 4.0, 6.0]);
        assert_eq!(report.filled, 1);
        assert_eq!(report.dropped, 1);
    }

    #[test]
    fn duplicate_policies_pick_a_winner() {
        // Drop keeps the first reading.
        let (clean, _) =
            Sanitizer::default().sanitize(&dirty(&[(0, 1.0), (0, 2.0), (60, 3.0)])).unwrap();
        assert_eq!(clean.values(), vec![1.0, 3.0]);
        // FillForward keeps the newest (last-write-wins retransmission).
        let cfg =
            SanitizerConfig { duplicate_timestamp: Policy::FillForward, ..Default::default() };
        let (clean, report) =
            Sanitizer::new(cfg).sanitize(&dirty(&[(0, 1.0), (0, 2.0), (60, 3.0)])).unwrap();
        assert_eq!(clean.values(), vec![2.0, 3.0]);
        assert_eq!(report.defects.duplicate_timestamps, 1);
    }

    #[test]
    fn out_of_order_is_dropped_not_reordered() {
        let (clean, report) = Sanitizer::default()
            .sanitize(&dirty(&[(0, 1.0), (120, 2.0), (60, 9.0), (180, 3.0)]))
            .unwrap();
        assert_eq!(clean.timestamps(), vec![0, 120, 180]);
        assert_eq!(report.defects.out_of_order, 1);
        assert_eq!(report.dropped, 1);
    }

    #[test]
    fn gap_fill_forward_bridges_on_the_nominal_grid() {
        let cfg = SanitizerConfig::default().gap_tolerance_secs(60).nominal_interval_secs(60);
        let cfg = SanitizerConfig { gap: Policy::FillForward, ..cfg };
        let (clean, report) =
            Sanitizer::new(cfg).sanitize(&dirty(&[(0, 5.0), (240, 9.0)])).unwrap();
        assert_eq!(clean.timestamps(), vec![0, 60, 120, 180, 240]);
        assert_eq!(clean.values(), vec![5.0, 5.0, 5.0, 5.0, 9.0]);
        assert_eq!(report.defects.gaps, 1);
        assert_eq!(report.filled, 3);
        assert_eq!(report.samples_out, 5);
    }

    #[test]
    fn gap_mark_missing_records_span_without_repair() {
        let cfg = SanitizerConfig::default().gap_tolerance_secs(60); // gap: MarkMissing default
        let (clean, report) =
            Sanitizer::new(cfg).sanitize(&dirty(&[(0, 5.0), (600, 9.0)])).unwrap();
        assert_eq!(clean.len(), 2, "nothing dropped or synthesized");
        assert_eq!(report.missing_spans, vec![(0, 600)]);
        assert_eq!(report.marked_missing, 1);
        assert_eq!(report.defects.gaps, 1);
    }

    #[test]
    fn combined_dirt_is_cleaned_in_one_pass() {
        // NaN run + duplicate + out-of-order + spike + negative, all at once.
        let (clean, report) = Sanitizer::default()
            .sanitize(&dirty(&[
                (0, 10.0),
                (60, f64::NAN),
                (60, f64::NAN),
                (120, 11.0),
                (90, 99.0),
                (180, -4.0),
                (240, 5e8),
                (300, 12.0),
            ]))
            .unwrap();
        // Defaults: NaN dropped, duplicate dropped, out-of-order dropped,
        // negative clamped to 0, spike clamped to ceiling.
        assert_eq!(clean.timestamps(), vec![0, 120, 180, 240, 300]);
        assert_eq!(clean.values(), vec![10.0, 11.0, 0.0, 100_000.0, 12.0]);
        assert!(!report.is_clean());
        assert_eq!(report.samples_in, 8);
        assert_eq!(report.samples_out, 5);
        // Output honors the clean-series invariants.
        assert!(TimeSeries::from_samples(clean.samples().to_vec()).is_ok());
    }

    #[test]
    fn empty_series_is_clean() {
        let (clean, report) = Sanitizer::default().sanitize(&TimeSeries::new()).unwrap();
        assert!(clean.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn quality_stats_aggregate_and_serialize() {
        let mut stats = QualityStats::default();
        let (_, r1) = Sanitizer::default().sanitize(&dirty(&[(0, 1.0), (60, f64::NAN)])).unwrap();
        let (_, r2) = Sanitizer::default().sanitize(&dirty(&[(0, -1.0)])).unwrap();
        stats.merge_report(&r1);
        stats.merge_report(&r2);
        stats.quarantined = 1;
        assert_eq!(stats.houses, 2);
        assert_eq!(stats.samples_in, 3);
        assert_eq!(stats.defects.non_finite, 1);
        assert_eq!(stats.defects.negative_power, 1);
        let json = stats.to_json();
        for key in [
            "houses",
            "quarantined",
            "defects",
            "non_finite",
            "dropped",
            "clamped",
            "sanitize_secs",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }

    #[test]
    fn sanitize_is_deterministic() {
        let input = dirty(&[(0, 1.0), (60, f64::NAN), (60, 2.0), (30, 3.0), (120, -1.0)]);
        let a = Sanitizer::default().sanitize(&input).unwrap();
        let b = Sanitizer::default().sanitize(&input).unwrap();
        assert_eq!(a, b);
    }
}
