//! Dirty-data quarantine under fire: the `quality` experiment.
//!
//! The paper assumes every house hands the encoder a clean, gap-free,
//! monotone series; real fleets don't. This experiment generates a synthetic
//! fleet, corrupts a seeded subset of houses at the *sample* level (NaN
//! runs, gaps, duplicated runs, reset spikes via
//! [`FaultInjector`]), arms a seeded
//! panic plan against another subset, and pushes the whole thing through
//! [`FleetEngine`] under [`QuarantinePolicy::Isolate`] with a sanitizing
//! pre-pass and a retry schedule. The run must complete without aborting:
//! repairable defects are repaired and counted, unrepairable houses land in
//! [`FleetEncoding::quarantined`](sms_core::engine::FleetEncoding::quarantined)
//! with reasons, panicking jobs recover through supervised retries, and the
//! merged [`EngineStats`] JSON (pool + quality blocks) is printed by
//! `repro quality [--faults]`.

use std::collections::BTreeSet;

use crate::ingest_exp::FaultInjector;
use crate::scale::Scale;
use meterdata::generator::fleet_series;
use sms_core::engine::{
    EngineConfig, EngineStats, FleetEngine, PanicPlan, QuarantinePolicy, Quarantined,
};
use sms_core::error::Result;
use sms_core::pipeline::CodecBuilder;
use sms_core::pool::RetryPolicy;
use sms_core::quality::{Policy, SanitizerConfig};
use sms_core::separators::SeparatorMethod;
use sms_core::timeseries::{Sample, TimeSeries};

/// How many series faults each corrupted house receives. One each keeps
/// the cycling schedule spreading every defect class across the corrupted
/// set: NaN houses quarantine, gap/duplicate/reset houses get repaired.
const FAULTS_PER_HOUSE: u64 = 1;

/// Outcome of one `quality` experiment run.
#[derive(Debug, Clone)]
pub struct QualityRunReport {
    /// Whether data corruption + panic injection were armed.
    pub faults: bool,
    /// Meters in the fleet.
    pub houses: usize,
    /// Houses whose series were corrupted before encoding (sorted).
    pub corrupted: Vec<usize>,
    /// Houses whose encode jobs were made to panic once (sorted).
    pub panicking: Vec<usize>,
    /// Symbols produced across surviving houses.
    pub symbols_out: u64,
    /// Quarantined houses with reasons, in index order.
    pub quarantined: Vec<Quarantined>,
    /// Engine counters with the `pool` and `quality` blocks set.
    pub stats: EngineStats,
}

/// Runs the generate→corrupt→sanitize→encode pipeline at `scale`.
///
/// With `faults` off this is a clean-fleet baseline (the sanitizer still
/// runs and must report zero defects). With `faults` on, roughly a third of
/// the houses get one series fault each from the cycling schedule, and two
/// of the *clean* houses get a one-shot panic injected into their encode
/// job — recovered by the retry policy, so they still encode. NaN-corrupted
/// houses are quarantined (`non_finite` is the one defect configured to
/// reject); every other defect is repaired in place and counted.
pub fn run_quality(scale: Scale, faults: bool) -> Result<QualityRunReport> {
    let (fleet, corrupted, panicking) = dirty_fleet(scale, faults)?;
    let engine = FleetEngine::new(codec_builder()?, engine_config(scale, &panicking));
    let enc = engine.encode_fleet(&fleet)?;

    let symbols_out = enc.series.iter().map(|s| s.len() as u64).sum();
    Ok(QualityRunReport {
        faults,
        houses: fleet.len(),
        corrupted,
        panicking,
        symbols_out,
        quarantined: enc.quarantined,
        stats: enc.stats,
    })
}

/// The fleet [`run_quality`] encodes at `scale`, with the houses it
/// corrupted and the houses it panic-seeds (both sorted, both empty
/// without `faults`).
fn dirty_fleet(scale: Scale, faults: bool) -> Result<(Vec<TimeSeries>, Vec<usize>, Vec<usize>)> {
    let houses = if scale.days >= 30 { 24 } else { 12 };
    let mut fleet =
        fleet_series(scale.seed, houses as u32, scale.days.clamp(1, 7), scale.interval_secs)?;

    let mut injector = FaultInjector::new(scale.seed ^ 0xDEAD_C0DE);
    let mut corrupted: Vec<usize> = Vec::new();
    let mut panicking: Vec<usize> = Vec::new();
    if faults {
        let dirty = injector.pick_houses(houses, houses / 3);
        let mut nth = 0u64;
        for &h in &dirty {
            let mut samples: Vec<Sample> = fleet[h].samples().to_vec();
            for _ in 0..FAULTS_PER_HOUSE {
                injector.corrupt_series_nth(nth, &mut samples);
                nth += 1;
            }
            // The corrupted samples break the clean-series invariants on
            // purpose; the unchecked constructor is the documented way in.
            fleet[h] = TimeSeries::from_samples_unchecked(samples);
        }
        corrupted = dirty.iter().copied().collect();
        // Panic two clean houses once each: the supervised pool must retry
        // them back to health, not quarantine them.
        let clean: Vec<usize> = (0..houses).filter(|h| !dirty.contains(h)).collect();
        let chosen = injector.pick_houses(clean.len(), 2.min(clean.len()));
        panicking = chosen.iter().map(|&i| clean[i]).collect();
    }
    Ok((fleet, corrupted, panicking))
}

/// The engine settings of [`run_quality`]: two workers, `Isolate`, the
/// sanitizer, three attempts per job, and a one-shot panic for each of the
/// `panicking` houses.
fn engine_config(scale: Scale, panicking: &[usize]) -> EngineConfig {
    // `non_finite` rejects (NaN runs are unrepairable evidence of a broken
    // sensor); everything else follows the repair-oriented defaults. Gap
    // detection is armed at the sampling interval itself, so deleting even
    // a single sample surfaces as a marked-missing span.
    let sanitizer = SanitizerConfig { non_finite: Policy::Reject, ..SanitizerConfig::default() }
        .gap_tolerance_secs(scale.interval_secs)
        .nominal_interval_secs(scale.interval_secs);
    let mut config = EngineConfig::with_workers(2)
        .quarantine(QuarantinePolicy::Isolate)
        .sanitizer(sanitizer)
        .retry(RetryPolicy::with_max_attempts(3).no_backoff());
    if !panicking.is_empty() {
        config = config
            .chaos(PanicPlan { houses: panicking.iter().copied().collect(), panics_per_job: 1 });
    }
    config
}

fn codec_builder() -> Result<CodecBuilder> {
    Ok(CodecBuilder::new().method(SeparatorMethod::Median).alphabet_size(16)?.window_secs(3600))
}

/// Human-readable summary printed by `repro quality`.
pub fn render_quality(r: &QualityRunReport) -> String {
    let q = r.stats.quality.as_ref().expect("run_quality always arms the sanitizer");
    let p = r.stats.pool.as_ref().expect("run_quality always encodes through the pool");
    let mut s = format!(
        "quality: {} houses, {} samples -> {} symbols (faults: {})\n\
         corruption: {} houses corrupted {:?}, {} houses panic-seeded {:?}\n\
         sanitizer: {} defects, {} dropped, {} clamped, {} filled, {} spans marked missing \
         ({} of {} samples survived)\n\
         pool: {} panics caught, {} retries, {} gave up, {} respawns\n\
         quarantine: {} of {} houses",
        r.houses,
        q.samples_in,
        r.symbols_out,
        if r.faults { "on" } else { "off" },
        r.corrupted.len(),
        r.corrupted,
        r.panicking.len(),
        r.panicking,
        q.defects.total(),
        q.dropped,
        q.clamped,
        q.filled,
        q.marked_missing,
        q.samples_out,
        q.samples_in,
        p.panics,
        p.retries,
        p.gave_up,
        p.respawns,
        r.quarantined.len(),
        r.houses,
    );
    for q in &r.quarantined {
        s.push_str(&format!("\n  house {}: {}", q.house, q.reason));
    }
    s
}

/// The houses `run_quality` will corrupt for a given seed — exposed so the
/// determinism tests can predict quarantine membership without re-deriving
/// the injector schedule.
pub fn seeded_dirty_houses(seed: u64, houses: usize) -> BTreeSet<usize> {
    FaultInjector::new(seed ^ 0xDEAD_C0DE).pick_houses(houses, houses / 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_core::engine::QuarantineReason;
    use sms_core::shard::{ShardedEngineConfig, ShardedFleetEngine};

    #[test]
    fn clean_run_has_zero_defects_and_no_quarantine() {
        let mut scale = Scale::quick();
        scale.days = 2;
        let r = run_quality(scale, false).unwrap();
        assert!(r.quarantined.is_empty());
        assert!(r.corrupted.is_empty() && r.panicking.is_empty());
        let q = r.stats.quality.as_ref().unwrap();
        assert_eq!(q.defects.total(), 0);
        assert_eq!(q.samples_in, q.samples_out);
        let p = r.stats.pool.as_ref().unwrap();
        assert_eq!((p.panics, p.retries, p.gave_up), (0, 0, 0));
        assert!(r.symbols_out > 0);
    }

    #[test]
    fn faulted_run_completes_repairs_and_quarantines() {
        let mut scale = Scale::quick();
        scale.days = 2;
        let r = run_quality(scale, true).unwrap();
        assert!(!r.corrupted.is_empty());
        assert_eq!(r.panicking.len(), 2);

        let q = r.stats.quality.as_ref().unwrap();
        assert!(q.defects.total() > 0, "{q:?}");
        assert_eq!(q.quarantined, r.quarantined.len() as u64);
        // The quality block counts the houses the sanitizer rejects, and
        // their samples, as the engine block does.
        assert_eq!((q.houses, q.samples_in), (r.stats.houses as u64, r.stats.samples_in));
        // The fault schedule cycles NaN first, so at least one house is
        // guaranteed to carry unrepairable non-finite data.
        assert!(!r.quarantined.is_empty());
        // Quarantines only ever come from the corrupted set, and each one is
        // the sanitizer rejecting non-finite data.
        for quarantined in &r.quarantined {
            assert!(r.corrupted.contains(&quarantined.house), "{quarantined:?}");
            assert!(
                matches!(quarantined.reason, QuarantineReason::DirtyData(_)),
                "{quarantined:?}"
            );
        }

        // Both panic-seeded houses recovered via retry: panics were caught,
        // retried, and nobody gave up.
        let p = r.stats.pool.as_ref().unwrap();
        assert_eq!(p.panics, 2, "{p:?}");
        assert_eq!(p.retries, 2, "{p:?}");
        assert_eq!(p.gave_up, 0, "{p:?}");

        let json = r.stats.to_json();
        for key in ["\"pool\"", "\"quality\"", "\"panics\"", "\"quarantined\"", "\"defects\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let rendered = render_quality(&r);
        assert!(rendered.contains("faults: on"));
        assert!(rendered.contains("panics caught"));
    }

    /// The sharded engine runs `repro quality --faults`' dirty fleet under
    /// the same sanitizer, retries and chaos plan: every topology returns
    /// the front's series, quarantine list, epochs and quality counters.
    #[test]
    fn sharded_engine_matches_the_front_on_the_dirty_fleet_at_every_topology() {
        let mut scale = Scale::quick();
        scale.days = 2;
        let (fleet, corrupted, panicking) = dirty_fleet(scale, true).unwrap();
        assert!(!corrupted.is_empty());
        assert_eq!(panicking.len(), 2);
        let config = engine_config(scale, &panicking);
        let front = FleetEngine::new(codec_builder().unwrap(), config.clone())
            .encode_fleet(&fleet)
            .unwrap();
        assert!(!front.quarantined.is_empty());
        let without_secs = |stats: &EngineStats| {
            let mut q = stats.quality.expect("the sanitizer ran");
            q.sanitize_secs = 0.0;
            q
        };

        let batch: Vec<(u64, TimeSeries)> =
            fleet.iter().enumerate().map(|(i, ts)| (i as u64, ts.clone())).collect();
        for shards in [1usize, 4, 16] {
            for workers in [1usize, 2, 8] {
                let engine = EngineConfig { workers, ..config.clone() };
                let sharded = ShardedEngineConfig { shards, engine, ..Default::default() };
                let enc = ShardedFleetEngine::new(codec_builder().unwrap(), sharded)
                    .unwrap()
                    .encode_batch(&batch)
                    .unwrap();
                let at = format!("{shards} shards x {workers} workers");
                assert_eq!(enc.series, front.series, "{at}");
                assert_eq!(enc.quarantined, front.quarantined, "{at}");
                assert_eq!(enc.epochs, front.epochs, "{at}");
                assert_eq!(without_secs(&enc.stats), without_secs(&front.stats), "{at}");
                let pool = enc.stats.pool.expect("pool block");
                assert_eq!((pool.panics, pool.retries, pool.gave_up), (2, 2, 0), "{at}");
            }
        }
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let mut scale = Scale::quick();
        scale.days = 2;
        let a = run_quality(scale, true).unwrap();
        let b = run_quality(scale, true).unwrap();
        assert_eq!(a.corrupted, b.corrupted);
        assert_eq!(a.panicking, b.panicking);
        assert_eq!(a.quarantined, b.quarantined);
        assert_eq!(a.symbols_out, b.symbols_out);
        let expected: BTreeSet<usize> = a.corrupted.iter().copied().collect();
        assert_eq!(seeded_dirty_houses(scale.seed, a.houses), expected);
    }
}
