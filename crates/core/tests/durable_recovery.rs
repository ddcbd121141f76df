//! Property tests for the crash-safe durability layer: whatever the
//! crash point, short write, or torn (even bit-flipped) WAL tail, recovery
//! must reconstruct exactly a committed prefix of the append stream —
//! covering every acknowledged record — and the recovered store must be
//! byte-identical to an uncrashed reference holding that prefix, at full
//! resolution and at every truncated resolution `r ∈ 1..=b`. The same law
//! must hold for workloads produced by the sharded engine at 1, 2 and 8
//! workers (whose output is required to be worker-count independent), and
//! for records that carry separator epochs.

use proptest::prelude::*;
use sms_core::durable::{DurableConfig, DurableStore, FaultPlan, FaultStorage, Storage};
use sms_core::error::Result;
use sms_core::horizontal::SymbolicSeries;
use sms_core::pipeline::CodecBuilder;
use sms_core::segstore::{SegmentStore, STORE_MAGIC};
use sms_core::separators::SeparatorMethod;
use sms_core::shard::{splitmix64, ShardedEngineConfig, ShardedFleetEngine};
use sms_core::symbol::Symbol;
use sms_core::timeseries::TimeSeries;

/// Builds one house's series from `(bits, ranks)`: regular timestamps,
/// 900 s interval.
fn series_from_ranks(bits: u8, ranks: &[u16]) -> SymbolicSeries {
    let mut s = SymbolicSeries::new(bits).unwrap();
    for (i, r) in ranks.iter().enumerate() {
        let sym = Symbol::from_rank(r % (1 << bits), bits).unwrap();
        s.push(i as i64 * 900, sym).unwrap();
    }
    s
}

/// Uncrashed reference store over the first `j` records.
fn prefix_store(records: &[(u64, SymbolicSeries)], j: usize) -> SegmentStore {
    let mut store = SegmentStore::new();
    for (house, series) in &records[..j] {
        store.append(*house, series).unwrap();
    }
    store
}

/// Runs the append workload against `storage` until it finishes or the
/// planned crash fires, reporting the acknowledged (durable) record count.
fn run_workload(
    storage: &mut FaultStorage,
    config: DurableConfig,
    records: &[(u64, SymbolicSeries)],
) -> u64 {
    let mut acked = 0u64;
    let mut go = || -> Result<()> {
        let (mut ds, _) = DurableStore::open(&mut *storage, config)?;
        for (house, series) in records {
            match ds.append(*house, series) {
                Ok(_) => acked = ds.durable_records(),
                Err(e) => {
                    acked = ds.durable_records();
                    return Err(e);
                }
            }
        }
        let out = ds.commit();
        acked = ds.durable_records();
        out
    };
    let _ = go();
    acked
}

/// Recovers from the post-crash surviving bytes and checks the prefix law:
/// `j >= acked`, byte-identity at full resolution, and truncated-read
/// identity at every `r ∈ 1..=bits` for every recovered house.
fn check_recovery(
    storage: &FaultStorage,
    config: DurableConfig,
    records: &[(u64, SymbolicSeries)],
    acked: u64,
) -> std::result::Result<(), TestCaseError> {
    let (mut recovered, report) = DurableStore::open(storage.crash_view(), config)
        .map_err(|e| TestCaseError::fail(format!("recovery must never fail, got: {e}")))?;
    let j = recovered.durable_records();
    prop_assert!(
        j >= acked && j <= records.len() as u64,
        "recovered {j} records, acked {acked} of {}",
        records.len()
    );
    prop_assert!(
        report.replayed <= j,
        "report claims {} replayed records but only {} recovered",
        report.replayed,
        j
    );
    let mut reference = prefix_store(records, j as usize);
    prop_assert!(
        recovered.store().to_bytes() == reference.to_bytes(),
        "recovered image differs from the {j}-record reference"
    );
    for (house, series) in &records[..j as usize] {
        for r in 1..=series.resolution_bits() {
            let got = recovered
                .store_mut()
                .read_truncated(*house, i64::MIN, i64::MAX, r)
                .map_err(|e| TestCaseError::fail(format!("truncated read failed: {e}")))?;
            let want = reference
                .read_truncated(*house, i64::MIN, i64::MAX, r)
                .map_err(|e| TestCaseError::fail(format!("reference read failed: {e}")))?;
            prop_assert!(
                got.symbols() == want.symbols() && got.timestamps() == want.timestamps(),
                "house {} diverges at {} bits after recovery",
                house,
                r
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workloads, random commit/checkpoint cadence, random crash
    /// point with a short-written, possibly bit-flipped torn tail: recovery
    /// always lands on a committed prefix covering every acknowledged
    /// record, byte-identical to the reference at every resolution.
    #[test]
    fn torn_tail_recovery_is_a_committed_prefix(
        houses in prop::collection::vec(prop::collection::vec(0u16..64, 1..12), 1..10),
        bits in 2u8..=6,
        group_commit in 1usize..=5,
        checkpoint_every in 0u64..=9,
        crash_at in 1u64..=80,
        short_write_keep in prop::sample::select(vec![None, Some(0u64), Some(3), Some(17)]),
        corrupt_torn_byte in prop::bool::ANY,
        tear_seed in 0u64..=u64::MAX,
    ) {
        let records: Vec<(u64, SymbolicSeries)> = houses
            .iter()
            .enumerate()
            .map(|(h, ranks)| (h as u64, series_from_ranks(bits, ranks)))
            .collect();
        let config = DurableConfig::default()
            .group_commit(group_commit)
            .checkpoint_every(checkpoint_every);
        let plan = FaultPlan {
            crash_at_op: Some(crash_at),
            short_write_keep,
            tear_seed,
            corrupt_torn_byte,
        };
        let mut storage = FaultStorage::with_plan(plan);
        let acked = run_workload(&mut storage, config, &records);
        check_recovery(&storage, config, &records, acked)?;
    }
}

/// The byte range of the last chunk in a `ckpt.log`. Each chunk is a
/// 20-byte header (generation `u64`, image length `u64`, CRC32 of those
/// 16 bytes) and then the image.
fn newest_chunk(log: &[u8]) -> std::ops::Range<usize> {
    let mut span = 0..0;
    while span.end < log.len() {
        let at = span.end;
        let len = u64::from_le_bytes(log[at + 8..at + 16].try_into().unwrap()) as usize;
        span = at..at + 20 + len;
    }
    span
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workloads at a random checkpoint cadence, all committed,
    /// then one byte of the newest checkpoint chunk flipped: recovery falls
    /// back to the chunks before it, replays the WALs kept for that, and
    /// returns every committed record, byte-identical to the reference.
    #[test]
    fn corrupt_newest_chunk_loses_no_committed_record(
        houses in prop::collection::vec(prop::collection::vec(0u16..64, 1..12), 1..16),
        bits in 2u8..=6,
        group_commit in 1usize..=5,
        checkpoint_every in 1u64..=6,
        flip_at in 0u64..=u64::MAX,
        flip_bit in 0u8..8,
    ) {
        let records: Vec<(u64, SymbolicSeries)> = houses
            .iter()
            .enumerate()
            .map(|(h, ranks)| (h as u64, series_from_ranks(bits, ranks)))
            .collect();
        let config = DurableConfig::default()
            .group_commit(group_commit)
            .checkpoint_every(checkpoint_every);
        let mut storage = FaultStorage::new();
        let acked = run_workload(&mut storage, config, &records);
        prop_assert_eq!(acked, records.len() as u64);

        let checkpoints = records.len() as u64 / checkpoint_every;
        if checkpoints > 0 {
            let mut log = storage.read("ckpt.log").unwrap();
            let span = newest_chunk(&log);
            log[span.start + (flip_at % span.len() as u64) as usize] ^= 1 << flip_bit;
            storage.truncate("ckpt.log", 0).unwrap();
            storage.append("ckpt.log", &log).unwrap();
        }
        let (recovered, report) = DurableStore::open(storage, config)
            .map_err(|e| TestCaseError::fail(format!("recovery must not fail, got: {e}")))?;
        prop_assert_eq!(report.fallbacks, (checkpoints > 0) as u64);
        prop_assert_eq!(recovered.durable_records(), records.len() as u64);
        prop_assert!(
            recovered.store().to_bytes() == prefix_store(&records, records.len()).to_bytes(),
            "recovered image differs from the reference of every record"
        );
    }
}

/// One record of an epoch workload: house, separator epoch, series.
type EpochRecord = (u64, u32, SymbolicSeries);

/// [`series_from_ranks`] starting at `start` instead of 0.
fn series_at(bits: u8, start: i64, ranks: &[u16]) -> SymbolicSeries {
    let s = series_from_ranks(bits, ranks);
    let timestamps = s.timestamps().iter().map(|t| t + start).collect();
    SymbolicSeries::from_parts(bits, timestamps, s.symbols().to_vec()).unwrap()
}

/// Uncrashed reference store over the first `j` epoch records.
fn epoch_prefix_store(records: &[EpochRecord], j: usize) -> SegmentStore {
    let mut store = SegmentStore::new();
    for (house, epoch, series) in &records[..j] {
        store.append_epoch(*house, *epoch, series).unwrap();
    }
    store
}

/// [`run_workload`] through `DurableStore::append_epoch`.
fn run_epoch_workload(
    storage: &mut FaultStorage,
    config: DurableConfig,
    records: &[EpochRecord],
) -> u64 {
    let mut acked = 0u64;
    let mut go = || -> Result<()> {
        let (mut ds, _) = DurableStore::open(&mut *storage, config)?;
        for (house, epoch, series) in records {
            let appended = ds.append_epoch(*house, *epoch, series);
            acked = ds.durable_records();
            appended?;
        }
        let out = ds.commit();
        acked = ds.durable_records();
        out
    };
    let _ = go();
    acked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The torn-tail law for records at separator epochs 0–3, several
    /// segments to a house: recovery lands on a committed prefix whose
    /// SMS2 image, epochs included, is byte-identical to the reference,
    /// and every house reports the reference's epochs.
    #[test]
    fn epoch_records_recover_a_committed_prefix(
        segments in prop::collection::vec(
            (prop::collection::vec(0u16..64, 1..12), 0u32..=3),
            1..12,
        ),
        bits in 2u8..=6,
        group_commit in 1usize..=5,
        checkpoint_every in 0u64..=9,
        crash_at in 1u64..=80,
        short_write_keep in prop::sample::select(vec![None, Some(0u64), Some(3), Some(17)]),
        corrupt_torn_byte in prop::bool::ANY,
        tear_seed in 0u64..=u64::MAX,
    ) {
        let records: Vec<EpochRecord> = segments
            .iter()
            .enumerate()
            .map(|(i, (ranks, epoch))| {
                ((i % 3) as u64, *epoch, series_at(bits, i as i64 * 86_400, ranks))
            })
            .collect();
        let config = DurableConfig::default()
            .group_commit(group_commit)
            .checkpoint_every(checkpoint_every);
        let plan = FaultPlan {
            crash_at_op: Some(crash_at),
            short_write_keep,
            tear_seed,
            corrupt_torn_byte,
        };
        let mut storage = FaultStorage::with_plan(plan);
        let acked = run_epoch_workload(&mut storage, config, &records);

        let (recovered, _) = DurableStore::open(storage.crash_view(), config)
            .map_err(|e| TestCaseError::fail(format!("recovery must never fail, got: {e}")))?;
        let j = recovered.durable_records();
        prop_assert!(
            j >= acked && j <= records.len() as u64,
            "recovered {j} records, acked {acked} of {}",
            records.len()
        );
        let reference = epoch_prefix_store(&records, j as usize);
        let image = recovered.store().to_bytes();
        prop_assert!(&image[..4] == STORE_MAGIC, "recovered image is not SMS2");
        prop_assert!(
            image == reference.to_bytes(),
            "recovered image differs from the {j}-record reference"
        );
        for house in 0..3u64 {
            prop_assert_eq!(recovered.store().house_epochs(house), reference.house_epochs(house));
        }
    }
}

/// Exhaustive crash-point sweep over an engine-encoded workload, at every
/// worker count in {1, 2, 8}: the encode must be worker-independent, and
/// every crash point must recover to a byte-identical committed prefix.
#[test]
fn every_op_crash_sweep_is_worker_independent() {
    const HOUSES: usize = 10;
    let fleet: Vec<(u64, TimeSeries)> = (0..HOUSES)
        .map(|h| {
            let values: Vec<f64> = (0..48)
                .map(|i| 50.0 + (splitmix64(h as u64 ^ (i << 8)) % 4000) as f64 / 10.0)
                .collect();
            (h as u64, TimeSeries::from_regular(0, 900, &values).unwrap())
        })
        .collect();
    let builder = || {
        CodecBuilder::new()
            .method(SeparatorMethod::Median)
            .alphabet_size(16)
            .unwrap()
            .no_aggregation()
    };

    let mut reference_series: Option<Vec<SymbolicSeries>> = None;
    for workers in [1usize, 2, 8] {
        let config = ShardedEngineConfig::with_shards(4).workers(workers);
        let mut engine = ShardedFleetEngine::new(builder(), config).unwrap();
        let enc = engine.encode_batch(&fleet).unwrap();
        assert!(enc.quarantined.is_empty());
        match &reference_series {
            None => reference_series = Some(enc.series.clone()),
            Some(reference) => {
                for (a, b) in reference.iter().zip(&enc.series) {
                    assert_eq!(a.symbols(), b.symbols(), "{workers} workers changed the encode");
                }
            }
        }
        let records: Vec<(u64, SymbolicSeries)> = (0..HOUSES as u64).zip(enc.series).collect();
        let config = DurableConfig::default().group_commit(3).checkpoint_every(4);

        // Uncrashed run to count the ops the sweep must cover.
        let mut clean = FaultStorage::new();
        let acked = run_workload(&mut clean, config, &records);
        assert_eq!(acked, records.len() as u64);
        let total_ops = clean.ops();

        for crash_at in 1..=total_ops {
            let mut plan = FaultPlan::crash_at(crash_at, crash_at.wrapping_mul(0x9E37));
            if crash_at % 3 == 0 {
                plan.short_write_keep = Some(crash_at % 11);
            }
            if crash_at % 2 == 0 {
                plan.corrupt_torn_byte = true;
            }
            let mut storage = FaultStorage::with_plan(plan);
            let acked = run_workload(&mut storage, config, &records);
            check_recovery(&storage, config, &records, acked)
                .unwrap_or_else(|e| panic!("workers {workers}, crash at op {crash_at}: {e}"));
        }
    }
}
