//! The durable byte formats, pinned by files an earlier build wrote.
//!
//! Each directory under `tests/corpus/durable/` is a store's files as a
//! build wrote them: the manifest, checkpoints and WALs. The test copies
//! a directory into a [`FaultStorage`], so no committed file is opened for
//! writing, opens a [`DurableStore`] over it and checks two pinned values:
//! the [`RecoveryReport`], and the segment count with a CRC32 digest of
//! the recovered store's image. The files are never regenerated. A format
//! change adds a directory with its own pins and edits no old one.
//!
//! Directories written before checkpoints became chunks of one
//! append-only `ckpt.log`:
//! * `gen2`: generation 2, with the full images `ckpt-…1.img` and
//!   `ckpt-…2.img` and a `wal-…2.log` holding one epoch-0 record and one
//!   record at epoch 7;
//! * `gen2-torn-wal`: the same with the WAL cut in the middle of its
//!   second record;
//! * `gen0-epochless`: generation 0, no checkpoint, and a WAL of epoch-0
//!   records, which keep the layout logs had before records carried an
//!   epoch.
//!
//! Directories in the chunked layout:
//! * `chunked-gen3`: generation 3, with three chunks in `ckpt.log`, the
//!   `wal-…2.log` kept for a fallback and a `wal-…3.log`, over records at
//!   epochs 0, 3, 7 and 9.

use std::path::Path;

use smart_meter_symbolics::core::durable::{
    crc32, DurableConfig, DurableStore, FaultStorage, RecoveryReport, Storage,
};
use smart_meter_symbolics::core::error::Error;
use smart_meter_symbolics::core::horizontal::SymbolicSeries;
use smart_meter_symbolics::core::symbol::Symbol;

/// The files of corpus directory `case`, each created, written and synced
/// in a fresh in-memory backend, in name order.
fn load(case: &str) -> FaultStorage {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/durable").join(case);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut storage = FaultStorage::new();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        storage.open(name).unwrap();
        storage.append(name, &bytes).unwrap();
        storage.sync(name).unwrap();
    }
    storage.sync_dir().unwrap();
    storage
}

/// Segment count and the CRC32 of the store image before its footer. The
/// image ends with the CRC32 of what precedes it, so the CRC32 of the
/// whole image is the same constant (`0x2144DF1C`) for every store.
fn digest<S: Storage>(store: &DurableStore<S>) -> (usize, u32) {
    let image = store.store().to_bytes();
    (store.store().segment_count(), crc32(&image[..image.len() - 4]))
}

fn report(generation: u64, replayed: u64, discarded: u64) -> RecoveryReport {
    RecoveryReport {
        recovered: true,
        generation,
        replayed,
        discarded,
        chunks_discarded: 0,
        fallbacks: 0,
    }
}

#[test]
fn directories_of_full_image_checkpoints_recover_to_their_pins() {
    let cases: [(&str, RecoveryReport, (usize, u32)); 3] = [
        ("gen2", report(2, 2, 0), (6, 0xDF9F_5BA4)),
        ("gen2-torn-wal", report(2, 1, 1), (5, 0x325C_39A7)),
        ("gen0-epochless", report(0, 3, 0), (3, 0x25F7_FFC6)),
    ];
    for (case, want_report, want_digest) in cases {
        let (store, got) = DurableStore::open(load(case), DurableConfig::default())
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(got, want_report, "{case}: recovery report");
        assert_eq!(digest(&store), want_digest, "{case}: segments and image crc32");
    }
}

#[test]
fn chunked_directory_recovers_to_its_pins() {
    let (store, got) = DurableStore::open(load("chunked-gen3"), DurableConfig::default()).unwrap();
    assert_eq!(got, report(3, 2, 0));
    assert_eq!(digest(&store), (8, 0xCFAB_CF0A));
}

/// Flips one bit of byte `at` of `file`, counted from its end when
/// negative.
fn flip(storage: &mut FaultStorage, file: &str, at: isize) {
    let mut bytes = storage.read(file).unwrap();
    let at = if at < 0 { bytes.len() - at.unsigned_abs() } else { at as usize };
    bytes[at] ^= 0x10;
    storage.truncate(file, 0).unwrap();
    storage.append(file, &bytes).unwrap();
}

#[test]
fn a_corrupt_newest_chunk_falls_back_and_keeps_every_record() {
    let mut storage = load("chunked-gen3");
    flip(&mut storage, "ckpt.log", -1);
    let (store, got) = DurableStore::open(storage, DurableConfig::default()).unwrap();
    assert_eq!(got, RecoveryReport { generation: 2, replayed: 4, fallbacks: 1, ..report(0, 0, 0) });
    assert_eq!(digest(&store), (8, 0xCFAB_CF0A));
}

#[test]
fn a_corrupt_newest_full_image_is_a_typed_error_that_changes_no_file() {
    // The build that wrote `gen2` removed wal-1 at checkpoint 2, so no
    // fallback to checkpoint 1 can hold the records after it.
    let mut storage = load("gen2");
    flip(&mut storage, "ckpt-0000000000000002.img", 40);
    let before = format!("{storage:?}");
    let err = DurableStore::open(&mut storage, DurableConfig::default()).map(|_| ()).unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err:?}");
    assert_eq!(format!("{storage:?}"), before);
}

/// A series of `n` 4-bit symbols from `seed`, 900 s apart from `start`.
fn series(seed: u64, start: i64, n: u64) -> SymbolicSeries {
    let ranks = (0..n).map(|i| crc32(&(seed ^ i << 8).to_le_bytes()) as u16 % 16);
    let symbols = ranks.map(|r| Symbol::from_rank(r, 4).unwrap()).collect();
    SymbolicSeries::from_parts(4, (0..n as i64).map(|i| start + i * 900).collect(), symbols)
        .unwrap()
}

#[test]
fn a_full_image_directory_migrates_to_chunks() {
    let config = DurableConfig::default();
    let (mut store, _) = DurableStore::open(load("gen2"), config).unwrap();
    store.append(5, &series(1, 0, 20)).unwrap();
    store.append_epoch(5, 5, &series(2, 86_400, 20)).unwrap();
    // The first checkpoint writes the whole store as its chunk, and keeps
    // checkpoint 2's image and WAL as its fallback.
    store.checkpoint().unwrap();
    let live = store.store().to_bytes();
    let chunk_bytes = store.stats().checkpoint_bytes;
    let mut storage = store.into_storage();
    let names =
        ["ckpt-0000000000000001.img", "ckpt-0000000000000002.img", "wal-0000000000000002.log"];
    assert_eq!(names.map(|n| storage.exists(n)), [false, true, true]);
    assert_eq!(storage.read("ckpt.log").unwrap().len() as u64, chunk_bytes);

    let (mut store, got) = DurableStore::open(storage, config).unwrap();
    assert_eq!(got, report(3, 0, 0));
    assert_eq!(store.store().to_bytes(), live);
    assert_eq!(store.store().segment_count(), 8);
    assert_eq!(store.store().house_epochs(5), vec![0, 5]);

    // The next chunk holds only the new segment: a 20-byte chunk header,
    // then an image of a 20-byte header, one 57-byte meta, 10 bytes of
    // 4-bit symbols and a 4-byte footer. The checkpoint drops the files
    // the first one kept. A record at epoch 9 then replays from the WAL.
    store.append(6, &series(3, 0, 20)).unwrap();
    store.checkpoint().unwrap();
    assert_eq!(store.stats().checkpoint_bytes, 20 + 20 + 57 + 10 + 4);
    store.append_epoch(6, 9, &series(4, 86_400, 20)).unwrap();
    store.commit().unwrap();
    let live = store.store().to_bytes();
    let mut storage = store.into_storage();
    assert_eq!(storage.read("ckpt.log").unwrap().len() as u64, chunk_bytes + 111);
    assert_eq!(names.map(|n| storage.exists(n)), [false, false, false]);
    let (store, got) = DurableStore::open(storage, config).unwrap();
    assert_eq!(got, report(4, 1, 0));
    assert_eq!(store.store().to_bytes(), live);
    assert_eq!(store.store().house_epochs(6), vec![0, 9]);
}
