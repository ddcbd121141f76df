//! Crash-safe durability under the segment store: a write-ahead log,
//! append-only generation-numbered checkpoints, and deterministic
//! recovery.
//!
//! PR 8's [`crate::segstore::SegmentStore`] "persists" only as an
//! in-memory image — a process crash loses every acknowledged symbol,
//! contradicting the gateway's ack-after-commit contract. This module
//! closes that gap with the classic WAL + checkpoint discipline:
//!
//! * [`Storage`] — the backend trait (`open`/`append`/`read`/`sync`/
//!   `rename`/`truncate`/…). [`FsStorage`] implements it over `std::fs`,
//!   keeping one open file per name between calls; [`FaultStorage`] is a
//!   deterministic in-memory double that can fail, short-write, or tear
//!   any operation at the Nth call, so every crash point is replayable
//!   bit-for-bit.
//! * [`DurableStore`] — a [`SegmentStore`] fronted by a WAL of
//!   length-prefixed, CRC32-checksummed records, each built from the
//!   store's packed bytes and carrying the separator epoch when it is not
//!   0, with a group-commit fsync policy ([`DurableConfig::group_commit`])
//!   and periodic checkpoints. A checkpoint appends one checksummed chunk
//!   to the append-only `ckpt.log`: its generation and an `SMS2` image of
//!   the segments stored since the previous checkpoint, so it writes what
//!   changed, not the whole store. Its generation's record in the
//!   manifest commits it. Each generation gets a fresh WAL, and WALs older
//!   than the previous checkpoint are dropped only **after** the new one
//!   is durable.
//! * Recovery ([`DurableStore::open`]) = every chunk up to the manifest's
//!   generation, joined into one store, + WAL replay. A torn WAL tail is
//!   scanned, verified, and truncated at the first bad record — a typed
//!   count in [`RecoveryReport::discarded`], never a panic — and chunks
//!   of uncommitted checkpoints are cut off the same way. A corrupt or
//!   missing newest chunk falls back to the chunks before it and replays
//!   every WAL from their generation on, which are still on disk for
//!   exactly that. Any other unreadable state is a typed [`Error::Io`],
//!   and recovery then changes no file.
//! * [`DurableFleet`] — one durable store per shard behind the
//!   consistent-hash ring of [`crate::shard::ShardRouter`]. A shard whose
//!   backend returns [`Error::Io`] is marked dead; its houses
//!   deterministically re-route to the successor vnodes
//!   ([`crate::shard::ShardRouter::route_alive`]).
//!
//! ## Durability invariants
//!
//! 1. **Acknowledged ⇒ durable.** [`DurableStore::commit`] returns only
//!    after the WAL is fsynced; a record is ack-able to its producer only
//!    after the commit covering it returns `Ok`.
//! 2. **Recovered state is a prefix.** Recovery yields exactly the store
//!    produced by the first `j` appended records for some `j ≥` the
//!    number of committed records — never a reordering, never a torn
//!    segment. The paper's prefix-truncation law makes the check crisp:
//!    the recovered image must be byte-identical to the reference prefix
//!    at **every** resolution `r ∈ 1..=b`.
//! 3. **Checkpoints are atomic.** A checkpoint is visible only after its
//!    chunk (a CRC32-checked header, then an image with the CRC32 footer
//!    of [`SegmentStore::to_bytes`]) is appended to `ckpt.log` and
//!    synced, and its generation appended to the manifest and synced. So
//!    recovery trusts every chunk up to a manifest-listed generation,
//!    cuts off any later one, and can fall back one checkpoint because
//!    the WALs it needs are kept until the next checkpoint is durable.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

use crate::error::{Error, Result};
use crate::horizontal::SymbolicSeries;
use crate::segstore::{parse_image, ImagePart, SegmentMeta, SegmentStore};
use crate::shard::ShardRouter;

// --- CRC32 ----------------------------------------------------------------

/// The CRC32 (IEEE 802.3, reflected, `0xEDB88320`) lookup tables for
/// slicing-by-8, built at compile time — the workspace has no crates.io
/// access, so the checksum is hand-rolled here and shared by the WAL, the
/// manifest, the checkpoint chunks and the segment-store image footer.
/// `CRC32_TABLES[0]` is the bytewise table; `CRC32_TABLES[k][b]` is the
/// CRC register after byte `b` followed by `k` zero bytes, so eight
/// lookups advance the register over eight bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC32 (IEEE) of `data`.
///
/// ```
/// // Check value from the CRC catalogue: crc32("123456789") = 0xCBF43926.
/// assert_eq!(sms_core::durable::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[w[4] as usize]
            ^ t2[w[5] as usize]
            ^ t1[w[6] as usize]
            ^ t0[w[7] as usize];
    }
    for &b in words.remainder() {
        c = t0[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- storage backends -----------------------------------------------------

/// A flat-namespace storage backend: named append-only-ish files in one
/// directory. Every mutating call may return [`Error::Io`]; callers must
/// then treat the backend as torn until recovery re-opens it.
pub trait Storage {
    /// Creates `file` empty if it does not exist (leaves existing content
    /// intact). The new directory entry is durable only after
    /// [`sync_dir`](Self::sync_dir).
    fn open(&mut self, file: &str) -> Result<()>;
    /// Appends `data` to `file`. Durable only after [`sync`](Self::sync).
    fn append(&mut self, file: &str, data: &[u8]) -> Result<()>;
    /// The full content of `file`.
    fn read(&mut self, file: &str) -> Result<Vec<u8>>;
    /// Whether `file` exists (metadata-only; never fault-injected).
    fn exists(&self, file: &str) -> bool;
    /// Makes `file`'s content durable (fsync).
    fn sync(&mut self, file: &str) -> Result<()>;
    /// Makes pending namespace changes (creates, renames, removes)
    /// durable (fsync of the directory).
    fn sync_dir(&mut self) -> Result<()>;
    /// Atomically replaces `to` with `from`. Durable only after
    /// [`sync_dir`](Self::sync_dir).
    fn rename(&mut self, from: &str, to: &str) -> Result<()>;
    /// Truncates `file` to `len` bytes.
    fn truncate(&mut self, file: &str, len: u64) -> Result<()>;
    /// Removes `file` if present. Durable only after
    /// [`sync_dir`](Self::sync_dir).
    fn remove(&mut self, file: &str) -> Result<()>;
}

impl<S: Storage + ?Sized> Storage for &mut S {
    fn open(&mut self, file: &str) -> Result<()> {
        (**self).open(file)
    }
    fn append(&mut self, file: &str, data: &[u8]) -> Result<()> {
        (**self).append(file, data)
    }
    fn read(&mut self, file: &str) -> Result<Vec<u8>> {
        (**self).read(file)
    }
    fn exists(&self, file: &str) -> bool {
        (**self).exists(file)
    }
    fn sync(&mut self, file: &str) -> Result<()> {
        (**self).sync(file)
    }
    fn sync_dir(&mut self) -> Result<()> {
        (**self).sync_dir()
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        (**self).rename(from, to)
    }
    fn truncate(&mut self, file: &str, len: u64) -> Result<()> {
        (**self).truncate(file, len)
    }
    fn remove(&mut self, file: &str) -> Result<()> {
        (**self).remove(file)
    }
}

fn io_err(op: &str, file: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{op} {file}: {e}"))
}

/// [`Storage`] over a real directory via `std::fs`.
///
/// Holds one open [`File`] per name it opened or wrote, and `append` and
/// `sync` go through that handle instead of reopening the file per call.
/// A held handle writes at its own cursor, which starts at the file's end
/// and moves only with its own writes. So `rename`, `remove` and
/// `truncate` drop the handles of every name they touch: after a rename
/// the old name's handle would write into the renamed file, and after a
/// truncate it would write past the new end. The next use of a dropped
/// name reopens it, and only [`Storage::open`] creates a missing file, as
/// in [`FaultStorage`]: `append` and `sync` on a missing file fail.
#[derive(Debug)]
pub struct FsStorage {
    root: PathBuf,
    handles: BTreeMap<String, File>,
}

impl FsStorage {
    /// A backend rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err("create_dir_all", &root.display().to_string(), e))?;
        Ok(FsStorage { root, handles: BTreeMap::new() })
    }

    fn path(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }

    /// The held handle of `file`. Without one, opens the file for writing
    /// with the cursor at its end, creating it only if `create`. A held
    /// handle means the name still refers to the file it opened.
    fn handle(&mut self, file: &str, create: bool) -> Result<&mut File> {
        if !self.handles.contains_key(file) {
            let mut f = OpenOptions::new()
                .create(create)
                .write(true)
                .open(self.path(file))
                .map_err(|e| io_err("open", file, e))?;
            f.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", file, e))?;
            self.handles.insert(file.to_string(), f);
        }
        Ok(self.handles.get_mut(file).expect("handle held"))
    }
}

impl Storage for FsStorage {
    fn open(&mut self, file: &str) -> Result<()> {
        self.handle(file, true).map(|_| ())
    }

    fn append(&mut self, file: &str, data: &[u8]) -> Result<()> {
        self.handle(file, false)?.write_all(data).map_err(|e| io_err("append", file, e))
    }

    fn read(&mut self, file: &str) -> Result<Vec<u8>> {
        std::fs::read(self.path(file)).map_err(|e| io_err("read", file, e))
    }

    fn exists(&self, file: &str) -> bool {
        self.path(file).exists()
    }

    fn sync(&mut self, file: &str) -> Result<()> {
        self.handle(file, false)?.sync_all().map_err(|e| io_err("sync", file, e))
    }

    fn sync_dir(&mut self) -> Result<()> {
        // Windows cannot open a directory as a File; directory sync is a
        // POSIX notion. Failing soft there would hide bugs on the platform
        // CI actually runs on, so only non-Unix downgrades to a no-op.
        #[cfg(unix)]
        {
            File::open(&self.root)
                .and_then(|f| f.sync_all())
                .map_err(|e| io_err("sync_dir", &self.root.display().to_string(), e))
        }
        #[cfg(not(unix))]
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.handles.remove(from);
        self.handles.remove(to);
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| io_err("rename", from, e))
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<()> {
        self.handles.remove(file);
        let f = OpenOptions::new()
            .write(true)
            .open(self.path(file))
            .map_err(|e| io_err("open", file, e))?;
        f.set_len(len).map_err(|e| io_err("truncate", file, e))
    }

    fn remove(&mut self, file: &str) -> Result<()> {
        self.handles.remove(file);
        match std::fs::remove_file(self.path(file)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", file, e)),
        }
    }
}

/// A deterministic fault plan for [`FaultStorage`]: which mutating call
/// fails, and what the injected crash leaves behind.
///
/// Plans are plain data so [`sms_bench`'s fault
/// injector](../../sms_bench/ingest_exp) can generate them from the same
/// seeded machinery as its stream/series faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// 1-based index of the mutating call that fails (the "crash"). Every
    /// later mutating call also fails. `None` = never fail.
    pub crash_at_op: Option<u64>,
    /// If the crashing call is an `append`, persist this many of its bytes
    /// (a short write) before failing. `None` = the crashing append writes
    /// nothing.
    pub short_write_keep: Option<u64>,
    /// Seed deciding, per file, how much of the un-synced tail survives
    /// into [`FaultStorage::crash_view`] — the torn-tail dial.
    pub tear_seed: u64,
    /// Additionally flip one bit in the last surviving un-synced byte, so
    /// torn tails exercise the CRC path, not just the length check.
    pub corrupt_torn_byte: bool,
}

impl FaultPlan {
    /// A plan that crashes at mutating call `op` (1-based) with `seed`
    /// driving tail survival.
    pub fn crash_at(op: u64, seed: u64) -> Self {
        FaultPlan { crash_at_op: Some(op), tear_seed: seed, ..FaultPlan::default() }
    }
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    synced_len: usize,
}

/// Deterministic in-memory [`Storage`] with fault injection.
///
/// Models a crash-consistent device: content synced via [`Storage::sync`]
/// and namespace changes synced via [`Storage::sync_dir`] survive a
/// crash; anything newer may be lost or torn. Mutating calls are counted,
/// and the call whose 1-based index equals
/// [`FaultPlan::crash_at_op`] fails with [`Error::Io`] — as does every
/// mutating call after it. [`crash_view`](Self::crash_view) then produces
/// the storage a restarted process would find, with un-synced tails
/// deterministically torn by [`FaultPlan::tear_seed`].
#[derive(Debug, Clone, Default)]
pub struct FaultStorage {
    /// Live namespace: name → file id.
    live: BTreeMap<String, u64>,
    /// Namespace at the last `sync_dir` — what a crash preserves.
    durable: BTreeMap<String, u64>,
    /// File contents by id (never garbage-collected; ids are unique).
    contents: BTreeMap<u64, MemFile>,
    next_id: u64,
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
}

impl FaultStorage {
    /// Fault-free storage (useful as the recovery target of
    /// [`crash_view`](Self::crash_view)).
    pub fn new() -> Self {
        FaultStorage::default()
    }

    /// Storage that fails per `plan`.
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultStorage { plan, ..FaultStorage::default() }
    }

    /// Mutating calls observed so far (the sweep axis of `repro crash`).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Counts one mutating call; returns the injected error at and after
    /// the planned crash point.
    fn tick(&mut self, op: &str) -> Result<()> {
        if self.crashed {
            return Err(Error::Io(format!("{op}: storage crashed (injected)")));
        }
        self.ops += 1;
        if Some(self.ops) == self.plan.crash_at_op {
            self.crashed = true;
            return Err(Error::Io(format!("{op}: injected crash at op {}", self.ops)));
        }
        Ok(())
    }

    fn live_file(&mut self, file: &str) -> Result<&mut MemFile> {
        let id = *self.live.get(file).ok_or_else(|| Error::Io(format!("{file}: no such file")))?;
        Ok(self.contents.get_mut(&id).expect("live id has content"))
    }

    /// The storage a restarted process finds after the crash: the durable
    /// namespace, each file cut to its synced length plus a
    /// `tear_seed`-determined prefix of its un-synced tail (optionally
    /// with one flipped bit). Deterministic — the same plan and history
    /// always yield the same view. The view itself is fault-free.
    pub fn crash_view(&self) -> FaultStorage {
        let mut out = FaultStorage::new();
        for (name, &id) in &self.durable {
            let f = &self.contents[&id];
            let unsynced = f.data.len() - f.synced_len;
            let survive = if unsynced == 0 {
                0
            } else {
                let mut h = self.plan.tear_seed ^ crc32(name.as_bytes()) as u64;
                h = crate::shard::splitmix64(h);
                (h % (unsynced as u64 + 1)) as usize
            };
            let mut data = f.data[..f.synced_len + survive].to_vec();
            if self.plan.corrupt_torn_byte && survive > 0 {
                let at = data.len() - 1;
                data[at] ^= 1;
            }
            let new_id = out.next_id;
            out.next_id += 1;
            out.contents.insert(new_id, MemFile { synced_len: data.len(), data });
            out.live.insert(name.clone(), new_id);
            out.durable.insert(name.clone(), new_id);
        }
        out
    }
}

impl Storage for FaultStorage {
    fn open(&mut self, file: &str) -> Result<()> {
        self.tick("open")?;
        if !self.live.contains_key(file) {
            let id = self.next_id;
            self.next_id += 1;
            self.contents.insert(id, MemFile::default());
            self.live.insert(file.to_string(), id);
        }
        Ok(())
    }

    fn append(&mut self, file: &str, data: &[u8]) -> Result<()> {
        if let Err(e) = self.tick("append") {
            // The crashing append may short-write a prefix before failing.
            if self.ops == self.plan.crash_at_op.unwrap_or(0) {
                if let Some(keep) = self.plan.short_write_keep {
                    let keep = (keep as usize).min(data.len());
                    if let Ok(f) = self.live_file(file) {
                        f.data.extend_from_slice(&data[..keep]);
                    }
                }
            }
            return Err(e);
        }
        self.live_file(file)?.data.extend_from_slice(data);
        Ok(())
    }

    fn read(&mut self, file: &str) -> Result<Vec<u8>> {
        Ok(self.live_file(file)?.data.clone())
    }

    fn exists(&self, file: &str) -> bool {
        self.live.contains_key(file)
    }

    fn sync(&mut self, file: &str) -> Result<()> {
        self.tick("sync")?;
        let f = self.live_file(file)?;
        f.synced_len = f.data.len();
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<()> {
        self.tick("sync_dir")?;
        self.durable = self.live.clone();
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.tick("rename")?;
        let id =
            self.live.remove(from).ok_or_else(|| Error::Io(format!("{from}: no such file")))?;
        self.live.insert(to.to_string(), id);
        Ok(())
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<()> {
        self.tick("truncate")?;
        let f = self.live_file(file)?;
        let len = (len as usize).min(f.data.len());
        f.data.truncate(len);
        f.synced_len = f.synced_len.min(len);
        Ok(())
    }

    fn remove(&mut self, file: &str) -> Result<()> {
        self.tick("remove")?;
        self.live.remove(file);
        Ok(())
    }
}

// --- WAL + manifest wire formats ------------------------------------------

/// Manifest file name (append-only generation records).
const MANIFEST: &str = "MANIFEST";
/// The append-only checkpoint file: one chunk per checkpoint, created at
/// the first one.
const CKPT_LOG: &str = "ckpt.log";

/// The full store image a checkpoint wrote before checkpoints became
/// chunks of [`CKPT_LOG`]. Recovery still loads it, and a later
/// checkpoint removes it.
fn ckpt_name(generation: u64) -> String {
    format!("ckpt-{generation:016x}.img")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:016x}.log")
}

/// One WAL/manifest record header: payload length then CRC32 of the
/// payload, both LE u32.
const RECORD_HEADER: usize = 8;

fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of scanning a record stream: byte offset of the last valid
/// record's end, the valid payload slices, and whether a bad/torn record
/// stopped the scan.
struct RecordScan<'a> {
    payloads: Vec<&'a [u8]>,
    valid_len: u64,
    torn: bool,
}

/// Scans `len | crc | payload` records, stopping (never panicking) at the
/// first record whose length runs past the buffer or whose CRC fails.
fn scan_records(buf: &[u8]) -> RecordScan<'_> {
    let mut payloads = Vec::new();
    let mut at = 0usize;
    while buf.len() - at >= RECORD_HEADER {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let want = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
        let Some(end) = at.checked_add(RECORD_HEADER).and_then(|s| s.checked_add(len)) else {
            return RecordScan { payloads, valid_len: at as u64, torn: true };
        };
        if end > buf.len() {
            return RecordScan { payloads, valid_len: at as u64, torn: true };
        }
        let payload = &buf[at + RECORD_HEADER..end];
        if crc32(payload) != want {
            return RecordScan { payloads, valid_len: at as u64, torn: true };
        }
        payloads.push(payload);
        at = end;
    }
    RecordScan { payloads, valid_len: at as u64, torn: at != buf.len() }
}

/// Header of a checkpoint chunk: generation (`u64` LE), image length
/// (`u64` LE), and the CRC32 of those 16 bytes (`u32` LE). The `SMS2`
/// image that follows carries its own CRC32 footer.
const CHUNK_HEADER: usize = 8 + 8 + 4;

/// The committed checkpoint chunks at the head of [`CKPT_LOG`].
struct ChunkChain<'a> {
    /// The parsed image of each chunk, in file order.
    parts: Vec<ImagePart<'a>>,
    /// Generation of the last chunk (`0` when there is none).
    generation: u64,
    /// Bytes those chunks take: what follows is torn, corrupt or
    /// uncommitted.
    valid_len: u64,
}

/// The generation and length of the chunk at the head of `buf`, when its
/// header checks out and its image fits in `buf`.
fn chunk_frame(buf: &[u8]) -> Option<(u64, usize)> {
    let header = buf.get(..CHUNK_HEADER)?;
    let generation = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    if crc32(&header[..16]) != crc {
        return None;
    }
    let end = usize::try_from(len).ok()?.checked_add(CHUNK_HEADER)?;
    (end <= buf.len()).then_some((generation, end))
}

/// Scans `buf` chunk by chunk, stopping (never panicking) at the first
/// chunk whose header or image fails its checksum or its checks, whose
/// generation does not rise, or whose generation is above `newest`, the
/// manifest's (an uncommitted checkpoint).
fn scan_chunks(buf: &[u8], newest: u64) -> ChunkChain<'_> {
    let mut chain = ChunkChain { parts: Vec::new(), generation: 0, valid_len: 0 };
    let mut at = 0usize;
    while let Some((generation, len)) = chunk_frame(&buf[at..]) {
        if generation <= chain.generation || generation > newest {
            break;
        }
        let Ok(part) = parse_image(&buf[at + CHUNK_HEADER..at + len]) else {
            break;
        };
        chain.parts.push(part);
        chain.generation = generation;
        at += len;
        chain.valid_len = at as u64;
    }
    chain
}

/// The uncommitted and torn chunks in `tail`, the bytes of [`CKPT_LOG`]
/// after its committed chain: one per chunk whose header checks out, whose
/// image fits and whose generation is above `newest`, plus one for a
/// remainder that is no whole chunk. A committed chunk there is corrupt,
/// and the fallback it causes counts it instead: so when recovery `fell
/// back`, a tail that does not even start with a whole chunk starts with
/// that committed chunk, its header damaged, and counts nothing.
fn uncommitted_chunks(tail: &[u8], newest: u64, fell_back: bool) -> u64 {
    let (mut count, mut at) = (0, 0);
    while let Some((generation, len)) = chunk_frame(&tail[at..]) {
        count += u64::from(generation > newest);
        at += len;
    }
    count + u64::from(at < tail.len() && !(fell_back && at == 0))
}

/// Fixed prefix of a WAL segment record:
/// `house u64 | start i64 | interval i64 | count u64 | bits u8`.
const WAL_SEG_FIXED: usize = 8 + 8 + 8 + 8 + 1;

/// Size of the separator epoch (`u32` LE) that follows the packed symbols
/// of a record whose epoch is not 0. Epoch-0 records omit it, so they keep
/// the byte layout of the epoch-less log.
const WAL_EPOCH_BYTES: usize = 4;

/// The framed WAL record (`len | crc32 | payload`) of a stored segment,
/// built in one allocation from its meta and its packed arena bytes: the
/// symbols are packed once, by the store.
fn segment_record(meta: &SegmentMeta, packed: &[u8]) -> Result<Vec<u8>> {
    let epoch_bytes = if meta.epoch == 0 { 0 } else { WAL_EPOCH_BYTES };
    let payload_len = WAL_SEG_FIXED + packed.len() + epoch_bytes;
    let len = u32::try_from(payload_len).map_err(|_| {
        Error::Store(format!(
            "a WAL record holds at most 4 GiB, this segment needs {payload_len} B"
        ))
    })?;
    let mut out = Vec::with_capacity(RECORD_HEADER + payload_len);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the payload's CRC32, set below
    out.extend_from_slice(&meta.house.to_le_bytes());
    out.extend_from_slice(&meta.start.to_le_bytes());
    out.extend_from_slice(&meta.interval.to_le_bytes());
    out.extend_from_slice(&meta.count.to_le_bytes());
    out.push(meta.resolution_bits);
    out.extend_from_slice(packed);
    if meta.epoch != 0 {
        out.extend_from_slice(&meta.epoch.to_le_bytes());
    }
    let crc = crc32(&out[RECORD_HEADER..]);
    out[4..RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Decodes a WAL segment payload into its house, separator epoch and
/// series. `count` and `bits` fix the packed size, so the payload's length
/// tells the two forms apart: exactly the packed symbols (epoch 0), or
/// them plus a non-zero epoch.
fn decode_segment(payload: &[u8]) -> Result<(u64, u32, SymbolicSeries)> {
    if payload.len() < WAL_SEG_FIXED {
        return Err(Error::Io(format!("WAL record of {} bytes is too short", payload.len())));
    }
    let house = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let start = i64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let interval = i64::from_le_bytes(payload[16..24].try_into().expect("8 bytes"));
    let count = u64::from_le_bytes(payload[24..32].try_into().expect("8 bytes"));
    let bits = payload[32];
    let count = usize::try_from(count)
        .map_err(|_| Error::Io(format!("WAL record announces {count} symbols")))?;
    let expect = count
        .checked_mul(bits as usize)
        .map(|b| b.div_ceil(8))
        .ok_or_else(|| Error::Io("WAL record payload size overflows".to_string()))?;
    let body = &payload[WAL_SEG_FIXED..];
    let epoch = match body.len().checked_sub(expect) {
        Some(0) => 0,
        Some(WAL_EPOCH_BYTES) => {
            match u32::from_le_bytes(body[expect..].try_into().expect("4 bytes")) {
                0 => return Err(Error::Io("WAL record spells out epoch 0".to_string())),
                epoch => epoch,
            }
        }
        _ => {
            return Err(Error::Io(format!(
                "WAL record holds {} payload bytes, {count} symbols at {bits} bits need {expect} \
                 (or {WAL_EPOCH_BYTES} more with an epoch)",
                body.len()
            )))
        }
    };
    let series = SymbolicSeries::unpack_symbols(&body[..expect], bits, count, start, interval)
        .map_err(|e| Error::Io(format!("WAL record decode: {e}")))?;
    Ok((house, epoch, series))
}

// --- the durable store ----------------------------------------------------

/// Tuning for [`DurableStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Group-commit width: fsync the WAL after this many appended records
    /// (`1` = sync every record). [`DurableStore::commit`] always syncs
    /// whatever is pending.
    pub group_commit: usize,
    /// Take a checkpoint after this many records since the last one
    /// (`0` = only on explicit [`DurableStore::checkpoint`] calls).
    pub checkpoint_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig { group_commit: 32, checkpoint_every: 0 }
    }
}

impl DurableConfig {
    /// Sets the group-commit width (clamped to ≥ 1).
    pub fn group_commit(mut self, records: usize) -> Self {
        self.group_commit = records.max(1);
        self
    }

    /// Sets the automatic checkpoint cadence (`0` disables).
    pub fn checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }
}

/// What [`DurableStore::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether prior on-disk state existed (false = fresh initialization).
    pub recovered: bool,
    /// Generation of the checkpoint the store was rebuilt from (`0` =
    /// no checkpoint, empty base).
    pub generation: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Torn/corrupt tail records discarded from the WAL (the WAL file was
    /// truncated at the first bad record).
    pub discarded: u64,
    /// Uncommitted or torn checkpoint chunks cut off the end of `ckpt.log`
    /// (a corrupt committed chunk, its header or its image damaged, is
    /// counted in `fallbacks` instead).
    pub chunks_discarded: u64,
    /// `1` when the newest checkpoint listed in the manifest was corrupt
    /// or missing, and the store was rebuilt from the one before it plus
    /// every WAL since.
    pub fallbacks: u64,
}

/// Counters for the durability layer; rendered as the `"durable"` block
/// of [`crate::engine::EngineStats::to_json`] and the Prometheus
/// exposition. Every field is a deterministic function of the append
/// sequence and the fault plan — no wall-clock quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableStats {
    /// Records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Bytes appended to the write-ahead log (headers included).
    pub wal_bytes: u64,
    /// Backend sync calls issued (WAL group commits, checkpoint and
    /// manifest syncs, directory syncs).
    pub fsyncs: u64,
    /// Torn/corrupt WAL tail records discarded during recovery.
    pub torn_records_dropped: u64,
    /// Uncommitted or torn checkpoint chunks cut off `ckpt.log` during
    /// recovery.
    pub chunks_dropped: u64,
    /// Checkpoints committed (manifest record durable).
    pub checkpoints: u64,
    /// Bytes appended to checkpoint files (chunk headers included).
    pub checkpoint_bytes: u64,
    /// Recoveries performed over existing on-disk state.
    pub recoveries: u64,
    /// WAL records replayed during recovery.
    pub replayed_records: u64,
    /// Shards marked dead and failed over to successor vnodes.
    pub shard_failovers: u64,
}

crate::telemetry::declare_metrics! {
    DurableStats as durable {
        add wal_appends, "records", "Records appended to the write-ahead log.";
        add wal_bytes, "bytes", "Bytes appended to the write-ahead log, record headers included.";
        add fsyncs, "syncs",
            "Backend sync calls (WAL group commits, checkpoint/manifest/directory syncs).";
        add torn_records_dropped, "records",
            "Torn or corrupt WAL tail records discarded (and truncated away) during recovery.";
        add chunks_dropped, "chunks",
            "Uncommitted or torn checkpoint chunks cut off ckpt.log during recovery.";
        add checkpoints, "checkpoints",
            "Checkpoints committed (chunk appended and synced, manifest record durable).";
        add checkpoint_bytes, "bytes",
            "Bytes appended to checkpoint files, chunk headers included.";
        add recoveries, "recoveries", "Recoveries performed over existing on-disk state at open.";
        add replayed_records, "records",
            "WAL records replayed on top of a checkpoint during recovery.";
        add shard_failovers, "failovers",
            "Shards marked dead after backend I/O errors, houses re-routed to successor vnodes.";
    }
}

impl DurableStats {
    /// Adds `other`'s counters into `self` (for aggregating shards or
    /// sweep iterations).
    pub fn merge(&mut self, other: &DurableStats) {
        self.wal_appends += other.wal_appends;
        self.wal_bytes += other.wal_bytes;
        self.fsyncs += other.fsyncs;
        self.torn_records_dropped += other.torn_records_dropped;
        self.chunks_dropped += other.chunks_dropped;
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.recoveries += other.recoveries;
        self.replayed_records += other.replayed_records;
        self.shard_failovers += other.shard_failovers;
    }
}

/// A [`SegmentStore`] with a write-ahead log and atomic checkpoints on a
/// [`Storage`] backend.
///
/// Appends go WAL-first (in memory second); [`commit`](Self::commit) —
/// called automatically every [`DurableConfig::group_commit`] records —
/// fsyncs the WAL and makes everything appended so far ack-able.
/// [`open`](Self::open) runs recovery. Any backend [`Error::Io`] poisons
/// the store: the in-memory image may then be ahead of the log, so every
/// later call fails and the caller must discard the instance and
/// re-`open` over the (possibly torn) backend.
#[derive(Debug)]
pub struct DurableStore<S: Storage> {
    storage: S,
    store: SegmentStore,
    config: DurableConfig,
    /// File name of the WAL being appended to (its generation's).
    wal: String,
    /// Newest generation ever listed in the manifest (checkpoints continue
    /// from here even after a fallback, so a generation is never reused).
    newest_gen: u64,
    /// Generation of the newest checkpoint the store is built on: the
    /// last chunk, a full image from before chunks, or `0` for the empty
    /// store. It is below `newest_gen` only after a fallback.
    base_gen: u64,
    /// Segments and arena bytes that the chunks in `ckpt.log` hold; the
    /// next chunk holds the segments after them.
    checkpointed: (usize, u64),
    /// Generations whose WAL or full image may still be on disk, in
    /// order. A checkpoint removes the files of those below `base_gen`.
    retained: Vec<u64>,
    /// Whether this instance made `ckpt.log`'s directory entry durable.
    ckpt_log_synced: bool,
    /// Records appended but not yet covered by a WAL fsync.
    unsynced: u64,
    /// Records durable (covered by a commit) in this store's lifetime plus
    /// everything recovered at open.
    durable_records: u64,
    /// Records appended since the last checkpoint.
    since_checkpoint: u64,
    poisoned: bool,
    stats: DurableStats,
}

impl<S: Storage> DurableStore<S> {
    /// Opens (recovering) or initializes a durable store on `storage`.
    pub fn open(storage: S, config: DurableConfig) -> Result<(Self, RecoveryReport)> {
        let mut this = DurableStore {
            storage,
            store: SegmentStore::new(),
            config,
            wal: wal_name(0),
            newest_gen: 0,
            base_gen: 0,
            checkpointed: (0, 0),
            retained: vec![0],
            ckpt_log_synced: false,
            unsynced: 0,
            durable_records: 0,
            since_checkpoint: 0,
            poisoned: false,
            stats: DurableStats::default(),
        };
        let report = this.recover()?;
        Ok((this, report))
    }

    fn recover(&mut self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        if !self.storage.exists(MANIFEST) {
            // Fresh directory: manifest with generation 0, empty WAL.
            self.storage.open(MANIFEST)?;
            self.storage.append(MANIFEST, &encode_record(&0u64.to_le_bytes()))?;
            self.sync(MANIFEST)?;
            self.storage.open(&self.wal)?;
            self.sync_dir()?;
            return Ok(report);
        }
        report.recovered = true;
        self.stats.recoveries += 1;

        // Everything is read and checked before any file changes, so a
        // recovery that fails leaves the directory as it found it.
        // Manifest: the last valid generation record wins, and commits
        // every chunk up to it.
        let manifest = self.storage.read(MANIFEST)?;
        let manifest_scan = scan_records(&manifest);
        let mut generations: Vec<u64> = manifest_scan
            .payloads
            .iter()
            .filter(|p| p.len() == 8)
            .map(|p| u64::from_le_bytes((*p).try_into().expect("8 bytes")))
            .collect();
        let newest = generations.last().copied().unwrap_or(0);
        generations.retain(|&g| g <= newest);
        generations.push(newest);
        generations.sort_unstable();
        generations.dedup();

        // The base: the chunks up to the newest generation; without chunks,
        // the full image an earlier build wrote at it. If the newest
        // checkpoint is corrupt or missing, fall back to the one before it:
        // the chunks that remain, else the newest older full image, else
        // the empty store at generation 0. `log_cut` is the length to cut
        // `ckpt.log` back to when anything follows the base's chunks, with
        // the count of chunks it cuts off. The file's bytes are dropped
        // before the WALs are read.
        let (base_gen, mut store, in_log, log_cut) = {
            let log = match self.storage.exists(CKPT_LOG) {
                true => self.storage.read(CKPT_LOG)?,
                false => Vec::new(),
            };
            let chain = scan_chunks(&log, newest);
            let (base_gen, store, in_log) = if chain.generation == newest {
                (newest, SegmentStore::from_parts(&chain.parts)?, true)
            } else if let Some(store) =
                chain.parts.is_empty().then(|| self.read_image(newest).ok()).flatten()
            {
                (newest, store, false)
            } else {
                report.fallbacks = 1;
                let older_image = generations
                    .iter()
                    .rev()
                    .find(|&&g| g < newest && self.storage.exists(&ckpt_name(g)));
                match older_image {
                    Some(&g) if chain.parts.is_empty() => (g, self.read_image(g)?, false),
                    _ => (chain.generation, SegmentStore::from_parts(&chain.parts)?, true),
                }
            };
            let log_cut = (log.len() as u64 > chain.valid_len).then(|| {
                let tail = &log[chain.valid_len as usize..];
                (chain.valid_len, uncommitted_chunks(tail, newest, report.fallbacks == 1))
            });
            (base_gen, store, in_log, log_cut)
        };
        let checkpointed =
            if in_log { (store.segment_count(), store.arena_bytes()) } else { (0, 0) };

        // Replay every WAL from the base's generation on, in order. Only
        // the newest may be missing (a crash between the manifest sync and
        // its creation) or torn; a gap or a torn tail in an older one
        // would lose committed records after it.
        let mut newest_wal = None;
        for &g in generations.iter().filter(|&&g| g >= base_gen) {
            let name = wal_name(g);
            if !self.storage.exists(&name) {
                if g == newest {
                    continue;
                }
                return Err(Error::Io(format!(
                    "recovery from checkpoint generation {base_gen} needs {name}, which is gone \
                     (the checkpoint after it is corrupt or missing)"
                )));
            }
            let bytes = self.storage.read(&name)?;
            let scan = scan_records(&bytes);
            if scan.torn && g != newest {
                return Err(Error::Io(format!(
                    "{name} is corrupt after {} records, and newer WALs follow it",
                    scan.payloads.len()
                )));
            }
            for payload in &scan.payloads {
                let (house, epoch, series) = decode_segment(payload)?;
                store.append_epoch(house, epoch, &series)?;
                report.replayed += 1;
            }
            if g == newest {
                newest_wal = Some((scan.torn, scan.valid_len));
            }
        }

        // The plan holds: repair the files. A torn manifest tail and the
        // chunks after the base are cut off, so the next checkpoint appends
        // cleanly; the newest WAL is created if missing and loses its torn
        // tail.
        if manifest_scan.torn {
            self.storage.truncate(MANIFEST, manifest_scan.valid_len)?;
            self.sync(MANIFEST)?;
        }
        if let Some((len, chunks)) = log_cut {
            report.chunks_discarded = chunks;
            self.stats.chunks_dropped += chunks;
            self.storage.truncate(CKPT_LOG, len)?;
            self.sync(CKPT_LOG)?;
        }
        self.wal = wal_name(newest);
        match newest_wal {
            None => {
                self.storage.open(&self.wal)?;
                self.sync_dir()?;
            }
            Some((true, valid_len)) => {
                report.discarded += 1;
                self.stats.torn_records_dropped += 1;
                self.storage.truncate(&self.wal, valid_len)?;
                self.sync_wal()?;
            }
            Some((false, _)) => {}
        }
        report.generation = base_gen;
        self.newest_gen = newest;
        self.base_gen = base_gen;
        self.checkpointed = checkpointed;
        self.retained = generations
            .into_iter()
            .filter(|&g| self.storage.exists(&wal_name(g)) || self.storage.exists(&ckpt_name(g)))
            .collect();
        self.store = store;
        self.stats.replayed_records = report.replayed;
        self.durable_records = self.store.stats().segments_written;
        Ok(report)
    }

    /// The full store image an earlier build checkpointed at `generation`.
    fn read_image(&mut self, generation: u64) -> Result<SegmentStore> {
        let name = ckpt_name(generation);
        let image = self.storage.read(&name)?;
        SegmentStore::from_bytes(&image).map_err(|e| Error::Io(format!("{name}: {e}")))
    }

    fn sync(&mut self, file: &str) -> Result<()> {
        self.storage.sync(file)?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    fn sync_wal(&mut self) -> Result<()> {
        self.storage.sync(&self.wal)?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<()> {
        self.storage.sync_dir()?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    fn guard(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::Io(
                "durable store poisoned by an earlier backend failure; re-open to recover"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Appends `series` as one segment of `house` at epoch 0 (the
    /// pre-drift separator table). See [`append_epoch`](Self::append_epoch).
    pub fn append(&mut self, house: u64, series: &SymbolicSeries) -> Result<usize> {
        self.append_epoch(house, 0, series)
    }

    /// Appends `series` as one segment of `house`, encoded under separator
    /// `epoch`: validates and applies it to the in-memory store, logs it to
    /// the WAL, and group-commits per [`DurableConfig`]. The record is
    /// durable (ack-able) only once a [`commit`](Self::commit) covering it
    /// returns `Ok`, and recovery restores it at its epoch.
    pub fn append_epoch(
        &mut self,
        house: u64,
        epoch: u32,
        series: &SymbolicSeries,
    ) -> Result<usize> {
        self.guard()?;
        // The in-memory append runs first: it owns validation, so the WAL
        // only ever holds records that replay cleanly.
        let id = self.store.append_epoch(house, epoch, series)?;
        let bytes = match self.log_segment(id) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += bytes;
        self.unsynced += 1;
        self.since_checkpoint += 1;
        if self.unsynced >= self.config.group_commit as u64 {
            self.commit()?;
        }
        if self.config.checkpoint_every > 0 && self.since_checkpoint >= self.config.checkpoint_every
        {
            self.checkpoint()?;
        }
        Ok(id)
    }

    /// Writes stored segment `id` to the WAL from its packed arena bytes;
    /// returns the record's size.
    fn log_segment(&mut self, id: usize) -> Result<u64> {
        let (meta, packed) = self.store.segment(id)?;
        let record = segment_record(meta, packed)?;
        self.storage.append(&self.wal, &record)?;
        Ok(record.len() as u64)
    }

    /// Fsyncs the WAL, making every record appended so far durable.
    pub fn commit(&mut self) -> Result<()> {
        self.guard()?;
        if self.unsynced == 0 {
            return Ok(());
        }
        if let Err(e) = self.sync_wal() {
            self.poisoned = true;
            return Err(e);
        }
        self.durable_records += self.unsynced;
        self.unsynced = 0;
        Ok(())
    }

    /// Takes a checkpoint: commits the WAL, appends a chunk holding the
    /// segments stored since the previous checkpoint to `ckpt.log` and
    /// syncs it, appends the new generation to the manifest and syncs it
    /// (the commit point), and only then starts a fresh WAL and drops the
    /// WALs and full images older than the previous checkpoint.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.commit()?;
        let result = self.checkpoint_inner();
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    fn checkpoint_inner(&mut self) -> Result<()> {
        let generation = self.newest_gen + 1;
        let mut chunk = vec![0; CHUNK_HEADER];
        let (segments, arena_bytes) = self.checkpointed;
        self.store.image_since(segments, arena_bytes, &mut chunk);
        let image_len = (chunk.len() - CHUNK_HEADER) as u64;
        chunk[0..8].copy_from_slice(&generation.to_le_bytes());
        chunk[8..16].copy_from_slice(&image_len.to_le_bytes());
        let crc = crc32(&chunk[..16]);
        chunk[16..CHUNK_HEADER].copy_from_slice(&crc.to_le_bytes());
        // `ckpt.log` is created at the first checkpoint, and its directory
        // entry is durable before a manifest record depends on it.
        let first = !self.ckpt_log_synced;
        if first {
            self.storage.open(CKPT_LOG)?;
        }
        self.storage.append(CKPT_LOG, &chunk)?;
        self.stats.checkpoint_bytes += chunk.len() as u64;
        self.sync(CKPT_LOG)?;
        if first {
            self.sync_dir()?;
            self.ckpt_log_synced = true;
        }
        // The manifest record is the commit point: recovery trusts the
        // chunk from here on.
        self.storage.append(MANIFEST, &encode_record(&generation.to_le_bytes()))?;
        self.sync(MANIFEST)?;
        self.stats.checkpoints += 1;
        // Fresh WAL for the new generation. The previous checkpoint is the
        // fallback should this chunk go bad, so the WALs from its
        // generation on stay; older WALs and full images go only now.
        let wal = wal_name(generation);
        self.storage.open(&wal)?;
        let floor = self.base_gen;
        for &g in self.retained.iter().filter(|&&g| g < floor) {
            for name in [wal_name(g), ckpt_name(g)] {
                if self.storage.exists(&name) {
                    self.storage.remove(&name)?;
                }
            }
        }
        self.sync_dir()?;
        self.retained.retain(|&g| g >= floor);
        self.retained.push(generation);
        self.wal = wal;
        self.newest_gen = generation;
        self.base_gen = generation;
        self.checkpointed = (self.store.segment_count(), self.store.arena_bytes());
        self.since_checkpoint = 0;
        Ok(())
    }

    /// The in-memory store (includes records not yet committed).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Mutable access for queries (query methods count stats on `&mut`).
    pub fn store_mut(&mut self) -> &mut SegmentStore {
        &mut self.store
    }

    /// Records covered by a durable commit (recovered + committed). The
    /// ack watermark: everything at or below this count survives a crash.
    pub fn durable_records(&self) -> u64 {
        self.durable_records
    }

    /// Whether an earlier backend failure poisoned this instance.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// This store's durability counters.
    pub fn stats(&self) -> DurableStats {
        self.stats
    }

    /// Consumes the store, returning the backend (e.g. to take a
    /// [`FaultStorage::crash_view`] after a sweep run).
    pub fn into_storage(self) -> S {
        self.storage
    }
}

// --- sharded fleet with failover ------------------------------------------

/// One durable store per shard behind the consistent-hash ring, with
/// deterministic failover: a shard whose backend returns [`Error::Io`] is
/// marked dead and its houses re-route to the next live successor vnode
/// ([`ShardRouter::route_alive`] — a pure function of house id and the
/// alive set, so every replica of a run fails over identically).
///
/// Failover redirects **new appends**; segments already durable on a dead
/// shard are recovered by re-`open`ing its backend, not by migration.
#[derive(Debug)]
pub struct DurableFleet<S: Storage> {
    router: ShardRouter,
    shards: Vec<DurableStore<S>>,
    alive: Vec<bool>,
    failovers: u64,
}

impl<S: Storage> DurableFleet<S> {
    /// A fleet over per-shard stores (one vnode group per store).
    pub fn new(shards: Vec<DurableStore<S>>) -> Result<Self> {
        let router = ShardRouter::new(shards.len())?;
        let alive = vec![true; shards.len()];
        Ok(DurableFleet { router, shards, alive, failovers: 0 })
    }

    /// The ring routing houses to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Per-shard liveness (false = marked dead after a backend failure).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Shards currently marked dead.
    pub fn dead_shards(&self) -> usize {
        self.alive.iter().filter(|a| !**a).count()
    }

    /// The shard index that would serve `house` right now.
    pub fn route(&self, house: u64) -> Option<usize> {
        self.router.route_alive(house, &self.alive)
    }

    /// Borrow one shard's store.
    pub fn shard(&self, shard: usize) -> &DurableStore<S> {
        &self.shards[shard]
    }

    /// Appends to the live shard owning `house` at epoch 0. See
    /// [`append_epoch`](Self::append_epoch).
    pub fn append(&mut self, house: u64, series: &SymbolicSeries) -> Result<usize> {
        self.append_epoch(house, 0, series)
    }

    /// Appends to the live shard owning `house` under separator `epoch`,
    /// failing over across successor vnodes on backend errors. Returns the
    /// shard that took the record. Non-I/O errors (e.g. an irregular
    /// series) propagate without killing any shard.
    pub fn append_epoch(
        &mut self,
        house: u64,
        epoch: u32,
        series: &SymbolicSeries,
    ) -> Result<usize> {
        loop {
            let Some(shard) = self.router.route_alive(house, &self.alive) else {
                return Err(Error::Io("all shards dead".to_string()));
            };
            match self.shards[shard].append_epoch(house, epoch, series) {
                Ok(_) => return Ok(shard),
                Err(Error::Io(_)) => {
                    self.alive[shard] = false;
                    self.failovers += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Commits every live shard. A shard failing its commit is marked dead
    /// (its uncommitted tail was never ack-able); the call errors only
    /// when **no** shard remains alive.
    pub fn commit(&mut self) -> Result<()> {
        for shard in 0..self.shards.len() {
            if !self.alive[shard] {
                continue;
            }
            if let Err(Error::Io(_)) = self.shards[shard].commit() {
                self.alive[shard] = false;
                self.failovers += 1;
            }
        }
        if self.alive.iter().any(|a| *a) {
            Ok(())
        } else {
            Err(Error::Io("all shards dead".to_string()))
        }
    }

    /// Aggregated durability counters across every shard, with the fleet's
    /// failover count.
    pub fn stats(&self) -> DurableStats {
        let mut total = DurableStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total.shard_failovers = self.failovers;
        total
    }

    /// Consumes the fleet, returning the per-shard stores.
    pub fn into_shards(self) -> Vec<DurableStore<S>> {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CodecBuilder;
    use crate::telemetry::Registry;
    use crate::timeseries::TimeSeries;

    fn series(house: u64, n: usize) -> SymbolicSeries {
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let x = crate::shard::splitmix64(house.wrapping_mul(97).wrapping_add(i as u64));
                (x % 4000) as f64 / 10.0
            })
            .collect();
        let ts = TimeSeries::from_regular(0, 900, &values).unwrap();
        let codec =
            CodecBuilder::new().alphabet_size(16).unwrap().no_aggregation().train(&ts).unwrap();
        codec.encode(&ts).unwrap()
    }

    fn reference_prefix(houses: u64, upto: u64) -> SegmentStore {
        let mut store = SegmentStore::new();
        for h in 0..upto.min(houses) {
            store.append(h, &series(h, 48)).unwrap();
        }
        store
    }

    /// The epoch-0 WAL payload of `series` as `house`, built as
    /// [`DurableStore::append`] builds it: from the stored segment.
    fn encode_segment_record(house: u64, series: &SymbolicSeries) -> Vec<u8> {
        let mut store = SegmentStore::new();
        let id = store.append(house, series).unwrap();
        let (meta, packed) = store.segment(id).unwrap();
        segment_record(meta, packed).unwrap()[RECORD_HEADER..].to_vec()
    }

    /// The house and series of a WAL payload.
    fn decode_segment_record(payload: &[u8]) -> Result<(u64, SymbolicSeries)> {
        decode_segment(payload).map(|(house, _, series)| (house, series))
    }

    /// A fresh directory under the system temp dir, unique per `tag`.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sms-durable-{tag}-{}-{:x}",
            std::process::id(),
            crate::shard::splitmix64(0xD15C)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A `len | crc32 | payload` record, framed by hand.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// A WAL segment payload in the epoch-less layout, field by field:
    /// 4-bit ranks, two to a byte, 900 s apart from `start`.
    fn epochless_payload(house: u64, start: i64, ranks: &[u16]) -> Vec<u8> {
        let mut out = house.to_le_bytes().to_vec();
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&900i64.to_le_bytes());
        out.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
        out.push(4);
        out.extend(ranks.chunks(2).map(|p| (p[0] << 4 | p.get(1).copied().unwrap_or(0)) as u8));
        out
    }

    /// The series [`epochless_payload`] describes.
    fn nibble_series(start: i64, ranks: &[u16]) -> SymbolicSeries {
        let mut s = SymbolicSeries::new(4).unwrap();
        for (i, &r) in ranks.iter().enumerate() {
            s.push(start + i as i64 * 900, crate::symbol::Symbol::from_rank(r, 4).unwrap())
                .unwrap();
        }
        s
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// CRC32 one bit at a time, with no table.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn crc32_eight_bytes_a_step_matches_the_bitwise_definition() {
        let data: Vec<u8> =
            (0..(1u64 << 20) + 7).map(|i| crate::shard::splitmix64(i) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "start {start}, len {len}");
            }
        }
        let mib = &data[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bitwise(mib), "1 MiB");
    }

    #[test]
    fn wal_record_roundtrip() {
        let s = series(7, 48);
        let payload = encode_segment_record(7, &s);
        let (house, back) = decode_segment_record(&payload).unwrap();
        assert_eq!(house, 7);
        assert_eq!(back.symbols(), s.symbols());
        assert_eq!(back.timestamps(), s.timestamps());
    }

    #[test]
    fn fresh_open_append_reopen_replays_wal() {
        let storage = FaultStorage::new();
        let (mut store, report) = DurableStore::open(storage, DurableConfig::default()).unwrap();
        assert!(!report.recovered);
        for h in 0..10u64 {
            store.append(h, &series(h, 48)).unwrap();
        }
        store.commit().unwrap();
        assert_eq!(store.durable_records(), 10);

        let (back, report) =
            DurableStore::open(store.into_storage(), DurableConfig::default()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.replayed, 10);
        assert_eq!(report.discarded, 0);
        assert_eq!(back.store().to_bytes(), reference_prefix(10, 10).to_bytes());
    }

    #[test]
    fn checkpoint_then_reopen_uses_checkpoint_plus_wal() {
        let storage = FaultStorage::new();
        let config = DurableConfig::default().group_commit(1).checkpoint_every(4);
        let (mut store, _) = DurableStore::open(storage, config).unwrap();
        for h in 0..10u64 {
            store.append(h, &series(h, 48)).unwrap();
        }
        assert_eq!(store.stats().checkpoints, 2);

        let (back, report) = DurableStore::open(store.into_storage(), config).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.replayed, 2, "only the post-checkpoint tail replays");
        assert_eq!(back.store().to_bytes(), reference_prefix(10, 10).to_bytes());
    }

    #[test]
    fn torn_tail_is_truncated_with_typed_count() {
        let storage = FaultStorage::new();
        let (mut store, _) =
            DurableStore::open(storage, DurableConfig::default().group_commit(1)).unwrap();
        for h in 0..5u64 {
            store.append(h, &series(h, 48)).unwrap();
        }
        // Tear the WAL by hand: append garbage half-record bytes.
        let mut storage = store.into_storage();
        storage.append(&wal_name(0), &[0xAB; 7]).unwrap();
        let (back, report) = DurableStore::open(storage, DurableConfig::default()).unwrap();
        assert_eq!(report.replayed, 5);
        assert_eq!(report.discarded, 1);
        assert_eq!(back.stats().torn_records_dropped, 1);
        assert_eq!(back.store().to_bytes(), reference_prefix(5, 5).to_bytes());
        // The tail was physically truncated: a further reopen is clean.
        let (_, report) =
            DurableStore::open(back.into_storage(), DurableConfig::default()).unwrap();
        assert_eq!(report.discarded, 0);
    }

    /// The byte range of each chunk in a `ckpt.log`, read from the
    /// chunk headers.
    fn chunk_spans(log: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut spans = Vec::new();
        let mut at = 0;
        while at < log.len() {
            let len = u64::from_le_bytes(log[at + 8..at + 16].try_into().unwrap()) as usize;
            spans.push(at..at + CHUNK_HEADER + len);
            at += CHUNK_HEADER + len;
        }
        spans
    }

    /// Flips one bit of byte `at` of `file`.
    fn flip(storage: &mut FaultStorage, file: &str, at: usize) {
        let mut bytes = storage.read(file).unwrap();
        bytes[at] ^= 0x40;
        storage.truncate(file, 0).unwrap();
        storage.append(file, &bytes).unwrap();
    }

    /// Ten records at one record per commit and three per checkpoint:
    /// chunks of generations 1 to 3, record 9 in `wal-3`, and `wal-2`
    /// kept as the fallback's.
    fn three_checkpoints() -> (FaultStorage, DurableConfig) {
        let config = DurableConfig::default().group_commit(1).checkpoint_every(3);
        let (mut store, _) = DurableStore::open(FaultStorage::new(), config).unwrap();
        for h in 0..10u64 {
            store.append(h, &series(h, 48)).unwrap();
        }
        assert_eq!(store.stats().checkpoints, 3);
        // Two at the fresh open, one per record, and three per checkpoint
        // (chunk, manifest, directory) plus the directory sync that makes
        // the new `ckpt.log` durable at the first.
        assert_eq!(store.stats().fsyncs, 2 + 10 + 4 + 3 + 3);
        (store.into_storage(), config)
    }

    /// Opens `storage` expecting a typed I/O error, and checks that the
    /// failed recovery changed no file.
    fn open_fails_and_changes_nothing(storage: &mut FaultStorage, config: DurableConfig) {
        let before = format!("{storage:?}");
        let err = DurableStore::open(&mut *storage, config).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
        assert_eq!(format!("{storage:?}"), before, "a failed recovery changed a file");
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_one_generation() {
        // Generations 1 and 2 exist; corrupt generation 2's chunk in its
        // image, then in its header. Either way the fallback counts it,
        // and no chunk counts as cut off.
        let damage: [fn(std::ops::Range<usize>) -> usize; 2] =
            [|span| (span.start + span.end) / 2, |span| span.start + 3];
        for at in damage {
            let storage = FaultStorage::new();
            let config = DurableConfig::default().group_commit(1).checkpoint_every(3);
            let (mut store, _) = DurableStore::open(storage, config).unwrap();
            for h in 0..7u64 {
                store.append(h, &series(h, 48)).unwrap();
            }
            let mut storage = store.into_storage();
            let spans = chunk_spans(&storage.read(CKPT_LOG).unwrap());
            assert_eq!(spans.len(), 2);
            flip(&mut storage, CKPT_LOG, at(spans[1].clone()));

            let (back, report) = DurableStore::open(storage, config).unwrap();
            assert_eq!(report.generation, 1);
            assert_eq!((report.fallbacks, report.chunks_discarded), (1, 0));
            assert_eq!(back.stats().chunks_dropped, 0);
            // Records 3..5 are in wal-1, which checkpoint 2 kept, and
            // record 6 is in wal-2: the fallback replays both and loses
            // nothing.
            assert_eq!(back.store().to_bytes(), reference_prefix(7, 7).to_bytes());
            // Later appends go to wal-2, and the next checkpoint is
            // generation 3, whose chunk follows generation 1's.
            let mut back = back;
            back.append(100, &series(100, 48)).unwrap();
            back.checkpoint().unwrap();
            assert_eq!(back.stats().checkpoints, 1);
            let live = back.store().to_bytes();
            let (again, report) = DurableStore::open(back.into_storage(), config).unwrap();
            assert_eq!(report.generation, 3);
            assert!(again.store().contains_house(100));
            assert_eq!(again.store().to_bytes(), live);
        }
    }

    #[test]
    fn a_bad_older_chunk_is_a_typed_error_that_changes_no_file() {
        // The WALs a fallback to before chunk 1 or chunk 2 would replay
        // are gone.
        for bad in 0..2 {
            let (mut storage, config) = three_checkpoints();
            let spans = chunk_spans(&storage.read(CKPT_LOG).unwrap());
            flip(&mut storage, CKPT_LOG, spans[bad].end - 1);
            open_fails_and_changes_nothing(&mut storage, config);
        }
    }

    #[test]
    fn a_gap_in_the_fallback_wals_is_a_typed_error_that_changes_no_file() {
        // The newest chunk is bad, and wal-2, which the fallback must
        // replay before wal-3, is missing or torn.
        let damage: [fn(&mut FaultStorage); 2] = [
            |s| s.remove(&wal_name(2)).unwrap(),
            |s| {
                let len = s.read(&wal_name(2)).unwrap().len() as u64;
                s.truncate(&wal_name(2), len - 3).unwrap();
            },
        ];
        for damage in damage {
            let (mut storage, config) = three_checkpoints();
            let spans = chunk_spans(&storage.read(CKPT_LOG).unwrap());
            flip(&mut storage, CKPT_LOG, spans[2].start + 3);
            damage(&mut storage);
            open_fails_and_changes_nothing(&mut storage, config);
        }
    }

    #[test]
    fn checkpoints_append_only_the_segments_since_the_last_one() {
        let (storage, config) = three_checkpoints();
        let (store, report) = DurableStore::open(storage, config).unwrap();
        assert_eq!((report.generation, report.replayed, report.fallbacks), (3, 1, 0));
        assert_eq!(store.store().to_bytes(), reference_prefix(10, 10).to_bytes());
        let mut storage = store.into_storage();
        let log = storage.read(CKPT_LOG).unwrap();
        let spans = chunk_spans(&log);
        assert_eq!(spans.len(), 3);
        for (i, span) in spans.iter().enumerate() {
            let generation =
                u64::from_le_bytes(log[span.start..span.start + 8].try_into().unwrap());
            let image = parse_image(&log[span.start + CHUNK_HEADER..span.end]).unwrap();
            assert_eq!((generation, image.segment_count()), (i as u64 + 1, 3));
        }
        // Checkpoint 3 dropped wal-1, and kept wal-2 for a fallback.
        let wals: Vec<bool> = (0..4).map(|g| storage.exists(&wal_name(g))).collect();
        assert_eq!(wals, [false, false, true, true]);
    }

    #[test]
    fn uncommitted_and_torn_chunks_are_cut_off() {
        let (mut storage, config) = three_checkpoints();
        let log = storage.read(CKPT_LOG).unwrap();
        let last = chunk_spans(&log).pop().unwrap();
        // A well-formed chunk of generation 4, which the manifest never
        // listed, and half of another.
        let mut extra = log[last].to_vec();
        extra[..8].copy_from_slice(&4u64.to_le_bytes());
        let crc = crc32(&extra[..16]);
        extra[16..CHUNK_HEADER].copy_from_slice(&crc.to_le_bytes());
        storage.append(CKPT_LOG, &extra).unwrap();
        storage.append(CKPT_LOG, &extra[..extra.len() / 2]).unwrap();

        let (store, report) = DurableStore::open(&mut storage, config).unwrap();
        assert_eq!((report.generation, report.discarded, report.fallbacks), (3, 0, 0));
        assert_eq!(report.chunks_discarded, 2, "the whole chunk and the torn half");
        assert_eq!(store.stats().chunks_dropped, 2);
        assert_eq!(store.store().to_bytes(), reference_prefix(10, 10).to_bytes());
        assert_eq!(storage.read(CKPT_LOG).unwrap(), log);
    }

    #[test]
    fn every_crash_point_recovers_a_committed_prefix() {
        let houses = 12u64;
        let config = DurableConfig::default().group_commit(3).checkpoint_every(5);
        // Baseline run to learn the op count.
        let (mut baseline, _) = DurableStore::open(FaultStorage::new(), config).unwrap();
        for h in 0..houses {
            baseline.append(h, &series(h, 48)).unwrap();
        }
        baseline.commit().unwrap();
        let total_ops = baseline.into_storage().ops();
        assert!(total_ops > 10);

        for crash_at in 1..=total_ops {
            let mut plan = FaultPlan::crash_at(crash_at, 0x5EED ^ crash_at);
            if crash_at % 3 == 0 {
                plan.short_write_keep = Some(crash_at % 11);
            }
            if crash_at % 2 == 0 {
                plan.corrupt_torn_byte = true;
            }
            // The harness keeps backend ownership via the `&mut S` impl,
            // so the crash view survives a failed run.
            let mut storage = FaultStorage::with_plan(plan);
            let mut acked = 0u64;
            let _ = (|| -> Result<()> {
                let (mut store, _) = DurableStore::open(&mut storage, config)?;
                for h in 0..houses {
                    store.append(h, &series(h, 48))?;
                    acked = store.durable_records();
                }
                store.commit()?;
                acked = store.durable_records();
                Ok(())
            })();
            let view = storage.crash_view();
            let (recovered, _) = DurableStore::open(view, config)
                .unwrap_or_else(|e| panic!("recovery failed at crash op {crash_at}: {e}"));
            let j = recovered.store().stats().segments_written;
            assert!(j >= acked, "crash at op {crash_at}: {j} recovered < {acked} acked records");
            assert_eq!(
                recovered.store().to_bytes(),
                reference_prefix(houses, j).to_bytes(),
                "crash at op {crash_at}: recovered store is not the {j}-record prefix"
            );
        }
    }

    #[test]
    fn fleet_fails_over_dead_shard_deterministically() {
        let mk_fleet = |plans: [FaultPlan; 3]| {
            let shards = plans
                .into_iter()
                .map(|p| {
                    DurableStore::open(FaultStorage::with_plan(p), DurableConfig::default())
                        .unwrap()
                        .0
                })
                .collect();
            DurableFleet::new(shards).unwrap()
        };
        // Shard 1 dies a few appends in (fresh init takes 5 ops; op 9 is
        // mid-workload); the others never fail.
        let plans = [FaultPlan::default(), FaultPlan::crash_at(9, 1), FaultPlan::default()];
        let run = |mut fleet: DurableFleet<FaultStorage>| {
            for h in 0..40u64 {
                fleet.append(h, &series(h, 48)).unwrap();
            }
            fleet.commit().unwrap();
            let stats = fleet.stats();
            let images: Vec<Vec<u8>> =
                fleet.into_shards().into_iter().map(|s| s.store().to_bytes()).collect();
            (stats, images)
        };
        let (stats_a, images_a) = run(mk_fleet(plans));
        let (stats_b, images_b) = run(mk_fleet(plans));
        assert!(stats_a.shard_failovers >= 1);
        assert_eq!(stats_a, stats_b, "failover counters must be deterministic");
        assert_eq!(images_a, images_b, "failover placement must be deterministic");
    }

    #[test]
    fn fleet_routes_around_dead_shards_only() {
        let shards = (0..4)
            .map(|_| DurableStore::open(FaultStorage::new(), DurableConfig::default()).unwrap().0)
            .collect();
        let mut fleet = DurableFleet::new(shards).unwrap();
        // With everyone alive, fleet routing matches the plain ring.
        for h in 0..200u64 {
            assert_eq!(fleet.route(h), Some(fleet.router().route(h)));
        }
        fleet.alive[2] = false;
        for h in 0..200u64 {
            let s = fleet.route(h).unwrap();
            assert_ne!(s, 2, "house {h} routed to a dead shard");
            if fleet.router().route(h) != 2 {
                assert_eq!(s, fleet.router().route(h), "live houses must not move");
            }
        }
    }

    #[test]
    fn fs_storage_roundtrip_and_recovery() {
        let dir = std::env::temp_dir().join(format!(
            "sms-durable-test-{}-{:x}",
            std::process::id(),
            crate::shard::splitmix64(0xD15C)
        ));
        let storage = FsStorage::new(&dir).unwrap();
        let config = DurableConfig::default().group_commit(2).checkpoint_every(4);
        let (mut store, report) = DurableStore::open(storage, config).unwrap();
        assert!(!report.recovered);
        for h in 0..9u64 {
            store.append(h, &series(h, 48)).unwrap();
        }
        store.commit().unwrap();
        drop(store);

        let storage = FsStorage::new(&dir).unwrap();
        let (back, report) = DurableStore::open(storage, config).unwrap();
        assert!(report.recovered);
        assert_eq!(back.store().to_bytes(), reference_prefix(9, 9).to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epochless_wal_and_manifest_recover_and_epoch0_records_keep_their_bytes() {
        // A MANIFEST at generation 0 and its WAL, in the layout logs had
        // before records could carry an epoch, written byte by byte.
        let houses: [(u64, &[u16]); 3] =
            [(4, &[1, 2, 3, 15]), (9, &[0, 7, 8, 9, 10]), (4, &[6, 5, 4, 3, 2, 1])];
        let mut storage = FaultStorage::new();
        storage.open(MANIFEST).unwrap();
        storage.append(MANIFEST, &framed(&0u64.to_le_bytes())).unwrap();
        storage.sync(MANIFEST).unwrap();
        let wal = "wal-0000000000000000.log";
        storage.open(wal).unwrap();
        let mut reference = SegmentStore::new();
        for (i, (house, ranks)) in houses.iter().enumerate() {
            let start = i as i64 * 86_400;
            storage.append(wal, &framed(&epochless_payload(*house, start, ranks))).unwrap();
            reference.append(*house, &nibble_series(start, ranks)).unwrap();
        }
        storage.sync(wal).unwrap();
        storage.sync_dir().unwrap();
        let before = storage.read(wal).unwrap();

        let (mut store, report) = DurableStore::open(storage, DurableConfig::default()).unwrap();
        assert_eq!((report.replayed, report.discarded), (3, 0));
        assert_eq!(store.store().to_bytes(), reference.to_bytes());
        assert_eq!(store.store().house_epochs(4), vec![0]);

        // A new epoch-0 append writes the same bytes the old layout did.
        let ranks = [11, 12, 13];
        store.append(9, &nibble_series(3 * 86_400, &ranks)).unwrap();
        store.commit().unwrap();
        let after = store.into_storage().read(wal).unwrap();
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(&after[before.len()..], &framed(&epochless_payload(9, 3 * 86_400, &ranks))[..]);
    }

    #[test]
    fn epoch_records_carry_the_epoch_after_the_symbols() {
        let ranks = [3, 1, 4, 1, 5];
        let s = nibble_series(0, &ranks);
        let (mut store, _) =
            DurableStore::open(FaultStorage::new(), DurableConfig::default()).unwrap();
        store.append_epoch(6, 0x0102_0304, &s).unwrap();
        store.append(6, &nibble_series(86_400, &ranks)).unwrap();
        store.commit().unwrap();
        let mut storage = store.into_storage();
        let wal = storage.read(&wal_name(0)).unwrap();
        let mut payload = epochless_payload(6, 0, &ranks);
        payload.extend_from_slice(&[4, 3, 2, 1]);
        assert_eq!(&wal[..RECORD_HEADER + payload.len()], &framed(&payload)[..]);

        let (back, report) = DurableStore::open(&mut storage, DurableConfig::default()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(back.store().house_epochs(6), vec![0, 0x0102_0304]);
        let segments = back.store().segments();
        assert_eq!((segments[0].epoch, segments[1].epoch), (0x0102_0304, 0));

        // Epoch 0 has one spelling: the long form is refused, as is any
        // length that is neither form.
        let mut zero = epochless_payload(6, 0, &ranks);
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_segment(&zero), Err(Error::Io(_))));
        assert!(matches!(decode_segment(&payload[..payload.len() - 1]), Err(Error::Io(_))));
    }

    /// Runs the append contract both backends share on `storage`: only
    /// `open` creates a file, so appending to or syncing a name that was
    /// never opened, or was removed since, fails and creates nothing.
    fn check_append_contract(storage: &mut impl Storage) {
        assert!(storage.append("never-opened", b"x").is_err());
        assert!(storage.sync("never-opened").is_err());
        assert!(!storage.exists("never-opened"));
        storage.open("f").unwrap();
        storage.append("f", b"ok").unwrap();
        assert_eq!(storage.read("f").unwrap(), b"ok");
        storage.remove("f").unwrap();
        assert!(storage.append("f", b"x").is_err());
        assert!(!storage.exists("f"));
    }

    #[test]
    fn append_to_a_file_never_opened_fails_on_both_backends() {
        check_append_contract(&mut FaultStorage::new());
        let dir = temp_dir("contract");
        check_append_contract(&mut FsStorage::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fs_storage_drops_handles_of_renamed_removed_and_truncated_files() {
        type Check = fn(&mut FsStorage) -> Result<bool>;
        let dir = temp_dir("handles");
        let mut fs = FsStorage::new(&dir).unwrap();
        fn image(generation: u8) -> Vec<u8> {
            vec![generation; 10 * generation as usize]
        }
        // What every file must hold at the end, for a second backend to read.
        let expect: Vec<(String, Vec<u8>)> = [
            ("a", b"second".to_vec()),
            ("b", b"first".to_vec()),
            ("t", b"abXY".to_vec()),
            ("r", b"new".to_vec()),
        ]
        .into_iter()
        .map(|(f, d)| (f.to_string(), d))
        .chain((1..=3).map(|g| (format!("ckpt-{g}"), image(g))))
        .collect();
        let checks: [(&str, Check); 4] = [
            ("an append after rename lands in a fresh file", |fs| {
                fs.open("a")?;
                fs.append("a", b"first")?;
                fs.rename("a", "b")?;
                fs.open("a")?;
                fs.append("a", b"second")?;
                Ok(fs.read("a")? == b"second" && fs.read("b")? == b"first")
            }),
            ("ckpt.tmp reused for three checkpoints", |fs| {
                for g in 1..=3u8 {
                    fs.open("ckpt.tmp")?;
                    fs.truncate("ckpt.tmp", 0)?;
                    fs.append("ckpt.tmp", &image(g))?;
                    fs.sync("ckpt.tmp")?;
                    fs.rename("ckpt.tmp", &format!("ckpt-{g}"))?;
                }
                Ok((1..=3u8).all(|g| fs.read(&format!("ckpt-{g}")).ok() == Some(image(g))))
            }),
            ("an append after truncate lands at the new end", |fs| {
                fs.open("t")?;
                fs.append("t", b"abcdef")?;
                fs.truncate("t", 2)?;
                fs.append("t", b"XY")?;
                Ok(fs.read("t")? == b"abXY")
            }),
            ("a file removed and opened again starts empty", |fs| {
                fs.open("r")?;
                fs.append("r", b"old")?;
                fs.remove("r")?;
                fs.open("r")?;
                let empty = fs.read("r")?.is_empty();
                fs.append("r", b"new")?;
                Ok(empty)
            }),
        ];
        let mut failed: Vec<String> = checks
            .iter()
            .filter_map(|(name, check)| match check(&mut fs) {
                Ok(true) => None,
                Ok(false) => Some(name.to_string()),
                Err(e) => Some(format!("{name}: {e}")),
            })
            .collect();
        for (file, _) in &expect {
            fs.sync(file).ok();
        }
        let mut second = FsStorage::new(&dir).unwrap();
        for (file, want) in &expect {
            if second.read(file).ok().as_ref() != Some(want) {
                failed.push(format!("a second backend reads {file} wrong"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(failed.is_empty(), "failed: {failed:?}");
    }

    #[test]
    fn durable_stats_register_into_catalog() {
        let stats = DurableStats {
            wal_appends: 10,
            wal_bytes: 640,
            fsyncs: 3,
            checkpoints: 1,
            ..DurableStats::default()
        };
        let reg = Registry::new();
        stats.register_into(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("sms_durable_wal_appends 10"));
        assert!(text.contains("sms_durable_checkpoints 1"));
    }
}
