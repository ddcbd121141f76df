//! A [`Storage`] wrapper around [`FsStorage`] that counts calls and bytes
//! per file kind and, when timing is on, how long appends and syncs take.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sms_core::durable::{FsStorage, Storage};
use sms_core::error::Result;

#[derive(Debug, Default, Clone)]
pub struct StorageCounters {
    pub append_calls: u64,
    pub bytes_appended: u64,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    /// Time in appends and syncs of WAL files, and of every other file
    /// (checkpoints, manifest, directory), when timing is on.
    pub wal_io_ns: u64,
    pub other_io_ns: u64,
    pub sync_ns: Vec<u64>,
}

impl StorageCounters {
    fn timed(&mut self, file: Option<&str>, t: Option<Instant>) -> Option<u64> {
        let ns = t?.elapsed().as_nanos() as u64;
        if file.is_some_and(|f| f.starts_with("wal-")) {
            self.wal_io_ns += ns;
        } else {
            self.other_io_ns += ns;
        }
        Some(ns)
    }
}

#[derive(Debug)]
pub struct CountingStorage {
    inner: FsStorage,
    counters: Rc<RefCell<StorageCounters>>,
    timed: bool,
}

impl CountingStorage {
    pub fn new(inner: FsStorage, counters: Rc<RefCell<StorageCounters>>, timed: bool) -> Self {
        CountingStorage { inner, counters, timed }
    }
}

impl Storage for CountingStorage {
    fn open(&mut self, file: &str) -> Result<()> {
        self.inner.open(file)
    }

    fn append(&mut self, file: &str, data: &[u8]) -> Result<()> {
        let t = self.timed.then(Instant::now);
        let out = self.inner.append(file, data);
        let mut c = self.counters.borrow_mut();
        c.timed(Some(file), t);
        c.append_calls += 1;
        c.bytes_appended += data.len() as u64;
        let n = data.len() as u64;
        if file.starts_with("wal-") {
            c.wal_bytes += n;
        } else if file.starts_with("ckpt") {
            c.checkpoint_bytes += n;
        }
        out
    }

    fn read(&mut self, file: &str) -> Result<Vec<u8>> {
        self.inner.read(file)
    }

    fn exists(&self, file: &str) -> bool {
        self.inner.exists(file)
    }

    fn sync(&mut self, file: &str) -> Result<()> {
        let t = self.timed.then(Instant::now);
        let out = self.inner.sync(file);
        let mut c = self.counters.borrow_mut();
        if let Some(ns) = c.timed(Some(file), t) {
            c.sync_ns.push(ns);
        }
        out
    }

    fn sync_dir(&mut self) -> Result<()> {
        let t = self.timed.then(Instant::now);
        let out = self.inner.sync_dir();
        let mut c = self.counters.borrow_mut();
        if let Some(ns) = c.timed(None, t) {
            c.sync_ns.push(ns);
        }
        out
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<()> {
        self.inner.truncate(file, len)
    }

    fn remove(&mut self, file: &str) -> Result<()> {
        self.inner.remove(file)
    }
}
