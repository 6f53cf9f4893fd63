//! `CountingFs`: a [`WalFs`] decorator that counts calls, bytes and wall
//! time per operation and per file class.
//!
//! Only the traced run wraps the store's filesystem in it, so what the
//! decorator costs lands in `trace.overhead_ratio` and in no end-to-end
//! metric. This file and `layers.rs` are the only two that name a
//! `tklus-*` crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tklus_wal::{WalError, WalFs};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Append,
    Sync,
    Create,
    Rename,
    Remove,
    Read,
    /// `list` and `truncate`: open-time housekeeping, kept so that the
    /// classes add up to everything the store asked of the filesystem.
    Other,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `wal-*.log` segments.
    Wal,
    /// `seal-*.log` partition files.
    Seal,
    /// `MANIFEST` and `MANIFEST.tmp`.
    Manifest,
    Other,
}

const OPS: usize = 7;
const CLASSES: usize = 4;

pub fn classify(name: &str) -> FileClass {
    if name.starts_with("wal-") {
        FileClass::Wal
    } else if name.starts_with("seal-") {
        FileClass::Seal
    } else if name.starts_with("MANIFEST") {
        FileClass::Manifest
    } else {
        FileClass::Other
    }
}

/// Calls, bytes and nanoseconds of one `(op, class)` cell, or of a sum of
/// cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub bytes: u64,
    pub nanos: u64,
}

impl std::ops::Add for Tally {
    type Output = Tally;
    fn add(self, rhs: Tally) -> Tally {
        Tally {
            calls: self.calls + rhs.calls,
            bytes: self.bytes + rhs.bytes,
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl std::ops::Sub for Tally {
    type Output = Tally;
    fn sub(self, rhs: Tally) -> Tally {
        Tally {
            calls: self.calls - rhs.calls,
            bytes: self.bytes - rhs.bytes,
            nanos: self.nanos - rhs.nanos,
        }
    }
}

#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

/// A point-in-time copy of every cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts([[Tally; CLASSES]; OPS]);

impl FsCounts {
    pub fn get(&self, op: Op, class: FileClass) -> Tally {
        self.0[op as usize][class as usize]
    }

    /// One op over every file class.
    pub fn op(&self, op: Op) -> Tally {
        self.0[op as usize].iter().fold(Tally::default(), |acc, t| acc + *t)
    }

    /// Every op over every class.
    pub fn total(&self) -> Tally {
        self.0.iter().flatten().fold(Tally::default(), |acc, t| acc + *t)
    }

    fn zip_with(&self, other: &FsCounts, f: impl Fn(Tally, Tally) -> Tally) -> FsCounts {
        let mut out = *self;
        for (row, theirs) in out.0.iter_mut().zip(other.0.iter()) {
            for (cell, t) in row.iter_mut().zip(theirs.iter()) {
                *cell = f(*cell, *t);
            }
        }
        out
    }

    /// These counts minus an earlier snapshot (or minus a part of them).
    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        self.zip_with(earlier, |a, b| a - b)
    }

    pub fn plus(&self, other: &FsCounts) -> FsCounts {
        self.zip_with(other, |a, b| a + b)
    }
}

pub struct CountingFs {
    inner: Arc<dyn WalFs>,
    cells: [[Cell; CLASSES]; OPS],
}

impl CountingFs {
    pub fn new(inner: Arc<dyn WalFs>) -> Self {
        Self { inner, cells: Default::default() }
    }

    pub fn snapshot(&self) -> FsCounts {
        let mut out = FsCounts::default();
        for (row, cells) in out.0.iter_mut().zip(self.cells.iter()) {
            for (tally, cell) in row.iter_mut().zip(cells.iter()) {
                *tally = Tally {
                    calls: cell.calls.load(Ordering::Relaxed),
                    bytes: cell.bytes.load(Ordering::Relaxed),
                    nanos: cell.nanos.load(Ordering::Relaxed),
                };
            }
        }
        out
    }

    /// Runs `f`, charging one call, `bytes` and its wall time to
    /// `(op, class of name)`; `bytes_of` sizes results known only after.
    fn charge<T>(
        &self,
        op: Op,
        name: &str,
        bytes: u64,
        bytes_of: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> Result<T, WalError>,
    ) -> Result<T, WalError> {
        let t = Instant::now();
        let out = f();
        let nanos = t.elapsed().as_nanos() as u64;
        let cell = &self.cells[op as usize][classify(name) as usize];
        // Statistics only: nothing is published through these counters.
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes + out.as_ref().map_or(0, bytes_of), Ordering::Relaxed);
        out
    }
}

impl WalFs for CountingFs {
    fn list(&self) -> Result<Vec<String>, WalError> {
        self.charge(Op::Other, "", 0, |_| 0, || self.inner.list())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        self.charge(Op::Read, name, 0, |b: &Vec<u8>| b.len() as u64, || self.inner.read(name))
    }

    fn create(&self, name: &str) -> Result<(), WalError> {
        self.charge(Op::Create, name, 0, |_| 0, || self.inner.create(name))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.charge(Op::Append, name, bytes.len() as u64, |_| 0, || self.inner.append(name, bytes))
    }

    fn sync(&self, name: &str) -> Result<(), WalError> {
        self.charge(Op::Sync, name, 0, |_| 0, || self.inner.sync(name))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        self.charge(Op::Other, name, 0, |_| 0, || self.inner.truncate(name, len))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), WalError> {
        self.charge(Op::Rename, to, 0, |_| 0, || self.inner.rename(from, to))
    }

    fn remove(&self, name: &str) -> Result<(), WalError> {
        self.charge(Op::Remove, name, 0, |_| 0, || self.inner.remove(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tklus_wal::SimFs;

    #[test]
    fn counts_calls_bytes_and_time_per_op_and_file_class() {
        let (sim, _) = SimFs::new(1);
        let fs = CountingFs::new(sim);
        fs.create("wal-00000001.log").unwrap();
        fs.append("wal-00000001.log", b"12345").unwrap();
        fs.append("wal-00000001.log", b"678").unwrap();
        fs.sync("wal-00000001.log").unwrap();
        fs.create("seal-00000001-d.log").unwrap();
        fs.append("seal-00000001-d.log", b"ab").unwrap();
        fs.create("MANIFEST.tmp").unwrap();
        fs.rename("MANIFEST.tmp", "MANIFEST").unwrap();
        assert_eq!(fs.read("wal-00000001.log").unwrap().len(), 8);
        fs.remove("seal-00000001-d.log").unwrap();
        let _ = fs.list().unwrap();

        let c = fs.snapshot();
        let wal_append = c.get(Op::Append, FileClass::Wal);
        assert_eq!((wal_append.calls, wal_append.bytes), (2, 8));
        assert_eq!(c.get(Op::Append, FileClass::Seal).bytes, 2);
        assert_eq!(c.op(Op::Append).calls, 3);
        assert_eq!(c.get(Op::Sync, FileClass::Wal).calls, 1);
        assert_eq!(c.op(Op::Create).calls, 3);
        assert_eq!(c.get(Op::Rename, FileClass::Manifest).calls, 1);
        assert_eq!(c.get(Op::Read, FileClass::Wal).bytes, 8);
        assert_eq!(c.get(Op::Remove, FileClass::Seal).calls, 1);
        assert_eq!(c.total().calls, 11);

        fs.append("wal-00000001.log", b"9").unwrap();
        let delta = fs.snapshot().since(&c);
        assert_eq!(delta.total().calls, 1);
        assert_eq!(delta.get(Op::Append, FileClass::Wal).bytes, 1);
    }

    #[test]
    fn a_failing_op_is_still_one_call() {
        let (sim, _) = SimFs::new(1);
        let fs = CountingFs::new(sim);
        assert!(fs.append("wal-missing.log", b"x").is_err());
        assert_eq!(fs.snapshot().get(Op::Append, FileClass::Wal).calls, 1);
    }

    #[test]
    fn file_classes() {
        assert_eq!(classify("wal-00000003.log"), FileClass::Wal);
        assert_eq!(classify("seal-00000002-9.log"), FileClass::Seal);
        assert_eq!(classify("MANIFEST"), FileClass::Manifest);
        assert_eq!(classify("MANIFEST.tmp"), FileClass::Manifest);
        assert_eq!(classify("stray"), FileClass::Other);
    }
}
