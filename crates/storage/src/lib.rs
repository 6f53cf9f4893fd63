//! Storage substrate for the TkLUS reproduction.
//!
//! Section IV-A of the paper stores tweet metadata — the relation
//! `(sid, uid, lat, lon, ruid, rsid)` — "in a centralized metadata database"
//! with "a B⁺-tree" on `sid` and "another B⁺-tree … on attribute rsid".
//! This crate implements that database's storage (the inverted index,
//! which the paper keeps in HDFS, holds its own partition bytes in
//! `tklus-index`):
//!
//! * [`page`] / [`pager`] — fixed-size pages over an in-memory store
//!   that keeps and hands out shared pages, never copies ([`Page`]),
//!   with I/O accounting ([`IoStats`]), and [`crc32`], the page checksum:
//!   a carry-less-multiply kernel on x86_64 CPUs that have one (detected
//!   at run time, inputs of 64 bytes or more), slicing-by-8 otherwise,
//!   the same value either way. The kernel is this crate's only `unsafe`.
//! * [`bptree`] — a paged B⁺-tree with composite `(u64, u64)` keys and
//!   fixed-size values, built by one sorted bulk load and read-only
//!   afterwards: point lookups and range visits, which binary-search the
//!   keys in the verified page bytes and hand values out where they sit
//!   (a point get copies out the one value it returns). The composite key
//!   serves both the unique primary index
//!   (`(sid, 0)`) and the non-unique secondary index (`(rsid, sid)`).
//!
//! There is no page cache: the paper's Section VI-B runs with "database
//! caches … set off", and so does every tree here — each page a tree
//! reads is a counted physical read, verified on the way in.
//!
//! The fault-tolerance layer (DESIGN.md §10) lives here too:
//!
//! * [`error`] — the [`StorageError`] taxonomy every fallible operation
//!   reports instead of panicking; [`StorageError::is_transient`] marks
//!   faults a caller may retry.
//! * [`checked`] — [`CheckedPager`] seals each written page with a
//!   magic/version/CRC32 header and verifies it on every read, turning
//!   torn writes and bit flips into typed `PageCorrupt`/`BadPageHeader`
//!   errors.
//! * [`fault`] — [`FaultPager`] injects a deterministic, seeded schedule
//!   of transient errors, torn writes, and bit flips for chaos testing.

pub mod bptree;
pub mod checked;
pub mod error;
pub mod fault;
pub mod iostats;
pub mod page;
pub mod pager;

pub use bptree::{BPlusTree, Key, TreeReader};
pub use checked::CheckedPager;
pub use error::{StorageError, StorageResult};
pub use fault::{splitmix64, CrashVerdict, FaultConfig, FaultHandle, FaultPager};
pub use iostats::{IoSnapshot, IoStats};
pub use page::{
    crc32, crc32_slicing_by_8, seal_page, verify_page, Page, PageId, PAGE_FORMAT_VERSION,
    PAGE_HEADER_SIZE, PAGE_SIZE,
};
pub use pager::{MemPager, PageStore};
