//! Storage substrate for the TkLUS reproduction.
//!
//! Section IV-A of the paper stores tweet metadata — the relation
//! `(sid, uid, lat, lon, ruid, rsid)` — "in a centralized metadata database"
//! with "a B⁺-tree" on `sid` and "another B⁺-tree … on attribute rsid".
//! This crate implements that database's storage (the inverted index,
//! which the paper keeps in HDFS, holds its own partition bytes in
//! `tklus-index`):
//!
//! * [`page`] / [`pager`] — fixed-size pages over an in-memory store,
//!   with I/O accounting ([`IoStats`]).
//! * [`bptree`] — a paged B⁺-tree with composite `(u64, u64)` keys,
//!   fixed-size values, point lookups, range scans, inserts with node
//!   splitting, and sorted bulk loading. The composite key serves both the
//!   unique primary index (`(sid, 0)`) and the non-unique secondary index
//!   (`(rsid, sid)`).
//! * [`buffer`] — an LRU buffer pool between B⁺-trees and the page store,
//!   so logical accesses and physical I/Os can be measured separately (the
//!   paper's Section VI-B runs with "database caches … off"; the pool can
//!   be sized to zero-effective caching for that configuration).
//!
//! The fault-tolerance layer (DESIGN.md §10) lives here too:
//!
//! * [`error`] — the [`StorageError`] taxonomy every fallible operation
//!   reports instead of panicking; [`StorageError::is_transient`] marks
//!   faults worth retrying.
//! * [`checked`] — [`CheckedPager`] seals each written page with a
//!   magic/version/CRC32 header and verifies it on every read, turning
//!   torn writes and bit flips into typed `PageCorrupt`/`BadPageHeader`
//!   errors.
//! * [`retry`] — [`RetryPager`] absorbs transient faults with bounded
//!   exponential backoff.
//! * [`fault`] — [`FaultPager`] injects a deterministic, seeded schedule
//!   of transient errors, torn writes, and bit flips for chaos testing.

pub mod bptree;
pub mod buffer;
pub mod checked;
pub mod error;
pub mod fault;
pub mod iostats;
pub mod page;
pub mod pager;
pub mod retry;

pub use bptree::{BPlusTree, Key, TreeReader};
pub use buffer::BufferPool;
pub use checked::CheckedPager;
pub use error::{StorageError, StorageResult};
pub use fault::{splitmix64, CrashVerdict, FaultConfig, FaultHandle, FaultPager};
pub use iostats::{IoSnapshot, IoStats};
pub use page::{
    crc32, seal_page, verify_page, PageId, PAGE_FORMAT_VERSION, PAGE_HEADER_SIZE, PAGE_SIZE,
};
pub use pager::{MemPager, PageStore};
pub use retry::{RetryPager, RetryPolicy};
