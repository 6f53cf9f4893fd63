//! Crash-safe streaming ingest for the TkLUS engine (DESIGN.md §15).
//!
//! The paper's system is batch-built: a MapReduce pipeline produces an
//! immutable hybrid index, and queries run against it. Real geo-tagged
//! streams do not pause for index builds, so this crate adds the write
//! path: a checksummed write-ahead log in front of a live delta index,
//! with background compaction sealing deltas back into the immutable
//! form the rest of the system already knows.
//!
//! Layers, bottom up:
//!
//! * [`fs`] — the filesystem seam ([`WalFs`]): the real disk ([`StdFs`])
//!   or the deterministic crash-injecting model ([`SimFs`]) the chaos
//!   suite drives.
//! * [`frame`] — CRC32 length-prefixed frames; every durable byte of the
//!   log and the seal files goes through this codec.
//! * [`record`] — the frame payload: one acked ingest, bit-exact.
//! * [`log`] — segmented WAL: append/rotate ([`WalWriter`]), and
//!   [`replay`], which truncates the final segment's torn tail and
//!   refuses mid-log corruption with a typed error.
//! * [`memtable`] — the live delta index ([`MemtableIndex`]): postings
//!   for acked-but-unsealed posts, keyed by term string, and their
//!   metadata, the overlay queries read the read-only sealed engine
//!   through.
//! * [`store`] — [`IngestStore`], tying it together: WAL-acked ingest,
//!   snapshot queries merging sealed and live candidates bitwise-equal
//!   to a from-scratch engine, and atomic-manifest compaction.
//!
//! The correctness contracts — ack durability, replay idempotence,
//! snapshot equality — are exercised by the
//! crash-recovery suite in `tests/` across seeded crash points in every
//! write-path operation.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod error;
pub mod frame;
pub mod fs;
pub mod log;
pub mod memtable;
pub mod record;
pub mod store;

pub use error::WalError;
pub use frame::{decode_step, encode_frame, FrameStep, FRAME_HEADER, MAX_FRAME_PAYLOAD};
pub use fs::{SimFs, StdFs, WalFs};
pub use log::{
    parse_segment_name, replay, segment_name, FsyncPolicy, RecoveryReport, WalConfig, WalWriter,
};
pub use memtable::MemtableIndex;
pub use record::{decode_record, encode_record, WalRecord};
pub use store::{
    parse_seal_name, seal_name, CompactionReport, CompactionStrategy, CompactorHandle, IngestStore,
    OpenReport, StoreConfig, MANIFEST,
};
