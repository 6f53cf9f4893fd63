//! The hybrid spatial-keyword index of Section IV-B.
//!
//! Two components, exactly as in the paper's Figure 4:
//!
//! * an **inverted index** keyed by `⟨geohash, term⟩` whose postings lists
//!   of `⟨tweet-id, term-frequency⟩` pairs (sorted by tweet id = timestamp)
//!   live in partitions — built by Algorithms 2 and 3, which the paper runs
//!   as a MapReduce job and [`build`] runs as one sort. The paper keeps the
//!   partitions in HDFS; here the index holds their bytes, and [`persist`]
//!   writes them as one file each. Beyond the paper, each posting carries
//!   its post's cell three geohash characters finer than the key, so a
//!   circle query drops the postings that cannot lie inside it before any
//!   candidate is looked up;
//! * a **forward index** ([`forward::ForwardIndex`]) kept in main memory
//!   ("less than 12 MB … therefore it is kept in the main memory") that
//!   maps each `⟨geohash, term⟩` entry to its postings list's location:
//!   partition, offset and length.
//!
//! Keys are range-partitioned by geohash so "data indexed by geohash will
//! have all points for a given rectangular area in one computer", and each
//! partition is written in sorted key order so postings of nearby cells
//! with the same keyword sit in contiguous bytes.

pub mod build;
pub mod forward;
pub mod inverted;
pub mod irtree;
pub mod persist;
pub mod posting;

pub use build::{build_index, IndexBuildConfig, IndexBuildReport};
pub use forward::{ForwardIndex, PostingsLocation};
pub use inverted::{HybridIndex, IndexError, IndexKey, QueryFetch};
pub use irtree::{IrSearchStats, IrTree};
pub use persist::{
    load_dir_with_report, save_dir, LoadReport, PersistError, PERSIST_FORMAT_VERSION,
};
pub use posting::{
    intersect_gallop, intersect_sum, union_sum, DecodeError, Posting, PostingsFormat, PostingsList,
};
