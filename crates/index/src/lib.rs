//! The hybrid spatial-keyword index of Section IV-B.
//!
//! Two components, exactly as in the paper's Figure 4:
//!
//! * an **inverted index** keyed by `⟨geohash, term⟩` whose postings lists
//!   of `⟨tweet-id, term-frequency⟩` pairs (sorted by tweet id = timestamp)
//!   live in partition files on the simulated DFS — built by the MapReduce
//!   job of Algorithms 2 and 3 ([`build`]);
//! * a **forward index** ([`forward::ForwardIndex`]) kept in main memory
//!   ("less than 12 MB … therefore it is kept in the main memory") that
//!   maps each `⟨geohash, term⟩` entry to its postings list's location in
//!   the DFS.
//!
//! Keys are range-partitioned by geohash so "data indexed by geohash will
//! have all points for a given rectangular area in one computer", and each
//! partition file is written in sorted key order so postings of nearby
//! cells with the same keyword sit in contiguous blocks.
//!
//! [`baseline::build_centralized`] builds the identical index single-threaded
//! on a one-node DFS — the centralized comparison point for the Figure 5
//! construction-scaling experiment.

pub mod baseline;
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
    load_dir_with_report, load_sharded_dir_with_report, save_dir, save_sharded_dir,
    save_sharded_dir_refs, shard_dir_name, LoadReport, PersistError, PERSIST_FORMAT_VERSION,
    SHARDED_FORMAT_VERSION,
};
pub use posting::{
    intersect_gallop, intersect_sum, union_sum, DecodeError, Posting, PostingsFormat, PostingsList,
};
