//! The multi-level query cache hierarchy.
//!
//! Three memoization layers sit between query processing and the storage
//! substrates, each keyed by a *semantic* identity rather than a physical
//! page (that job belongs to [`tklus_storage::BufferPool`] underneath):
//!
//! 1. **Cover cache** — `CoverKey → Arc<Vec<Geohash>>`, memoizing the
//!    geohash circle cover of Algorithms 4/5 line 1. Repeated queries
//!    around the same hot spot (the Zipf-shaped reality of query logs)
//!    skip the quadtree descent entirely.
//! 2. **Postings cache** — `(Geohash, TermId) → Arc<PostingsList>`,
//!    holding *decoded* postings above the DFS and its page layer. A hit
//!    saves both the DFS read and the varint decode, and the `Arc` lets
//!    every concurrent query share one decoded copy.
//! 3. **Thread cache** — `TweetId → f64`, memoizing the popularity φ(p)
//!    of Definition 4 for the thread rooted at a tweet. Thread
//!    construction is the dominant per-candidate I/O cost (Section V-B);
//!    a hit skips the whole BFS over the reply B⁺-tree.
//!
//! # Coherence
//!
//! Every cached value is a pure function of engine build-time state: the
//! corpus, the index, and the scoring configuration are all immutable once
//! [`crate::TklusEngine::build`] returns. There are no invalidation paths
//! because there is nothing to invalidate — a cached value can never go
//! stale, so cached and uncached executions are *bitwise* identical (the
//! oracle and concurrency suites assert exactly this). The thread cache
//! additionally bakes the engine's `thread_depth` and `epsilon` into its
//! identity implicitly: both are fixed per engine, so the root tweet id
//! alone is a complete key.
//!
//! Each layer is a [`ShardedLruCache`]: size-bounded, lock-striped,
//! monotone hit/miss counters. Capacity 0 disables a layer (the default —
//! the paper's experiments run with caches off).

use std::sync::Arc;
use tklus_geo::{CoverKey, Geohash};
use tklus_index::PostingsList;
use tklus_model::TweetId;
use tklus_storage::{CacheLayerStats, ShardedLruCache};
use tklus_text::TermId;

/// Entry budgets for the three cache layers (0 = layer disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cover-cache entries (memoized circle covers).
    pub cover: usize,
    /// Postings-cache entries (decoded `⟨geohash, term⟩` lists).
    pub postings: usize,
    /// Thread-cache entries (memoized thread popularities φ(p)).
    pub thread: usize,
}

/// A point-in-time snapshot of all three layers' counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cover-cache counters.
    pub cover: CacheLayerStats,
    /// Postings-cache counters.
    pub postings: CacheLayerStats,
    /// Thread-cache counters.
    pub thread: CacheLayerStats,
}

/// The three cache layers owned by one engine and shared by every thread
/// querying it.
pub struct QueryCaches {
    pub(crate) cover: ShardedLruCache<CoverKey, Arc<Vec<Geohash>>>,
    pub(crate) postings: ShardedLruCache<(Geohash, TermId), Arc<PostingsList>>,
    pub(crate) thread: ShardedLruCache<TweetId, f64>,
}

impl QueryCaches {
    /// Builds the hierarchy with the given per-layer budgets.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            cover: ShardedLruCache::new(config.cover),
            postings: ShardedLruCache::new(config.postings),
            thread: ShardedLruCache::new(config.thread),
        }
    }

    /// Counters for all three layers in one snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            cover: self.cover.stats(),
            postings: self.postings.stats(),
            thread: self.thread.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tklus_geo::{DistanceMetric, Point};

    #[test]
    fn disabled_by_default_config() {
        let caches = QueryCaches::new(CacheConfig::default());
        assert!(!caches.cover.is_enabled());
        assert!(!caches.postings.is_enabled());
        assert!(!caches.thread.is_enabled());
        assert_eq!(caches.stats(), CacheStats::default());
    }

    #[test]
    fn layers_are_independent() {
        let caches = QueryCaches::new(CacheConfig { cover: 4, postings: 0, thread: 8 });
        let key = CoverKey::new(&Point::new_unchecked(1.0, 2.0), 5.0, 4, DistanceMetric::Euclidean);
        assert!(caches.cover.get(&key).is_none());
        caches.cover.insert(key, Arc::new(Vec::new()));
        assert!(caches.cover.get(&key).is_some());
        caches.thread.insert(TweetId(1), 0.5);
        let s = caches.stats();
        assert_eq!((s.cover.hits, s.cover.misses), (1, 1));
        assert_eq!(s.postings.capacity, 0);
        assert_eq!(s.thread.entries, 1);
    }
}
