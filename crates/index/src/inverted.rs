//! The query-side face of the hybrid index.
//!
//! [`HybridIndex`] bundles the in-memory forward index, the term
//! dictionary, and the DFS holding the partition files, and implements the
//! postings-retrieval phase of Algorithms 4 and 5 (lines 1–7): geohash
//! circle cover, then one postings fetch per surviving `⟨cell, keyword⟩`
//! pair. Fetches are issued in `(partition, offset)` order so reads within
//! a partition are as sequential as the key layout allows — the locality
//! the paper's sorted `⟨geohash, term⟩` organization is designed to give.

use crate::forward::{ForwardIndex, PostingsLocation};
use crate::posting::PostingsList;
use std::sync::Arc;
use tklus_geo::{circle_cover, DistanceMetric, Geohash, Point};
use tklus_storage::{Dfs, DfsError};
use tklus_text::{TermId, Vocab};

/// A `⟨geohash, term⟩` key, as stored in the forward index.
pub type IndexKey = (Geohash, TermId);

/// Errors from the inverted-index read path.
#[derive(Debug)]
pub enum IndexError {
    /// The DFS could not serve a partition range the directory points at.
    Dfs {
        /// Partition file the read targeted.
        file: String,
        /// The underlying DFS failure.
        source: DfsError,
    },
    /// Partition bytes at a directory location failed to decode.
    CorruptPostings {
        /// Partition file the bytes came from.
        file: String,
        /// Byte offset of the postings list within the file.
        offset: u64,
        /// What the decoder rejected.
        detail: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Dfs { file, source } => {
                write!(f, "dfs read of {file} failed: {source}")
            }
            IndexError::CorruptPostings { file, offset, detail } => {
                write!(f, "corrupt postings in {file} at offset {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// The hybrid index: forward directory in memory, inverted partitions on
/// the DFS.
pub struct HybridIndex {
    forward: ForwardIndex,
    vocab: Vocab,
    dfs: Dfs,
    geohash_len: usize,
}

/// Result of the postings-retrieval phase for one query.
#[derive(Debug)]
pub struct QueryFetch {
    /// `per_keyword[i]` holds the postings lists found for keyword `i`,
    /// one per examined cover cell that had an entry.
    pub per_keyword: Vec<Vec<Arc<PostingsList>>>,
    /// Number of cover cells examined (a query budget may stop short of
    /// the whole cover).
    pub cells: usize,
    /// Number of postings lists fetched.
    pub lists: usize,
    /// Encoded bytes fetched from the DFS.
    pub bytes: u64,
}

impl HybridIndex {
    /// Assembles an index from its parts (normally via
    /// [`crate::build::build_index`]).
    pub fn new(forward: ForwardIndex, vocab: Vocab, dfs: Dfs, geohash_len: usize) -> Self {
        Self { forward, vocab, dfs, geohash_len }
    }

    /// DFS file name of partition `i`.
    pub fn partition_file(i: u32) -> String {
        format!("inverted/part-{i:05}")
    }

    /// The forward index (directory).
    pub fn forward(&self) -> &ForwardIndex {
        &self.forward
    }

    /// The term dictionary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The DFS holding the partition files.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The geohash encoding length the index was built with.
    pub fn geohash_len(&self) -> usize {
        self.geohash_len
    }

    /// Fetches the postings list for one `⟨geohash, term⟩` key.
    pub fn postings(&self, geohash: Geohash, term: TermId) -> Option<PostingsList> {
        let loc = self.forward.lookup(geohash, term)?;
        Some(self.read_postings(loc).0)
    }

    /// Reads and decodes the postings list at a directory location,
    /// returning the list and the number of encoded bytes read. Pure given
    /// the immutable partition files, so safe from any thread.
    ///
    /// Panics if the directory points at an unreadable or undecodable
    /// range; fault-tolerant callers use [`Self::try_read_postings`].
    pub fn read_postings(&self, loc: PostingsLocation) -> (PostingsList, u64) {
        match self.try_read_postings(loc) {
            Ok(out) => out,
            Err(e) => panic!("directory points at valid partition range: {e}"),
        }
    }

    /// Fallible [`Self::read_postings`]: an unreadable partition range or
    /// undecodable bytes surface as a typed [`IndexError`] instead of a
    /// panic.
    pub fn try_read_postings(
        &self,
        loc: PostingsLocation,
    ) -> Result<(PostingsList, u64), IndexError> {
        let file = Self::partition_file(loc.partition);
        let raw = self
            .dfs
            .read_at(&file, loc.offset, loc.len as usize)
            .map_err(|source| IndexError::Dfs { file: file.clone(), source })?;
        let (list, _) = PostingsList::decode(&raw).map_err(|e| IndexError::CorruptPostings {
            file,
            offset: loc.offset,
            detail: e.to_string(),
        })?;
        Ok((list, raw.len() as u64))
    }

    /// The postings-retrieval phase of Algorithms 4/5: computes the geohash
    /// circle cover of `(center, radius_km)` and fetches the postings list
    /// of every `⟨cell, keyword⟩` pair present in the directory.
    ///
    /// `keywords` are already-normalized term ids (the engine resolves
    /// strings through [`Self::vocab`] first). Panics where
    /// [`Self::try_fetch_for_query`] returns an error.
    pub fn fetch_for_query(
        &self,
        center: &Point,
        radius_km: f64,
        keywords: &[TermId],
        metric: DistanceMetric,
    ) -> QueryFetch {
        let cover = circle_cover(center, radius_km, self.geohash_len, metric)
            .expect("index geohash length is valid");
        match self.try_fetch_for_query(&cover, keywords) {
            Ok(fetch) => fetch,
            Err(e) => panic!("directory points at valid partition range: {e}"),
        }
    }

    /// Fetches the postings list of every `⟨cell, keyword⟩` pair of
    /// `cover` present in the directory: the directory hits are sorted
    /// into `(partition, offset)` order, read in that order, and filed per
    /// keyword. An unreadable or undecodable range is a typed
    /// [`IndexError`].
    pub fn try_fetch_for_query(
        &self,
        cover: &[Geohash],
        keywords: &[TermId],
    ) -> Result<QueryFetch, IndexError> {
        let mut hits: Vec<(usize, PostingsLocation)> = Vec::new();
        for (ki, &term) in keywords.iter().enumerate() {
            for &cell in cover {
                if let Some(loc) = self.forward.lookup(cell, term) {
                    hits.push((ki, loc));
                }
            }
        }
        hits.sort_by_key(|(_, loc)| (loc.partition, loc.offset));
        let mut per_keyword: Vec<Vec<Arc<PostingsList>>> =
            keywords.iter().map(|_| Vec::new()).collect();
        let mut bytes = 0u64;
        for &(ki, loc) in &hits {
            let (list, b) = self.try_read_postings(loc)?;
            bytes += b;
            per_keyword[ki].push(Arc::new(list));
        }
        Ok(QueryFetch { per_keyword, cells: cover.len(), lists: hits.len(), bytes })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use crate::build::{build_index, IndexBuildConfig};
    use tklus_model::{Post, TweetId, UserId};

    fn post(id: u64, lat: f64, lon: f64, text: &str) -> Post {
        Post::original(TweetId(id), UserId(id), Point::new_unchecked(lat, lon), text)
    }

    fn index() -> HybridIndex {
        let posts = vec![
            post(1, 43.670, -79.387, "hotel downtown"),
            post(2, 43.675, -79.390, "hotel and spa"),
            post(3, 43.800, -79.200, "hotel far away suburb"),
            post(4, 43.671, -79.388, "pizza place"),
            post(5, 48.8566, 2.3522, "hotel paris"),
        ];
        build_index(&posts, &IndexBuildConfig::default()).0
    }

    #[test]
    fn fetch_for_query_groups_by_keyword() {
        let idx = index();
        let hotel = idx.vocab().get("hotel").unwrap();
        let pizza = idx.vocab().get("pizza").unwrap();
        let center = Point::new_unchecked(43.6839128037, -79.37356590);
        let fetch = idx.fetch_for_query(&center, 10.0, &[hotel, pizza], DistanceMetric::Euclidean);
        assert_eq!(fetch.per_keyword.len(), 2);
        let hotel_ids: Vec<u64> =
            fetch.per_keyword[0].iter().flat_map(|l| l.postings().iter().map(|p| p.id.0)).collect();
        // Tweets 1 and 2 are in range cells; tweet 3's cell may or may not
        // fall inside the 10 km cover, tweet 5 (Paris) must not.
        assert!(hotel_ids.contains(&1) && hotel_ids.contains(&2));
        assert!(!hotel_ids.contains(&5));
        let pizza_ids: Vec<u64> =
            fetch.per_keyword[1].iter().flat_map(|l| l.postings().iter().map(|p| p.id.0)).collect();
        assert_eq!(pizza_ids, vec![4]);
        assert!(fetch.cells > 0);
        assert_eq!(fetch.lists, fetch.per_keyword.iter().map(Vec::len).sum::<usize>());
        assert!(fetch.bytes > 0);
    }

    #[test]
    fn unknown_keyword_fetches_nothing() {
        let idx = index();
        let center = Point::new_unchecked(43.68, -79.37);
        // Use a term id that exists in no directory entry.
        let bogus = TermId(9999);
        let fetch = idx.fetch_for_query(&center, 10.0, &[bogus], DistanceMetric::Euclidean);
        assert!(fetch.per_keyword[0].is_empty());
        assert_eq!(fetch.lists, 0);
        assert_eq!(fetch.bytes, 0);
    }

    #[test]
    fn wider_radius_fetches_at_least_as_much() {
        let idx = index();
        let hotel = idx.vocab().get("hotel").unwrap();
        let center = Point::new_unchecked(43.6839128037, -79.37356590);
        let near = idx.fetch_for_query(&center, 5.0, &[hotel], DistanceMetric::Euclidean);
        let far = idx.fetch_for_query(&center, 50.0, &[hotel], DistanceMetric::Euclidean);
        assert!(far.cells >= near.cells);
        assert!(far.lists >= near.lists);
        let far_ids: usize = far.per_keyword[0].iter().map(|l| l.len()).sum();
        let near_ids: usize = near.per_keyword[0].iter().map(|l| l.len()).sum();
        assert!(far_ids >= near_ids);
        // 50 km from downtown Toronto reaches the suburb tweet.
        let ids: Vec<u64> =
            far.per_keyword[0].iter().flat_map(|l| l.postings().iter().map(|p| p.id.0)).collect();
        assert!(ids.contains(&3));
    }

    #[test]
    fn bad_locations_surface_typed_errors() {
        let idx = index();
        let hotel = idx.vocab().get("hotel").unwrap();
        let (&(gh, _), &loc) = idx
            .forward()
            .iter()
            .find(|((_, t), _)| *t == hotel)
            .map(|(k, v)| (k, v))
            .expect("hotel has a directory entry");
        let _ = gh;
        // A read past the end of the partition is a DFS error.
        let past_end = PostingsLocation { partition: loc.partition, offset: 1 << 40, len: 8 };
        let err = idx.try_read_postings(past_end).unwrap_err();
        assert!(matches!(err, IndexError::Dfs { .. }), "{err}");
        // A truncated range decodes to garbage: a typed corruption error.
        if loc.len > 1 {
            let truncated =
                PostingsLocation { partition: loc.partition, offset: loc.offset, len: loc.len - 1 };
            let err = idx.try_read_postings(truncated).unwrap_err();
            assert!(matches!(err, IndexError::CorruptPostings { .. }), "{err}");
        }
        // The good location still reads fine.
        assert!(idx.try_read_postings(loc).is_ok());
    }

    #[test]
    fn reads_hit_dfs_counters() {
        let idx = index();
        let hotel = idx.vocab().get("hotel").unwrap();
        let before = idx.dfs().total_counters().blocks_read;
        let center = Point::new_unchecked(43.6839128037, -79.37356590);
        let _ = idx.fetch_for_query(&center, 10.0, &[hotel], DistanceMetric::Euclidean);
        assert!(idx.dfs().total_counters().blocks_read > before);
    }
}
