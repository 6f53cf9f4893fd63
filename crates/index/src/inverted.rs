//! The query-side face of the hybrid index.
//!
//! [`HybridIndex`] bundles the in-memory forward index, the term
//! dictionary, and the partition bytes, and implements the
//! postings-retrieval phase of Algorithms 4 and 5 (lines 1–7): geohash
//! circle cover, then one postings fetch per surviving `⟨cell, keyword⟩`
//! pair, cell by cell in cover order.

use crate::forward::{ForwardIndex, PostingsLocation};
use crate::posting::PostingsList;
use std::sync::Arc;
use tklus_geo::{circle_cover, DistanceMetric, Geohash, Point};
use tklus_text::{TermId, Vocab};

/// A `⟨geohash, term⟩` key, as stored in the forward index.
pub type IndexKey = (Geohash, TermId);

/// Errors from the inverted-index read path.
#[derive(Debug)]
pub enum IndexError {
    /// A directory location names bytes the partition does not hold, or
    /// bytes that fail to decode.
    CorruptPostings {
        /// Partition the location names.
        partition: u32,
        /// Byte offset of the postings list within the partition.
        offset: u64,
        /// What was wrong with the range or its bytes.
        detail: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::CorruptPostings { partition, offset, detail } => {
                write!(f, "corrupt postings in partition {partition} at offset {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// The hybrid index: forward directory, dictionary and inverted
/// partitions, all in memory.
pub struct HybridIndex {
    forward: ForwardIndex,
    vocab: Vocab,
    /// `partitions[i]` is partition `i`'s encoded postings lists,
    /// concatenated in key order.
    partitions: Vec<Vec<u8>>,
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
    /// Encoded postings bytes read.
    pub bytes: u64,
}

impl HybridIndex {
    /// Assembles an index from its parts (normally via
    /// [`crate::build::build_index`]).
    pub fn new(
        forward: ForwardIndex,
        vocab: Vocab,
        partitions: Vec<Vec<u8>>,
        geohash_len: usize,
    ) -> Self {
        Self { forward, vocab, partitions, geohash_len }
    }

    /// The forward index (directory).
    pub fn forward(&self) -> &ForwardIndex {
        &self.forward
    }

    /// The term dictionary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The partition bytes: `partitions()[i]` is partition `i`.
    pub fn partitions(&self) -> &[Vec<u8>] {
        &self.partitions
    }

    /// The geohash encoding length the index was built with.
    pub fn geohash_len(&self) -> usize {
        self.geohash_len
    }

    /// Fetches the postings list for one `⟨geohash, term⟩` key — a lookup
    /// convenience over [`Self::try_read_postings`] that panics where it
    /// returns an error.
    pub fn postings(&self, geohash: Geohash, term: TermId) -> Option<PostingsList> {
        let loc = self.forward.lookup(geohash, term)?;
        match self.try_read_postings(loc) {
            Ok((list, _)) => Some(list),
            Err(e) => panic!("directory points at a valid partition range: {e}"),
        }
    }

    /// Decodes the postings list at a directory location in place,
    /// returning the list and the number of encoded bytes read. A range
    /// outside its partition, or bytes that do not decode, is a typed
    /// [`IndexError`].
    pub fn try_read_postings(
        &self,
        loc: PostingsLocation,
    ) -> Result<(PostingsList, u64), IndexError> {
        let corrupt = |detail: String| IndexError::CorruptPostings {
            partition: loc.partition,
            offset: loc.offset,
            detail,
        };
        let raw = self
            .bytes_at(loc)
            .ok_or_else(|| corrupt(format!("{} bytes lie outside the partition", loc.len)))?;
        let (list, _) = PostingsList::decode(raw).map_err(|e| corrupt(e.to_string()))?;
        Ok((list, raw.len() as u64))
    }

    /// The bytes a location names, or `None` when its partition does not
    /// exist or `offset + len` overflows or passes the partition's end.
    pub(crate) fn bytes_at(&self, loc: PostingsLocation) -> Option<&[u8]> {
        let start = usize::try_from(loc.offset).ok()?;
        let end = start.checked_add(loc.len as usize)?;
        self.partitions.get(loc.partition as usize)?.get(start..end)
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
        match self.try_fetch_for_query(&cover, keywords, |_| true) {
            Ok(fetch) => fetch,
            Err(e) => panic!("directory points at valid partition range: {e}"),
        }
    }

    /// Fetches the postings list of every `⟨cell, keyword⟩` pair of
    /// `cover` present in the directory, cell by cell in cover order and
    /// filed per keyword. Before each cell it asks `more(cells_done)`; the
    /// first `false` stops the fetch there, so a caller's budget decides
    /// how much of the cover is read. An unreadable or undecodable range is
    /// a typed [`IndexError`].
    pub fn try_fetch_for_query(
        &self,
        cover: &[Geohash],
        keywords: &[TermId],
        mut more: impl FnMut(usize) -> bool,
    ) -> Result<QueryFetch, IndexError> {
        let mut fetch = QueryFetch {
            per_keyword: keywords.iter().map(|_| Vec::new()).collect(),
            cells: 0,
            lists: 0,
            bytes: 0,
        };
        for &cell in cover {
            if !more(fetch.cells) {
                break;
            }
            for (ki, &term) in keywords.iter().enumerate() {
                let Some(loc) = self.forward.lookup(cell, term) else { continue };
                let (list, bytes) = self.try_read_postings(loc)?;
                fetch.lists += 1;
                fetch.bytes += bytes;
                fetch.per_keyword[ki].push(Arc::new(list));
            }
            fetch.cells += 1;
        }
        Ok(fetch)
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
        // A range past the end of the partition, one whose end overflows,
        // and a partition that does not exist are typed errors.
        for bad in [
            PostingsLocation { partition: loc.partition, offset: 1 << 40, len: 8 },
            PostingsLocation { partition: loc.partition, offset: u64::MAX - 5, len: 8 },
            PostingsLocation { partition: 7, offset: 0, len: 1 },
        ] {
            let err = idx.try_read_postings(bad).unwrap_err();
            assert!(matches!(err, IndexError::CorruptPostings { .. }), "{err}");
        }
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
}
