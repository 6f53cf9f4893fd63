//! The in-memory forward index (postings directory).
//!
//! Figure 4: "Each entry in the forward index is in the format of
//! `⟨ge_i, kw_i⟩` … the forward index associates each of its entries to a
//! postings list in the inverted index that is stored in HDFS." Here the
//! inverted index's partitions are held by the index itself. Entries are
//! kept sorted by key, so lookup is a binary search and the whole structure
//! stays small enough to load at startup ("the system first loads the
//! postings forward index into memory since it is always small").

use tklus_geo::Geohash;
use tklus_text::TermId;

/// Where a postings list lives: a byte range of one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingsLocation {
    /// Partition index.
    pub partition: u32,
    /// Byte offset within the partition.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u32,
}

/// Sorted directory from `⟨geohash, term⟩` to postings location.
#[derive(Debug, Default, Clone)]
pub struct ForwardIndex {
    entries: Vec<((Geohash, TermId), PostingsLocation)>,
}

impl ForwardIndex {
    /// Builds from entries already sorted by key. Panics if unsorted or
    /// duplicated — the build sorts the entries and the loader refuses an unsorted `forward.tsv`, so a
    /// violation is a bug.
    pub fn from_sorted(entries: Vec<((Geohash, TermId), PostingsLocation)>) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "forward index entries must be strictly sorted by (geohash, term)"
        );
        Self { entries }
    }

    /// Looks up the postings location for `⟨geohash, term⟩`.
    pub fn lookup(&self, geohash: Geohash, term: TermId) -> Option<PostingsLocation> {
        self.entries.binary_search_by_key(&(geohash, term), |e| e.0).ok().map(|i| self.entries[i].1)
    }

    /// All entries for a geohash cell, sorted by term.
    pub fn cell_entries(&self, geohash: Geohash) -> &[((Geohash, TermId), PostingsLocation)] {
        let lo = self.entries.partition_point(|e| e.0 .0 < geohash);
        let hi = self.entries.partition_point(|e| e.0 .0 <= geohash);
        &self.entries[lo..hi]
    }

    /// Number of directory entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident size in bytes (the paper keeps this "< 12 MB").
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<((Geohash, TermId), PostingsLocation)>()
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &((Geohash, TermId), PostingsLocation)> {
        self.entries.iter()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;

    fn gh(s: &str) -> Geohash {
        s.parse().unwrap()
    }

    fn loc(partition: u32, offset: u64, len: u32) -> PostingsLocation {
        PostingsLocation { partition, offset, len }
    }

    fn sample() -> ForwardIndex {
        ForwardIndex::from_sorted(vec![
            ((gh("6gxp"), TermId(1)), loc(0, 0, 10)),
            ((gh("6gxp"), TermId(5)), loc(0, 10, 4)),
            ((gh("6gxq"), TermId(1)), loc(0, 14, 8)),
            ((gh("u4pr"), TermId(2)), loc(1, 0, 6)),
        ])
    }

    #[test]
    fn lookup_hits_and_misses() {
        let f = sample();
        assert_eq!(f.lookup(gh("6gxp"), TermId(5)), Some(loc(0, 10, 4)));
        assert_eq!(f.lookup(gh("6gxp"), TermId(2)), None);
        assert_eq!(f.lookup(gh("zzzz"), TermId(1)), None);
    }

    #[test]
    fn cell_entries_groups_by_geohash() {
        let f = sample();
        let cell = f.cell_entries(gh("6gxp"));
        assert_eq!(cell.len(), 2);
        assert!(cell.iter().all(|e| e.0 .0 == gh("6gxp")));
        assert!(f.cell_entries(gh("0000")).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_entries_rejected() {
        let _ = ForwardIndex::from_sorted(vec![
            ((gh("u4pr"), TermId(2)), loc(0, 0, 1)),
            ((gh("6gxp"), TermId(1)), loc(0, 1, 1)),
        ]);
    }

    #[test]
    fn size_and_len() {
        let f = sample();
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
        assert!(f.size_bytes() > 0);
        assert!(ForwardIndex::default().is_empty());
    }
}
