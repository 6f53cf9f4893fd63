//! The live delta index: postings and metadata for acked-but-unsealed
//! posts.
//!
//! The sealed engine is immutable; posts ingested since the last
//! compaction live here instead: their metadata as a
//! [`LiveMetadata`], the overlay a query reads the sealed trees through,
//! and their postings as an in-memory map
//! keyed term-first (⟨term *string*, geohash cell⟩). Term strings, not
//! term ids: a live post can carry words the sealed vocabulary has never
//! seen, and the whole point of the delta is to answer for them before
//! any index rebuild.
//!
//! Each list is a plain id-sorted `Vec`; compaction drains the memtable
//! long before a list is worth compressing.
//!
//! [`MemtableIndex::candidates`] mirrors the sealed engine's candidate
//! formation exactly — per-cell exact lookups over the query's circle
//! cover, OR = union summing term frequencies, AND = per-keyword unions
//! intersected (any keyword that normalizes away empties an AND query) —
//! so the ingest store can merge sealed and live candidates into one
//! tweet-id-ordered stream and reproduce a from-scratch engine's answers
//! bit for bit (the snapshot-equality oracle in `tests/` asserts this).

use std::collections::BTreeMap;
use tklus_core::LiveMetadata;
use tklus_geo::Geohash;
use tklus_model::{Post, Semantics, TweetId};

/// In-memory postings and metadata over the live (unsealed) posts.
#[derive(Debug, Clone, Default)]
pub struct MemtableIndex {
    /// term → cell → id-sorted `(tweet, tf)` postings. Term-first keying:
    /// one `&str` lookup per term, then cheap per-cell probes over the
    /// cover — no per-cell key allocation.
    postings: BTreeMap<String, BTreeMap<Geohash, Vec<(TweetId, u32)>>>,
    /// The live posts' rows, reply edges and author locations.
    meta: LiveMetadata,
}

impl MemtableIndex {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live posts.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when no posts are live.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The live posts' metadata: the overlay queries read the sealed
    /// engine's trees through.
    pub fn meta(&self) -> &LiveMetadata {
        &self.meta
    }

    /// Absorbs one post: its metadata, and its postings under `cell`, its
    /// geohash at the sealed index's encoding length, with `terms` the
    /// pipeline's `(term, tf)` counts
    /// ([`tklus_core::TklusEngine::term_counts`]). Posts may arrive in any
    /// tweet-id order (replay is sequence-ordered, not id-ordered);
    /// postings stay id-sorted by insertion position.
    pub fn insert(&mut self, post: &Post, cell: Geohash, terms: &[(String, u32)]) {
        self.meta.insert(post);
        let tid = post.id;
        for (term, tf) in terms {
            let list = self.postings.entry(term.clone()).or_default().entry(cell).or_default();
            match list.binary_search_by_key(&tid, |e| e.0) {
                Ok(at) => list[at].1 = *tf,
                Err(at) => list.insert(at, (tid, *tf)),
            }
        }
    }

    /// Candidate formation over the live posts, mirroring the sealed
    /// engine: `cover` is the query's circle cover at the index geohash
    /// length, `keywords` the *normalized* query keywords (`None` =
    /// normalized away). OR unions all lists summing tf; AND unions per
    /// keyword then intersects, and any `None` keyword empties the whole
    /// AND query (the sealed engine's contract). Returns id-sorted
    /// `(tweet, tf)` rows.
    pub fn candidates(
        &self,
        cover: &[Geohash],
        keywords: &[Option<String>],
        semantics: Semantics,
    ) -> Vec<(TweetId, u32)> {
        // Dedup normalized keywords (the sealed path's resolve contract:
        // "Hotels" and "hotel" contribute one term).
        let mut terms: Vec<&str> = Vec::new();
        for kw in keywords {
            match kw {
                Some(t) if !terms.contains(&t.as_str()) => terms.push(t),
                Some(_) => {}
                None if semantics == Semantics::And => return Vec::new(),
                None => {}
            }
        }
        match semantics {
            Semantics::Or => {
                let mut acc: BTreeMap<TweetId, u32> = BTreeMap::new();
                for term in &terms {
                    for (tid, tf) in self.term_postings(cover, term) {
                        *acc.entry(tid).or_insert(0) += tf;
                    }
                }
                acc.into_iter().collect()
            }
            Semantics::And => {
                let groups: Vec<Vec<(TweetId, u32)>> =
                    terms.iter().map(|term| self.term_postings(cover, term)).collect();
                if groups.iter().any(Vec::is_empty) {
                    Vec::new()
                } else {
                    tklus_index::intersect_sum(&groups)
                }
            }
        }
    }

    /// One keyword's postings across the cover, id-sorted. A live post
    /// appears in exactly one cell, so the per-cell lists are disjoint:
    /// chain and sort.
    fn term_postings(&self, cover: &[Geohash], term: &str) -> Vec<(TweetId, u32)> {
        let Some(cells) = self.postings.get(term) else {
            return Vec::new();
        };
        let mut out: Vec<(TweetId, u32)> =
            cover.iter().filter_map(|cell| cells.get(cell)).flatten().copied().collect();
        out.sort_by_key(|e| e.0);
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;
    use tklus_geo::{encode, Point};
    use tklus_model::UserId;

    fn cell(lat: f64, lon: f64) -> Geohash {
        encode(&Point::new_unchecked(lat, lon), 4).unwrap()
    }

    fn post(id: u64, user: u64) -> Post {
        Post::original(TweetId(id), UserId(user), Point::new_unchecked(43.70, -79.42), "")
    }

    fn table() -> (MemtableIndex, Geohash) {
        let c = cell(43.70, -79.42);
        let mut m = MemtableIndex::new();
        m.insert(&post(5, 1), c, &[("hotel".into(), 2), ("coffe".into(), 1)]);
        m.insert(&post(2, 2), c, &[("hotel".into(), 1)]);
        m.insert(&post(9, 1), c, &[("coffe".into(), 3)]);
        (m, c)
    }

    #[test]
    fn or_unions_and_sorts_by_id() {
        let (m, c) = table();
        let cands =
            m.candidates(&[c], &[Some("hotel".into()), Some("coffe".into())], Semantics::Or);
        assert_eq!(cands, vec![(TweetId(2), 1), (TweetId(5), 3), (TweetId(9), 3)]);
    }

    #[test]
    fn and_intersects_and_none_keyword_empties() {
        let (m, c) = table();
        let both =
            m.candidates(&[c], &[Some("hotel".into()), Some("coffe".into())], Semantics::And);
        assert_eq!(both, vec![(TweetId(5), 3)]);
        let with_stopword =
            m.candidates(&[c], &[Some("hotel".into()), None, Some("coffe".into())], Semantics::And);
        assert!(with_stopword.is_empty());
        // OR just drops the normalized-away keyword.
        let or = m.candidates(&[c], &[Some("hotel".into()), None], Semantics::Or);
        assert_eq!(or.len(), 2);
    }

    #[test]
    fn cover_filters_by_cell_and_duplicate_keywords_count_once() {
        let (mut m, c) = table();
        let far = cell(-33.87, 151.21);
        m.insert(&post(11, 3), far, &[("hotel".into(), 1)]);
        let near = m.candidates(&[c], &[Some("hotel".into())], Semantics::Or);
        assert!(near.iter().all(|&(tid, _)| tid != TweetId(11)));
        let both_cells = m.candidates(&[c, far], &[Some("hotel".into())], Semantics::Or);
        assert!(both_cells.iter().any(|&(tid, _)| tid == TweetId(11)));
        let dup = m.candidates(&[c], &[Some("hotel".into()), Some("hotel".into())], Semantics::Or);
        assert_eq!(dup, m.candidates(&[c], &[Some("hotel".into())], Semantics::Or));
    }

    #[test]
    fn accessors() {
        let (m, _) = table();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.meta().len(), 3);
        assert!(MemtableIndex::new().is_empty());
        assert!(m.candidates(&[], &[Some("hotel".into())], Semantics::Or).is_empty());
    }
}
