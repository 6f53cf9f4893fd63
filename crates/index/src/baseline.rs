//! Centralized baseline index builder.
//!
//! The paper compares its MapReduce construction against I³, a
//! state-of-the-art *centralized* spatial-keyword index, using I³'s
//! published numbers (Section VI-A). Since we cannot run the authors'
//! testbed, we provide an executable centralized comparator instead: the
//! same logical index (identical forward/inverted structure and lookup
//! semantics) built by a single sequential pass on a one-node DFS. The
//! Figure 5 harness measures this against the distributed build so the
//! paper's "distributed construction scales better" claim is testable
//! rather than quoted.

use crate::build::IndexBuildReport;
use crate::forward::{ForwardIndex, PostingsLocation};
use crate::inverted::HybridIndex;
use crate::posting::PostingsList;
use std::collections::BTreeMap;
use std::time::Instant;
use tklus_geo::{encode, Geohash};
use tklus_model::Post;
use tklus_storage::{Dfs, DfsConfig};
use tklus_text::{TextPipeline, Vocab};

/// Builds the same hybrid index sequentially on a single node.
pub fn build_centralized(
    posts: &[Post],
    geohash_len: usize,
    block_size: usize,
) -> (HybridIndex, IndexBuildReport) {
    let start = Instant::now();
    let pipeline = TextPipeline::new();
    // One sequential pass accumulating (key -> postings) in sorted order.
    let mut acc: BTreeMap<(Geohash, String), Vec<(u64, u32)>> = BTreeMap::new();
    for post in posts {
        let gh = encode(&post.location, geohash_len).expect("valid geohash length");
        let mut terms = pipeline.terms(&post.text);
        terms.sort_unstable();
        let mut i = 0;
        while i < terms.len() {
            let mut j = i + 1;
            while j < terms.len() && terms[j] == terms[i] {
                j += 1;
            }
            acc.entry((gh, terms[i].clone())).or_default().push((post.id.0, (j - i) as u32));
            i = j;
        }
    }
    let map_time = start.elapsed();

    let dfs = Dfs::new(DfsConfig { nodes: 1, block_size, replication: 1 });
    let mut vocab = Vocab::new();
    let mut entries: Vec<((Geohash, tklus_text::TermId), PostingsLocation)> = Vec::new();
    let mut file = Vec::new();
    let mut postings_total = 0u64;
    for ((gh, term), pairs) in &acc {
        let list: PostingsList = pairs.iter().copied().collect();
        let term_id = vocab.intern(term);
        vocab.add_occurrences(term_id, list.postings().iter().map(|p| p.tf as u64).sum());
        postings_total += list.len() as u64;
        // Same encoding as the distributed build, so index sizes stay
        // directly comparable.
        let bytes = list.encode();
        entries.push((
            (*gh, term_id),
            PostingsLocation { partition: 0, offset: file.len() as u64, len: bytes.len() as u32 },
        ));
        file.extend_from_slice(&bytes);
    }
    dfs.create_on(&HybridIndex::partition_file(0), file, 0).expect("fresh DFS");
    entries.sort_by_key(|e| e.0);
    let forward = ForwardIndex::from_sorted(entries);

    let report = IndexBuildReport {
        total_time: start.elapsed(),
        map_time,
        reduce_time: start.elapsed() - map_time,
        posts: posts.len() as u64,
        keys: forward.len() as u64,
        postings: postings_total,
        index_bytes: dfs.total_bytes(),
        distinct_terms: vocab.len() as u64,
    };
    (HybridIndex::new(forward, vocab, dfs, geohash_len), report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use crate::build::{build_index, IndexBuildConfig};
    use tklus_geo::{DistanceMetric, Point};
    use tklus_model::{TweetId, UserId};

    fn posts() -> Vec<Post> {
        (0..200u64)
            .map(|i| {
                let lat = 43.6 + (i % 20) as f64 * 0.01;
                let lon = -79.5 + (i % 17) as f64 * 0.01;
                let text = match i % 4 {
                    0 => "great hotel downtown",
                    1 => "pizza and coffee",
                    2 => "hotel pizza combo deal",
                    _ => "random chatter about games",
                };
                Post::original(TweetId(i + 1), UserId(i % 31), Point::new_unchecked(lat, lon), text)
            })
            .collect()
    }

    #[test]
    fn centralized_equals_distributed_logically() {
        let posts = posts();
        let (dist, _) = build_index(&posts, &IndexBuildConfig::default());
        let (cent, _) = build_centralized(&posts, 4, 64 * 1024);
        // Same dictionary contents (ids may differ).
        assert_eq!(dist.vocab().len(), cent.vocab().len());
        // Same directory size.
        assert_eq!(dist.forward().len(), cent.forward().len());
        // Same query answers.
        let center = Point::new_unchecked(43.68, -79.4);
        for kw in ["hotel", "pizza", "coffee", "game"] {
            let td = dist.vocab().get(kw);
            let tc = cent.vocab().get(kw);
            assert_eq!(td.is_some(), tc.is_some(), "{kw}");
            let (Some(td), Some(tc)) = (td, tc) else { continue };
            let fd = dist.fetch_for_query(&center, 25.0, &[td], DistanceMetric::Euclidean);
            let fc = cent.fetch_for_query(&center, 25.0, &[tc], DistanceMetric::Euclidean);
            let ids = |f: &crate::inverted::QueryFetch| {
                let mut v: Vec<u64> = f.per_keyword[0]
                    .iter()
                    .flat_map(|l| l.postings().iter().map(|p| p.id.0))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(ids(&fd), ids(&fc), "{kw}");
        }
    }

    #[test]
    fn report_totals_match() {
        let posts = posts();
        let (_, rd) = build_index(&posts, &IndexBuildConfig::default());
        let (_, rc) = build_centralized(&posts, 4, 64 * 1024);
        assert_eq!(rd.keys, rc.keys);
        assert_eq!(rd.postings, rc.postings);
        assert_eq!(rd.distinct_terms, rc.distinct_terms);
        assert_eq!(rd.index_bytes, rc.index_bytes);
    }
}
