//! Centralized baseline index builder.
//!
//! The paper compares its MapReduce construction against I³, a
//! state-of-the-art *centralized* spatial-keyword index, using I³'s
//! published numbers (Section VI-A). Since we cannot run the authors'
//! testbed, we provide an executable centralized comparator instead: the
//! same logical index (identical forward/inverted structure and lookup
//! semantics) built by a single sequential pass into one partition. The
//! Figure 5 harness measures this against the distributed build so the
//! paper's "distributed construction scales better" claim is testable
//! rather than quoted.

use crate::build::{lay_out, EncodedList, IndexBuildReport};
use crate::inverted::HybridIndex;
use std::collections::BTreeMap;
use std::time::Instant;
use tklus_geo::{encode, Geohash};
use tklus_model::Post;
use tklus_text::TextPipeline;

/// Builds the same hybrid index sequentially into a single partition.
pub fn build_centralized(posts: &[Post], geohash_len: usize) -> (HybridIndex, IndexBuildReport) {
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

    // Same encoding and layout as the distributed build, so index sizes
    // stay directly comparable.
    let lists = acc
        .iter()
        .map(|((gh, term), pairs)| ((*gh, term.as_str()), EncodedList::new(pairs.iter().copied())))
        .collect();
    let (index, report) = lay_out(vec![lists], geohash_len);
    let total_time = start.elapsed();
    let report = IndexBuildReport {
        total_time,
        map_time,
        reduce_time: total_time - map_time,
        posts: posts.len() as u64,
        ..report
    };
    (index, report)
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
        let (cent, _) = build_centralized(&posts, 4);
        // Same dictionary contents (ids may differ).
        assert_eq!(dist.vocab().len(), cent.vocab().len());
        // Same directory size.
        assert_eq!(dist.forward().len(), cent.forward().len());
        // One partition each, laid out by the same routine: the same bytes.
        assert_eq!(dist.partitions(), cent.partitions());
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
        let (_, rc) = build_centralized(&posts, 4);
        assert_eq!(rd.keys, rc.keys);
        assert_eq!(rd.postings, rc.postings);
        assert_eq!(rd.distinct_terms, rc.distinct_terms);
        assert_eq!(rd.index_bytes, rc.index_bytes);
    }
}
