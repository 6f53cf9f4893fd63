//! The query's one-pass fetch equals the list-by-list fetch, combined.
//!
//! `try_fetch_candidates` decodes each keyword's surviving postings into
//! one `(tweet, tf)` buffer and `candidates` combines the buffers. For
//! random corpora, circles, one to three keywords, OR and AND, and random
//! per-cell budgets (which stop the fetch after a prefix of the cover),
//! that must equal `union_sum` / `intersect_sum` over the lists of
//! `try_fetch_for_query` under the same budget — with the same `cells`,
//! `lists`, `bytes` and `refined_out`.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use tklus_geo::{circle_cover, Circle, DistanceMetric, Point};
use tklus_index::{build_index, candidates, intersect_sum, union_sum, IndexBuildConfig};
use tklus_model::{Post, Semantics, TweetId, UserId};

const WORDS: [&str; 5] = ["hotel", "spa", "pizza", "beach", "museum"];

/// A post near `(lat, lon)` whose text repeats some of [`WORDS`].
fn arb_post() -> impl Strategy<Value = (f64, f64, Vec<usize>)> {
    (-0.3f64..=0.3, -0.3f64..=0.3, proptest::collection::vec(0usize..WORDS.len(), 1..4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_candidates_equal_the_list_combine(
        lat in -60.0f64..=60.0,
        lon in prop_oneof![-180.0f64..=180.0, 179.7f64..=180.0],
        posts in proptest::collection::vec(arb_post(), 1..120),
        radius_km in 0.5f64..=40.0,
        geohash_len in 3usize..=6,
        keywords in proptest::collection::vec(0usize..WORDS.len(), 1..=3),
        and in any::<bool>(),
        haversine in any::<bool>(),
        max_cells in prop_oneof![Just(usize::MAX), 0usize..12],
    ) {
        let posts: Vec<Post> = posts
            .iter()
            .enumerate()
            .map(|(i, (dlat, dlon, words))| {
                let mut plon = lon + dlon;
                if plon > 180.0 {
                    plon -= 360.0;
                }
                let at = Point::new_unchecked(lat + dlat, plon);
                let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                Post::original(TweetId(i as u64 * 3 + 1), UserId(i as u64 % 7), at, text.join(" "))
            })
            .collect();
        let config = IndexBuildConfig { geohash_len, nodes: 3, ..IndexBuildConfig::default() };
        let (index, _) = build_index(&posts, &config);
        let terms: Vec<_> = keywords.iter().filter_map(|&w| index.vocab().get(WORDS[w])).collect();
        prop_assume!(!terms.is_empty());
        let metric = if haversine { DistanceMetric::Haversine } else { DistanceMetric::Euclidean };
        let center = Point::new_unchecked(lat, lon);
        let cover = circle_cover(&center, radius_km, geohash_len, metric).unwrap();
        let circle = Circle { center, radius_km, metric };
        let budget = |done: usize| done < max_cells;

        let lists = index.try_fetch_for_query(&cover, &circle, &terms, budget).unwrap();
        let one_pass = index.try_fetch_candidates(&cover, &circle, &terms, budget).unwrap();
        prop_assert_eq!(
            (one_pass.cells, one_pass.lists, one_pass.bytes, one_pass.refined_out),
            (lists.cells, lists.lists, lists.bytes, lists.refined_out)
        );
        prop_assert_eq!(lists.cells, cover.len().min(max_cells));

        let semantics = if and { Semantics::And } else { Semantics::Or };
        let reference = match semantics {
            Semantics::Or => union_sum(&lists.per_keyword.iter().flatten().cloned().collect::<Vec<_>>()),
            Semantics::And => {
                let groups: Vec<_> = lists.per_keyword.iter().map(|l| union_sum(l)).collect();
                if groups.iter().any(Vec::is_empty) {
                    Vec::new()
                } else {
                    intersect_sum(&groups)
                }
            }
        };
        prop_assert_eq!(candidates(one_pass.per_keyword, semantics), reference);
    }
}
