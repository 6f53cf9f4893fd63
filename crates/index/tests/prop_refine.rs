//! The refinement filter never drops an in-radius post (DESIGN.md §13).
//!
//! Each posting carries its post's cell up to three geohash characters
//! finer than its key, and `try_fetch_for_query` drops the postings whose
//! fine cell cannot reach the query circle. For random centres (±85°
//! latitude, many beside the antimeridian), radii from 0.05 to 500 km, key
//! lengths 1–12 and both metrics, with posts scattered inside, around and
//! just across the circle's edge: every post within the radius under
//! `distance_km` keeps its posting.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use tklus_geo::{Circle, DistanceMetric, Geohash, Point};
use tklus_index::build::key_and_refinement;
use tklus_index::{build_index, union_sum, IndexBuildConfig};
use tklus_model::{Post, TweetId, UserId};

/// A post's offset from the centre: a direction and a distance as a
/// fraction of the radius, most of them near the edge.
fn arb_offset() -> impl Strategy<Value = (f64, f64)> {
    let scale = prop_oneof![0.0f64..1.3, 0.98f64..1.02, 0.999_99f64..1.000_01];
    (0.0f64..std::f64::consts::TAU, scale)
}

/// The point at `fraction · radius_km` from `center` toward `bearing`, on
/// the locally flat projection (exact enough to land near the edge),
/// wrapped across the antimeridian and clamped at the poles.
fn offset_point(center: &Point, radius_km: f64, (bearing, fraction): (f64, f64)) -> Point {
    let km_per_degree = 111.195;
    let dlat = fraction * radius_km * bearing.cos() / km_per_degree;
    let cos = center.lat().to_radians().cos().max(0.05);
    let dlon = fraction * radius_km * bearing.sin() / (km_per_degree * cos);
    let mut lon = center.lon() + dlon;
    while lon > 180.0 {
        lon -= 360.0;
    }
    while lon < -180.0 {
        lon += 360.0;
    }
    Point::new_unchecked((center.lat() + dlat).clamp(-90.0, 90.0), lon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_in_radius_post_survives_the_fetch(
        lat in -85.0f64..=85.0,
        lon in prop_oneof![-180.0f64..=180.0, 179.0f64..=180.0, -180.0f64..=-179.0],
        log_radius in (0.05f64).ln()..=(500.0f64).ln(),
        geohash_len in 1usize..=12,
        haversine in any::<bool>(),
        offsets in proptest::collection::vec(arb_offset(), 1..40),
    ) {
        let metric = if haversine { DistanceMetric::Haversine } else { DistanceMetric::Euclidean };
        let center = Point::new_unchecked(lat, lon);
        let radius_km = log_radius.exp();
        let posts: Vec<Post> = offsets
            .iter()
            .enumerate()
            .map(|(i, &o)| {
                let at = offset_point(&center, radius_km, o);
                Post::original(TweetId(i as u64 + 1), UserId(1), at, "hotel")
            })
            .collect();
        let config = IndexBuildConfig { geohash_len, ..IndexBuildConfig::default() };
        let (index, _) = build_index(&posts, &config);
        let hotel = index.vocab().get("hotel").unwrap();
        // Every cell that holds a post, in or out of the circle: the
        // filter alone decides what survives.
        let mut cells: Vec<Geohash> =
            posts.iter().map(|p| key_and_refinement(&p.location, geohash_len).0).collect();
        cells.sort();
        cells.dedup();
        let circle = Circle { center, radius_km, metric };
        let fetch = index.try_fetch_for_query(&cells, &circle, &[hotel], |_| true).unwrap();
        let kept: Vec<u64> =
            union_sum(&fetch.per_keyword[0]).iter().map(|(id, _)| id.0).collect();
        prop_assert_eq!(kept.len() + fetch.refined_out, posts.len());
        for post in &posts {
            let d = center.distance_km(&post.location, metric);
            if d <= radius_km {
                prop_assert!(
                    kept.binary_search(&post.id.0).is_ok(),
                    "{:?} len {}: post at {} ({} km of {} km) dropped",
                    metric, geohash_len, post.location, d, radius_km
                );
            }
        }
    }
}

#[test]
fn the_filter_drops_most_of_a_length_4_cell_around_a_2_km_circle() {
    // The case it exists for: a 2 km circle inside a length-4 cell that is
    // 60 times its area. Posts on a 60 × 60 grid over the cell: the fetch
    // keeps the in-radius ones and little else.
    let center = Point::new_unchecked(43.70, -79.40);
    let key = key_and_refinement(&center, 4).0;
    let cell = tklus_geo::Cell::from_geohash(&key);
    let posts: Vec<Post> = (0..3600u64)
        .map(|i| {
            let lat =
                cell.lat_lo() + (cell.lat_hi() - cell.lat_lo()) * ((i / 60) as f64 + 0.5) / 60.0;
            let lon =
                cell.lon_lo() + (cell.lon_hi() - cell.lon_lo()) * ((i % 60) as f64 + 0.5) / 60.0;
            Post::original(TweetId(i + 1), UserId(1), Point::new_unchecked(lat, lon), "hotel")
        })
        .collect();
    let (index, _) = build_index(&posts, &IndexBuildConfig::default());
    let hotel = index.vocab().get("hotel").unwrap();
    let fetch = index.fetch_for_query(&center, 2.0, &[hotel], DistanceMetric::Euclidean);
    let inside = posts.iter().filter(|p| center.euclidean_km(&p.location) <= 2.0).count();
    let kept: usize = fetch.per_keyword[0].iter().map(|l| l.len()).sum();
    assert!(inside > 0 && kept >= inside);
    assert!(kept * 10 < posts.len(), "kept {kept} of {} for {inside} in radius", posts.len());
    assert!((kept as f64) < 1.5 * inside as f64, "kept {kept} for {inside} in radius");
}
