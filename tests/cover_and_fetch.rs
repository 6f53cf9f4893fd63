//! Tier-1: the query's front half — the circle cover and the one-pass
//! postings fetch — against the references it replaced.
//!
//! * The cover enumerates the grid cells of the circle's bounding box; it
//!   must equal the quadtree descent cell for cell: at the poles, across
//!   the antimeridian, and for circles whose bounding box ends exactly on
//!   a row edge, where only the box's one-row margin keeps the boundary
//!   row.
//! * The fetch decodes each keyword's surviving postings into one
//!   `(tweet, tf)` buffer; combined, that must equal `union_sum` /
//!   `intersect_sum` over the list-by-list fetch, for OR and AND and under
//!   cell budgets, with the same work counts.
//! * The refinement filter keeps every in-radius post of a continental
//!   Haversine circle, posts a few metres inside its edge included: the
//!   filter's `sin` floor is what keeps them.

use tklus::core::{EngineConfig, TklusEngine};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::geo::{circle_cover, Cell, Circle, DistanceMetric, Geohash, Point, EARTH_RADIUS_KM};
use tklus::index::{
    build_index, candidates, intersect_sum, union_sum, HybridIndex, IndexBuildConfig,
};
use tklus::model::{Post, Semantics, TweetId, UserId};
use tklus::text::TermId;

const METRICS: [DistanceMetric; 2] = [DistanceMetric::Euclidean, DistanceMetric::Haversine];

/// Kilometres per degree of latitude, as the cell bound computes it.
const KM_PER_DEGREE: f64 = EARTH_RADIUS_KM * std::f64::consts::PI / 180.0;

/// The quadtree descent from the 32 root cells: every prefix whose cell
/// passes the circle test is expanded, and the survivors at `len` emitted.
fn descent(center: &Point, radius_km: f64, len: usize, metric: DistanceMetric) -> Vec<Geohash> {
    let mut out = Vec::new();
    let mut stack: Vec<Geohash> =
        (0..32u64).rev().map(|i| Geohash::from_low_bits(i, 1).expect("a root cell")).collect();
    while let Some(gh) = stack.pop() {
        if !Cell::from_geohash(&gh).intersects_circle(center, radius_km, metric) {
            continue;
        }
        if gh.len() == len {
            out.push(gh);
        } else {
            stack.extend(gh.children().into_iter().rev());
        }
    }
    out
}

fn assert_cover_is_the_descent(lat: f64, lon: f64, radius_km: f64, len: usize) {
    let center = Point::new_unchecked(lat, lon);
    for metric in METRICS {
        let cover = circle_cover(&center, radius_km, len, metric).expect("a valid length");
        assert_eq!(
            cover,
            descent(&center, radius_km, len, metric),
            "{metric:?} len {len}, {radius_km} km around ({lat}, {lon})"
        );
    }
}

#[test]
fn the_cover_is_the_quadtree_descent() {
    // City circles, a pole cap, both sides of the antimeridian, and a
    // circle that crosses it.
    for len in 1..=5 {
        assert_cover_is_the_descent(43.68, -79.37, 12.0, len);
        assert_cover_is_the_descent(-33.87, 151.21, 3.0, len);
        assert_cover_is_the_descent(65.0, 179.97, 8.0, len);
        assert_cover_is_the_descent(-12.0, -179.99, 5.0, len);
    }
    for len in 1..=3 {
        assert_cover_is_the_descent(89.7, 40.0, 60.0, len);
        assert_cover_is_the_descent(-89.95, -120.0, 30.0, len);
        assert_cover_is_the_descent(10.0, 170.0, 2500.0, len);
    }
    assert_cover_is_the_descent(0.0, 180.0, 0.05, 7);
    assert_cover_is_the_descent(52.5, -0.001, 0.3, 8);
}

#[test]
fn a_circle_that_ends_on_a_row_edge_keeps_the_row_beyond() {
    // The centre sits `gap` degrees from a row edge and the radius is
    // `gap` degrees of latitude, so the row beyond the edge is at the
    // bound's distance exactly: kept by the cell test, and found only
    // through the bounding box's one-row margin.
    for len in 2..=6 {
        let lat_bits = 5 * len as i32 / 2;
        let row = 180.0 / 2f64.powi(lat_bits);
        let rows = 2i64.pow(lat_bits as u32);
        for k in [rows / 4, rows / 2 + 1, 3 * rows / 4] {
            let edge = -90.0 + k as f64 * row;
            for gap in [row / 4.0, row / 2.0, 1.5 * row, 2.25 * row] {
                let radius_km = KM_PER_DEGREE * gap;
                assert_cover_is_the_descent(edge + gap, 12.5, radius_km, len);
                assert_cover_is_the_descent(edge - gap, -150.25, radius_km, len);
            }
        }
    }
}

/// A fetch's `(cells, lists, bytes, refined_out)`.
type Counts = (usize, usize, u64, usize);

/// The candidates as the query combined them before it decoded into one
/// buffer per keyword: `union_sum` / `intersect_sum` over the lists of
/// `try_fetch_for_query`, with that fetch's counts.
fn list_combine(
    index: &HybridIndex,
    circle: &Circle,
    cover: &[Geohash],
    terms: &[TermId],
    semantics: Semantics,
    max_cells: usize,
) -> (Vec<(TweetId, u32)>, Counts) {
    let fetch = index.try_fetch_for_query(cover, circle, terms, |done| done < max_cells).unwrap();
    let counts = (fetch.cells, fetch.lists, fetch.bytes, fetch.refined_out);
    let combined = match semantics {
        Semantics::Or => {
            union_sum(&fetch.per_keyword.iter().flatten().cloned().collect::<Vec<_>>())
        }
        Semantics::And => {
            let groups: Vec<_> = fetch.per_keyword.iter().map(|l| union_sum(l)).collect();
            if groups.iter().any(Vec::is_empty) {
                Vec::new()
            } else {
                intersect_sum(&groups)
            }
        }
    };
    (combined, counts)
}

#[test]
fn one_pass_candidates_equal_the_list_combine() {
    let corpus =
        generate_corpus(&GenConfig { original_posts: 1500, users: 200, ..GenConfig::default() });
    let engine = TklusEngine::build(&corpus, &EngineConfig::default()).0;
    let index = engine.index();
    let mut non_empty = 0;
    for spec in generate_queries(&corpus, &QueryConfig { per_bucket: 2, seed: 5 }) {
        let terms: Vec<TermId> = spec
            .keywords
            .iter()
            .filter_map(|w| engine.normalize_keyword(w))
            .filter_map(|w| index.vocab().get(&w))
            .collect();
        for radius_km in [2.0, 10.0] {
            for metric in METRICS {
                let cover =
                    circle_cover(&spec.location, radius_km, index.geohash_len(), metric).unwrap();
                let circle = Circle { center: spec.location, radius_km, metric };
                for semantics in [Semantics::Or, Semantics::And] {
                    for max_cells in [usize::MAX, 0, 1, 3] {
                        let (want, counts) =
                            list_combine(index, &circle, &cover, &terms, semantics, max_cells);
                        let fetch = index
                            .try_fetch_candidates(&cover, &circle, &terms, |done| done < max_cells)
                            .unwrap();
                        let got_counts = (fetch.cells, fetch.lists, fetch.bytes, fetch.refined_out);
                        assert_eq!(
                            got_counts, counts,
                            "{:?} {semantics:?} budget {max_cells}",
                            spec.keywords
                        );
                        let got = candidates(fetch.per_keyword, semantics);
                        assert_eq!(
                            got, want,
                            "{:?} {semantics:?} budget {max_cells}",
                            spec.keywords
                        );
                        non_empty += usize::from(!got.is_empty());
                    }
                }
            }
        }
    }
    assert!(non_empty >= 20, "only {non_empty} combines found candidates: the check has no teeth");
}

/// The point `fraction · radius_km` from `center` toward `bearing` on the
/// locally flat projection, wrapped across the antimeridian.
fn offset_point(center: &Point, radius_km: f64, bearing: f64, fraction: f64) -> Point {
    let dlat = fraction * radius_km * bearing.cos() / KM_PER_DEGREE;
    let dlon =
        fraction * radius_km * bearing.sin() / (KM_PER_DEGREE * center.lat().to_radians().cos());
    let lon = (center.lon() + dlon + 540.0).rem_euclid(360.0) - 180.0;
    Point::new_unchecked(center.lat() + dlat, lon)
}

#[test]
fn the_refinement_keeps_every_post_just_inside_a_wide_haversine_circle() {
    let metric = DistanceMetric::Haversine;
    for (center, radius_km) in
        [(Point::new_unchecked(40.0, -100.0), 1500.0), (Point::new_unchecked(-20.0, 178.0), 600.0)]
    {
        // Posts around the edge, metres inside it and outside it; after
        // the flat offset, their exact distances decide which are in.
        let posts: Vec<Post> = (0..360u64)
            .map(|i| {
                let fraction = [0.999_999, 0.999_99, 0.9999, 1.000_01][(i % 4) as usize];
                let bearing = (i / 4) as f64 * std::f64::consts::TAU / 90.0;
                let at = offset_point(&center, radius_km, bearing, fraction);
                Post::original(TweetId(i + 1), UserId(1), at, "hotel")
            })
            .collect();
        let (index, _) = build_index(
            &posts,
            &IndexBuildConfig { geohash_len: 3, ..IndexBuildConfig::default() },
        );
        let hotel = index.vocab().get("hotel").unwrap();
        let cover = circle_cover(&center, radius_km, 3, metric).unwrap();
        let circle = Circle { center, radius_km, metric };
        let fetch = index.try_fetch_candidates(&cover, &circle, &[hotel], |_| true).unwrap();
        let kept = candidates(fetch.per_keyword, Semantics::Or);
        let inside: Vec<&Post> =
            posts.iter().filter(|p| center.distance_km(&p.location, metric) <= radius_km).collect();
        assert!(inside.len() >= 100, "{} posts inside", inside.len());
        for post in inside {
            assert!(
                kept.binary_search_by_key(&post.id, |&(id, _)| id).is_ok(),
                "{radius_km} km around {center}: post at {} ({} km) dropped",
                post.location,
                center.distance_km(&post.location, metric)
            );
        }
    }
}
