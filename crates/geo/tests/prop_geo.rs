//! Property-based tests for the geospatial substrate.

use proptest::prelude::*;
use tklus_geo::{
    circle_cover, encode, Cell, DistanceMetric, Geohash, Point, EARTH_RADIUS_KM, MAX_GEOHASH_LEN,
};

fn arb_point() -> impl Strategy<Value = Point> {
    (-90.0f64..=90.0, -180.0f64..=180.0).prop_map(|(lat, lon)| Point::new_unchecked(lat, lon))
}

proptest! {
    #[test]
    fn encode_decode_contains_point(p in arb_point(), len in 1usize..=12) {
        let gh = encode(&p, len).unwrap();
        let cell = Cell::from_geohash(&gh);
        // Half-open cells: the north pole / antimeridian sit on the closed
        // upper edge, so allow boundary equality there.
        prop_assert!(cell.lat_lo() <= p.lat() && p.lat() <= cell.lat_hi());
        prop_assert!(cell.lon_lo() <= p.lon() && p.lon() <= cell.lon_hi());
    }

    #[test]
    fn geohash_string_roundtrip(p in arb_point(), len in 1usize..=12) {
        let gh = encode(&p, len).unwrap();
        let parsed: Geohash = gh.to_string().parse().unwrap();
        prop_assert_eq!(gh, parsed);
    }

    #[test]
    fn prefix_truncation_consistent(p in arb_point(), len in 2usize..=12, cut in 1usize..=11) {
        prop_assume!(cut < len);
        let long = encode(&p, len).unwrap();
        let short = encode(&p, cut).unwrap();
        prop_assert!(short.is_prefix_of(&long));
        prop_assert_eq!(long.truncate(cut).unwrap(), short);
        prop_assert!(long.to_string().starts_with(&short.to_string()));
    }

    #[test]
    fn geohash_order_matches_string_order(a in arb_point(), b in arb_point(), len in 1usize..=12) {
        let ga = encode(&a, len).unwrap();
        let gb = encode(&b, len).unwrap();
        prop_assert_eq!(ga.cmp(&gb), ga.to_string().cmp(&gb.to_string()));
    }

    #[test]
    fn distance_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        let ab = a.haversine_km(&b);
        let bc = b.haversine_km(&c);
        let ac = a.haversine_km(&c);
        prop_assert!(ac <= ab + bc + 1e-6, "ac={ac} ab={ab} bc={bc}");
    }

    #[test]
    fn euclid_close_to_haversine_at_city_scale(
        lat in -60.0f64..=60.0,
        lon in -179.0f64..=179.0,
        dlat in -0.2f64..=0.2,
        dlon in -0.2f64..=0.2,
    ) {
        let a = Point::new_unchecked(lat, lon);
        let b = Point::new_unchecked((lat + dlat).clamp(-90.0, 90.0), (lon + dlon).clamp(-180.0, 180.0));
        let h = a.haversine_km(&b);
        let e = a.euclidean_km(&b);
        prop_assume!(h > 0.01);
        prop_assert!((h - e).abs() / h < 0.02, "h={h} e={e}");
    }

    #[test]
    fn cover_is_sorted_complete_and_minimal(
        lat in -60.0f64..=60.0,
        lon in -170.0f64..=170.0,
        radius in 0.5f64..=60.0,
        len in 2usize..=4,
    ) {
        let center = Point::new_unchecked(lat, lon);
        let cover = circle_cover(&center, radius, len, DistanceMetric::Euclidean).unwrap();
        prop_assert!(!cover.is_empty());
        prop_assert!(cover.windows(2).all(|w| w[0] < w[1]));
        // The centre's own cell is always in the cover.
        prop_assert!(cover.contains(&encode(&center, len).unwrap()));
        // Minimality: no cell entirely outside the circle.
        for gh in &cover {
            let cell = Cell::from_geohash(gh);
            prop_assert!(cell.min_distance_km(&center, DistanceMetric::Euclidean) <= radius);
        }
        // Completeness for a sampled in-circle point.
        let q = Point::new_unchecked(
            (lat + radius / 222.0).clamp(-90.0, 90.0),
            lon,
        );
        if center.euclidean_km(&q) <= radius {
            prop_assert!(cover.contains(&encode(&q, len).unwrap()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cell_bound_never_exceeds_the_distance_to_its_edges(
        center in arb_point(),
        dlat in -2.0f64..=2.0,
        dlon in -4.0f64..=4.0,
        len in 1usize..=8,
        haversine in any::<bool>(),
    ) {
        let metric = if haversine { DistanceMetric::Haversine } else { DistanceMetric::Euclidean };
        // A cell near the centre, across the antimeridian or a pole cap
        // as the offset falls.
        let mut lon = center.lon() + dlon;
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        let p = Point::new_unchecked((center.lat() + dlat).clamp(-90.0, 90.0), lon);
        let cell = Cell::from_geohash(&encode(&p, len).unwrap());
        let bound = cell.min_distance_km(&center, metric);
        let steps = 256;
        for i in 0..=steps {
            let f = i as f64 / steps as f64;
            let lat = cell.lat_lo() + (cell.lat_hi() - cell.lat_lo()) * f;
            let lon = cell.lon_lo() + (cell.lon_hi() - cell.lon_lo()) * f;
            for edge in [
                Point::new_unchecked(lat, cell.lon_lo()),
                Point::new_unchecked(lat, cell.lon_hi()),
                Point::new_unchecked(cell.lat_lo(), lon),
                Point::new_unchecked(cell.lat_hi(), lon),
            ] {
                let d = center.distance_km(&edge, metric);
                prop_assert!(bound <= d * (1.0 + 1e-12), "{metric:?}: bound {bound} > {d} to {edge}");
            }
        }
    }
}

/// The reference cover: a descent of the 32-way quadtree from the 32 root
/// cells, keeping every prefix whose cell passes the circle test and
/// emitting the survivors at `len`. `circle_cover` enumerates a bounding
/// box instead and must return exactly these cells.
fn descent_cover(
    center: &Point,
    radius_km: f64,
    len: usize,
    metric: DistanceMetric,
) -> Vec<Geohash> {
    let mut out = Vec::new();
    let mut stack: Vec<Geohash> =
        (0..32u64).rev().map(|i| Geohash::from_low_bits(i, 1).unwrap()).collect();
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

/// An upper estimate of a cover's cell count, from the grid cells of the
/// circle's lat/lon bounding box: how the radius is capped so that the
/// reference descent stays near 10⁴ cell tests.
fn bounding_box_cells(center: &Point, radius_km: f64, len: usize) -> f64 {
    let nbits = 5 * len as i32;
    let (lon_bits, lat_bits) = ((nbits + 1) / 2, nbits / 2);
    let (row_height, col_width) = (180.0 / 2f64.powi(lat_bits), 360.0 / 2f64.powi(lon_bits));
    let dlat = radius_km / 111.0;
    let rows = 2.0 * dlat / row_height + 3.0;
    let top = (center.lat().abs() + dlat + row_height).min(90.0);
    let all = 2f64.powi(lon_bits);
    let cos = top.to_radians().cos();
    let cols = if cos < 1e-9 { all } else { (2.0 * dlat / cos / col_width + 3.0).min(all) };
    rows * cols
}

/// A centre within 1° of a pole, beside the antimeridian, or anywhere.
fn arb_cover_center() -> impl Strategy<Value = Point> {
    let lat = prop_oneof![89.0f64..=90.0, -90.0f64..=-89.0, -90.0f64..=90.0];
    let lon = prop_oneof![179.0f64..=180.0, -180.0f64..=-179.0, -180.0f64..=180.0];
    (lat, lon).prop_map(|(lat, lon)| Point::new_unchecked(lat, lon))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bounding-box cover is the quadtree descent's, cell for cell, at
    /// every length, for both metrics, at the poles and across the
    /// antimeridian. Radii run from 25 m to 3 000 km, halved until the
    /// bounding box holds at most 5 000 cells. Half the circles are moved
    /// to end on a row edge, where the row beyond sits at the bound's
    /// distance and only the box's one-row margin finds it.
    #[test]
    fn cover_equals_the_quadtree_descent(
        mut center in arb_cover_center(),
        log_radius in (0.025f64).ln()..=(3000.0f64).ln(),
        len in 1usize..=MAX_GEOHASH_LEN,
        haversine in any::<bool>(),
        on_an_edge in any::<bool>(),
    ) {
        let metric = if haversine { DistanceMetric::Haversine } else { DistanceMetric::Euclidean };
        let mut radius_km = log_radius.exp();
        while radius_km > 1e-3 && bounding_box_cells(&center, radius_km, len) > 5000.0 {
            radius_km /= 2.0;
        }
        if on_an_edge {
            let row = 180.0 / 2f64.powi(5 * len as i32 / 2);
            let gap = radius_km / (EARTH_RADIUS_KM * std::f64::consts::PI / 180.0);
            let edge = ((center.lat() + 90.0) / row).round() * row - 90.0;
            let lat = if edge + gap <= 90.0 { edge + gap } else { edge - gap };
            prop_assume!(lat >= -90.0);
            center = Point::new_unchecked(lat, center.lon());
        }
        prop_assume!(bounding_box_cells(&center, radius_km, len) <= 5000.0);
        let cover = circle_cover(&center, radius_km, len, metric).unwrap();
        let reference = descent_cover(&center, radius_km, len, metric);
        prop_assert_eq!(
            &cover, &reference,
            "{:?} len {} r {} km at {}", metric, len, radius_km, center
        );
    }
}
