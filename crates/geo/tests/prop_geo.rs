//! Property-based tests for the geospatial substrate.

use proptest::prelude::*;
use tklus_geo::{circle_cover, encode, Cell, DistanceMetric, Geohash, Point};

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
