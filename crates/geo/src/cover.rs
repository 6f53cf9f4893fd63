//! Circle covers: the `GeoHashCircleQuery` primitive of Algorithms 4 and 5.
//!
//! "To answer a circle query, a set of prefixes need to be constructed which
//! completely covers the circle region while minimizing the area outside the
//! query region" (Section IV-B1). The prefixes are the cells of the
//! requested length that can hold a point within the circle. They are not
//! found by descending the 32-way quadtree: the length-`len` cells form a
//! grid of rows (latitude intervals) and columns (longitude intervals), so
//! the cover enumerates the grid cells of the circle's lat/lon bounding box
//! by index arithmetic and keeps those that pass
//! [`Cell::intersects_circle`].
//!
//! The result is sorted in geohash (= Z-order) order, matching the sorted
//! `⟨geohash, term⟩` key layout of the inverted index so postings for a
//! cover are fetched in contiguous key ranges.

use crate::cell::{lon_weight, Cell, KM_PER_DEGREE};
use crate::geohash::{interval_index, spread_bits, Geohash, GeohashError, MAX_GEOHASH_LEN};
use crate::point::{DistanceMetric, Point, EARTH_RADIUS_KM};

/// Quality statistics for a computed cover, used by the cover ablation bench
/// (how much area outside the circle does a given encoding length admit?).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverStats {
    /// Number of cells in the cover.
    pub cells: usize,
    /// Total area of the cover cells, km² (approximate).
    pub cover_area_km2: f64,
    /// Area of the query circle, km² (planar approximation).
    pub circle_area_km2: f64,
}

impl CoverStats {
    /// Ratio of cover area to circle area; 1.0 would be a perfect cover,
    /// larger values waste candidate tweets outside the query region.
    pub fn overcover_ratio(&self) -> f64 {
        if self.circle_area_km2 == 0.0 {
            f64::INFINITY
        } else {
            self.cover_area_km2 / self.circle_area_km2
        }
    }
}

/// Computes the set of geohash cells of exactly `len` characters that
/// completely covers the circle of `radius_km` around `center`.
///
/// ```
/// use tklus_geo::{circle_cover, encode, DistanceMetric, Point};
///
/// let toronto = Point::new_unchecked(43.6839, -79.3736);
/// let cover = circle_cover(&toronto, 10.0, 4, DistanceMetric::Euclidean).unwrap();
/// // The centre's own cell is always covered.
/// assert!(cover.contains(&encode(&toronto, 4).unwrap()));
/// ```
///
/// Guarantees:
/// * **Completeness** — every point within `radius_km` of `center` lies in
///   some returned cell (up to the metric's precision).
/// * **Minimality at the given length** — no returned cell is entirely
///   outside the circle.
/// * The result is sorted and free of duplicates.
///
/// The cells are exactly those that pass [`Cell::intersects_circle`], the
/// test a descent of the quadtree from the 32 root cells applies at every
/// level. The descent emits no other cells: [`Cell::min_distance_km`] can
/// only fall from a cell to its parent, because its three inputs (`|Δlat|`,
/// `|Δlon|` and the metric's cosine factor, each a least value over the
/// cell) all fall on the larger cell. So every ancestor of a passing cell
/// passes too, and the descent reaches it.
///
/// The grid cells tested are those of a bounding box:
/// * **rows** within `radius_km / KM_PER_DEGREE` degrees of the centre's
///   latitude, since both metrics measure at least `KM_PER_DEGREE · |Δlat|`,
///   plus one row of margin on each side for rounding;
/// * **columns** within the widest `|Δlon|` a cell in those rows can pass
///   at, given the least cosine factor over the rows' band, plus one
///   column of margin on each side, wrapped across the antimeridian. Every
///   column of the rows when that width reaches 180° (near a pole, or for
///   a circle of continental size).
///
/// `radius_km` must be positive and finite; `len` must be in
/// `1..=MAX_GEOHASH_LEN`.
pub fn circle_cover(
    center: &Point,
    radius_km: f64,
    len: usize,
    metric: DistanceMetric,
) -> Result<Vec<Geohash>, GeohashError> {
    if len == 0 || len > MAX_GEOHASH_LEN {
        return Err(GeohashError::BadLength(len));
    }
    assert!(radius_km.is_finite() && radius_km > 0.0, "radius must be positive and finite");

    let nbits = 5 * len as u32;
    let (lon_bits, lat_bits) = (nbits.div_ceil(2), nbits / 2);
    // Counted from the low end, the last path bit is longitude's when the
    // bit count is odd (as in `encode`).
    let lon_shift = 1 - nbits % 2;

    let rows = 1u64 << lat_bits;
    let reach = radius_km / KM_PER_DEGREE;
    let row_lo = interval_index(center.lat() - reach, 90.0, lat_bits).saturating_sub(1);
    let row_hi = (interval_index(center.lat() + reach, 90.0, lat_bits) + 1).min(rows - 1);
    let row_height = 180.0 / rows as f64;
    let band = (-90.0 + row_lo as f64 * row_height, -90.0 + (row_hi + 1) as f64 * row_height);

    let cols = 1u64 << lon_bits;
    let (col_lo, col_count) = match lon_reach(center, radius_km, band, metric) {
        Some(dlon) => {
            let col_width = 360.0 / cols as f64;
            let col = |lon: f64| ((lon + 180.0) / col_width).floor() as i64;
            let lo = col(center.lon() - dlon) - 1;
            let count = (col(center.lon() + dlon) + 1 - lo + 1) as u64;
            if count < cols {
                (lo, count)
            } else {
                (0, cols)
            }
        }
        None => (0, cols),
    };

    let mut out = Vec::new();
    for row in row_lo..=row_hi {
        let row_bits = spread_bits(row) << (1 - lon_shift);
        for c in col_lo..col_lo + col_count as i64 {
            let col = c.rem_euclid(cols as i64) as u64;
            let gh = Geohash::from_low_bits((spread_bits(col) << lon_shift) | row_bits, len)?;
            if Cell::from_geohash(&gh).intersects_circle(center, radius_km, metric) {
                out.push(gh);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The widest `|Δlon|`, in degrees, at which a cell lying within the
/// latitude band `(lo, hi)` can still pass [`Cell::intersects_circle`];
/// `None` when that is 180° or more, so that every longitude can. A cell's
/// cosine factor is at least the band's (`lon_weight` of a sub-band is no
/// smaller), and its distance bound rises in `|Δlon|`:
/// * Euclidean: `KM_PER_DEGREE · weight · |Δlon| ≤ r`;
/// * Haversine: `weight · sin²(|Δlon|/2) ≤ sin²(r / 2R)`.
fn lon_reach(
    center: &Point,
    radius_km: f64,
    (lo, hi): (f64, f64),
    metric: DistanceMetric,
) -> Option<f64> {
    let weight = lon_weight(center.lat(), lo, hi, metric);
    if weight <= 0.0 {
        return None;
    }
    let dlon = match metric {
        DistanceMetric::Euclidean => radius_km / KM_PER_DEGREE / weight,
        DistanceMetric::Haversine => {
            let half = (radius_km / (2.0 * EARTH_RADIUS_KM)).min(std::f64::consts::FRAC_PI_2);
            let sin = half.sin() / weight.sqrt();
            if sin >= 1.0 {
                return None;
            }
            2.0 * sin.asin().to_degrees()
        }
    };
    (dlon < 180.0).then_some(dlon)
}

/// Computes a cover plus its quality statistics.
pub fn circle_cover_with_stats(
    center: &Point,
    radius_km: f64,
    len: usize,
    metric: DistanceMetric,
) -> Result<(Vec<Geohash>, CoverStats), GeohashError> {
    let cover = circle_cover(center, radius_km, len, metric)?;
    let cover_area_km2 = cover.iter().map(|g| Cell::from_geohash(g).area_km2()).sum();
    let stats = CoverStats {
        cells: cover.len(),
        cover_area_km2,
        circle_area_km2: std::f64::consts::PI * radius_km * radius_km,
    };
    Ok((cover, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geohash::encode;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new_unchecked(lat, lon)
    }

    const M: DistanceMetric = DistanceMetric::Euclidean;

    #[test]
    fn cover_contains_cell_of_center() {
        let center = p(43.6839128037, -79.37356590);
        for len in 1..=5 {
            let cover = circle_cover(&center, 10.0, len, M).unwrap();
            let home = encode(&center, len).unwrap();
            assert!(cover.contains(&home), "len {len} cover missing the centre cell");
        }
    }

    #[test]
    fn cover_is_sorted_and_unique() {
        let center = p(40.7128, -74.0060);
        let cover = circle_cover(&center, 50.0, 5, M).unwrap();
        assert!(cover.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cover_is_complete_for_sampled_points() {
        // Every sampled point within the radius must fall in a covered cell.
        let center = p(48.8566, 2.3522);
        let radius = 20.0;
        let len = 5;
        let cover = circle_cover(&center, radius, len, M).unwrap();
        for dlat in -20..=20 {
            for dlon in -20..=20 {
                let q = p(center.lat() + dlat as f64 * 0.01, center.lon() + dlon as f64 * 0.015);
                if center.euclidean_km(&q) <= radius {
                    let cell = encode(&q, len).unwrap();
                    assert!(
                        cover.contains(&cell),
                        "point {q} ({} km) not covered",
                        center.euclidean_km(&q)
                    );
                }
            }
        }
    }

    #[test]
    fn cover_has_no_fully_outside_cells() {
        let center = p(35.6762, 139.6503);
        let radius = 15.0;
        let cover = circle_cover(&center, radius, 5, M).unwrap();
        for gh in &cover {
            let cell = Cell::from_geohash(gh);
            assert!(
                cell.min_distance_km(&center, M) <= radius,
                "cell {gh} is entirely outside the circle"
            );
        }
    }

    #[test]
    fn longer_encoding_gives_tighter_cover() {
        let center = p(43.7, -79.4);
        let radius = 10.0;
        let (_, s3) = circle_cover_with_stats(&center, radius, 3, M).unwrap();
        let (_, s4) = circle_cover_with_stats(&center, radius, 4, M).unwrap();
        let (_, s5) = circle_cover_with_stats(&center, radius, 5, M).unwrap();
        assert!(s3.overcover_ratio() >= s4.overcover_ratio());
        assert!(s4.overcover_ratio() >= s5.overcover_ratio());
        // More cells at longer lengths.
        assert!(s3.cells <= s4.cells && s4.cells <= s5.cells);
        // A length-5 cover of a 10 km circle should be reasonably tight.
        assert!(s5.overcover_ratio() < 2.0, "ratio {}", s5.overcover_ratio());
    }

    #[test]
    fn small_radius_short_length_single_cell_when_interior() {
        // A 0.1 km circle deep inside a length-3 cell is covered by cells
        // including that cell; at most a handful near edges.
        let center = p(43.7, -79.4);
        let cover = circle_cover(&center, 0.1, 3, M).unwrap();
        assert!(!cover.is_empty() && cover.len() <= 4, "got {} cells", cover.len());
        assert!(cover.contains(&encode(&center, 3).unwrap()));
    }

    #[test]
    fn cover_works_across_meridian() {
        let center = p(51.48, 0.0); // Greenwich
        let cover = circle_cover(&center, 10.0, 4, M).unwrap();
        // The cover must include cells on both sides (geohash 'u...' east,
        // 'g...' west of the prime meridian at this latitude).
        let has_east = cover.iter().any(|g| g.to_string().starts_with('u'));
        let has_west = cover.iter().any(|g| g.to_string().starts_with('g'));
        assert!(
            has_east && has_west,
            "cover: {:?}",
            cover.iter().map(|g| g.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejects_bad_length() {
        let center = p(0.0, 0.0);
        assert!(circle_cover(&center, 1.0, 0, M).is_err());
        assert!(circle_cover(&center, 1.0, 13, M).is_err());
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn rejects_nonpositive_radius() {
        let _ = circle_cover(&p(0.0, 0.0), 0.0, 4, M);
    }

    #[test]
    fn haversine_and_euclidean_covers_similar_at_city_scale() {
        let center = p(43.7, -79.4);
        let a = circle_cover(&center, 10.0, 4, DistanceMetric::Euclidean).unwrap();
        let b = circle_cover(&center, 10.0, 4, DistanceMetric::Haversine).unwrap();
        // The two metrics differ by <1% at this scale; covers should be
        // nearly identical (allow a one-cell fringe difference).
        let a_set: std::collections::BTreeSet<_> = a.iter().collect();
        let b_set: std::collections::BTreeSet<_> = b.iter().collect();
        let sym_diff = a_set.symmetric_difference(&b_set).count();
        assert!(sym_diff <= 2, "covers differ by {sym_diff} cells");
    }
}
