//! Geohash cells: the bounding rectangle a geohash prefix denotes.
//!
//! Circle-cover construction (Section IV-B1) needs two geometric predicates
//! per candidate prefix: "can any point of this cell be within `r` of the
//! query?" (keep/expand) and "is the whole cell within `r`?" (useful for
//! cover statistics). Both reduce to point-to-rectangle minimum/maximum
//! distance, implemented here on top of the crate's distance metrics.
//!
//! The minimum is one sound lower bound ([`Cell::min_distance_km`]), built
//! from three minima over the rectangle: `|Δlat|`, `|Δlon|` the shorter way
//! round, and the metric's cosine factor at the rectangle's latitude edges.
//! The circle cover, the IR-tree prune and the index's per-posting
//! refinement test ([`SubcellTest`]) all use it.

use crate::geohash::{decode, Geohash};
use crate::point::{DistanceMetric, Point, EARTH_RADIUS_KM};
use serde::{Deserialize, Serialize};

/// Kilometres per degree of latitude (and of longitude at the equator)
/// under the Euclidean metric's projection.
pub(crate) const KM_PER_DEGREE: f64 = EARTH_RADIUS_KM * std::f64::consts::PI / 180.0;

/// Relative slack of [`SubcellTest`]'s squared reach. A coordinate
/// difference is off by at most a few ulps of 180° (under 1e-10 km), so the
/// filter and the exact check can disagree by that much on a point at the
/// boundary. Widening the squared reach by 1e-6 widens the radius by 5e-7
/// of itself: more than that error for every radius of 1 m and up, and
/// 1 mm on a 2 km circle.
const REACH_SLACK: f64 = 1e-6;

/// `|Δlat|` from `lat` to the nearest latitude in `[lo, hi]`, in degrees.
#[inline]
fn lat_gap(lat: f64, lo: f64, hi: f64) -> f64 {
    (lo - lat).max(lat - hi).max(0.0)
}

/// `|Δlon|` from `lon` to the nearest longitude in `[lo, hi]`, the shorter
/// way round the globe, in degrees: zero inside, else the nearer edge
/// (over an arc that misses `lon`, the distance along the circle is
/// least at an end).
#[inline]
fn lon_gap(lon: f64, lo: f64, hi: f64) -> f64 {
    if lo <= lon && lon <= hi {
        return 0.0;
    }
    let around = |d: f64| {
        let d = d.abs();
        if d > 180.0 {
            360.0 - d
        } else {
            d
        }
    };
    around(lon - lo).min(around(lon - hi))
}

/// The least cosine factor the metric applies to `Δlon` between a point at
/// latitude `lat` and any latitude in `[lo, hi]`. `cos` is concave on
/// [−90°, 90°], so its least value over a band is at an edge.
/// * Euclidean scales `Δlon` by `cos` of the mean latitude;
/// * Haversine by `cos φ_c · cos φ`.
pub(crate) fn lon_weight(lat: f64, lo: f64, hi: f64, metric: DistanceMetric) -> f64 {
    match metric {
        DistanceMetric::Euclidean => {
            let c = |edge: f64| ((lat + edge) / 2.0).to_radians().cos();
            c(lo).min(c(hi)).max(0.0)
        }
        DistanceMetric::Haversine => {
            let c = |edge: f64| edge.to_radians().cos();
            (lat.to_radians().cos() * c(lo).min(c(hi))).max(0.0)
        }
    }
}

/// The axis-aligned lat/lon rectangle of a geohash prefix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    lat_lo: f64,
    lat_hi: f64,
    lon_lo: f64,
    lon_hi: f64,
}

impl Cell {
    /// The cell denoted by a geohash.
    pub fn from_geohash(gh: &Geohash) -> Self {
        let ((lat_lo, lat_hi), (lon_lo, lon_hi)) = decode(gh);
        Self { lat_lo, lat_hi, lon_lo, lon_hi }
    }

    /// A cell from explicit bounds. Intended for tests; callers must supply
    /// `lo <= hi` on both axes.
    pub fn from_bounds(lat_lo: f64, lat_hi: f64, lon_lo: f64, lon_hi: f64) -> Self {
        debug_assert!(lat_lo <= lat_hi && lon_lo <= lon_hi);
        Self { lat_lo, lat_hi, lon_lo, lon_hi }
    }

    /// Lower latitude bound (inclusive).
    pub fn lat_lo(&self) -> f64 {
        self.lat_lo
    }
    /// Upper latitude bound (exclusive in geohash terms).
    pub fn lat_hi(&self) -> f64 {
        self.lat_hi
    }
    /// Lower longitude bound (inclusive).
    pub fn lon_lo(&self) -> f64 {
        self.lon_lo
    }
    /// Upper longitude bound (exclusive in geohash terms).
    pub fn lon_hi(&self) -> f64 {
        self.lon_hi
    }

    /// Cell centre.
    pub fn center(&self) -> Point {
        Point::new_unchecked((self.lat_lo + self.lat_hi) / 2.0, (self.lon_lo + self.lon_hi) / 2.0)
    }

    /// Whether the point lies inside the cell (geohash half-open semantics:
    /// low edges inclusive, high edges exclusive).
    pub fn contains(&self, p: &Point) -> bool {
        self.lat_lo <= p.lat()
            && p.lat() < self.lat_hi
            && self.lon_lo <= p.lon()
            && p.lon() < self.lon_hi
    }

    /// A lower bound on the distance from `p` to any point of the cell, in
    /// km; zero when `p` is inside. Not the clamped point's distance: beside
    /// the centre's latitude the nearest point of a meridian edge lies
    /// further toward the pole, where a degree of longitude is shorter.
    /// Instead the three minima over the cell — `|Δlat|`, `|Δlon|` and the
    /// metric's `Δlon` factor — go into the metric's formula, which rises
    /// in each:
    /// * Euclidean: `R · √((Δlon · cos)² + Δlat²)`;
    /// * Haversine: `2R · asin √(sin²(Δlat/2) + cos φ_c cos φ · sin²(Δlon/2))`.
    pub fn min_distance_km(&self, p: &Point, metric: DistanceMetric) -> f64 {
        let dlat = lat_gap(p.lat(), self.lat_lo, self.lat_hi);
        let dlon = lon_gap(p.lon(), self.lon_lo, self.lon_hi);
        let weight = lon_weight(p.lat(), self.lat_lo, self.lat_hi, metric);
        match metric {
            DistanceMetric::Euclidean => {
                KM_PER_DEGREE * (dlat * dlat + weight * weight * dlon * dlon).sqrt()
            }
            DistanceMetric::Haversine => {
                let half_sin = |d: f64| (d.to_radians() / 2.0).sin();
                let a = half_sin(dlat).powi(2) + weight * half_sin(dlon).powi(2);
                2.0 * EARTH_RADIUS_KM * a.min(1.0).sqrt().asin()
            }
        }
    }

    /// Maximum distance from `p` to any point of the cell, in km
    /// (the farthest corner).
    pub fn max_distance_km(&self, p: &Point, metric: DistanceMetric) -> f64 {
        let corners = [
            Point::new_unchecked(self.lat_lo, self.lon_lo),
            Point::new_unchecked(self.lat_lo, self.lon_hi.min(180.0)),
            Point::new_unchecked(self.lat_hi.min(90.0), self.lon_lo),
            Point::new_unchecked(self.lat_hi.min(90.0), self.lon_hi.min(180.0)),
        ];
        corners.iter().map(|c| p.distance_km(c, metric)).fold(0.0, f64::max)
    }

    /// Whether any part of the cell lies within `radius_km` of `center`.
    pub fn intersects_circle(
        &self,
        center: &Point,
        radius_km: f64,
        metric: DistanceMetric,
    ) -> bool {
        self.min_distance_km(center, metric) <= radius_km
    }

    /// Whether the entire cell lies within `radius_km` of `center`.
    pub fn within_circle(&self, center: &Point, radius_km: f64, metric: DistanceMetric) -> bool {
        self.max_distance_km(center, metric) <= radius_km
    }

    /// Approximate cell area in km², using the equirectangular projection at
    /// the cell's mean latitude. Used only for cover-quality statistics.
    pub fn area_km2(&self) -> f64 {
        use crate::point::EARTH_RADIUS_KM;
        let mean_lat = ((self.lat_lo + self.lat_hi) / 2.0).to_radians();
        let height = (self.lat_hi - self.lat_lo).to_radians() * EARTH_RADIUS_KM;
        let width = (self.lon_hi - self.lon_lo).to_radians() * mean_lat.cos() * EARTH_RADIUS_KM;
        (height * width).abs()
    }
}

/// A query circle: its centre, its radius and the metric that measures it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// The query location.
    pub center: Point,
    /// The query radius, in km.
    pub radius_km: f64,
    /// The metric the radius is measured in.
    pub metric: DistanceMetric,
}

/// A query circle's test of the sub-cells `chars` geohash characters below
/// one cover cell: can any point of the sub-cell named by these `5 · chars`
/// path bits lie within the circle?
///
/// Built once per cover cell: the cell's bounds, the sub-cell size, the
/// cell's least cosine factor and the squared reach. A test is then shifts
/// and masks that split the bits into a longitude and a latitude index,
/// and a squared lower bound compared with the reach — no trig, no decode
/// and no allocation per sub-cell.
///
/// Sound for both metrics at every latitude and across the antimeridian:
/// the bound is [`Cell::min_distance_km`]'s over the sub-cell, relaxed
/// twice — the cosine factor is the whole cover cell's, and under
/// Haversine `t − t³/6 ≤ sin t` stands in for `sin` — and the squared reach
/// is widened by a relative 1e-6 for rounding.
#[derive(Debug, Clone, Copy)]
pub struct SubcellTest {
    lat: f64,
    lon: f64,
    lat_lo: f64,
    lon_lo: f64,
    sub_lat: f64,
    sub_lon: f64,
    /// Bit parity of the longitude bits, counted from the low end.
    lon_shift: u32,
    /// Coefficient of the `Δlon` term: `cos²` (Euclidean) or `cos φ_c cos φ`
    /// (Haversine), least over the cover cell.
    weight: f64,
    /// The largest bound still within the circle.
    reach: f64,
    metric: DistanceMetric,
}

impl SubcellTest {
    /// The test of `cell`'s sub-cells `chars` characters finer (at most
    /// three: the bits travel in a `u16`) against `circle`.
    pub fn new(circle: &Circle, cell: &Geohash, chars: usize) -> Self {
        debug_assert!(chars <= 3, "{chars} refinement characters do not fit 16 bits");
        let bits = 5 * chars as u32;
        // Path bits alternate longitude, latitude from a geohash's first
        // bit, so counted from the low end of a refinement that follows
        // `bit_len` key bits, the longitude bits sit at this parity.
        let lon_shift = (cell.bit_len() + bits + 1) % 2;
        let lon_bits = (bits + 1 - lon_shift) / 2;
        let lat_bits = bits - lon_bits;
        let ((lat_lo, lat_hi), (lon_lo, lon_hi)) = decode(cell);
        let (lat, lon) = (circle.center.lat(), circle.center.lon());
        let weight = lon_weight(lat, lat_lo, lat_hi, circle.metric);
        let (weight, reach) = match circle.metric {
            DistanceMetric::Euclidean => {
                (weight * weight, (circle.radius_km / KM_PER_DEGREE).powi(2))
            }
            DistanceMetric::Haversine => {
                let half =
                    (circle.radius_km / (2.0 * EARTH_RADIUS_KM)).min(std::f64::consts::FRAC_PI_2);
                (weight, half.sin().powi(2))
            }
        };
        Self {
            lat,
            lon,
            lat_lo,
            lon_lo,
            sub_lat: (lat_hi - lat_lo) / f64::from(1u32 << lat_bits),
            sub_lon: (lon_hi - lon_lo) / f64::from(1u32 << lon_bits),
            lon_shift,
            weight,
            reach: reach * (1.0 + REACH_SLACK),
            metric: circle.metric,
        }
    }

    /// Whether the sub-cell with path bits `sub` (low `5 · chars` bits, the
    /// first path bit highest) may hold a point within the circle. `false`
    /// is a proof that it holds none.
    #[inline]
    pub fn may_reach(&self, sub: u16) -> bool {
        let sub = u32::from(sub);
        let lat_lo = self.lat_lo + f64::from(even_bits(sub >> (self.lon_shift ^ 1))) * self.sub_lat;
        let lon_lo = self.lon_lo + f64::from(even_bits(sub >> self.lon_shift)) * self.sub_lon;
        let dlat = lat_gap(self.lat, lat_lo, lat_lo + self.sub_lat);
        let dlon = lon_gap(self.lon, lon_lo, lon_lo + self.sub_lon);
        let (y, x) = match self.metric {
            DistanceMetric::Euclidean => (dlat, dlon),
            DistanceMetric::Haversine => (half_sin_floor(dlat), half_sin_floor(dlon)),
        };
        y * y + self.weight * x * x <= self.reach
    }
}

/// The bits at even positions of a 16-bit value, packed into its low byte
/// in order: one axis's indices out of interleaved path bits.
#[inline]
fn even_bits(x: u32) -> u32 {
    let x = x & 0x5555;
    let x = (x | (x >> 1)) & 0x3333;
    let x = (x | (x >> 2)) & 0x0F0F;
    (x | (x >> 4)) & 0x00FF
}

/// A lower bound on `sin(d / 2)` for an angle `d` of 0–180 degrees:
/// `t − t³/6` at `t = d / 2` in radians.
#[inline]
fn half_sin_floor(degrees: f64) -> f64 {
    let t = degrees * (std::f64::consts::PI / 360.0);
    t * (1.0 - t * t / 6.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geohash::encode;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new_unchecked(lat, lon)
    }

    #[test]
    fn cell_of_encoded_point_contains_it() {
        let point = p(43.6839128037, -79.37356590);
        for len in 1..=8 {
            let cell = Cell::from_geohash(&encode(&point, len).unwrap());
            assert!(cell.contains(&point), "len {len}");
            assert_eq!(cell.min_distance_km(&point, DistanceMetric::Euclidean), 0.0);
        }
    }

    #[test]
    fn min_distance_zero_inside_positive_outside() {
        let cell = Cell::from_bounds(0.0, 1.0, 0.0, 1.0);
        assert_eq!(cell.min_distance_km(&p(0.5, 0.5), DistanceMetric::Euclidean), 0.0);
        let outside = p(2.0, 0.5);
        let d = cell.min_distance_km(&outside, DistanceMetric::Euclidean);
        // 1 degree of latitude is ~111 km.
        assert!((105.0..118.0).contains(&d), "distance was {d}");
    }

    #[test]
    fn min_distance_clamps_to_nearest_corner() {
        let cell = Cell::from_bounds(0.0, 1.0, 0.0, 1.0);
        let diag = p(2.0, 2.0);
        let to_corner = diag.euclidean_km(&p(1.0, 1.0));
        assert!((cell.min_distance_km(&diag, DistanceMetric::Euclidean) - to_corner).abs() < 1e-9);
    }

    /// The least distance from `center` to a dense sample of `cell`'s west
    /// edge.
    fn west_edge_min(cell: &Cell, center: &Point, metric: DistanceMetric) -> f64 {
        let steps = 200_000;
        (0..=steps)
            .map(|i| {
                let lat = cell.lat_lo() + (cell.lat_hi() - cell.lat_lo()) * i as f64 / steps as f64;
                center.distance_km(&p(lat, cell.lon_lo()), metric)
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn a_cell_due_east_at_60n_is_covered_when_its_west_edge_is_in_radius() {
        // Beside the centre's latitude, the nearest point of a meridian
        // edge lies poleward of it. A bound that clamps each axis measures
        // the edge point at the centre's latitude instead, so with the
        // radius between the two distances the cover used to drop the cell
        // and every in-radius post in it.
        let center = p(60.0, 10.0);
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Haversine] {
            for (len, east) in [(4, 10.2), (3, 15.0)] {
                let gh = encode(&p(60.0, east), len).unwrap();
                let cell = Cell::from_geohash(&gh);
                assert!(cell.lat_lo() < center.lat() && center.lat() < cell.lat_hi());
                let clamped = center.distance_km(&p(center.lat(), cell.lon_lo()), metric);
                let edge = west_edge_min(&cell, &center, metric);
                assert!(edge < clamped, "{metric:?} len {len}: {edge} vs {clamped}");
                assert!(cell.min_distance_km(&center, metric) <= edge, "{metric:?} len {len}");
                let radius = (edge + clamped) / 2.0;
                let cover = crate::circle_cover(&center, radius, len, metric).unwrap();
                assert!(cover.contains(&gh), "{metric:?} len {len}: {gh} missing at r = {radius}");
            }
        }
    }

    #[test]
    fn subcell_test_splits_refinement_bits_like_the_geohash() {
        // For every key length and both parities, each sub-cell of a cell
        // is accepted by a circle around its own centre and rejected by a
        // small circle around the cell's opposite corner whenever the
        // exact distance puts it out of reach.
        let point = p(43.6839, -79.3736);
        for len in 1..=9 {
            let chars = 3;
            let key = encode(&point, len).unwrap();
            let cell = Cell::from_geohash(&key);
            for sub in (0u16..1 << 15).step_by(97) {
                let bits = (key.low_bits() << 15) | u64::from(sub);
                let fine = Geohash::from_low_bits(bits, len + chars).unwrap();
                let fine_cell = Cell::from_geohash(&fine);
                assert!(cell.contains(&fine_cell.center()));
                for metric in [DistanceMetric::Euclidean, DistanceMetric::Haversine] {
                    let radius = fine_cell.max_distance_km(&fine_cell.center(), metric) / 4.0;
                    let circle = Circle { center: fine_cell.center(), radius_km: radius, metric };
                    let test = SubcellTest::new(&circle, &key, chars);
                    assert!(test.may_reach(sub), "len {len} sub {sub:#x} {metric:?}");
                    // The sub-cell diagonally opposite within the cell.
                    let far = sub ^ 0x7FFF;
                    let far_cell = Cell::from_geohash(
                        &Geohash::from_low_bits(
                            (key.low_bits() << 15) | u64::from(far),
                            len + chars,
                        )
                        .unwrap(),
                    );
                    if far_cell.min_distance_km(&fine_cell.center(), metric) > 2.0 * radius {
                        assert!(!test.may_reach(far), "len {len} far {far:#x} {metric:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn max_distance_reaches_far_corner() {
        let cell = Cell::from_bounds(0.0, 1.0, 0.0, 1.0);
        let origin = p(0.0, 0.0);
        let far = origin.euclidean_km(&p(1.0, 1.0));
        assert!((cell.max_distance_km(&origin, DistanceMetric::Euclidean) - far).abs() < 1e-9);
    }

    #[test]
    fn min_le_max_distance() {
        let cell = Cell::from_geohash(&"6gxp".parse().unwrap());
        for point in [p(-23.9, -46.2), p(0.0, 0.0), p(-24.5, -47.0)] {
            for metric in [DistanceMetric::Euclidean, DistanceMetric::Haversine] {
                assert!(
                    cell.min_distance_km(&point, metric)
                        <= cell.max_distance_km(&point, metric) + 1e-9
                );
            }
        }
    }

    #[test]
    fn circle_predicates() {
        let cell = Cell::from_bounds(0.0, 1.0, 0.0, 1.0);
        let center = p(0.5, 0.5);
        // Cell diagonal half-extent is ~78 km; a 200 km circle swallows it.
        assert!(cell.within_circle(&center, 200.0, DistanceMetric::Euclidean));
        assert!(cell.intersects_circle(&center, 200.0, DistanceMetric::Euclidean));
        // A 10 km circle intersects but does not contain the cell.
        assert!(cell.intersects_circle(&center, 10.0, DistanceMetric::Euclidean));
        assert!(!cell.within_circle(&center, 10.0, DistanceMetric::Euclidean));
        // A far-away circle does neither.
        let far = p(50.0, 50.0);
        assert!(!cell.intersects_circle(&far, 10.0, DistanceMetric::Euclidean));
    }

    #[test]
    fn area_shrinks_with_length() {
        let point = p(40.0, -74.0);
        let a4 = Cell::from_geohash(&encode(&point, 4).unwrap()).area_km2();
        let a5 = Cell::from_geohash(&encode(&point, 5).unwrap()).area_km2();
        // One extra character = 32x finer subdivision.
        assert!((a4 / a5 - 32.0).abs() < 0.5, "ratio {}", a4 / a5);
    }

    #[test]
    fn center_is_inside() {
        let cell = Cell::from_geohash(&"u4pr".parse().unwrap());
        assert!(cell.contains(&cell.center()));
    }
}
