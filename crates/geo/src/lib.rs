//! Geospatial substrate for the TkLUS reproduction.
//!
//! This crate provides everything the hybrid spatial-keyword index in the
//! paper (Section IV-B) needs from the spatial side:
//!
//! * [`Point`] — a validated latitude/longitude pair with the distance
//!   metrics used by the scoring functions (Definition 5 uses Euclidean
//!   distance; we offer a projected-Euclidean metric in kilometres plus
//!   haversine).
//! * [`geohash`] — the quadtree-derived Geohash encoding the paper adapts:
//!   bit interleaving of longitude/latitude halvings followed by Base32
//!   encoding ("ten digits 0-9 and twenty-two letters a-z excluding a,i,l,o").
//! * [`Cell`] — the bounding box denoted by a geohash prefix, with
//!   point-to-cell distance computations used when covering a circular query
//!   region.
//! * [`cover`] — construction of the set of geohash prefixes that completely
//!   covers a circular query region while minimising the area outside it
//!   (Section IV-B1), the `GeoHashCircleQuery` primitive of Algorithms 4/5.
//! * [`gazetteer`] — place-name → coordinate inference for tweets that
//!   lack geo-tags but mention places in their text (the paper's Section
//!   VIII future-work direction).

pub mod cell;
pub mod cover;
pub mod gazetteer;
pub mod geohash;
pub mod point;

pub use cell::Cell;
pub use cover::{circle_cover, circle_cover_with_stats, CoverStats};
pub use gazetteer::{Gazetteer, Inference};
pub use geohash::{decode, encode, Geohash, GeohashError, MAX_GEOHASH_LEN};
pub use point::{DistanceMetric, Point, EARTH_RADIUS_KM};
