//! Geohash encoding: quadtree bit interleaving plus Base32.
//!
//! Section IV-B1 of the paper: a full-height quadtree over the lat/lon space
//! is encoded by appending two bits per level (a longitude halving and a
//! latitude halving), and every five bits become one character of the Base32
//! alphabet that "uses ten digits 0-9 and twenty-two letters (a-z excluding
//! a,i,l,o)". Points in proximity share prefixes, so a prefix tree over
//! geohashes doubles as a spatial index, and all points of a rectangular
//! area land in contiguous key ranges — the property the hybrid index's
//! on-disk layout exploits.
//!
//! The paper's worked example is reproduced in the tests: encoding
//! `(-23.994140625, -46.23046875)` at 20 bits yields the geohash `6gxp`
//! (Table IV lists its prefixes `6`, `6g`, `6gx`, `6gxp`).

use crate::point::Point;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The Base32 alphabet used by geohash (digits plus a–z without a, i, l, o).
pub const ALPHABET: &[u8; 32] = b"0123456789bcdefghjkmnpqrstuvwxyz";

/// Maximum supported geohash length in characters. Twelve characters is 60
/// bits, i.e. 30 longitude and 30 latitude halvings — far below a millimetre
/// of precision, and the most that fits a `u64` bit path.
pub const MAX_GEOHASH_LEN: usize = 12;

/// Errors arising when parsing or constructing a [`Geohash`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeohashError {
    /// The requested or supplied length is zero or exceeds [`MAX_GEOHASH_LEN`].
    BadLength(usize),
    /// A character outside the geohash Base32 alphabet was encountered.
    BadChar(char),
}

impl fmt::Display for GeohashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeohashError::BadLength(n) => {
                write!(f, "geohash length must be 1..={MAX_GEOHASH_LEN}, got {n}")
            }
            GeohashError::BadChar(c) => write!(f, "character {c:?} is not in the geohash alphabet"),
        }
    }
}

impl std::error::Error for GeohashError {}

/// A geohash of 1 to [`MAX_GEOHASH_LEN`] characters, stored as a left-aligned
/// bit path.
///
/// The representation keeps the `5 * len` path bits in the *high* bits of a
/// `u64`. Because the Base32 alphabet is strictly increasing in ASCII, the
/// derived ordering — high-aligned bits first, then length — is exactly the
/// lexicographic order of the string form, so sorted collections of
/// `Geohash` keys cluster spatially adjacent cells together just like the
/// paper's HDFS key layout does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Geohash {
    /// Path bits, left-aligned: bit 63 is the first (longitude) decision.
    bits: u64,
    /// Number of Base32 characters, in `1..=MAX_GEOHASH_LEN`.
    len: u8,
}

impl Geohash {
    /// Builds a geohash from raw path bits given in the *low* `5 * len` bits
    /// of `low_bits` (most natural when composing characters).
    pub fn from_low_bits(low_bits: u64, len: usize) -> Result<Self, GeohashError> {
        if len == 0 || len > MAX_GEOHASH_LEN {
            return Err(GeohashError::BadLength(len));
        }
        let nbits = 5 * len as u32;
        debug_assert!(nbits == 64 || low_bits >> nbits == 0, "extra bits beyond the path");
        Ok(Self { bits: low_bits << (64 - nbits), len: len as u8 })
    }

    /// Number of characters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Geohashes are never empty; kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of path bits (`5 * len`).
    #[inline]
    pub fn bit_len(&self) -> u32 {
        5 * self.len as u32
    }

    /// The path bits in the low `5 * len` bits.
    #[inline]
    pub fn low_bits(&self) -> u64 {
        self.bits >> (64 - self.bit_len())
    }

    /// The parent cell (one character shorter), or `None` for length-1 cells.
    pub fn parent(&self) -> Option<Geohash> {
        if self.len <= 1 {
            None
        } else {
            let len = self.len - 1;
            let keep = 5 * len as u32;
            Some(Geohash { bits: self.bits & (u64::MAX << (64 - keep)), len })
        }
    }

    /// Returns true if `self` is a prefix of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &Geohash) -> bool {
        if self.len > other.len {
            return false;
        }
        let keep = self.bit_len();
        (self.bits ^ other.bits) >> (64 - keep) == 0
    }

    /// The 32 children of this cell, in Base32 (= Z-order) order. Empty if
    /// already at [`MAX_GEOHASH_LEN`].
    pub fn children(&self) -> Vec<Geohash> {
        if self.len() >= MAX_GEOHASH_LEN {
            return Vec::new();
        }
        let len = self.len + 1;
        let shift = 64 - 5 * len as u32;
        (0u64..32).map(|c| Geohash { bits: self.bits | (c << shift), len }).collect()
    }

    /// The `i`-th character's 5-bit value (0-based).
    #[inline]
    fn char_value(&self, i: usize) -> u8 {
        debug_assert!(i < self.len());
        ((self.bits >> (64 - 5 * (i as u32 + 1))) & 0x1F) as u8
    }

    /// Truncates to the first `len` characters.
    pub fn truncate(&self, len: usize) -> Result<Geohash, GeohashError> {
        if len == 0 || len > self.len() {
            return Err(GeohashError::BadLength(len));
        }
        let keep = 5 * len as u32;
        Ok(Geohash { bits: self.bits & (u64::MAX << (64 - keep)), len: len as u8 })
    }
}

impl fmt::Display for Geohash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            f.write_str(
                std::str::from_utf8(
                    &ALPHABET[self.char_value(i) as usize..=self.char_value(i) as usize],
                )
                .unwrap(),
            )?;
        }
        Ok(())
    }
}

impl FromStr for Geohash {
    type Err = GeohashError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s.len() > MAX_GEOHASH_LEN {
            return Err(GeohashError::BadLength(s.len()));
        }
        let mut bits = 0u64;
        for ch in s.chars() {
            let v = decode_char(ch)?;
            bits = (bits << 5) | v as u64;
        }
        Geohash::from_low_bits(bits, s.len())
    }
}

fn decode_char(ch: char) -> Result<u8, GeohashError> {
    let lower = ch.to_ascii_lowercase();
    ALPHABET
        .iter()
        .position(|&a| a as char == lower)
        .map(|p| p as u8)
        .ok_or(GeohashError::BadChar(ch))
}

/// Encodes a point at the given character length.
///
/// ```
/// use tklus_geo::{encode, Point};
///
/// // The paper's worked example (Section IV-B1 / Table IV).
/// let p = Point::new_unchecked(-23.994140625, -46.23046875);
/// assert_eq!(encode(&p, 4).unwrap().to_string(), "6gxp");
/// ```
///
/// Bit semantics: the first bit splits the longitude range `[-180, 180]`
/// (0 = west half, 1 = east half), the second splits latitude `[-90, 90]`
/// (0 = south, 1 = north), alternating thereafter — the standard geohash
/// layout, equivalent to the paper's per-level two-bit quadrant labels.
/// A coordinate on a split goes to the upper half.
///
/// The bisection is not run step by step: an axis's bits are the index of
/// its `2^bits` equal intervals that holds the coordinate, and the two
/// indices are interleaved.
pub fn encode(point: &Point, len: usize) -> Result<Geohash, GeohashError> {
    if len == 0 || len > MAX_GEOHASH_LEN {
        return Err(GeohashError::BadLength(len));
    }
    let nbits = 5 * len as u32;
    let lon = interval_index(point.lon(), 180.0, nbits.div_ceil(2));
    let lat = interval_index(point.lat(), 90.0, nbits / 2);
    // Counted from the low end, the last path bit is longitude's when the
    // bit count is odd.
    let lon_shift = 1 - nbits % 2;
    Geohash::from_low_bits(
        (spread_bits(lon) << lon_shift) | (spread_bits(lat) << (1 - lon_shift)),
        len,
    )
}

/// Which of `[-half, half]`'s `2^bits` equal intervals holds `v`, with an
/// interval's lower edge inside it and `half` in the last one: the
/// outcome of `bits` bisection steps. Every edge is a dyadic fraction of
/// `half`, so it is exact in `f64`; the float quotient lands within one of
/// the answer, and the exact edges settle it.
pub(crate) fn interval_index(v: f64, half: f64, bits: u32) -> u64 {
    let count = 1u64 << bits;
    let width = 2.0 * half / count as f64;
    let edge = |k: u64| -half + k as f64 * width;
    // `as` saturates: a quotient below zero is index 0.
    let k = (((v + half) / width) as u64).min(count - 1);
    if k > 0 && v < edge(k) {
        k - 1
    } else if k + 1 < count && v >= edge(k + 1) {
        k + 1
    } else {
        k
    }
}

/// `x`'s low 32 bits moved to the even bit positions of a `u64`, in order.
pub(crate) fn spread_bits(x: u64) -> u64 {
    let x = x & 0xFFFF_FFFF;
    let x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    let x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    let x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    let x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Decodes a geohash into the lat/lon ranges of its cell; returned as
/// `((lat_lo, lat_hi), (lon_lo, lon_hi))`. [`crate::Cell`] wraps this.
pub fn decode(gh: &Geohash) -> ((f64, f64), (f64, f64)) {
    let (mut lon_lo, mut lon_hi) = (-180.0f64, 180.0f64);
    let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
    let nbits = gh.bit_len();
    for i in 0..nbits {
        let bit = (gh.bits >> (63 - i)) & 1;
        if i % 2 == 0 {
            let mid = (lon_lo + lon_hi) / 2.0;
            if bit == 1 {
                lon_lo = mid;
            } else {
                lon_hi = mid;
            }
        } else {
            let mid = (lat_lo + lat_hi) / 2.0;
            if bit == 1 {
                lat_lo = mid;
            } else {
                lat_hi = mid;
            }
        }
    }
    ((lat_lo, lat_hi), (lon_lo, lon_hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> Point {
        Point::new_unchecked(lat, lon)
    }

    /// The geohash bisection run step by step: the reference [`encode`]
    /// must reproduce bit for bit.
    fn bisect(point: &Point, len: usize) -> u64 {
        let (mut lon_lo, mut lon_hi) = (-180.0f64, 180.0f64);
        let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
        let mut bits = 0u64;
        for i in 0..5 * len {
            let (v, lo, hi) = if i % 2 == 0 {
                (point.lon(), &mut lon_lo, &mut lon_hi)
            } else {
                (point.lat(), &mut lat_lo, &mut lat_hi)
            };
            let mid = (*lo + *hi) / 2.0;
            bits <<= 1;
            if v >= mid {
                bits |= 1;
                *lo = mid;
            } else {
                *hi = mid;
            }
        }
        bits
    }

    #[test]
    fn encode_equals_the_bisection_on_edges_and_beside_them() {
        // Every interval edge of every length, one ulp either side of it,
        // the poles and the antimeridian: the float estimate is off by one
        // exactly here, if anywhere.
        let ulp = |v: f64, up: bool| {
            if v == 0.0 {
                if up {
                    f64::from_bits(1)
                } else {
                    -f64::from_bits(1)
                }
            } else if (v > 0.0) == up {
                f64::from_bits(v.to_bits() + 1)
            } else {
                f64::from_bits(v.to_bits() - 1)
            }
        };
        let values = |half: f64| -> Vec<f64> {
            let mut out = vec![-half, half, 0.0];
            for bits in [1u32, 2, 3, 5, 8, 13, 17, 21, 30] {
                let width = 2.0 * half / (1u64 << bits) as f64;
                for k in [0u64, 1, 2, 3, (1 << bits) / 3, (1 << bits) / 2, (1 << bits) - 1] {
                    let edge = -half + k as f64 * width;
                    out.extend([edge, ulp(edge, true), ulp(edge, false)]);
                }
            }
            out.retain(|v| (-half..=half).contains(v));
            out
        };
        let (lats, lons) = (values(90.0), values(180.0));
        for &lat in &lats {
            for &lon in &lons {
                let point = p(lat, lon);
                for len in 1..=MAX_GEOHASH_LEN {
                    let got = encode(&point, len).unwrap().low_bits();
                    assert_eq!(got, bisect(&point, len), "({lat:e}, {lon:e}) at length {len}");
                }
            }
        }
        // And a spread of ordinary points.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..20_000 {
            let lat = unit() * 180.0 - 90.0;
            let lon = unit() * 360.0 - 180.0;
            let point = p(lat, lon);
            for len in 1..=MAX_GEOHASH_LEN {
                assert_eq!(encode(&point, len).unwrap().low_bits(), bisect(&point, len));
            }
        }
    }

    #[test]
    fn paper_example_encodes_to_6gxp() {
        // Section IV-B1: (-23.994140625, -46.23046875) at 20 bits -> "6gxp".
        let gh = encode(&p(-23.994140625, -46.23046875), 4).unwrap();
        assert_eq!(gh.to_string(), "6gxp");
    }

    #[test]
    fn paper_table4_prefixes() {
        // Table IV: lengths 1..4 give 6, 6g, 6gx, 6gxp.
        let point = p(-23.994140625, -46.23046875);
        let expect = ["6", "6g", "6gx", "6gxp"];
        for (len, want) in (1..=4).zip(expect) {
            assert_eq!(encode(&point, len).unwrap().to_string(), want);
        }
    }

    #[test]
    fn known_geohash_values() {
        // Independently known geohash reference values.
        assert_eq!(encode(&p(57.64911, 10.40744), 11).unwrap().to_string(), "u4pruydqqvj");
        assert_eq!(encode(&p(42.6, -5.6), 5).unwrap().to_string(), "ezs42");
    }

    #[test]
    fn rejects_bad_lengths() {
        let point = p(0.0, 0.0);
        assert_eq!(encode(&point, 0), Err(GeohashError::BadLength(0)));
        assert_eq!(encode(&point, 13), Err(GeohashError::BadLength(13)));
    }

    #[test]
    fn parse_round_trips_display() {
        for s in ["6gxp", "u4pruydqqvj", "0", "zzzzzzzzzzzz", "ezs42"] {
            let gh: Geohash = s.parse().unwrap();
            assert_eq!(gh.to_string(), s);
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        let a: Geohash = "6GXP".parse().unwrap();
        let b: Geohash = "6gxp".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_excluded_letters() {
        for bad in ["a", "6gai", "hello", "x l"] {
            assert!(
                matches!(bad.parse::<Geohash>(), Err(GeohashError::BadChar(_))),
                "{bad:?} should fail"
            );
        }
        assert!(matches!("".parse::<Geohash>(), Err(GeohashError::BadLength(0))));
    }

    #[test]
    fn parent_strips_last_char() {
        let gh: Geohash = "6gxp".parse().unwrap();
        assert_eq!(gh.parent().unwrap().to_string(), "6gx");
        let root: Geohash = "6".parse().unwrap();
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn prefix_relation() {
        let short: Geohash = "6g".parse().unwrap();
        let long: Geohash = "6gxp".parse().unwrap();
        let other: Geohash = "6h".parse().unwrap();
        assert!(short.is_prefix_of(&long));
        assert!(short.is_prefix_of(&short));
        assert!(!long.is_prefix_of(&short));
        assert!(!other.is_prefix_of(&long));
    }

    #[test]
    fn children_are_sorted_and_prefixed() {
        let gh: Geohash = "6g".parse().unwrap();
        let kids = gh.children();
        assert_eq!(kids.len(), 32);
        assert!(kids.windows(2).all(|w| w[0] < w[1]));
        assert!(kids.iter().all(|k| gh.is_prefix_of(k) && k.len() == 3));
        assert_eq!(kids[0].to_string(), "6g0");
        assert_eq!(kids[31].to_string(), "6gz");
    }

    #[test]
    fn children_empty_at_max_len() {
        let gh: Geohash = "zzzzzzzzzzzz".parse().unwrap();
        assert!(gh.children().is_empty());
    }

    #[test]
    fn ordering_matches_string_order() {
        let mut hashes: Vec<Geohash> = ["6gxp", "6g", "7", "6gx", "u4pr", "0", "zz", "6h"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        hashes.sort();
        let strings: Vec<String> = hashes.iter().map(|g| g.to_string()).collect();
        let mut by_string = strings.clone();
        by_string.sort();
        assert_eq!(strings, by_string);
    }

    #[test]
    fn decode_contains_encoded_point() {
        let point = p(43.6839128037, -79.37356590);
        for len in 1..=MAX_GEOHASH_LEN {
            let gh = encode(&point, len).unwrap();
            let ((lat_lo, lat_hi), (lon_lo, lon_hi)) = decode(&gh);
            assert!(lat_lo <= point.lat() && point.lat() < lat_hi, "lat out of cell at len {len}");
            assert!(lon_lo <= point.lon() && point.lon() < lon_hi, "lon out of cell at len {len}");
        }
    }

    #[test]
    fn truncate_equals_shorter_encode() {
        let point = p(-33.8688, 151.2093);
        let full = encode(&point, 8).unwrap();
        for len in 1..=8 {
            assert_eq!(full.truncate(len).unwrap(), encode(&point, len).unwrap());
        }
        assert!(full.truncate(0).is_err());
        assert!(full.truncate(9).is_err());
    }

    #[test]
    fn longer_hashes_give_smaller_cells() {
        let point = p(51.5074, -0.1278);
        let mut prev_area = f64::INFINITY;
        for len in 1..=8 {
            let gh = encode(&point, len).unwrap();
            let ((lat_lo, lat_hi), (lon_lo, lon_hi)) = decode(&gh);
            let area = (lat_hi - lat_lo) * (lon_hi - lon_lo);
            assert!(area < prev_area);
            prev_area = area;
        }
    }
}
