//! Fixed-size pages and the verified page header.
//!
//! Every page carries a 16-byte header maintained by
//! [`crate::CheckedPager`]:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TKPG"
//! 4       2     format version (little-endian u16, currently 1)
//! 6       2     reserved, must be zero
//! 8       4     CRC32 (IEEE, little-endian) over bytes 12..4096
//! 12      4084  payload (includes 4 unused bytes before the node area)
//! ```
//!
//! The CRC covers everything after the checksum field itself, and the
//! magic/version/reserved bytes are validated exactly on read, so *every*
//! bit of the page is protected by some check — a single flipped bit
//! anywhere is detected. Layers that store structured data in pages (the
//! B⁺-tree) place their content at [`PAGE_HEADER_SIZE`] and beyond.

use crate::error::StorageError;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Page size in bytes. 4 KiB, the classic database page size.
pub const PAGE_SIZE: usize = 4096;

/// Bytes at the front of each page reserved for the verified header.
pub const PAGE_HEADER_SIZE: usize = 16;

/// Magic bytes identifying a sealed tklus page.
pub const PAGE_MAGIC: [u8; 4] = *b"TKPG";

/// Current on-disk page format version.
pub const PAGE_FORMAT_VERSION: u16 = 1;

/// Byte offset where the CRC-covered region begins (just after the
/// checksum field).
const CRC_COVER_START: usize = 12;

/// Identifier of a page within a page store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A page: 4 KiB shared, never copied, between whoever holds it. A store
/// keeps the page it was given and hands the same bytes out on every read,
/// so a read costs a reference count and never a 4 KiB copy. A holder that
/// wants different bytes writes through [`Arc::make_mut`], which copies a
/// page someone else holds first: a page a reader holds, or one a store
/// keeps, never changes under it, and a reader sees exactly the bytes that
/// were verified.
pub type Page = Arc<[u8; PAGE_SIZE]>;

/// A zeroed page: one zero page shared by every caller, so nothing is
/// allocated until a writer changes it.
pub fn zeroed_page() -> Page {
    static ZERO: OnceLock<Page> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new([0; PAGE_SIZE])))
}

/// CRC32 (IEEE 802.3, reflected) over `bytes`.
///
/// Two paths give the same value for every input. On x86_64, when the CPU
/// has the carry-less multiply (`pclmulqdq` and `sse4.1`, detected at run
/// time) and the input is at least 64 bytes, its 16-byte blocks are folded
/// with `PCLMULQDQ` (the `clmul` module, this crate's only `unsafe` code);
/// the tail of fewer than 16 bytes goes through [`crc32_slicing_by_8`].
/// Shorter inputs, such as a WAL segment header or a short frame, and
/// other CPUs take [`crc32_slicing_by_8`] whole.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((crc, tail)) = clmul::fold_blocks(!0, bytes) {
        return !slicing_by_8(crc, tail);
    }
    !slicing_by_8(!0, bytes)
}

/// CRC32 over `bytes` by the portable path alone: what [`crc32`] computes
/// on a CPU without the carry-less multiply. Public so that its cost can
/// be measured beside [`crc32`]'s.
pub fn crc32_slicing_by_8(bytes: &[u8]) -> u32 {
    !slicing_by_8(!0, bytes)
}

/// Slicing-by-8 over the raw (uninverted) CRC register `crc`; returns the
/// register after `bytes`. Eight 256-entry tables, built once, fold eight
/// input bytes per step; the tail (and any input shorter than eight bytes)
/// goes through the first table a byte at a time. `tables[0]` is the
/// classic byte-at-a-time table and `tables[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so the value is the bitwise CRC-32's for
/// every input — only the number of table steps differs.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            let (bytewise, prev) = (t[0], t[k - 1]);
            for (slot, prev) in t[k].iter_mut().zip(prev) {
                *slot = bytewise[(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    });
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod clmul;

/// Writes the verified header into `page`: magic, current format version,
/// zeroed reserved bytes, and the CRC32 of the payload region.
pub fn seal_page(page: &mut [u8; PAGE_SIZE]) {
    page[0..4].copy_from_slice(&PAGE_MAGIC);
    page[4..6].copy_from_slice(&PAGE_FORMAT_VERSION.to_le_bytes());
    page[6..8].copy_from_slice(&[0, 0]);
    let crc = crc32(&page[CRC_COVER_START..]);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Validates the header written by [`seal_page`]: magic, format version,
/// reserved bytes, and the payload checksum.
pub fn verify_page(page: &[u8; PAGE_SIZE], id: PageId) -> Result<(), StorageError> {
    if page[0..4] != PAGE_MAGIC {
        return Err(StorageError::BadPageHeader {
            page_id: id,
            detail: format!("bad magic {:02x?} (want {:02x?} / \"TKPG\")", &page[0..4], PAGE_MAGIC),
        });
    }
    let version = u16::from_le_bytes([page[4], page[5]]);
    if version != PAGE_FORMAT_VERSION {
        return Err(StorageError::BadPageHeader {
            page_id: id,
            detail: format!("format version {version} (supported: {PAGE_FORMAT_VERSION})"),
        });
    }
    if page[6..8] != [0, 0] {
        return Err(StorageError::BadPageHeader {
            page_id: id,
            detail: format!("reserved bytes {:02x?} are not zero", &page[6..8]),
        });
    }
    let expected = u32::from_le_bytes([page[8], page[9], page[10], page[11]]);
    let actual = crc32(&page[CRC_COVER_START..]);
    if expected != actual {
        return Err(StorageError::PageCorrupt { page_id: id, expected, actual });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        let p = zeroed_page();
        assert_eq!(p.len(), PAGE_SIZE);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(5).to_string(), "p5");
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_values_pinned_before_slicing() {
        // Literals computed by the byte-at-a-time loop this kernel
        // replaced: a page's covered length, and every length around the
        // 8-byte step (no step, one step, one step plus a tail, ...).
        assert_eq!(crc32(&[0u8; 4084]), 0x0813_1530);
        let ramp: Vec<u8> = (0..4084).map(|i| i as u8).collect();
        assert_eq!(crc32(&ramp), 0x909C_49DE);
        for (len, want) in [
            (7, 0xAD58_09F9),
            (8, 0x88AA_689F),
            (9, 0xBCE1_4302),
            (15, 0xA06C_675E),
            (16, 0xCECE_E288),
            (17, 0x2C18_3A19u32),
        ] {
            assert_eq!(crc32(&ramp[..len]), want, "length {len}");
        }
    }

    /// CRC-32 straight from the polynomial, one bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn both_paths_equal_the_bitwise_definition() {
        // Every length across the 64-byte dispatch boundary and the
        // kernel's 16- and 64-byte steps, at every start offset within a
        // block; then a page's covered length and two pages. The portable
        // path is called directly: on a CPU with the carry-less multiply
        // nothing else runs it on inputs of 64 bytes or more.
        let bytes: Vec<u8> =
            (0..9_016u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let bytes = &bytes[..];
        let inputs = (0..16)
            .flat_map(|start| (0..=1024).map(move |len| &bytes[start..start + len]))
            .chain([&bytes[..4084], &bytes[7..9_007]]);
        for input in inputs {
            let want = crc32_bitwise(input);
            assert_eq!(crc32(input), want, "dispatched, length {}", input.len());
            assert_eq!(crc32_slicing_by_8(input), want, "portable, length {}", input.len());
        }
    }

    #[test]
    fn page_sealed_before_slicing_still_verifies() {
        // The 16 header bytes are what `seal_page` wrote for this payload
        // in the last build with the byte-at-a-time CRC; no call into this
        // build's sealer.
        let mut p = [0u8; PAGE_SIZE];
        p[..PAGE_HEADER_SIZE].copy_from_slice(&[
            b'T', b'K', b'P', b'G', 1, 0, 0, 0, 0x75, 0x8d, 0x65, 0x3b, 0, 0, 0, 0,
        ]);
        for (i, byte) in p.iter_mut().enumerate().skip(PAGE_HEADER_SIZE) {
            *byte = (i * 7 + 3) as u8;
        }
        verify_page(&p, PageId(0)).unwrap();
        let mut resealed = p;
        seal_page(&mut resealed);
        assert_eq!(resealed[..], p[..], "this build seals the same bytes");
    }

    #[test]
    fn seal_verify_roundtrip() {
        let mut p = [0u8; PAGE_SIZE];
        p[100] = 0xAB;
        p[PAGE_SIZE - 1] = 0xCD;
        seal_page(&mut p);
        verify_page(&p, PageId(0)).unwrap();
    }

    #[test]
    fn any_payload_bit_flip_is_detected() {
        let mut p = [0u8; PAGE_SIZE];
        p[200] = 0x55;
        seal_page(&mut p);
        // Flip one bit in a sample of positions across the whole page.
        for pos in [12, 13, 100, PAGE_HEADER_SIZE, 2048, PAGE_SIZE - 1] {
            let mut bad = p;
            bad[pos] ^= 0x01;
            assert!(verify_page(&bad, PageId(1)).is_err(), "flip at {pos} undetected");
        }
    }

    #[test]
    fn header_field_corruption_is_typed() {
        let mut p = [0u8; PAGE_SIZE];
        seal_page(&mut p);

        let mut bad_magic = p;
        bad_magic[0] = b'X';
        assert!(matches!(
            verify_page(&bad_magic, PageId(2)),
            Err(StorageError::BadPageHeader { .. })
        ));

        let mut bad_version = p;
        bad_version[4] = 99;
        assert!(matches!(
            verify_page(&bad_version, PageId(2)),
            Err(StorageError::BadPageHeader { .. })
        ));

        let mut bad_reserved = p;
        bad_reserved[6] = 1;
        assert!(matches!(
            verify_page(&bad_reserved, PageId(2)),
            Err(StorageError::BadPageHeader { .. })
        ));

        let mut bad_crc = p;
        bad_crc[9] ^= 0xFF;
        assert!(matches!(
            verify_page(&bad_crc, PageId(2)),
            Err(StorageError::PageCorrupt { page_id: PageId(2), .. })
        ));
    }

    #[test]
    fn unsealed_page_fails_verification() {
        let p = zeroed_page();
        assert!(matches!(verify_page(&p, PageId(0)), Err(StorageError::BadPageHeader { .. })));
    }
}
