//! The carry-less-multiply CRC-32 kernel (x86_64 `PCLMULQDQ`): the
//! input's 16-byte blocks are folded four 128-bit lanes at a time, the
//! lanes into one, and that 128-bit remainder down to 32 bits by a
//! Barrett reduction. The constants are the published ones for the
//! reflected polynomial `0xEDB8_8320` (Intel's "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ", as zlib, Linux and crc32fast use
//! them): `x^(k) mod P` for the fold distances, then `P` and `μ`.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Folds across 512 bits (four lanes), then across 128 bits.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
/// Reduces 96 bits to 64.
const K5: i64 = 0x1_63cd_6124;
/// The polynomial `P(x)` and the Barrett constant `μ = ⌊x^64 / P(x)⌋`,
/// both bit-reflected.
const P_X: i64 = 0x1_DB71_0641;
const U_PRIME: i64 = 0x1_F701_1641;

/// Folds the whole 16-byte blocks of `bytes` into the raw CRC register
/// `crc` when this CPU has the carry-less multiply (std caches the CPUID
/// probe) and there are at least four blocks; returns the register after
/// them and the tail of fewer than 16 bytes. `None` otherwise: the caller
/// takes the portable path.
pub(super) fn fold_blocks(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    let detected =
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1");
    if bytes.len() < 64 || !detected {
        return None;
    }
    let (blocks, tail) = bytes.split_at(bytes.len() & !15);
    // SAFETY: `pclmulqdq` and `sse4.1`, the target features `fold` is
    // compiled for, were detected on this CPU just above.
    Some((unsafe { fold(crc, blocks) }, tail))
}

/// Folds `bytes` into the raw CRC register `crc` and returns the
/// register after them. Panics unless `bytes` is a whole number of
/// 16-byte blocks, at least four.
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(crc: u32, bytes: &[u8]) -> u32 {
    assert!(
        bytes.len() >= 64 && bytes.len().is_multiple_of(16),
        "whole 16-byte blocks, at least four"
    );
    let (first, rest) = bytes.split_at(64);
    let mut quads = rest.chunks_exact(64);
    let mut lanes = [load(first, 0), load(first, 16), load(first, 32), load(first, 48)];
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for quad in &mut quads {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = fold_into(*lane, load(quad, 16 * i), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold_into(lanes[0], lanes[1], k3k4);
    x = fold_into(x, lanes[2], k3k4);
    x = fold_into(x, lanes[3], k3k4);
    for block in quads.remainder().chunks_exact(16) {
        x = fold_into(x, load(block, 0), k3k4);
    }
    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett reduction, 64 → 32 bits; bit-reflected, so the register
    // is the upper half of the low 64 bits.
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}

/// `acc` carried forward by the distance `keys` encodes, plus `block`.
#[target_feature(enable = "pclmulqdq")]
fn fold_into(acc: __m128i, block: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
    _mm_xor_si128(_mm_xor_si128(block, lo), hi)
}

/// The 16 bytes of `chunk` at `at`, as a lane.
fn load(chunk: &[u8], at: usize) -> __m128i {
    let block = &chunk[at..at + 16];
    // SAFETY: `block` is 16 readable bytes, and an unaligned load has
    // no alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}
