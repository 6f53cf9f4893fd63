//! Tier-1 checks on the verified page read under every metadata lookup.
//!
//! The CRC-32 kernel is pinned against the bitwise definition at every
//! length across its 16- and 64-byte steps, so a wrong fold constant fails
//! here; and an engine whose metadata store flips a bit in every page it
//! reads must fail each query with a typed storage corruption — never
//! answer, and never mistake the damage for a malformed node.

use std::sync::Arc;
use tklus::core::{
    BoundsMode, EngineConfig, EngineError, MetadataStoreFactory, Ranking, TklusEngine,
};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::model::{Semantics, TklusQuery};
use tklus::storage::{crc32, FaultConfig, FaultHandle, FaultPager, MemPager, StorageError};

/// CRC-32 (IEEE 802.3, reflected) straight from the polynomial, one bit at
/// a time: no table and no carry-less multiply.
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
fn crc32_equals_the_bitwise_definition_across_the_kernel_steps() {
    let bytes: Vec<u8> = (0..4_100u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8).collect();
    // Below, at and past one, two and three 64-byte steps, each with every
    // 16-byte tail; then a page's covered length.
    for len in (0..=260).chain([4_084]) {
        for start in [0, 5] {
            let input = &bytes[start..start + len];
            assert_eq!(crc32(input), crc32_bitwise(input), "length {len}, start {start}");
        }
    }
}

#[test]
fn a_flipped_bit_in_every_page_read_fails_every_query_as_corruption() {
    let corpus =
        generate_corpus(&GenConfig { original_posts: 300, users: 60, ..GenConfig::default() });
    let handle = FaultHandle::new();
    let flips = FaultConfig { seed: 7, bit_flip_read_ppm: 1_000_000, ..FaultConfig::default() };
    let store: MetadataStoreFactory = {
        let handle = Arc::clone(&handle);
        Arc::new(move |stats| {
            Box::new(FaultPager::with_handle(
                MemPager::with_stats(stats),
                flips,
                Arc::clone(&handle),
            ))
        })
    };
    let config = EngineConfig { metadata_store: Some(store), ..EngineConfig::default() };
    let (engine, _) = TklusEngine::try_build(&corpus, &config).expect("a disarmed build is clean");
    handle.arm(true);
    let specs = generate_queries(&corpus, &QueryConfig { per_bucket: 2, seed: 0xF11B });
    let mut failed = 0;
    for spec in specs {
        let q = TklusQuery::new(spec.location, 15.0, spec.keywords, 5, Semantics::Or)
            .expect("generated query is valid");
        for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
            let reads_before = handle.flips_injected();
            match engine.try_query(&q, ranking) {
                Err(EngineError::Storage(
                    StorageError::PageCorrupt { .. } | StorageError::BadPageHeader { .. },
                )) => failed += 1,
                Ok(_) if handle.flips_injected() == reads_before => {} // read no page
                other => panic!("a flipped page was not caught as corruption: {:?}", other.err()),
            }
        }
    }
    assert!(failed > 0, "no query read a page — vacuous run");
}
