//! On-disk compatibility across the CRC kernel change: every byte below
//! was written by the last build whose `crc32` was the byte-at-a-time
//! loop — `IngestStore` over two Toronto posts (an original and its
//! reply), one compaction, then a third post. No call into this build's
//! writers, so a checksum that changed value (or a layout that moved)
//! fails here.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use tklus_core::Ranking;
use tklus_geo::Point;
use tklus_model::{Semantics, TklusQuery, TweetId, UserId};
use tklus_wal::{decode_record, decode_step, FrameStep, IngestStore, SimFs, StoreConfig, WalFs};

const MANIFEST: &str =
    "TKLUSMANIFEST 1\ngeneration 1\nsealed_seq 2\nfile seal-00000001-d.log 2\ncrc 00a0070e\n";

/// Two frames: seq 1 (tweet 1, "great hotel downtown") and seq 2 (tweet 2,
/// a reply to it, "nice hotel").
const SEAL: &str = "42000000882941aa01010000000000000001000000000000000100000000000000\
f6285c8fc2d54540295c8fc2f5d853c00014000000677265617420686f74656c20646f776e746f776e\
48000000da65f0ac01020000000000000002000000000000000200000000000000\
f6285c8fc2d54540295c8fc2f5d853c001010000000000000001000000000000000a0000006e69636520686f74656c";

/// A 24-byte segment header (ordinal 1), then one frame: seq 3 (tweet 3,
/// "hotel spa").
const WAL_SEGMENT: &str = "544b57414c5345470100000001000000000000009e8ada2c\
37000000562d836201030000000000000003000000000000000300000000000000\
f6285c8fc2d54540295c8fc2f5d853c00009000000686f74656c20737061";

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn frames_written_before_the_kernel_change_decode() {
    let seal = unhex(SEAL);
    let FrameStep::Frame { payload_start, len, next } = decode_step(&seal, 0) else {
        panic!("first seal frame: {:?}", decode_step(&seal, 0));
    };
    let rec = decode_record(&seal[payload_start..payload_start + len]).unwrap();
    assert_eq!((rec.seq, rec.post.id, &*rec.post.text), (1, TweetId(1), "great hotel downtown"));
    let FrameStep::Frame { next, .. } = decode_step(&seal, next) else {
        panic!("second seal frame");
    };
    assert_eq!(decode_step(&seal, next), FrameStep::CleanEnd);
}

#[test]
fn store_directory_written_before_the_kernel_change_opens_and_answers() {
    let (fs, _faults) = SimFs::new(1);
    for (name, bytes) in [
        ("MANIFEST", MANIFEST.as_bytes().to_vec()),
        ("seal-00000001-d.log", unhex(SEAL)),
        ("wal-00000001.log", unhex(WAL_SEGMENT)),
    ] {
        fs.create(name).unwrap();
        fs.append(name, &bytes).unwrap();
        fs.sync(name).unwrap();
    }
    // Manifest checksum, both seal frames, the segment header and its
    // frame all verify, or this open fails typed.
    let (store, report) = IngestStore::open(fs, StoreConfig::default()).unwrap();
    assert_eq!((report.generation, report.sealed_posts, report.live_posts), (1, 2, 1));
    assert_eq!(report.recovery.truncated_bytes, 0);
    assert_eq!(store.sealed_seq(), 2);

    let q = TklusQuery::new(
        Point::new_unchecked(43.67, -79.39),
        5.0,
        vec!["hotel".to_string()],
        3,
        Semantics::Or,
    )
    .unwrap();
    let users: Vec<UserId> =
        store.try_query(&q, Ranking::Sum).unwrap().into_iter().map(|u| u.user).collect();
    assert_eq!(users.len(), 3, "sealed and live authors all rank: {users:?}");
    // The replied-to original outranks the rest (its thread is the only
    // one with a second level).
    assert_eq!(users[0], UserId(1));
}
