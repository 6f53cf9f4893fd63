//! Property suite for the WAL frame and record codecs (DESIGN.md §15,
//! same discipline as PR 6's block-postings suite).
//!
//! Properties, all load-bearing for recovery:
//!
//! 1. **Round-trip** — `encode ∘ decode` is the identity on any record
//!    (sequence, ids, location *bits*, reply edge, arbitrary Unicode
//!    text), through the frame layer and back.
//! 2. **Truncation at every byte offset** is classified `Torn` (or
//!    `CleanEnd` at exact frame boundaries), never `Bad`, never a panic —
//!    the torn-tail signature recovery's truncate-at-tail depends on.
//! 3. **Bit flips** anywhere in a frame are detected: the decode step
//!    never yields a frame whose payload differs from what was encoded
//!    (CRC collisions aside, which a single flipped bit cannot produce).
//! 4. **Garbage prefixes and arbitrary bytes never panic** — every
//!    outcome is a typed [`FrameStep`], and whatever *does* decode as a
//!    frame feeds the record decoder, which is equally panic-free.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use tklus_geo::Point;
use tklus_model::{InteractionKind, Post, ReplyTo, TweetId, UserId};
use tklus_wal::{decode_record, decode_step, encode_frame, encode_record, FrameStep, WalRecord};

fn arb_point() -> impl Strategy<Value = Point> {
    (-85.0f64..85.0, -179.9f64..179.9).prop_map(|(lat, lon)| Point::new_unchecked(lat, lon))
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        arb_point(),
        ".{0,80}",
        proptest::option::of((any::<u64>(), any::<u64>(), any::<bool>())),
    )
        .prop_map(|(seq, id, user, location, text, reply)| WalRecord {
            seq,
            post: Post {
                id: TweetId(id),
                user: UserId(user),
                location,
                text: text.into(),
                in_reply_to: reply.map(|(target, target_user, fwd)| ReplyTo {
                    target: TweetId(target),
                    target_user: UserId(target_user),
                    kind: if fwd { InteractionKind::Forward } else { InteractionKind::Reply },
                }),
            },
        })
}

/// Frames a batch of records into one buffer, as a segment body would.
fn frame_all(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in records {
        encode_frame(&encode_record(rec), &mut buf);
    }
    buf
}

/// Walks every whole frame in `buf`, decoding payloads as records.
fn scan(buf: &[u8]) -> (Vec<WalRecord>, FrameStep) {
    let mut out = Vec::new();
    let mut offset = 0;
    loop {
        match decode_step(buf, offset) {
            FrameStep::Frame { payload_start, len, next } => {
                if let Ok(rec) = decode_record(&buf[payload_start..payload_start + len]) {
                    out.push(rec);
                }
                offset = next;
            }
            step => return (out, step),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round-trip through record + frame layers is the identity,
    /// including location f64 bits and reply edges.
    #[test]
    fn roundtrip_is_identity(records in proptest::collection::vec(arb_record(), 1..8)) {
        let buf = frame_all(&records);
        let (back, end) = scan(&buf);
        prop_assert_eq!(end, FrameStep::CleanEnd);
        prop_assert_eq!(&back, &records);
        for (a, b) in back.iter().zip(records.iter()) {
            prop_assert_eq!(
                a.post.location.lat().to_bits(),
                b.post.location.lat().to_bits()
            );
            prop_assert_eq!(
                a.post.location.lon().to_bits(),
                b.post.location.lon().to_bits()
            );
        }
    }

    /// Truncation at EVERY byte offset is Torn or CleanEnd — never Bad,
    /// never a decoded half-record. Records before the cut all survive.
    #[test]
    fn truncation_at_every_offset_is_torn(records in proptest::collection::vec(arb_record(), 1..5)) {
        let buf = frame_all(&records);
        for cut in 0..buf.len() {
            let (survivors, step) = scan(&buf[..cut]);
            match step {
                FrameStep::Torn { .. } | FrameStep::CleanEnd => {}
                bad => prop_assert!(false, "cut {cut}: classified {bad:?}"),
            }
            prop_assert!(survivors.len() <= records.len());
            prop_assert_eq!(&records[..survivors.len()], &survivors[..], "cut {}", cut);
        }
    }

    /// A single flipped bit anywhere in a one-frame buffer can never
    /// surface a record different from the one encoded: the step is Bad
    /// (header/payload corruption detected), Torn (length field now
    /// promises more bytes), or — only when the flip is in the length
    /// field shrinking the frame — a record-decode failure. A clean
    /// decode of a *different* record is the one forbidden outcome.
    #[test]
    fn bit_flips_never_forge_a_record(rec in arb_record(), at_bit in 0usize..256) {
        let mut buf = Vec::new();
        encode_frame(&encode_record(&rec), &mut buf);
        let at_bit = at_bit % (buf.len() * 8);
        buf[at_bit / 8] ^= 1 << (at_bit % 8);
        match decode_step(&buf, 0) {
            FrameStep::Frame { payload_start, len, next: _ } => {
                // Frame validated ⇒ the flip was in the length prefix and
                // the CRC happens to cover the shorter payload — impossible
                // for CRC32 with a 1-bit flip unless the payload bytes are
                // themselves a valid shorter frame; the record layer must
                // then reject the truncated payload.
                if let Ok(forged) = decode_record(&buf[payload_start..payload_start + len]) {
                    prop_assert_eq!(forged, rec.clone());
                }
            }
            FrameStep::Torn { .. } | FrameStep::Bad { .. } => {}
            FrameStep::CleanEnd => prop_assert!(false, "non-empty buffer classified CleanEnd"),
        }
    }

    /// Garbage prefixes: a valid frame preceded by arbitrary junk decodes
    /// as *something* typed at every offset — no panic, no infinite loop —
    /// and scanning from the true frame start still yields the record.
    #[test]
    fn garbage_prefix_never_panics(
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        rec in arb_record(),
    ) {
        let mut buf = junk.clone();
        encode_frame(&encode_record(&rec), &mut buf);
        for offset in 0..buf.len() {
            let _ = decode_step(&buf, offset); // must simply not panic
        }
        let (back, _) = scan(&buf[junk.len()..]);
        prop_assert_eq!(back, vec![rec]);
    }

    /// Fully arbitrary bytes: the frame scanner terminates with a typed
    /// step and the record decoder never panics on whatever payloads
    /// emerge.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let (_, step) = scan(&bytes);
        if let FrameStep::Frame { .. } = step {
            prop_assert!(false, "scan only returns terminal steps");
        }
        let _ = decode_record(&bytes);
    }
}
