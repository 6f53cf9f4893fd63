//! The record payload inside each WAL frame: one acked ingest.
//!
//! A record is a sequence number plus the full [`Post`] — everything
//! replay needs to rebuild the live state, nothing more. The codec is a
//! fixed little-endian layout (coordinates via `f64::to_bits`, so replay
//! reproduces locations *bitwise* — the snapshot-equality oracle depends
//! on it). Decoding is panic-free: every malformed payload is a typed
//! `Err(String)` the recovery layer maps to its torn-tail / corruption
//! classification.

use tklus_geo::Point;
use tklus_model::{InteractionKind, Post, ReplyTo, TweetId, UserId};

/// Record tag byte: an ingested post. (Future record kinds — checkpoint
/// markers, deletions — get their own tags; unknown tags are decode
/// errors, not panics.)
const TAG_POST: u8 = 1;

/// One acked ingest: the WAL's unit of replay.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotone sequence number; the compaction manifest records the
    /// highest sequence its sealed generation absorbed, and replay skips
    /// records at or below it.
    pub seq: u64,
    /// The ingested post.
    pub post: Post,
}

/// Encodes `record` as a frame payload.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let post = &record.post;
    let mut out = Vec::with_capacity(64 + post.text.len());
    out.push(TAG_POST);
    out.extend_from_slice(&record.seq.to_le_bytes());
    out.extend_from_slice(&post.id.0.to_le_bytes());
    out.extend_from_slice(&post.user.0.to_le_bytes());
    out.extend_from_slice(&post.location.lat().to_bits().to_le_bytes());
    out.extend_from_slice(&post.location.lon().to_bits().to_le_bytes());
    match post.in_reply_to {
        None => out.push(0),
        Some(r) => {
            out.push(match r.kind {
                InteractionKind::Reply => 1,
                InteractionKind::Forward => 2,
            });
            out.extend_from_slice(&r.target.0.to_le_bytes());
            out.extend_from_slice(&r.target_user.0.to_le_bytes());
        }
    }
    let text = post.text.as_bytes();
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text);
    out
}

/// A little-endian field reader that fails typed instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(format!("record truncated at byte {} (wanted {n} more)", self.at));
        };
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Decodes a frame payload back into a [`WalRecord`].
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = Reader { buf: payload, at: 0 };
    let tag = r.u8()?;
    if tag != TAG_POST {
        return Err(format!("unknown record tag {tag}"));
    }
    let seq = r.u64()?;
    let id = TweetId(r.u64()?);
    let user = UserId(r.u64()?);
    let lat = f64::from_bits(r.u64()?);
    let lon = f64::from_bits(r.u64()?);
    let location =
        Point::new(lat, lon).map_err(|e| format!("record carries invalid location: {e:?}"))?;
    let in_reply_to = match r.u8()? {
        0 => None,
        kind @ (1 | 2) => Some(ReplyTo {
            target: TweetId(r.u64()?),
            target_user: UserId(r.u64()?),
            kind: if kind == 1 { InteractionKind::Reply } else { InteractionKind::Forward },
        }),
        other => return Err(format!("unknown interaction kind {other}")),
    };
    let text_len = r.u32()? as usize;
    let text = std::str::from_utf8(r.take(text_len)?)
        .map_err(|e| format!("record text is not UTF-8: {e}"))?
        .into();
    if r.at != payload.len() {
        return Err(format!("{} trailing bytes after record", payload.len() - r.at));
    }
    Ok(WalRecord { seq, post: Post { id, user, location, text, in_reply_to } })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;

    fn sample() -> WalRecord {
        WalRecord {
            seq: 42,
            post: Post::reply(
                TweetId(9),
                UserId(3),
                Point::new_unchecked(43.70011, -79.4163),
                "great hotel downtown",
                TweetId(5),
                UserId(2),
            ),
        }
    }

    #[test]
    fn roundtrip_reply_and_original() {
        let r = sample();
        assert_eq!(decode_record(&encode_record(&r)).unwrap(), r);
        let orig = WalRecord {
            seq: 1,
            post: Post::original(TweetId(1), UserId(1), Point::new_unchecked(0.0, 0.0), ""),
        };
        assert_eq!(decode_record(&encode_record(&orig)).unwrap(), orig);
    }

    #[test]
    fn location_bits_survive_exactly() {
        let r = sample();
        let back = decode_record(&encode_record(&r)).unwrap();
        assert_eq!(back.post.location.lat().to_bits(), r.post.location.lat().to_bits());
        assert_eq!(back.post.location.lon().to_bits(), r.post.location.lon().to_bits());
    }

    #[test]
    fn truncated_and_trailing_bytes_fail_typed() {
        let bytes = encode_record(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_record(&extra).unwrap_err().contains("trailing"));
    }

    #[test]
    fn unknown_tag_and_kind_fail_typed() {
        let mut bytes = encode_record(&sample());
        bytes[0] = 99;
        assert!(decode_record(&bytes).unwrap_err().contains("tag"));
    }
}
