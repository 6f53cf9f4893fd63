//! Postings lists: `⟨TID, TF⟩` pairs sorted by tweet id.
//!
//! "Each entry in a postings list is a pair ⟨TID, TF⟩ … the postings are
//! sorted by the timestamp before they are emitted. The subsequent
//! intersection operations on the sorted postings can be very efficient"
//! (Section IV-B2). Lists are delta-varint encoded on disk; set operations
//! are linear merges over the sorted ids.

use tklus_model::TweetId;

/// The layout of a postings list in a partition and in the engine: the paper's flat id-sorted `⟨TID, TF⟩` list
/// ([`PostingsList::encode`]). One variant; the name survives as the tag
/// `persist.rs` writes to, and requires from, `meta.tsv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PostingsFormat {
    /// One delta-varint pair per posting, decoded front to back.
    #[default]
    Flat,
}

/// One posting: a tweet and the query-relevant term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Tweet id (timestamp).
    pub id: TweetId,
    /// Term frequency of the key's term in that tweet.
    pub tf: u32,
}

/// A postings list, sorted by tweet id, no duplicate ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingsList {
    postings: Vec<Posting>,
}

impl PostingsList {
    /// Builds a list from postings, sorting by id. Panics on duplicate ids
    /// (one posting per `⟨key, tweet⟩` by construction in Algorithm 2).
    pub fn new(mut postings: Vec<Posting>) -> Self {
        postings.sort_by_key(|p| p.id);
        assert!(
            postings.windows(2).all(|w| w[0].id < w[1].id),
            "duplicate tweet id in postings list"
        );
        Self { postings }
    }

    /// The postings, sorted by id.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True when there are no postings.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Serializes to the partition byte format: a varint count, then per
    /// posting a varint id-delta (first id is a delta from zero) and a
    /// varint term frequency.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.postings.len() * 3);
        encode_into(&mut out, self.postings.iter().map(|p| (p.id.0, p.tf)));
        out
    }

    /// Decodes a list previously produced by [`encode`](Self::encode).
    /// Returns the list and the number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), DecodeError> {
        let mut pos = 0usize;
        let count = read_varint(bytes, &mut pos)?;
        // A posting is at least two bytes, so a count the input cannot
        // hold must not size the allocation.
        let mut postings = Vec::with_capacity((count as usize).min(bytes.len() / 2));
        let mut prev = 0u64;
        for _ in 0..count {
            let delta = read_varint(bytes, &mut pos)?;
            let tf = read_varint(bytes, &mut pos)?;
            let id = prev.checked_add(delta).ok_or(DecodeError::Overflow)?;
            let tf = u32::try_from(tf).map_err(|_| DecodeError::Overflow)?;
            postings.push(Posting { id: TweetId(id), tf });
            prev = id;
        }
        Ok((Self { postings }, pos))
    }
}

impl FromIterator<(u64, u32)> for PostingsList {
    fn from_iter<I: IntoIterator<Item = (u64, u32)>>(iter: I) -> Self {
        Self::new(iter.into_iter().map(|(id, tf)| Posting { id: TweetId(id), tf }).collect())
    }
}

/// Malformed postings bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside a varint or before a declared payload.
    Truncated,
    /// A term frequency exceeded `u32`, or an id exceeded `u64`.
    Overflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("postings bytes truncated"),
            DecodeError::Overflow => f.write_str("postings value overflows its type"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends id-sorted `(tweet id, tf)` pairs to `out` in the partition byte
/// format of [`PostingsList::encode`].
pub(crate) fn encode_into(out: &mut Vec<u8>, postings: impl ExactSizeIterator<Item = (u64, u32)>) {
    write_varint(out, postings.len() as u64);
    let mut prev = 0u64;
    for (id, tf) in postings {
        write_varint(out, id - prev);
        write_varint(out, tf as u64);
        prev = id;
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(DecodeError::Truncated);
        }
    }
}

/// Union of sorted postings lists, summing term frequencies for tweets
/// appearing in several lists. This implements both
/// * the per-keyword merge of a keyword's lists across cover cells, and
/// * the OR-semantics union of Algorithm 4/5 (lines 12–14), where the
///   summed tf is the `|q.W ∩ p.W|` occurrence count of Definition 6.
///
/// Generic over how the lists are held (`&[PostingsList]`,
/// `&[Arc<PostingsList>]`, …) so a fetch's lists merge without cloning
/// their postings.
pub fn union_sum<L: std::borrow::Borrow<PostingsList>>(lists: &[L]) -> Vec<(TweetId, u32)> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].borrow().postings.iter().map(|p| (p.id, p.tf)).collect(),
        _ => {
            // k-way merge via a flattened sort: lists are typically short
            // and few; the simple approach beats a heap in practice here.
            let mut all: Vec<(TweetId, u32)> = lists
                .iter()
                .flat_map(|l| l.borrow().postings.iter().map(|p| (p.id, p.tf)))
                .collect();
            all.sort_by_key(|e| e.0);
            let mut out: Vec<(TweetId, u32)> = Vec::with_capacity(all.len());
            for (id, tf) in all {
                match out.last_mut() {
                    Some((last, total)) if *last == id => *total += tf,
                    _ => out.push((id, tf)),
                }
            }
            out
        }
    }
}

/// Intersection across keywords (AND semantics, Algorithm 4/5 lines 9–11):
/// `groups[i]` is the merged `(id, tf)` stream of keyword `i` (one
/// [`union_sum`] per keyword over its cover cells). A tweet survives only
/// if it appears in *every* group; its combined tf is the sum over groups —
/// the bag-model occurrence count of Definition 6.
pub fn intersect_sum(groups: &[Vec<(TweetId, u32)>]) -> Vec<(TweetId, u32)> {
    match groups.len() {
        0 => Vec::new(),
        1 => groups[0].clone(),
        _ => {
            // Start from the smallest group for the cheapest merge-joins.
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by_key(|&i| groups[i].len());
            let mut acc = groups[order[0]].clone();
            for &gi in &order[1..] {
                let other = &groups[gi];
                // Adaptive: gallop when one side dwarfs the other (the
                // rare-qualifier ∩ hot-anchor case), linear merge when the
                // sides are comparable.
                if other.len() > 8 * acc.len().max(1) {
                    acc = intersect_gallop(&acc, other);
                } else {
                    let mut merged = Vec::with_capacity(acc.len().min(other.len()));
                    let (mut i, mut j) = (0, 0);
                    while i < acc.len() && j < other.len() {
                        match acc[i].0.cmp(&other[j].0) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                merged.push((acc[i].0, acc[i].1 + other[j].1));
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    acc = merged;
                }
                if acc.is_empty() {
                    break;
                }
            }
            acc
        }
    }
}

/// Two-list intersection via galloping (exponential) search: for each
/// element of the smaller side, gallop in the larger side. Beats the
/// linear merge when one list is much shorter — the common AND-semantics
/// case where a rare qualifier intersects a hot anchor keyword. Results
/// are identical to [`intersect_sum`] on two groups; the `posting_ops`
/// Criterion bench quantifies the crossover.
pub fn intersect_gallop(a: &[(TweetId, u32)], b: &[(TweetId, u32)]) -> Vec<(TweetId, u32)> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut lo = 0usize;
    for &(id, tf) in small {
        // Gallop: find the window [lo, lo + step] containing id.
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step].0 < id {
            step *= 2;
        }
        let hi = (lo + step + 1).min(large.len());
        match large[lo..hi].binary_search_by_key(&id, |e| e.0) {
            Ok(i) => {
                out.push((id, tf + large[lo + i].1));
                lo += i + 1;
            }
            Err(i) => {
                lo += i;
            }
        }
        if lo >= large.len() {
            break;
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;

    fn list(pairs: &[(u64, u32)]) -> PostingsList {
        pairs.iter().copied().collect()
    }

    #[test]
    fn new_sorts_by_id() {
        let l = PostingsList::new(vec![
            Posting { id: TweetId(5), tf: 1 },
            Posting { id: TweetId(2), tf: 3 },
        ]);
        let ids: Vec<u64> = l.postings().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "duplicate tweet id")]
    fn duplicate_ids_rejected() {
        let _ = list(&[(1, 1), (1, 2)]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for pairs in
            [vec![], vec![(1u64, 1u32)], vec![(100, 2), (101, 1), (5000, 40), (u64::MAX / 2, 7)]]
        {
            let l = list(&pairs);
            let bytes = l.encode();
            let (back, consumed) = PostingsList::decode(&bytes).unwrap();
            assert_eq!(back, l);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn decode_leaves_trailing_bytes() {
        let l = list(&[(10, 1), (20, 2)]);
        let mut bytes = l.encode();
        let len = bytes.len();
        bytes.extend_from_slice(&[0xFF, 0xFF]);
        let (back, consumed) = PostingsList::decode(&bytes).unwrap();
        assert_eq!(back, l);
        assert_eq!(consumed, len);
    }

    #[test]
    fn decode_rejects_truncation() {
        let l = list(&[(1000, 1), (2000, 2)]);
        let bytes = l.encode();
        assert_eq!(PostingsList::decode(&bytes[..bytes.len() - 1]), Err(DecodeError::Truncated));
        assert_eq!(PostingsList::decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_a_count_or_id_the_input_cannot_hold() {
        // Count u64::MAX over three bytes of body: typed, and no
        // allocation sized from the count.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[1, 1, 1]);
        assert_eq!(PostingsList::decode(&bytes), Err(DecodeError::Truncated));
        // Two postings whose id deltas sum past u64.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 2);
        for delta in [u64::MAX, 1] {
            write_varint(&mut bytes, delta);
            write_varint(&mut bytes, 1);
        }
        assert_eq!(PostingsList::decode(&bytes), Err(DecodeError::Overflow));
    }

    #[test]
    fn delta_encoding_is_compact() {
        // Dense consecutive ids: ~2 bytes per posting.
        let l: PostingsList = (0..1000u64).map(|i| (1_000_000 + i, 1)).collect();
        assert!(l.encode().len() < 1000 * 3 + 10, "encoded to {} bytes", l.encode().len());
    }

    #[test]
    fn union_sums_overlapping_tfs() {
        let a = list(&[(1, 2), (3, 1), (5, 4)]);
        let b = list(&[(3, 2), (4, 1)]);
        let got = union_sum(&[a, b]);
        let want: Vec<(TweetId, u32)> =
            vec![(TweetId(1), 2), (TweetId(3), 3), (TweetId(4), 1), (TweetId(5), 4)];
        assert_eq!(got, want);
    }

    #[test]
    fn union_edge_cases() {
        assert!(union_sum::<PostingsList>(&[]).is_empty());
        let single = list(&[(7, 9)]);
        assert_eq!(union_sum(std::slice::from_ref(&single)), vec![(TweetId(7), 9)]);
        assert_eq!(union_sum(&[PostingsList::default(), single.clone()]), vec![(TweetId(7), 9)]);
    }

    #[test]
    fn intersect_requires_all_groups() {
        // Paper example shape: query "spicy restaurant"; a tweet with one
        // spicy and two restaurant scores tf 3.
        let spicy = union_sum(&[list(&[(10, 1), (30, 1)])]);
        let restaurant = union_sum(&[list(&[(10, 2), (20, 1)])]);
        let got = intersect_sum(&[spicy, restaurant]);
        assert_eq!(got, vec![(TweetId(10), 3)]);
    }

    #[test]
    fn intersect_edge_cases() {
        assert!(intersect_sum(&[]).is_empty());
        let g = vec![(TweetId(1), 2)];
        assert_eq!(intersect_sum(std::slice::from_ref(&g)), g);
        assert!(intersect_sum(&[g.clone(), vec![]]).is_empty());
        // Three-way.
        let a = vec![(TweetId(1), 1), (TweetId(2), 1), (TweetId(3), 1)];
        let b = vec![(TweetId(2), 2), (TweetId(3), 2)];
        let c = vec![(TweetId(3), 5), (TweetId(9), 1)];
        assert_eq!(intersect_sum(&[a, b, c]), vec![(TweetId(3), 8)]);
    }

    #[test]
    fn gallop_matches_merge_intersection() {
        let a: Vec<(TweetId, u32)> = (0..200u64).map(|i| (TweetId(i * 3), 1)).collect();
        let b: Vec<(TweetId, u32)> = (0..50u64).map(|i| (TweetId(i * 7), 2)).collect();
        let merge = intersect_sum(&[a.clone(), b.clone()]);
        let gallop = intersect_gallop(&a, &b);
        assert_eq!(merge, gallop);
        // Symmetric in argument order.
        assert_eq!(intersect_gallop(&b, &a), gallop);
        // Disjoint and empty cases.
        assert!(intersect_gallop(&a, &[]).is_empty());
        let odd: Vec<(TweetId, u32)> = vec![(TweetId(1), 1), (TweetId(5), 1)];
        let even: Vec<(TweetId, u32)> = vec![(TweetId(2), 1), (TweetId(4), 1)];
        assert!(intersect_gallop(&odd, &even).is_empty());
    }

    /// Reference implementation: the plain two-pointer linear merge the
    /// galloping path replaced, kept only to pin equivalence.
    fn naive_intersect(a: &[(TweetId, u32)], b: &[(TweetId, u32)]) -> Vec<(TweetId, u32)> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    #[test]
    fn gallop_equals_naive_merge_on_randomized_skewed_inputs() {
        // Deterministic xorshift so failures reproduce; sizes span the
        // balanced case (linear-merge branch of intersect_sum) and the
        // heavily skewed case (galloping branch).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let skew = 1 + (round % 40);
            let small_len = (next() % 30) as usize;
            let large_len = small_len * skew + (next() % 50) as usize;
            let mut gen_list = |len: usize, stride: u64| {
                let mut id = 0u64;
                (0..len)
                    .map(|_| {
                        id += 1 + next() % stride;
                        (TweetId(id), (next() % 9) as u32 + 1)
                    })
                    .collect::<Vec<_>>()
            };
            let small = gen_list(small_len, 7);
            let large = gen_list(large_len, 3);
            let want = naive_intersect(&small, &large);
            assert_eq!(intersect_gallop(&small, &large), want, "round {round}");
            assert_eq!(intersect_gallop(&large, &small), want, "round {round} (swapped)");
            // intersect_sum's adaptive dispatch must agree with the naive
            // merge whichever branch the size ratio selects.
            assert_eq!(
                intersect_sum(&[small.clone(), large.clone()]),
                want,
                "round {round} (adaptive)"
            );
        }
    }

    #[test]
    fn gallop_sums_term_frequencies() {
        let a = vec![(TweetId(10), 3)];
        let b = vec![(TweetId(5), 1), (TweetId(10), 4), (TweetId(20), 1)];
        assert_eq!(intersect_gallop(&a, &b), vec![(TweetId(10), 7)]);
    }

    #[test]
    fn union_then_intersect_is_query_shape() {
        // Keyword 1 appears in two cells; keyword 2 in one.
        let k1 = union_sum(&[list(&[(1, 1), (5, 2)]), list(&[(3, 1)])]);
        let k2 = union_sum(&[list(&[(3, 4), (5, 1)])]);
        let and = intersect_sum(&[k1.clone(), k2.clone()]);
        assert_eq!(and, vec![(TweetId(3), 5), (TweetId(5), 3)]);
        // OR = union of the groups' streams (as lists).
        let or = {
            let la: PostingsList = k1.iter().map(|(id, tf)| (id.0, *tf)).collect();
            let lb: PostingsList = k2.iter().map(|(id, tf)| (id.0, *tf)).collect();
            union_sum(&[la, lb])
        };
        assert_eq!(or, vec![(TweetId(1), 1), (TweetId(3), 5), (TweetId(5), 3)]);
    }
}
