//! Index construction: Algorithms 2 and 3 as one sort. Every post's
//! `⟨geohash, term, tweet id, tf⟩` emissions are sorted in place, cut into
//! `nodes` geohash ranges ([`partition_of`]), and laid out ([`lay_out`]):
//! each range's lists are concatenated into one partition while the
//! dictionary and the forward index are built. The build runs on its
//! caller's thread at any partition count.
//!
//! Each post's geohash is encoded once, [`refinement_len`] characters finer
//! than the key ([`key_and_refinement`]): the key is its prefix, and the
//! characters below travel in the post's postings.

use crate::forward::{ForwardIndex, PostingsLocation};
use crate::inverted::HybridIndex;
use crate::posting::{encode_into, refinement_len, PostingsFormat};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tklus_geo::geohash::ALPHABET;
use tklus_geo::{encode, Geohash, Point};
use tklus_model::Post;
use tklus_text::{TextPipeline, Vocab};

/// Configuration of an index build.
#[derive(Debug, Clone)]
pub struct IndexBuildConfig {
    /// Geohash encoding length (the paper evaluates 1–4; default 4, the
    /// choice Section VI-B2 settles on).
    pub geohash_len: usize,
    /// Partition count: the key space is cut into this many geohash ranges,
    /// one partition each, and `meta.tsv` writes it as the paper's cluster
    /// size. The default is 1; the paper's cluster has 3 machines, which the
    /// build CLI and the figure/table binaries ask for by name. It is not a
    /// thread count: every build runs on its caller's thread.
    pub nodes: usize,
    /// The one postings layout. Nothing reads this field: it stays only
    /// because the frozen `benchmark/` prints it (ROADMAP open items).
    pub postings_format: PostingsFormat,
}

impl Default for IndexBuildConfig {
    fn default() -> Self {
        Self { geohash_len: 4, nodes: 1, postings_format: PostingsFormat::Flat }
    }
}

/// Outcome statistics of a build, for the Figure 5/6 harnesses.
#[derive(Debug, Clone, Default)]
pub struct IndexBuildReport {
    /// Total wall time of the build.
    pub total_time: Duration,
    /// Posts consumed.
    pub posts: u64,
    /// `⟨geohash, term⟩` keys produced (= forward index entries).
    pub keys: u64,
    /// Postings across all lists.
    pub postings: u64,
    /// Bytes of encoded postings across the partitions (Fig. 6's size).
    pub index_bytes: u64,
    /// Distinct terms in the dictionary.
    pub distinct_terms: u64,
}

/// One emission of Algorithm 2's map function: a post's key cell, one of
/// its terms, the post's id, the term's frequency in it and the post's
/// refinement bits below the key. Emissions sort by key, then by tweet id:
/// the order a partition holds them in.
pub type Emission = (Geohash, Arc<str>, u64, u32, u16);

/// A location's key cell at `geohash_len` and its refinement bits: the
/// low `5 · refinement_len(geohash_len)` path bits of one encode that many
/// characters finer, whose prefix is the key.
pub fn key_and_refinement(location: &Point, geohash_len: usize) -> (Geohash, u16) {
    let refinement = refinement_len(geohash_len);
    let fine = encode(location, geohash_len + refinement).expect("valid geohash length");
    let key = fine.truncate(geohash_len).expect("a key is a prefix of its refined cell");
    let bits = fine.low_bits() & ((1u64 << (5 * refinement)) - 1);
    (key, bits as u16)
}

/// The partition a cell's keys land in when the key space is cut into
/// `nodes` geohash ranges. Partition `i` starts at top-level character
/// `⌊i · 32 / nodes⌋`, so each partition takes an equal slice of the
/// geohash alphabet, each spatial region lands in one partition, and
/// partition numbers rise with the key. Past 32 partitions the extra ones
/// stay empty.
pub fn partition_of(cell: Geohash, nodes: usize) -> usize {
    let top = (cell.low_bits() >> (cell.bit_len() - 5)) as usize;
    (1..nodes).take_while(|i| i * ALPHABET.len() / nodes <= top).count()
}

/// Builds the hybrid index over `posts` and returns it together with a
/// build report.
///
/// ```
/// use tklus_index::{build_index, IndexBuildConfig};
/// use tklus_geo::Point;
/// use tklus_model::{Post, TweetId, UserId};
///
/// let posts = vec![Post::original(
///     TweetId(1), UserId(1), Point::new_unchecked(43.7, -79.4), "hotel downtown",
/// )];
/// let (index, report) = build_index(&posts, &IndexBuildConfig::default());
/// assert_eq!(report.posts, 1);
/// assert!(index.vocab().get("hotel").is_some());
/// ```
pub fn build_index(posts: &[Post], config: &IndexBuildConfig) -> (HybridIndex, IndexBuildReport) {
    assert!(config.nodes > 0, "at least one partition");
    let start = Instant::now();
    let pipeline = TextPipeline::new();
    // Every distinct term so far. A corpus has a few thousand distinct
    // terms and a few hundred thousand emissions; interning makes the
    // emissions share one allocation per term.
    let mut interned: HashSet<Arc<str>> = HashSet::new();
    let mut emissions: Vec<Emission> = Vec::new();
    for post in posts {
        let (gh, refinement) = key_and_refinement(&post.location, config.geohash_len);
        // Associative array H of Algorithm 2: term -> in-post frequency.
        let mut terms = pipeline.terms(&post.text);
        terms.sort_unstable();
        for run in terms.chunk_by(|a, b| a == b) {
            let term = match interned.get(run[0].as_str()) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let shared: Arc<str> = Arc::from(run[0].as_str());
                    interned.insert(Arc::clone(&shared));
                    shared
                }
            };
            emissions.push((gh, term, post.id.0, run.len() as u32, refinement));
        }
    }
    // One sort, in place: the emissions are the build's largest
    // allocation, so give back the slack their growth left and take no
    // scratch copy of them.
    emissions.shrink_to_fit();
    emissions.sort_unstable();
    let cuts: Vec<usize> = (0..=config.nodes)
        .map(|p| emissions.partition_point(|e| partition_of(e.0, config.nodes) < p))
        .collect();
    let partitions: Vec<&[Emission]> = cuts.windows(2).map(|w| &emissions[w[0]..w[1]]).collect();
    let (index, report) = lay_out(&partitions, config.geohash_len);
    (index, IndexBuildReport { total_time: start.elapsed(), posts: posts.len() as u64, ..report })
}

/// The layout step: partition `i`'s emissions, sorted by key and then tweet
/// id, become partition `i`'s bytes, one postings list per key in key
/// order, each posting with its refinement, while the dictionary (term ids
/// in first-encounter order) and the directory are built. The report
/// carries the index's counts; the caller fills in the time and the post
/// count.
///
/// Panics when a key holds one tweet twice (Algorithm 2 emits one posting
/// per `⟨key, tweet⟩`).
pub fn lay_out(partitions: &[&[Emission]], geohash_len: usize) -> (HybridIndex, IndexBuildReport) {
    let refinement = refinement_len(geohash_len);
    let mut vocab = Vocab::new();
    let mut entries: Vec<((Geohash, tklus_text::TermId), PostingsLocation)> = Vec::new();
    let mut report = IndexBuildReport::default();
    let mut bytes = Vec::with_capacity(partitions.len());
    for (part_idx, emissions) in partitions.iter().enumerate() {
        let mut part = Vec::new();
        for list in emissions.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1) {
            assert!(
                list.windows(2).all(|w| w[0].2 < w[1].2),
                "duplicate tweet id in postings list"
            );
            let term_id = vocab.intern(&list[0].1);
            // Corpus frequency = total occurrences (Table II ranking).
            vocab.add_occurrences(term_id, list.iter().map(|e| e.3 as u64).sum());
            report.postings += list.len() as u64;
            let offset = part.len();
            encode_into(&mut part, refinement, list.iter().map(|e| (e.2, e.3, e.4)));
            entries.push((
                (list[0].0, term_id),
                PostingsLocation {
                    partition: part_idx as u32,
                    offset: offset as u64,
                    len: (part.len() - offset) as u32,
                },
            ));
        }
        part.shrink_to_fit();
        report.index_bytes += part.len() as u64;
        bytes.push(part);
    }
    // Directory order is (geohash, term-id); term ids are assigned in
    // first-encounter order, so re-sort before building the directory.
    entries.sort_by_key(|e| e.0);
    let forward = ForwardIndex::from_sorted(entries);
    report.keys = forward.len() as u64;
    report.distinct_terms = vocab.len() as u64;
    (HybridIndex::new(forward, vocab, bytes, geohash_len, refinement), report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use tklus_geo::Point;
    use tklus_model::{TweetId, UserId};
    use tklus_text::TermId;

    fn post(id: u64, user: u64, lat: f64, lon: f64, text: &str) -> Post {
        Post::original(TweetId(id), UserId(user), Point::new_unchecked(lat, lon), text)
    }

    fn toronto_posts() -> Vec<Post> {
        vec![
            post(1, 1, 43.670, -79.387, "I'm at Toronto Marriott Bloor Yorkville Hotel"),
            post(2, 2, 43.655, -79.380, "Finally Toronto (at Clarion Hotel)"),
            post(3, 3, 43.671, -79.389, "I'm at Four Seasons Hotel Toronto"),
            post(4, 4, 43.671, -79.389, "Veal, lemon ricotta gnocchi @ Four Seasons Hotel Toronto"),
            post(
                5,
                5,
                43.672,
                -79.390,
                "best massage ever (@ The Spa at Four Seasons Hotel Toronto)",
            ),
            post(
                6,
                6,
                43.672,
                -79.390,
                "Saturday night steez #fashion #toronto @ Four Seasons Hotel Toronto",
            ),
            post(
                7,
                1,
                43.669,
                -79.386,
                "Marriott Bloor Yorkville Hotel is a perfect place to stay",
            ),
        ]
    }

    #[test]
    fn builds_and_looks_up_postings() {
        let (index, report) = build_index(&toronto_posts(), &IndexBuildConfig::default());
        assert_eq!(report.posts, 7);
        assert!(report.keys > 0);
        assert!(report.index_bytes > 0);
        // Every post mentions "hotel"; they are all in the same 4-char cell
        // neighbourhood of Toronto.
        let hotel = index.vocab().get("hotel").expect("hotel indexed");
        let gh = encode(&Point::new_unchecked(43.670, -79.387), 4).unwrap();
        let list = index.postings(gh, hotel).expect("postings present");
        assert!(!list.is_empty());
        // Postings sorted by id.
        assert!(list.postings().windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn stemming_unifies_query_and_index_terms() {
        let posts = vec![post(1, 1, 43.7, -79.4, "great restaurants downtown")];
        let (index, _) = build_index(&posts, &IndexBuildConfig::default());
        // "restaurants" stems to the same term a "restaurant" query uses.
        let pipeline = TextPipeline::new();
        let q = pipeline.normalize_keyword("restaurant").unwrap();
        assert!(index.vocab().get(&q).is_some(), "query stem {q:?} missing from dictionary");
    }

    #[test]
    fn term_frequency_counted_per_post() {
        let posts = vec![post(1, 1, 43.7, -79.4, "pizza pizza pizza is the best pizza")];
        let (index, _) = build_index(&posts, &IndexBuildConfig::default());
        let pizza = index.vocab().get("pizza").unwrap();
        let gh = encode(&Point::new_unchecked(43.7, -79.4), 4).unwrap();
        let list = index.postings(gh, pizza).unwrap();
        assert_eq!(list.postings()[0].tf, 4);
        // Dictionary frequency counts all occurrences.
        assert_eq!(index.vocab().frequency(pizza), 4);
    }

    #[test]
    fn partitions_respect_geohash_ranges() {
        // Posts spread over the globe land in different partitions/nodes.
        let posts = vec![
            post(1, 1, -23.99, -46.23, "hotel sao paulo"), // geohash 6...
            post(2, 2, 43.67, -79.38, "hotel toronto"),    // geohash d...
            post(3, 3, 57.64, 10.40, "hotel denmark"),     // geohash u...
        ];
        let (index, _) = build_index(
            &posts,
            &IndexBuildConfig { geohash_len: 4, nodes: 3, ..Default::default() },
        );
        // Three partitions exist (some may be empty).
        assert_eq!(index.partitions().len(), 3);
        // Keys for Brazil sort before Canada before Denmark, and partition
        // indexes are monotone in key range.
        let hotel = index.vocab().get("hotel").unwrap();
        let parts: Vec<u32> = [(-23.99, -46.23), (43.67, -79.38), (57.64, 10.40)]
            .iter()
            .map(|&(lat, lon)| {
                let gh = encode(&Point::new_unchecked(lat, lon), 4).unwrap();
                index.forward().lookup(gh, hotel).unwrap().partition
            })
            .collect();
        assert!(parts.windows(2).all(|w| w[0] <= w[1]), "{parts:?}");
        assert!(parts[0] < parts[2], "extremes must differ: {parts:?}");
    }

    #[test]
    fn node_count_does_not_change_the_index() {
        // Posts on three continents with shared and local terms, so every
        // node count from 1 to 4 cuts the key range somewhere different.
        let places = [(-23.99, -46.23), (43.67, -79.38), (57.64, 10.40), (-33.87, 151.21)];
        let texts =
            ["hotel spa pool", "pizza hotel pizza", "beach sunrise", "great hotel downtown"];
        let posts: Vec<Post> = (0..240u64)
            .map(|i| {
                let (lat, lon) = places[(i % 4) as usize];
                let text = format!("{} word{}", texts[(i % 3) as usize], i % 17);
                post(i + 1, i % 9, lat + (i % 5) as f64 * 0.01, lon, &text)
            })
            .collect();
        let build =
            |nodes| build_index(&posts, &IndexBuildConfig { nodes, ..Default::default() }).0;
        let base = build(1);
        let vocab = |index: &HybridIndex| -> Vec<(TermId, String, u64)> {
            index.vocab().iter().map(|(id, term, freq)| (id, term.to_string(), freq)).collect()
        };
        let lists = |index: &HybridIndex| -> Vec<((Geohash, TermId), Vec<u8>)> {
            index
                .forward()
                .iter()
                .map(|(key, loc)| {
                    let (list, _) = index.try_read_postings(*loc).unwrap();
                    (*key, list.encode(index.refinement()))
                })
                .collect()
        };
        assert!(base.forward().len() > 50);
        for nodes in [2, 3, 4] {
            let other = build(nodes);
            assert_eq!(vocab(&other), vocab(&base), "{nodes} nodes: dictionary");
            assert_eq!(lists(&other), lists(&base), "{nodes} nodes: keys and postings bytes");
        }
    }

    #[test]
    fn every_list_decodes_and_re_encodes_to_its_partition_bytes() {
        // The refinement included, at every key length: the one at 12
        // carries none.
        for geohash_len in [1, 4, 9, 10, 11, 12] {
            let config = IndexBuildConfig { geohash_len, nodes: 2, ..Default::default() };
            let (index, _) = build_index(&toronto_posts(), &config);
            assert_eq!(index.refinement(), 3.min(12 - geohash_len));
            for (_, loc) in index.forward().iter() {
                let (list, _) = index.try_read_postings(*loc).unwrap();
                let bytes = index.bytes_at(*loc).unwrap();
                assert_eq!(list.encode(index.refinement()), bytes, "length {geohash_len}");
            }
        }
    }

    #[test]
    fn partitions_are_equal_alphabet_slices_rising_with_the_key() {
        for nodes in 1..=32 {
            let parts: Vec<usize> = (0..32u64)
                .map(|c| partition_of(Geohash::from_low_bits(c << 15, 4).unwrap(), nodes))
                .collect();
            assert!(parts.windows(2).all(|w| w[0] <= w[1]), "{nodes}: {parts:?}");
            let used: HashSet<usize> = parts.iter().copied().collect();
            assert_eq!(used, (0..nodes).collect(), "{nodes}: every partition holds a slice");
        }
        // Three nodes split the alphabet before characters 10 ('b') and 21
        // ('p'), as every index directory written so far was split.
        let first = |c: u64| partition_of(Geohash::from_low_bits(c, 1).unwrap(), 3);
        assert_eq!([9, 10, 20, 21, 31].map(first), [0, 1, 1, 2, 2]);
    }

    #[test]
    fn every_forward_entry_lies_in_its_partitions_alphabet_slice() {
        // One post in each of the 32 top-level cells (45° of latitude by
        // 45° of longitude), so every slice boundary has a key on it.
        let posts: Vec<Post> = (0..32u64)
            .map(|i| {
                let (lat, lon) = (-67.5 + 45.0 * (i / 8) as f64, -157.5 + 45.0 * (i % 8) as f64);
                post(i + 1, i, lat, lon, "hotel pizza")
            })
            .collect();
        for nodes in [1, 2, 3, 4, 7, 16, 32] {
            let config = IndexBuildConfig { nodes, ..Default::default() };
            let (index, _) = build_index(&posts, &config);
            assert_eq!(index.partitions().len(), nodes);
            // Partition `i` holds the keys whose first character is at
            // alphabet position ⌊i · 32 / nodes⌋ up to, not including,
            // that of partition `i + 1`.
            let start = |i: usize| i * 32 / nodes;
            let mut used = HashSet::new();
            for ((key, _), loc) in index.forward().iter() {
                let first = key.to_string().as_bytes()[0];
                let top = ALPHABET.iter().position(|&c| c == first).unwrap();
                let p = loc.partition as usize;
                assert!(start(p) <= top && top < start(p + 1), "{nodes}: {key} in {p}");
                assert_eq!(partition_of(*key, nodes), p, "{nodes}: {key}");
                used.insert(p);
            }
            assert_eq!(used, (0..nodes).collect(), "{nodes}: every partition holds keys");
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let (index, report) = build_index(&toronto_posts(), &IndexBuildConfig::default());
        assert_eq!(report.keys as usize, index.forward().len());
        assert_eq!(report.distinct_terms as usize, index.vocab().len());
        assert!(report.postings >= report.keys, "every key has at least one posting");
        let bytes: usize = index.partitions().iter().map(Vec::len).sum();
        assert_eq!(report.index_bytes, bytes as u64);
    }

    #[test]
    fn empty_corpus_builds_empty_index() {
        let (index, report) = build_index(&[], &IndexBuildConfig::default());
        assert_eq!(report.keys, 0);
        assert!(index.forward().is_empty());
    }

    #[test]
    fn geohash_length_one_still_works() {
        let (index, _) = build_index(
            &toronto_posts(),
            &IndexBuildConfig { geohash_len: 1, nodes: 3, ..Default::default() },
        );
        let hotel = index.vocab().get("hotel").unwrap();
        let gh = encode(&Point::new_unchecked(43.670, -79.387), 1).unwrap();
        let list = index.postings(gh, hotel).unwrap();
        assert_eq!(list.len(), 7, "all posts collapse into one cell");
    }
}
