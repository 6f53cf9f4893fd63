//! Index construction: the MapReduce job of Algorithms 2 and 3 plus the
//! layout step that concatenates partitions and builds the forward index.

use crate::forward::{ForwardIndex, PostingsLocation};
use crate::inverted::HybridIndex;
use crate::posting::{PostingsFormat, PostingsList};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tklus_geo::{encode, Geohash};
use tklus_mapreduce::{run_job, JobConfig, Mapper, RangePartitioner, Reducer};
use tklus_model::Post;
use tklus_text::{TextPipeline, Vocab};

/// Configuration of an index build.
#[derive(Debug, Clone)]
pub struct IndexBuildConfig {
    /// Geohash encoding length (the paper evaluates 1–4; default 4, the
    /// choice Section VI-B2 settles on).
    pub geohash_len: usize,
    /// Cluster size = map tasks = reduce partitions = partition files.
    /// The default is 1: an in-process engine (server, ingest store) builds
    /// on its caller's thread. The paper's cluster has 3 machines; the
    /// build CLI and the figure/table binaries ask for that by name, and
    /// `n` nodes build on `n` threads, the caller's included.
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
    /// Map+shuffle phase wall time.
    pub map_time: Duration,
    /// Reduce phase wall time.
    pub reduce_time: Duration,
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

/// The intermediate key of Algorithms 2 and 3. The term is shared: every
/// emission of one term holds the same allocation (see
/// [`IndexMapper::interned`]); `Arc<str>` orders and hashes as the string
/// it points to, so the shuffle sorts exactly as it did over `String`s.
type IndexKey = (Geohash, Arc<str>);

/// The map function of Algorithm 2: tokenize + stem the post, count term
/// frequencies, and emit `⟨(geohash, term), (timestamp, tf)⟩` per distinct
/// term.
struct IndexMapper {
    pipeline: TextPipeline,
    geohash_len: usize,
    /// Every distinct term emitted so far. A corpus has a few thousand
    /// distinct terms and a few hundred thousand emissions; interning
    /// makes the map output one allocation per term instead of one per
    /// emission.
    interned: Mutex<HashSet<Arc<str>>>,
}

impl Mapper for IndexMapper {
    type Input = Post;
    type Key = IndexKey;
    type Value = (u64, u32);

    fn map(&self, post: &Post, emit: &mut dyn FnMut(Self::Key, Self::Value)) {
        let gh = encode(&post.location, self.geohash_len).expect("valid geohash length");
        // Associative array H of Algorithm 2: term -> in-post frequency.
        let mut terms = self.pipeline.terms(&post.text);
        terms.sort_unstable();
        // One lock per post, not per emission: map tasks of a parallel
        // build meet here only between posts. The set is valid after any
        // panic (an insert completes or does not happen), so a task still
        // running beside a panicked one takes a poisoned lock as it is.
        let mut interned = self.interned.lock().unwrap_or_else(PoisonError::into_inner);
        let mut i = 0;
        while i < terms.len() {
            let mut j = i + 1;
            while j < terms.len() && terms[j] == terms[i] {
                j += 1;
            }
            let term = match interned.get(terms[i].as_str()) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let shared: Arc<str> = Arc::from(terms[i].as_str());
                    interned.insert(Arc::clone(&shared));
                    shared
                }
            };
            emit((gh, term), (post.id.0, (j - i) as u32));
            i = j;
        }
    }
}

/// One key's postings list already in its on-disk encoding (a few bytes a
/// posting where the decoded list takes sixteen — the reduce output of a
/// whole partition waits in memory for the layout), with the two counts
/// the layout's dictionary and report need.
pub(crate) struct EncodedList {
    bytes: Vec<u8>,
    postings: u64,
    /// Σ tf over the list: the term's occurrences under this key.
    occurrences: u64,
}

impl EncodedList {
    /// Sorts one key's `(tweet id, tf)` pairs by id and encodes them.
    pub(crate) fn new(values: impl IntoIterator<Item = (u64, u32)>) -> Self {
        let list: PostingsList = values.into_iter().collect();
        let occurrences = list.postings().iter().map(|p| p.tf as u64).sum();
        Self { bytes: list.encode(), postings: list.len() as u64, occurrences }
    }
}

/// The reduce function of Algorithm 3: gather all postings of one key,
/// sort them by timestamp and encode the list.
struct IndexReducer;

impl Reducer for IndexReducer {
    type Key = IndexKey;
    type Value = (u64, u32);
    type Output = EncodedList;

    fn reduce(&self, _key: &Self::Key, values: Vec<(u64, u32)>, emit: &mut dyn FnMut(EncodedList)) {
        emit(EncodedList::new(values))
    }
}

/// Geohash-range split points giving each of `n` partitions an equal slice
/// of the top-level geohash alphabet, so each spatial region lands in one
/// partition.
fn geohash_splits(n: usize) -> Vec<IndexKey> {
    (1..n)
        .map(|i| {
            let c = (i * 32 / n) as u64;
            (Geohash::from_low_bits(c, 1).expect("root cell"), Arc::from(""))
        })
        .collect()
}

/// Builds the hybrid index over `posts` with the MapReduce pipeline and
/// returns it together with a build report.
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
    assert!(config.nodes > 0, "at least one node");
    let start = Instant::now();
    let mapper = IndexMapper {
        pipeline: TextPipeline::new(),
        geohash_len: config.geohash_len,
        interned: Mutex::new(HashSet::new()),
    };
    let partitioner = RangePartitioner::new(geohash_splits(config.nodes));
    let job = run_job(
        JobConfig { map_tasks: config.nodes, reduce_tasks: config.nodes },
        posts,
        &mapper,
        &IndexReducer,
        &partitioner,
    );
    let (index, report) = lay_out(job.partitions, config.geohash_len);
    let report = IndexBuildReport {
        total_time: start.elapsed(),
        map_time: job.map_time,
        reduce_time: job.reduce_time,
        posts: job.counters.map_input_records,
        ..report
    };
    (index, report)
}

/// The layout step both builders end in: partition `i`'s lists, in sorted key
/// order, are concatenated into partition `i`'s bytes while the dictionary
/// (term ids in first-encounter order) and the directory are built. The
/// report carries the index's counts; the caller fills in the times and
/// the post count.
pub(crate) fn lay_out<T: AsRef<str>>(
    partitions: Vec<Vec<((Geohash, T), EncodedList)>>,
    geohash_len: usize,
) -> (HybridIndex, IndexBuildReport) {
    let mut vocab = Vocab::new();
    let mut entries: Vec<((Geohash, tklus_text::TermId), PostingsLocation)> = Vec::new();
    let mut report = IndexBuildReport::default();
    let mut bytes = Vec::with_capacity(partitions.len());
    for (part_idx, lists) in partitions.into_iter().enumerate() {
        let mut part = Vec::with_capacity(lists.iter().map(|(_, list)| list.bytes.len()).sum());
        for ((gh, term), list) in lists {
            let term_id = vocab.intern(term.as_ref());
            // Corpus frequency = total occurrences (Table II ranking).
            vocab.add_occurrences(term_id, list.occurrences);
            report.postings += list.postings;
            entries.push((
                (gh, term_id),
                PostingsLocation {
                    partition: part_idx as u32,
                    offset: part.len() as u64,
                    len: list.bytes.len() as u32,
                },
            ));
            part.extend_from_slice(&list.bytes);
        }
        report.index_bytes += part.len() as u64;
        bytes.push(part);
    }
    // Directory order is (geohash, term-id); term ids are assigned in
    // first-encounter order, so re-sort before building the directory.
    entries.sort_by_key(|e| e.0);
    let forward = ForwardIndex::from_sorted(entries);
    report.keys = forward.len() as u64;
    report.distinct_terms = vocab.len() as u64;
    (HybridIndex::new(forward, vocab, bytes, geohash_len), report)
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
                .map(|(key, loc)| (*key, index.try_read_postings(*loc).unwrap().0.encode()))
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
