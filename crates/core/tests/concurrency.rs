//! Concurrency contract of the shared-immutable engine.
//!
//! Requests are the unit of parallelism (DESIGN.md §8): a query runs on
//! its caller's thread, and one engine behind `&self` serves many client
//! threads at once. Tested without loom (plain OS threads): every client
//! sees the same byte-identical answers (ids and the exact `f64` bit
//! patterns of scores) as a lone caller, while the striped buffer pool,
//! DFS counters, query caches and B⁺-trees are being hammered
//! concurrently.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use tklus_core::{
    BoundsMode, BoundsTable, CacheConfig, EngineConfig, QueryStats, RankedUser, Ranking,
    TklusEngine,
};
use tklus_geo::Point;
use tklus_graph::SocialNetwork;
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};

/// A deterministic medium-sized corpus: 12 users posting around Toronto
/// with a reply web deep enough to exercise thread construction and the
/// popularity prune.
fn corpus() -> Corpus {
    const WORDS: [&str; 6] = ["hotel", "pizza", "museum", "coffee", "beach", "club"];
    let base = Point::new_unchecked(43.68, -79.38);
    let mut state = 0x243F6A8885A308D3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // A dominant tweet first in id order: maximum keyword occurrences,
    // the corpus's most popular thread, author (user 12) exactly at the
    // query center with no other posts (distance score 1). Once it fills a
    // k=1 top set, every later low-tf candidate's optimistic bound loses —
    // so Algorithm 5's prune actually fires in this workload.
    let mut posts: Vec<Post> =
        vec![Post::original(TweetId(1), UserId(12), base, "hotel hotel hotel hotel hotel hotel")];
    for i in 0..24u64 {
        posts.push(Post::reply(
            TweetId(2 + i),
            UserId(next() % 12),
            Point::new_unchecked(base.lat() + 0.01, base.lon() + 0.01),
            "boost",
            TweetId(1),
            UserId(12),
        ));
    }
    posts.extend((26..400u64).map(|i| {
        let id = TweetId(i + 1);
        let user = UserId(next() % 12);
        let loc = Point::new_unchecked(
            base.lat() + (next() % 200) as f64 * 0.0015 - 0.15,
            base.lon() + (next() % 200) as f64 * 0.002 - 0.2,
        );
        let nwords = 1 + (next() % 3) as usize;
        let text = (0..nwords).map(|_| WORDS[(next() % 6) as usize]).collect::<Vec<_>>().join(" ");
        // A third of posts reply to some earlier post.
        if next() % 3 == 0 {
            let t = next() % i;
            Post::reply(id, user, loc, text, TweetId(t + 1), UserId(0))
        } else {
            Post::original(id, user, loc, text)
        }
    }));
    Corpus::new(posts).unwrap()
}

fn queries() -> Vec<(TklusQuery, Ranking)> {
    let center = Point::new_unchecked(43.68, -79.38);
    let mut out = Vec::new();
    for (keywords, semantics) in [
        (vec!["hotel".to_string()], Semantics::Or),
        (vec!["pizza".to_string(), "coffee".to_string()], Semantics::Or),
        (vec!["hotel".to_string(), "museum".to_string()], Semantics::And),
        (vec!["beach".to_string(), "club".to_string(), "pizza".to_string()], Semantics::Or),
    ] {
        for k in [1, 3, 10] {
            let q = TklusQuery::new(center, 25.0, keywords.clone(), k, semantics).unwrap();
            out.push((q.clone(), Ranking::Sum));
            out.push((q.clone(), Ranking::Max(BoundsMode::Global)));
            out.push((q, Ranking::Max(BoundsMode::HotKeywords)));
        }
    }
    out
}

fn build_engine(corpus: &Corpus) -> TklusEngine {
    let config = EngineConfig { cache_pages: 96, ..EngineConfig::default() };
    TklusEngine::build(corpus, &config).0
}

/// Per-layer (hits, misses) totals plus the query-path counters,
/// accumulated from per-query [`QueryStats`] tallies, for checking
/// against the engine's global cache counters and metric registry.
#[derive(Default, Clone, Copy)]
struct CacheTally {
    cover: (u64, u64),
    postings: (u64, u64),
    thread: (u64, u64),
    queries: u64,
    candidates: u64,
    threads_built: u64,
    metadata_page_reads: u64,
    polls_saved: u64,
}

impl CacheTally {
    fn absorb(&mut self, s: &QueryStats) {
        self.cover.0 += s.cover_cache_hits;
        self.cover.1 += s.cover_cache_misses;
        self.postings.0 += s.postings_cache_hits;
        self.postings.1 += s.postings_cache_misses;
        self.thread.0 += s.thread_cache_hits;
        self.thread.1 += s.thread_cache_misses;
        self.queries += 1;
        self.candidates += s.candidates as u64;
        self.threads_built += s.threads_built as u64;
        self.metadata_page_reads += s.metadata_page_reads;
        self.polls_saved += s.deadline_polls_saved;
    }

    fn add(&mut self, other: &CacheTally) {
        self.cover.0 += other.cover.0;
        self.cover.1 += other.cover.1;
        self.postings.0 += other.postings.0;
        self.postings.1 += other.postings.1;
        self.thread.0 += other.thread.0;
        self.thread.1 += other.thread.1;
        self.queries += other.queries;
        self.candidates += other.candidates;
        self.threads_built += other.threads_built;
        self.metadata_page_reads += other.metadata_page_reads;
        self.polls_saved += other.polls_saved;
    }
}

/// Cache-coherence under contention: 8 client threads replay a mixed
/// repeated/unique query log against ONE engine with all three cache
/// layers enabled (and sized small enough to evict), and every answer
/// must be bit-identical to a cold, cache-disabled engine's. On top of
/// the value check, the cache counters must behave like counters:
/// monotone non-decreasing across snapshots taken mid-storm, and — once
/// the storm settles — the global deltas must equal the sum of every
/// query's own hit/miss tallies (nothing double- or under-counted even
/// when threads race on the same keys).
#[test]
fn cached_engine_under_contention_matches_cold_uncached_engine() {
    let corpus = corpus();
    // Reference: caches off (EngineConfig::default() disables all layers).
    let cold = build_engine(&corpus);
    // Tiny budgets so the stress run keeps inserting and evicting instead
    // of settling into an all-hit steady state.
    let cached_config = EngineConfig {
        cache_pages: 96,
        caches: CacheConfig { cover: 4, postings: 16, thread: 32 },
        ..EngineConfig::default()
    };
    let cached = TklusEngine::build(&corpus, &cached_config).0;

    // Mixed log: the repeated request set (cache-friendly), plus unique
    // radius variants no other thread ever repeats (cache-hostile).
    let mut log = queries();
    let center = Point::new_unchecked(43.68, -79.38);
    for i in 0..16u32 {
        let keywords = vec!["hotel".to_string(), "coffee".to_string()];
        let q = TklusQuery::new(center, 18.0 + f64::from(i) * 0.53, keywords, 3, Semantics::Or)
            .unwrap();
        log.push((q.clone(), Ranking::Sum));
        log.push((q, Ranking::Max(BoundsMode::HotKeywords)));
    }
    let reference: Vec<_> = log.iter().map(|(q, r)| cold.query(q, *r)).collect();
    assert!(reference.iter().any(|(top, _)| !top.is_empty()));

    let before = cached.cache_stats();
    let registry_before = cached.metrics_snapshot().expect("metrics on by default");
    let mut total = CacheTally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t: usize| {
                let cached = &cached;
                let log = &log;
                let reference = &reference;
                scope.spawn(move || {
                    let mut tally = CacheTally::default();
                    let mut last = cached.cache_stats();
                    for round in 0..24 {
                        let i = (t * 11 + round * 5) % log.len();
                        let (q, ranking) = &log[i];
                        let (top, stats) = cached.query(q, *ranking);
                        let (want, _) = &reference[i];
                        assert_eq!(top.len(), want.len(), "thread {t} round {round}");
                        for (g, w) in top.iter().zip(want) {
                            assert_eq!(g.user, w.user, "thread {t} round {round}");
                            assert_eq!(
                                g.score.to_bits(),
                                w.score.to_bits(),
                                "thread {t} round {round}: cached score diverged"
                            );
                        }
                        tally.absorb(&stats);
                        // Counters are monotone even while 7 other threads
                        // hammer the same shards.
                        let now = cached.cache_stats();
                        for (prev, cur) in [
                            (last.cover, now.cover),
                            (last.postings, now.postings),
                            (last.thread, now.thread),
                        ] {
                            assert!(cur.hits >= prev.hits, "thread {t} round {round}");
                            assert!(cur.misses >= prev.misses, "thread {t} round {round}");
                        }
                        last = now;
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.add(&h.join().expect("stress worker panicked"));
        }
    });

    // Global counter movement is exactly the sum of what the queries
    // reported: racing threads may each miss on the same key (both pay the
    // compute), but every probe is counted once, on both sides.
    let after = cached.cache_stats();
    for (layer, before, after, (hits, misses)) in [
        ("cover", before.cover, after.cover, total.cover),
        ("postings", before.postings, after.postings, total.postings),
        ("thread", before.thread, after.thread, total.thread),
    ] {
        assert_eq!(after.hits - before.hits, hits, "{layer} hit counter drifted");
        assert_eq!(after.misses - before.misses, misses, "{layer} miss counter drifted");
        assert!(after.entries <= after.capacity, "{layer} overflowed its budget");
    }
    // The repeated half of the log must actually have hit each layer.
    assert!(total.cover.0 > 0, "no cover-cache hits in a repeating log");
    assert!(total.postings.0 > 0, "no postings-cache hits in a repeating log");
    assert!(total.thread.0 > 0, "no thread-cache hits in a repeating log");

    // Exposition coherence (DESIGN.md §12): the registry's counter deltas
    // across the 8-thread storm equal the sums of the per-query tallies —
    // for the natively recorded query counters AND the re-exported cache
    // and storage families. In particular the page-I/O triangle closes
    // exactly: per-query `metadata_page_reads` (thread-local attribution)
    // sums to the same number the global `IoStats` counter moved by, which
    // is the number the registry re-exports.
    let registry_after = cached.metrics_snapshot().expect("metrics on by default");
    let delta = |name: &str| {
        registry_after.counter(name).unwrap_or(0) - registry_before.counter(name).unwrap_or(0)
    };
    assert_eq!(delta("tklus_queries_total"), total.queries);
    assert_eq!(delta("tklus_query_candidates_total"), total.candidates);
    assert_eq!(delta("tklus_query_threads_built_total"), total.threads_built);
    assert_eq!(delta("tklus_query_metadata_page_reads_total"), total.metadata_page_reads);
    assert_eq!(delta("tklus_query_deadline_polls_saved_total"), total.polls_saved);
    assert_eq!(delta("tklus_storage_page_reads_total"), total.metadata_page_reads);
    for (layer, (hits, misses)) in
        [("cover", total.cover), ("postings", total.postings), ("thread", total.thread)]
    {
        assert_eq!(delta(&format!("tklus_cache_{layer}_hits_total")), hits, "{layer} registry");
        assert_eq!(delta(&format!("tklus_cache_{layer}_misses_total")), misses, "{layer} registry");
    }
    let latency = registry_after.histogram("tklus_query_latency_us").expect("latency histogram");
    assert_eq!(
        latency.count,
        registry_before.histogram("tklus_query_latency_us").map_or(0, |h| h.count) + total.queries,
        "one latency sample per answered query"
    );
}

/// One request of the hammer workload: `try_query` under the ranking, or
/// — `alg5` — Algorithm 5 under a Max ranking's bound mode.
fn run(
    engine: &TklusEngine,
    table: &BoundsTable,
    (q, ranking, alg5): &(TklusQuery, Ranking, bool),
) -> (Vec<RankedUser>, QueryStats) {
    match (ranking, alg5) {
        (Ranking::Max(mode), true) => {
            let out = engine.try_query_max(q, table, *mode).unwrap();
            (out.users, out.stats)
        }
        _ => engine.query(q, *ranking),
    }
}

#[test]
fn eight_threads_hammer_one_shared_engine() {
    let corpus = corpus();
    // Small cache so the stress run constantly inserts/evicts in the
    // striped buffer pool rather than settling into an all-hit steady
    // state.
    let engine = build_engine(&corpus);
    let hot_n = EngineConfig::default().hot_keywords;
    let network = SocialNetwork::from_corpus(&corpus);
    let table =
        BoundsTable::precompute(&corpus, &network, engine.index().vocab(), hot_n, engine.scoring());
    // Every Max request also runs as Algorithm 5, over the caller's table.
    let requests: Vec<_> = queries()
        .into_iter()
        .flat_map(|(q, ranking)| {
            let alg5 = matches!(ranking, Ranking::Max(_)).then(|| (q.clone(), ranking, true));
            std::iter::once((q, ranking, false)).chain(alg5)
        })
        .collect();
    let reference: Vec<_> = requests.iter().map(|r| run(&engine, &table, r)).collect();
    // Sanity: the workload actually exercises scoring and Algorithm 5's
    // prune, which only `try_query_max` runs.
    assert!(reference.iter().any(|(top, _)| !top.is_empty()));
    assert!(reference.iter().any(|(_, s)| s.threads_pruned > 0));

    std::thread::scope(|scope| {
        for t in 0..8 {
            let engine = &engine;
            let table = &table;
            let requests = &requests;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..20 {
                    let i = (t * 5 + round * 7) % requests.len();
                    let (top, _) = run(engine, table, &requests[i]);
                    let (want, _) = &reference[i];
                    assert_eq!(top.len(), want.len(), "thread {t} round {round}");
                    for (g, w) in top.iter().zip(want) {
                        assert_eq!(g.user, w.user, "thread {t} round {round}");
                        assert_eq!(
                            g.score.to_bits(),
                            w.score.to_bits(),
                            "thread {t} round {round}"
                        );
                    }
                }
            });
        }
    });
}
