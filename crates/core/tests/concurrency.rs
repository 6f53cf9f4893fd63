//! Concurrency contract of the shared-immutable engine.
//!
//! Requests are the unit of parallelism (DESIGN.md §8): a query runs on
//! its caller's thread, and one engine behind `&self` serves many client
//! threads at once. Tested without loom (plain OS threads): every client
//! sees the same byte-identical answers (ids and the exact `f64` bit
//! patterns of scores) as a lone caller, while the B⁺-trees and their
//! page stores are being hammered concurrently.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use tklus_core::{
    BoundsMode, BoundsTable, EngineConfig, QueryStats, RankedUser, Ranking, TklusEngine,
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
    TklusEngine::build(corpus, &EngineConfig::default()).0
}

/// The query-path counters, accumulated from per-query [`QueryStats`]
/// tallies, for checking against the engine's metric registry.
#[derive(Default, Clone, Copy)]
struct Tally {
    queries: u64,
    candidates: u64,
    threads_built: u64,
    metadata_page_reads: u64,
}

impl Tally {
    fn absorb(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.candidates += s.candidates as u64;
        self.threads_built += s.threads_built as u64;
        self.metadata_page_reads += s.metadata_page_reads;
    }

    fn add(&mut self, other: &Tally) {
        self.queries += other.queries;
        self.candidates += other.candidates;
        self.threads_built += other.threads_built;
        self.metadata_page_reads += other.metadata_page_reads;
    }
}

/// 8 client threads replay a mixed repeated/unique query log against ONE
/// engine, and every answer must be bit-identical to a lone caller's on a
/// twin engine. On top of the value check, the registry must close the
/// books once the storm settles: its counter deltas equal the sum of
/// every query's own tallies, and its page-read family equals the global
/// I/O counter's movement (nothing double- or under-counted while threads
/// race on the same page stores).
#[test]
fn shared_engine_under_contention_matches_a_lone_caller() {
    let corpus = corpus();
    let lone = build_engine(&corpus);
    let shared = build_engine(&corpus);

    // Mixed log: the repeated request set, plus unique radius variants no
    // other thread ever repeats.
    let mut log = queries();
    let center = Point::new_unchecked(43.68, -79.38);
    for i in 0..16u32 {
        let keywords = vec!["hotel".to_string(), "coffee".to_string()];
        let q = TklusQuery::new(center, 18.0 + f64::from(i) * 0.53, keywords, 3, Semantics::Or)
            .unwrap();
        log.push((q.clone(), Ranking::Sum));
        log.push((q, Ranking::Max(BoundsMode::HotKeywords)));
    }
    let reference: Vec<_> = log.iter().map(|(q, r)| lone.query(q, *r)).collect();
    assert!(reference.iter().any(|(top, _)| !top.is_empty()));

    let registry_before = shared.metrics_snapshot().expect("metrics on by default");
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t: usize| {
                let shared = &shared;
                let log = &log;
                let reference = &reference;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for round in 0..24 {
                        let i = (t * 11 + round * 5) % log.len();
                        let (q, ranking) = &log[i];
                        let (top, stats) = shared.query(q, *ranking);
                        let (want, _) = &reference[i];
                        assert_eq!(top.len(), want.len(), "thread {t} round {round}");
                        for (g, w) in top.iter().zip(want) {
                            assert_eq!(g.user, w.user, "thread {t} round {round}");
                            assert_eq!(
                                g.score.to_bits(),
                                w.score.to_bits(),
                                "thread {t} round {round}: shared score diverged"
                            );
                        }
                        tally.absorb(&stats);
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.add(&h.join().expect("stress worker panicked"));
        }
    });

    // Exposition coherence (DESIGN.md §12): the registry's counter deltas
    // across the 8-thread storm equal the sums of the per-query tallies —
    // for the natively recorded query counters AND the re-exported storage
    // family. In particular the page-I/O triangle closes exactly:
    // per-query `metadata_page_reads` (thread-local attribution) sums to
    // the same number the global `IoStats` counter moved by, which is the
    // number the registry re-exports.
    let registry_after = shared.metrics_snapshot().expect("metrics on by default");
    let delta = |name: &str| {
        registry_after.counter(name).unwrap_or(0) - registry_before.counter(name).unwrap_or(0)
    };
    assert_eq!(delta("tklus_queries_total"), total.queries);
    assert_eq!(delta("tklus_query_candidates_total"), total.candidates);
    assert_eq!(delta("tklus_query_threads_built_total"), total.threads_built);
    assert_eq!(delta("tklus_query_metadata_page_reads_total"), total.metadata_page_reads);
    assert_eq!(delta("tklus_storage_page_reads_total"), total.metadata_page_reads);
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
