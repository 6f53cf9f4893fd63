//! Partition invariance (DESIGN.md §14): how many geohash-range partitions
//! the index is cut into is a layout, never an answer. One corpus is built
//! at every partition count in [`NODES`], and every answer must be
//! bit-equal to the one-partition engine's — users, score bits, the work
//! tallies of [`QueryStats`] (all but the wall clocks) and, under
//! `max_cells` budgets, the completeness verdict.
//!
//! Queries span Sum/Max × AND/OR at radius 2, 10 and 30 km, and include
//! covers that straddle a partition boundary (London's cells sit on both
//! sides of the prime meridian, where geohash's first character changes),
//! so a split list or a lost partition shows up here.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::collections::BTreeSet;
use tklus_core::{
    BoundsMode, Completeness, EngineConfig, QueryOutcome, QueryStats, Ranking, TklusEngine,
};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_geo::{circle_cover, Point};
use tklus_index::build::partition_of;
use tklus_model::{Corpus, Semantics, TklusQuery};

/// Partition counts held to the one-partition answer; 32 gives every
/// top-level geohash character its own partition.
const NODES: [usize; 7] = [1, 2, 3, 4, 7, 16, 32];

const RANKINGS: [Ranking; 2] = [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)];

fn corpus() -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: 3_000,
        users: 700,
        seed: 0x5A4D,
        ..GenConfig::default()
    })
}

fn engine(corpus: &Corpus, nodes: usize) -> TklusEngine {
    let mut config = EngineConfig::default();
    config.index.nodes = nodes;
    TklusEngine::build(corpus, &config).0
}

/// Generated queries plus London's centre, at each radius and semantics.
fn queries(corpus: &Corpus) -> Vec<TklusQuery> {
    let specs = generate_queries(corpus, &QueryConfig { per_bucket: 4, seed: 41 });
    let london = Point::new_unchecked(51.5074, -0.1278);
    let mut places: Vec<(Point, Vec<String>)> =
        specs.iter().map(|s| (s.location, s.keywords.clone())).collect();
    places.extend(specs.iter().map(|s| (london, s.keywords.clone())));
    let mut out = Vec::new();
    for (location, keywords) in places {
        for radius in [2.0, 10.0, 30.0] {
            for semantics in [Semantics::Or, Semantics::And] {
                out.push(
                    TklusQuery::new(location, radius, keywords.clone(), 5, semantics).unwrap(),
                );
            }
        }
    }
    out
}

/// Every work tally of a query: all of [`QueryStats`] but `elapsed` and
/// `stages`, which are wall clocks.
fn tallies(s: &QueryStats) -> [u64; 9] {
    [
        s.cover_cells as u64,
        s.lists_fetched as u64,
        s.dfs_bytes,
        s.refined_out as u64,
        s.candidates as u64,
        s.in_radius as u64,
        s.threads_built as u64,
        s.threads_pruned as u64,
        s.metadata_page_reads,
    ]
}

/// What must not depend on the partition count.
type Answer = (Vec<(u64, u64)>, [u64; 9], Completeness);

fn answer(outcome: QueryOutcome) -> Answer {
    let users = outcome.users.iter().map(|u| (u.user.0, u.score.to_bits())).collect();
    (users, tallies(&outcome.stats), outcome.completeness)
}

/// The query's cover at the default key length and metric.
fn cover(q: &TklusQuery) -> Vec<tklus_geo::Geohash> {
    let config = EngineConfig::default();
    circle_cover(&q.location, q.radius_km, config.index.geohash_len, config.scoring.metric).unwrap()
}

/// The partitions a query's cover touches when the index has `nodes`.
fn partitions_touched(q: &TklusQuery, nodes: usize) -> usize {
    cover(q).into_iter().map(|cell| partition_of(cell, nodes)).collect::<BTreeSet<_>>().len()
}

/// Every answer of `workload` on `engine`, in order. A query's page reads
/// depend only on the query and the trees (there is no page cache), so
/// the tallies compare exactly across engines.
fn run(engine: &TklusEngine, workload: &[TklusQuery]) -> Vec<Answer> {
    let mut out = Vec::new();
    for q in workload {
        for ranking in RANKINGS {
            out.push(answer(engine.try_query(q, ranking).unwrap()));
        }
    }
    out
}

/// Asserts `got` equals `want` answer by answer, naming the query.
fn assert_same(nodes: usize, workload: &[TklusQuery], got: &[Answer], want: &[Answer]) {
    assert_eq!(got.len(), want.len());
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        let q = &workload[i / RANKINGS.len()];
        let ranking = RANKINGS[i % RANKINGS.len()];
        let budget = q.budget.as_ref().and_then(|b| b.max_cells);
        assert_eq!(
            got, want,
            "{nodes} partitions, {:?} {} km {:?} {ranking:?}, max_cells {budget:?}",
            q.keywords, q.radius_km, q.semantics
        );
    }
}

#[test]
fn every_partition_count_answers_like_one_partition() {
    let corpus = corpus();
    let workload = queries(&corpus);
    let want = run(&engine(&corpus, 1), &workload);
    let ranked = want.iter().filter(|(users, ..)| !users.is_empty()).count();
    assert!(ranked * 2 >= want.len(), "only {ranked} of {} answers rank anyone", want.len());
    let straddling = workload
        .iter()
        .zip(want.chunks(RANKINGS.len()))
        .filter(|(q, answers)| partitions_touched(q, 2) > 1 && !answers[0].0.is_empty())
        .count();
    assert!(straddling > 0, "no ranked query's cover straddles a partition boundary");

    for nodes in NODES[1..].iter().copied() {
        let engine = engine(&corpus, nodes);
        let used = engine.index().partitions().iter().filter(|p| !p.is_empty()).count();
        assert!(used > 1, "{nodes} partitions: the corpus fills only {used}");
        assert_same(nodes, &workload, &run(&engine, &workload), &want);
    }
}

#[test]
fn budgeted_answers_do_not_depend_on_the_partition_count() {
    let corpus = corpus();
    let mut workload = Vec::new();
    for q in queries(&corpus).into_iter().filter(|q| q.radius_km == 30.0) {
        let cells = cover(&q).len();
        for max_cells in [1, cells / 3, cells / 2, cells - 1, cells] {
            workload.push(q.clone().with_max_cells(max_cells));
        }
    }
    let want = run(&engine(&corpus, 1), &workload);
    let degraded = want.iter().filter(|(.., completeness)| !completeness.is_complete()).count();
    assert!(degraded > 0, "no budget ever degraded an answer: the test has no teeth");
    assert!(degraded < want.len(), "every budgeted answer degraded");
    for nodes in NODES[1..].iter().copied() {
        assert_same(nodes, &workload, &run(&engine(&corpus, nodes), &workload), &want);
    }
}
