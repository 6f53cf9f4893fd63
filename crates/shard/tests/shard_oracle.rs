//! Shard-count invariance oracle.
//!
//! The scatter-gather contract is that sharding is invisible: for any
//! corpus, query, semantics, ranking, cache temperature,
//! and shard count `N`, the sharded engine returns the monolithic engine's
//! ranked users **bitwise** (same users, same `f64` score bits, same
//! completeness verdict). This suite drives randomized cases through
//! `N ∈ {1, 2, 4, 16}` (overridable via `TKLUS_SHARD_N`, which the CI
//! shard matrix uses) against a monolithic reference engine:
//!
//! * Sum and Max (both bounds modes) × Or/And semantics,
//! * a cold then a warm query against cache-enabled sharded engines
//!   (the monolithic reference runs uncached — so the comparison also
//!   re-proves cache invisibility, now across the router),
//! * `max_cells`-budgeted queries, where the degraded verdicts must agree
//!   cell-for-cell.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use std::collections::BTreeSet;
use tklus_core::{BoundsMode, CacheConfig, Completeness, EngineConfig, Ranking, TklusEngine};
use tklus_geo::{circle_cover, Point};
use tklus_model::{Corpus, Post, QueryBudget, Semantics, TklusQuery, TweetId, UserId};
use tklus_shard::{ShardCompleteness, ShardedEngine, ShardedOutcome};

const WORDS: [&str; 8] = ["hotel", "pizza", "cafe", "museum", "sushi", "beach", "coffee", "club"];

/// Shard counts under test: `TKLUS_SHARD_N` (comma-separated) or the full
/// default ladder.
fn shard_counts() -> Vec<usize> {
    match std::env::var("TKLUS_SHARD_N") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("TKLUS_SHARD_N must be comma-separated integers"))
            .collect(),
        Err(_) => vec![1, 2, 4, 16],
    }
}

#[derive(Debug, Clone)]
struct RawPost {
    user: u8,
    dlat: i8,
    dlon: i8,
    words: Vec<u8>,
    reply_to: Option<u8>,
}

fn arb_post() -> impl Strategy<Value = RawPost> {
    (
        0u8..10,
        -100i8..=100,
        -100i8..=100,
        proptest::collection::vec(0u8..WORDS.len() as u8, 1..5),
        proptest::option::of(0u8..40),
    )
        .prop_map(|(user, dlat, dlon, words, reply_to)| RawPost {
            user,
            dlat,
            dlon,
            words,
            reply_to,
        })
}

fn materialize(raw: &[RawPost]) -> Corpus {
    let base = Point::new_unchecked(43.68, -79.38);
    let posts: Vec<Post> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = TweetId(i as u64 + 1);
            let loc = Point::new_unchecked(
                base.lat() + r.dlat as f64 * 0.0015,
                base.lon() + r.dlon as f64 * 0.002,
            );
            let text: String =
                r.words.iter().map(|&w| WORDS[w as usize]).collect::<Vec<_>>().join(" ");
            match r.reply_to {
                Some(t) if (t as usize) < i => {
                    let target = TweetId(t as u64 + 1);
                    let target_user = UserId(raw[t as usize].user as u64);
                    Post::reply(id, UserId(r.user as u64), loc, text, target, target_user)
                }
                _ => Post::original(id, UserId(r.user as u64), loc, text),
            }
        })
        .collect();
    Corpus::new(posts).expect("sequential ids")
}

/// Sharded engine config: caches on (so the warm re-query is a real cache
/// pass).
fn sharded_config() -> EngineConfig {
    EngineConfig {
        caches: CacheConfig { cover: 8, postings: 32, thread: 64 },
        ..EngineConfig::default()
    }
}

/// How many of `engine`'s shards hold a cell of `q`'s circle cover — what
/// the router must dispatch to, no more and no fewer.
fn shards_under_cover(engine: &ShardedEngine, q: &TklusQuery) -> usize {
    let config = sharded_config();
    let cover =
        circle_cover(&q.location, q.radius_km, config.index.geohash_len, config.scoring.metric)
            .unwrap();
    cover.iter().map(|&cell| engine.plan().shard_of(cell)).collect::<BTreeSet<_>>().len()
}

/// Asserts the sharded outcome is the monolithic outcome, to the bit.
fn assert_bitwise(
    got: &ShardedOutcome,
    want_users: &[tklus_core::RankedUser],
    want_completeness: &Completeness,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.users.len(), want_users.len(), "len mismatch: {}", label);
    for (g, w) in got.users.iter().zip(want_users) {
        prop_assert_eq!(g.user, w.user, "user mismatch: {}", label);
        prop_assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "score bits: {} vs {} ({})",
            g.score,
            w.score,
            label
        );
    }
    match (got.completeness.clone(), want_completeness) {
        (ShardCompleteness::Complete, Completeness::Complete) => {}
        (
            ShardCompleteness::Degraded { failed_shards, cells_processed, cells_total },
            Completeness::Degraded { cells_processed: wp, cells_total: wt },
        ) => {
            prop_assert!(failed_shards.is_empty(), "no shard faulted: {}", label);
            prop_assert_eq!(cells_processed, *wp, "cells_processed: {}", label);
            prop_assert_eq!(cells_total, *wt, "cells_total: {}", label);
        }
        (g, w) => {
            return Err(TestCaseError::Fail(format!("completeness {g:?} vs {w:?} ({label})")))
        }
    }
    Ok(())
}

proptest! {
    // 36 corpora × 2 semantics × 3 rankings × |N| shard counts × 2 scatter
    // widths × cold+warm = ~3456 sharded-vs-monolithic comparisons at the
    // default ladder (864 distinct query cases).
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn sharded_matches_monolithic_bitwise(
        raw in proptest::collection::vec(arb_post(), 5..45),
        radius in 2.0f64..25.0,
        k in 1usize..6,
        kw_idx in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
    ) {
        let corpus = materialize(&raw);
        let (mono, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let keywords: Vec<String> =
            kw_idx.iter().map(|&i| WORDS[i as usize].to_string()).collect();

        let mut sharded: Vec<(usize, ShardedEngine)> = shard_counts()
            .into_iter()
            .map(|n| {
                let engine =
                    ShardedEngine::try_build(&corpus, n, &sharded_config()).expect("sharded build");
                (n, engine)
            })
            .collect();

        for semantics in [Semantics::Or, Semantics::And] {
            let q = TklusQuery::new(
                Point::new_unchecked(43.68, -79.38),
                radius,
                keywords.clone(),
                k,
                semantics,
            ).unwrap();
            for ranking in [
                Ranking::Sum,
                Ranking::Max(BoundsMode::Global),
                Ranking::Max(BoundsMode::HotKeywords),
            ] {
                let want = mono.try_query(&q, ranking).unwrap();
                for (n, engine) in &mut sharded {
                    let n = *n;
                    // Scatter-width invariance: the sequential loop
                    // (width 1) and the scoped-thread scatter (width 4)
                    // must both reproduce the monolithic answer bitwise.
                    for par in [1usize, 4] {
                        engine.set_scatter_parallelism(par);
                        for temp in ["cold", "warm"] {
                            let got = engine.query(&q, ranking);
                            let label =
                                format!("N={n} par={par} {temp} {ranking:?} {semantics:?}");
                            assert_bitwise(&got, &want.users, &want.completeness, &label)?;
                            prop_assert_eq!(
                                got.fanout, shards_under_cover(engine, &q),
                                "fanout is every shard the cover intersects: {}", label
                            );
                            prop_assert!(
                                got.skipped_by_bound.is_empty(),
                                "no shard is skipped by score: {}", label
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    // Budgeted queries: the degraded verdict (cells processed/total) must
    // agree between monolithic and every shard count — each shard walks
    // the same cover under the same cell cap, so the typed partials align.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn budgeted_degradation_is_shard_count_invariant(
        raw in proptest::collection::vec(arb_post(), 8..40),
        radius in 5.0f64..25.0,
        k in 1usize..5,
        kw_idx in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
        max_cells in 1usize..6,
        and_sem in any::<bool>(),
    ) {
        let corpus = materialize(&raw);
        let (mono, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let keywords: Vec<String> =
            kw_idx.iter().map(|&i| WORDS[i as usize].to_string()).collect();
        let semantics = if and_sem { Semantics::And } else { Semantics::Or };
        let mut q = TklusQuery::new(
            Point::new_unchecked(43.68, -79.38),
            radius,
            keywords,
            k,
            semantics,
        ).unwrap();
        q.budget = Some(QueryBudget { timeout_ms: None, max_cells: Some(max_cells) });

        for n in shard_counts() {
            let mut engine =
                ShardedEngine::try_build(&corpus, n, &sharded_config()).expect("sharded build");
            for ranking in [
                Ranking::Sum,
                Ranking::Max(BoundsMode::Global),
                Ranking::Max(BoundsMode::HotKeywords),
            ] {
                let want = mono.try_query(&q, ranking).unwrap();
                for par in [1usize, 4] {
                    engine.set_scatter_parallelism(par);
                    let got = engine.query(&q, ranking);
                    let label = format!("N={n} par={par} {ranking:?} budget");
                    assert_bitwise(&got, &want.users, &want.completeness, &label)?;
                }
            }
        }
    }
}
