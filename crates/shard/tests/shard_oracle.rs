//! Shard-count invariance oracle.
//!
//! The scatter-gather contract is that sharding is invisible: for any
//! corpus, query, semantics, ranking and shard count `N`, the sharded
//! engine returns the monolithic engine's ranked users **bitwise** (same
//! users, same `f64` score bits, same completeness verdict). This suite
//! drives randomized cases through `N ∈ {1, 2, 4, 16}` (overridable via
//! `TKLUS_SHARD_N`, which the CI shard matrix uses) against a monolithic
//! reference engine:
//!
//! * Sum and Max (both bounds modes) × Or/And semantics,
//! * `max_cells`-budgeted queries, where the degraded verdicts must agree
//!   cell-for-cell,
//! * the outcome's work tallies: one shard reports exactly the monolithic
//!   engine's counts, and at any `N` the summed page reads are the page
//!   reads the shard engines' registries saw.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use std::collections::BTreeSet;
use tklus_core::{BoundsMode, Completeness, EngineConfig, Ranking, TklusEngine};
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

/// Where a corpus lies: its centre (also the query location), and the
/// degrees of latitude and longitude one step of a [`RawPost`] offset
/// spans.
#[derive(Debug, Clone, Copy)]
struct Place {
    lat: f64,
    lon: f64,
    lat_step: f64,
    lon_step: f64,
}

impl Place {
    fn center(&self) -> Point {
        Point::new_unchecked(self.lat, self.lon)
    }
}

/// Toronto at city scale: posts within about 17 km of the centre.
const TORONTO: Place = Place { lat: 43.68, lon: -79.38, lat_step: 0.0015, lon_step: 0.002 };

/// Tromsø at regional scale: posts up to about 330 km from a centre at
/// 69.65°N, spread over several top-level geohash ranges.
const TROMSO: Place = Place { lat: 69.65, lon: 18.96, lat_step: 0.03, lon_step: 0.08 };

fn materialize(raw: &[RawPost]) -> Corpus {
    materialize_at(raw, &TORONTO)
}

fn materialize_at(raw: &[RawPost], place: &Place) -> Corpus {
    let base = place.center();
    let posts: Vec<Post> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = TweetId(i as u64 + 1);
            let loc = Point::new_unchecked(
                base.lat() + r.dlat as f64 * place.lat_step,
                base.lon() + r.dlon as f64 * place.lon_step,
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

/// How many of `engine`'s shards hold a cell of `q`'s circle cover — what
/// the router must dispatch to, no more and no fewer.
fn shards_under_cover(engine: &ShardedEngine, q: &TklusQuery) -> usize {
    let config = EngineConfig::default();
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
    // widths = ~1728 sharded-vs-monolithic comparisons at the default
    // ladder (864 distinct query cases).
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn sharded_matches_monolithic_bitwise(
        raw in proptest::collection::vec(arb_post(), 5..45),
        radius in 2.0f64..25.0,
        k in 1usize..6,
        kw_idx in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
    ) {
        matches_monolithic(&raw, &TORONTO, radius, k, &kw_idx)?;
    }
}

proptest! {
    // 12 corpora at one wide radius in the far north, where the cover
    // spans several shards' ranges and the refinement's sub-cells are far
    // from square.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_matches_monolithic_at_a_wide_radius_in_the_far_north(
        raw in proptest::collection::vec(arb_post(), 5..45),
        radius in 200.0f64..400.0,
        k in 1usize..6,
        kw_idx in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
    ) {
        matches_monolithic(&raw, &TROMSO, radius, k, &kw_idx)?;
    }
}

/// The body of the bitwise families: the corpus `raw` laid out at
/// `place`, queried at its centre under both semantics, every ranking,
/// every shard count and both scatter widths.
fn matches_monolithic(
    raw: &[RawPost],
    place: &Place,
    radius: f64,
    k: usize,
    kw_idx: &[u8],
) -> Result<(), TestCaseError> {
    let corpus = materialize_at(raw, place);
    let (mono, _) = TklusEngine::build(&corpus, &EngineConfig::default());
    let keywords: Vec<String> = kw_idx.iter().map(|&i| WORDS[i as usize].to_string()).collect();

    let mut sharded: Vec<(usize, ShardedEngine)> = shard_counts()
        .into_iter()
        .map(|n| {
            let engine = ShardedEngine::try_build(&corpus, n, &EngineConfig::default())
                .expect("sharded build");
            (n, engine)
        })
        .collect();

    for semantics in [Semantics::Or, Semantics::And] {
        let q = TklusQuery::new(place.center(), radius, keywords.clone(), k, semantics).unwrap();
        for ranking in
            [Ranking::Sum, Ranking::Max(BoundsMode::Global), Ranking::Max(BoundsMode::HotKeywords)]
        {
            let want = mono.try_query(&q, ranking).unwrap();
            for (n, engine) in &mut sharded {
                let n = *n;
                // Scatter-width invariance: the sequential loop
                // (width 1) and the scoped-thread scatter (width 4)
                // must both reproduce the monolithic answer bitwise.
                for par in [1usize, 4] {
                    engine.set_scatter_parallelism(par);
                    let got = engine.query(&q, ranking);
                    let label = format!("N={n} par={par} {ranking:?} {semantics:?}");
                    assert_bitwise(&got, &want.users, &want.completeness, &label)?;
                    prop_assert_eq!(
                        got.stats.in_radius,
                        want.stats.in_radius,
                        "the shards' in-radius posts are the engine's: {}",
                        label
                    );
                    prop_assert_eq!(
                        got.fanout,
                        shards_under_cover(engine, &q),
                        "fanout is every shard the cover intersects: {}",
                        label
                    );
                    prop_assert!(
                        got.skipped_by_bound.is_empty(),
                        "no shard is skipped by score: {}",
                        label
                    );
                }
            }
        }
    }
    Ok(())
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
            let mut engine = ShardedEngine::try_build(&corpus, n, &EngineConfig::default())
                .expect("sharded build");
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

proptest! {
    // The outcome's work tallies. With one shard the router does the
    // monolithic engine's work, so it must report the monolithic counts —
    // the ranking's page reads included. With four, the summed page reads
    // must be exactly what the shard engines' storage counters moved by.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_stats_count_every_page_read(
        raw in proptest::collection::vec(arb_post(), 5..45),
        radius in 2.0f64..25.0,
        k in 1usize..6,
        kw_idx in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
    ) {
        let corpus = materialize(&raw);
        let config = EngineConfig::default();
        let (mono, _) = TklusEngine::build(&corpus, &config);
        let one = ShardedEngine::try_build(&corpus, 1, &config).expect("sharded build");
        let mut four = ShardedEngine::try_build(&corpus, 4, &config).expect("sharded build");
        let keywords: Vec<String> =
            kw_idx.iter().map(|&i| WORDS[i as usize].to_string()).collect();

        for semantics in [Semantics::Or, Semantics::And] {
            let q = TklusQuery::new(
                Point::new_unchecked(43.68, -79.38),
                radius,
                keywords.clone(),
                k,
                semantics,
            ).unwrap();
            for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
                let label = format!("{ranking:?} {semantics:?}");
                let want = mono.try_query(&q, ranking).unwrap().stats;
                let got = one.query(&q, ranking).stats;
                prop_assert_eq!(got.cover_cells, want.cover_cells, "cover_cells: {}", label);
                prop_assert_eq!(got.lists_fetched, want.lists_fetched, "lists_fetched: {}", label);
                prop_assert_eq!(got.dfs_bytes, want.dfs_bytes, "dfs_bytes: {}", label);
                prop_assert_eq!(got.candidates, want.candidates, "candidates: {}", label);
                prop_assert_eq!(got.in_radius, want.in_radius, "in_radius: {}", label);
                prop_assert_eq!(got.threads_built, want.threads_built, "threads_built: {}", label);
                prop_assert_eq!(
                    got.metadata_page_reads, want.metadata_page_reads,
                    "metadata_page_reads: {}", label
                );

                let reads = "tklus_storage_page_reads_total";
                for par in [1usize, 4] {
                    four.set_scatter_parallelism(par);
                    let before = four.metrics_snapshot().counter(reads).unwrap_or(0);
                    let got = four.query(&q, ranking).stats;
                    let moved = four.metrics_snapshot().counter(reads).unwrap_or(0) - before;
                    prop_assert_eq!(got.metadata_page_reads, moved, "N=4 par={}: {}", par, label);
                }
            }
        }
    }
}
