//! Tests for the temporal TkLUS extension (the paper's Section VIII
//! future-work direction): time-windowed queries and recency-weighted
//! ranking, on top of both query algorithms.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus_geo::Point;
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};

fn pt(lat: f64, lon: f64) -> Point {
    Point::new_unchecked(lat, lon)
}

fn q_loc() -> Point {
    pt(43.6839128037, -79.37356590)
}

/// Two users tweet "hotel" at the same spot: u1 early (t=100..110),
/// u2 late (t=900..910). u1's tweets draw replies; u2's do not — so
/// without temporal features u1 wins, and temporal features can flip it.
fn corpus() -> Corpus {
    Corpus::new(posts()).unwrap()
}

fn posts() -> Vec<Post> {
    let near = pt(43.685, -79.372);
    let mut posts = Vec::new();
    for i in 0..3u64 {
        posts.push(Post::original(TweetId(100 + i), UserId(1), near, "great hotel downtown"));
        for j in 0..3u64 {
            posts.push(Post::reply(
                TweetId(200 + i * 10 + j),
                UserId(50 + i * 10 + j),
                near,
                "agreed",
                TweetId(100 + i),
                UserId(1),
            ));
        }
    }
    for i in 0..3u64 {
        posts.push(Post::original(TweetId(900 + i), UserId(2), near, "great hotel downtown"));
    }
    posts
}

fn engine() -> TklusEngine {
    TklusEngine::build(&corpus(), &EngineConfig::default()).0
}

fn base_query(k: usize) -> TklusQuery {
    TklusQuery::new(q_loc(), 10.0, vec!["hotel".into()], k, Semantics::Or).unwrap()
}

#[test]
fn without_temporal_features_popular_user_wins() {
    let e = engine();
    for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
        let (top, _) = e.query(&base_query(2), ranking);
        assert_eq!(top[0].user, UserId(1), "{ranking:?}");
    }
}

#[test]
fn time_window_restricts_to_period() {
    let e = engine();
    // Window covering only u2's late tweets.
    let q = base_query(5).with_time_range(800, 1000).unwrap();
    for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::Global)] {
        let (top, _) = e.query(&q, ranking);
        let users: Vec<UserId> = top.iter().map(|r| r.user).collect();
        assert_eq!(users, vec![UserId(2)], "{ranking:?}: only the in-window author qualifies");
    }
    // Window covering only u1's early tweets.
    let q = base_query(5).with_time_range(0, 150).unwrap();
    let (top, _) = e.query(&q, Ranking::Sum);
    let users: Vec<UserId> = top.iter().map(|r| r.user).collect();
    assert_eq!(users, vec![UserId(1)]);
    // Empty window -> empty result.
    let q = base_query(5).with_time_range(400, 500).unwrap();
    let (top, stats) = e.query(&q, Ranking::Sum);
    assert!(top.is_empty());
    assert_eq!(stats.threads_built, 0, "no thread construction for out-of-window tweets");
}

#[test]
fn window_filter_skips_io_before_metadata_lookups() {
    // A query descends each metadata tree once, so the saving only shows
    // when the early and late tweets sit in different leaves: 200
    // bystander posts between them spread the primary tree (72 rows per
    // leaf) over three leaves.
    let mut posts = posts();
    for i in 0..200u64 {
        posts.push(Post::original(TweetId(300 + i), UserId(1000 + i), q_loc(), "morning coffee"));
    }
    let e = TklusEngine::build(&Corpus::new(posts).unwrap(), &EngineConfig::default()).0;
    let unfiltered = e.query(&base_query(5), Ranking::Sum).1;
    let filtered_q = base_query(5).with_time_range(800, 1000).unwrap();
    let filtered = e.query(&filtered_q, Ranking::Sum).1;
    assert!(filtered.metadata_page_reads < unfiltered.metadata_page_reads);
    // The product reads φ from the engine's column; Algorithm 4 as the
    // paper states it builds the threads the window lets through.
    let algorithm4 = |q: &TklusQuery| e.try_query_algorithm4(q, Ranking::Sum).unwrap().stats;
    let (unfiltered, filtered) = (algorithm4(&base_query(5)), algorithm4(&filtered_q));
    assert!(filtered.metadata_page_reads < unfiltered.metadata_page_reads);
    assert!(filtered.threads_built < unfiltered.threads_built);
}

#[test]
fn recency_bias_flips_ranking_toward_fresh_users() {
    let e = engine();
    // Reference time 1000, half-life 100: u1's tweets (t~100) decay by
    // 2^-9; u2's (t~900) by 2^-1. u1's popularity advantage (threads of 3
    // replies, phi = 1.5 vs epsilon 0.1) cannot survive that.
    let q = base_query(2).with_recency(1000, 100).unwrap();
    let (top, _) = e.query(&q, Ranking::Sum);
    assert_eq!(top[0].user, UserId(2), "recent user outranks stale popular user: {top:?}");
    // A very long half-life changes (almost) nothing.
    let q = base_query(2).with_recency(1000, 1_000_000).unwrap();
    let (top, _) = e.query(&q, Ranking::Sum);
    assert_eq!(top[0].user, UserId(1));
}

#[test]
fn recency_agrees_across_rankings_and_tightens_pruning() {
    let e = engine();
    let q = base_query(2).with_recency(1000, 100).unwrap();
    let (max_top, _) = e.query(&q, Ranking::Max(BoundsMode::HotKeywords));
    assert_eq!(max_top[0].user, UserId(2), "{max_top:?}");
    // Results identical between bound modes under recency too.
    let (g, _) = e.query(&q, Ranking::Max(BoundsMode::Global));
    assert_eq!(
        g.iter().map(|r| r.user).collect::<Vec<_>>(),
        max_top.iter().map(|r| r.user).collect::<Vec<_>>()
    );
}

#[test]
fn window_and_recency_compose() {
    let e = engine();
    let q = base_query(5).with_time_range(0, 1000).unwrap().with_recency(1000, 100).unwrap();
    let (top, _) = e.query(&q, Ranking::Sum);
    // Both users are in-window; recency puts u2 first.
    let users: Vec<UserId> = top.iter().map(|r| r.user).collect();
    assert_eq!(users, vec![UserId(2), UserId(1)]);
}
