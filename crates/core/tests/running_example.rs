//! End-to-end tests built around the paper's running example
//! (Figure 1 / Table I): seven "hotel" tweets around Toronto, where Sum
//! ranking favours u1 (two relevant tweets, one very close to the query)
//! and Maximum ranking favours u5 (whose tweet E has by far the most
//! replies/forwards).

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use tklus_core::{BoundsMode, BoundsTable, EngineConfig, Ranking, TklusEngine};
use tklus_geo::Point;
use tklus_graph::SocialNetwork;
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};

fn pt(lat: f64, lon: f64) -> Point {
    Point::new_unchecked(lat, lon)
}

/// Query location from Section II-B.
fn query_location() -> Point {
    pt(43.6839128037, -79.37356590)
}

/// The Table I scenario scaled so the two rankings actually diverge under
/// the paper's default parameters (α = 0.5, N = 40, ε = 0.1):
///
/// * u1 — *many* relevant tweets, all very close to the query, each with a
///   moderate reply cascade: the Sum-score profile ("favors users with more
///   relevant tweets").
/// * u5 — one tweet E with an outstanding cascade ("considerably more
///   replies and forwards than other tweets"): the Maximum-score profile.
/// * u2/u3/u4/u6 — the remaining Table I users, single quiet tweets.
fn corpus() -> Corpus {
    let q = query_location();
    let mut posts = vec![
        // B (u2).
        Post::original(TweetId(101), UserId(2), pt(43.645, -79.38), "Finally Toronto (at Clarion Hotel)"),
        // C (u3).
        Post::original(TweetId(102), UserId(3), pt(43.671, -79.389), "I'm at Four Seasons Hotel Toronto"),
        // D (u4).
        Post::original(TweetId(103), UserId(4), pt(43.671, -79.389), "Veal, lemon ricotta gnocchi @ Four Seasons Hotel Toronto"),
        // E (u5): the popular tweet.
        Post::original(TweetId(104), UserId(5), pt(43.672, -79.390), "And that was the best massage I've ever had. (@ The Spa at Four Seasons Hotel Toronto)"),
        // F (u6).
        Post::original(TweetId(105), UserId(6), pt(43.672, -79.390), "Saturday night steez #fashion #toronto @ Four Seasons Hotel Toronto"),
    ];
    // u1: 8 relevant tweets right next to the query location (tweet A and
    // friends), each drawing 4 replies.
    for i in 0..8u64 {
        let id = 110 + i;
        posts.push(Post::original(
            TweetId(id),
            UserId(1),
            pt(q.lat() + 0.001, q.lon() - 0.001),
            "I'm at Toronto Marriott Bloor Yorkville Hotel",
        ));
        for j in 0..4u64 {
            posts.push(Post::reply(
                TweetId(1000 + i * 10 + j),
                UserId(100 + i * 10 + j),
                pt(43.69, -79.37),
                "looks like a great stay",
                TweetId(id),
                UserId(1),
            ));
        }
    }
    // E's outstanding cascade: 20 direct replies, 6 second-level forwards.
    for i in 0..20u64 {
        posts.push(Post::reply(
            TweetId(2000 + i),
            UserId(300 + i),
            pt(43.68, -79.39),
            "sounds amazing",
            TweetId(104),
            UserId(5),
        ));
    }
    for i in 0..6u64 {
        posts.push(Post::forward(
            TweetId(2100 + i),
            UserId(400 + i),
            pt(43.66, -79.40),
            "rt massage spa",
            TweetId(2000),
            UserId(300),
        ));
    }
    Corpus::new(posts).unwrap()
}

fn engine() -> TklusEngine {
    TklusEngine::build(&corpus(), &EngineConfig::default()).0
}

fn hotel_query(k: usize) -> TklusQuery {
    TklusQuery::new(query_location(), 10.0, vec!["hotel".into()], k, Semantics::Or).unwrap()
}

#[test]
fn sum_ranking_favours_u1() {
    // "If we use the sum score based ranking, user u1 is ranked as the top
    // local user because u1 has two relevant tweets A and G … and A is very
    // close to the query location."
    let e = engine();
    let (top, stats) = e.query(&hotel_query(1), Ranking::Sum);
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].user, UserId(1), "top = {top:?}");
    assert_eq!(stats.threads_built, 0, "the product reads every φ from the column");
    assert_eq!(stats.threads_pruned, 0);
    let paper = e.try_query_algorithm4(&hotel_query(1), Ranking::Sum).unwrap();
    assert_eq!(paper.users, top);
    assert!(paper.stats.threads_built >= 7, "all candidates get threads under Algorithm 4");
}

#[test]
fn max_ranking_favours_u5() {
    // "In contrast, the maximum based ranking returns u5 as the top …
    // tweet E has considerably more replies and forwards than other
    // tweets."
    let e = engine();
    let (top, _) = e.query(&hotel_query(1), Ranking::Max(BoundsMode::HotKeywords));
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].user, UserId(5), "top = {top:?}");
}

#[test]
fn top_k_returns_k_distinct_users_sorted() {
    let e = engine();
    let (top, _) = e.query(&hotel_query(5), Ranking::Sum);
    assert_eq!(top.len(), 5);
    let mut users: Vec<UserId> = top.iter().map(|r| r.user).collect();
    users.sort();
    users.dedup();
    assert_eq!(users.len(), 5, "users are distinct");
    assert!(top.windows(2).all(|w| w[0].score >= w[1].score), "sorted by score");
}

#[test]
fn all_returned_users_satisfy_problem_condition() {
    // Problem Definition condition 1: every returned user has a relevant
    // post within the radius.
    let corpus = corpus();
    let e = engine();
    let q = hotel_query(10);
    for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::Global)] {
        let (top, _) = e.query(&q, ranking);
        for r in &top {
            let has_qualifying = corpus.posts_of(r.user).any(|p| {
                p.text.to_lowercase().contains("hotel")
                    && q.location.euclidean_km(&p.location) <= q.radius_km
            });
            assert!(has_qualifying, "user {} has no qualifying post ({ranking:?})", r.user);
        }
    }
}

#[test]
fn radius_excludes_far_tweets() {
    // A tighter radius drops candidates; B (u2) at ~4.3 km from the query
    // survives a 5 km radius but not a 2 km one.
    let e = engine();
    let near =
        TklusQuery::new(query_location(), 2.0, vec!["hotel".into()], 10, Semantics::Or).unwrap();
    let (top_near, _) = e.query(&near, Ranking::Sum);
    assert!(!top_near.iter().any(|r| r.user == UserId(2)), "{top_near:?}");
    let wide = hotel_query(10);
    let (top_wide, _) = e.query(&wide, Ranking::Sum);
    assert!(top_wide.iter().any(|r| r.user == UserId(2)));
}

#[test]
fn and_semantics_requires_all_keywords() {
    let e = engine();
    // Only tweet E and the "rt massage spa" forwards mention massage; only
    // E combines massage AND hotel.
    let q = TklusQuery::new(
        query_location(),
        10.0,
        vec!["hotel".into(), "massage".into()],
        10,
        Semantics::And,
    )
    .unwrap();
    let (top, _) = e.query(&q, Ranking::Sum);
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].user, UserId(5));
    // OR relaxes the constraint and returns more users.
    let q_or = TklusQuery::new(
        query_location(),
        10.0,
        vec!["hotel".into(), "massage".into()],
        10,
        Semantics::Or,
    )
    .unwrap();
    let (top_or, _) = e.query(&q_or, Ranking::Sum);
    assert!(top_or.len() > top.len(), "OR ({}) should beat AND ({})", top_or.len(), top.len());
}

#[test]
fn unknown_keyword_behaviour() {
    let e = engine();
    // AND with an unindexed keyword -> empty.
    let q_and = TklusQuery::new(
        query_location(),
        10.0,
        vec!["hotel".into(), "zzzxqwert".into()],
        5,
        Semantics::And,
    )
    .unwrap();
    let (top, stats) = e.query(&q_and, Ranking::Sum);
    assert!(top.is_empty());
    assert_eq!(stats.candidates, 0);
    // OR drops the unknown keyword and still answers.
    let q_or = TklusQuery::new(
        query_location(),
        10.0,
        vec!["hotel".into(), "zzzxqwert".into()],
        5,
        Semantics::Or,
    )
    .unwrap();
    let (top_or, _) = e.query(&q_or, Ranking::Sum);
    assert!(!top_or.is_empty());
}

#[test]
fn sum_and_max_agree_on_membership_mostly() {
    // The paper's Kendall-tau experiments show the two rankings are highly
    // consistent; on this tiny corpus the top-5 sets overlap heavily.
    let e = engine();
    let (sum, _) = e.query(&hotel_query(5), Ranking::Sum);
    let (max, _) = e.query(&hotel_query(5), Ranking::Max(BoundsMode::HotKeywords));
    let sum_set: std::collections::BTreeSet<UserId> = sum.iter().map(|r| r.user).collect();
    let max_set: std::collections::BTreeSet<UserId> = max.iter().map(|r| r.user).collect();
    assert!(sum_set.intersection(&max_set).count() >= 3, "sum={sum_set:?} max={max_set:?}");
}

#[test]
fn pruning_preserves_max_results() {
    // Algorithm 5 with pruning (global or hot bounds) must return the
    // product's Max answer — the unpruned fold — in users and score bits.
    // Bounds cover every term (the figure harness's 200 hot keywords), and
    // the query makes tweet E (hotel + massage, the big cascade) fill the
    // k = 1 set early, so every later one-keyword tweet's bound loses.
    let corpus = corpus();
    let e = engine();
    let network = SocialNetwork::from_corpus(&corpus);
    let table = BoundsTable::precompute(&corpus, &network, e.index().vocab(), 200, e.scoring());
    let q = TklusQuery::new(
        query_location(),
        10.0,
        vec!["hotel".into(), "massage".into()],
        1,
        Semantics::Or,
    )
    .unwrap();
    let (folded, _) = e.query(&q, Ranking::Max(BoundsMode::HotKeywords));
    let hot = e.try_query_max(&q, &table, BoundsMode::HotKeywords).unwrap();
    let global = e.try_query_max(&q, &table, BoundsMode::Global).unwrap();
    for pruned in [&hot, &global] {
        assert_eq!(pruned.users.len(), folded.len());
        for (a, b) in pruned.users.iter().zip(&folded) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    // Hot bounds are tighter, so they prune at least as much — and they
    // do prune here, so the comparison above is not vacuous.
    let (s_hot, s_global) = (hot.stats, global.stats);
    assert!(s_hot.threads_pruned >= s_global.threads_pruned, "hot={s_hot:?} global={s_global:?}");
    assert!(s_hot.threads_pruned > 0, "hot={s_hot:?}");
}
