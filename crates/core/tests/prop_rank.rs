//! Property suite for the product query's two shortcuts.
//!
//! * **The φ column.** On random corpora — replies and forwards to
//!   earlier, later and missing posts, self-replies, reply cycles and
//!   chains longer than the thread depth — every post's φ in the engine's
//!   column equals Algorithm 1's walk over the metadata trees
//!   (`try_thread_phi`) bit for bit, at depths 1 to 8 and random ε, and a
//!   cursor reading ascending ids finds exactly the column's entries.
//! * **The bounded blend.** On random corpora, α and k, the product query
//!   (`try_query`: φ from the column, `P_u` scanned only while a user's
//!   bound can reach the k-th score) returns Algorithm 4's answer
//!   (`try_query_algorithm4`: every thread walked, every user blended) bit
//!   for bit, under Sum and Max, OR and AND.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use tklus_core::{BoundsMode, EngineConfig, RankedUser, Ranking, TklusEngine};
use tklus_geo::Point;
use tklus_model::{Corpus, Post, ScoringConfig, Semantics, TklusQuery, TweetId, UserId};

const WORDS: [&str; 6] = ["hotel", "pizza", "cafe", "museum", "sushi", "beach"];

/// How a generated post links to another.
#[derive(Debug, Clone, Copy)]
enum Link {
    Original,
    /// A reply to the post at this index (mod the corpus size): earlier,
    /// later or itself.
    Reply(u8),
    /// A forward of the post at this index (mod the corpus size).
    Forward(u8),
    /// A reply to a post that is not in the corpus.
    Dangling(u8),
    /// A reply to the post before it: runs of these are chains.
    Chain,
}

#[derive(Debug, Clone)]
struct RawPost {
    user: u8,
    dlat: i8,
    dlon: i8,
    words: Vec<u8>,
    link: Link,
}

fn arb_link() -> impl Strategy<Value = Link> {
    prop_oneof![
        Just(Link::Original),
        any::<u8>().prop_map(Link::Reply),
        any::<u8>().prop_map(Link::Forward),
        any::<u8>().prop_map(Link::Dangling),
        Just(Link::Chain),
        Just(Link::Chain),
    ]
}

fn arb_post() -> impl Strategy<Value = RawPost> {
    (
        0u8..10,
        -100i8..=100,
        -100i8..=100,
        proptest::collection::vec(0u8..WORDS.len() as u8, 1..4),
        arb_link(),
    )
        .prop_map(|(user, dlat, dlon, words, link)| RawPost { user, dlat, dlon, words, link })
}

/// Posts get ids 2, 4, 6, …, so a cursor can be asked for the odd ids
/// between them.
fn materialize(raw: &[RawPost]) -> Corpus {
    let base = Point::new_unchecked(43.68, -79.38);
    let id = |i: usize| TweetId(2 * i as u64 + 2);
    let user = |i: usize| UserId(raw[i].user as u64);
    let posts = raw
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let loc = Point::new_unchecked(
                base.lat() + r.dlat as f64 * 0.0015,
                base.lon() + r.dlon as f64 * 0.002,
            );
            let text = r.words.iter().map(|&w| WORDS[w as usize]).collect::<Vec<_>>().join(" ");
            let (me, at) = (user(i), id(i));
            let t = |target: u8| target as usize % raw.len();
            match r.link {
                Link::Original => Post::original(at, me, loc, text),
                Link::Chain if i == 0 => Post::original(at, me, loc, text),
                Link::Chain => Post::reply(at, me, loc, text, id(i - 1), user(i - 1)),
                Link::Reply(to) => Post::reply(at, me, loc, text, id(t(to)), user(t(to))),
                Link::Forward(to) => Post::forward(at, me, loc, text, id(t(to)), user(t(to))),
                Link::Dangling(to) => {
                    Post::reply(at, me, loc, text, TweetId(1_000_001 + to as u64), UserId(99))
                }
            }
        })
        .collect();
    Corpus::new(posts).expect("distinct ids")
}

fn engine(corpus: &Corpus, scoring: ScoringConfig) -> TklusEngine {
    let config = EngineConfig { scoring, ..EngineConfig::default() };
    TklusEngine::try_build(corpus, &config).unwrap().0
}

fn bits(users: &[RankedUser]) -> Vec<(UserId, u64)> {
    users.iter().map(|u| (u.user, u.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn the_column_is_algorithm_1s_walk(
        raw in proptest::collection::vec(arb_post(), 1..40),
        depth in 1usize..=8,
        epsilon in 0.0f64..1.0,
        probes in proptest::collection::vec(any::<bool>(), 90),
    ) {
        let corpus = materialize(&raw);
        let scoring = ScoringConfig { thread_depth: depth, epsilon, ..ScoringConfig::default() };
        let engine = engine(&corpus, scoring);
        let walked = |tid: TweetId| {
            corpus.get(tid).map(|_| engine.try_thread_phi(tid).unwrap().to_bits())
        };
        let mut every_post = engine.phi_column().cursor();
        for post in corpus.posts() {
            let read = every_post.get(post.id).map(f64::to_bits);
            prop_assert_eq!(read, walked(post.id), "{:?}", post.id);
        }
        // Ascending ids, some held and some not, some skipped.
        let mut cursor = engine.phi_column().cursor();
        for (tid, probe) in (1..90u64).map(TweetId).zip(&probes) {
            if *probe {
                prop_assert_eq!(cursor.get(tid).map(f64::to_bits), walked(tid), "{:?}", tid);
            }
        }
    }

    #[test]
    fn the_bounded_blend_is_algorithm_4(
        raw in proptest::collection::vec(arb_post(), 5..40),
        alpha in prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0],
        k in prop_oneof![1usize..8, Just(usize::MAX)],
        radius in 2.0f64..25.0,
        kw in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
    ) {
        let corpus = materialize(&raw);
        let engine = engine(&corpus, ScoringConfig { alpha, ..ScoringConfig::default() });
        let keywords: Vec<String> = kw.iter().map(|&w| WORDS[w as usize].to_string()).collect();
        let here = Point::new_unchecked(43.68, -79.38);
        for semantics in [Semantics::Or, Semantics::And] {
            let q = TklusQuery::new(here, radius, keywords.clone(), k, semantics).unwrap();
            for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
                let product = engine.try_query(&q, ranking).unwrap();
                let paper = engine.try_query_algorithm4(&q, ranking).unwrap();
                prop_assert_eq!(
                    bits(&product.users),
                    bits(&paper.users),
                    "α {} k {} {:?} {:?}",
                    alpha,
                    k,
                    ranking,
                    semantics
                );
                prop_assert_eq!(product.stats.in_radius, paper.stats.in_radius);
                prop_assert_eq!(product.stats.threads_built, 0);
                prop_assert_eq!(paper.stats.threads_built, paper.stats.in_radius);
            }
        }
    }
}
