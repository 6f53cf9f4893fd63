//! Oracle-backed differential suite.
//!
//! [`oracle_top_k`] is a deliberately naive O(posts) implementation of
//! Definitions 4–10: one linear scan over the corpus, explicit
//! reply-tree construction per candidate, no index, no pruning bound, no
//! shared query machinery. Its only dependencies on the system
//! under test are the data model and the text pipeline (so both sides
//! agree on what a "keyword" is).
//!
//! The suite drives ≥2000 randomized (corpus, query, ranking, semantics)
//! cases through the full engine and requires every run to return the
//! oracle's ranked users with scores within 1e-9. The counters Figs. 8/12
//! plot are held too: `in_radius` equals the oracle's count of qualifying
//! posts, every in-radius candidate's thread is built (nothing is pruned:
//! every engine ranks both Sum and Max by folding unpruned rows), and the
//! engine pays the same `metadata_page_reads` for the same query twice in
//! a row.
//!
//! Algorithm 5 stays the reference for Max. For every generated case,
//! `try_query_max` over Def. 11 bounds precomputed for the corpus, under
//! both bound modes, returns `try_query(q, Max(_))`'s users and score bits;
//! its in-radius candidates are each built or pruned, and at least one
//! generated case prunes — so the
//! comparison is not vacuous. And a tie at the k-th place resolves by user
//! id everywhere (the row fold, Algorithm 5's running set, the naive
//! reference): a pin and a proptest family over tie-prone corpora hold
//! that.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use tklus_core::{
    BoundsMode, BoundsTable, EngineConfig, QueryOutcome, RankedUser, Ranking, TklusEngine,
};
use tklus_geo::Point;
use tklus_graph::SocialNetwork;
use tklus_model::{Corpus, Post, ScoringConfig, Semantics, TklusQuery, TweetId, UserId};
use tklus_text::TextPipeline;

const WORDS: [&str; 8] = ["hotel", "pizza", "cafe", "museum", "sushi", "beach", "coffee", "club"];

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
/// 69.65°N, where a degree of longitude is a third of one at the equator.
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

/// Definition 4 by hand: build the reply tree rooted at `root` level by
/// level from a parent → children map scanned straight off the corpus,
/// then sum `|level i| / i` (1-based levels, root level excluded), or ε
/// for a childless root.
fn oracle_popularity(
    replies: &HashMap<TweetId, Vec<TweetId>>,
    root: TweetId,
    depth: usize,
    epsilon: f64,
) -> f64 {
    let mut levels: Vec<Vec<TweetId>> = vec![vec![root]];
    while levels.len() < depth {
        let next: Vec<TweetId> = levels
            .last()
            .unwrap()
            .iter()
            .flat_map(|t| replies.get(t).cloned().unwrap_or_default())
            .collect();
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    if levels.len() <= 1 {
        return epsilon;
    }
    levels.iter().enumerate().skip(1).map(|(i, l)| l.len() as f64 / (i + 1) as f64).sum()
}

/// Definitions 4–10, straight off the corpus: linear scan, explicit
/// thread trees, no index, no bounds. Returns the ranked users
/// and the number of posts that qualified (in window, in radius, matching
/// the keywords) — what the engine reports as `QueryStats::in_radius`.
fn oracle_top_k(
    corpus: &Corpus,
    q: &TklusQuery,
    use_max: bool,
    config: &ScoringConfig,
) -> (Vec<(UserId, f64)>, usize) {
    let pipeline = TextPipeline::new();

    // The query keyword *set* (Definition 6's q.W): duplicates and case or
    // inflection variants collapse to one stem.
    let normalized: Vec<Option<String>> =
        q.keywords.iter().map(|k| pipeline.normalize_keyword(k)).collect();
    let known: HashSet<String> =
        corpus.posts().iter().flat_map(|p| pipeline.terms(&p.text)).collect();
    // Mirror the engine's AND contract: a keyword that normalizes away or
    // appears in no tweet empties the result.
    if q.semantics == Semantics::And
        && normalized.iter().any(|s| !matches!(s, Some(s) if known.contains(s)))
    {
        return (Vec::new(), 0);
    }
    let mut stems: Vec<String> = normalized.into_iter().flatten().collect();
    stems.sort();
    stems.dedup();

    // Reply map for explicit thread construction.
    let mut replies: HashMap<TweetId, Vec<TweetId>> = HashMap::new();
    for post in corpus.posts() {
        if let Some(r) = &post.in_reply_to {
            replies.entry(r.target).or_default().push(post.id);
        }
    }

    let mut per_user: HashMap<UserId, f64> = HashMap::new();
    let mut qualifying = 0usize;
    for post in corpus.posts() {
        if !q.in_time_range(post.id.0) {
            continue;
        }
        if q.location.distance_km(&post.location, config.metric) > q.radius_km {
            continue;
        }
        let terms = pipeline.terms(&post.text);
        let occurrences: u32 =
            stems.iter().map(|s| terms.iter().filter(|t| *t == s).count() as u32).sum();
        let qualifies = match q.semantics {
            Semantics::And => !stems.is_empty() && stems.iter().all(|s| terms.contains(s)),
            Semantics::Or => occurrences > 0,
        };
        if !qualifies {
            continue;
        }
        qualifying += 1;
        let phi = oracle_popularity(&replies, post.id, config.thread_depth, config.epsilon);
        // Definition 6 (ρ = N(p,q)/N × φ) times the recency factor of the
        // temporal extension (1.0 for untimed queries).
        let rho = occurrences as f64 / config.keyword_norm * phi * q.recency_factor(post.id.0);
        let entry = per_user.entry(post.user).or_insert(0.0);
        if use_max {
            // Definition 8.
            *entry = entry.max(rho);
        } else {
            // Definition 7.
            *entry += rho;
        }
    }

    // Definitions 9/10: blend with the mean tweet distance score.
    let mut scored: Vec<(UserId, f64)> = per_user
        .into_iter()
        .map(|(uid, rho)| {
            let locs: Vec<Point> = corpus.posts_of(uid).map(|p| p.location).collect();
            let delta: f64 = locs
                .iter()
                .map(|l| {
                    let d = q.location.distance_km(l, config.metric);
                    if d <= q.radius_km {
                        (q.radius_km - d) / q.radius_km
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / locs.len() as f64;
            (uid, config.alpha * rho + (1.0 - config.alpha) * delta)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(q.k);
    (scored, qualifying)
}

/// The Def. 11 bounds Algorithm 5 prunes with, precomputed offline over
/// `corpus` for the default number of hot keywords.
fn bounds_for(corpus: &Corpus, engine: &TklusEngine) -> BoundsTable {
    let hot_n = EngineConfig::default().hot_keywords;
    let network = SocialNetwork::from_corpus(corpus);
    BoundsTable::precompute(corpus, &network, engine.index().vocab(), hot_n, engine.scoring())
}

/// Algorithm 5 under `ranking`'s bound mode (`None` for Sum, which has
/// no pruned twin). Counts the cases whose prune fired.
fn algorithm5(
    engine: &TklusEngine,
    table: &BoundsTable,
    q: &TklusQuery,
    ranking: Ranking,
) -> Option<QueryOutcome> {
    let Ranking::Max(mode) = ranking else { return None };
    let out = engine.try_query_max(q, table, mode).unwrap();
    if out.stats.threads_pruned > 0 {
        PRUNED_CASES.fetch_add(1, Ordering::Relaxed);
    }
    Some(out)
}

/// Generated cases in which Algorithm 5 pruned at least one thread.
static PRUNED_CASES: AtomicUsize = AtomicUsize::new(0);

fn bits(users: &[RankedUser]) -> Vec<(UserId, u64)> {
    users.iter().map(|u| (u.user, u.score.to_bits())).collect()
}

proptest! {
    // 170 corpora × (2 semantics × 3 rankings) = 1020 query cases (on top
    // of `oracle_matches_with_duplicates_and_time_windows` below).
    #![proptest_config(ProptestConfig::with_cases(170))]

    #[test]
    fn engine_matches_oracle(
        raw in proptest::collection::vec(arb_post(), 5..45),
        radius in 2.0f64..25.0,
        k in 1usize..6,
        kw_idx in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
    ) {
        matches_oracle(&raw, &TORONTO, radius, k, &kw_idx)?;
    }
}

proptest! {
    // 40 corpora × (2 semantics × 3 rankings) = 240 query cases at one
    // wide radius in the far north: covers of long, narrow cells, and
    // refined sub-cells whose nearest point is off the centre's latitude.
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_matches_oracle_at_a_wide_radius_in_the_far_north(
        raw in proptest::collection::vec(arb_post(), 5..45),
        radius in 200.0f64..400.0,
        k in 1usize..6,
        kw_idx in proptest::collection::vec(0u8..WORDS.len() as u8, 1..3),
    ) {
        matches_oracle(&raw, &TROMSO, radius, k, &kw_idx)?;
    }
}

/// The body of the oracle families: the corpus `raw` laid out at `place`,
/// queried at its centre under both semantics and every ranking.
fn matches_oracle(
    raw: &[RawPost],
    place: &Place,
    radius: f64,
    k: usize,
    kw_idx: &[u8],
) -> Result<(), TestCaseError> {
    let corpus = materialize_at(raw, place);
    let plain = EngineConfig::default();
    let (engine, _) = TklusEngine::build(&corpus, &plain);
    let cached = EngineConfig { cache_pages: 300, ..EngineConfig::default() };
    let (cached, _) = TklusEngine::build(&corpus, &cached);
    let table = bounds_for(&corpus, &engine);
    let keywords: Vec<String> = kw_idx.iter().map(|&i| WORDS[i as usize].to_string()).collect();

    for semantics in [Semantics::Or, Semantics::And] {
        let q = TklusQuery::new(place.center(), radius, keywords.clone(), k, semantics).unwrap();
        for (ranking, use_max) in ARMS {
            let (want, want_in_radius) = oracle_top_k(&corpus, &q, use_max, &plain.scoring);
            let (got, stats) = engine.query(&q, ranking);
            // A reader carries nothing between queries, and `cache_pages`
            // turns on no cache: the same query pays the same page reads
            // every time, on either engine.
            let (_, again) = engine.query(&q, ranking);
            let (_, cached_first) = cached.query(&q, ranking);
            let (_, cached_again) = cached.query(&q, ranking);
            for s in [again, cached_first, cached_again] {
                prop_assert_eq!(
                    s.metadata_page_reads,
                    stats.metadata_page_reads,
                    "{:?}/{:?}",
                    ranking,
                    semantics
                );
            }

            // Counters: the radius filter admits exactly the oracle's
            // qualifying posts and each one's thread is built: no
            // engine query prunes.
            prop_assert_eq!(stats.in_radius, want_in_radius, "{:?}/{:?}", ranking, semantics);
            prop_assert_eq!(stats.threads_built, stats.in_radius, "{:?}/{:?}", ranking, semantics);
            prop_assert_eq!(stats.threads_pruned, 0);

            // Algorithm 5, the reference for Max: same users and score
            // bits; each in-radius thread built or pruned.
            if let Some(a5) = algorithm5(&engine, &table, &q, ranking) {
                prop_assert_eq!(bits(&a5.users), bits(&got), "{:?}/{:?}", ranking, semantics);
                prop_assert_eq!(a5.stats.in_radius, want_in_radius);
                prop_assert_eq!(
                    a5.stats.threads_built + a5.stats.threads_pruned,
                    a5.stats.in_radius,
                    "{:?}/{:?}",
                    ranking,
                    semantics
                );
            }

            // Engine vs oracle: same users, scores to 1e-9.
            prop_assert_eq!(got.len(), want.len(), "{:?}/{:?}", ranking, semantics);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.user, w.0, "{:?}/{:?}", ranking, semantics);
                prop_assert!(
                    (g.score - w.1).abs() < 1e-9,
                    "{} vs {} ({:?}/{:?})",
                    g.score,
                    w.1,
                    ranking,
                    semantics
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // 256 corpora × 3 rankings = 768 more query cases focused on the
    // duplicate-keyword fix and the temporal extension.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn oracle_matches_with_duplicates_and_time_windows(
        raw in proptest::collection::vec(arb_post(), 5..35),
        radius in 2.0f64..20.0,
        k in 1usize..5,
        kw in 0u8..WORDS.len() as u8,
        dup_case in any::<bool>(),
        window in proptest::option::of((1u64..20, 10u64..40)),
        and_sem in any::<bool>(),
    ) {
        let corpus = materialize(&raw);
        let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let table = bounds_for(&corpus, &engine);

        // The keyword appears twice: verbatim plus a case variant —
        // Definition 6 must count it once.
        let base = WORDS[kw as usize];
        let keywords = if dup_case {
            vec![base.to_string(), base.to_uppercase()]
        } else {
            vec![base.to_string(), base.to_string()]
        };
        let semantics = if and_sem { Semantics::And } else { Semantics::Or };
        let mut q = TklusQuery::new(
            Point::new_unchecked(43.68, -79.38),
            radius,
            keywords,
            k,
            semantics,
        ).unwrap();
        if let Some((since, until)) = window {
            q = q.with_time_range(since, until.max(since)).unwrap();
        }

        for (ranking, use_max) in ARMS {
            let (want, want_in_radius) =
                oracle_top_k(&corpus, &q, use_max, &EngineConfig::default().scoring);
            let (got, stats) = engine.query(&q, ranking);
            if let Some(a5) = algorithm5(&engine, &table, &q, ranking) {
                prop_assert_eq!(bits(&a5.users), bits(&got), "{:?} window={:?}", ranking, window);
            }
            prop_assert_eq!(stats.in_radius, want_in_radius, "{:?} window={:?}", ranking, window);
            prop_assert_eq!(got.len(), want.len(), "{:?} window={:?}", ranking, window);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.user, w.0, "{:?}", ranking);
                prop_assert!(
                    (g.score - w.1).abs() < 1e-9,
                    "{} vs {} ({:?})", g.score, w.1, ranking
                );
            }
        }
    }
}

const ARMS: [(Ranking, bool); 3] = [
    (Ranking::Sum, false),
    (Ranking::Max(BoundsMode::Global), true),
    (Ranking::Max(BoundsMode::HotKeywords), true),
];

#[test]
fn kth_place_tie_goes_to_the_smaller_user_id_under_every_ranking() {
    // Two users, one identical post each at the same point, the larger
    // user id posting first, k = 1: identical scores, so the order is
    // decided by the tie-break alone — user id, not arrival order in
    // Algorithm 5's running set.
    let here = Point::new_unchecked(43.68, -79.38);
    let corpus = Corpus::new(vec![
        Post::original(TweetId(1), UserId(2), here, "hotel"),
        Post::original(TweetId(2), UserId(1), here, "hotel"),
    ])
    .unwrap();
    let config = EngineConfig::default();
    let (engine, _) = TklusEngine::build(&corpus, &config);
    let table = bounds_for(&corpus, &engine);
    let q = TklusQuery::new(here, 10.0, vec!["hotel".into()], 1, Semantics::Or).unwrap();
    let both = TklusQuery::new(here, 10.0, vec!["hotel".into()], 2, Semantics::Or).unwrap();
    for (ranking, use_max) in ARMS {
        let (two, _) = engine.query(&both, ranking);
        assert_eq!(two[0].score.to_bits(), two[1].score.to_bits(), "{ranking:?}: not a tie");
        let (top, _) = engine.query(&q, ranking);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].user, UserId(1), "{ranking:?}");
        if let Some(a5) = algorithm5(&engine, &table, &q, ranking) {
            assert_eq!(bits(&a5.users), bits(&top), "{ranking:?}: Algorithm 5");
        }
        assert_eq!(oracle_top_k(&corpus, &q, use_max, &config.scoring).0[0].0, UserId(1));
    }
}

/// Cases of [`tie_prone_corpora`] whose answer had equal score bits at
/// ranks k and k + 1 (any ranking arm).
static BOUNDARY_TIES: AtomicUsize = AtomicUsize::new(0);

const TIE_SPOTS: [(i8, i8); 3] = [(0, 0), (10, -10), (-20, 5)];
const TIE_TEXTS: [&[u8]; 3] = [&[0], &[1], &[0, 1]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    // Locations and texts drawn from a handful of values, few users: many
    // users end up with identical score inputs, so ties at the k-th place
    // actually occur. Every arm must agree with the naive reference on who
    // is ranked where, and each Max arm with Algorithm 5 bit for bit.
    fn tie_prone_corpora(
        picks in proptest::collection::vec(
            (0u8..6, 0usize..TIE_SPOTS.len(), 0usize..TIE_TEXTS.len(), proptest::option::of(0u8..12)),
            4..16,
        ),
        k in 1usize..4,
        and_sem in any::<bool>(),
    ) {
        let raw: Vec<RawPost> = picks
            .iter()
            .map(|&(user, spot, text, reply_to)| RawPost {
                user,
                dlat: TIE_SPOTS[spot].0,
                dlon: TIE_SPOTS[spot].1,
                words: TIE_TEXTS[text].to_vec(),
                reply_to,
            })
            .collect();
        let corpus = materialize(&raw);
        let config = EngineConfig::default();
        let (engine, _) = TklusEngine::build(&corpus, &config);
        let table = bounds_for(&corpus, &engine);
        let semantics = if and_sem { Semantics::And } else { Semantics::Or };
        let query = |k| {
            let keywords = vec![WORDS[0].to_string(), WORDS[1].to_string()];
            TklusQuery::new(Point::new_unchecked(43.68, -79.38), 15.0, keywords, k, semantics)
                .unwrap()
        };
        let q = query(k);
        for (ranking, use_max) in ARMS {
            let (got, _) = engine.query(&q, ranking);
            let (want, _) = oracle_top_k(&corpus, &q, use_max, &config.scoring);
            prop_assert_eq!(
                got.iter().map(|u| u.user).collect::<Vec<_>>(),
                want.iter().map(|w| w.0).collect::<Vec<_>>(),
                "{:?}/{:?}", ranking, semantics
            );
            if let Some(a5) = algorithm5(&engine, &table, &q, ranking) {
                prop_assert_eq!(bits(&a5.users), bits(&got), "{:?}/{:?}", ranking, semantics);
            }
            let (wider, _) = engine.query(&query(k + 1), ranking);
            prop_assert_eq!(bits(&wider[..got.len()]), bits(&got), "{:?}: top-k is a prefix", ranking);
            if wider.len() == k + 1 && wider[k - 1].score.to_bits() == wider[k].score.to_bits() {
                BOUNDARY_TIES.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[test]
fn boundary_ties_rank_by_user_id_and_actually_occur() {
    tie_prone_corpora();
    let ties = BOUNDARY_TIES.load(Ordering::Relaxed);
    assert!(ties >= 1, "tie family is vacuous: no case had equal score bits at ranks k and k + 1");
}

#[test]
fn algorithm5_prunes_in_some_generated_case() {
    // The Algorithm 5 comparisons above are vacuous if its prune never
    // fires: run a family and require at least one pruned thread.
    tie_prone_corpora();
    let pruned = PRUNED_CASES.load(Ordering::Relaxed);
    assert!(pruned >= 1, "no generated case pruned a thread: Algorithm 5 was never exercised");
}
