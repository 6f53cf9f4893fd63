//! Tier-1 hold on the product query's two shortcuts: φ read from the
//! engine's column instead of Algorithm 1's walk, and the distance blend
//! that scans `P_u` only while a user's Definition 10 bound at δ = 1 can
//! still reach the k-th exact score.
//!
//! [`Naive::top`] is Definitions 4–10 straight off the corpus: a linear
//! scan, explicit reply levels, every candidate user blended, no index
//! and no engine code. The product (`try_query`) must return its users
//! with scores within 1e-9 at α ∈ {0, 0.3, 0.5, 1}, k ∈ {1, 5,
//! `usize::MAX`}, Sum and Max, OR and AND, at 2, 10 and 30 km, and
//! Algorithm 4 as the paper states it (`try_query_algorithm4`) must return
//! the product's answer bit for bit. Two constructed corpora pin the
//! edges: a user whose bound only *ties* the k-th score and wins the place
//! on user id, and a candidate at exactly the radius.

use std::collections::{HashMap, HashSet};
use tklus::core::{BoundsMode, EngineConfig, RankedUser, Ranking, TklusEngine};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::geo::{DistanceMetric, Point};
use tklus::model::{Corpus, Post, ScoringConfig, Semantics, TklusQuery, TweetId, UserId};
use tklus::text::TextPipeline;

/// The naive reference's view of a corpus: every post's terms, and its
/// replies by target.
struct Naive<'a> {
    corpus: &'a Corpus,
    terms: Vec<Vec<String>>,
    replies: HashMap<TweetId, Vec<TweetId>>,
    known: HashSet<String>,
}

impl<'a> Naive<'a> {
    fn new(corpus: &'a Corpus) -> Self {
        let pipeline = TextPipeline::new();
        let terms: Vec<Vec<String>> =
            corpus.posts().iter().map(|p| pipeline.terms(&p.text)).collect();
        let mut replies: HashMap<TweetId, Vec<TweetId>> = HashMap::new();
        for post in corpus.posts() {
            if let Some(r) = post.in_reply_to {
                replies.entry(r.target).or_default().push(post.id);
            }
        }
        let known = terms.iter().flatten().cloned().collect();
        Self { corpus, terms, replies, known }
    }

    /// Definition 4: the reply levels below `root`, at most `depth` of
    /// them and none past the first empty one, each weighted `1/i`; ε for
    /// a post nobody replied to.
    fn popularity(&self, root: TweetId, config: &ScoringConfig) -> f64 {
        let mut levels = vec![vec![root]];
        while levels.len() < config.thread_depth {
            let next: Vec<TweetId> = levels
                .last()
                .expect("the root level")
                .iter()
                .flat_map(|t| self.replies.get(t).into_iter().flatten().copied())
                .collect();
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }
        if levels.len() == 1 {
            return config.epsilon;
        }
        levels.iter().enumerate().skip(1).map(|(i, l)| l.len() as f64 / (i + 1) as f64).sum()
    }

    /// Definitions 5–10 for every user with a qualifying post, best first
    /// (ties by user id), and the number of qualifying posts.
    fn top(
        &self,
        q: &TklusQuery,
        ranking: Ranking,
        config: &ScoringConfig,
    ) -> (Vec<(UserId, f64)>, usize) {
        let pipeline = TextPipeline::new();
        let normalized: Vec<Option<String>> =
            q.keywords.iter().map(|k| pipeline.normalize_keyword(k)).collect();
        if q.semantics == Semantics::And
            && normalized.iter().any(|s| !s.as_ref().is_some_and(|s| self.known.contains(s)))
        {
            return (Vec::new(), 0);
        }
        let mut stems: Vec<String> = normalized.into_iter().flatten().collect();
        stems.sort();
        stems.dedup();
        let distance_score = |at: &Point| {
            let d = q.location.distance_km(at, config.metric);
            if d <= q.radius_km {
                (q.radius_km - d) / q.radius_km
            } else {
                0.0
            }
        };

        let mut rho: HashMap<UserId, f64> = HashMap::new();
        let mut qualifying = 0;
        for (post, terms) in self.corpus.posts().iter().zip(&self.terms) {
            if q.location.distance_km(&post.location, config.metric) > q.radius_km {
                continue;
            }
            let tf: u32 =
                stems.iter().map(|s| terms.iter().filter(|t| *t == s).count() as u32).sum();
            let qualifies = match q.semantics {
                Semantics::And => !stems.is_empty() && stems.iter().all(|s| terms.contains(s)),
                Semantics::Or => tf > 0,
            };
            if !qualifies {
                continue;
            }
            qualifying += 1;
            // Definition 6.
            let score = tf as f64 / config.keyword_norm * self.popularity(post.id, config);
            let user = rho.entry(post.user).or_insert(0.0);
            match ranking {
                Ranking::Sum => *user += score,             // Definition 7.
                Ranking::Max(_) => *user = user.max(score), // Definition 8.
            }
        }
        let mut ranked: Vec<(UserId, f64)> = rho
            .into_iter()
            .map(|(uid, rho)| {
                // Definition 9 over every post of the user, then 10.
                let posts: Vec<&Post> = self.corpus.posts_of(uid).collect();
                let delta = posts.iter().map(|p| distance_score(&p.location)).sum::<f64>()
                    / posts.len() as f64;
                (uid, config.alpha * rho + (1.0 - config.alpha) * delta)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        (ranked, qualifying)
    }
}

fn bits(users: &[RankedUser]) -> Vec<(UserId, u64)> {
    users.iter().map(|u| (u.user, u.score.to_bits())).collect()
}

const RANKINGS: [Ranking; 2] = [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)];

fn engine(corpus: &Corpus, scoring: ScoringConfig) -> TklusEngine {
    let config = EngineConfig { scoring, ..EngineConfig::default() };
    TklusEngine::try_build(corpus, &config).expect("in-memory build").0
}

/// Checks `engine`'s product answer to `q` against the naive reference
/// and Algorithm 4; returns the users the product blended and skipped.
fn check(
    engine: &TklusEngine,
    naive: &Naive<'_>,
    q: &TklusQuery,
    ranking: Ranking,
) -> (usize, usize) {
    let config = engine.scoring();
    let (want, qualifying) = naive.top(q, ranking, config);
    let out = engine.try_query(q, ranking).expect("fault-free query");
    let at = format!(
        "α {} k {} {ranking:?} {:?} {} km {:?}",
        config.alpha, q.k, q.semantics, q.radius_km, q.keywords
    );
    assert_eq!(out.stats.in_radius, qualifying, "{at}");
    assert_eq!(out.stats.threads_built, 0, "{at}: the product reads φ from the column");
    let got: Vec<UserId> = out.users.iter().map(|u| u.user).collect();
    let want_users: Vec<UserId> = want.iter().take(q.k).map(|w| w.0).collect();
    assert_eq!(got, want_users, "{at}");
    for (g, w) in out.users.iter().zip(&want) {
        assert!((g.score - w.1).abs() < 1e-9, "{at}: {} vs {}", g.score, w.1);
    }
    let paper = engine.try_query_algorithm4(q, ranking).expect("fault-free query");
    assert_eq!(bits(&paper.users), bits(&out.users), "{at}");
    assert_eq!(paper.stats.threads_built, qualifying, "{at}: Algorithm 4 walks every thread");
    assert_eq!(paper.stats.distance_scans_skipped, 0, "{at}: Algorithm 4 blends every user");
    let skipped = out.stats.distance_scans_skipped;
    (want.len() - skipped, skipped)
}

#[test]
fn the_bounded_blend_ranks_like_the_naive_reference() {
    let corpus = generate_corpus(&GenConfig {
        original_posts: 1_500,
        users: 400,
        seed: 0xB1E4D,
        ..GenConfig::default()
    });
    let naive = Naive::new(&corpus);
    let specs = generate_queries(&corpus, &QueryConfig { per_bucket: 2, seed: 0xB1E4D });
    let (mut skipped_total, mut answered) = (0, 0);
    for alpha in [0.0, 0.3, 0.5, 1.0] {
        let engine = engine(&corpus, ScoringConfig { alpha, ..ScoringConfig::default() });
        for spec in &specs {
            for radius in [2.0, 10.0, 30.0] {
                for semantics in [Semantics::Or, Semantics::And] {
                    for k in [1, 5, usize::MAX] {
                        let q = TklusQuery::new(
                            spec.location,
                            radius,
                            spec.keywords.clone(),
                            k,
                            semantics,
                        )
                        .expect("generated query is valid");
                        for ranking in RANKINGS {
                            let (scanned, skipped) = check(&engine, &naive, &q, ranking);
                            answered += usize::from(scanned > 0);
                            skipped_total += skipped;
                            let users = scanned + skipped;
                            if alpha == 0.0 || k == usize::MAX {
                                // Every bound is 1 at α = 0; a heap of
                                // `usize::MAX` never fills.
                                assert_eq!(skipped, 0, "α {alpha} k {k}");
                            }
                            if alpha == 1.0 {
                                // The bound is the exact score: the blend
                                // stops after the k-th user unless the next
                                // one ties it.
                                let (want, _) = naive.top(&q, ranking, engine.scoring());
                                let tie = want.len() > k && want[k].1 == want[k - 1].1;
                                if !tie {
                                    assert_eq!(scanned, users.min(k), "α 1 k {k}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(answered > 200, "only {answered} answered queries: the comparison is vacuous");
    assert!(skipped_total > 0, "the blend never stopped early: the prune is untested");
}

#[test]
fn a_bound_that_ties_the_kth_score_is_scanned_and_wins_on_user_id() {
    // N = 1 and ε = 0.5 make every score a binary fraction. User 5 says
    // "hotel" twice at the query point (ρ = 1) and posts once far away
    // (δ = 0.5): bound 1, score 0.75. User 1 says it once at the query
    // point (ρ = 0.5, δ = 1): bound 0.75, score 0.75. User 5 is blended
    // first and sets the k-th score to 0.75; user 1's bound only equals
    // it, so user 1 is scanned, ties, and wins the place on user id.
    let here = Point::new_unchecked(43.68, -79.38);
    let far = Point::new_unchecked(44.68, -79.38);
    let corpus = Corpus::new(vec![
        Post::original(TweetId(1), UserId(5), here, "hotel hotel"),
        Post::original(TweetId(2), UserId(5), far, "pizza"),
        Post::original(TweetId(3), UserId(1), here, "hotel"),
    ])
    .expect("distinct ids");
    let scoring = ScoringConfig { keyword_norm: 1.0, epsilon: 0.5, ..ScoringConfig::default() };
    let engine = engine(&corpus, scoring);
    let naive = Naive::new(&corpus);
    let q = TklusQuery::new(here, 10.0, vec!["hotel".into()], 1, Semantics::Or).expect("valid");
    for ranking in RANKINGS {
        let out = engine.try_query(&q, ranking).expect("fault-free query");
        assert_eq!(bits(&out.users), vec![(UserId(1), 0.75f64.to_bits())], "{ranking:?}");
        assert_eq!(out.stats.distance_scans_skipped, 0, "{ranking:?}: a tied bound is scanned");
        check(&engine, &naive, &q, ranking);
    }
}

#[test]
fn a_candidate_at_exactly_the_radius_is_in_it() {
    // Definition 5 scores a post "within the radius": at exactly the
    // radius it qualifies, with distance score 0. The radius is the
    // Euclidean distance to the post, so the equality is exact in floats.
    // A reply chain longer than the thread depth hangs off the centre's
    // post, so its φ depends on the depth cut.
    let here = Point::new_unchecked(43.68, -79.38);
    let edge = Point::new_unchecked(43.71, -79.35);
    let radius = here.distance_km(&edge, DistanceMetric::Euclidean);
    let mut posts = vec![
        Post::original(TweetId(1), UserId(1), here, "hotel"),
        Post::original(TweetId(2), UserId(2), edge, "hotel lobby"),
    ];
    for i in 0..9u64 {
        let target = if i == 0 { TweetId(1) } else { TweetId(10 + i - 1) };
        let target_user = UserId(if i == 0 { 1 } else { 100 + i - 1 });
        posts.push(Post::reply(
            TweetId(10 + i),
            UserId(100 + i),
            here,
            "agreed",
            target,
            target_user,
        ));
    }
    let corpus = Corpus::new(posts).expect("distinct ids");
    let naive = Naive::new(&corpus);
    for alpha in [0.3, 0.5] {
        let engine = engine(&corpus, ScoringConfig { alpha, ..ScoringConfig::default() });
        let q = TklusQuery::new(here, radius, vec!["hotel".into()], usize::MAX, Semantics::Or)
            .expect("valid");
        for ranking in RANKINGS {
            let out = engine.try_query(&q, ranking).expect("fault-free query");
            assert_eq!(out.stats.in_radius, 2, "α {alpha} {ranking:?}");
            let users: Vec<UserId> = out.users.iter().map(|u| u.user).collect();
            assert!(users.contains(&UserId(2)), "α {alpha} {ranking:?}: {users:?}");
            check(&engine, &naive, &q, ranking);
        }
    }
}
