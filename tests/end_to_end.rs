//! Cross-crate integration tests: the whole pipeline from synthetic corpus
//! through index build to query answers, checked against a brute-force
//! reference implementation of the paper's definitions.

use std::collections::HashMap;
use tklus::core::{BoundsMode, BoundsTable, EngineConfig, RankedUser, Ranking, TklusEngine};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::geo::Point;
use tklus::graph::{build_thread, SocialNetwork};
use tklus::model::{Corpus, ScoringConfig, Semantics, TklusQuery, UserId};
use tklus::text::TextPipeline;

fn small_corpus(seed: u64) -> Corpus {
    generate_corpus(&GenConfig { original_posts: 1_500, users: 400, seed, ..GenConfig::default() })
}

/// Brute-force reference: score every user directly from the corpus by
/// Definitions 4–10, with no index, no pruning, no database.
fn reference_topk(
    corpus: &Corpus,
    q: &TklusQuery,
    use_max: bool,
    config: &ScoringConfig,
) -> Vec<(UserId, f64)> {
    let pipeline = TextPipeline::new();
    let network = SocialNetwork::from_corpus(corpus);
    let stems: Vec<String> =
        q.keywords.iter().filter_map(|k| pipeline.normalize_keyword(k)).collect();
    let mut per_user: HashMap<UserId, f64> = HashMap::new();
    for post in corpus.posts() {
        let d = q.location.distance_km(&post.location, config.metric);
        if d > q.radius_km {
            continue;
        }
        let terms = pipeline.terms(&post.text);
        let occurrences: u32 =
            stems.iter().map(|s| terms.iter().filter(|t| *t == s).count() as u32).sum();
        let qualifies = match q.semantics {
            Semantics::And => stems.iter().all(|s| terms.contains(s)) && !stems.is_empty(),
            Semantics::Or => occurrences > 0,
        };
        if !qualifies {
            continue;
        }
        let mut provider = &network;
        let phi =
            build_thread(&mut provider, post.id, config.thread_depth).popularity(config.epsilon);
        let rho = occurrences as f64 / config.keyword_norm * phi;
        let entry = per_user.entry(post.user).or_insert(0.0);
        if use_max {
            if rho > *entry {
                *entry = rho;
            }
        } else {
            *entry += rho;
        }
    }
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
    scored
}

#[test]
fn engine_matches_brute_force_reference() {
    let corpus = small_corpus(0xAB);
    let config = EngineConfig::default();
    let (engine, _) = TklusEngine::build(&corpus, &config);
    let specs = generate_queries(&corpus, &QueryConfig::default());
    let mut compared = 0;
    for spec in specs.iter().step_by(7).take(8) {
        for semantics in [Semantics::And, Semantics::Or] {
            let q =
                TklusQuery::new(spec.location, 25.0, spec.keywords.clone(), 5, semantics).unwrap();
            for (ranking, use_max) in
                [(Ranking::Sum, false), (Ranking::Max(BoundsMode::HotKeywords), true)]
            {
                let (got, _) = engine.query(&q, ranking);
                let want = reference_topk(&corpus, &q, use_max, &config.scoring);
                assert_eq!(got.len(), want.len(), "{:?} {semantics:?} {ranking:?}", spec.keywords);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.user, w.0, "{:?} {semantics:?} {ranking:?}", spec.keywords);
                    assert!((g.score - w.1).abs() < 1e-9, "{} vs {}", g.score, w.1);
                }
                compared += 1;
            }
        }
    }
    assert!(compared >= 16, "enough query/ranking pairs compared ({compared})");
}

#[test]
fn pruning_never_changes_results() {
    // Algorithm 5 under the global and the hot-keyword bounds returns the
    // product's Max answer (the unpruned fold) in users and score bits,
    // and its prune fires somewhere, so the comparison is not vacuous.
    let corpus = small_corpus(0xCD);
    let config = EngineConfig { hot_keywords: 200, ..EngineConfig::default() };
    let (engine, _) = TklusEngine::build(&corpus, &config);
    let network = SocialNetwork::from_corpus(&corpus);
    let table = BoundsTable::precompute(
        &corpus,
        &network,
        engine.index().vocab(),
        config.hot_keywords,
        &config.scoring,
    );
    let bits = |users: &[RankedUser]| users.iter().map(|r| (r.user, r.score.to_bits())).collect();
    let mut pruned = 0;
    let specs = generate_queries(&corpus, &QueryConfig::default());
    for spec in specs.iter().step_by(7).take(6) {
        for (radius, k) in [(10.0, 5), (50.0, 5), (10.0, 1), (50.0, 1)] {
            let q = TklusQuery::new(spec.location, radius, spec.keywords.clone(), k, Semantics::Or)
                .unwrap();
            let (folded, _) = engine.query(&q, Ranking::Max(BoundsMode::HotKeywords));
            let want: Vec<(UserId, u64)> = bits(&folded);
            for mode in [BoundsMode::Global, BoundsMode::HotKeywords] {
                let out = engine.try_query_max(&q, &table, mode).unwrap();
                assert_eq!(bits(&out.users), want, "{mode:?} changed {:?}", spec.keywords);
                pruned += out.stats.threads_pruned;
            }
        }
    }
    assert!(pruned > 0, "Algorithm 5 pruned nothing: the comparison is vacuous");
}

#[test]
fn returned_users_always_qualify() {
    // Problem Definition condition 1 holds for every returned user.
    let corpus = small_corpus(0xEF);
    let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
    let pipeline = TextPipeline::new();
    let specs = generate_queries(&corpus, &QueryConfig::default());
    for spec in specs.iter().step_by(9).take(10) {
        let q =
            TklusQuery::new(spec.location, 20.0, spec.keywords.clone(), 10, Semantics::Or).unwrap();
        let stems: Vec<String> =
            q.keywords.iter().filter_map(|k| pipeline.normalize_keyword(k)).collect();
        let (top, _) = engine.query(&q, Ranking::Sum);
        for r in &top {
            let ok = corpus.posts_of(r.user).any(|p| {
                q.location.euclidean_km(&p.location) <= q.radius_km
                    && pipeline.terms(&p.text).iter().any(|t| stems.contains(t))
            });
            assert!(ok, "user {} in top-k without a qualifying post", r.user);
        }
    }
}

#[test]
fn and_results_subset_of_or_candidates() {
    let corpus = small_corpus(0x11);
    let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
    let specs = generate_queries(&corpus, &QueryConfig::default());
    // Multi-keyword specs only.
    for spec in specs.iter().filter(|s| s.keywords.len() >= 2).step_by(5).take(6) {
        let and_q = TklusQuery::new(spec.location, 30.0, spec.keywords.clone(), 50, Semantics::And)
            .unwrap();
        let or_q =
            TklusQuery::new(spec.location, 30.0, spec.keywords.clone(), 50, Semantics::Or).unwrap();
        let (_, and_stats) = engine.query(&and_q, Ranking::Sum);
        let (_, or_stats) = engine.query(&or_q, Ranking::Sum);
        assert!(
            and_stats.candidates <= or_stats.candidates,
            "AND candidates ({}) exceed OR ({})",
            and_stats.candidates,
            or_stats.candidates
        );
    }
}

#[test]
fn geohash_length_does_not_change_results() {
    // The index's geohash length is a performance knob, never a
    // correctness knob: results are identical across lengths.
    let corpus = small_corpus(0x22);
    let specs = generate_queries(&corpus, &QueryConfig::default());
    let mut engines: Vec<TklusEngine> = (2..=5)
        .map(|len| {
            let config = EngineConfig {
                index: tklus::index::IndexBuildConfig { geohash_len: len, ..Default::default() },
                ..EngineConfig::default()
            };
            TklusEngine::build(&corpus, &config).0
        })
        .collect();
    for spec in specs.iter().step_by(13).take(5) {
        let q =
            TklusQuery::new(spec.location, 15.0, spec.keywords.clone(), 5, Semantics::Or).unwrap();
        let reference: Vec<UserId> =
            engines[0].query(&q, Ranking::Sum).0.iter().map(|r| r.user).collect();
        for engine in engines.iter_mut().skip(1) {
            let got: Vec<UserId> =
                engine.query(&q, Ranking::Sum).0.iter().map(|r| r.user).collect();
            assert_eq!(got, reference, "length changed the answer for {:?}", spec.keywords);
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let corpus = small_corpus(0x33);
        let (engine, report) = TklusEngine::build(&corpus, &EngineConfig::default());
        let specs = generate_queries(&corpus, &QueryConfig::default());
        let q =
            TklusQuery::new(specs[0].location, 20.0, specs[0].keywords.clone(), 5, Semantics::Or)
                .unwrap();
        let (top, _) = engine.query(&q, Ranking::Sum);
        (
            report.keys,
            report.index_bytes,
            top.iter().map(|r| (r.user, r.score.to_bits())).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run(), "whole pipeline is deterministic");
}
