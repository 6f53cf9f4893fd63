//! Tier-1 pin on the metadata read path: a fixed corpus and query set pay
//! exactly the committed number of metadata page reads, and reading the
//! sealed trees through a live overlay answers like one set of trees.
//!
//! The totals are exact counts (no cache, DESIGN.md §9), so any change to
//! the order or number of page reads a query makes — a cursor that skips
//! a read it must make or makes one it need not — moves them. They were
//! measured on the read path that copied every page out of the store and
//! collected every scan into a vector; the path that reads pages in place
//! must reproduce them read for read.

use tklus::core::{
    BoundsMode, BoundsTable, EngineConfig, LiveMetadata, RankedUser, Ranking, TklusEngine,
};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::graph::SocialNetwork;
use tklus::model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};

/// Metadata page reads of every query in [`queries`] through
/// `try_query`, Sum then Max, over the whole corpus.
const PRODUCT_READS: u64 = 9_386;
/// The same queries through Algorithm 5 (`try_query_max`, hot-keyword
/// bounds).
const ALGORITHM_5_READS: u64 = 5_037;
/// The row half and the fold of every query over the sealed trees of the
/// older posts with the newer ones as a live overlay.
const OVERLAY_READS: u64 = 5_073;

fn corpus() -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: 4_000,
        users: 1_000,
        seed: 0x005E_ED48,
        ..GenConfig::default()
    })
}

/// Every generated location and 1- to 3-keyword set, under OR and AND,
/// at radius 2, 10 and 30 km.
fn queries(corpus: &Corpus) -> Vec<TklusQuery> {
    let specs = generate_queries(corpus, &QueryConfig { per_bucket: 4, seed: 0x48 });
    let mut out = Vec::new();
    for spec in &specs {
        for radius in [2.0, 10.0, 30.0] {
            for semantics in [Semantics::Or, Semantics::And] {
                out.push(
                    TklusQuery::new(spec.location, radius, spec.keywords.clone(), 5, semantics)
                        .expect("generated query is valid"),
                );
            }
        }
    }
    out
}

fn bits(users: &[RankedUser]) -> Vec<(UserId, u64)> {
    users.iter().map(|r| (r.user, r.score.to_bits())).collect()
}

#[test]
fn metadata_page_reads_are_pinned() {
    let corpus = corpus();
    let config = EngineConfig { hot_keywords: 200, ..EngineConfig::default() };
    let (engine, _) = TklusEngine::try_build(&corpus, &config).expect("in-memory build");
    let network = SocialNetwork::from_corpus(&corpus);
    let table = BoundsTable::precompute(
        &corpus,
        &network,
        engine.index().vocab(),
        config.hot_keywords,
        &config.scoring,
    );
    let (mut product, mut algorithm_5, mut answered) = (0, 0, 0);
    for q in queries(&corpus) {
        let max = Ranking::Max(BoundsMode::HotKeywords);
        for ranking in [Ranking::Sum, max] {
            let out = engine.try_query(&q, ranking).expect("fault-free query");
            product += out.stats.metadata_page_reads;
            answered += usize::from(!out.users.is_empty());
        }
        let out = engine.try_query_max(&q, &table, BoundsMode::HotKeywords).expect("fault-free");
        algorithm_5 += out.stats.metadata_page_reads;
    }
    assert!(answered > 50, "only {answered} answers: the pin is vacuous");
    assert_eq!(
        (product, algorithm_5),
        (PRODUCT_READS, ALGORITHM_5_READS),
        "metadata page reads (product, Algorithm 5) moved"
    );
}

#[test]
fn a_live_overlay_reads_like_one_set_of_trees() {
    let corpus = corpus();
    let config = EngineConfig::default();
    let (whole, _) = TklusEngine::try_build(&corpus, &config).expect("in-memory build");
    // The newest fifth is live: its replies extend sealed threads and its
    // authors have sealed posts too.
    let posts = corpus.posts();
    let cut = posts.len() * 4 / 5;
    let sealed_posts: Vec<Post> = posts[..cut].to_vec();
    let mut live = LiveMetadata::default();
    for post in &posts[cut..] {
        live.insert(post);
    }
    let sealed_ids: std::collections::HashSet<TweetId> =
        sealed_posts.iter().map(|p| p.id).collect();
    let sealed_corpus = Corpus::new(sealed_posts).expect("distinct ids");
    let (sealed, _) = TklusEngine::try_build(&sealed_corpus, &config).expect("in-memory build");
    let (mut reads, mut rows_seen) = (0, 0);
    for q in queries(&corpus) {
        let all = whole.try_partial_sum(&q, None).expect("fault-free").rows;
        let part = sealed.try_partial_sum(&q, Some(&live)).expect("fault-free");
        reads += part.stats.metadata_page_reads;
        // A sealed candidate's thread counts its live replies: its row is
        // the whole engine's, bit for bit.
        let want: Vec<_> = all.iter().filter(|r| sealed_ids.contains(&r.tweet)).copied().collect();
        assert_eq!(part.rows, want, "{:?}", q.keywords);
        rows_seen += want.len();
        for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
            let (got, stats) = sealed.try_rank_rows(&q, ranking, &all, Some(&live)).expect("ok");
            let (want, _) = whole.try_rank_rows(&q, ranking, &all, None).expect("fault-free");
            assert_eq!(bits(&got), bits(&want), "{ranking:?} {:?}", q.keywords);
            reads += stats.metadata_page_reads;
        }
    }
    assert!(rows_seen > 100, "only {rows_seen} sealed rows: the comparison is vacuous");
    assert_eq!(reads, OVERLAY_READS, "metadata page reads through the overlay moved");
}
