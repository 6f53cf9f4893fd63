//! Shared harness for the per-figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's Section VI on the synthetic corpus (see `tklus-gen` for why and
//! how the corpus substitutes the 514M-tweet crawl). Binaries print a
//! human-readable table plus `csv,`-prefixed machine-readable rows, and
//! accept `--posts`, `--seed`, and `--queries` flags to scale the run.

use std::time::{Duration, Instant};
use tklus_core::{BoundsTable, EngineConfig, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig, QuerySpec};
use tklus_graph::SocialNetwork;
use tklus_index::IndexBuildConfig;
use tklus_model::{Corpus, Semantics, TklusQuery};

/// Command-line flags shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Flags {
    /// Original posts in the synthetic corpus.
    pub posts: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Queries sampled per configuration point.
    pub queries: usize,
}

impl Default for Flags {
    fn default() -> Self {
        Self { posts: 20_000, seed: 0x7B1D5, queries: 10 }
    }
}

/// Parses `--posts N --seed N --queries N` from
/// `std::env::args`. Unknown flags abort with a usage message.
pub fn parse_flags() -> Flags {
    let mut flags = Flags::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> u64 {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("flag {} needs a numeric value", args[i]))
        };
        match args[i].as_str() {
            "--posts" => flags.posts = value(i) as usize,
            "--seed" => flags.seed = value(i),
            "--queries" => flags.queries = value(i) as usize,
            other => panic!("unknown flag {other}; supported: --posts N --seed N --queries N"),
        }
        i += 2;
    }
    flags
}

/// The paper's cluster size (Section VI-A: three machines). The figure and
/// table binaries build their indexes with this many simulated nodes —
/// and so on this many threads — where the product's in-process default is
/// one.
pub const PAPER_NODES: usize = 3;

/// The standard synthetic corpus for a flag set.
pub fn standard_corpus(flags: &Flags) -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: flags.posts,
        users: (flags.posts / 3).max(50),
        seed: flags.seed,
        ..GenConfig::default()
    })
}

/// Builds a full engine over the corpus at the given geohash length, and
/// the Section V-B bounds table Algorithm 5
/// ([`TklusEngine::try_query_max`]) prunes with — the paper's offline
/// step, which the engine itself no longer runs.
///
/// Bounds are precomputed for the top-200 terms rather than the paper's
/// top-10: our multi-keyword queries pair a hot anchor with mid-frequency
/// qualifiers, and the OR-semantics bound (max over per-keyword bounds,
/// Section VI-B5) only bites when the qualifier has a specific bound too —
/// which the paper's own "Mexican restaurant" example assumes. The table
/// is still a few kilobytes.
pub fn build_engine(corpus: &Corpus, geohash_len: usize) -> (TklusEngine, BoundsTable) {
    let config = EngineConfig {
        index: IndexBuildConfig { geohash_len, nodes: PAPER_NODES, ..IndexBuildConfig::default() },
        hot_keywords: 200,
        ..EngineConfig::default()
    };
    let engine = TklusEngine::build(corpus, &config).0;
    let network = SocialNetwork::from_corpus(corpus);
    let bounds = BoundsTable::precompute(
        corpus,
        &network,
        engine.index().vocab(),
        config.hot_keywords,
        &config.scoring,
    );
    (engine, bounds)
}

/// The 90-query workload (30 per keyword count) of Section VI-B1.
pub fn query_workload(corpus: &Corpus) -> Vec<QuerySpec> {
    generate_queries(corpus, &QueryConfig::default())
}

/// Instantiates a spec as a TkLUS query.
pub fn to_query(spec: &QuerySpec, radius_km: f64, k: usize, semantics: Semantics) -> TklusQuery {
    TklusQuery::new(spec.location, radius_km, spec.keywords.clone(), k, semantics)
        .expect("valid query")
}

/// Runs a query and returns its wall time.
pub fn time_query(engine: &TklusEngine, q: &TklusQuery, ranking: Ranking) -> Duration {
    let t = Instant::now();
    let _ = engine.query(q, ranking);
    t.elapsed()
}

/// Milliseconds as f64.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a figure header.
pub fn banner(title: &str, flags: &Flags) {
    println!("== {title} ==");
    println!(
        "corpus: {} original posts, seed {:#x}, {} queries/point",
        flags.posts, flags.seed, flags.queries
    );
}

/// Prints one machine-readable CSV row (prefixed so it is easy to grep).
pub fn csv_row(fields: &[String]) {
    println!("csv,{}", fields.join(","));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_corpus_is_sized_and_deterministic() {
        let flags = Flags { posts: 500, seed: 1, queries: 2 };
        let a = standard_corpus(&flags);
        let b = standard_corpus(&flags);
        assert!(a.len() >= 500);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn workload_has_90_queries() {
        let flags = Flags { posts: 1000, seed: 2, queries: 2 };
        let corpus = standard_corpus(&flags);
        assert_eq!(query_workload(&corpus).len(), 90);
    }

    #[test]
    fn engine_answers_workload_queries() {
        let flags = Flags { posts: 1500, seed: 3, queries: 2 };
        let corpus = standard_corpus(&flags);
        let (engine, _) = build_engine(&corpus, 4);
        let specs = query_workload(&corpus);
        let q = to_query(&specs[0], 20.0, 5, Semantics::Or);
        let (_, stats) = engine.query(&q, Ranking::Sum);
        assert!(stats.cover_cells > 0);
    }
}
