//! Quickstart: build a TkLUS engine over a small synthetic corpus and ask
//! the paper's running-example question — "who are the top local users for
//! 'hotel' within 10 km of downtown Toronto?"
//!
//! Run with: `cargo run --release --example quickstart`

use tklus::core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus::gen::{generate_corpus, GenConfig};
use tklus::geo::Point;
use tklus::model::{Semantics, TklusQuery};

fn main() {
    // 1. A deterministic synthetic corpus (stand-in for the paper's
    //    crawled geo-tagged tweets): city-clustered locations, Zipfian
    //    keywords, reply/forward cascades.
    let corpus =
        generate_corpus(&GenConfig { original_posts: 5_000, users: 1_500, ..GenConfig::default() });
    println!("corpus: {} posts by {} users", corpus.len(), corpus.user_count());

    // 2. Build the engine: MapReduce hybrid index (geohash + term keys over
    //    a simulated 3-node DFS) and metadata database (B+-trees on sid,
    //    rsid, uid).
    let (engine, report) = TklusEngine::build(&corpus, &EngineConfig::default());
    println!(
        "index: {} keys, {} postings, {} bytes on the simulated DFS (built in {:?})",
        report.keys, report.postings, report.index_bytes, report.total_time
    );

    // 3. The TkLUS query of Section II-B: location, radius, keywords, k.
    let query = TklusQuery::new(
        Point::new_unchecked(43.6839128037, -79.37356590), // downtown Toronto
        10.0,                                              // 10 km
        vec!["hotel".into()],
        5,
        Semantics::Or,
    )
    .expect("valid query");

    // 4. Answer it with both ranking methods: Algorithm 4's scored tweets,
    //    folded per user by sum or by maximum.
    for (name, ranking) in [
        ("Sum score (Definition 7)", Ranking::Sum),
        ("Maximum score (Definition 8)", Ranking::Max(BoundsMode::HotKeywords)),
    ] {
        let (top, stats) = engine.query(&query, ranking);
        println!("\n{name}:");
        for (rank, r) in top.iter().enumerate() {
            println!("  #{:<2} {}  score {:.4}", rank + 1, r.user, r.score);
        }
        println!(
            "  [{} candidates, {} threads built, {:.2} ms]",
            stats.candidates,
            stats.threads_built,
            stats.elapsed.as_secs_f64() * 1e3
        );
    }
}
