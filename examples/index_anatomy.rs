//! Anatomy of the hybrid index: what Section IV actually builds.
//!
//! Walks through the stack bottom-up on a small corpus: geohash encoding
//! and circle covers, the index build, the forward/inverted split, the
//! postings wire format, and the metadata database's B+-tree access paths —
//! printing what each layer sees.
//!
//! Run with: `cargo run --release --example index_anatomy`

use tklus::core::MetadataDb;
use tklus::gen::{generate_corpus, GenConfig};
use tklus::geo::{circle_cover, cover::circle_cover_with_stats, encode, DistanceMetric, Point};
use tklus::graph::try_build_thread;
use tklus::index::{build_index, IndexBuildConfig};
use tklus::text::TextPipeline;

fn main() {
    let toronto = Point::new_unchecked(43.6839128037, -79.37356590);

    // --- Layer 1: geohash ----------------------------------------------
    println!("## geohash (Section IV-B1)");
    for len in 1..=4 {
        println!("  len {len}: {}", encode(&toronto, len).unwrap());
    }
    let (cover, stats) =
        circle_cover_with_stats(&toronto, 10.0, 4, DistanceMetric::Euclidean).unwrap();
    println!(
        "  10 km circle cover at len 4: {} cells, {:.2}x the circle's area: {}",
        stats.cells,
        stats.overcover_ratio(),
        cover.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(" ")
    );

    // --- Layer 2: the index build (one sort, cut into 3 partitions) -----
    println!("\n## hybrid index build (Algorithms 2-3)");
    let corpus =
        generate_corpus(&GenConfig { original_posts: 3_000, users: 800, ..GenConfig::default() });
    let (index, report) =
        build_index(corpus.posts(), &IndexBuildConfig { nodes: 3, ..IndexBuildConfig::default() });
    println!("  posts: {}", report.posts);
    println!("  <geohash, term> keys: {}", report.keys);
    println!("  postings: {}", report.postings);
    println!(
        "  inverted index: {} bytes across {} partitions",
        report.index_bytes,
        index.partitions().len()
    );
    println!(
        "  forward index in RAM: {} entries, {} bytes",
        index.forward().len(),
        index.forward().size_bytes()
    );
    for (i, part) in index.partitions().iter().enumerate() {
        println!("  partition {i} (one geohash range): {} bytes", part.len());
    }

    // --- Layer 3: one postings list --------------------------------------
    println!("\n## a postings list (Figure 4)");
    let pipeline = TextPipeline::new();
    let stem = pipeline.normalize_keyword("restaurant").unwrap();
    let term = index.vocab().get(&stem).expect("hot keyword indexed");
    let cell = circle_cover(&toronto, 10.0, 4, DistanceMetric::Euclidean)
        .unwrap()
        .into_iter()
        .find(|c| index.postings(*c, term).is_some());
    if let Some(cell) = cell {
        let list = index.postings(cell, term).unwrap();
        println!("  <{cell}, {stem:?}> -> {} postings (first 5):", list.len());
        for p in list.postings().iter().take(5) {
            println!("    tweet {} tf {} refinement {:#06x}", p.id, p.tf, p.refinement);
        }
        let encoded = list.encode(index.refinement()).len();
        println!(
            "  encoded: {} bytes ({:.2} bytes/posting, {} of them the {}-character refinement)",
            encoded,
            encoded as f64 / list.len() as f64,
            if index.refinement() > 0 { 2 } else { 0 },
            index.refinement()
        );
    }

    // --- Layer 4: the metadata database ---------------------------------
    println!("\n## metadata database (Section IV-A)");
    let db = MetadataDb::from_posts(corpus.posts(), 0);
    // Find the most replied-to tweet and build its thread, counting I/O.
    let busiest = corpus
        .posts()
        .iter()
        .filter(|p| !p.is_reply())
        .max_by_key(|p| db.replies_to_ids(p.id).len())
        .expect("non-empty corpus");
    db.io().reset();
    let thread = try_build_thread(&mut db.reader(None), busiest.id, 6).expect("in-memory metadata");
    println!("  busiest root {}: thread levels {:?}", busiest.id, thread.level_sizes());
    println!("  popularity (Definition 4, eps=0.1): {:.3}", thread.popularity(0.1));
    println!(
        "  metadata page reads for this thread: {}  <- the cost Algorithm 5 prunes",
        db.io().page_reads()
    );
}
