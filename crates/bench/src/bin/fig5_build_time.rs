//! Figure 5 — index construction time vs geohash encoding length.
//!
//! Paper shape: construction time is *insensitive* to the geohash length
//! ("steady around 850 minutes"), and the MapReduce build handles an order
//! of magnitude more tweets per unit time than the centralized
//! state-of-the-art (I³, quoted numbers). Here both builders run on the
//! same corpus: the distributed build ([`PAPER_NODES`] simulated nodes)
//! should stay flat across lengths 1–4, tracking or beating the sequential
//! centralized baseline, and both report identical logical index contents.

use tklus_bench::{banner, csv_row, ms, parse_flags, standard_corpus, PAPER_NODES};
use tklus_index::{baseline::build_centralized, build_index, IndexBuildConfig};

fn main() {
    let flags = parse_flags();
    banner("Figure 5: index construction time vs geohash length", &flags);
    let corpus = standard_corpus(&flags);
    println!("total posts (originals + responses): {}", corpus.len());
    println!("mapreduce build: {PAPER_NODES} nodes (map tasks = reduce tasks = threads)");
    println!(
        "{:<8} {:>16} {:>16} {:>12} {:>12}",
        "length", "mapreduce ms", "centralized ms", "keys", "postings"
    );
    for len in 1..=4usize {
        let config = IndexBuildConfig {
            geohash_len: len,
            nodes: PAPER_NODES,
            ..IndexBuildConfig::default()
        };
        let (_, dist) = build_index(corpus.posts(), &config);
        let (_, cent) = build_centralized(corpus.posts(), len, config.block_size);
        assert_eq!(dist.keys, cent.keys, "both builders must agree on index contents");
        println!(
            "{:<8} {:>16.1} {:>16.1} {:>12} {:>12}",
            len,
            ms(dist.total_time),
            ms(cent.total_time),
            dist.keys,
            dist.postings
        );
        csv_row(&[
            len.to_string(),
            format!("{:.3}", ms(dist.total_time)),
            format!("{:.3}", ms(cent.total_time)),
            dist.keys.to_string(),
            dist.postings.to_string(),
        ]);
    }
    println!("\npaper shape: flat (~850 min) across lengths 1-4; MapReduce build scales past centralized builders");
}
