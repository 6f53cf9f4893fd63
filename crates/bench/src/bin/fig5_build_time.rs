//! Figure 5 — index construction time vs geohash encoding length.
//!
//! Paper shape: construction time is *insensitive* to the geohash length
//! ("steady around 850 minutes"), and the MapReduce build handles an order
//! of magnitude more tweets per unit time than the centralized
//! state-of-the-art (I³, quoted numbers). Here two builders run on the
//! same corpus: the MapReduce job ([`run_job`], [`PAPER_NODES`] map and
//! reduce tasks) and, as the centralized column, the product's build — one
//! sort on one thread into one partition. Both must lay out the same
//! postings bytes.

use tklus_bench::mapreduce::run_job;
use tklus_bench::{banner, csv_row, ms, parse_flags, standard_corpus, PAPER_NODES};
use tklus_index::{build_index, IndexBuildConfig};

fn main() {
    let flags = parse_flags();
    banner("Figure 5: index construction time vs geohash length", &flags);
    let corpus = standard_corpus(&flags);
    println!("total posts (originals + responses): {}", corpus.len());
    println!("mapreduce build: {PAPER_NODES} nodes (map tasks = reduce tasks = threads)");
    println!("centralized build: the product's, one sort on one thread");
    println!(
        "{:<8} {:>16} {:>16} {:>12} {:>12}",
        "length", "mapreduce ms", "centralized ms", "keys", "postings"
    );
    for len in 1..=4usize {
        let (dist_index, dist) = run_job(corpus.posts(), len, PAPER_NODES);
        let config = IndexBuildConfig { geohash_len: len, ..IndexBuildConfig::default() };
        let (cent_index, cent) = build_index(corpus.posts(), &config);
        assert_eq!(
            dist_index.partitions().concat(),
            cent_index.partitions().concat(),
            "both builders must lay out the same postings bytes"
        );
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
