//! Figure 6 — index size vs geohash encoding length.
//!
//! Paper shape: the index occupies about the same space (≈3.5 GB for 514M
//! tweets) regardless of the geohash configuration — postings dominate and
//! their total count is invariant to how finely cells split them. The
//! reproduction reports the inverted index's partition bytes plus the
//! in-memory forward-index footprint per length.

use tklus_bench::{banner, csv_row, parse_flags, standard_corpus, PAPER_NODES};
use tklus_index::{build_index, IndexBuildConfig};

fn main() {
    let flags = parse_flags();
    banner("Figure 6: index size vs geohash length", &flags);
    let corpus = standard_corpus(&flags);
    println!(
        "{:<8} {:>16} {:>14} {:>12} {:>18}",
        "length", "inverted bytes", "forward bytes", "keys", "bytes/posting"
    );
    for len in 1..=4usize {
        let config = IndexBuildConfig {
            geohash_len: len,
            nodes: PAPER_NODES,
            ..IndexBuildConfig::default()
        };
        let (index, report) = build_index(corpus.posts(), &config);
        let per_posting = report.index_bytes as f64 / report.postings.max(1) as f64;
        println!(
            "{:<8} {:>16} {:>14} {:>12} {:>18.2}",
            len,
            report.index_bytes,
            index.forward().size_bytes(),
            report.keys,
            per_posting
        );
        csv_row(&[
            len.to_string(),
            report.index_bytes.to_string(),
            index.forward().size_bytes().to_string(),
            report.keys.to_string(),
            format!("{per_posting:.2}"),
        ]);
    }
    println!("\npaper shape: size steady (~3.5 GB) across geohash lengths; forward index stays small enough for RAM");
}
