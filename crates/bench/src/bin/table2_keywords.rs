//! Table II — top-10 frequent keywords.
//!
//! Regenerates the paper's Table II from the synthetic corpus: the ten most
//! frequent dictionary terms after tokenization, stop-wording, and
//! stemming. The generator seeds the paper's exact keywords at the top
//! Zipf ranks, so the reproduced table should list their stems in order.

use tklus_bench::{banner, csv_row, parse_flags, standard_corpus, PAPER_NODES};
use tklus_index::{build_index, IndexBuildConfig};

fn main() {
    let flags = parse_flags();
    banner("Table II: top-10 frequent keywords", &flags);
    let corpus = standard_corpus(&flags);
    let (index, _) = build_index(
        corpus.posts(),
        &IndexBuildConfig { nodes: PAPER_NODES, ..IndexBuildConfig::default() },
    );
    println!("{:<6} {:<16} {:>12}", "rank", "keyword(stem)", "frequency");
    for (rank, (term, freq)) in index.vocab().top_terms(10).into_iter().enumerate() {
        let word = index.vocab().term(term).expect("top term interned");
        println!("{:<6} {:<16} {:>12}", rank + 1, word, freq);
        csv_row(&[(rank + 1).to_string(), word.to_string(), freq.to_string()]);
    }
    println!("\npaper Table II: restaurant game cafe shop hotel club coffee film pizza mall");
}
