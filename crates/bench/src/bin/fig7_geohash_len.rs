//! Figure 7 — effect of geohash encoding length on query processing.
//!
//! Paper shape: for city-scale radii (5–20 km), longer encodings win —
//! shorter encodings mean giant cells whose postings are mostly outside
//! the query circle, so the processor wades through far more candidates.
//! The reproduction runs the same random queries against indexes built at
//! lengths 1–4 and reports mean query time and candidate counts.

use tklus_bench::{
    banner, build_engine, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::Ranking;
use tklus_metrics::Summary;
use tklus_model::Semantics;

fn main() {
    let flags = parse_flags();
    banner("Figure 7: effect of geohash encoding length", &flags);
    let corpus = standard_corpus(&flags);
    let specs = query_workload(&corpus);
    let radii = [5.0, 10.0, 15.0, 20.0];
    println!(
        "{:<8} {:>10} {:>14} {:>12} {:>12}",
        "length", "radius km", "mean ms", "candidates", "cover cells"
    );
    for len in 1..=4usize {
        let (engine, _) = build_engine(&corpus, len);
        for &radius in &radii {
            let mut times = Vec::new();
            let mut cands = Vec::new();
            let mut cells = Vec::new();
            for spec in specs.iter().take(flags.queries) {
                let q = to_query(spec, radius, 5, Semantics::Or);
                let (_, stats) = engine.query(&q, Ranking::Sum);
                times.push(ms(stats.elapsed));
                cands.push(stats.candidates as f64);
                cells.push(stats.cover_cells as f64);
            }
            let t = Summary::of(&times);
            let c = Summary::of(&cands);
            let g = Summary::of(&cells);
            println!(
                "{:<8} {:>10} {:>14.2} {:>12.0} {:>12.0}",
                len, radius, t.mean, c.mean, g.mean
            );
            csv_row(&[
                len.to_string(),
                radius.to_string(),
                format!("{:.4}", t.mean),
                format!("{:.0}", c.mean),
                format!("{:.0}", g.mean),
            ]);
        }
    }
    println!("\npaper shape: longer encodings process fewer out-of-range candidates and answer faster at 5-20 km radii");
}
