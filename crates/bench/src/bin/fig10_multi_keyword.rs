//! Figure 10 — multi-keyword query efficiency (1–3 keywords × AND/OR ×
//! radii).
//!
//! Paper shape: under OR, more keywords mean more candidates and longer
//! queries; under AND the intersection filters candidates so more keywords
//! run *faster*. The Maximum ranking beats Sum most visibly under OR at
//! large radii (the union leaves more room for pruning), while AND leaves
//! little to prune. "sum ms" is Algorithm 4 as the paper states it
//! (`TklusEngine::try_query_algorithm4`: every thread built, every user
//! blended); "max ms" is Algorithm 5 (`TklusEngine::try_query_max`,
//! hot-keyword bounds).

use tklus_bench::{
    banner, build_engine, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::{BoundsMode, Ranking};
use tklus_metrics::Summary;
use tklus_model::Semantics;

fn main() {
    let flags = parse_flags();
    banner("Figure 10: multi-keyword query efficiency", &flags);
    let corpus = standard_corpus(&flags);
    let (engine, bounds) = build_engine(&corpus, 4);
    let all_specs = query_workload(&corpus);
    let radii = [5.0, 10.0, 20.0, 50.0];
    println!(
        "{:<10} {:<5} {:<9} {:>12} {:>12} {:>12}",
        "radius km", "kw", "semantic", "sum ms", "max ms", "candidates"
    );
    for &radius in &radii {
        for nkw in 1..=3usize {
            let bucket = &all_specs[(nkw - 1) * 30..nkw * 30];
            for semantics in [Semantics::And, Semantics::Or] {
                let mut sum_times = Vec::new();
                let mut max_times = Vec::new();
                let mut cands = Vec::new();
                for spec in bucket.iter().take(flags.queries) {
                    let q = to_query(spec, radius, 5, semantics);
                    let s_sum = engine
                        .try_query_algorithm4(&q, Ranking::Sum)
                        .expect("in-memory query")
                        .stats;
                    let s_max = engine
                        .try_query_max(&q, &bounds, BoundsMode::HotKeywords)
                        .expect("in-memory query")
                        .stats;
                    sum_times.push(ms(s_sum.elapsed));
                    max_times.push(ms(s_max.elapsed));
                    cands.push(s_sum.candidates as f64);
                }
                let s = Summary::of(&sum_times);
                let m = Summary::of(&max_times);
                let c = Summary::of(&cands);
                println!(
                    "{:<10} {:<5} {:<9} {:>12.2} {:>12.2} {:>12.0}",
                    radius,
                    nkw,
                    semantics.to_string(),
                    s.mean,
                    m.mean,
                    c.mean
                );
                csv_row(&[
                    radius.to_string(),
                    nkw.to_string(),
                    semantics.to_string(),
                    format!("{:.4}", s.mean),
                    format!("{:.4}", m.mean),
                    format!("{:.0}", c.mean),
                ]);
            }
        }
    }
    println!("\npaper shape: OR time grows with keyword count, AND time shrinks; Maximum <= Sum, clearest under OR at 20-50 km");
}
