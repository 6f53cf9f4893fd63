//! Figure 9 — Kendall tau between Sum and Maximum rankings, single
//! keyword.
//!
//! Paper shape: across radii 5–100 km and k ∈ {5, 10}, the padded Kendall
//! tau stays above ~0.86 — the two ranking functions are highly
//! consistent.

use tklus_bench::{
    banner, build_engine, csv_row, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::{BoundsMode, Ranking};
use tklus_metrics::{padded_kendall_tau, Summary};
use tklus_model::Semantics;

fn main() {
    let flags = parse_flags();
    banner("Figure 9: Kendall tau (Sum vs Maximum), single keyword", &flags);
    let corpus = standard_corpus(&flags);
    let (engine, _) = build_engine(&corpus, 4);
    let specs: Vec<_> = query_workload(&corpus).into_iter().take(30).collect();
    let radii = [5.0, 10.0, 20.0, 50.0, 100.0];
    println!("{:<10} {:>12} {:>12}", "radius km", "tau top-5", "tau top-10");
    for &radius in &radii {
        let mut taus5 = Vec::new();
        let mut taus10 = Vec::new();
        for spec in specs.iter().take(flags.queries) {
            for (k, taus) in [(5usize, &mut taus5), (10usize, &mut taus10)] {
                let q = to_query(spec, radius, k, Semantics::Or);
                let (sum, _) = engine.query(&q, Ranking::Sum);
                let (max, _) = engine.query(&q, Ranking::Max(BoundsMode::HotKeywords));
                if sum.is_empty() && max.is_empty() {
                    continue;
                }
                let a: Vec<_> = sum.iter().map(|r| r.user).collect();
                let b: Vec<_> = max.iter().map(|r| r.user).collect();
                taus.push(padded_kendall_tau(&a, &b));
            }
        }
        if taus5.is_empty() {
            println!("{:<10} {:>12} {:>12}", radius, "n/a", "n/a");
            continue;
        }
        let t5 = Summary::of(&taus5);
        let t10 = Summary::of(&taus10);
        println!("{:<10} {:>12.3} {:>12.3}", radius, t5.mean, t10.mean);
        csv_row(&[radius.to_string(), format!("{:.4}", t5.mean), format!("{:.4}", t10.mean)]);
    }
    println!("\npaper shape: tau > 0.86 at every radius for both k=5 and k=10");
}
