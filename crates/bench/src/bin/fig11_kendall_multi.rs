//! Figure 11 — Kendall tau between Sum and Maximum rankings,
//! multi-keyword queries under AND/OR.
//!
//! Paper shape: AND stays above ~0.95 at every radius; OR dips lower
//! (slightly below 0.8 at worst) but the rankings remain consistent.

use tklus_bench::{
    banner, build_engine, csv_row, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::{BoundsMode, Ranking};
use tklus_metrics::{padded_kendall_tau, Summary};
use tklus_model::Semantics;

fn main() {
    let flags = parse_flags();
    banner("Figure 11: Kendall tau (Sum vs Maximum), multi-keyword", &flags);
    let corpus = standard_corpus(&flags);
    let (engine, _) = build_engine(&corpus, 4);
    let all_specs = query_workload(&corpus);
    let radii = [5.0, 10.0, 20.0, 50.0];
    println!(
        "{:<10} {:<5} {:<9} {:>12} {:>12}",
        "radius km", "kw", "semantic", "tau top-5", "tau top-10"
    );
    for &radius in &radii {
        for nkw in 2..=3usize {
            let bucket = &all_specs[(nkw - 1) * 30..nkw * 30];
            for semantics in [Semantics::And, Semantics::Or] {
                let mut taus5 = Vec::new();
                let mut taus10 = Vec::new();
                for spec in bucket.iter().take(flags.queries) {
                    for (k, taus) in [(5usize, &mut taus5), (10usize, &mut taus10)] {
                        let q = to_query(spec, radius, k, semantics);
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
                let (m5, m10) = match (taus5.is_empty(), taus10.is_empty()) {
                    (false, false) => (Summary::of(&taus5).mean, Summary::of(&taus10).mean),
                    _ => {
                        println!(
                            "{:<10} {:<5} {:<9} {:>12} {:>12}",
                            radius,
                            nkw,
                            semantics.to_string(),
                            "n/a",
                            "n/a"
                        );
                        continue;
                    }
                };
                println!(
                    "{:<10} {:<5} {:<9} {:>12.3} {:>12.3}",
                    radius,
                    nkw,
                    semantics.to_string(),
                    m5,
                    m10
                );
                csv_row(&[
                    radius.to_string(),
                    nkw.to_string(),
                    semantics.to_string(),
                    format!("{m5:.4}"),
                    format!("{m10:.4}"),
                ]);
            }
        }
    }
    println!("\npaper shape: AND tau >= ~0.95 everywhere; OR tau lower (worst slightly below 0.8) but still consistent");
}
