//! When do Sum and Maximum rankings disagree — and by how much?
//!
//! Section VI-B3/B4 measures the two rankings' agreement with a padded
//! Kendall tau. This example runs the full workload over a synthetic
//! corpus and prints the agreement per radius and semantics, plus one
//! concrete disagreeing query with both top-5 lists side by side.
//!
//! Run with: `cargo run --release --example ranking_divergence`

use tklus::core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::metrics::padded_kendall_tau;
use tklus::model::{Semantics, TklusQuery, UserId};

fn main() {
    let corpus =
        generate_corpus(&GenConfig { original_posts: 8_000, users: 2_500, ..GenConfig::default() });
    let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
    let specs = generate_queries(&corpus, &QueryConfig::default());

    let mut worst: Option<(f64, TklusQuery, Vec<UserId>, Vec<UserId>)> = None;
    println!("{:<10} {:<9} {:>8} {:>10}", "radius km", "semantic", "queries", "mean tau");
    for radius in [10.0, 20.0, 50.0] {
        for semantics in [Semantics::And, Semantics::Or] {
            let mut taus = Vec::new();
            for spec in specs.iter().step_by(3).take(20) {
                let q = TklusQuery::new(spec.location, radius, spec.keywords.clone(), 5, semantics)
                    .expect("valid query");
                let (sum, _) = engine.query(&q, Ranking::Sum);
                let (max, _) = engine.query(&q, Ranking::Max(BoundsMode::HotKeywords));
                if sum.is_empty() && max.is_empty() {
                    continue;
                }
                let a: Vec<UserId> = sum.iter().map(|r| r.user).collect();
                let b: Vec<UserId> = max.iter().map(|r| r.user).collect();
                let tau = padded_kendall_tau(&a, &b);
                if worst.as_ref().is_none_or(|(w, ..)| tau < *w) {
                    worst = Some((tau, q.clone(), a.clone(), b.clone()));
                }
                taus.push(tau);
            }
            if taus.is_empty() {
                continue;
            }
            let mean = taus.iter().sum::<f64>() / taus.len() as f64;
            println!(
                "{:<10} {:<9} {:>8} {:>10.3}",
                radius,
                semantics.to_string(),
                taus.len(),
                mean
            );
        }
    }

    if let Some((tau, q, sum, max)) = worst {
        println!("\nmost-disagreeing query (tau {tau:.3}):");
        println!(
            "  keywords {:?}, radius {} km, {} semantics",
            q.keywords, q.radius_km, q.semantics
        );
        println!("  {:<4} {:<12} {:<12}", "rank", "sum", "maximum");
        for i in 0..5 {
            let s = sum.get(i).map(|u| u.to_string()).unwrap_or_default();
            let m = max.get(i).map(|u| u.to_string()).unwrap_or_default();
            println!("  #{:<3} {:<12} {:<12}", i + 1, s, m);
        }
        println!("\nSum rewards users with many relevant tweets; Maximum rewards one outstanding thread.");
    }
}
