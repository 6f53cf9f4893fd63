//! Figure 12 — effect of the specific (hot-keyword) popularity bound on
//! Maximum-score query processing.
//!
//! Paper shape: replacing the global Definition 11 bound with the
//! pre-computed per-hot-keyword bound speeds up queries containing hot
//! keywords under both semantics, and the gain grows with the query range
//! (more candidates → more pruning opportunity). Both columns time
//! Algorithm 5 (`TklusEngine::try_query_max`) over the harness's bounds.

use tklus_bench::{
    banner, build_engine, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::BoundsMode;
use tklus_metrics::Summary;
use tklus_model::Semantics;

fn main() {
    let flags = parse_flags();
    banner("Figure 12: specific popularity bound vs global bound", &flags);
    let corpus = standard_corpus(&flags);
    let (engine, bounds) = build_engine(&corpus, 4);
    // Hot-keyword queries where AND/OR semantics actually differ: the
    // 2- and 3-keyword buckets, which all anchor on a Table II keyword.
    let all_specs = query_workload(&corpus);
    let hot: Vec<_> = all_specs
        .iter()
        .filter(|s| {
            s.keywords.len() >= 2 && tklus_gen::TABLE2_KEYWORDS.contains(&s.keywords[0].as_str())
        })
        .cloned()
        .collect();
    let radii = [5.0, 10.0, 20.0, 50.0];
    println!(
        "{:<10} {:<9} {:>12} {:>12} {:>10} {:>14} {:>14}",
        "radius km", "semantic", "global ms", "hot ms", "speedup", "pruned global", "pruned hot"
    );
    for &radius in &radii {
        for semantics in [Semantics::And, Semantics::Or] {
            let mut g_times = Vec::new();
            let mut h_times = Vec::new();
            let mut g_pruned = 0u64;
            let mut h_pruned = 0u64;
            for spec in hot.iter().take(flags.queries.max(5)) {
                let q = to_query(spec, radius, 5, semantics);
                let run = |mode| engine.try_query_max(&q, &bounds, mode).expect("in-memory query");
                let (g, h) = (run(BoundsMode::Global), run(BoundsMode::HotKeywords));
                let (sg, sh) = (g.stats, h.stats);
                // Pruning must not change results.
                assert_eq!(
                    g.users.iter().map(|r| r.user).collect::<Vec<_>>(),
                    h.users.iter().map(|r| r.user).collect::<Vec<_>>(),
                    "bound mode changed the result set"
                );
                g_times.push(ms(sg.elapsed));
                h_times.push(ms(sh.elapsed));
                g_pruned += sg.threads_pruned as u64;
                h_pruned += sh.threads_pruned as u64;
            }
            let g = Summary::of(&g_times);
            let h = Summary::of(&h_times);
            let speedup = g.mean / h.mean.max(1e-9);
            println!(
                "{:<10} {:<9} {:>12.2} {:>12.2} {:>10.2} {:>14} {:>14}",
                radius,
                semantics.to_string(),
                g.mean,
                h.mean,
                speedup,
                g_pruned,
                h_pruned
            );
            csv_row(&[
                radius.to_string(),
                semantics.to_string(),
                format!("{:.4}", g.mean),
                format!("{:.4}", h.mean),
                format!("{speedup:.3}"),
                g_pruned.to_string(),
                h_pruned.to_string(),
            ]);
        }
    }
    println!("\npaper shape: hot-keyword bounds beat the global bound under both semantics, more so at larger ranges");
}
