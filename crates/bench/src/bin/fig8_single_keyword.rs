//! Figure 8 — single-keyword query efficiency, Sum vs Maximum ranking.
//!
//! Paper shape: both rankings slow down as the radius grows from 5 to
//! 100 km; they are close at ≤20 km, and the Maximum ranking pulls ahead at
//! large radii because its upper-bound prune skips thread construction for
//! candidates that cannot reach the top-k — and pruning has more to prune
//! when the range holds more candidates.
//!
//! "sum ms" is the paper's Algorithm 4
//! ([`TklusEngine::try_query_algorithm4`]: every thread built, every user
//! blended). "max ms" is the paper's Algorithm 5
//! ([`TklusEngine::try_query_max`], hot-keyword bounds), whose threads and
//! pruned counts the last two columns report. "max fold ms" is the
//! product's Maximum ranking (`try_query`): Algorithm 4's unpruned rows
//! folded by `max`, φ read from the engine's column and the blend bounded,
//! the same answer.
//!
//! [`TklusEngine::try_query_algorithm4`]: tklus_core::TklusEngine::try_query_algorithm4
//! [`TklusEngine::try_query_max`]: tklus_core::TklusEngine::try_query_max

use tklus_bench::{
    banner, build_engine, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::{BoundsMode, Ranking};
use tklus_metrics::Summary;
use tklus_model::Semantics;

fn main() {
    let flags = parse_flags();
    banner("Figure 8: single-keyword query efficiency (Sum vs Maximum)", &flags);
    let corpus = standard_corpus(&flags);
    let (engine, bounds) = build_engine(&corpus, 4);
    // Single-keyword bucket of the workload.
    let specs: Vec<_> = query_workload(&corpus).into_iter().take(30).collect();
    let radii = [5.0, 10.0, 20.0, 50.0, 100.0];
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "radius km", "sum ms", "max ms", "speedup", "max fold ms", "threads", "pruned"
    );
    for &radius in &radii {
        let mut sum_times = Vec::new();
        let mut max_times = Vec::new();
        let mut fold_times = Vec::new();
        let mut built = 0u64;
        let mut pruned = 0u64;
        for spec in specs.iter().take(flags.queries) {
            let q = to_query(spec, radius, 5, Semantics::Or);
            let s_sum =
                engine.try_query_algorithm4(&q, Ranking::Sum).expect("in-memory query").stats;
            let s_max = engine
                .try_query_max(&q, &bounds, BoundsMode::HotKeywords)
                .expect("in-memory query")
                .stats;
            let (_, s_fold) = engine.query(&q, Ranking::Max(BoundsMode::HotKeywords));
            sum_times.push(ms(s_sum.elapsed));
            max_times.push(ms(s_max.elapsed));
            fold_times.push(ms(s_fold.elapsed));
            built += s_max.threads_built as u64;
            pruned += s_max.threads_pruned as u64;
        }
        let s = Summary::of(&sum_times);
        let m = Summary::of(&max_times);
        let f = Summary::of(&fold_times);
        let speedup = s.mean / m.mean.max(1e-9);
        println!(
            "{:<10} {:>12.2} {:>12.2} {:>10.2} {:>12.2} {:>12} {:>12}",
            radius, s.mean, m.mean, speedup, f.mean, built, pruned
        );
        csv_row(&[
            radius.to_string(),
            format!("{:.4}", s.mean),
            format!("{:.4}", m.mean),
            format!("{speedup:.3}"),
            format!("{:.4}", f.mean),
            built.to_string(),
            pruned.to_string(),
        ]);
    }
    println!("\npaper shape: close at <=20 km; Maximum clearly faster at 50-100 km thanks to upper-bound pruning");
}
