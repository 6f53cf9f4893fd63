//! Extension experiment (not a paper figure): temporal TkLUS.
//!
//! Section VIII sketches two temporal extensions — period-restricted
//! queries and recency-prioritized ranking — which this reproduction
//! implements. This harness measures:
//!
//! * window selectivity: query cost as the time window narrows (the window
//!   filter runs before any metadata I/O, so cost should fall with
//!   selectivity), timed through Algorithm 4 as the paper states it
//!   (`TklusEngine::try_query_algorithm4`: every thread built);
//! * recency's effect on Algorithm 5's pruning, beside the same queries
//!   without a bias, timed through `TklusEngine::try_query_max` over the
//!   harness's bounds. The decay factor tightens each tweet's upper bound,
//!   but it shrinks the scores that set the k-th place more: candidates
//!   are visited in tweet-id order, oldest first, so the running k-th
//!   score is built from the most decayed rows while the newer tweets
//!   that follow keep bounds near the plain ones. Recency prunes less, and
//!   at short half-lives nothing;
//! * result churn: Kendall tau between the timeless and recency-biased
//!   rankings.

use tklus_bench::{
    banner, build_engine, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::{BoundsMode, QueryOutcome, Ranking};
use tklus_metrics::{padded_kendall_tau, Summary};
use tklus_model::{Semantics, TklusQuery};

fn main() {
    let flags = parse_flags();
    banner("Extension: temporal TkLUS (window selectivity and recency)", &flags);
    let corpus = standard_corpus(&flags);
    let (engine, bounds) = build_engine(&corpus, 4);
    let alg5 = |q: &TklusQuery| -> QueryOutcome {
        engine.try_query_max(q, &bounds, BoundsMode::HotKeywords).expect("in-memory query")
    };
    let specs: Vec<_> = query_workload(&corpus).into_iter().take(flags.queries.max(5)).collect();
    let max_ts = corpus.posts().last().expect("non-empty corpus").id.0;

    // --- Window selectivity sweep.
    println!("\nwindow selectivity (radius 50 km, Sum ranking):");
    println!("{:<12} {:>12} {:>12} {:>14}", "window", "mean ms", "threads", "page reads");
    for &fraction in &[1.0f64, 0.5, 0.25, 0.1, 0.01] {
        let hi = max_ts;
        let lo = max_ts - (max_ts as f64 * fraction) as u64;
        let mut times = Vec::new();
        let mut threads = 0u64;
        let mut reads = 0u64;
        for spec in &specs {
            let q = to_query(spec, 50.0, 5, Semantics::Or)
                .with_time_range(lo, hi)
                .expect("valid window");
            let stats =
                engine.try_query_algorithm4(&q, Ranking::Sum).expect("in-memory query").stats;
            times.push(ms(stats.elapsed));
            threads += stats.threads_built as u64;
            reads += stats.metadata_page_reads;
        }
        let t = Summary::of(&times);
        println!(
            "{:<12} {:>12.2} {:>12} {:>14}",
            format!("last {:.0}%", fraction * 100.0),
            t.mean,
            threads,
            reads
        );
        csv_row(&[
            "window".into(),
            format!("{fraction}"),
            format!("{:.4}", t.mean),
            threads.to_string(),
            reads.to_string(),
        ]);
    }

    // --- Recency: pruning and ranking churn.
    println!("\nrecency bias (radius 50 km, Maximum ranking, hot bounds):");
    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>12}",
        "half-life", "mean ms", "built", "pruned", "tau vs plain"
    );
    let plain: Vec<QueryOutcome> =
        specs.iter().map(|spec| alg5(&to_query(spec, 50.0, 5, Semantics::Or))).collect();
    let t = Summary::of(&plain.iter().map(|o| ms(o.stats.elapsed)).collect::<Vec<_>>());
    let plain_built: u64 = plain.iter().map(|o| o.stats.threads_built as u64).sum();
    let plain_pruned: u64 = plain.iter().map(|o| o.stats.threads_pruned as u64).sum();
    println!(
        "{:<16} {:>12.2} {:>10} {:>10} {:>12.3}",
        "none", t.mean, plain_built, plain_pruned, 1.0
    );
    csv_row(&[
        "recency".into(),
        "none".into(),
        format!("{:.4}", t.mean),
        plain_built.to_string(),
        plain_pruned.to_string(),
        format!("{:.4}", 1.0),
    ]);
    let plain_tops: Vec<Vec<_>> =
        plain.iter().map(|o| o.users.iter().map(|r| r.user).collect()).collect();
    for &half_life_frac in &[1.0f64, 0.25, 0.05] {
        let half_life = ((max_ts as f64 * half_life_frac) as u64).max(1);
        let mut times = Vec::new();
        let mut built = 0u64;
        let mut pruned = 0u64;
        let mut taus = Vec::new();
        for (spec, plain) in specs.iter().zip(&plain_tops) {
            let q = to_query(spec, 50.0, 5, Semantics::Or)
                .with_recency(max_ts, half_life)
                .expect("valid recency");
            let QueryOutcome { users: top, stats, .. } = alg5(&q);
            times.push(ms(stats.elapsed));
            built += stats.threads_built as u64;
            pruned += stats.threads_pruned as u64;
            let users: Vec<_> = top.iter().map(|r| r.user).collect();
            if !(plain.is_empty() && users.is_empty()) {
                taus.push(padded_kendall_tau(plain, &users));
            }
        }
        let t = Summary::of(&times);
        let tau = if taus.is_empty() { f64::NAN } else { Summary::of(&taus).mean };
        println!(
            "{:<16} {:>12.2} {:>10} {:>10} {:>12.3}",
            format!("{:.0}% of span", half_life_frac * 100.0),
            t.mean,
            built,
            pruned,
            tau
        );
        csv_row(&[
            "recency".into(),
            format!("{half_life_frac}"),
            format!("{:.4}", t.mean),
            built.to_string(),
            pruned.to_string(),
            format!("{tau:.4}"),
        ]);
    }
    println!(
        "\nexpected shape: cost falls with window selectivity; recency prunes fewer threads than \
         no bias, and none at short half-lives (candidates are visited oldest first, so the \
         k-th score is set by the most decayed rows); short half-lives reshuffle the ranking."
    );
}
