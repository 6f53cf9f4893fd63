//! Overhead guard for the observability layer (DESIGN.md §12).
//!
//! The instrumentation budget is ≤2% median-latency regression: a query
//! pays a handful of relaxed atomic adds, ~7 monotonic clock reads for
//! the stage spans, and the thread-local page-read tallies. This bench
//! proves the budget holds by replaying the same workload against two
//! engines that differ ONLY in `EngineConfig::metrics`, measuring the
//! passes *interleaved* with alternating order (host-load drift hits both
//! series equally), and verifying every instrumented answer bit-identical
//! to the baseline's before any number is reported.
//!
//! Emits `results/BENCH_obs.json`. With `TKLUS_OBS_ENFORCE=1` in the
//! environment (the CI metrics-smoke job), the process exits nonzero if
//! the measured overhead exceeds the budget or the instrumented engine's
//! registry fails its sanity checks — the golden *format* checks live in
//! `tklus-metrics`' unit tests.

use std::time::Instant;
use tklus_bench::{banner, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query};
use tklus_core::{BoundsMode, EngineConfig, RankedUser, Ranking, TklusEngine};
use tklus_model::{Semantics, TklusQuery};

/// The instrumentation budget from the ISSUE: median latency with metrics
/// on may exceed the baseline by at most this percentage.
const BUDGET_PCT: f64 = 2.0;

fn engine_with_metrics(corpus: &tklus_model::Corpus, metrics: bool) -> TklusEngine {
    let config = EngineConfig { cache_pages: 8192, metrics, ..EngineConfig::default() };
    TklusEngine::build(corpus, &config).0
}

/// Runs one timed query and checks the answer bitwise against `want`.
fn timed(
    engine: &TklusEngine,
    q: &TklusQuery,
    ranking: Ranking,
    want: &[RankedUser],
    pass: &str,
) -> f64 {
    let t = Instant::now();
    let (top, _) = engine.query(q, ranking);
    let elapsed = ms(t.elapsed());
    assert_eq!(top.len(), want.len(), "{pass}: cardinality changed");
    for (g, w) in top.iter().zip(want) {
        assert_eq!(g.user, w.user, "{pass}: ranking changed");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{pass}: score bits changed");
    }
    elapsed
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn summarize(mut samples: Vec<f64>) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (percentile(&samples, 0.5), percentile(&samples, 0.9), samples.iter().sum::<f64>())
}

fn main() {
    let flags = parse_flags();
    banner("Observability overhead: metrics off vs on, interleaved", &flags);
    let corpus = standard_corpus(&flags);
    let baseline = engine_with_metrics(&corpus, false);
    let instrumented = engine_with_metrics(&corpus, true);
    assert!(baseline.metrics_snapshot().is_none(), "metrics-off engine has no registry");

    let specs = query_workload(&corpus);
    let requests: Vec<(TklusQuery, Ranking)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ranking = match i % 3 {
                0 => Ranking::Sum,
                1 => Ranking::Max(BoundsMode::HotKeywords),
                _ => Ranking::Max(BoundsMode::Global),
            };
            (to_query(spec, 20.0, 5, Semantics::Or), ranking)
        })
        .collect();

    // Replay log: cycle the distinct requests until we have enough
    // samples for a stable median.
    let log_len = (flags.queries * 10).max(requests.len() * 4);
    let log: Vec<usize> = (0..log_len).map(|n| n % requests.len()).collect();
    println!("log: {log_len} queries over {} distinct requests", requests.len());

    // Reference answers + warm-up: both engines fault in their partitions
    // and metadata pages before any timed sample.
    let reference: Vec<Vec<RankedUser>> =
        requests.iter().map(|(q, r)| baseline.query(q, *r).0).collect();
    for (q, r) in &requests {
        std::hint::black_box(instrumented.query(q, *r));
    }

    let mut base_lat = Vec::with_capacity(log.len());
    let mut inst_lat = Vec::with_capacity(log.len());
    for (n, &i) in log.iter().enumerate() {
        let (q, r) = &requests[i];
        let want = &reference[i];
        if n % 2 == 0 {
            base_lat.push(timed(&baseline, q, *r, want, "metrics-off"));
            inst_lat.push(timed(&instrumented, q, *r, want, "metrics-on"));
        } else {
            inst_lat.push(timed(&instrumented, q, *r, want, "metrics-on"));
            base_lat.push(timed(&baseline, q, *r, want, "metrics-off"));
        }
    }

    let (base_p50, base_p90, base_total) = summarize(base_lat);
    let (inst_p50, inst_p90, inst_total) = summarize(inst_lat);
    let overhead_pct = (inst_p50 - base_p50) / base_p50.max(1e-9) * 100.0;
    let total_overhead_pct = (inst_total - base_total) / base_total.max(1e-9) * 100.0;
    let within_budget = overhead_pct <= BUDGET_PCT;

    println!("{:<12} {:>10} {:>10} {:>12}", "pass", "p50 ms", "p90 ms", "total ms");
    for (name, p50, p90, total) in [
        ("metrics-off", base_p50, base_p90, base_total),
        ("metrics-on", inst_p50, inst_p90, inst_total),
    ] {
        println!("{name:<12} {p50:>10.3} {p90:>10.3} {total:>12.1}");
        csv_row(&[name.into(), format!("{p50:.3}"), format!("{p90:.3}"), format!("{total:.1}")]);
    }
    println!(
        "median overhead: {overhead_pct:+.2}% (budget {BUDGET_PCT}%), total {total_overhead_pct:+.2}%"
    );

    // Registry sanity: the instrumented engine counted every answered
    // query (warm-up + its half of the interleave) and the exposition
    // carries the re-exported storage family.
    let snap = instrumented.metrics_snapshot().expect("metrics-on engine has a registry");
    let expected_queries = (requests.len() + log.len()) as u64;
    let queries_total = snap.counter("tklus_queries_total").unwrap_or(0);
    assert_eq!(queries_total, expected_queries, "registry lost or double-counted queries");
    let text = snap.render_prometheus();
    let registry_coherent = ["tklus_query_latency_us_count", "tklus_storage_page_reads_total"]
        .iter()
        .all(|n| text.contains(n));
    assert!(registry_coherent, "exposition is missing expected families");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"obs_overhead\",\n");
    json.push_str(&format!("  \"posts\": {},\n", flags.posts));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"log_len\": {log_len},\n"));
    json.push_str(&format!("  \"distinct_requests\": {},\n", requests.len()));
    json.push_str(&format!("  \"baseline_p50_ms\": {base_p50:.4},\n"));
    json.push_str(&format!("  \"baseline_p90_ms\": {base_p90:.4},\n"));
    json.push_str(&format!("  \"instrumented_p50_ms\": {inst_p50:.4},\n"));
    json.push_str(&format!("  \"instrumented_p90_ms\": {inst_p90:.4},\n"));
    json.push_str(&format!("  \"overhead_pct\": {overhead_pct:.3},\n"));
    json.push_str(&format!("  \"total_overhead_pct\": {total_overhead_pct:.3},\n"));
    json.push_str(&format!("  \"budget_pct\": {BUDGET_PCT},\n"));
    json.push_str(&format!("  \"within_budget\": {within_budget},\n"));
    json.push_str(&format!("  \"queries_observed\": {queries_total},\n"));
    json.push_str("  \"results_verified_identical\": true\n");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_obs.json", &json).expect("write results/BENCH_obs.json");
    println!("wrote results/BENCH_obs.json");

    if std::env::var("TKLUS_OBS_ENFORCE").is_ok_and(|v| v == "1") && !within_budget {
        eprintln!(
            "FAIL: instrumentation overhead {overhead_pct:+.2}% exceeds the {BUDGET_PCT}% budget"
        );
        std::process::exit(1);
    }
}
