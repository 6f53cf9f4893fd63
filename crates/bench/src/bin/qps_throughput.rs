//! Query throughput of one shared engine under concurrent clients, plus
//! the single-thread latency of the same workload.
//!
//! Two measurements, emitted together as `results/BENCH_qps.json`:
//!
//! 1. **Single-thread median latency** over the Section VI-B1 workload,
//!    end to end and for the fetch+combine stages. This is the credible
//!    number on any host: it needs no spare cores.
//! 2. **Multi-client / batch QPS sweep** ([1, 2, 4, 8] threads against one
//!    shared engine). A scaling curve measured on a starved host is noise
//!    presented as signal, so the sweep only runs when the host has at
//!    least [`MIN_SWEEP_CORES`] cores; below that the JSON records
//!    `"valid": false` with a skip reason instead of fabricated numbers.

use std::time::Instant;
use tklus_bench::{
    banner, build_engine, csv_row, parse_flags, query_workload, standard_corpus, to_query,
};
use tklus_core::{BoundsMode, Ranking, TklusEngine};
use tklus_model::{Semantics, TklusQuery};

/// Minimum host cores for the multi-client sweep to be trustworthy.
const MIN_SWEEP_CORES: usize = 4;

/// Aggregate QPS of `clients` threads each running `per_client` queries
/// round-robin over the workload against one shared engine.
fn run_clients(
    engine: &TklusEngine,
    requests: &[(TklusQuery, Ranking)],
    clients: usize,
    per_client: usize,
) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                for i in 0..per_client {
                    let (q, ranking) = &requests[(c * 7 + i) % requests.len()];
                    let (top, _) = engine.query(q, *ranking);
                    std::hint::black_box(top);
                }
            });
        }
    });
    (clients * per_client) as f64 / t.elapsed().as_secs_f64()
}

/// QPS of one `query_batch` call over `total` requests (the engine's own
/// `parallelism` knob supplies the concurrency).
fn run_batch(engine: &TklusEngine, requests: &[(TklusQuery, Ranking)], total: usize) -> f64 {
    let batch: Vec<(TklusQuery, Ranking)> =
        (0..total).map(|i| requests[i % requests.len()].clone()).collect();
    let t = Instant::now();
    let out = engine.query_batch(&batch);
    let qps = total as f64 / t.elapsed().as_secs_f64();
    std::hint::black_box(out);
    qps
}

/// Median latency (µs) of the single-threaded workload, end-to-end and
/// for the fetch+combine stages.
struct SingleThread {
    e2e_us: f64,
    fetch_combine_us: f64,
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    if samples.is_empty() {
        return 0.0;
    }
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Runs the whole workload `rounds` times on one thread, recording each
/// query's end-to-end and fetch+combine stage time from its `QueryStats`.
fn run_single_thread(
    engine: &TklusEngine,
    requests: &[(TklusQuery, Ranking)],
    rounds: usize,
) -> SingleThread {
    // Warm-up: fault in every partition and metadata page once.
    for (q, ranking) in requests {
        let (top, _) = engine.query(q, *ranking);
        std::hint::black_box(top);
    }
    let mut e2e = Vec::with_capacity(requests.len() * rounds);
    let mut fetch_combine = Vec::with_capacity(requests.len() * rounds);
    for _ in 0..rounds {
        for (q, ranking) in requests {
            let (top, stats) = engine.query(q, *ranking);
            std::hint::black_box(top);
            e2e.push(stats.elapsed.as_secs_f64() * 1e6);
            fetch_combine.push((stats.stages.fetch + stats.stages.combine).as_secs_f64() * 1e6);
        }
    }
    SingleThread { e2e_us: median_us(e2e), fetch_combine_us: median_us(fetch_combine) }
}

fn main() {
    let flags = parse_flags();
    banner("QPS throughput: N client threads, one shared engine", &flags);
    let corpus = standard_corpus(&flags);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let specs = query_workload(&corpus);
    let requests: Vec<(TklusQuery, Ranking)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ranking = match i % 3 {
                0 => Ranking::Sum,
                1 => Ranking::Max(BoundsMode::Global),
                _ => Ranking::Max(BoundsMode::HotKeywords),
            };
            (to_query(spec, 10.0, 5, Semantics::Or), ranking)
        })
        .collect();

    // -- Section 1: single-thread median latency. -------------------------
    let rounds = flags.queries.clamp(2, 10);
    let engine = build_engine(&corpus, 4);
    let single = run_single_thread(&engine, &requests, rounds);

    println!("{:>14} {:>18}", "median e2e us", "fetch+combine us");
    println!("{:>14.1} {:>18.1}", single.e2e_us, single.fetch_combine_us);
    csv_row(&[
        "single-thread".into(),
        format!("{:.1}", single.e2e_us),
        format!("{:.1}", single.fetch_combine_us),
    ]);

    // -- Section 2: multi-client / batch sweep, gated on host cores. -----
    let per_client = flags.queries.max(10) * 6;
    let thread_counts = [1usize, 2, 4, 8];
    let sweep_valid = host_cores >= MIN_SWEEP_CORES;
    let mut client_rows = Vec::new();
    let mut batch_rows = Vec::new();
    let mut speedup = 1.0f64;

    if sweep_valid {
        // Client threads supply all the concurrency here, so the engine
        // itself runs each query sequentially (parallelism 1).
        run_clients(&engine, &requests, 1, requests.len().min(per_client));

        println!("{:<16} {:>10} {:>12}", "mode", "threads", "qps");
        for &clients in &thread_counts {
            let qps = run_clients(&engine, &requests, clients, per_client);
            println!("{:<16} {:>10} {:>12.1}", "client-threads", clients, qps);
            csv_row(&["client-threads".into(), clients.to_string(), format!("{qps:.1}")]);
            client_rows.push((clients, qps));
        }

        for &parallelism in &thread_counts {
            let batch_engine = {
                let config = tklus_core::EngineConfig {
                    index: tklus_index::IndexBuildConfig { geohash_len: 4, ..Default::default() },
                    hot_keywords: 200,
                    parallelism,
                    ..Default::default()
                };
                TklusEngine::build(&corpus, &config).0
            };
            let qps = run_batch(&batch_engine, &requests, per_client * parallelism);
            println!("{:<16} {:>10} {:>12.1}", "query-batch", parallelism, qps);
            csv_row(&["query-batch".into(), parallelism.to_string(), format!("{qps:.1}")]);
            batch_rows.push((parallelism, qps));
        }

        let single = client_rows[0].1;
        let best = client_rows.iter().map(|&(_, q)| q).fold(0.0f64, f64::max);
        speedup = best / single.max(1e-9);
        println!("host cores: {host_cores}; best client-thread speedup over single: {speedup:.2}x");
    } else {
        println!(
            "host cores: {host_cores} < {MIN_SWEEP_CORES}; skipping multi-client sweep \
             (a contention curve on a starved host is not a scaling measurement)"
        );
    }

    // Hand-rolled JSON (serde is a no-op stand-in in this workspace; the
    // format below is flat enough — one scalar per line — that string
    // assembly is the simpler dependency surface).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"qps_throughput\",\n");
    json.push_str(&format!("  \"posts\": {},\n", flags.posts));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"queries_per_client\": {per_client},\n"));
    json.push_str(&format!("  \"workload_queries\": {},\n", requests.len()));
    json.push_str(&format!("  \"single_thread_rounds\": {rounds},\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"single_thread_median_latency_us\": {:.1},\n", single.e2e_us));
    json.push_str(&format!(
        "  \"single_thread_median_fetch_combine_us\": {:.1},\n",
        single.fetch_combine_us
    ));
    json.push_str("  \"multi_client_sweep\": {\n");
    json.push_str(&format!("    \"valid\": {sweep_valid},\n"));
    if sweep_valid {
        json.push_str("    \"skip_reason\": null,\n");
    } else {
        json.push_str(&format!(
            "    \"skip_reason\": \"host has {host_cores} cores, sweep needs >= {MIN_SWEEP_CORES}\",\n"
        ));
    }
    json.push_str("    \"client_threads\": [\n");
    for (i, (clients, qps)) in client_rows.iter().enumerate() {
        let comma = if i + 1 < client_rows.len() { "," } else { "" };
        json.push_str(&format!("      {{ \"threads\": {clients}, \"qps\": {qps:.1} }}{comma}\n"));
    }
    json.push_str("    ],\n");
    json.push_str("    \"query_batch\": [\n");
    for (i, (parallelism, qps)) in batch_rows.iter().enumerate() {
        let comma = if i + 1 < batch_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "      {{ \"parallelism\": {parallelism}, \"qps\": {qps:.1} }}{comma}\n"
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!("    \"best_speedup_over_single_client\": {speedup:.2}\n"));
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_qps.json", &json).expect("write results/BENCH_qps.json");
    println!("wrote results/BENCH_qps.json");
}
