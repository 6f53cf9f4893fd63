//! Shard scaling: fanout and latency vs shard count (DESIGN.md §14).
//!
//! The scatter-gather router promises what a plot can show: the circle
//! cover restricts dispatch to the shards it intersects, so fanout stays
//! far below N for non-global queries. This bench replays the standard
//! workload at several radii against N ∈ {1, 2, 4, 8, 16} sharded
//! engines, verifies every sharded answer bitwise against the monolithic
//! engine before reporting a single number, and records per-N median
//! latency and mean fanout.
//!
//! Emits `results/BENCH_shard.json`. The process exits nonzero if any
//! answer diverges from the monolithic reference or any query degrades.

use std::time::Instant;
use tklus_bench::{banner, csv_row, ms, parse_flags, query_workload, standard_corpus, to_query};
use tklus_core::{BoundsMode, EngineConfig, RankedUser, Ranking, TklusEngine};
use tklus_model::{Semantics, TklusQuery};
use tklus_shard::ShardedEngine;

const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// Query radii in km: tight urban circles through cross-region sweeps.
/// The small radii are the "non-global" queries the fanout claim is
/// about; the large ones force multi-shard covers so the merge actually
/// runs at every N.
const RADII_KM: [f64; 3] = [5.0, 25.0, 120.0];

fn bench_config() -> EngineConfig {
    EngineConfig { cache_pages: 8192, ..EngineConfig::default() }
}

struct NShardReport {
    n_shards: usize,
    p50_ms: f64,
    p90_ms: f64,
    mean_fanout: f64,
    dispatched: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn assert_bitwise(got: &[RankedUser], want: &[RankedUser], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: cardinality diverged from monolithic");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.user, w.user, "{label}: ranking diverged from monolithic");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{label}: score bits diverged");
    }
}

fn main() {
    let flags = parse_flags();
    banner("Shard scaling: fanout and latency vs N", &flags);
    let corpus = standard_corpus(&flags);
    let config = bench_config();
    let mono = TklusEngine::build(&corpus, &config).0;

    let specs = query_workload(&corpus);
    let requests: Vec<(TklusQuery, Ranking)> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| {
            let ranking = match i % 3 {
                0 => Ranking::Sum,
                1 => Ranking::Max(BoundsMode::HotKeywords),
                _ => Ranking::Max(BoundsMode::Global),
            };
            let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
            RADII_KM.iter().map(move |&r| (to_query(spec, r, 5, semantics), ranking))
        })
        .collect();
    println!(
        "workload: {} queries ({} specs x {} radii)",
        requests.len(),
        specs.len(),
        RADII_KM.len()
    );

    // Monolithic reference answers: every sharded answer must match these
    // bitwise before its latency counts for anything.
    let reference: Vec<Vec<RankedUser>> =
        requests.iter().map(|(q, r)| mono.query(q, *r).0).collect();

    let mut reports = Vec::new();
    for n in SHARD_COUNTS {
        let engine = ShardedEngine::try_build(&corpus, n, &config)
            .unwrap_or_else(|e| panic!("building {n}-shard engine: {e}"));
        // Warm pass: fault in partitions and metadata, verify answers.
        for ((q, r), want) in requests.iter().zip(&reference) {
            let out = engine.query(q, *r);
            assert!(out.completeness.is_complete(), "N={n}: fault-free query degraded");
            assert_bitwise(&out.users, want, &format!("N={n} warm-up"));
        }

        let mut latencies = Vec::with_capacity(requests.len());
        let mut fanout_sum = 0u64;
        for ((q, r), want) in requests.iter().zip(&reference) {
            let t = Instant::now();
            let out = engine.query(q, *r);
            latencies.push(ms(t.elapsed()));
            assert_bitwise(&out.users, want, &format!("N={n} timed"));
            fanout_sum += out.fanout as u64;
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        reports.push(NShardReport {
            n_shards: n,
            p50_ms: percentile(&latencies, 0.5),
            p90_ms: percentile(&latencies, 0.9),
            mean_fanout: fanout_sum as f64 / requests.len() as f64,
            dispatched: fanout_sum,
        });
    }

    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12}",
        "shards", "p50 ms", "p90 ms", "mean fanout", "dispatched"
    );
    for r in &reports {
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>12.2} {:>12}",
            r.n_shards, r.p50_ms, r.p90_ms, r.mean_fanout, r.dispatched
        );
        csv_row(&[
            r.n_shards.to_string(),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p90_ms),
            format!("{:.2}", r.mean_fanout),
            r.dispatched.to_string(),
        ]);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"shard_scaling\",\n");
    json.push_str(&format!("  \"posts\": {},\n", flags.posts));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"workload_queries\": {},\n", requests.len()));
    for r in &reports {
        let n = r.n_shards;
        json.push_str(&format!("  \"n{n}_p50_ms\": {:.4},\n", r.p50_ms));
        json.push_str(&format!("  \"n{n}_p90_ms\": {:.4},\n", r.p90_ms));
        json.push_str(&format!("  \"n{n}_mean_fanout\": {:.3},\n", r.mean_fanout));
        json.push_str(&format!("  \"n{n}_shards_dispatched\": {},\n", r.dispatched));
    }
    json.push_str("  \"results_verified_identical\": true\n");
    json.push_str("}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_shard.json", &json).expect("write results/BENCH_shard.json");
    println!("wrote results/BENCH_shard.json");
}
