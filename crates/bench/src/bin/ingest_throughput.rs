//! Streaming-ingest throughput of the crash-safe WAL store
//! (DESIGN.md §15), emitted as `results/BENCH_ingest.json`.
//!
//! Three measurements:
//!
//! 1. **Sustained ingest rate** (posts/s) into an [`IngestStore`] on the
//!    real filesystem, one run per fsync policy — `Always` (every ack
//!    durable), `EveryN(64)` (group commit), `Never` (OS-buffered). The
//!    spread is the price of the durability guarantee.
//! 2. **Replay rate** (posts/s): reopening the store and redoing the whole
//!    WAL into the live memtable — the crash-recovery cost curve.
//! 3. **Query latency under ingest**: one writer streams posts while
//!    reader threads measure top-k latency against the moving sealed∪live
//!    snapshot, versus the same workload on a quiescent store. This
//!    contention curve needs spare cores: below [`MIN_CONCURRENT_CORES`]
//!    the JSON records `"valid": false` with a skip reason instead of
//!    fabricated numbers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tklus_bench::{banner, csv_row, parse_flags, query_workload, standard_corpus, to_query};
use tklus_core::{BoundsMode, EngineConfig, Ranking};
use tklus_model::{Post, Semantics, TklusQuery};
use tklus_wal::{FsyncPolicy, IngestStore, StdFs, StoreConfig, WalConfig, WalFs};

/// Minimum host cores for the ingest-vs-query contention section.
const MIN_CONCURRENT_CORES: usize = 4;

/// Caps the `FsyncPolicy::Always` run — one fsync per post is the point,
/// and ~2k of them measure it without stalling the whole bench on a slow
/// disk.
const ALWAYS_POSTS_CAP: usize = 2_000;

fn store_at(dir: &std::path::Path, fsync: FsyncPolicy) -> IngestStore {
    let _ = std::fs::remove_dir_all(dir);
    let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(dir).expect("open bench wal dir"));
    let config = StoreConfig {
        engine: EngineConfig { parallelism: 1, ..EngineConfig::default() },
        wal: WalConfig { fsync, ..WalConfig::default() },
        ..StoreConfig::default()
    };
    IngestStore::open(fs, config).expect("open ingest store").0
}

fn ingest_rate(store: &IngestStore, posts: &[Post]) -> f64 {
    let t = Instant::now();
    for post in posts {
        store.ingest(post.clone()).expect("bench ingest");
    }
    posts.len() as f64 / t.elapsed().as_secs_f64()
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

/// Median query latency (µs) over `rounds` passes of the workload.
fn query_median_us(store: &IngestStore, requests: &[(TklusQuery, Ranking)], rounds: usize) -> f64 {
    let mut samples = Vec::with_capacity(requests.len() * rounds);
    for _ in 0..rounds {
        for (q, ranking) in requests {
            let t = Instant::now();
            let top = store.try_query(q, *ranking).expect("bench query");
            std::hint::black_box(top);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median_us(samples)
}

fn main() {
    let flags = parse_flags();
    banner("Ingest throughput: WAL-acked streaming writes", &flags);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let corpus = standard_corpus(&flags);
    let posts = corpus.posts();
    let base = std::env::temp_dir().join(format!("tklus-bench-ingest-{}", std::process::id()));

    let requests: Vec<(TklusQuery, Ranking)> = query_workload(&corpus)
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

    // -- Section 1: sustained ingest rate per fsync policy. --------------
    println!("{:<16} {:>10} {:>14}", "fsync policy", "posts", "posts/s");
    let mut policy_rows: Vec<(&str, usize, f64)> = Vec::new();
    for (name, fsync, cap) in [
        ("always", FsyncPolicy::Always, ALWAYS_POSTS_CAP.min(posts.len())),
        ("every-64", FsyncPolicy::EveryN(64), posts.len()),
        ("never", FsyncPolicy::Never, posts.len()),
    ] {
        let store = store_at(&base.join(name), fsync);
        let rate = ingest_rate(&store, &posts[..cap]);
        println!("{:<16} {:>10} {:>14.0}", name, cap, rate);
        csv_row(&["ingest".into(), name.to_string(), cap.to_string(), format!("{rate:.0}")]);
        policy_rows.push((name, cap, rate));
    }

    // -- Section 2: replay (crash-recovery) rate. ------------------------
    // The "never" store holds the full corpus in its WAL; reopening redoes
    // every record into the live state.
    let replay_rate = {
        let dir = base.join("never");
        let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(&dir).expect("reopen bench wal dir"));
        let config = StoreConfig {
            engine: EngineConfig { parallelism: 1, ..EngineConfig::default() },
            ..StoreConfig::default()
        };
        let t = Instant::now();
        let (store, report) = IngestStore::open(fs, config).expect("replay");
        let rate = report.live_posts as f64 / t.elapsed().as_secs_f64();
        println!("replay: {} records at {:.0} posts/s", report.live_posts, rate);
        csv_row(&["replay".into(), report.live_posts.to_string(), format!("{rate:.0}")]);
        drop(store);
        rate
    };

    // -- Section 3: query latency under concurrent ingest. ---------------
    let concurrent_valid = host_cores >= MIN_CONCURRENT_CORES;
    let mut quiescent_us = 0.0f64;
    let mut under_ingest_us = 0.0f64;
    if concurrent_valid {
        let store = store_at(&base.join("concurrent"), FsyncPolicy::EveryN(64));
        let split = posts.len() / 2;
        for post in &posts[..split] {
            store.ingest(post.clone()).expect("preload ingest");
        }
        store.compact().expect("seal the preloaded half");
        let rounds = flags.queries.clamp(2, 8);
        quiescent_us = query_median_us(&store, &requests, rounds);

        let done = AtomicBool::new(false);
        let mut measured = 0.0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for post in &posts[split..] {
                    store.ingest(post.clone()).expect("concurrent ingest");
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
            measured = query_median_us(&store, &requests, rounds);
            done.store(true, Ordering::Relaxed);
        });
        under_ingest_us = measured;
        println!(
            "query median: {quiescent_us:.1} us quiescent, {under_ingest_us:.1} us under ingest"
        );
        csv_row(&[
            "query-under-ingest".into(),
            format!("{quiescent_us:.1}"),
            format!("{under_ingest_us:.1}"),
        ]);
    } else {
        println!(
            "host cores: {host_cores} < {MIN_CONCURRENT_CORES}; skipping the concurrent section \
             (an ingest/query contention curve on a starved host is not a measurement)"
        );
    }

    // Hand-rolled JSON, same discipline as BENCH_qps.json: flat scalar
    // lines.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"ingest_throughput\",\n");
    json.push_str(&format!("  \"posts\": {},\n", flags.posts));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    for (name, cap, rate) in &policy_rows {
        let key = name.replace('-', "_");
        json.push_str(&format!("  \"ingest_{key}_posts\": {cap},\n"));
        json.push_str(&format!("  \"ingest_{key}_posts_per_s\": {rate:.0},\n"));
    }
    json.push_str(&format!("  \"replay_posts_per_s\": {replay_rate:.0},\n"));
    json.push_str("  \"query_under_ingest\": {\n");
    json.push_str(&format!("    \"valid\": {concurrent_valid},\n"));
    if concurrent_valid {
        json.push_str("    \"skip_reason\": null,\n");
        json.push_str(&format!("    \"quiescent_median_us\": {quiescent_us:.1},\n"));
        json.push_str(&format!("    \"under_ingest_median_us\": {under_ingest_us:.1}\n"));
    } else {
        json.push_str(&format!(
            "    \"skip_reason\": \"host has {host_cores} cores, section needs >= \
             {MIN_CONCURRENT_CORES}\"\n"
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_ingest.json", &json).expect("write results/BENCH_ingest.json");
    println!("wrote results/BENCH_ingest.json");

    let _ = std::fs::remove_dir_all(&base);
}
