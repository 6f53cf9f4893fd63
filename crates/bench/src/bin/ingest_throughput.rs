//! Streaming-ingest throughput of the crash-safe WAL store
//! (DESIGN.md §15), emitted as `results/BENCH_ingest.json`.
//!
//! Two measurements (query latency beside ingest is the `mixed_rw`
//! workload of `benchmark/`):
//!
//! 1. **Sustained ingest rate** (posts/s) into an [`IngestStore`] on the
//!    real filesystem, one run per fsync policy — `Always` (every ack
//!    durable), `EveryN(64)` (group commit), `Never` (OS-buffered). The
//!    spread is the price of the durability guarantee.
//! 2. **Replay rate** (posts/s): reopening the store and redoing the whole
//!    WAL into the live memtable — the crash-recovery cost curve.

use std::sync::Arc;
use std::time::Instant;
use tklus_bench::{banner, csv_row, parse_flags, standard_corpus};
use tklus_model::Post;
use tklus_wal::{FsyncPolicy, IngestStore, StdFs, StoreConfig, WalConfig, WalFs};

/// Caps the `FsyncPolicy::Always` run — one fsync per post is the point,
/// and ~2k of them measure it without stalling the whole bench on a slow
/// disk.
const ALWAYS_POSTS_CAP: usize = 2_000;

fn store_at(dir: &std::path::Path, fsync: FsyncPolicy) -> IngestStore {
    let _ = std::fs::remove_dir_all(dir);
    let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(dir).expect("open bench wal dir"));
    let config =
        StoreConfig { wal: WalConfig { fsync, ..WalConfig::default() }, ..StoreConfig::default() };
    IngestStore::open(fs, config).expect("open ingest store").0
}

fn ingest_rate(store: &IngestStore, posts: &[Post]) -> f64 {
    let t = Instant::now();
    for post in posts {
        store.ingest(post.clone()).expect("bench ingest");
    }
    posts.len() as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    let flags = parse_flags();
    banner("Ingest throughput: WAL-acked streaming writes", &flags);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let corpus = standard_corpus(&flags);
    let posts = corpus.posts();
    let base = std::env::temp_dir().join(format!("tklus-bench-ingest-{}", std::process::id()));

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
        let t = Instant::now();
        let (store, report) = IngestStore::open(fs, StoreConfig::default()).expect("replay");
        let rate = report.live_posts as f64 / t.elapsed().as_secs_f64();
        println!("replay: {} records at {:.0} posts/s", report.live_posts, rate);
        csv_row(&["replay".into(), report.live_posts.to_string(), format!("{rate:.0}")]);
        drop(store);
        rate
    };

    // Hand-rolled JSON: flat scalar lines.
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
    json.push_str(&format!("  \"replay_posts_per_s\": {replay_rate:.0}\n"));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_ingest.json", &json).expect("write results/BENCH_ingest.json");
    println!("wrote results/BENCH_ingest.json");

    let _ = std::fs::remove_dir_all(&base);
}
