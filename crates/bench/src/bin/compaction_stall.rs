//! Query/ingest tail latency **during compaction**, emitted as
//! `results/BENCH_compact.json`.
//!
//! The compactor builds off the store's write latch and only takes it for
//! the seq-fenced swap, so concurrent queries and ingests should barely
//! notice. This bench measures exactly that window: a query thread and an
//! ingest thread stream against the store while the main thread runs one
//! compaction; every latency sample overlapping the compaction window
//! counts, and the report gives their p99/max.
//!
//! The concurrency needs spare cores: below [`MIN_CORES`] the JSON
//! records `"valid": false` with a skip reason instead of fabricated
//! numbers.
//!
//! CI smoke gate: with `TKLUS_STALL_GATE_MS` set, the bench exits
//! non-zero if any query overlapping the compaction took longer than
//! that budget — the swap is supposed to be the only
//! blocking moment, and it is small.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tklus_bench::{banner, csv_row, parse_flags, query_workload, standard_corpus, to_query};
use tklus_core::{BoundsMode, EngineConfig, Ranking};
use tklus_model::{Post, Semantics, TklusQuery, TweetId};
use tklus_wal::{FsyncPolicy, IngestStore, StdFs, StoreConfig, WalConfig, WalFs};

/// Main (compacting) thread + query thread + ingest thread.
const MIN_CORES: usize = 3;

/// A latency sample: when the operation started and how long it took.
struct Sample {
    start: Instant,
    secs: f64,
}

/// What the compaction window saw.
struct StallStats {
    compact_ms: f64,
    query_p99_us: f64,
    query_max_us: f64,
    query_samples: usize,
    ingest_p99_us: f64,
    ingest_samples: usize,
}

/// p99 of a set of already-µs latencies.
fn p99_us(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((samples.len() - 1) as f64 * 0.99).round() as usize;
    samples[idx]
}

/// Keeps the latencies (µs) of samples overlapping `[w0, w1]` — a query
/// parked behind the swap latch *starts* before the window closes and
/// *ends* inside or after it, so overlap (not containment) is the honest
/// filter.
fn overlapping_us(samples: &[Sample], w0: Instant, w1: Instant) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.start <= w1 && s.start + Duration::from_secs_f64(s.secs) >= w0)
        .map(|s| s.secs * 1e6)
        .collect()
}

fn measure(
    dir: &std::path::Path,
    posts: &[Post],
    requests: &[(TklusQuery, Ranking)],
) -> StallStats {
    let _ = std::fs::remove_dir_all(dir);
    let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(dir).expect("open bench wal dir"));
    let config = StoreConfig {
        engine: EngineConfig { parallelism: 1, ..EngineConfig::default() },
        wal: WalConfig { fsync: FsyncPolicy::EveryN(64), ..WalConfig::default() },
        ..StoreConfig::default()
    };
    let store = IngestStore::open(fs, config).expect("open ingest store").0;

    // Seal a large base generation, then refill the memtable — the
    // measured compaction has real work on both sides of the latch.
    let preload = posts.len() * 7 / 10;
    let delta = posts.len() * 9 / 10;
    for post in &posts[..preload] {
        store.ingest(post.clone()).expect("preload ingest");
    }
    store.compact().expect("seal the preload");
    for post in &posts[preload..delta] {
        store.ingest(post.clone()).expect("delta ingest");
    }

    let done = AtomicBool::new(false);
    // Fresh ids past any corpus id, so the ingest thread never runs dry
    // mid-window however long the compaction takes.
    let next_id = AtomicU64::new(10_000_000);
    let mut stats = None;
    std::thread::scope(|scope| {
        let query_thread = scope.spawn(|| {
            let mut samples = Vec::new();
            'outer: loop {
                for (q, ranking) in requests {
                    if done.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    let start = Instant::now();
                    let top = store.try_query(q, *ranking).expect("bench query");
                    std::hint::black_box(top);
                    samples.push(Sample { start, secs: start.elapsed().as_secs_f64() });
                }
            }
            samples
        });
        let ingest_thread = scope.spawn(|| {
            let mut samples = Vec::new();
            let mut i = 0usize;
            while !done.load(Ordering::Relaxed) {
                let mut post = posts[i % delta].clone();
                post.id = TweetId(next_id.fetch_add(1, Ordering::Relaxed));
                post.in_reply_to = None;
                i += 1;
                let start = Instant::now();
                store.ingest(post).expect("stream ingest");
                samples.push(Sample { start, secs: start.elapsed().as_secs_f64() });
            }
            samples
        });

        // Let both threads reach a steady rhythm, then compact.
        std::thread::sleep(Duration::from_millis(150));
        let w0 = Instant::now();
        store.compact().expect("measured compaction");
        let w1 = Instant::now();
        // A short tail so a query parked at the very end still completes
        // and lands in the sample set.
        std::thread::sleep(Duration::from_millis(100));
        done.store(true, Ordering::Relaxed);

        let query_samples = query_thread.join().expect("query thread");
        let ingest_samples = ingest_thread.join().expect("ingest thread");
        let mut q_us = overlapping_us(&query_samples, w0, w1);
        let mut i_us = overlapping_us(&ingest_samples, w0, w1);
        let query_max_us = q_us.iter().copied().fold(0.0f64, f64::max);
        stats = Some(StallStats {
            compact_ms: (w1 - w0).as_secs_f64() * 1e3,
            query_p99_us: p99_us(&mut q_us),
            query_max_us,
            query_samples: q_us.len(),
            ingest_p99_us: p99_us(&mut i_us),
            ingest_samples: i_us.len(),
        });
    });
    stats.expect("scope sets stats")
}

fn main() {
    let flags = parse_flags();
    banner("Compaction stall: query/ingest p99 during compaction", &flags);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let gate_ms: Option<f64> = std::env::var("TKLUS_STALL_GATE_MS")
        .ok()
        .map(|v| v.parse().expect("TKLUS_STALL_GATE_MS must be a number (milliseconds)"));

    let corpus = standard_corpus(&flags);
    let posts = corpus.posts().to_vec();
    let requests: Vec<(TklusQuery, Ranking)> = query_workload(&corpus)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ranking = if i % 2 == 0 { Ranking::Sum } else { Ranking::Max(BoundsMode::Global) };
            (to_query(spec, 10.0, 5, Semantics::Or), ranking)
        })
        .collect();
    let base = std::env::temp_dir().join(format!("tklus-bench-compact-{}", std::process::id()));

    // TKLUS_STALL_FORCE=1 runs the measurement on a starved host anyway —
    // for smoke-testing the harness, not for publishing numbers.
    let valid = host_cores >= MIN_CORES || std::env::var("TKLUS_STALL_FORCE").is_ok();
    let stats = valid.then(|| measure(&base, &posts, &requests));
    match &stats {
        Some(stats) => {
            println!(
                "{:>12} {:>16} {:>16} {:>16}",
                "compact ms", "query p99 us", "query max us", "ingest p99 us"
            );
            println!(
                "{:>12.1} {:>16.1} {:>16.1} {:>16.1}",
                stats.compact_ms, stats.query_p99_us, stats.query_max_us, stats.ingest_p99_us
            );
            csv_row(&[
                "stall".into(),
                format!("{:.1}", stats.compact_ms),
                format!("{:.1}", stats.query_p99_us),
                format!("{:.1}", stats.query_max_us),
                format!("{:.1}", stats.ingest_p99_us),
            ]);
        }
        None => println!(
            "host cores: {host_cores} < {MIN_CORES}; skipping (a contention curve on a starved \
             host is not a measurement)"
        ),
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"compaction_stall\",\n");
    json.push_str(&format!("  \"posts\": {},\n", flags.posts));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"valid\": {valid},\n"));
    match &stats {
        Some(stats) => {
            json.push_str("  \"skip_reason\": null,\n");
            json.push_str(&format!("  \"compact_ms\": {:.1},\n", stats.compact_ms));
            json.push_str(&format!("  \"query_p99_us\": {:.1},\n", stats.query_p99_us));
            json.push_str(&format!("  \"query_max_us\": {:.1},\n", stats.query_max_us));
            json.push_str(&format!("  \"query_samples\": {},\n", stats.query_samples));
            json.push_str(&format!("  \"ingest_p99_us\": {:.1},\n", stats.ingest_p99_us));
            json.push_str(&format!("  \"ingest_samples\": {}\n", stats.ingest_samples));
        }
        None => json.push_str(&format!(
            "  \"skip_reason\": \"host has {host_cores} cores, bench needs >= {MIN_CORES}\"\n"
        )),
    }
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_compact.json", &json).expect("write results/BENCH_compact.json");
    println!("wrote results/BENCH_compact.json");
    let _ = std::fs::remove_dir_all(&base);

    // The CI gate answers one question: did any query overlapping the
    // compaction wait longer than the swap budget?
    if let (Some(gate), Some(stats)) = (gate_ms, &stats) {
        let max_ms = stats.query_max_us / 1e3;
        if max_ms > gate {
            eprintln!(
                "STALL GATE FAILED: a query overlapping the compaction took {max_ms:.1} ms \
                 (budget {gate:.1} ms)"
            );
            std::process::exit(1);
        }
        println!("stall gate: worst overlapping query {max_ms:.1} ms <= budget {gate:.1} ms");
    }
}
