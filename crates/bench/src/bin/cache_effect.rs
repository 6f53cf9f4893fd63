//! Effect of the multi-level query cache hierarchy on query latency.
//!
//! Real query logs are Zipf-shaped: a few hot (location, keywords) pairs
//! dominate. This bench replays such a log three times against equivalent
//! engines and compares per-query latency:
//!
//! 1. **off** — caches disabled (the paper's configuration);
//! 2. **cache-cold** — all three layers enabled but starting empty, so
//!    this pass pays every miss (its price shows the probe overhead);
//! 3. **cache-warm** — the same engine replaying the same log, now
//!    answering hot queries from the cover, postings, and thread caches.
//!
//! Every single answer in every pass is verified bit-identical to the
//! cache-off engine's (ids and exact `f64` score bits) before any number
//! is reported — a run that diverges panics rather than emitting JSON.
//! Emits `results/BENCH_cache.json`.
//!
//! The corpus is reply-heavier than the standard one (deep cascades) so
//! thread construction carries its realistic share of the per-candidate
//! cost; see `tklus-gen`'s cascade module for the shape parameters.

use std::time::Instant;
use tklus_bench::{banner, csv_row, ms, parse_flags, query_workload, to_query};
use tklus_core::{BoundsMode, CacheConfig, EngineConfig, RankedUser, Ranking, TklusEngine};
use tklus_gen::cascade::CascadeConfig;
use tklus_gen::{generate_corpus, GenConfig};
use tklus_model::{Corpus, Semantics, TklusQuery};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Zipf};

/// Zipf exponent of the replayed query log (s=1 is the classic web-query
/// shape; the distinct set is small so the skew is visible but the tail
/// still gets replayed).
const ZIPF_S: f64 = 1.05;

fn reply_heavy_corpus(posts: usize, seed: u64) -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: posts,
        // More users than the standard corpus: cascades multiply the post
        // count ~100x, and Definition 9 walks every post of a candidate
        // user, so the per-user post list must stay city-scale realistic.
        users: (posts * 10).max(50),
        seed,
        cascade: CascadeConfig {
            p_respond: 0.8,
            p_more: 0.7,
            depth_decay: 0.85,
            max_depth: 6,
            ..CascadeConfig::default()
        },
        ..GenConfig::default()
    })
}

fn engine_with_caches(corpus: &Corpus, caches: CacheConfig) -> TklusEngine {
    // A generous page budget for *both* engines: the comparison isolates
    // the query-cache layers, not buffer-pool thrash.
    let config = EngineConfig { cache_pages: 8192, caches, ..EngineConfig::default() };
    TklusEngine::build(corpus, &config).0
}

/// Replays the log, timing each query and checking its answer against the
/// reference (bitwise).
fn replay(
    engine: &TklusEngine,
    requests: &[(TklusQuery, Ranking)],
    reference: &[Vec<RankedUser>],
    log: &[usize],
    pass: &str,
) -> Vec<f64> {
    log.iter()
        .map(|&i| {
            let (q, ranking) = &requests[i];
            let t = Instant::now();
            let (top, _) = engine.query(q, *ranking);
            let elapsed = ms(t.elapsed());
            let want = &reference[i];
            assert_eq!(top.len(), want.len(), "{pass}: request {i} changed cardinality");
            for (g, w) in top.iter().zip(want) {
                assert_eq!(g.user, w.user, "{pass}: request {i} changed ranking");
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "{pass}: request {i} changed score bits"
                );
            }
            elapsed
        })
        .collect()
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
    banner("Cache effect: Zipf query log, off vs cold vs warm caches", &flags);
    let corpus = reply_heavy_corpus(flags.posts, flags.seed);
    println!("corpus with cascades: {} posts", corpus.len());

    let off = engine_with_caches(&corpus, CacheConfig::default());
    let caches = CacheConfig { cover: 256, postings: 4096, thread: 1 << 19 };
    let cached = engine_with_caches(&corpus, caches);

    // Distinct request set: the Section VI-B1 workload with a ranking mix.
    let specs = query_workload(&corpus);
    let requests: Vec<(TklusQuery, Ranking)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ranking = match i % 6 {
                5 => Ranking::Max(BoundsMode::HotKeywords),
                _ => Ranking::Sum,
            };
            (to_query(spec, 20.0, 5, Semantics::Or), ranking)
        })
        .collect();

    // Zipf-skewed log over the distinct requests: rank r is replayed with
    // probability ∝ r^-s.
    let log_len = (flags.queries.max(10) * 30).max(requests.len() * 2);
    let zipf = Zipf::new(requests.len() as u64, ZIPF_S).expect("valid Zipf parameters");
    let mut rng = StdRng::seed_from_u64(flags.seed ^ 0x5EED_CAFE);
    let log: Vec<usize> = (0..log_len).map(|_| zipf.sample(&mut rng) as usize - 1).collect();
    let distinct_replayed = {
        let mut seen: Vec<bool> = vec![false; requests.len()];
        log.iter().for_each(|&i| seen[i] = true);
        seen.iter().filter(|&&b| b).count()
    };
    println!("log: {log_len} queries over {distinct_replayed} distinct requests (s={ZIPF_S})");

    // Reference answers from the cache-off engine; this pass also faults
    // every partition and metadata page into both engines' buffer pools so
    // the comparison below isolates the query-cache layers.
    let reference: Vec<Vec<RankedUser>> =
        requests.iter().map(|(q, r)| off.query(q, *r).0).collect();
    for (q, r) in &requests {
        std::hint::black_box(cached.query(q, *r));
    }
    // The warm-up above also filled the query caches; drop back to a cold
    // hierarchy by rebuilding (cheap next to the replay) so the cache-cold
    // pass really starts empty.
    let cached = engine_with_caches(&corpus, caches);
    for (q, r) in &requests {
        std::hint::black_box(off.query(q, *r));
    }

    let cold_lat = replay(&cached, &requests, &reference, &log, "cache-cold");
    // Off and warm are measured *interleaved*, one query at a time with
    // alternating order, so host-load drift over the run hits both series
    // equally instead of whichever pass happened to run last.
    let mut off_lat = Vec::with_capacity(log.len());
    let mut warm_lat = Vec::with_capacity(log.len());
    for (n, &i) in log.iter().enumerate() {
        if n % 2 == 0 {
            off_lat.extend(replay(&off, &requests, &reference, &[i], "off"));
            warm_lat.extend(replay(&cached, &requests, &reference, &[i], "cache-warm"));
        } else {
            warm_lat.extend(replay(&cached, &requests, &reference, &[i], "cache-warm"));
            off_lat.extend(replay(&off, &requests, &reference, &[i], "off"));
        }
    }

    let (off_p50, off_p90, off_total) = summarize(off_lat);
    let (cold_p50, cold_p90, cold_total) = summarize(cold_lat);
    let (warm_p50, warm_p90, warm_total) = summarize(warm_lat);
    let speedup_p50 = off_p50 / warm_p50.max(1e-9);
    let speedup_total = off_total / warm_total.max(1e-9);

    println!("{:<12} {:>10} {:>10} {:>12}", "pass", "p50 ms", "p90 ms", "total ms");
    for (name, p50, p90, total) in [
        ("off", off_p50, off_p90, off_total),
        ("cache-cold", cold_p50, cold_p90, cold_total),
        ("cache-warm", warm_p50, warm_p90, warm_total),
    ] {
        println!("{name:<12} {p50:>10.3} {p90:>10.3} {total:>12.1}");
        csv_row(&[name.into(), format!("{p50:.3}"), format!("{p90:.3}"), format!("{total:.1}")]);
    }
    println!("median speedup warm vs off: {speedup_p50:.2}x (total {speedup_total:.2}x)");

    let cs = cached.cache_stats();
    println!(
        "cache hit rates: cover {:.0}%, postings {:.0}%, thread {:.0}%",
        cs.cover.hit_rate() * 100.0,
        cs.postings.hit_rate() * 100.0,
        cs.thread.hit_rate() * 100.0,
    );

    // Hand-rolled JSON: flat scalar lines.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"cache_effect\",\n");
    json.push_str(&format!("  \"posts\": {},\n", flags.posts));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"corpus_posts\": {},\n", corpus.len()));
    json.push_str(&format!("  \"log_len\": {log_len},\n"));
    json.push_str(&format!("  \"distinct_requests\": {},\n", requests.len()));
    json.push_str(&format!("  \"zipf_s\": {ZIPF_S},\n"));
    json.push_str(&format!(
        "  \"cache_config\": {{ \"cover\": {}, \"postings\": {}, \"thread\": {} }},\n",
        caches.cover, caches.postings, caches.thread
    ));
    json.push_str("  \"passes\": [\n");
    for (i, (name, p50, p90, total)) in [
        ("off", off_p50, off_p90, off_total),
        ("cache_cold", cold_p50, cold_p90, cold_total),
        ("cache_warm", warm_p50, warm_p90, warm_total),
    ]
    .iter()
    .enumerate()
    {
        let comma = if i < 2 { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"pass\": \"{name}\", \"p50_ms\": {p50:.4}, \"p90_ms\": {p90:.4}, \"total_ms\": {total:.2} }}{comma}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"hit_rates\": {{ \"cover\": {:.4}, \"postings\": {:.4}, \"thread\": {:.4} }},\n",
        cs.cover.hit_rate(),
        cs.postings.hit_rate(),
        cs.thread.hit_rate()
    ));
    json.push_str(&format!("  \"median_speedup_warm_vs_off\": {speedup_p50:.2},\n"));
    json.push_str(&format!("  \"total_speedup_warm_vs_off\": {speedup_total:.2},\n"));
    json.push_str("  \"results_verified_identical\": true\n");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_cache.json", &json).expect("write results/BENCH_cache.json");
    println!("wrote results/BENCH_cache.json");
}
