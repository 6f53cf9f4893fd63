//! The four read workloads: one static engine served by in-process
//! `tklus_http::serve`, queried with `POST /query` over one keep-alive
//! connection, closed loop.

use crate::client::HttpClient;
use crate::common::{derive, digest_answer, end_to_end, line, ms, us, Args, Measured};
use crate::contract::Outcome;
use crate::layers::{
    generate_query_set, parse_answer, time_build_parts, Answer, Corpus, Front, Query, QueryClass,
    QueryCounts, ReadEngine, Replay, Sharded,
};
use crate::stats::{self, Fnv};
use crate::trace::Recorder;
use std::time::{Duration, Instant};

/// Original posts of the read corpus (≈ 3.6 posts each with cascades).
/// Sized so that a run holds a few hundred requests of the slowest
/// class on two cores; see the README for what 20 000 would leave.
pub const READ_ORIGINALS: usize = 8_000;
/// Corpora (and engines, and set-ups) per untraced run. Latencies pool
/// over them, so one unusual corpus moves a run by a third of its weight.
const ROUNDS: u64 = 3;
/// Requests sent before the clock starts: connection, worker hand-off and
/// allocator reach steady state.
const WARMUP: usize = 5;
/// Answers per round compared with a direct `TklusEngine::query`.
const CHECKED: usize = 15;
/// Shards of the `shard.*` comparison on `query_default`.
const SHARDS: usize = 4;

pub struct ReadWorkload {
    pub class: QueryClass,
    /// Queries generated per round; a round ends at its deadline or when
    /// these are spent, so no query is sent twice.
    pub pool: usize,
    /// Requests of the traced run.
    pub trace_ops: usize,
    /// Also build the sharded engine in the traced run.
    pub shards: bool,
}

pub fn workload(name: &str) -> Option<ReadWorkload> {
    let class =
        |radius_km, and, max, min_keywords| QueryClass { radius_km, and, max, min_keywords };
    Some(match name {
        "query_default" => ReadWorkload {
            class: class(10.0, false, false, 1),
            pool: 900,
            trace_ops: 60,
            shards: true,
        },
        "query_wide_max" => ReadWorkload {
            class: class(30.0, false, true, 1),
            pool: 600,
            trace_ops: 60,
            shards: false,
        },
        "query_narrow" => ReadWorkload {
            class: class(2.0, false, false, 1),
            pool: 2_400,
            trace_ops: 150,
            shards: false,
        },
        "query_selective" => ReadWorkload {
            class: class(10.0, true, false, 2),
            pool: 24_000,
            trace_ops: 1_200,
            shards: false,
        },
        _ => return None,
    })
}

/// One round's program under test and its load.
struct Round {
    corpus: Corpus,
    engine: ReadEngine,
    front: Front,
    client: HttpClient,
    setup_s: f64,
    gen_s: f64,
}

fn set_up(seed: u64, round: u64) -> Result<Round, String> {
    let t = Instant::now();
    let corpus = Corpus::generate(READ_ORIGINALS, derive(seed, round, 0));
    let gen_s = t.elapsed().as_secs_f64();
    let engine = ReadEngine::build(&corpus);
    let front = Front::start(&engine, None)?;
    let client = HttpClient::connect(front.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Round { corpus, engine, front, client, setup_s: t.elapsed().as_secs_f64(), gen_s })
}

/// Sends one query; `Some(answer)` for a complete 200.
fn send(client: &mut HttpClient, q: &Query) -> Result<(Option<Answer>, Duration), String> {
    let t = Instant::now();
    let reply = client.post("/query", &q.body).map_err(|e| format!("POST /query: {e}"))?;
    let took = t.elapsed();
    Ok(((reply.status == 200).then(|| parse_answer(&reply.body)).flatten(), took))
}

pub fn run(w: &ReadWorkload, args: &Args) -> Result<Outcome, String> {
    let mut measured =
        Measured { setup_s: Vec::new(), latency_ms: Vec::new(), wall_s: 0.0, cpu_s: 0.0 };
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, 0usize);
    let mut fnv = Fnv::default();
    let mut report = Vec::new();
    for round in 0..ROUNDS {
        let mut r = set_up(args.seed, round)?;
        measured.setup_s.push(r.setup_s);
        let queries =
            generate_query_set(&r.corpus, w.class, w.pool + WARMUP, derive(args.seed, round, 1));
        let (warm, queries) = queries.split_at(WARMUP.min(queries.len()));
        for q in warm {
            send(&mut r.client, q)?;
        }
        let window = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
        let mut first: Vec<Option<Answer>> = Vec::with_capacity(CHECKED);
        let cpu = stats::process_cpu_s();
        let start = Instant::now();
        for q in queries {
            if start.elapsed() >= window {
                break;
            }
            let (answer, took) = send(&mut r.client, q)?;
            attempted += 1;
            match &answer {
                Some(_) => measured.latency_ms.push(ms(took)),
                None => failed += 1,
            }
            if first.len() < CHECKED {
                first.push(answer);
            }
        }
        measured.wall_s += start.elapsed().as_secs_f64();
        measured.cpu_s += stats::process_cpu_s() - cpu;
        // Every answer of the round's first requests equals a direct
        // engine query: same users, bit-equal scores.
        for (q, got) in queries.iter().zip(&first) {
            let (want, _) = r.engine.query(q)?;
            digest_answer(&mut fnv, &want);
            if got.as_ref() != Some(&want) {
                mismatches += 1;
            }
        }
        if r.front.non2xx() > 0 {
            report.push(format!("round {round}: {} non-2xx responses", r.front.non2xx()));
        }
        r.front.shutdown();
    }
    if mismatches > 0 {
        report.push(format!("FAILED: {mismatches} HTTP answers differ from TklusEngine::query"));
    }
    let metrics = end_to_end(&measured, &mut report);
    Ok(Outcome {
        correct: mismatches == 0 && failed == 0 && !measured.latency_ms.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
        answers_digest: fnv.finish(),
    })
}

/// Per-request numbers of the traced run, beside the spans.
#[derive(Default)]
struct Ledger {
    counts: Vec<QueryCounts>,
    answers: Vec<Answer>,
    cells: Vec<f64>,
    overcover: Vec<f64>,
    lists: Vec<f64>,
    bytes: Vec<f64>,
    row_lookup_us: Vec<f64>,
    row_page_reads: u64,
    thread_phi_us: Vec<f64>,
    thread_page_reads: u64,
}

pub fn run_traced(name: &str, w: &ReadWorkload, args: &Args) -> Result<Outcome, String> {
    let mut report = Vec::new();
    let mut r = set_up(args.seed, 0)?;
    let (index_s, metadata_s) = time_build_parts(&r.corpus);
    let replay = Replay::start(&r.engine, None)?;
    let queries =
        generate_query_set(&r.corpus, w.class, w.trace_ops + WARMUP, derive(args.seed, 0, 1));
    let (warm, queries) = queries.split_at(WARMUP.min(queries.len()));
    for q in warm {
        send(&mut r.client, q)?;
        replay.query(q)?;
    }

    // The same requests untraced first: the traced p50 over this one is
    // what tracing costs.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut untraced_us = Vec::with_capacity(queries.len());
    for q in queries {
        untraced_us.push(us(send(&mut r.client, q)?.1));
    }

    let (traffic_before, non2xx_before) = (r.client.traffic(), r.front.non2xx());
    let mut rec = Recorder::default();
    let mut ledger = Ledger::default();
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, 0usize);
    let mut fnv = Fnv::default();
    for (i, q) in queries.iter().enumerate() {
        // Whole requests only, and never fewer than the first third.
        if Instant::now() >= deadline && i >= w.trace_ops / 3 {
            report.push(format!(
                "traced run stopped by the clock after {i} of {} requests",
                w.trace_ops
            ));
            break;
        }
        attempted += 1;
        let (root, sent) = rec.root(i as u64, "http.roundtrip", || send(&mut r.client, q));
        let (over_socket, _) = sent?;
        let (served, by_server) = rec.replay(root, "serve.query", || replay.query(q));
        let (direct, by_engine) = rec.replay(served, "core.try_query", || r.engine.query(q));
        let (want, counts) = by_engine?;
        digest_answer(&mut fnv, &want);
        if over_socket.is_none() {
            failed += 1;
        }
        if over_socket.as_ref() != Some(&want) || by_server? != want {
            mismatches += 1;
        }
        ledger.answers.push(want);
        ledger.counts.push(counts);
        let (_, (cells, overcover)) = rec.replay(direct, "geo.cover", || r.engine.cover(q));
        ledger.cells.push(cells as f64);
        ledger.overcover.push(overcover);
        let (_, fetched) = rec.replay(direct, "index.fetch", || r.engine.fetch(q));
        ledger.lists.push(fetched.lists as f64);
        ledger.bytes.push(fetched.bytes as f64);
        let candidates = r.engine.candidates(q, &fetched);

        // The radius filter: one metadata row per candidate.
        let reads = r.engine.io().0;
        let mut in_radius = Vec::new();
        let mut batch = Duration::ZERO;
        for &tid in &candidates {
            let t = Instant::now();
            let hit = r.engine.row_in_radius(q, tid)?;
            let took = t.elapsed();
            batch += took;
            ledger.row_lookup_us.push(us(took));
            if hit == Some(true) {
                in_radius.push(tid);
            }
        }
        ledger.row_page_reads += r.engine.io().0 - reads;
        rec.add_replayed(direct, "storage.rows", batch.as_nanos() as u64);

        // Algorithm 1 on every candidate in radius, for a cost per call.
        // Algorithm 5 builds only `threads_built` of them, so the parent is
        // charged that share of the batch (all of it under `Sum`).
        let reads = r.engine.io().0;
        let mut batch = Duration::ZERO;
        for &tid in &in_radius {
            let t = Instant::now();
            std::hint::black_box(r.engine.thread_phi(tid)?);
            let took = t.elapsed();
            batch += took;
            ledger.thread_phi_us.push(us(took));
        }
        ledger.thread_page_reads += r.engine.io().0 - reads;
        let built = counts.threads_built as f64 / in_radius.len().max(1) as f64;
        rec.add_replayed(direct, "core.thread_phi", (batch.as_nanos() as f64 * built) as u64);
    }
    let traffic = r.client.traffic();
    let traced = attempted as usize;

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    // Self times add up to the root spans' durations, so these shares and
    // the unattributed one sum to 1.
    let selfs = rec.self_times();
    let total: i64 = selfs.iter().sum();
    let share_of = |span_name: &str| {
        let own: i64 = rec
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == span_name)
            .map(|(_, t)| t)
            .sum();
        own as f64 / total.max(1) as f64
    };
    for (metric, span_name) in [
        ("http.self_share", "http.roundtrip"),
        ("serve.self_share", "serve.query"),
        ("geo.self_share", "geo.cover"),
        ("index.self_share", "index.fetch"),
        ("storage.self_share", "storage.rows"),
        ("core.self_share", "core.thread_phi"),
        // What `try_query` spends that no call from outside reproduces:
        // combine, scoring, top-k and glue.
        ("trace.unattributed_share", "core.try_query"),
    ] {
        metrics.push((metric, share_of(span_name)));
    }
    let roundtrip_us = rec.durations_us("http.roundtrip");
    let traced_p50 = stats::median(&roundtrip_us);
    metrics.push(("trace.op_us_p50", traced_p50));
    metrics.push((
        "trace.overhead_ratio",
        traced_p50 / stats::median(&untraced_us[..traced.min(untraced_us.len())]),
    ));
    metrics.push(("trace.ops", traced as f64));

    metrics.push(("gen.corpus_share", r.gen_s / r.setup_s));
    metrics.push(("index.build_share", index_s / r.setup_s));
    metrics.push(("core.metadata_load_share", metadata_s / r.setup_s));
    metrics.push((
        "index.bytes_per_post",
        r.engine.index.index_bytes as f64 / r.engine.index.posts as f64,
    ));

    let requests = (traffic.requests - traffic_before.requests).max(1) as f64;
    metrics.push((
        "http.req_bytes_mean",
        (traffic.bytes_sent - traffic_before.bytes_sent) as f64 / requests,
    ));
    metrics.push((
        "http.resp_bytes_mean",
        (traffic.bytes_received - traffic_before.bytes_received) as f64 / requests,
    ));
    metrics.push(("http.non2xx", (r.front.non2xx() - non2xx_before) as f64));
    metrics.push(("serve.shed", replay.shed() as f64));

    metrics.push(("geo.cover_us", stats::median(&rec.durations_us("geo.cover"))));
    metrics.push(("geo.cells_per_query", stats::mean(&ledger.cells)));
    metrics.push(("geo.overcover_ratio", stats::mean(&ledger.overcover)));
    metrics.push(("index.fetch_us", stats::median(&rec.durations_us("index.fetch"))));
    metrics.push(("index.lists_per_query", stats::mean(&ledger.lists)));
    metrics.push(("index.bytes_per_query", stats::mean(&ledger.bytes)));

    let sum = |f: fn(&QueryCounts) -> u64| ledger.counts.iter().map(f).sum::<u64>() as f64;
    let per_query = |v: f64| v / ledger.counts.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let candidates = sum(|c| c.candidates as u64);
    let built = sum(|c| c.threads_built as u64);
    let pruned = sum(|c| c.threads_pruned as u64);
    let elapsed = sum(|c| c.elapsed_ns);
    let threads = sum(|c| c.stage_threads_ns);
    let scoring = sum(|c| c.stage_scoring_ns + c.stage_topk_ns);
    let front_half = sum(|c| c.stage_cover_ns + c.stage_fetch_ns + c.stage_combine_ns);
    metrics.push(("core.query_us", stats::median(&rec.durations_us("core.try_query"))));
    metrics.push(("core.candidates_per_query", per_query(candidates)));
    metrics.push(("core.in_radius_ratio", ratio(sum(|c| c.in_radius as u64), candidates)));
    metrics.push(("core.threads_built_per_query", per_query(built)));
    metrics.push(("core.prune_ratio", ratio(pruned, built + pruned)));
    metrics.push(("core.stage_threads_share", ratio(threads, elapsed)));
    metrics.push(("core.stage_scoring_share", ratio(scoring, elapsed)));
    metrics.push(("core.stage_fetch_combine_share", ratio(front_half, elapsed)));
    metrics.push((
        "core.stage_untimed_share",
        ratio(elapsed - threads - scoring - front_half, elapsed),
    ));
    metrics.push(("core.thread_phi_us", stats::median(&ledger.thread_phi_us)));
    metrics.push((
        "storage.page_reads_per_thread",
        ratio(ledger.thread_page_reads as f64, ledger.thread_phi_us.len() as f64),
    ));
    metrics.push(("storage.row_lookup_us", stats::median(&ledger.row_lookup_us)));
    metrics.push((
        "storage.page_reads_per_lookup",
        ratio(ledger.row_page_reads as f64, ledger.row_lookup_us.len() as f64),
    ));
    metrics.push(("storage.page_reads_per_query", per_query(sum(|c| c.page_reads))));
    let (_, hits, misses) = r.engine.io();
    metrics.push(("storage.buffer_hit_ratio", ratio(hits as f64, (hits + misses) as f64)));

    if w.shards {
        let sharded = Sharded::build(&r.corpus, SHARDS)?;
        let (mut shard_us, mut fanout, mut skipped) = (Vec::new(), 0usize, 0usize);
        for (q, want) in queries.iter().zip(&ledger.answers) {
            let t = Instant::now();
            let (got, dispatched, skipped_by_bound) = sharded.query(q);
            shard_us.push(us(t.elapsed()));
            fanout += dispatched;
            skipped += skipped_by_bound;
            if got.as_ref() != Some(want) {
                mismatches += 1;
                report.push(format!(
                    "FAILED: the {SHARDS}-shard answer differs from the monolithic one"
                ));
            }
        }
        let shard_p50 = stats::median(&shard_us);
        metrics.push(("shard.query_us", shard_p50));
        metrics.push((
            "shard.overhead_ratio",
            shard_p50 / stats::median(&rec.durations_us("core.try_query")),
        ));
        metrics.push(("shard.skip_ratio", ratio(skipped as f64, (fanout + skipped) as f64)));
    }

    rec.write_jsonl(&args.out_dir.join(format!("trace-{name}.jsonl")))
        .map_err(|e| e.to_string())?;
    report.push(line("http.roundtrip", "us", traced_p50, traced));
    report.push(line("row lookups timed", "count", ledger.row_lookup_us.len() as f64, traced));
    report.push(line(
        "threads built by replay",
        "count",
        ledger.thread_phi_us.len() as f64,
        traced,
    ));
    if mismatches > 0 {
        report
            .push(format!("FAILED: {mismatches} answers differ between socket, server and engine"));
    }
    r.front.shutdown();
    Ok(Outcome {
        correct: mismatches == 0 && failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
        answers_digest: fnv.finish(),
    })
}
