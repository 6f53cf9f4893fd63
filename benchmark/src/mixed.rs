//! `mixed_rw`: one `IngestStore` driven directly by exactly two generator
//! threads — A ingests open loop at a fixed rate, B issues
//! `query_default`-shaped `try_query` calls closed loop until A finishes —
//! with the background compactor running and one compaction in the middle
//! of the window.
//!
//! The workload's operation is B's query: reads beside writes. A's side is
//! in the report and in the traced run's rows, not in the end-to-end
//! metrics, because it is not steady enough to carry a bound: beside a
//! closed-loop reader an ingest waits several queries for the write latch
//! (5 to 14 ms from its due time against 1.2 ms beside a reader that spins
//! without the lock), which makes its median a function of the seed's query
//! mix, and the one ingest that meets the compaction swap has been seen to
//! wait 0.9, 2.1 and 7.0 s in three runs, which is the whole p90 of a run.
//!
//! Driven below HTTP on purpose: `/query` and `/ingest` reach different
//! engines today, so an HTTP version would measure a frozen engine.

use crate::common::{
    derive, digest_answer, end_to_end, line, ms, us, Args, Measured, OpenLoop, ScratchDir,
};
use crate::contract::Outcome;
use crate::counting_fs::CountingFs;
use crate::layers::{generate_query_set, Answer, Corpus, Query, QueryClass, Store};
use crate::stats::{self, Fnv};
use crate::trace::Recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Original posts of the corpus (≈ 6 000 posts with cascades).
const MIXED_ORIGINALS: usize = 1_700;
/// Posts ingested and sealed during set-up.
const SEALED_POSTS: usize = 3_000;
/// Posts ingested after the seal, still live when the window opens: the
/// memtable crosses the compactor's threshold of 1 024 four and a half
/// seconds into thread A's schedule.
const LIVE_AT_START: usize = 800;
const BASE_POSTS: usize = SEALED_POSTS + LIVE_AT_START;
/// Thread A's schedule: two thirds of what the store sustains beside a
/// closed-loop reader (200 posts/s is past it: the backlog never drains).
const INGEST_PER_S: f64 = 50.0;
/// Queries generated; B stops when A does.
const QUERY_POOL: usize = 9_000;
/// Store answers compared with a fresh engine at the end.
const CHECKED: usize = 20;
/// Live posts under the traced run's live-versus-sealed query comparison.
const LIVE_FOR_OVERHEAD: usize = 1_000;
/// Generator lateness beyond which thread A is not an open loop any more.
const LATE_LIMIT_US: f64 = 5_000.0;

const CLASS: QueryClass = QueryClass { radius_km: 10.0, and: false, max: false, min_keywords: 1 };

struct Rig {
    /// Held for its `Drop`, which removes the store's directory.
    _dir: ScratchDir,
    corpus: Corpus,
    store: Store,
    queries: Vec<Query>,
    setup_s: f64,
    gen_s: f64,
    fs: Option<Arc<CountingFs>>,
}

/// Corpus, store with the base preloaded and mostly sealed, and the query
/// list (which is load, not set-up: it is generated after the clock stops).
fn set_up(args: &Args, counting: bool) -> Result<Rig, String> {
    let dir = ScratchDir::new(&args.out_dir, "mixed").map_err(|e| format!("scratch dir: {e}"))?;
    let t = Instant::now();
    let corpus = Corpus::generate(MIXED_ORIGINALS, derive(args.seed, 0, 4));
    let gen_s = t.elapsed().as_secs_f64();
    if corpus.len() < BASE_POSTS + 1 {
        return Err(format!("the corpus has only {} posts", corpus.len()));
    }
    let (store, fs) = if counting {
        let (store, _, fs) = Store::open_counting(dir.path())?;
        (store, Some(fs))
    } else {
        (Store::open(dir.path())?.0, None)
    };
    for i in 0..BASE_POSTS {
        store.ingest(&corpus, i)?;
        if i + 1 == SEALED_POSTS {
            store.compact()?;
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    let queries = generate_query_set(&corpus, CLASS, QUERY_POOL, derive(args.seed, 0, 5));
    Ok(Rig { _dir: dir, corpus, store, queries, setup_s, gen_s, fs })
}

/// What the two threads measured.
#[derive(Default)]
struct Mix {
    /// Thread A: ack latency from the due time, and how late it started.
    ack_ms: Vec<f64>,
    late_us: Vec<f64>,
    ingested: usize,
    ingest_failed: u64,
    lost_after_ack: u64,
    /// Thread B.
    query_ms: Vec<f64>,
    query_failed: u64,
    wall_s: f64,
    cpu_s: f64,
}

fn run_mix(rig: &Rig, seconds: f64) -> Mix {
    let done = AtomicBool::new(false);
    let compactor = rig.store.spawn_compactor();
    let cpu = stats::process_cpu_s();
    let start = Instant::now();
    let mut mix = Mix::default();
    let (a, b) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let schedule = OpenLoop::new(start, INGEST_PER_S);
            let window = Duration::from_secs_f64(seconds);
            let (mut ack_ms, mut late_us) = (Vec::new(), Vec::new());
            let (mut failed, mut lost, mut n) = (0u64, 0u64, 0usize);
            while BASE_POSTS + n < rig.corpus.len() && schedule.due(n as u64) < start + window {
                schedule.wait_for(n as u64);
                let started = Instant::now();
                let acked = rig.store.ingest(&rig.corpus, BASE_POSTS + n).is_ok();
                let due = schedule.account(n as u64, started, Instant::now());
                if acked {
                    ack_ms.push(ms(due.latency));
                    late_us.push(us(due.late));
                    // Read-your-write, right after the ack.
                    lost += u64::from(!rig.store.contains_post(rig.corpus.post_id(BASE_POSTS + n)));
                } else {
                    failed += 1;
                }
                n += 1;
            }
            // Publishes nothing but the flag itself.
            done.store(true, Ordering::Relaxed);
            (ack_ms, late_us, n, failed, lost)
        });
        let reader = scope.spawn(|| {
            let (mut query_ms, mut failed) = (Vec::new(), 0u64);
            for q in &rig.queries {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                let t = Instant::now();
                match rig.store.query(q) {
                    Ok(answer) => {
                        std::hint::black_box(answer);
                        query_ms.push(ms(t.elapsed()));
                    }
                    Err(_) => failed += 1,
                }
            }
            (query_ms, failed)
        });
        (writer.join().expect("writer thread"), reader.join().expect("reader thread"))
    });
    mix.wall_s = start.elapsed().as_secs_f64();
    mix.cpu_s = stats::process_cpu_s() - cpu;
    drop(compactor);
    (mix.ack_ms, mix.late_us, mix.ingested, mix.ingest_failed, mix.lost_after_ack) = a;
    (mix.query_ms, mix.query_failed) = b;
    mix
}

/// The store's answers to its first queries equal a fresh
/// `TklusEngine::build` over `store.posts()`; digests what was compared.
fn check_against_rebuild(rig: &Rig, report: &mut Vec<String>) -> Result<(bool, u64), String> {
    let fresh = rig.store.rebuilt_engine()?;
    let mut fnv = Fnv::default();
    let mut same = true;
    for q in rig.queries.iter().take(CHECKED) {
        let got: Answer = rig.store.query(q)?;
        let (want, _) = fresh.query(q)?;
        digest_answer(&mut fnv, &want);
        same &= got == want;
    }
    if !same {
        report.push("FAILED: store answers differ from a fresh engine over store.posts()".into());
    }
    Ok((same, fnv.finish()))
}

/// Thread A's side of a mix, for the report.
fn report_write_side(mix: &Mix, rounds: u64, report: &mut Vec<String>) {
    let n = mix.ack_ms.len();
    let max = mix.ack_ms.iter().fold(0.0f64, |m, v| m.max(*v));
    report.push(line("ingest_ack_from_due_p50", "ms", stats::median(&mix.ack_ms), n));
    report.push(line("ingest_ack_from_due_p99", "ms", stats::percentile(&mix.ack_ms, 99.0), n));
    report.push(line("ingest_ack_from_due_max", "ms", max, n));
    let late_p99 = stats::percentile(&mix.late_us, 99.0);
    report.push(line("generator_late_p50", "us", stats::median(&mix.late_us), n));
    report.push(line("generator_late_p99", "us", late_p99, n));
    if late_p99 > LATE_LIMIT_US {
        report.push(format!(
            "generator lateness p99 is beyond {LATE_LIMIT_US} us: thread A fell behind its \
             schedule at least once, and the wait is in its latencies"
        ));
    }
    report.push(line("compaction_rounds", "count", rounds as f64, mix.ingested));
    if mix.lost_after_ack > 0 {
        report.push(format!(
            "FAILED: {} acknowledged posts were not readable right after the ack",
            mix.lost_after_ack
        ));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut report = Vec::new();
    let rig = set_up(args, false)?;
    let mix = run_mix(&rig, args.seconds);
    let (rounds, rounds_failed) = rig.store.compactions();
    let (same, digest) = check_against_rebuild(&rig, &mut report)?;
    report_write_side(&mix, rounds, &mut report);
    let trouble = mix.query_failed + mix.ingest_failed + rounds_failed + mix.lost_after_ack;
    let measured = Measured {
        setup_s: vec![rig.setup_s],
        latency_ms: mix.query_ms,
        wall_s: mix.wall_s,
        cpu_s: mix.cpu_s,
    };
    let metrics = end_to_end(&measured, &mut report);
    Ok(Outcome {
        correct: same && trouble == 0 && !measured.latency_ms.is_empty(),
        attempted: (measured.latency_ms.len() as u64 + mix.query_failed).max(1),
        failed: mix.query_failed,
        metrics,
        report,
        answers_digest: digest,
    })
}

pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut report = Vec::new();
    let rig = set_up(args, true)?;
    let fs = rig.fs.as_ref().expect("counting store");

    // The mix itself for half the time: thread A's side — generator
    // lateness, compaction rounds, the longest ack — and B's query p50
    // beside it.
    let mix = run_mix(&rig, args.seconds / 2.0);
    let (rounds, _) = rig.store.compactions();
    report_write_side(&mix, rounds, &mut report);
    let mut next = BASE_POSTS + mix.ingested;

    // Then one thread, every count repeatable: bring the memtable to a
    // known size, time the same queries over live rows and right after
    // `compact()`.
    rig.store.compact()?;
    let mut rec = Recorder::default();
    let fs_before = fs.snapshot();
    while rig.store.live_posts() < LIVE_FOR_OVERHEAD && next < rig.corpus.len() {
        rec.root(next as u64, "wal.ingest", || rig.store.ingest(&rig.corpus, next)).1?;
        next += 1;
    }
    let ingest_fs = fs.snapshot().since(&fs_before);
    let live = rig.store.live_posts();
    let probe = &rig.queries[..CHECKED.min(rig.queries.len())];
    let time_queries = |rec: &mut Recorder, span: &'static str| -> Result<Vec<f64>, String> {
        let mut out = Vec::new();
        for (i, q) in probe.iter().enumerate() {
            let (id, answered) = rec.root(i as u64, span, || rig.store.query(q));
            answered?;
            out.push(rec.span(id).duration_ns() as f64 / 1e3);
        }
        Ok(out)
    };
    let over_live = time_queries(&mut rec, "wal.try_query.live")?;
    rig.store.compact()?;
    let sealed = time_queries(&mut rec, "wal.try_query.sealed")?;
    // Once more without the recorder: what recording a span costs.
    let mut plain = Vec::new();
    for q in probe {
        let t = Instant::now();
        rig.store.query(q)?;
        plain.push(us(t.elapsed()));
    }
    let (same, digest) = check_against_rebuild(&rig, &mut report)?;

    let ingest_us = rec.durations_us("wal.ingest");
    let fs_share = ingest_fs.total().nanos as f64 / (ingest_us.iter().sum::<f64>() * 1e3).max(1.0);
    let mix_query_us = stats::median(&mix.query_ms) * 1e3;
    let metrics = vec![
        // The traced operation is the uncontended query: one layer from
        // outside, so all of it is unattributed.
        ("trace.unattributed_share", 1.0),
        ("trace.op_us_p50", stats::median(&sealed)),
        ("trace.overhead_ratio", stats::median(&sealed) / stats::median(&plain)),
        ("trace.ops", (ingest_us.len() + 2 * probe.len()) as f64),
        ("gen.corpus_share", rig.gen_s / rig.setup_s),
        ("wal.ingest_us", stats::median(&ingest_us)),
        ("wal.ack_p99_us", stats::percentile(&mix.ack_ms, 99.0) * 1e3),
        ("wal.fs_time_share", fs_share),
        ("wal.live_query_overhead_ratio", stats::median(&over_live) / stats::median(&sealed)),
        ("mixed.gen_late_p99_us", stats::percentile(&mix.late_us, 99.0)),
        ("mixed.compactions", rounds as f64),
        ("mixed.ack_p50_us", stats::median(&mix.ack_ms) * 1e3),
        ("mixed.ack_max_us", mix.ack_ms.iter().fold(0.0f64, |m, v| m.max(*v)) * 1e3),
        ("mixed.query_us", mix_query_us),
    ];
    rec.write_jsonl(&args.out_dir.join("trace-mixed_rw.jsonl")).map_err(|e| e.to_string())?;
    report.push(line("live rows under wal.try_query.live", "count", live as f64, probe.len()));
    let failed = mix.ingest_failed + mix.query_failed;
    Ok(Outcome {
        correct: same && failed == 0 && mix.lost_after_ack == 0,
        attempted: (mix.ingested + mix.query_ms.len() + ingest_us.len() + 2 * probe.len()) as u64,
        failed,
        metrics,
        report,
        answers_digest: digest,
    })
}
