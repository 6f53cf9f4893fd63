//! `ingest_stream`: a generated corpus sent in id order, one post per
//! `POST /ingest`, over one connection to a `WalSink` store on `StdFs` in
//! a fresh directory with the background compactor running; then the
//! server stops without a final seal and the directory is reopened.

use crate::client::HttpClient;
use crate::common::{dir_bytes, end_to_end, line, ms, us, Args, Measured, ScratchDir};
use crate::contract::Outcome;
use crate::counting_fs::{FileClass, FsCounts, Op};
use crate::layers::{Corpus, Front, ReadEngine, Replay, Store};
use crate::stats::{self, Fnv};
use crate::trace::Recorder;
use std::time::{Duration, Instant};

/// Original posts of the ingest corpus: ≈ 21 000 posts with cascades,
/// twice what a run's window of `POST /ingest` carries on this host.
const INGEST_ORIGINALS: usize = 6_000;
/// Posts of the frozen engine `/query` would be answered from (as in
/// `tklus serve-http --wal`, a different engine from the store's).
const QUERY_ENGINE_POSTS: usize = 1_000;
/// Times the set-up is made; the last one is measured on.
const SETUPS: usize = 3;
/// Posts sent before the clock starts.
const WARMUP: usize = 20;
/// Traced run: posts sent untraced through a plain store first, then
/// posts sent through the counting store, a third at each entry level.
const UNTRACED_POSTS: usize = 2_048;
const TRACED_POSTS: usize = 3_072;
/// The traced run compacts itself every this many posts, so that every
/// count repeats; it is `StoreConfig::default().compact_threshold`.
const COMPACT_EVERY: usize = 1_024;
/// Posts of the WAL-only directory the traced run replays.
const REPLAYED_POSTS: usize = 512;

/// The program under test for one set-up.
struct Rig {
    dir: ScratchDir,
    engine: ReadEngine,
    store: Store,
    front: Front,
    client: HttpClient,
}

fn set_up(corpus: &Corpus, args: &Args, tag: &str) -> Result<Rig, String> {
    let dir = ScratchDir::new(&args.out_dir, tag).map_err(|e| format!("scratch dir: {e}"))?;
    let engine = ReadEngine::build(&corpus.prefix(QUERY_ENGINE_POSTS.min(corpus.len())));
    let (store, _) = Store::open(dir.path())?;
    let front = Front::start(&engine, Some(&store))?;
    let client = HttpClient::connect(front.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Rig { dir, engine, store, front, client })
}

/// Sends post `i`; `true` for a 200 acknowledgement.
fn send(client: &mut HttpClient, body: &str) -> Result<(bool, Duration), String> {
    let t = Instant::now();
    let reply = client.post("/ingest", body).map_err(|e| format!("POST /ingest: {e}"))?;
    Ok((reply.status == 200, t.elapsed()))
}

fn digest_ids(corpus: &Corpus, acked: &[usize]) -> u64 {
    let mut fnv = Fnv::default();
    acked.iter().for_each(|&i| fnv.write_u64(corpus.post_id(i)));
    fnv.finish()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut report = Vec::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    for n in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let corpus = Corpus::generate(INGEST_ORIGINALS, crate::common::derive(args.seed, 0, 2));
        let rig = set_up(&corpus, args, &format!("ingest-{n}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((corpus, rig));
    }
    let (corpus, mut rig) = built.expect("SETUPS is positive");
    let bodies: Vec<String> = (0..corpus.len()).map(|i| corpus.ingest_body(i)).collect();

    let compactor = rig.store.spawn_compactor();
    let mut acked: Vec<usize> = Vec::with_capacity(corpus.len());
    let mut failed = 0u64;
    for (i, body) in bodies.iter().enumerate().take(WARMUP) {
        match send(&mut rig.client, body)?.0 {
            true => acked.push(i),
            false => failed += 1,
        }
    }
    let mut latency_ms = Vec::with_capacity(corpus.len());
    let window = Duration::from_secs_f64(args.seconds);
    let cpu = stats::process_cpu_s();
    let start = Instant::now();
    let mut sent = WARMUP;
    while sent < bodies.len() && start.elapsed() < window {
        let (ok, took) = send(&mut rig.client, &bodies[sent])?;
        if ok {
            acked.push(sent);
            latency_ms.push(ms(took));
        } else {
            failed += 1;
        }
        sent += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu;
    if sent == bodies.len() {
        report.push(format!("the corpus was spent after {wall_s:.2} s"));
    }

    // Stop without a final seal: compactor first, then the front-end; the
    // store goes with its last owner.
    drop(compactor);
    let (rounds, rounds_failed) = rig.store.compactions();
    let Rig { dir, store, front, .. } = rig;
    front.shutdown();
    drop(store);

    let t = Instant::now();
    let (reopened, info) = Store::open(dir.path())?;
    let recovery_s = t.elapsed().as_secs_f64();
    let mut correct = failed == 0 && rounds_failed == 0;
    if reopened.acked_posts() != acked.len() {
        correct = false;
        report.push(format!(
            "FAILED: {} acks received, {} posts after reopen",
            acked.len(),
            reopened.acked_posts()
        ));
    }
    let missing = acked.iter().filter(|&&i| !reopened.contains_post(corpus.post_id(i))).count();
    if missing > 0 {
        correct = false;
        report.push(format!("FAILED: {missing} acknowledged posts are gone after reopen"));
    }
    reopened.compact()?;
    let user_bytes: u64 = acked.iter().map(|&i| corpus.user_bytes(i..i + 1)).sum();
    drop(reopened);
    let space_amp = dir_bytes(dir.path()) as f64 / user_bytes.max(1) as f64;

    let measured = Measured { setup_s, latency_ms, wall_s, cpu_s };
    let metrics = end_to_end(&measured, &mut report);
    let n = measured.latency_ms.len();
    report.push(line("ingest_ack_p99", "ms", stats::percentile(&measured.latency_ms, 99.0), n));
    report.push(line("compaction_rounds", "count", rounds as f64, n));
    report.push(line("recovery", "s", recovery_s, info.sealed_posts + info.live_posts));
    report.push(format!(
        "reopen found {} sealed + {} live posts at generation {}",
        info.sealed_posts, info.live_posts, info.generation
    ));
    report.push(line("space_amp", "ratio", space_amp, acked.len()));
    Ok(Outcome {
        correct: correct && n > 0,
        attempted: (sent as u64).max(1),
        failed,
        metrics,
        report,
        answers_digest: digest_ids(&corpus, &acked),
    })
}

/// One counted `IngestStore::open`: posts found per second, bytes read.
fn counted_open(dir: &std::path::Path) -> Result<(f64, u64), String> {
    let t = Instant::now();
    let (store, info, fs) = Store::open_counting(dir)?;
    let s = t.elapsed().as_secs_f64();
    drop(store);
    Ok(((info.sealed_posts + info.live_posts) as f64 / s, fs.snapshot().op(Op::Read).bytes))
}

/// What the counting filesystem saw, split between ingest and compaction.
#[derive(Default)]
struct FsLedger {
    compaction: Vec<FsCounts>,
    compact_ms: Vec<f64>,
}

pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut report = Vec::new();
    let t = Instant::now();
    let corpus = Corpus::generate(INGEST_ORIGINALS, crate::common::derive(args.seed, 0, 2));
    let gen_s = t.elapsed().as_secs_f64();
    let mut rig = set_up(&corpus, args, "ingest-plain")?;
    let setup_s = t.elapsed().as_secs_f64();
    let total = (UNTRACED_POSTS.max(TRACED_POSTS)).min(corpus.len());
    let bodies: Vec<String> = (0..total).map(|i| corpus.ingest_body(i)).collect();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Untraced, as the end-to-end run does it: plain StdFs, background
    // compactor. Its p50 is the base of `trace.overhead_ratio`.
    let compactor = rig.store.spawn_compactor();
    let mut untraced_us = Vec::with_capacity(UNTRACED_POSTS);
    for body in bodies.iter().take(UNTRACED_POSTS) {
        let (ok, took) = send(&mut rig.client, body)?;
        attempted += 1;
        failed += u64::from(!ok);
        untraced_us.push(us(took));
    }
    drop(compactor);
    let Rig { dir, store, front, engine, .. } = rig;
    front.shutdown();
    drop((store, dir));

    // Traced: the same posts into a fresh store behind CountingFs, a third
    // through each entry level, compaction called here every 1 024 posts.
    let dir = ScratchDir::new(&args.out_dir, "ingest-counted").map_err(|e| e.to_string())?;
    let (store, _, fs) = Store::open_counting(dir.path())?;
    let front = Front::start(&engine, Some(&store))?;
    let replay = Replay::start(&engine, Some(&store))?;
    let mut client = HttpClient::connect(front.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut rec = Recorder::default();
    let mut terms_us = Vec::with_capacity(TRACED_POSTS);
    let mut ledger = FsLedger::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut posts = 0usize;
    for (i, body) in bodies.iter().enumerate().take(TRACED_POSTS) {
        if Instant::now() >= deadline && i >= COMPACT_EVERY {
            report
                .push(format!("traced run stopped by the clock after {i} of {TRACED_POSTS} posts"));
            break;
        }
        let t = Instant::now();
        std::hint::black_box(engine.term_counts(corpus.post_text(i)));
        terms_us.push(us(t.elapsed()));
        attempted += 1;
        let ok = match i % 3 {
            0 => rec.root(i as u64, "http.roundtrip", || send(&mut client, body)).1?.0,
            1 => rec.root(i as u64, "serve.ingest", || replay.ingest(&corpus, i)).1.is_ok(),
            _ => rec.root(i as u64, "wal.ingest", || store.ingest(&corpus, i)).1.is_ok(),
        };
        failed += u64::from(!ok);
        posts += 1;
        if posts.is_multiple_of(COMPACT_EVERY) {
            let before = fs.snapshot();
            let (_, sealed) = rec.root(i as u64, "wal.compact", || store.compact());
            sealed?;
            ledger.compaction.push(fs.snapshot().since(&before));
        }
    }
    ledger.compact_ms = rec.durations_us("wal.compact").iter().map(|us| us / 1e3).collect();
    let (traffic, non2xx) = (client.traffic(), front.non2xx());
    let counted = fs.snapshot();
    front.shutdown();
    drop(replay);
    let all_there =
        store.acked_posts() == posts && (0..posts).all(|i| store.contains_post(corpus.post_id(i)));
    if !all_there {
        report.push("FAILED: the counted store does not hold every acknowledged post".to_string());
    }
    store.compact()?;
    drop(store);
    let user_bytes = corpus.user_bytes(0..posts).max(1) as f64;
    let space_amp = dir_bytes(dir.path()) as f64 / user_bytes;

    // Recovery by kind of post: the directory just sealed holds only
    // sealed posts; a second one is filled without ever compacting.
    let (sealed_per_s, sealed_read) = counted_open(dir.path())?;
    let wal_only = ScratchDir::new(&args.out_dir, "ingest-wal-only").map_err(|e| e.to_string())?;
    let (tail, _) = Store::open(wal_only.path())?;
    for i in 0..REPLAYED_POSTS.min(corpus.len()) {
        tail.ingest(&corpus, i)?;
    }
    drop(tail);
    let (replay_per_s, replay_read) = counted_open(wal_only.path())?;

    let p50_of = |name: &str| stats::median(&rec.durations_us(name));
    let (http_us, serve_us, store_us) =
        (p50_of("http.roundtrip"), p50_of("serve.ingest"), p50_of("wal.ingest"));
    // Filesystem work of the ingests alone: everything minus compaction.
    let compaction = ledger.compaction.iter().fold(FsCounts::default(), |acc, c| acc.plus(c));
    let ingest_fs = counted.since(&compaction);
    let per_post = |v: u64| v as f64 / posts.max(1) as f64;
    let fs_us_per_post = per_post(ingest_fs.total().nanos) / 1e3;
    let wal_append = ingest_fs.get(Op::Append, FileClass::Wal);
    let wal_sync = ingest_fs.get(Op::Sync, FileClass::Wal);
    let terms_p50 = stats::median(&terms_us);

    let mut metrics: Vec<(&'static str, f64)> = vec![
        // Population peeling: a third of the posts entered at each level,
        // so a layer's self time is the difference of two medians. The
        // shares below sum to 1.
        ("http.self_share", (http_us - serve_us) / http_us),
        ("serve.self_share", (serve_us - store_us) / http_us),
        ("fs.self_share", fs_us_per_post / http_us),
        ("text.self_share", terms_p50 / http_us),
        // Inside `IngestStore::ingest` and reproduced by no call from
        // outside: dup-check, record encode, memtable, metadata insert,
        // bound refresh.
        ("trace.unattributed_share", (store_us - fs_us_per_post - terms_p50) / http_us),
        ("trace.op_us_p50", http_us),
        ("trace.overhead_ratio", http_us / stats::median(&untraced_us)),
        ("trace.ops", posts as f64),
        ("gen.corpus_share", gen_s / setup_s),
        ("text.terms_us", terms_p50),
        ("wal.ingest_us", store_us),
        ("wal.ack_p99_us", stats::percentile(&untraced_us, 99.0)),
        ("wal.fs_time_share", fs_us_per_post / store_us),
        ("wal.fs_append_calls_per_post", per_post(wal_append.calls)),
        ("wal.fs_append_bytes_per_post", per_post(wal_append.bytes)),
        ("wal.fsync_calls_per_post", per_post(wal_sync.calls)),
        ("wal.fsync_us", wal_sync.nanos as f64 / 1e3 / wal_sync.calls.max(1) as f64),
        ("wal.compact_ms", stats::median(&ledger.compact_ms)),
        ("wal.write_amp", counted.op(Op::Append).bytes as f64 / user_bytes),
        ("wal.space_amp", space_amp),
        ("wal.replay_posts_per_s", replay_per_s),
        ("wal.sealed_load_posts_per_s", sealed_per_s),
        (
            "wal.open_read_bytes_per_post",
            (sealed_read + replay_read) as f64 / (posts + REPLAYED_POSTS) as f64,
        ),
    ];
    let rounds = ledger.compaction.len().max(1) as f64;
    metrics.push(("wal.compact_bytes_per_round", compaction.op(Op::Append).bytes as f64 / rounds));
    metrics.push(("wal.compact_files_per_round", compaction.op(Op::Create).calls as f64 / rounds));
    let requests = traffic.requests.max(1) as f64;
    metrics.push(("http.req_bytes_mean", traffic.bytes_sent as f64 / requests));
    metrics.push(("http.resp_bytes_mean", traffic.bytes_received as f64 / requests));
    metrics.push(("http.non2xx", non2xx as f64));

    rec.write_jsonl(&args.out_dir.join("trace-ingest_stream.jsonl")).map_err(|e| e.to_string())?;
    report.push(line("http.roundtrip", "us", http_us, posts / 3));
    report.push(line("serve.ingest", "us", serve_us, posts / 3));
    report.push(line("wal.ingest", "us", store_us, posts / 3));
    Ok(Outcome {
        correct: failed == 0 && all_there,
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
        answers_digest: digest_ids(&corpus, &(0..posts).collect::<Vec<_>>()),
    })
}
