//! Socket-level overload: the DESIGN.md §16 acceptance run.
//!
//! Where `overload` measures the admission queue through direct
//! [`TklusServer::submit`] calls, this binary drives the whole stack —
//! TCP accept loop, capped parser, admission, workers — with real
//! sockets and adversarial clients:
//!
//! * an **open-loop burst** at 4× the calibrated saturation rate, with
//!   slow-writer (dribbled heads), slow-reader (delayed response reads),
//!   and mid-request-disconnect clients interleaved deterministically;
//! * a **closed-loop phase** (fixed client pool, next request only after
//!   the previous answer) measuring the sustainable response rate;
//! * a **deterministic probe suite** — malformed, oversized, unsupported,
//!   slow — whose status-code sequence is the run's *fingerprint*: it
//!   must be identical every run at every seed, and the suite runs both
//!   before and after the burst to prove the server it stressed is the
//!   server it started with;
//! * a **shutdown wave**: requests still in flight when the drain begins
//!   must each get a typed answer, and the drain report must account for
//!   every ticket.
//!
//! The headline claims, asserted and recorded in
//! `results/BENCH_overload_socket.json`:
//!
//! * every connection is answered or cleanly closed (conservation —
//!   nothing hangs, nothing leaks);
//! * the p99 latency of *successful* answers stays under `deadline +
//!   worst-case service + socket slack` — overload sheds load, it does
//!   not stretch latencies;
//! * after the burst the queue is empty and no worker is stuck.
//!
//! `--queries` scales the burst (CI smoke passes a small value); the
//! probe fingerprint does not depend on scale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tklus_bench::{banner, build_engine, csv_row, parse_flags, query_workload, to_query};
use tklus_core::{BoundsMode, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, GenConfig};
use tklus_http::{serve, HttpConfig, HttpHandle, ParserConfig};
use tklus_metrics::Summary;
use tklus_model::{Semantics, TklusQuery};
use tklus_serve::{ServeConfig, TklusServer};

/// How long the bench's server waits on an idle/dribbling read. Short so
/// the slow-writer probes resolve quickly; the bound math uses it too.
const READ_TIMEOUT_MS: u64 = 250;

/// Client-side socket budget: generous, because a client read that hits
/// this is exactly the hang the conservation check exists to catch.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// What one client connection observed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Observed {
    /// A complete HTTP response with this status.
    Answered(u16),
    /// EOF with no (or a partial) response — only legitimate for clients
    /// that disconnected on purpose or arrived during shutdown.
    Closed,
}

/// Sends `raw`, reads one response (or EOF), never panics on socket
/// errors — an error after the server hung up is a clean close.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Observed {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return Observed::Closed;
    };
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    if stream.write_all(raw).is_err() {
        return Observed::Closed;
    }
    read_status(&mut stream)
}

/// Reads one full response off the stream; returns its status, or
/// `Closed` on EOF/reset/timeout before a complete response.
fn read_status(stream: &mut TcpStream) -> Observed {
    let mut buf = [0u8; 4096];
    let mut raw = Vec::new();
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return Observed::Closed,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    };
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let Some(status) =
        head.lines().next().and_then(|l| l.split(' ').nth(1)).and_then(|s| s.parse().ok())
    else {
        return Observed::Closed;
    };
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let mut got = raw.len() - head_end;
    while got < len {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return Observed::Closed,
            Ok(n) => got += n,
        }
    }
    Observed::Answered(status)
}

/// Scrapes one counter row out of the server's Prometheus exposition.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let Observed::Answered(200) = exchange_keep(addr, b"GET /metrics HTTP/1.1\r\n\r\n", name)
    else {
        return u64::MAX;
    };
    LAST_METRIC.with(|v| v.get())
}

thread_local! {
    static LAST_METRIC: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// `exchange`, but also extracts `name <value>` from the body.
fn exchange_keep(addr: SocketAddr, raw: &[u8], name: &str) -> Observed {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return Observed::Closed;
    };
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    if stream.write_all(raw).is_err() {
        return Observed::Closed;
    }
    let mut body = Vec::new();
    let mut buf = [0u8; 65536];
    // /metrics answers keep-alive: read to content-length, not EOF.
    let mut raw_resp = Vec::new();
    let head_end = loop {
        if let Some(pos) = raw_resp.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return Observed::Closed,
            Ok(n) => raw_resp.extend_from_slice(&buf[..n]),
        }
    };
    let head = String::from_utf8_lossy(&raw_resp[..head_end]).to_string();
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    body.extend_from_slice(&raw_resp[head_end..]);
    while body.len() < len {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return Observed::Closed,
            Ok(n) => body.extend_from_slice(&buf[..n]),
        }
    }
    let text = String::from_utf8_lossy(&body);
    let value = text
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(u64::MAX);
    LAST_METRIC.with(|v| v.set(value));
    let status = head.lines().next().and_then(|l| l.split(' ').nth(1)).and_then(|s| s.parse().ok());
    status.map_or(Observed::Closed, Observed::Answered)
}

/// The deterministic probe suite: adversarial inputs whose answers are
/// decided by the typed contract, not by load. Returns `(name, status)`
/// pairs — `0` stands for "cleanly closed without a response".
fn probe_suite(addr: SocketAddr) -> Vec<(&'static str, u16)> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, obs: Observed| {
        out.push((
            name,
            match obs {
                Observed::Answered(s) => s,
                Observed::Closed => 0,
            },
        ));
    };
    push("garbage", exchange(addr, b"NONSENSE BYTES\r\n\r\n"));
    push(
        "oversized-header",
        exchange(
            addr,
            format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(16_384)).as_bytes(),
        ),
    );
    push(
        "oversized-body",
        exchange(addr, b"POST /query HTTP/1.1\r\nContent-Length: 104857600\r\n\r\n"),
    );
    push(
        "transfer-encoding",
        exchange(addr, b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
    );
    push("bad-json", exchange(addr, b"POST /query HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson"));
    push("not-found", exchange(addr, b"GET /nope HTTP/1.1\r\n\r\n"));
    push("bad-method", exchange(addr, b"DELETE /query HTTP/1.1\r\n\r\n"));
    // Slow-writer: half a head, then silence past the read deadline.
    let slow = (|| {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).ok()?;
        stream.write_all(b"POST /query HTTP/1.1\r\nContent-Le").ok()?;
        std::thread::sleep(Duration::from_millis(READ_TIMEOUT_MS + 150));
        Some(read_status(&mut stream))
    })()
    .unwrap_or(Observed::Closed);
    push("slow-writer", slow);
    // Mid-request disconnect: the *client* walks away; a clean close (no
    // response) is the correct observation.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\nhalf");
    }
    push("mid-disconnect", Observed::Closed);
    out
}

/// FNV-1a over the probe sequence: the per-seed fingerprint CI pins.
fn fingerprint(probes: &[(&'static str, u16)]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for (name, status) in probes {
        for byte in name.bytes().chain(status.to_le_bytes()) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// What the open-loop burst recorded.
struct BurstOutcome {
    offered: usize,
    ok: usize,
    shed_429: usize,
    shed_503: usize,
    shed_504: usize,
    timeouts_408: usize,
    other: usize,
    closed: usize,
    disconnects: usize,
    latency: Option<Summary>,
}

/// One adversarial slot per `ADVERSARY_EVERY` requests, cycling through
/// the three client kinds; everything else is a well-behaved query.
const ADVERSARY_EVERY: usize = 23;

#[allow(clippy::too_many_arguments)]
fn run_burst(
    addr: SocketAddr,
    bodies: &[String],
    total: usize,
    interarrival: Duration,
    seed: u64,
) -> BurstOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50C4E7);
    let start = Instant::now();
    let mut waiters = Vec::with_capacity(total);
    let mut disconnects = 0usize;
    for i in 0..total {
        let scheduled = interarrival * i as u32;
        if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let body = bodies[rng.gen_range(0..bodies.len())].clone();
        let kind =
            if i % ADVERSARY_EVERY == ADVERSARY_EVERY - 1 { (i / ADVERSARY_EVERY) % 3 } else { 3 };
        if kind == 2 {
            disconnects += 1;
        }
        waiters.push(std::thread::spawn(move || {
            let raw =
                format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
            match kind {
                // Slow writer: head, pause past the server's read
                // deadline, then the rest (expects 408).
                0 => {
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        return (scheduled, start.elapsed(), Observed::Closed, true);
                    };
                    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
                    let half = raw.len() / 2;
                    if stream.write_all(&raw.as_bytes()[..half]).is_err() {
                        return (scheduled, start.elapsed(), Observed::Closed, true);
                    }
                    std::thread::sleep(Duration::from_millis(READ_TIMEOUT_MS + 100));
                    let _ = stream.write_all(&raw.as_bytes()[half..]);
                    (scheduled, start.elapsed(), read_status(&mut stream), true)
                }
                // Slow reader: sends promptly, dawdles before reading.
                1 => {
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        return (scheduled, start.elapsed(), Observed::Closed, true);
                    };
                    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
                    if stream.write_all(raw.as_bytes()).is_err() {
                        return (scheduled, start.elapsed(), Observed::Closed, true);
                    }
                    std::thread::sleep(Duration::from_millis(100));
                    (scheduled, start.elapsed(), read_status(&mut stream), true)
                }
                // Mid-request disconnect: partial body, hang up.
                2 => {
                    if let Ok(mut stream) = TcpStream::connect(addr) {
                        let cut = raw.len().saturating_sub(3);
                        let _ = stream.write_all(&raw.as_bytes()[..cut]);
                    }
                    (scheduled, start.elapsed(), Observed::Closed, true)
                }
                // Well-behaved.
                _ => {
                    let obs = exchange(addr, raw.as_bytes());
                    (scheduled, start.elapsed(), obs, false)
                }
            }
        }));
    }
    let mut out = BurstOutcome {
        offered: total,
        ok: 0,
        shed_429: 0,
        shed_503: 0,
        shed_504: 0,
        timeouts_408: 0,
        other: 0,
        closed: 0,
        disconnects,
        latency: None,
    };
    let mut latencies = Vec::new();
    for waiter in waiters {
        let (scheduled, end, obs, adversarial) = waiter.join().expect("client thread never panics");
        match obs {
            Observed::Answered(200) => {
                out.ok += 1;
                if !adversarial {
                    latencies.push((end.as_secs_f64() - scheduled.as_secs_f64()) * 1e3);
                }
            }
            Observed::Answered(429) => out.shed_429 += 1,
            Observed::Answered(503) => out.shed_503 += 1,
            Observed::Answered(504) => out.shed_504 += 1,
            Observed::Answered(408) => out.timeouts_408 += 1,
            Observed::Answered(_) => out.other += 1,
            Observed::Closed => out.closed += 1,
        }
    }
    out.latency = if latencies.is_empty() { None } else { Some(Summary::of(&latencies)) };
    out
}

/// Closed-loop: `clients` threads each issue `per_client` sequential
/// requests, next only after the previous answer. Returns (answers,
/// elapsed, statuses observed outside 200/429/503/504).
fn run_closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
    per_client: usize,
    seed: u64,
) -> (usize, Duration, usize) {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = bodies.to_vec();
            let mut rng = StdRng::seed_from_u64(seed ^ (0xC105ED + c as u64));
            std::thread::spawn(move || {
                let mut answered = 0usize;
                let mut unexpected = 0usize;
                for _ in 0..per_client {
                    let body = &bodies[rng.gen_range(0..bodies.len())];
                    let raw = format!(
                        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    match exchange(addr, raw.as_bytes()) {
                        Observed::Answered(200 | 429 | 503 | 504) => answered += 1,
                        Observed::Answered(_) => unexpected += 1,
                        Observed::Closed => unexpected += 1,
                    }
                }
                (answered, unexpected)
            })
        })
        .collect();
    let mut answered = 0usize;
    let mut unexpected = 0usize;
    for h in handles {
        let (a, u) = h.join().expect("closed-loop client never panics");
        answered += a;
        unexpected += u;
    }
    (answered, start.elapsed(), unexpected)
}

/// Calibrates per-query service time under `workers`-way contention —
/// the production workers share memory bandwidth, so a single-threaded
/// calibration understates the service times the bound must cover.
fn calibrate_service_ms(
    engine: &Arc<TklusEngine>,
    requests: &[(TklusQuery, Ranking)],
    workers: usize,
) -> (f64, f64) {
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let engine = Arc::clone(engine);
            let requests = requests.to_vec();
            std::thread::spawn(move || {
                let mut worst = 0.0f64;
                let mut total = 0.0f64;
                for (q, ranking) in &requests {
                    let one = Instant::now();
                    let (top, _) = engine.query(q, *ranking);
                    std::hint::black_box(top);
                    let ms = one.elapsed().as_secs_f64() * 1e3;
                    worst = worst.max(ms);
                    total += ms;
                }
                (total / requests.len() as f64, worst)
            })
        })
        .collect();
    let mut mean = 0.0f64;
    let mut worst = 0.0f64;
    let n = handles.len() as f64;
    for h in handles {
        let (m, w) = h.join().expect("calibration thread never panics");
        mean += m / n;
        worst = worst.max(w);
    }
    (mean.max(0.05), worst)
}

fn probes_json(probes: &[(&'static str, u16)]) -> String {
    let rows: Vec<String> =
        probes.iter().map(|(n, s)| format!("{{ \"probe\": \"{n}\", \"status\": {s} }}")).collect();
    rows.join(", ")
}

fn main() {
    let flags = parse_flags();
    banner("Overload over sockets: 4x burst + adversarial clients", &flags);
    // `--queries` scales the burst; the default is the full acceptance
    // run, CI smoke passes a small value.
    let total = if flags.queries >= 100 { flags.queries } else { flags.queries.max(10) * 12 };
    let posts = flags.posts.min(20_000);
    let corpus = generate_corpus(&GenConfig {
        original_posts: posts,
        seed: flags.seed,
        ..GenConfig::default()
    });
    let engine = Arc::new(build_engine(&corpus, 4).0);

    let specs = query_workload(&corpus);
    let requests: Vec<(TklusQuery, Ranking)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ranking =
                if i % 3 == 0 { Ranking::Sum } else { Ranking::Max(BoundsMode::HotKeywords) };
            (to_query(spec, 12.0, 5, Semantics::Or), ranking)
        })
        .collect();
    // The same workload as JSON bodies for the socket clients.
    let bodies: Vec<String> = specs
        .iter()
        .map(|spec| {
            let kws: Vec<String> = spec.keywords.iter().map(|k| format!("\"{k}\"")).collect();
            format!(
                "{{\"lat\":{},\"lon\":{},\"radius_km\":12.0,\"keywords\":[{}],\"k\":5}}",
                spec.location.lat(),
                spec.location.lon(),
                kws.join(",")
            )
        })
        .collect();

    let workers = 3usize;
    let (service_ms, worst_service_ms) = calibrate_service_ms(&engine, &requests, workers);
    let overload = 4.0;
    let interarrival = Duration::from_secs_f64(service_ms / 1e3 / workers as f64 / overload);
    let queue_capacity = 2 * workers;
    let deadline_ms = (service_ms * 10.0).ceil() as u64 + 5;
    println!(
        "calibrated service {service_ms:.2} ms (worst {worst_service_ms:.2}); {workers} workers; \
         interarrival {:.0} us ({overload}x overload); {total} requests",
        interarrival.as_secs_f64() * 1e6,
    );

    let serve_cfg = ServeConfig {
        workers,
        queue_capacity,
        default_deadline_ms: deadline_ms,
        est_service_ms: (service_ms.ceil() as u64).max(1),
        degrade: None,
    };
    let http_cfg = HttpConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 512,
        parser: ParserConfig::default(),
        read_timeout_ms: READ_TIMEOUT_MS,
        write_timeout_ms: 1_000,
        max_batch: 64,
        drain_timeout_ms: 2_000,
    };
    let server = TklusServer::start(Arc::clone(&engine), serve_cfg).expect("serve config valid");
    let handle: HttpHandle = serve(server, http_cfg).expect("front-end binds");
    let addr = handle.addr();
    println!("front-end on {addr}");

    // Fingerprint before the burst…
    let probes_pre = probe_suite(addr);
    let fp_pre = fingerprint(&probes_pre);

    let burst = run_burst(addr, &bodies, total, interarrival, flags.seed);

    // …and after: same typed answers, same fingerprint, or the burst
    // bent the server.
    let probes_post = probe_suite(addr);
    let fp_post = fingerprint(&probes_post);
    let deterministic = fp_pre == fp_post;
    assert!(
        deterministic,
        "probe fingerprint drifted across the burst: {probes_pre:?} vs {probes_post:?}"
    );

    // Quiescence: no ticket leaked, no worker stuck.
    let settle = Instant::now();
    loop {
        let depth = metric(addr, "tklus_serve_queue_depth ");
        let busy = metric(addr, "tklus_serve_in_flight ");
        if depth == 0 && busy == 0 {
            break;
        }
        assert!(
            settle.elapsed() < Duration::from_secs(10),
            "queue never quiesced: depth {depth}, in-flight {busy}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let quiesced = true;

    // Closed-loop sustainable rate.
    let (cl_clients, cl_per) = (workers + 1, (total / 12).max(8));
    let (cl_answered, cl_elapsed, cl_unexpected) =
        run_closed_loop(addr, &bodies, cl_clients, cl_per, flags.seed);
    let cl_rps = cl_answered as f64 / cl_elapsed.as_secs_f64().max(1e-9);

    // Shutdown wave: land a volley, then drain mid-flight. Every volley
    // client must see a complete answer or a clean close — never a hang.
    let volley: Vec<_> = (0..queue_capacity + workers)
        .map(|i| {
            let body = bodies[i % bodies.len()].clone();
            std::thread::spawn(move || {
                let raw =
                    format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
                exchange(addr, raw.as_bytes())
            })
        })
        .collect();
    // Wait until the volley is actually in flight — clients still in the
    // accept backlog when the listener drops see a clean close, which
    // proves nothing about the drain.
    let armed = Instant::now();
    while metric(addr, "tklus_serve_in_flight ") == 0 && armed.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = handle.shutdown();
    let mut volley_answered = 0usize;
    let mut volley_closed = 0usize;
    for v in volley {
        match v.join().expect("volley client never panics") {
            Observed::Answered(_) => volley_answered += 1,
            Observed::Closed => volley_closed += 1,
        }
    }
    assert!(
        volley_answered > 0,
        "drain answered none of the in-flight volley — requests were dropped, not drained"
    );
    assert_eq!(
        report.drain.in_flight_at_deadline, 0,
        "drain left workers running past the deadline"
    );

    // Conservation over the burst: everything is accounted for, and the
    // only silent closes are the clients that hung up on purpose (plus
    // any slow-writer whose 408 raced the close — none expected).
    let answered = burst.ok
        + burst.shed_429
        + burst.shed_503
        + burst.shed_504
        + burst.timeouts_408
        + burst.other;
    assert_eq!(answered + burst.closed, burst.offered, "burst clients unaccounted for");
    let conserved = burst.closed == burst.disconnects;
    assert!(
        conserved,
        "{} closes for {} deliberate disconnects — a client was hung up on silently",
        burst.closed, burst.disconnects
    );
    assert_eq!(burst.other, 0, "unexpected status codes in the burst");
    assert_eq!(cl_unexpected, 0, "unexpected closed-loop outcomes");

    // The latency claim, over sockets: p99 of successful answers is
    // bounded by deadline + worst service + socket slack (loopback
    // connect/write plus scheduler jitter under a thread-per-request
    // client storm).
    let socket_slack_ms = 50.0;
    let bound_ms = deadline_ms as f64 + worst_service_ms + socket_slack_ms;
    let p99 = burst.latency.as_ref().map_or(0.0, |s| s.p99);
    let bounded = p99 <= bound_ms;

    println!(
        "burst: {} offered -> {} ok, {} 429, {} 503, {} 504, {} 408, {} closed ({} deliberate)",
        burst.offered,
        burst.ok,
        burst.shed_429,
        burst.shed_503,
        burst.shed_504,
        burst.timeouts_408,
        burst.closed,
        burst.disconnects
    );
    if let Some(s) = &burst.latency {
        println!(
            "admitted latency: n={} p50={:.1} p95={:.1} p99={:.1} max={:.1} ms (bound {bound_ms:.0} ms, bounded: {bounded})",
            s.n, s.p50, s.p95, s.p99, s.max
        );
    }
    println!(
        "closed-loop: {cl_answered} answers from {cl_clients} clients in {:.2} s ({cl_rps:.0} rps)",
        cl_elapsed.as_secs_f64()
    );
    println!(
        "shutdown wave: {volley_answered} answered, {volley_closed} closed; drain completed {}, abandoned {}, in-flight-at-deadline {}",
        report.drain.completed,
        report.drain.abandoned_queued.len(),
        report.drain.in_flight_at_deadline
    );
    println!("probe fingerprint: {fp_pre:016x} (stable across burst: {deterministic})");
    for (name, status) in &probes_pre {
        println!("  probe {name:<18} -> {status}");
    }
    csv_row(&[
        "burst".into(),
        burst.offered.to_string(),
        burst.ok.to_string(),
        (burst.shed_429 + burst.shed_503 + burst.shed_504).to_string(),
        format!("{p99:.2}"),
    ]);
    csv_row(&["fingerprint".into(), format!("{fp_pre:016x}"), deterministic.to_string()]);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"overload_socket\",\n");
    json.push_str(&format!("  \"posts\": {posts},\n"));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"overload_factor\": {overload},\n"));
    json.push_str(&format!("  \"requests\": {},\n", burst.offered));
    json.push_str(&format!("  \"calibrated_service_ms\": {service_ms:.3},\n"));
    json.push_str(&format!("  \"worst_service_ms\": {worst_service_ms:.3},\n"));
    json.push_str(&format!("  \"deadline_ms\": {deadline_ms},\n"));
    json.push_str(&format!("  \"read_timeout_ms\": {READ_TIMEOUT_MS},\n"));
    json.push_str(&format!("  \"p99_bound_ms\": {bound_ms:.1},\n"));
    let s = burst.latency.as_ref();
    json.push_str(&format!("  \"admitted_p50_ms\": {:.2},\n", s.map_or(0.0, |s| s.p50)));
    json.push_str(&format!("  \"admitted_p99_ms\": {p99:.2},\n"));
    json.push_str(&format!("  \"admitted_max_ms\": {:.2},\n", s.map_or(0.0, |s| s.max)));
    json.push_str(&format!("  \"ok\": {},\n", burst.ok));
    json.push_str(&format!("  \"shed_429\": {},\n", burst.shed_429));
    json.push_str(&format!("  \"shed_503\": {},\n", burst.shed_503));
    json.push_str(&format!("  \"shed_504\": {},\n", burst.shed_504));
    json.push_str(&format!("  \"timeouts_408\": {},\n", burst.timeouts_408));
    json.push_str(&format!("  \"closed\": {},\n", burst.closed));
    json.push_str(&format!("  \"deliberate_disconnects\": {},\n", burst.disconnects));
    json.push_str(&format!("  \"closed_loop_rps\": {cl_rps:.1},\n"));
    json.push_str(&format!("  \"drain_completed\": {},\n", report.drain.completed));
    json.push_str(&format!("  \"drain_abandoned\": {},\n", report.drain.abandoned_queued.len()));
    json.push_str(&format!(
        "  \"drain_in_flight_at_deadline\": {},\n",
        report.drain.in_flight_at_deadline
    ));
    json.push_str(&format!("  \"probes\": [ {} ],\n", probes_json(&probes_pre)));
    json.push_str(&format!("  \"probe_fingerprint\": \"{fp_pre:016x}\",\n"));
    json.push_str(&format!("  \"fingerprint_stable\": {deterministic},\n"));
    json.push_str(&format!("  \"every_connection_accounted\": {conserved},\n"));
    json.push_str(&format!("  \"queue_quiesced\": {quiesced},\n"));
    json.push_str(&format!("  \"p99_bounded\": {bounded}\n"));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_overload_socket.json", &json)
        .expect("write results/BENCH_overload_socket.json");
    println!("wrote results/BENCH_overload_socket.json");
}
