//! Real-socket end-to-end suite (ISSUE acceptance, DESIGN.md §16).
//!
//! Every test drives the full stack — TCP connect, byte-level HTTP,
//! admission queue, worker pool, engine/sink — and asserts the typed
//! contract at the wire: truthful status codes, `Retry-After` on
//! retryable sheds, slow-client defenses, and a drain that answers every
//! in-flight request before the process lets go of the port.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tklus_core::{EngineConfig, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_http::{serve, HttpConfig, HttpHandle, ParserConfig, WalSink};
use tklus_model::{Semantics, TklusQuery};
use tklus_serve::{IngestSink, ServeConfig, SinkError, TklusServer};
use tklus_wal::{IngestStore, StdFs, StoreConfig, WalFs};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn engine() -> Arc<TklusEngine> {
    let corpus = generate_corpus(&GenConfig {
        original_posts: 200,
        users: 40,
        vocab_size: 200,
        ..GenConfig::default()
    });
    let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
    Arc::new(engine)
}

/// A query JSON body aimed where the generated corpus actually has data.
fn query_body(engine: &TklusEngine) -> (String, TklusQuery) {
    let corpus = generate_corpus(&GenConfig {
        original_posts: 200,
        users: 40,
        vocab_size: 200,
        ..GenConfig::default()
    });
    let spec = generate_queries(&corpus, &QueryConfig { per_bucket: 1, seed: 7 })
        .into_iter()
        .next()
        .expect("at least one generated query");
    let q = TklusQuery::new(spec.location, 15.0, spec.keywords.clone(), 5, Semantics::Or)
        .expect("generated query is valid");
    let kws: Vec<String> = spec.keywords.iter().map(|k| format!("\"{k}\"")).collect();
    let body = format!(
        "{{\"lat\":{},\"lon\":{},\"radius_km\":15.0,\"keywords\":[{}],\"k\":5}}",
        spec.location.lat(),
        spec.location.lon(),
        kws.join(",")
    );
    let _ = engine;
    (body, q)
}

fn start(engine: Arc<TklusEngine>, serve_cfg: ServeConfig, http_cfg: HttpConfig) -> HttpHandle {
    let server = TklusServer::start(engine, serve_cfg).expect("server starts");
    serve(server, http_cfg).expect("front-end binds")
}

/// Reads exactly one response off the stream; `carry` holds any
/// over-read bytes (the start of the next pipelined response) between
/// calls on the same connection.
fn read_response_carry(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut raw = std::mem::take(carry);
    let mut buf = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut buf).expect("read response head");
        assert!(n > 0, "EOF before response head; got {:?}", String::from_utf8_lossy(&raw));
        raw.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8(raw[..head_end].to_vec()).expect("utf8 head");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .expect("content-length");
    let mut body = raw.split_off(head_end);
    while body.len() < len {
        let n = stream.read(&mut buf).expect("read response body");
        assert!(n > 0, "EOF mid-body");
        body.extend_from_slice(&buf[..n]);
    }
    *carry = body.split_off(len);
    (status, headers, body)
}

/// Reads one response where the connection carries nothing after it.
fn read_response(stream: &mut TcpStream) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut carry = Vec::new();
    read_response_carry(stream, &mut carry)
}

/// One-shot request over a fresh connection.
fn request(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    read_response(&mut stream)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    request(addr, &format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// Polls `/metrics` until every wanted gauge row appears (5 s cap).
fn wait_for_gauges(addr: SocketAddr, wanted: &[&str]) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, _, metrics) = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        let text = String::from_utf8(metrics).expect("utf8 metrics");
        if wanted.iter().all(|w| text.contains(w)) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "gauges {wanted:?} never settled:\n{text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------
// Happy paths
// ---------------------------------------------------------------------

#[test]
fn query_over_socket_matches_the_engine_bitwise() {
    let engine = engine();
    let (body, q) = query_body(&engine);
    let want = engine.try_query(&q, Ranking::Sum).expect("reference query");
    let handle = start(Arc::clone(&engine), ServeConfig::default(), HttpConfig::default());

    let (status, _, resp) = post(handle.addr(), "/query", &body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let json = serde_json::from_str(std::str::from_utf8(&resp).unwrap()).expect("json body");
    assert_eq!(json.get("completeness").and_then(|c| c.as_str()), Some("complete"));
    let users = json.get("users").and_then(|u| u.as_array()).expect("users array");
    assert_eq!(users.len(), want.users.len());
    for (got, want) in users.iter().zip(&want.users) {
        assert_eq!(got.get("user").and_then(|u| u.as_u64()), Some(want.user.0));
        // JSON round-trips f64 via shortest-representation printing.
        assert_eq!(got.get("score").and_then(|s| s.as_f64()), Some(want.score));
    }
    handle.shutdown();
}

#[test]
fn batch_answers_every_query_in_order() {
    let engine = engine();
    let (body, _) = query_body(&engine);
    let handle = start(engine, ServeConfig::default(), HttpConfig::default());
    let batch = format!("{{\"queries\":[{body},{body},{body}]}}");
    let (status, _, resp) = post(handle.addr(), "/query_batch", &batch);
    assert_eq!(status, 200);
    let json = serde_json::from_str(std::str::from_utf8(&resp).unwrap()).expect("json");
    let results = json.get("results").and_then(|r| r.as_array()).expect("results");
    assert_eq!(results.len(), 3);
    for item in results {
        assert_eq!(item.get("status").and_then(|s| s.as_u64()), Some(200));
        assert!(item.get("body").and_then(|b| b.get("users")).is_some());
    }
    handle.shutdown();
}

#[test]
fn huge_k_answers_200_and_the_server_keeps_serving() {
    // `k` reaches the engine unchecked. A Maximum-score query that sized
    // its running top-k set from it aborted the whole process (allocation
    // failure), taking every other connection with it.
    let engine = engine();
    let (body, _) = query_body(&engine);
    let handle = start(engine, ServeConfig::default(), HttpConfig::default());
    let huge = body.replace("\"k\":5}", "\"k\":1000000000000000,\"ranking\":\"max_hot\"}");
    assert_ne!(huge, body);

    let (status, _, resp) = post(handle.addr(), "/query", &huge);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let json = serde_json::from_str(std::str::from_utf8(&resp).unwrap()).expect("json body");
    assert_eq!(json.get("completeness").and_then(|c| c.as_str()), Some("complete"));
    assert!(!json.get("users").and_then(|u| u.as_array()).expect("users array").is_empty());

    let (status, _, health) = request(handle.addr(), "GET /health HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&health));
    handle.shutdown();
}

#[test]
fn health_and_metrics_render_over_sockets() {
    let engine = engine();
    let (body, _) = query_body(&engine);
    let handle = start(engine, ServeConfig::default(), HttpConfig::default());
    let (status, _, _) = post(handle.addr(), "/query", &body);
    assert_eq!(status, 200);

    let (status, _, health) = request(handle.addr(), "GET /health HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let health = String::from_utf8(health).unwrap();
    assert!(health.contains("status: healthy (ready)"), "{health}");

    let (status, _, metrics) = request(handle.addr(), "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(metrics.contains("tklus_serve_completed 1"), "{metrics}");
    assert!(metrics.contains("tklus_http_requests"), "{metrics}");
    handle.shutdown();
}

#[test]
fn keep_alive_pipelining_answers_in_order() {
    let engine = engine();
    let (body, _) = query_body(&engine);
    let handle = start(engine, ServeConfig::default(), HttpConfig::default());
    let one = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // Two requests in one write; two responses on the same connection.
    stream.write_all(format!("{one}{one}").as_bytes()).expect("write");
    let mut carry = Vec::new();
    let (s1, _, _) = read_response_carry(&mut stream, &mut carry);
    let (s2, _, _) = read_response_carry(&mut stream, &mut carry);
    assert_eq!((s1, s2), (200, 200));
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Typed failures at the wire
// ---------------------------------------------------------------------

/// A body the JSON decoder refuses is the request's problem, not the
/// connection's: each answers a typed 400 — deep nesting included, which
/// must not take the process down — and the next request on the same
/// socket is served.
#[test]
fn garbage_body_is_a_typed_400_and_the_connection_keeps_serving() {
    let engine = engine();
    let (good, _) = query_body(&engine);
    let handle = start(engine, ServeConfig::default(), HttpConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut carry = Vec::new();
    let deep = "[".repeat(200_000);
    for (path, garbage) in [
        ("/query", "\u{0}\u{1}{{]]not json"),
        ("/query_batch", "{\"queries\":[{\"lat\":1e999}]}"),
        ("/ingest", deep.as_str()),
    ] {
        let raw =
            format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{garbage}", garbage.len());
        stream.write_all(raw.as_bytes()).expect("write garbage");
        let (status, headers, body) = read_response_carry(&mut stream, &mut carry);
        let text = String::from_utf8_lossy(&body);
        assert_eq!(status, 400, "{path}: {text}");
        assert!(text.contains("\"error\":\"BadRequest\""), "{path}: {text}");
        assert_ne!(header(&headers, "connection"), Some("close"), "{path}");

        let raw = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{good}", good.len());
        stream.write_all(raw.as_bytes()).expect("write the next request");
        let (status, _, body) = read_response_carry(&mut stream, &mut carry);
        assert_eq!(status, 200, "after {path}: {}", String::from_utf8_lossy(&body));
    }
    handle.shutdown();
}

#[test]
fn parse_failures_answer_their_statuses_and_close() {
    let engine = engine();
    let http_cfg = HttpConfig {
        parser: ParserConfig { max_header_bytes: 256, max_body_bytes: 512 },
        ..HttpConfig::default()
    };
    let handle = start(engine, ServeConfig::default(), http_cfg);
    let cases: Vec<(String, u16, &str)> = vec![
        ("GARBAGE STREAM\r\n\r\n".into(), 400, "Malformed"),
        (format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(300)), 431, "HeadersTooLarge"),
        ("POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".into(), 413, "BodyTooLarge"),
        (
            "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".into(),
            501,
            "UnsupportedTransferEncoding",
        ),
        ("POST /query HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson".into(), 400, "BadRequest"),
        ("GET /nowhere HTTP/1.1\r\n\r\n".into(), 404, "NotFound"),
        ("DELETE /query HTTP/1.1\r\n\r\n".into(), 405, "MethodNotAllowed"),
    ];
    for (raw, want_status, want_kind) in cases {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write");
        let (status, headers, body) = read_response(&mut stream);
        let text = String::from_utf8_lossy(&body).to_string();
        assert_eq!(status, want_status, "{text}");
        assert!(text.contains(want_kind), "{want_kind} missing from {text}");
        if want_status == 405 {
            assert_eq!(header(&headers, "allow"), Some("POST"));
        }
        if !(200..=404).contains(&want_status) && want_status != 405 {
            // Parse-level failures close the connection.
            assert_eq!(header(&headers, "connection"), Some("close"));
        }
    }
    handle.shutdown();
}

#[test]
fn slow_writer_gets_408_and_mid_request_disconnect_is_torn() {
    let engine = engine();
    let http_cfg = HttpConfig { read_timeout_ms: 150, ..HttpConfig::default() };
    let handle = start(engine, ServeConfig::default(), http_cfg);

    // Slow-loris: send half a head, then stall past the read deadline.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"POST /query HTTP/1.1\r\nContent-Le").expect("write partial");
    let (status, headers, body) = read_response(&mut stream);
    assert_eq!(status, 408, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("ReadTimeout"));
    assert_eq!(header(&headers, "connection"), Some("close"));

    // Mid-request disconnect: the server counts it and keeps serving.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial").expect("write");
    drop(stream);
    std::thread::sleep(Duration::from_millis(50));
    let (status, _, metrics) = request(handle.addr(), "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(metrics.contains("tklus_http_read_timeouts 1"), "{metrics}");
    assert!(metrics.contains("tklus_http_torn_requests 1"), "{metrics}");
    handle.shutdown();
}

#[test]
fn connection_cap_refuses_with_503_and_recovers() {
    let engine = engine();
    let (body, _) = query_body(&engine);
    let http_cfg = HttpConfig { max_connections: 1, ..HttpConfig::default() };
    let handle = start(engine, ServeConfig::default(), http_cfg);

    // First connection completes a request and holds its slot open.
    let mut holder = TcpStream::connect(handle.addr()).expect("connect");
    holder
        .write_all(
            format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
                .as_bytes(),
        )
        .expect("write");
    let (status, _, _) = read_response(&mut holder);
    assert_eq!(status, 200);

    // Second connection is over the cap: refused typed, not ignored.
    let mut refused = TcpStream::connect(handle.addr()).expect("connect");
    refused.write_all(b"GET /health HTTP/1.1\r\n\r\n").expect("write");
    let (status, headers, text) = read_response(&mut refused);
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&text));
    assert!(String::from_utf8_lossy(&text).contains("ConnectionLimit"));
    assert_eq!(header(&headers, "retry-after"), Some("1"));

    // Freeing the slot lets the next connection in.
    drop(holder);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _, _) = request(handle.addr(), "GET /health HTTP/1.1\r\n\r\n");
        if status == 200 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Backpressure: admission sheds at the wire
// ---------------------------------------------------------------------

/// A sink that parks every ingest until the test opens the gate —
/// deterministic worker occupancy for shed tests.
struct GatedSink {
    open: Mutex<bool>,
    cv: Condvar,
    seq: AtomicU64,
}

impl GatedSink {
    fn new() -> Arc<Self> {
        Arc::new(Self { open: Mutex::new(false), cv: Condvar::new(), seq: AtomicU64::new(1) })
    }

    fn open(&self) {
        *self.open.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

impl IngestSink for GatedSink {
    fn ingest(&self, _post: tklus_model::Post) -> Result<u64, SinkError> {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(|e| e.into_inner());
        }
        drop(open);
        Ok(self.seq.fetch_add(1, Ordering::SeqCst))
    }
}

/// Opens the gate even when an assertion panics mid-test, so a failing
/// assertion reports instead of deadlocking the whole test binary.
struct OpenOnDrop(Arc<GatedSink>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

#[test]
fn queue_full_answers_429_with_retry_after_at_the_wire() {
    let engine = engine();
    let (body, _) = query_body(&engine);
    let sink = GatedSink::new();
    let serve_cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        est_service_ms: 40,
        default_deadline_ms: 30_000,
        ..ServeConfig::default()
    };
    let server = TklusServer::start_with_sink(
        Arc::clone(&engine),
        serve_cfg,
        Some(sink.clone() as Arc<dyn IngestSink>),
    )
    .expect("server starts");
    let handle = serve(server, HttpConfig::default()).expect("front-end binds");
    let _gate_guard = OpenOnDrop(Arc::clone(&sink));
    let ingest = "{\"id\":900,\"user\":1,\"lat\":1.0,\"lon\":1.0,\"text\":\"hi\"}";
    let ingest2 = "{\"id\":901,\"user\":1,\"lat\":1.0,\"lon\":1.0,\"text\":\"hi\"}";

    // Park the only worker on a gated ingest. Wait for the worker to
    // actually dequeue it before sending the next write: otherwise the
    // second arrival races the dequeue and is itself shed QueueFull.
    let addr = handle.addr();
    let in_flight = std::thread::spawn(move || post(addr, "/ingest", ingest).0);
    wait_for_gauges(addr, &["tklus_serve_in_flight 1", "tklus_serve_queue_depth 0"]);
    // Now fill the queue's one slot with a second (High-priority) write.
    let queued = std::thread::spawn(move || post(addr, "/ingest", ingest2).0);
    wait_for_gauges(addr, &["tklus_serve_in_flight 1", "tklus_serve_queue_depth 1"]);

    // A Normal-priority query now faces a full queue it cannot evict
    // from: 429, with the deterministic estimate as Retry-After.
    let (status, headers, text) = post(addr, "/query", &body);
    let text = String::from_utf8_lossy(&text).to_string();
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("QueueFull"), "{text}");
    assert!(text.contains("retry_after_ms"), "{text}");
    // est_service_ms 40 × ⌈(1 ahead + 1 busy)/1 worker⌉ = 80 ms → 1 s.
    assert_eq!(header(&headers, "retry-after"), Some("1"));

    sink.open(); // open the gate: both writes complete
    assert_eq!(in_flight.join().expect("in-flight thread"), 200);
    assert_eq!(queued.join().expect("queued thread"), 200);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Durable ingest through the WAL (satellite 6 end-to-end)
// ---------------------------------------------------------------------

#[test]
fn ingest_lands_in_the_wal_and_duplicates_conflict() {
    let dir = std::env::temp_dir().join(format!("tklus-http-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = engine();
    let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(&dir).expect("open wal dir"));
    let (store, _report) = IngestStore::open(fs, StoreConfig::default()).expect("open store");
    let sink = Arc::new(WalSink::new(Arc::new(store)));
    let server = TklusServer::start_with_sink(
        engine,
        ServeConfig::default(),
        Some(sink as Arc<dyn IngestSink>),
    )
    .expect("server starts");
    let handle = serve(server, HttpConfig::default()).expect("front-end binds");

    let post_body = "{\"id\":1,\"user\":7,\"lat\":43.6,\"lon\":-79.4,\"text\":\"great hotel\"}";
    let (status, _, body) = post(handle.addr(), "/ingest", post_body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let json = serde_json::from_str(std::str::from_utf8(&body).unwrap()).expect("json");
    assert_eq!(json.get("seq").and_then(|s| s.as_u64()), Some(1));

    // Same tweet id again: idempotency conflict, 409, store healthy.
    let (status, _, body) = post(handle.addr(), "/ingest", post_body);
    let text = String::from_utf8_lossy(&body).to_string();
    assert_eq!(status, 409, "{text}");
    assert!(text.contains("DuplicateTweet"), "{text}");

    // A different id still lands.
    let (status, _, _) =
        post(handle.addr(), "/ingest", "{\"id\":2,\"user\":8,\"lat\":0,\"lon\":0,\"text\":\"x\"}");
    assert_eq!(status, 200);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_compactor_advances_generation_under_http_ingest() {
    let dir = std::env::temp_dir().join(format!("tklus-http-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = engine();
    let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(&dir).expect("open wal dir"));
    let store_cfg = StoreConfig {
        compact_threshold: 8,
        compact_interval: Duration::from_millis(5),
        ..StoreConfig::default()
    };
    let (store, _report) = IngestStore::open(fs, store_cfg).expect("open store");
    let store = Arc::new(store);
    let sink = Arc::new(WalSink::new(Arc::clone(&store)));
    let server = TklusServer::start_with_sink(
        engine,
        ServeConfig::default(),
        Some(sink as Arc<dyn IngestSink>),
    )
    .expect("server starts");
    let handle = serve(server, HttpConfig::default()).expect("front-end binds");
    // The serving-path wiring under test: compactor spawned alongside the
    // listener, exactly as `tklus serve-http --wal` does.
    let compactor = store.spawn_compactor();
    assert_eq!(store.generation(), 0);

    // Ingest past the threshold over the wire.
    for id in 1..=20u64 {
        let body = format!(
            "{{\"id\":{id},\"user\":{},\"lat\":43.6,\"lon\":-79.4,\"text\":\"hotel stream\"}}",
            id % 5 + 1
        );
        let (status, _, resp) = post(handle.addr(), "/ingest", &body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    }

    // The compactor polls every 5 ms; the seal must land shortly.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while store.generation() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        store.generation() >= 1,
        "compactor never sealed: {} live posts at generation {}",
        store.live_posts(),
        store.generation()
    );
    assert_eq!(store.acked_posts(), 20, "a seal must not drop acked posts");

    // Drain ordering from the serving paths: compactor stops before the
    // final shutdown seal, which folds any remaining live posts.
    compactor.stop();
    handle.shutdown();
    store.compact().expect("final seal");
    assert_eq!(store.live_posts(), 0);
    assert_eq!(store.acked_posts(), 20);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_without_a_sink_is_typed_not_configured() {
    let handle = start(engine(), ServeConfig::default(), HttpConfig::default());
    let (status, _, body) =
        post(handle.addr(), "/ingest", "{\"id\":5,\"user\":1,\"lat\":0,\"lon\":0,\"text\":\"x\"}");
    let text = String::from_utf8_lossy(&body).to_string();
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("NotConfigured"), "{text}");
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

#[test]
fn shutdown_answers_every_in_flight_request_then_releases_the_port() {
    let engine = engine();
    let (body, _) = query_body(&engine);
    let sink = GatedSink::new();
    let serve_cfg = ServeConfig { workers: 1, queue_capacity: 8, ..ServeConfig::default() };
    let server =
        TklusServer::start_with_sink(engine, serve_cfg, Some(sink.clone() as Arc<dyn IngestSink>))
            .expect("server starts");
    let handle = serve(server, HttpConfig::default()).expect("front-end binds");
    let _gate_guard = OpenOnDrop(Arc::clone(&sink));
    let addr = handle.addr();

    // Park the worker, queue a query behind it, then shut down with both
    // still unanswered.
    let ingest = "{\"id\":77,\"user\":1,\"lat\":0,\"lon\":0,\"text\":\"hold\"}";
    let in_flight = std::thread::spawn(move || post(addr, "/ingest", ingest));
    wait_for_gauges(addr, &["tklus_serve_in_flight 1", "tklus_serve_queue_depth 0"]);
    let body2 = body.clone();
    let queued = std::thread::spawn(move || post(addr, "/query", &body2));
    wait_for_gauges(addr, &["tklus_serve_in_flight 1", "tklus_serve_queue_depth 1"]);

    // Open the gate just after shutdown begins, as a real drain would.
    let release_sink = Arc::clone(&sink);
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        release_sink.open();
    });
    let report = handle.shutdown();
    release.join().expect("release thread");

    // Both clients got complete, truthful answers: the parked write
    // finished (200); the queued query either ran (200) or was
    // typed-shed by the drain — never hung up on silently.
    let (in_status, _, _) = in_flight.join().expect("in-flight client");
    assert_eq!(in_status, 200);
    let (q_status, _, q_body) = queued.join().expect("queued client");
    assert!(
        matches!(q_status, 200 | 503 | 504),
        "queued client got {q_status}: {}",
        String::from_utf8_lossy(&q_body)
    );

    // The drain accounted for everything it abandoned, and the port is
    // no longer accepting.
    assert_eq!(report.drain.in_flight_at_deadline, 0);
    assert!(TcpStream::connect(addr).is_err(), "listener still accepting after shutdown");
}
