//! The socket front-end (DESIGN.md §16).
//!
//! A deliberately boring thread-per-connection HTTP/1.1 server over
//! `std::net` — no event loop, no unsafe, no dependencies — whose entire
//! job is to move untrusted bytes into the serving layer's admission
//! path and truthful status codes back out. Backpressure is end-to-end
//! and bounded at every stage:
//!
//! * the **connection cap** bounds threads: an accept beyond
//!   [`HttpConfig::max_connections`] is answered `503` and closed
//!   immediately, costing no thread and no queue slot;
//! * the **read deadline** bounds how long a request may take to arrive
//!   (slow-loris / stalled-upload defense → `408`), the parser caps
//!   bound how big it may be (`431`/`413`), and the **write deadline**
//!   bounds how long a response may dribble out to a slow reader;
//! * the **admission queue** (in `tklus-serve`) bounds queued work; its
//!   typed sheds map one-to-one onto status codes ([`crate::status`]).
//!
//! Shutdown is a drain, not a detonation: [`HttpHandle::shutdown`] stops
//! accepting, closes admission (`begin_drain` → every new submission
//! answers 503 `ShuttingDown`), lets connection threads finish answering
//! — every ticket already admitted is run by a waiting thread or
//! typed-abandoned — then drains the serving layer for the final
//! accounting and returns a [`ShutdownReport`].

use crate::json::{
    parse_batch_body, parse_ingest_body, parse_query_body, render_error, render_outcome,
};
use crate::metrics::HttpMetrics;
use crate::parser::{ParserConfig, Request, RequestParser};
use crate::response::Response;
use crate::status::{ingest_response, parse_error_response, query_response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tklus_metrics::Health;
use tklus_serve::{DrainReport, Rejected, ServeError, Ticket, TklusServer};

/// Socket-layer knobs. The admission and queue knobs live in
/// [`tklus_serve::ServeConfig`]; these only shape connections and bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpConfig {
    /// Bind address, e.g. `"127.0.0.1:8080"` (port 0 picks a free port;
    /// [`HttpHandle::addr`] reports the real one).
    pub addr: String,
    /// Maximum concurrent connections; accepts beyond it are answered
    /// `503` and closed without occupying a thread slot.
    pub max_connections: usize,
    /// Parser caps (header bytes, body bytes).
    pub parser: ParserConfig,
    /// A complete request (head + body) must arrive within this many
    /// milliseconds of the previous request's end, or the connection is
    /// answered `408` (mid-request) or closed (idle keep-alive).
    pub read_timeout_ms: u64,
    /// A response must be fully written within this many milliseconds or
    /// the connection is dropped (slow-reader defense).
    pub write_timeout_ms: u64,
    /// Maximum queries in one `/query_batch` body.
    pub max_batch: usize,
    /// How long [`HttpHandle::shutdown`] lets already-admitted work
    /// finish before the serving layer abandons the remainder typed.
    pub drain_timeout_ms: u64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            parser: ParserConfig::default(),
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            max_batch: 64,
            drain_timeout_ms: 5_000,
        }
    }
}

impl HttpConfig {
    /// Validates the knobs that must be non-zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_connections == 0 {
            return Err("max_connections must be at least 1".into());
        }
        if self.read_timeout_ms == 0 || self.write_timeout_ms == 0 {
            return Err("read/write timeouts must be at least 1 ms".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        if self.parser.max_header_bytes == 0 {
            return Err("max_header_bytes must be at least 1".into());
        }
        Ok(())
    }
}

/// What a graceful shutdown observed.
#[derive(Debug, Clone, Default)]
pub struct ShutdownReport {
    /// Connection threads still alive when shutdown began (all joined
    /// before this report existed).
    pub connections_at_shutdown: usize,
    /// The serving layer's drain accounting.
    pub drain: DrainReport,
}

/// A running front-end. Dropping the handle without calling
/// [`HttpHandle::shutdown`] also shuts down (and joins) cleanly.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<HttpMetrics>,
    accept: Option<std::thread::JoinHandle<ShutdownReport>>,
}

/// Alias kept descriptive at call sites: what [`serve`] returns.
pub type HttpHandle = HttpServer;

/// Everything a connection thread needs, shared once.
struct App {
    server: TklusServer,
    metrics: Arc<HttpMetrics>,
    cfg: HttpConfig,
    shutdown: Arc<AtomicBool>,
}

/// Binds `cfg.addr` and starts the accept loop over `server`.
pub fn serve(server: TklusServer, cfg: HttpConfig) -> std::io::Result<HttpHandle> {
    cfg.validate().map_err(std::io::Error::other)?;
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(HttpMetrics::default());
    let app = Arc::new(App {
        server,
        metrics: Arc::clone(&metrics),
        cfg,
        shutdown: Arc::clone(&shutdown),
    });
    let accept = std::thread::spawn(move || accept_loop(listener, app));
    Ok(HttpServer { addr, shutdown, metrics, accept: Some(accept) })
}

impl HttpServer {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The socket-layer counters (shared with the `/metrics` endpoint).
    pub fn metrics(&self) -> &HttpMetrics {
        &self.metrics
    }

    /// Requests shutdown without waiting for it (safe to call from a
    /// signal watcher); follow with [`HttpHandle::shutdown`] to join.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        wake_accept(self.addr);
    }

    /// Stops accepting, drains, joins every thread, and reports. Every
    /// in-flight request is answered (run by a waiting thread, or typed
    /// `Abandoned`/`ShuttingDown`) before this returns.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.request_shutdown();
        match self.accept.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => ShutdownReport::default(),
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.request_shutdown();
            let _ = handle.join();
        }
    }
}

/// How stale the shutdown check in a blocked read can be.
const POLL: Duration = Duration::from_millis(25);

/// The pause after a failed accept (say, out of file descriptors), so the
/// loop does not spin while the cause lasts.
const ACCEPT_RETRY: Duration = Duration::from_millis(1);

/// How long a shutdown's wake-up connection may take. Its connect only
/// stalls when the listen backlog is full, and then `accept` is not
/// blocked and sees the shutdown flag anyway.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Wakes the accept loop, blocked in `accept`, with one connection to the
/// listener's own address; the loop sees the shutdown flag and closes it.
/// A listener bound to the unspecified address is reached on loopback.
fn wake_accept(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, WAKE_TIMEOUT);
}

fn accept_loop(listener: TcpListener, app: Arc<App>) -> ShutdownReport {
    let active = Arc::new(AtomicUsize::new(0));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        // Blocks until a client connects or shutdown wakes it.
        let accepted = listener.accept();
        if app.shutdown.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                conns.retain(|h| !h.is_finished());
                let _ = stream.set_nodelay(true);
                if active.load(Ordering::Acquire) >= app.cfg.max_connections {
                    // Over the cap: answer 503 and close without a slot.
                    HttpMetrics::hit(&app.metrics.connections_refused);
                    refuse(stream, &app);
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                HttpMetrics::hit(&app.metrics.connections_accepted);
                let app = Arc::clone(&app);
                let active = Arc::clone(&active);
                conns.push(std::thread::spawn(move || {
                    handle_connection(stream, &app);
                    active.fetch_sub(1, Ordering::AcqRel);
                }));
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
    // Stop accepting *before* draining, so no connection slips in after
    // admission closes.
    drop(listener);
    let connections_at_shutdown = active.load(Ordering::Acquire);
    // Close admission: from here every submit answers `ShuttingDown`,
    // while waiting threads keep running what was already admitted.
    app.server.begin_drain();
    // Connection threads block on their tickets, so every ticket must be
    // answered within the drain budget — run by a waiter (the drain
    // runs queued work too) or typed-abandoned — before the joins below
    // can be expected to return. Without this bounded phase a slow queue
    // would stall shutdown indefinitely.
    let abandoned = app.server.drain_queued(Duration::from_millis(app.cfg.drain_timeout_ms));
    for handle in conns.drain(..) {
        let _ = handle.join();
    }
    // All connection threads are gone; this is the only `App` reference
    // left, so the serving layer can be consumed for the final
    // accounting (the queue is already empty).
    let mut drain = match Arc::try_unwrap(app) {
        Ok(app) => app.server.drain(Duration::from_millis(app.cfg.drain_timeout_ms)),
        Err(_) => DrainReport::default(), // unreachable: conns were joined
    };
    drain.abandoned_queued.extend(abandoned);
    drain.abandoned_queued.sort_unstable();
    ShutdownReport { connections_at_shutdown, drain }
}

/// Answers an over-cap accept with `503` + `Retry-After` and closes.
fn refuse(mut stream: TcpStream, app: &App) {
    let resp = Response::json(
        503,
        render_error("ConnectionLimit", "connection limit reached; retry shortly", None),
    )
    .with_header("Retry-After", "1".to_string())
    .closing();
    let _ = write_with_deadline(
        &mut stream,
        &resp.serialize(),
        Duration::from_millis(app.cfg.write_timeout_ms),
    );
    app.metrics.record_response(resp.status);
}

/// One connection's lifetime: parse → route → respond, keep-alive until
/// close/deadline/shutdown. Every exit path either wrote a typed
/// response or observed the client gone.
fn handle_connection(mut stream: TcpStream, app: &App) {
    let mut parser = RequestParser::new(app.cfg.parser);
    let mut buf = [0u8; 16 * 1024];
    loop {
        let request = match read_request(&mut stream, &mut parser, &mut buf, app) {
            ReadOutcome::Request(req) => req,
            ReadOutcome::Respond(resp) => {
                send(&mut stream, resp, app);
                return;
            }
            ReadOutcome::Closed => return,
        };
        HttpMetrics::hit(&app.metrics.requests);
        let mut resp = route(&request, app);
        // Shutdown closes keep-alives after the in-flight answer.
        resp.close = resp.close || !request.keep_alive || app.shutdown.load(Ordering::Acquire);
        let close = resp.close;
        if !send(&mut stream, resp, app) || close {
            return;
        }
    }
}

/// How one read attempt ends.
enum ReadOutcome {
    /// A complete request arrived.
    Request(Request),
    /// Answer this (typed parse failure or 408) and close.
    Respond(Response),
    /// Nothing to answer: clean close, torn client, or idle shutdown.
    Closed,
}

/// Reads until the parser yields one request, the read deadline lapses,
/// or the peer disappears.
fn read_request(
    stream: &mut TcpStream,
    parser: &mut RequestParser,
    buf: &mut [u8],
    app: &App,
) -> ReadOutcome {
    let deadline = Instant::now() + Duration::from_millis(app.cfg.read_timeout_ms);
    loop {
        // Drain pipelined bytes before touching the socket.
        match parser.feed(&[]) {
            Ok(Some(req)) => return ReadOutcome::Request(req),
            Ok(None) => {}
            Err(err) => return ReadOutcome::Respond(parse_error_response(&err)),
        }
        // A draining server closes idle keep-alives; mid-request reads
        // continue so the request can be answered 503 typed.
        if app.shutdown.load(Ordering::Acquire) && !parser.mid_request() {
            return ReadOutcome::Closed;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            if parser.mid_request() {
                HttpMetrics::hit(&app.metrics.read_timeouts);
                return ReadOutcome::Respond(
                    Response::json(
                        408,
                        render_error(
                            "ReadTimeout",
                            "request did not arrive before the read deadline",
                            None,
                        ),
                    )
                    .closing(),
                );
            }
            return ReadOutcome::Closed; // idle keep-alive: close quietly
        }
        let _ = stream.set_read_timeout(Some(remaining.min(POLL).max(Duration::from_millis(1))));
        match stream.read(buf) {
            Ok(0) => {
                if parser.mid_request() {
                    HttpMetrics::hit(&app.metrics.torn_requests);
                }
                return ReadOutcome::Closed;
            }
            Ok(n) => {
                app.metrics.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                match parser.feed(&buf[..n]) {
                    Ok(Some(req)) => return ReadOutcome::Request(req),
                    Ok(None) => {}
                    Err(err) => return ReadOutcome::Respond(parse_error_response(&err)),
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                if parser.mid_request() {
                    HttpMetrics::hit(&app.metrics.torn_requests);
                }
                return ReadOutcome::Closed;
            }
        }
    }
}

/// Serializes and writes a response under the write deadline; records
/// counters. Returns false when the connection must close (explicit
/// close, write failure, or slow reader).
fn send(stream: &mut TcpStream, resp: Response, app: &App) -> bool {
    let close = resp.close;
    let raw = resp.serialize();
    let (done, written) =
        write_with_deadline(stream, &raw, Duration::from_millis(app.cfg.write_timeout_ms));
    app.metrics.bytes_written.fetch_add(written as u64, Ordering::Relaxed);
    if !done {
        HttpMetrics::hit(&app.metrics.write_timeouts);
        return false;
    }
    app.metrics.record_response(resp.status);
    !close
}

/// Writes all of `bytes` or gives up at the deadline. Returns
/// `(completed, bytes_written)`.
fn write_with_deadline(stream: &mut TcpStream, bytes: &[u8], timeout: Duration) -> (bool, usize) {
    let deadline = Instant::now() + timeout;
    let mut written = 0;
    while written < bytes.len() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return (false, written);
        }
        if stream.set_write_timeout(Some(remaining.max(Duration::from_millis(1)))).is_err() {
            return (false, written);
        }
        match stream.write(&bytes[written..]) {
            Ok(0) => return (false, written),
            Ok(n) => written += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return (false, written),
        }
    }
    let _ = stream.flush();
    (true, written)
}

/// Routes one parsed request. Pure with respect to the socket: returns
/// the response, never writes.
fn route(req: &Request, app: &App) -> Response {
    let path = req.target.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/health") => {
            let report = app.server.health();
            let healthy = report.ready && report.overall() != Health::Unhealthy;
            Response::text(if healthy { 200 } else { 503 }, report.render())
        }
        ("GET", "/metrics") => Response::text(
            200,
            app.metrics.inject(app.server.metrics_snapshot()).render_prometheus(),
        ),
        ("POST", "/query") => match parse_query_body(&req.body) {
            Err(bad) => Response::json(400, render_error("BadRequest", &bad.message, None)),
            Ok(spec) => {
                let result = app
                    .server
                    .submit(spec.query, spec.ranking, spec.priority, spec.deadline)
                    .map_err(ServeError::Rejected)
                    .and_then(Ticket::wait);
                query_response(result.map(|o| render_outcome(&o)))
            }
        },
        ("POST", "/query_batch") => match parse_batch_body(&req.body, app.cfg.max_batch) {
            Err(bad) => Response::json(400, render_error("BadRequest", &bad.message, None)),
            Ok(specs) => {
                // Submit everything first — the whole batch contends for
                // admission at once, exactly like concurrent clients —
                // then collect the answers in order. Each wait runs queued
                // work in the scheduler's order, so the items run one at a
                // time on this thread, save those another waiter takes.
                let tickets: Vec<Result<Ticket, Rejected>> = specs
                    .into_iter()
                    .map(|s| app.server.submit(s.query, s.ranking, s.priority, s.deadline))
                    .collect();
                let mut body = String::from("{\"results\":[");
                for (i, ticket) in tickets.into_iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let result = ticket.map_err(ServeError::Rejected).and_then(Ticket::wait);
                    let item = query_response(result.map(|o| render_outcome(&o)));
                    body.push_str(&format!("{{\"status\":{},\"body\":", item.status));
                    body.push_str(&String::from_utf8_lossy(&item.body));
                    body.push('}');
                }
                body.push_str("]}");
                Response::json(200, body)
            }
        },
        ("POST", "/ingest") => match parse_ingest_body(&req.body) {
            Err(bad) => Response::json(400, render_error("BadRequest", &bad.message, None)),
            Ok(post) => {
                let result = app
                    .server
                    .submit_ingest(post, None)
                    .map_err(tklus_serve::IngestFailure::Rejected)
                    .and_then(tklus_serve::IngestTicket::wait);
                ingest_response(result)
            }
        },
        (_, "/health" | "/metrics" | "/query" | "/query_batch" | "/ingest") => {
            let allow = if path == "/health" || path == "/metrics" { "GET" } else { "POST" };
            Response::json(
                405,
                render_error("MethodNotAllowed", &format!("{path} allows only {allow}"), None),
            )
            .with_header("Allow", allow.to_string())
        }
        _ => Response::json(404, render_error("NotFound", &format!("no route {path}"), None)),
    }
}
