//! Tier-1: a query on a new connection is answered at once.
//!
//! The accept loop blocks in `accept`, so a client that connects while
//! the server is idle is taken up as soon as it connects, not at the next
//! turn of a polling loop. Fifty queries, each on a connection of its own
//! opened after the previous answer arrived, must take under 5 ms at the
//! median from `connect` to the last byte; a 25 ms accept poll reads
//! about 12 ms there. Shutdown still wakes the blocked accept and drains.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tklus::core::{EngineConfig, TklusEngine};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::http::{serve, HttpConfig};
use tklus::serve::{ServeConfig, TklusServer};

const PATIENCE: Duration = Duration::from_secs(20);

/// One `POST /query` on a fresh connection, timed from `connect` to the
/// end of the answer.
fn timed_query(addr: std::net::SocketAddr, body: &str) -> Duration {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(PATIENCE)).expect("read timeout");
    let request = format!(
        "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("an answer");
    let took = started.elapsed();
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    took
}

#[test]
fn a_query_on_a_new_connection_is_answered_at_once() {
    let corpus =
        generate_corpus(&GenConfig { original_posts: 300, users: 60, ..GenConfig::default() });
    let engine = Arc::new(TklusEngine::build(&corpus, &EngineConfig::default()).0);
    let spec = generate_queries(&corpus, &QueryConfig { per_bucket: 1, seed: 3 })
        .into_iter()
        .next()
        .expect("a generated query");
    let keywords: Vec<String> = spec.keywords.iter().map(|w| format!("\"{w}\"")).collect();
    let body = format!(
        "{{\"lat\":{},\"lon\":{},\"radius_km\":2,\"keywords\":[{}],\"k\":5}}",
        spec.location.lat(),
        spec.location.lon(),
        keywords.join(",")
    );
    let server = TklusServer::start(engine, ServeConfig::default()).expect("server starts");
    let front = serve(server, HttpConfig::default()).expect("front-end binds");

    let mut took: Vec<Duration> = (0..50).map(|_| timed_query(front.addr(), &body)).collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(median < Duration::from_millis(5), "median {median:?} over 50 new connections");

    // Shutdown wakes the blocked accept: it returns, and the port closes.
    let addr = front.addr();
    let started = Instant::now();
    front.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
    assert!(TcpStream::connect(addr).is_err(), "the listener outlived the shutdown");
}
