//! Tier-1 serving checks (DESIGN.md §11): the threads that wait on
//! tickets run the admitted work, at most `workers` at a time, and every
//! admitted ticket ends answered, shed typed, or abandoned by name.
//!
//! 1. Six clients over two run slots: every write is acked and no more
//!    than two run at once. Clients report through a channel read with a
//!    timeout, so a lost wake-up fails the test instead of hanging it.
//! 2. One thread holding a High/Low mix over one slot waits on its
//!    tickets in reverse order: each resolves, none hangs.
//! 3. The hopeless-deadline shed at the door, with no thread at all.
//! 4. A ticket dropped unwaited: the drain runs it, or, with no time
//!    left, abandons it by name.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use tklus::core::{EngineConfig, Ranking, TklusEngine};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::model::{Corpus, Post, Priority, Semantics, TklusQuery, TweetId, UserId};
use tklus::serve::{IngestSink, Rejected, ServeConfig, ServeError, SinkError, TklusServer};

/// Long enough for any run below on a loaded host; a hang hits it.
const PATIENCE: Duration = Duration::from_secs(20);

fn corpus() -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: 300,
        users: 60,
        vocab_size: 300,
        ..GenConfig::default()
    })
}

fn query(corpus: &Corpus) -> TklusQuery {
    let spec = generate_queries(corpus, &QueryConfig { per_bucket: 1, seed: 7 })
        .into_iter()
        .next()
        .expect("a generated query");
    TklusQuery::new(spec.location, 15.0, spec.keywords, 5, Semantics::Or).expect("valid query")
}

fn start(corpus: &Corpus, cfg: ServeConfig, sink: Option<Arc<dyn IngestSink>>) -> TklusServer {
    let engine = Arc::new(TklusEngine::build(corpus, &EngineConfig::default()).0);
    TklusServer::start_with_sink(engine, cfg, sink).expect("valid config")
}

fn config(workers: usize, queue_capacity: usize, est_service_ms: u64) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity,
        default_deadline_ms: 60_000,
        est_service_ms,
        degrade: None,
    }
}

/// Sleeps 2 ms per write and records the most writes it ever saw at once.
#[derive(Default)]
struct SlowSink {
    running: AtomicUsize,
    peak: AtomicUsize,
    acked: AtomicUsize,
}

impl IngestSink for SlowSink {
    fn ingest(&self, _post: Post) -> Result<u64, SinkError> {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        thread::sleep(Duration::from_millis(2));
        self.running.fetch_sub(1, Ordering::SeqCst);
        Ok(self.acked.fetch_add(1, Ordering::SeqCst) as u64)
    }
}

#[test]
fn waiters_run_at_most_workers_entries_at_once() {
    const CLIENTS: u64 = 6;
    const WRITES: u64 = 20;
    let corpus = corpus();
    let loc = corpus.posts()[0].location;
    let sink = Arc::new(SlowSink::default());
    let server =
        Arc::new(start(&corpus, config(2, 64, 1), Some(Arc::clone(&sink) as Arc<dyn IngestSink>)));
    let (tx, rx) = mpsc::channel();
    let mut clients = Vec::new();
    for client in 0..CLIENTS {
        let (server, tx) = (Arc::clone(&server), tx.clone());
        clients.push(thread::spawn(move || {
            for i in 0..WRITES {
                let post = Post::original(TweetId(client * WRITES + i), UserId(client), loc, "hi");
                let acked = server.submit_ingest(post, None).map(|ticket| ticket.wait());
                tx.send(acked).expect("the test is listening");
            }
        }));
    }
    for n in 0..CLIENTS * WRITES {
        match rx.recv_timeout(PATIENCE) {
            Ok(Ok(Ok(_seq))) => {}
            Ok(other) => panic!("write {n} was not acked: {other:?}"),
            Err(_) => panic!("{n} writes answered, then none: a waiter was never woken"),
        }
    }
    // Every answer is in, so the clients have returned or are about to.
    for client in clients {
        client.join().expect("a client panicked");
    }
    assert_eq!(sink.acked.load(Ordering::SeqCst) as u64, CLIENTS * WRITES);
    let peak = sink.peak.load(Ordering::SeqCst);
    assert!((1..=2).contains(&peak), "{peak} writes ran at once over 2 run slots");
}

#[test]
fn one_thread_waiting_in_reverse_order_resolves_every_ticket() {
    let corpus = corpus();
    let q = query(&corpus);
    let server = start(&corpus, config(1, 4, 1), None);
    let (done_tx, done_rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let mut tickets = Vec::new();
        for i in 0..12 {
            let priority = if i % 3 == 0 { Priority::High } else { Priority::Low };
            match server.submit(q.clone(), Ranking::Sum, priority, None) {
                Ok(ticket) => tickets.push(ticket),
                Err(Rejected::QueueFull { .. }) => {}
                Err(other) => panic!("unexpected shed: {other}"),
            }
        }
        let admitted = tickets.len();
        let (mut answered, mut evicted) = (0, 0);
        for ticket in tickets.into_iter().rev() {
            match ticket.wait() {
                Ok(_) => answered += 1,
                Err(ServeError::Rejected(
                    Rejected::Evicted { .. } | Rejected::ExpiredInQueue { .. },
                )) => evicted += 1,
                Err(other) => panic!("admitted ticket resolved as {other}"),
            }
        }
        done_tx.send((admitted, answered, evicted)).expect("the test is listening");
    });
    let (admitted, answered, evicted) = done_rx.recv_timeout(PATIENCE).expect("no ticket hangs");
    waiter.join().expect("the waiting thread returned");
    assert_eq!(answered + evicted, admitted);
    assert!(answered >= 1 && evicted >= 1, "{answered} answered, {evicted} evicted");
}

#[test]
fn a_hopeless_deadline_is_shed_at_the_door() {
    let corpus = corpus();
    let q = query(&corpus);
    let server = start(&corpus, config(1, 64, 1_000), None);
    let deadline = Some(Duration::from_millis(10));
    // Nothing ahead: an estimated wait of 0 ms fits in 10.
    let first = server.submit(q.clone(), Ranking::Sum, Priority::Normal, deadline);
    let first = first.expect("an empty queue admits");
    // One entry ahead at 1 000 ms each cannot.
    match server.submit(q, Ranking::Sum, Priority::Normal, deadline) {
        Err(Rejected::DeadlineHopeless { estimated_wait_ms: 1_000, .. }) => {}
        other => panic!("expected DeadlineHopeless, got {:?}", other.map(|t| t.id)),
    }
    assert_eq!(server.counters().shed_deadline, 1);
    drop(server);
    assert!(matches!(first.wait(), Err(ServeError::Abandoned)), "dropping abandons what queues");
}

#[test]
fn a_dropped_ticket_is_run_by_the_drain_or_abandoned_by_name() {
    let corpus = corpus();
    let q = query(&corpus);
    // Time to run: the drain runs the orphan itself.
    let server = start(&corpus, config(1, 4, 1), None);
    drop(server.submit(q.clone(), Ranking::Sum, Priority::Normal, None).expect("admitted"));
    let report = server.drain(PATIENCE);
    assert_eq!((report.completed, report.abandoned_queued.len()), (1, 0));
    // No time left: it is abandoned by its ticket id.
    let server = start(&corpus, config(1, 4, 1), None);
    let id = server.submit(q, Ranking::Sum, Priority::Normal, None).expect("admitted").id;
    let report = server.drain(Duration::ZERO);
    assert_eq!((report.completed, report.abandoned_queued), (0, vec![id]));
}
