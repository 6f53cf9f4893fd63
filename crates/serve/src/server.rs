//! The threaded overload-resilient server (DESIGN.md §11).
//!
//! [`TklusServer`] is the one [`Scheduler`] behind a mutex, plus the
//! answer channels and the wall clock. It makes *no decision of its own*:
//! every shed, evict, degrade and drain goes through the scheduler
//! the virtual-time simulator drives. What stays here is wall time: the
//! per-query timeout, tightened at dispatch to what is left of the
//! request's deadline.
//!
//! It starts no thread: a ticket's wait and a drain each turn the one run
//! loop, which runs entries in dispatch order, whoever submitted them, in
//! at most `workers` run slots and *outside* the lock. A caller that
//! submits into an idle server runs its own request, with no hand-off.

use crate::config::ServeConfig;
use crate::ingest::{IngestFailure, IngestSink, SinkError};
use crate::queue::{AdmissionCounters, QueuedEntry};
use crate::reject::{Rejected, ServeError};
use crate::scheduler::Scheduler;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tklus_core::{QueryOutcome, Ranking, TklusEngine};
use tklus_metrics::HealthReport;
use tklus_model::{Post, Priority, QueryBudget, TklusQuery};

/// One queued unit of work plus the channel its answer goes back on.
/// A sender dropped unanswered reads as the typed `Abandoned` error.
/// Queries and durable writes share the same bounded slots (DESIGN.md
/// §16), so overload sheds both with one typed taxonomy instead of
/// buffering writes unboundedly.
enum Job {
    Query {
        query: TklusQuery,
        ranking: Ranking,
        resp: mpsc::SyncSender<Result<QueryOutcome, ServeError>>,
    },
    /// The WAL reports a write's failure typed on its own ticket.
    Ingest { post: Post, resp: mpsc::SyncSender<Result<u64, IngestFailure>> },
}

impl Job {
    fn query(&mut self) -> Option<&mut TklusQuery> {
        match self {
            Job::Query { query, .. } => Some(query),
            Job::Ingest { .. } => None,
        }
    }

    /// Answers a job that will not run on whichever channel it carries:
    /// shed after admission (`Some`: evicted, expired) or abandoned by a
    /// drain (`None`). The waiter may have given up (receiver dropped) —
    /// that is its right, not an error.
    fn reject(self, reason: Option<Rejected>) {
        match self {
            Job::Query { resp, .. } => {
                let _ = resp.send(Err(reason.map_or(ServeError::Abandoned, ServeError::Rejected)));
            }
            Job::Ingest { resp, .. } => {
                let failure = reason.map_or(IngestFailure::Abandoned, IngestFailure::Rejected);
                let _ = resp.send(Err(failure));
            }
        }
    }
}

/// Mutable server state, guarded by one mutex.
struct State {
    sched: Scheduler<Job>,
    /// Run slots taken: entries executing now, at most `cfg.workers`.
    busy: usize,
}

struct Shared {
    engine: Arc<TklusEngine>,
    cfg: ServeConfig,
    /// Durable write destination; `None` means ingest submissions are
    /// answered with a typed `NotConfigured` sink error.
    sink: Option<Arc<dyn IngestSink>>,
    state: Mutex<State>,
    /// Signalled by every answer and reject (each sent under the lock),
    /// the only events that end a wait or free a run slot. An admission
    /// signals nothing: its submitter runs it, or waits for a slot.
    cv: Condvar,
    started: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("serve lock poisoned")
    }

    /// The run loop. Until `done` holds (checked under the lock, so no
    /// wake-up is lost) or `deadline` passes, it runs the next entry in a
    /// free slot, or answers it if it expired in the queue, or sleeps.
    /// Returns with the lock held.
    fn run_until(
        &self,
        deadline: Option<Instant>,
        mut done: impl FnMut(&State) -> bool,
    ) -> MutexGuard<'_, State> {
        let mut state = self.lock();
        while !done(&state) && deadline.is_none_or(|d| Instant::now() < d) {
            let now_ms = self.now_ms();
            let popped =
                if state.busy < self.cfg.workers { state.sched.dispatch(now_ms) } else { None };
            match popped {
                None => {
                    let wait = deadline
                        .map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
                    state = self.cv.wait_timeout(state, wait).expect("serve lock poisoned").0;
                }
                Some(Err((job, reason))) => {
                    job.reject(Some(reason));
                    self.cv.notify_all();
                }
                Some(Ok(entry)) => {
                    state.busy += 1;
                    drop(state); // run the entry WITHOUT the lock
                    let _slot = RunSlot(self);
                    state = self.run(entry, now_ms);
                    state.busy -= 1;
                    self.cv.notify_all();
                }
            }
        }
        state
    }

    /// Runs an entry dispatched at `now_ms`, then records its outcome and
    /// answers its owner under the lock, which it returns held.
    fn run(&self, entry: QueuedEntry<Job>, now_ms: u64) -> MutexGuard<'_, State> {
        match entry.payload {
            Job::Query { mut query, ranking, resp } => {
                // Fit the execution into the time left before the arrival
                // deadline — queueing already consumed part of it.
                let remaining = entry.deadline_ms.saturating_sub(now_ms).max(1);
                query.budget.get_or_insert_with(QueryBudget::default).tighten_timeout_ms(remaining);
                let result = self.engine.try_query(&query, ranking);
                let mut state = self.lock();
                state.sched.complete(result.as_ref());
                let _ = resp.send(result.map_err(ServeError::Engine));
                state
            }
            Job::Ingest { post, resp } => {
                let result = match &self.sink {
                    Some(sink) => sink.ingest(post).map_err(IngestFailure::Sink),
                    None => Err(IngestFailure::Sink(SinkError {
                        kind: "NotConfigured",
                        message: "no ingest sink configured".to_string(),
                        conflict: false,
                    })),
                };
                let mut state = self.lock();
                state.sched.complete_ingest(result.is_ok());
                let _ = resp.send(result);
                state
            }
        }
    }

    /// Runs the loop until `rx` holds an answer; `None` if it never will.
    fn answer<T>(&self, rx: &mpsc::Receiver<T>) -> Option<T> {
        let mut answer = None;
        drop(self.run_until(None, |_| match rx.try_recv() {
            Err(mpsc::TryRecvError::Empty) => false,
            got => {
                answer = got.ok();
                true
            }
        }));
        answer
    }
}

/// Held while an entry runs: a run that panics still frees its slot and
/// wakes the sleepers, so the entry's owner reads `Abandoned`.
struct RunSlot<'a>(&'a Shared);

impl Drop for RunSlot<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Taken during the unwind, the lock is not poisoned by it.
            if let Ok(mut state) = self.0.state.lock() {
                state.busy -= 1;
            }
            self.0.cv.notify_all();
        }
    }
}

/// A pending answer. Obtained from [`TklusServer::submit`]; redeem it with
/// [`Ticket::wait`].
pub struct Ticket {
    /// The admission ticket id (matches drain-report accounting).
    pub id: u64,
    rx: mpsc::Receiver<Result<QueryOutcome, ServeError>>,
    shared: Arc<Shared>,
}

impl Ticket {
    /// Runs admitted work until the query completes, is shed
    /// post-admission (evicted or expired), fails, or is abandoned.
    pub fn wait(self) -> Result<QueryOutcome, ServeError> {
        self.shared.answer(&self.rx).unwrap_or(Err(ServeError::Abandoned))
    }
}

/// A pending write acknowledgement. Obtained from
/// [`TklusServer::submit_ingest`]; redeem it with [`IngestTicket::wait`].
pub struct IngestTicket {
    /// The admission ticket id (matches drain-report accounting).
    pub id: u64,
    rx: mpsc::Receiver<Result<u64, IngestFailure>>,
    shared: Arc<Shared>,
}

impl IngestTicket {
    /// Runs admitted work until the write is durably acknowledged (its
    /// WAL sequence number), fails typed, is shed, or is abandoned.
    pub fn wait(self) -> Result<u64, IngestFailure> {
        self.shared.answer(&self.rx).unwrap_or(Err(IngestFailure::Abandoned))
    }
}

/// What a graceful [`TklusServer::drain`] observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Queries that finished (successfully or typed-failed) before the
    /// drain deadline.
    pub completed: u64,
    /// Ticket ids abandoned while still queued; each waiter received
    /// [`ServeError::Abandoned`].
    pub abandoned_queued: Vec<u64>,
    /// Entries still running at the drain deadline, on other waiters'
    /// threads; their owners get the answers when the runs end.
    pub in_flight_at_deadline: usize,
}

/// The overload-resilient serving layer around a [`TklusEngine`].
pub struct TklusServer {
    shared: Arc<Shared>,
}

impl TklusServer {
    /// Starts the server over the engine, with no ingest sink (writes
    /// answered `NotConfigured`).
    pub fn start(engine: Arc<TklusEngine>, cfg: ServeConfig) -> Result<Self, String> {
        Self::start_with_sink(engine, cfg, None)
    }

    /// Starts the server with a durable write destination for
    /// [`TklusServer::submit_ingest`].
    pub fn start_with_sink(
        engine: Arc<TklusEngine>,
        cfg: ServeConfig,
        sink: Option<Arc<dyn IngestSink>>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let state = Mutex::new(State { sched: Scheduler::new(&cfg, Job::query), busy: 0 });
        let started = Instant::now();
        let shared = Shared { engine, cfg, sink, state, cv: Condvar::new(), started };
        Ok(Self { shared: Arc::new(shared) })
    }

    /// Submits a query. Returns a [`Ticket`] when admitted, or the typed
    /// shed reason — computed without touching the engine — when not.
    ///
    /// `deadline` is measured from *now* (arrival); queueing time counts
    /// against it. `None` applies the config default.
    pub fn submit(
        &self,
        query: TklusQuery,
        ranking: Ranking,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Rejected> {
        let (tx, rx) = mpsc::sync_channel(1);
        let id = self.admit(priority, deadline, Job::Query { query, ranking, resp: tx })?;
        Ok(Ticket { id, rx, shared: Arc::clone(&self.shared) })
    }

    /// Submits a durable write. Writes ride the high-priority lane of the
    /// *same* bounded admission queue as queries — a firehose burst and a
    /// query storm contend for the same slots, so overload sheds writes
    /// with the same typed taxonomy instead of buffering them unboundedly.
    /// Sink failures come back typed on the ticket.
    pub fn submit_ingest(
        &self,
        post: Post,
        deadline: Option<Duration>,
    ) -> Result<IngestTicket, Rejected> {
        let (tx, rx) = mpsc::sync_channel(1);
        let id = self.admit(Priority::High, deadline, Job::Ingest { post, resp: tx })?;
        Ok(IngestTicket { id, rx, shared: Arc::clone(&self.shared) })
    }

    /// Admits `job` at the wall-clock now; an evicted victim is answered
    /// typed.
    fn admit(
        &self,
        priority: Priority,
        deadline: Option<Duration>,
        job: Job,
    ) -> Result<u64, Rejected> {
        let now_ms = self.shared.now_ms();
        // Saturate both steps: a caller-supplied Duration may overflow
        // u64 milliseconds, and the sum may overflow the clock.
        let relative_ms = deadline.map_or(self.shared.cfg.default_deadline_ms, |d| {
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
        });
        let deadline_ms = now_ms.saturating_add(relative_ms);
        let mut state = self.shared.lock();
        let busy = state.busy;
        let (id, evicted) = state.sched.admit(now_ms, priority, deadline_ms, busy, job)?;
        if let Some((victim, reason)) = evicted {
            victim.reject(Some(reason));
            self.shared.cv.notify_all();
        }
        Ok(id)
    }

    /// Convenience: submit and wait.
    pub fn query(
        &self,
        query: TklusQuery,
        ranking: Ranking,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, ServeError> {
        self.submit(query, ranking, priority, deadline)?.wait()
    }

    /// The current health/readiness report. When a sink is attached and
    /// reports its own health (the WAL sink's compaction state), a
    /// `sink:compaction` probe is appended — persistent maintenance
    /// failure renders the whole report unhealthy.
    pub fn health(&self) -> HealthReport {
        let sink_health = self.shared.sink.as_ref().and_then(|s| s.health());
        let state = self.shared.lock();
        let mut report = state.sched.health(state.busy);
        drop(state);
        if let Some(sink) = sink_health {
            let health = if sink.persistent_failure {
                tklus_metrics::Health::Unhealthy
            } else {
                tklus_metrics::Health::Healthy
            };
            report.probe(tklus_metrics::Probe::new("sink:compaction", health, sink.detail));
        }
        report
    }

    /// One coherent registry snapshot: the engine's query/storage
    /// metrics plus the serving-layer `tklus_serve_*` counters, captured
    /// under the same admission lock the health report uses. A sink that
    /// reports health also contributes
    /// `tklus_wal_compaction_failures_total`.
    pub fn metrics_snapshot(&self) -> tklus_metrics::RegistrySnapshot {
        let sink_health = self.shared.sink.as_ref().and_then(|s| s.health());
        let state = self.shared.lock();
        let base = self.shared.engine.metrics_snapshot().unwrap_or_default();
        let mut snap = state.sched.metrics(base, state.busy);
        drop(state);
        if let Some(sink) = sink_health {
            snap.set_counter("tklus_wal_compaction_failures_total", sink.maintenance_failures);
        }
        snap
    }

    /// Monotone admission counters (for tests and the CLI summary).
    pub fn counters(&self) -> AdmissionCounters {
        self.shared.lock().sched.counters()
    }

    /// Closes admission *without* consuming the server: every subsequent
    /// `submit`/`submit_ingest` answers [`Rejected::ShuttingDown`], while
    /// waiters keep running everything already admitted. The
    /// HTTP front-end calls this at SIGTERM so keep-alive connections see
    /// typed 503s immediately, finishes its connection threads, and only
    /// then calls [`TklusServer::drain`] for the final accounting.
    pub fn begin_drain(&self) {
        self.shared.lock().sched.begin_drain();
    }

    /// Bounded-wait drain phase that does *not* consume the server:
    /// closes admission, runs queued work beside the other waiters until
    /// nothing queues or runs or `timeout` passes, then abandons what
    /// still queues, answering each waiter, and returns those ticket ids
    /// (sorted).
    ///
    /// The HTTP front-end calls this *before* joining its connection
    /// threads: those threads block on tickets, so every ticket must be
    /// answered (completed or abandoned) within the drain budget or
    /// shutdown would stall behind a slow queue. [`TklusServer::drain`]
    /// afterwards produces the final report.
    pub fn drain_queued(&self, timeout: Duration) -> Vec<u64> {
        // A timeout past the clock's range (`Duration::MAX`) waits forever.
        let deadline = Instant::now().checked_add(timeout);
        self.begin_drain();
        let mut state = self.shared.run_until(deadline, |s| s.sched.depth() == 0 && s.busy == 0);
        let mut ids = Vec::new();
        for entry in state.sched.abandon_all() {
            entry.payload.reject(None);
            ids.push(entry.id);
        }
        drop(state);
        self.shared.cv.notify_all();
        ids.sort_unstable();
        ids
    }

    /// Gracefully drains: closes admission immediately, runs queued work
    /// for up to `timeout`, then abandons the rest *by name* — every
    /// admitted ticket is accounted for either in `completed`, as an
    /// answered eviction/expiry, or in the report's abandoned lists.
    /// Consumes the server.
    pub fn drain(self, timeout: Duration) -> DrainReport {
        let abandoned_queued = self.drain_queued(timeout);
        let state = self.shared.lock();
        DrainReport {
            completed: state.sched.snapshot(state.busy).completed,
            abandoned_queued,
            in_flight_at_deadline: state.busy,
        }
    }
}

impl Drop for TklusServer {
    fn drop(&mut self) {
        // An un-drained server still shuts down cleanly: whatever queues
        // is answered `Abandoned`.
        self.drain_queued(Duration::ZERO);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use tklus_core::EngineConfig;
    use tklus_gen::{generate_corpus, GenConfig};
    use tklus_model::{TweetId, UserId};

    /// Panics on tweet 1, 50 ms after telling `started`; acks the rest.
    struct PanickySink {
        started: Mutex<mpsc::Sender<()>>,
    }

    impl IngestSink for PanickySink {
        fn ingest(&self, post: Post) -> Result<u64, SinkError> {
            if post.id == TweetId(1) {
                self.started.lock().unwrap().send(()).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                panic!("sink failure under test");
            }
            Ok(post.id.0)
        }
    }

    #[test]
    fn a_panicking_run_frees_its_slot_and_abandons_its_entry() {
        let corpus = generate_corpus(&GenConfig {
            original_posts: 50,
            users: 10,
            vocab_size: 50,
            ..GenConfig::default()
        });
        let loc = corpus.posts()[0].location;
        let engine = Arc::new(TklusEngine::build(&corpus, &EngineConfig::default()).0);
        let (started_tx, started_rx) = mpsc::channel();
        let sink = Arc::new(PanickySink { started: Mutex::new(started_tx) });
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let server = Arc::new(TklusServer::start_with_sink(engine, cfg, Some(sink)).unwrap());
        let post = move |id| Post::original(TweetId(id), UserId(1), loc, "hi");
        let (ticket_tx, ticket_rx) = mpsc::channel();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                // Tweet 1 queues first, so waiting on tweet 2 runs it here.
                ticket_tx.send(server.submit_ingest(post(1), None).unwrap()).unwrap();
                server.submit_ingest(post(2), None).unwrap().wait()
            })
        };
        let orphan = ticket_rx.recv().unwrap();
        started_rx.recv().unwrap();
        // The only slot is taken: this wait sleeps until the panicking run
        // wakes it. A lost wake-up fails the timeout instead of hanging.
        let (answer_tx, answer_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || answer_tx.send(orphan.wait()).unwrap());
        let answer = answer_rx.recv_timeout(Duration::from_secs(20)).unwrap();
        waiter.join().unwrap();
        assert!(matches!(answer, Err(IngestFailure::Abandoned)));
        assert!(runner.join().is_err(), "the run panicked on the runner's thread");
        // The slot is free again: tweet 2, still queued, runs here first.
        assert_eq!(server.submit_ingest(post(3), None).unwrap().wait().unwrap(), 3);
    }
}
