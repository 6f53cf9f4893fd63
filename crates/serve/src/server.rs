//! The threaded overload-resilient server (DESIGN.md §11).
//!
//! [`TklusServer`] wraps a shared-immutable [`TklusEngine`] with the
//! admission queue, breaker panel, degrade policy, and graceful drain. It
//! contains *no policy of its own*: every shed/evict/trip decision is made
//! by the same pure state machines the virtual-time simulator drives —
//! the server merely feeds them wall-clock milliseconds and runs admitted
//! queries on a bounded worker pool.
//!
//! Concurrency shape: one `Mutex<State>` guards the queue, panel, and
//! counters; workers block on a condvar for work and *release the lock
//! while executing the engine query* — the engine itself is `&self` and
//! internally parallel, so holding the admission lock across a query
//! would serialize the whole server.

use crate::breaker::{BreakerPanel, ProbeGrant};
use crate::config::ServeConfig;
use crate::health::{build_report, Snapshot};
use crate::ingest::{IngestFailure, IngestSink, SinkError};
use crate::queue::{AdmissionCounters, AdmissionQueue, AdmitResult, Popped, QueuedEntry};
use crate::reject::{Rejected, ServeError};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tklus_core::{QueryOutcome, Ranking, TklusEngine};
use tklus_metrics::HealthReport;
use tklus_model::{Post, Priority, QueryBudget, TklusQuery};

/// Clamp for drain timeouts: `Instant + Duration` panics on overflow,
/// and a caller passing `Duration::MAX` means "wait forever" anyway.
const DRAIN_TIMEOUT_CAP: Duration = Duration::from_secs(365 * 24 * 60 * 60);

/// One queued unit of work plus the channel its answer goes back on.
/// Dropping a sender wakes the waiter with the typed `Abandoned` error.
struct Job {
    /// Half-open probes the breaker panel spent admitting this job; must
    /// be released if the job dies without executing. `None` for ingest:
    /// writes never consume query-breaker probes (the WAL is its own
    /// failure domain and reports failures typed per request).
    grant: Option<ProbeGrant>,
    work: Work,
}

/// The two kinds of work the admission queue carries (DESIGN.md §16):
/// queries and durable writes share the same bounded slots so overload
/// sheds both with one typed taxonomy instead of buffering writes
/// unboundedly.
enum Work {
    Query {
        query: TklusQuery,
        ranking: Ranking,
        resp: mpsc::SyncSender<Result<QueryOutcome, ServeError>>,
    },
    Ingest {
        post: Post,
        resp: mpsc::SyncSender<Result<u64, IngestFailure>>,
    },
}

/// Mutable server state, guarded by one mutex.
struct State {
    queue: AdmissionQueue<Job>,
    panel: BreakerPanel,
    /// Workers currently executing a query.
    busy: usize,
    draining: bool,
    stopped: bool,
    shed_circuit: u64,
    shed_shutdown: u64,
    completed: u64,
    failed: u64,
    degraded: u64,
    ingested: u64,
    ingest_failed: u64,
}

struct Shared {
    engine: Arc<TklusEngine>,
    cfg: ServeConfig,
    /// Durable write destination; `None` means ingest submissions are
    /// answered with a typed `NotConfigured` sink error.
    sink: Option<Arc<dyn IngestSink>>,
    state: Mutex<State>,
    /// Signalled when work arrives or the server stops.
    work_cv: Condvar,
    /// Signalled when a worker goes idle (drain waits on this).
    idle_cv: Condvar,
    started: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// A pending answer. Obtained from [`TklusServer::submit`]; redeem it with
/// [`Ticket::wait`].
pub struct Ticket {
    /// The admission ticket id (matches drain-report accounting).
    pub id: u64,
    rx: mpsc::Receiver<Result<QueryOutcome, ServeError>>,
}

impl Ticket {
    /// Blocks until the query completes, is shed post-admission (evicted
    /// or expired), fails, or is abandoned by a drain.
    pub fn wait(self) -> Result<QueryOutcome, ServeError> {
        // A dropped sender (worker pool torn down without answering) is an
        // abandonment, never a panic.
        self.rx.recv().unwrap_or(Err(ServeError::Abandoned))
    }
}

/// A pending write acknowledgement. Obtained from
/// [`TklusServer::submit_ingest`]; redeem it with [`IngestTicket::wait`].
pub struct IngestTicket {
    /// The admission ticket id (matches drain-report accounting).
    pub id: u64,
    rx: mpsc::Receiver<Result<u64, IngestFailure>>,
}

impl IngestTicket {
    /// Blocks until the write is durably acknowledged (its WAL sequence
    /// number), fails typed, is shed post-admission, or is abandoned.
    pub fn wait(self) -> Result<u64, IngestFailure> {
        self.rx.recv().unwrap_or(Err(IngestFailure::Abandoned))
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
    /// Workers still mid-query at the drain deadline. Their waiters
    /// receive [`ServeError::Abandoned`] when the channel drops.
    pub in_flight_at_deadline: usize,
}

/// The overload-resilient serving layer around a [`TklusEngine`].
pub struct TklusServer {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl TklusServer {
    /// Starts `cfg.workers` worker threads over the engine, with no ingest
    /// sink (writes answered `NotConfigured`).
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
        let shared = Arc::new(Shared {
            engine,
            sink,
            state: Mutex::new(State {
                queue: AdmissionQueue::new(cfg.queue_capacity, cfg.workers, cfg.est_service_ms),
                panel: BreakerPanel::new(cfg.breaker),
                busy: 0,
                draining: false,
                stopped: false,
                shed_circuit: 0,
                shed_shutdown: 0,
                completed: 0,
                failed: 0,
                degraded: 0,
                ingested: 0,
                ingest_failed: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            started: Instant::now(),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Self { shared, workers })
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
        let now_ms = self.shared.now_ms();
        // Saturate both steps: a caller-supplied Duration may overflow
        // u64 milliseconds, and the sum may overflow the clock.
        let relative_ms = deadline.map_or(self.shared.cfg.default_deadline_ms, |d| {
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
        });
        let deadline_ms = now_ms.saturating_add(relative_ms);
        let mut state = self.shared.state.lock().expect("serve lock poisoned");
        if state.draining || state.stopped {
            return Err(Rejected::ShuttingDown);
        }
        let grant = match state.panel.check(now_ms) {
            Ok(grant) => grant,
            Err(breaker) => {
                state.shed_circuit += 1;
                return Err(Rejected::CircuitOpen { breaker });
            }
        };
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job { grant: Some(grant), work: Work::Query { query, ranking, resp: tx } };
        let id = self.admit(&mut state, now_ms, priority, deadline_ms, job)?;
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(Ticket { id, rx })
    }

    /// Submits a durable write. Writes ride the high-priority lane of the
    /// *same* bounded admission queue as queries — a firehose burst and a
    /// query storm contend for the same slots, so overload sheds writes
    /// with the same typed taxonomy instead of buffering them unboundedly.
    /// Writes skip the query breaker gate (the WAL is its own failure
    /// domain; sink failures come back typed on the ticket).
    pub fn submit_ingest(
        &self,
        post: Post,
        deadline: Option<Duration>,
    ) -> Result<IngestTicket, Rejected> {
        let now_ms = self.shared.now_ms();
        let relative_ms = deadline.map_or(self.shared.cfg.default_deadline_ms, |d| {
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
        });
        let deadline_ms = now_ms.saturating_add(relative_ms);
        let mut state = self.shared.state.lock().expect("serve lock poisoned");
        if state.draining || state.stopped {
            return Err(Rejected::ShuttingDown);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job { grant: None, work: Work::Ingest { post, resp: tx } };
        let id = self.admit(&mut state, now_ms, Priority::High, deadline_ms, job)?;
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(IngestTicket { id, rx })
    }

    /// Shared admission step: try the queue, answer any evicted victim
    /// typed (with its Retry-After estimate), refund probes on shed.
    fn admit(
        &self,
        state: &mut State,
        now_ms: u64,
        priority: Priority,
        deadline_ms: u64,
        job: Job,
    ) -> Result<u64, Rejected> {
        let busy = state.busy;
        match state.queue.try_admit(now_ms, priority, deadline_ms, job, busy) {
            AdmitResult::Admitted { id, evicted } => {
                if let Some(mut victim) = evicted {
                    // The victim never reaches the engine: refund any
                    // half-open probes it was admitted on.
                    state.panel.release_opt(victim.payload.grant.take());
                    // Retry-After for the victim: what a retry at its own
                    // priority would wait, estimated against the queue as it
                    // stands after the eviction.
                    let est = state.queue.estimated_wait_ms(victim.priority, busy);
                    answer(victim, Rejected::Evicted { by: priority, estimated_wait_ms: est });
                }
                Ok(id)
            }
            AdmitResult::Shed { reason, payload } => {
                // Shed at enqueue (after the breaker gate): the probes the
                // panel just spent on it must come back too.
                state.panel.release_opt(payload.grant);
                Err(reason)
            }
        }
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
        let now_ms = self.shared.now_ms();
        let sink_health = self.shared.sink.as_ref().and_then(|s| s.health());
        let state = self.shared.state.lock().expect("serve lock poisoned");
        let mut report =
            build_report(&Self::observe(now_ms, &state, &self.shared.cfg), &state.panel);
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
        let now_ms = self.shared.now_ms();
        let sink_health = self.shared.sink.as_ref().and_then(|s| s.health());
        let state = self.shared.state.lock().expect("serve lock poisoned");
        let mut snap = crate::metrics::inject_serve_rows(
            self.shared.engine.metrics_snapshot().unwrap_or_default(),
            &Self::observe(now_ms, &state, &self.shared.cfg),
            &state.panel,
        );
        drop(state);
        if let Some(sink) = sink_health {
            snap.set_counter("tklus_wal_compaction_failures_total", sink.maintenance_failures);
        }
        snap
    }

    /// Captures the gauge snapshot both surfaces above render from.
    fn observe(now_ms: u64, state: &State, cfg: &ServeConfig) -> Snapshot {
        Snapshot {
            now_ms,
            depth: state.queue.depth(),
            capacity: state.queue.capacity(),
            busy: state.busy,
            workers: cfg.workers,
            draining: state.draining,
            counters: state.queue.counters(),
            shed_circuit: state.shed_circuit,
            shed_shutdown: state.shed_shutdown,
            completed: state.completed,
            failed: state.failed,
            degraded: state.degraded,
            ingested: state.ingested,
            ingest_failed: state.ingest_failed,
        }
    }

    /// Monotone admission counters (for tests and the CLI summary).
    pub fn counters(&self) -> AdmissionCounters {
        self.shared.state.lock().expect("serve lock poisoned").queue.counters()
    }

    /// Closes admission *without* consuming the server: every subsequent
    /// `submit`/`submit_ingest` answers [`Rejected::ShuttingDown`], while
    /// workers keep running and answer everything already admitted. The
    /// HTTP front-end calls this at SIGTERM so keep-alive connections see
    /// typed 503s immediately, finishes its connection threads, and only
    /// then calls [`TklusServer::drain`] for the final accounting.
    pub fn begin_drain(&self) {
        let mut state = self.shared.state.lock().expect("serve lock poisoned");
        state.draining = true;
        drop(state);
        self.shared.work_cv.notify_all();
    }

    /// Bounded-wait drain phase that does *not* consume the server:
    /// closes admission, waits up to `timeout` for queued and in-flight
    /// work to finish, then abandons whatever still queues — answering
    /// every abandoned waiter — and returns the abandoned ticket ids
    /// (sorted). In-flight work keeps running and is answered by its
    /// worker.
    ///
    /// The HTTP front-end calls this *before* joining its connection
    /// threads: those threads block on tickets, so every ticket must be
    /// answered (completed or abandoned) within the drain budget or
    /// shutdown would stall behind a slow queue. [`TklusServer::drain`]
    /// afterwards joins the workers and produces the final report.
    pub fn drain_queued(&self, timeout: Duration) -> Vec<u64> {
        let deadline = Instant::now() + timeout.min(DRAIN_TIMEOUT_CAP);
        let mut abandoned = Vec::new();
        let mut state = self.shared.state.lock().expect("serve lock poisoned");
        state.draining = true;
        self.shared.work_cv.notify_all();
        while (state.queue.depth() > 0 || state.busy > 0) && Instant::now() < deadline {
            let wait = deadline.saturating_duration_since(Instant::now());
            let (next, timed_out) =
                self.shared.idle_cv.wait_timeout(state, wait).expect("serve lock poisoned");
            state = next;
            if timed_out.timed_out() {
                break;
            }
        }
        for mut entry in state.queue.drain_all() {
            state.panel.release_opt(entry.payload.grant.take());
            abandoned.push(entry.id);
            abandon(entry);
        }
        abandoned.sort_unstable();
        abandoned
    }

    /// Gracefully drains: closes admission immediately, lets queued and
    /// in-flight work finish for up to `timeout`, then abandons the rest
    /// *by name* — every admitted ticket is accounted for either in
    /// `completed`, as an answered eviction/expiry, or in the report's
    /// abandoned lists. Consumes the server; workers are joined.
    pub fn drain(mut self, timeout: Duration) -> DrainReport {
        let deadline = Instant::now() + timeout.min(DRAIN_TIMEOUT_CAP);
        let mut report = DrainReport::default();
        {
            let mut state = self.shared.state.lock().expect("serve lock poisoned");
            state.draining = true;
            // Wake all workers so none sleeps through the drain.
            self.shared.work_cv.notify_all();
            while (state.queue.depth() > 0 || state.busy > 0) && Instant::now() < deadline {
                let wait = deadline.saturating_duration_since(Instant::now());
                let (next, timed_out) =
                    self.shared.idle_cv.wait_timeout(state, wait).expect("serve lock poisoned");
                state = next;
                if timed_out.timed_out() {
                    break;
                }
            }
            // Whatever still queues at the deadline is abandoned, typed.
            for mut entry in state.queue.drain_all() {
                state.panel.release_opt(entry.payload.grant.take());
                report.abandoned_queued.push(entry.id);
                abandon(entry);
            }
            report.in_flight_at_deadline = state.busy;
            report.completed = state.completed;
            state.stopped = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        report.abandoned_queued.sort_unstable();
        report
    }
}

impl Drop for TklusServer {
    fn drop(&mut self) {
        // An un-drained server still shuts down cleanly: stop, wake, join.
        {
            let mut state = self.shared.state.lock().expect("serve lock poisoned");
            state.draining = true;
            state.stopped = true;
            for mut entry in state.queue.drain_all() {
                state.panel.release_opt(entry.payload.grant.take());
                abandon(entry);
            }
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Sends a post-admission shed to a queued job's waiter, on whichever
/// channel (query or ingest) the job carries. The waiter may have given
/// up (receiver dropped) — that is its right, not an error.
fn answer(entry: QueuedEntry<Job>, reason: Rejected) {
    match entry.payload.work {
        Work::Query { resp, .. } => {
            let _ = resp.send(Err(ServeError::Rejected(reason)));
        }
        Work::Ingest { resp, .. } => {
            let _ = resp.send(Err(IngestFailure::Rejected(reason)));
        }
    }
}

/// Answers a drain/Drop abandonment typed on whichever channel the job
/// carries.
fn abandon(entry: QueuedEntry<Job>) {
    match entry.payload.work {
        Work::Query { resp, .. } => {
            let _ = resp.send(Err(ServeError::Abandoned));
        }
        Work::Ingest { resp, .. } => {
            let _ = resp.send(Err(IngestFailure::Abandoned));
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("serve lock poisoned");
    loop {
        // Sleep until there is work or the server stops.
        while !state.stopped && state.queue.depth() == 0 {
            state = shared.work_cv.wait(state).expect("serve lock poisoned");
        }
        if state.stopped {
            return;
        }
        let now_ms = shared.started.elapsed().as_millis() as u64;
        let Some(popped) = state.queue.pop_next(now_ms) else {
            continue; // raced with another worker
        };
        match popped {
            Popped::Expired(mut entry) => {
                // Dead on arrival at dispatch: answer typed, skip the
                // engine, and refund any breaker probes it held.
                state.panel.release_opt(entry.payload.grant.take());
                let waited_ms = now_ms.saturating_sub(entry.arrival_ms);
                answer(entry, Rejected::ExpiredInQueue { waited_ms });
                // An expired pop can be the last thing draining waits on.
                if state.queue.depth() == 0 && state.busy == 0 {
                    shared.idle_cv.notify_all();
                }
            }
            Popped::Ready(entry) => {
                state.busy += 1;
                let deadline_ms = entry.deadline_ms;
                // The query grant is settled by `panel.record` below, not
                // refunded; ingest never holds one.
                let Job { grant: _, work } = entry.payload;
                match work {
                    Work::Query { mut query, ranking, resp } => {
                        // Tighten budgets while still holding the lock (cheap).
                        if let Some(policy) = shared.cfg.degrade {
                            if state.queue.depth() >= policy.queue_threshold {
                                query
                                    .budget
                                    .get_or_insert_with(QueryBudget::default)
                                    .tighten_max_cells(policy.max_cells);
                            }
                        }
                        // Fit the execution into the time left before the
                        // arrival deadline — queueing already consumed part
                        // of it.
                        let remaining = deadline_ms.saturating_sub(now_ms).max(1);
                        query
                            .budget
                            .get_or_insert_with(QueryBudget::default)
                            .tighten_timeout_ms(remaining);

                        drop(state); // run the query WITHOUT the admission lock
                        let result = shared.engine.try_query(&query, ranking);
                        let end_ms = shared.started.elapsed().as_millis() as u64;

                        state = shared.state.lock().expect("serve lock poisoned");
                        state.panel.record(end_ms, result.as_ref().map(|_| ()));
                        match &result {
                            Ok(outcome) => {
                                state.completed += 1;
                                if !outcome.completeness.is_complete() {
                                    state.degraded += 1;
                                }
                            }
                            Err(_) => {
                                state.completed += 1;
                                state.failed += 1;
                            }
                        }
                        state.busy -= 1;
                        if state.queue.depth() == 0 && state.busy == 0 {
                            shared.idle_cv.notify_all();
                        }
                        let _ = resp.send(result.map_err(ServeError::Engine));
                    }
                    Work::Ingest { post, resp } => {
                        drop(state); // run the sink WITHOUT the admission lock
                        let result = match &shared.sink {
                            Some(sink) => sink.ingest(post).map_err(IngestFailure::Sink),
                            None => Err(IngestFailure::Sink(SinkError {
                                kind: "NotConfigured",
                                message: "no ingest sink configured".to_string(),
                                conflict: false,
                            })),
                        };
                        state = shared.state.lock().expect("serve lock poisoned");
                        // Sink outcomes are NOT recorded to the query
                        // breakers: a WAL disk failure must not open the
                        // storage breaker and shed reads.
                        state.ingested += 1;
                        if result.is_err() {
                            state.ingest_failed += 1;
                        }
                        state.busy -= 1;
                        if state.queue.depth() == 0 && state.busy == 0 {
                            shared.idle_cv.notify_all();
                        }
                        let _ = resp.send(result);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Threaded-path smoke tests live in tests/load_harness.rs where a
    // corpus-backed engine is available; policy invariants are covered in
    // the queue/breaker/sim unit tests.
}
