//! The threaded overload-resilient server (DESIGN.md §11).
//!
//! [`TklusServer`] is the one [`Scheduler`] behind a mutex, plus a bounded
//! worker pool, the response channels and the wall clock. It makes *no
//! decision of its own*: every shed, evict, degrade, trip and drain goes
//! through the scheduler the virtual-time simulator drives. What stays
//! here is wall time: the per-query timeout, tightened in the worker to
//! what is left of the request's deadline.
//!
//! Concurrency shape: one `Mutex<State>` guards the scheduler; workers
//! block on a condvar for work and *release the lock while executing the
//! engine query* — a query runs on its worker's thread, so holding the
//! admission lock across it would serialize the whole server.

use crate::config::ServeConfig;
use crate::ingest::{IngestFailure, IngestSink, SinkError};
use crate::queue::AdmissionCounters;
use crate::reject::{Rejected, ServeError};
use crate::scheduler::Scheduler;
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
/// Queries and durable writes share the same bounded slots (DESIGN.md
/// §16), so overload sheds both with one typed taxonomy instead of
/// buffering writes unboundedly.
enum Job {
    Query {
        query: TklusQuery,
        ranking: Ranking,
        resp: mpsc::SyncSender<Result<QueryOutcome, ServeError>>,
    },
    /// Writes skip the query breaker gate: the WAL is its own failure
    /// domain and reports failures typed per request.
    Ingest { post: Post, resp: mpsc::SyncSender<Result<u64, IngestFailure>> },
}

impl Job {
    fn query(&mut self) -> Option<&mut TklusQuery> {
        match self {
            Job::Query { query, .. } => Some(query),
            Job::Ingest { .. } => None,
        }
    }

    /// Answers a shed after admission (evicted, expired) on whichever
    /// channel the job carries. The waiter may have given up (receiver
    /// dropped) — that is its right, not an error.
    fn reject(self, reason: Rejected) {
        match self {
            Job::Query { resp, .. } => {
                let _ = resp.send(Err(ServeError::Rejected(reason)));
            }
            Job::Ingest { resp, .. } => {
                let _ = resp.send(Err(IngestFailure::Rejected(reason)));
            }
        }
    }

    /// Answers a drain abandonment on whichever channel the job carries.
    fn abandon(self) {
        match self {
            Job::Query { resp, .. } => {
                let _ = resp.send(Err(ServeError::Abandoned));
            }
            Job::Ingest { resp, .. } => {
                let _ = resp.send(Err(IngestFailure::Abandoned));
            }
        }
    }
}

/// Mutable server state, guarded by one mutex.
struct State {
    sched: Scheduler<Job>,
    /// Workers currently executing a job.
    busy: usize,
    stopped: bool,
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

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("serve lock poisoned")
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
                sched: Scheduler::new(&cfg, Job::query),
                busy: 0,
                stopped: false,
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
        let (tx, rx) = mpsc::sync_channel(1);
        let id = self.admit(priority, deadline, Job::Query { query, ranking, resp: tx })?;
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
        let (tx, rx) = mpsc::sync_channel(1);
        let id = self.admit(Priority::High, deadline, Job::Ingest { post, resp: tx })?;
        Ok(IngestTicket { id, rx })
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
        drop(state);
        if let Some((victim, reason)) = evicted {
            victim.reject(reason);
        }
        self.shared.work_cv.notify_one();
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
        let now_ms = self.shared.now_ms();
        let sink_health = self.shared.sink.as_ref().and_then(|s| s.health());
        let state = self.shared.lock();
        let mut report = state.sched.health(now_ms, state.busy);
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
        let state = self.shared.lock();
        let base = self.shared.engine.metrics_snapshot().unwrap_or_default();
        let mut snap = state.sched.metrics(base, now_ms, state.busy);
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
    /// workers keep running and answer everything already admitted. The
    /// HTTP front-end calls this at SIGTERM so keep-alive connections see
    /// typed 503s immediately, finishes its connection threads, and only
    /// then calls [`TklusServer::drain`] for the final accounting.
    pub fn begin_drain(&self) {
        self.shared.lock().sched.begin_drain();
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
        let mut state = self.shared.lock();
        state.sched.begin_drain();
        self.shared.work_cv.notify_all();
        while (state.sched.depth() > 0 || state.busy > 0) && Instant::now() < deadline {
            let wait = deadline.saturating_duration_since(Instant::now());
            let (next, timed_out) =
                self.shared.idle_cv.wait_timeout(state, wait).expect("serve lock poisoned");
            state = next;
            if timed_out.timed_out() {
                break;
            }
        }
        let abandoned = state.sched.abandon_all();
        drop(state);
        let mut ids: Vec<u64> = abandoned
            .into_iter()
            .map(|entry| {
                entry.payload.abandon();
                entry.id
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Gracefully drains: closes admission immediately, lets queued and
    /// in-flight work finish for up to `timeout`, then abandons the rest
    /// *by name* — every admitted ticket is accounted for either in
    /// `completed`, as an answered eviction/expiry, or in the report's
    /// abandoned lists. Consumes the server; workers are joined.
    pub fn drain(self, timeout: Duration) -> DrainReport {
        let abandoned_queued = self.drain_queued(timeout);
        let state = self.shared.lock();
        DrainReport {
            completed: state.sched.snapshot(0, state.busy).completed,
            abandoned_queued,
            in_flight_at_deadline: state.busy,
        }
        // Dropping `self` stops and joins the workers.
    }
}

impl Drop for TklusServer {
    fn drop(&mut self) {
        // An un-drained server still shuts down cleanly: abandon what
        // queues, stop, wake, join.
        self.drain_queued(Duration::ZERO);
        self.shared.lock().stopped = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        // Sleep until there is work or the server stops.
        while !state.stopped && state.sched.depth() == 0 {
            state = shared.work_cv.wait(state).expect("serve lock poisoned");
        }
        if state.stopped {
            return;
        }
        let now_ms = shared.now_ms();
        let entry = match state.sched.dispatch(now_ms) {
            None => continue, // raced with another worker
            Some(Err((job, reason))) => {
                job.reject(reason);
                // An expired pop can be the last thing draining waits on.
                if state.sched.depth() == 0 && state.busy == 0 {
                    shared.idle_cv.notify_all();
                }
                continue;
            }
            Some(Ok(entry)) => entry,
        };
        state.busy += 1;
        drop(state); // run the job WITHOUT the admission lock
        match entry.payload {
            Job::Query { mut query, ranking, resp } => {
                // Fit the execution into the time left before the arrival
                // deadline — queueing already consumed part of it.
                let remaining = entry.deadline_ms.saturating_sub(now_ms).max(1);
                query.budget.get_or_insert_with(QueryBudget::default).tighten_timeout_ms(remaining);
                let result = shared.engine.try_query(&query, ranking);
                let end_ms = shared.now_ms();
                state = shared.lock();
                state.sched.complete(end_ms, result.as_ref());
                let _ = resp.send(result.map_err(ServeError::Engine));
            }
            Job::Ingest { post, resp } => {
                let result = match &shared.sink {
                    Some(sink) => sink.ingest(post).map_err(IngestFailure::Sink),
                    None => Err(IngestFailure::Sink(SinkError {
                        kind: "NotConfigured",
                        message: "no ingest sink configured".to_string(),
                        conflict: false,
                    })),
                };
                state = shared.lock();
                state.sched.complete_ingest(result.is_ok());
                let _ = resp.send(result);
            }
        }
        state.busy -= 1;
        if state.sched.depth() == 0 && state.busy == 0 {
            shared.idle_cv.notify_all();
        }
    }
}
