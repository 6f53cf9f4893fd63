//! The one scheduler (DESIGN.md §11): every serving decision that takes a
//! clock reading, made by one single-threaded core.
//!
//! [`Scheduler`] holds the admission queue, the serve tallies and the
//! draining flag. Two callers run it, each with its own clock: the
//! threaded [`crate::TklusServer`] keeps it behind a mutex and feeds it
//! wall-clock milliseconds, and the [`crate::sim`] harness feeds it
//! virtual ones. Neither re-implements a decision, so the seeded load
//! harness tests the scheduling that serves.
//!
//! What stays with a caller is what only that caller has: the run loop,
//! the answer channels and the per-query timeout (wall time) in the
//! server, whose waiting threads run its entries in `workers` run slots;
//! the virtual worker-free times and the drain cutoff in the simulator.
//! The count of busy slots is one of those, so the calls that estimate a
//! wait take it as an argument.

use crate::config::{DegradePolicy, ServeConfig};
use crate::health::{build_report, Snapshot};
use crate::queue::{AdmissionCounters, AdmissionQueue, AdmitResult, Popped, QueuedEntry};
use crate::reject::Rejected;
use tklus_core::{EngineError, QueryOutcome};
use tklus_metrics::{HealthReport, RegistrySnapshot};
use tklus_model::{Priority, QueryBudget, TklusQuery};

/// The admission, dispatch and completion decisions of the serving layer,
/// over caller-supplied millisecond timestamps. Generic over the queued
/// payload: the server queues response channels, the simulator plan
/// indices. A failed query is tallied and changes no later decision.
pub struct Scheduler<T> {
    queue: AdmissionQueue<T>,
    degrade: Option<DegradePolicy>,
    workers: usize,
    /// The query a payload carries, if it is a query. Queries may be
    /// degraded; anything else (ingest) is not.
    query_of: fn(&mut T) -> Option<&mut TklusQuery>,
    draining: bool,
    shed_shutdown: u64,
    completed: u64,
    failed: u64,
    degraded: u64,
    ingested: u64,
    ingest_failed: u64,
}

impl<T> Scheduler<T> {
    /// An idle scheduler for a validated `cfg`.
    pub fn new(cfg: &ServeConfig, query_of: fn(&mut T) -> Option<&mut TklusQuery>) -> Self {
        Self {
            queue: AdmissionQueue::new(cfg.queue_capacity, cfg.workers, cfg.est_service_ms),
            degrade: cfg.degrade,
            workers: cfg.workers,
            query_of,
            draining: false,
            shed_shutdown: 0,
            completed: 0,
            failed: 0,
            degraded: 0,
            ingested: 0,
            ingest_failed: 0,
        }
    }

    /// Admits an arrival at `now_ms` with an absolute `deadline_ms`, while
    /// `busy` workers execute: the drain check, then the queue. `Ok`
    /// carries the ticket id and any lower-priority victim evicted to make
    /// room, with the reason to answer it (its Retry-After estimate).
    pub fn admit(
        &mut self,
        now_ms: u64,
        priority: Priority,
        deadline_ms: u64,
        busy: usize,
        payload: T,
    ) -> Result<(u64, Option<(T, Rejected)>), Rejected> {
        if self.draining {
            self.shed_shutdown += 1;
            return Err(Rejected::ShuttingDown);
        }
        match self.queue.try_admit(now_ms, priority, deadline_ms, payload, busy) {
            AdmitResult::Admitted { id, evicted } => {
                let evicted = evicted.map(|victim| {
                    // What a retry at the victim's own priority would wait,
                    // against the queue as it stands after the eviction.
                    let estimated_wait_ms = self.queue.estimated_wait_ms(victim.priority, busy);
                    (victim.payload, Rejected::Evicted { by: priority, estimated_wait_ms })
                });
                Ok((id, evicted))
            }
            AdmitResult::Shed { reason, .. } => Err(reason),
        }
    }

    /// Takes the next entry in dispatch order at `now_ms`. `Ok` is ready to
    /// run, its query's cell budget tightened when the backlog behind it
    /// has reached the degrade threshold; `Err` expired in the queue, to
    /// be answered with the reason.
    pub fn dispatch(&mut self, now_ms: u64) -> Option<Result<QueuedEntry<T>, (T, Rejected)>> {
        let mut entry = match self.queue.pop_next(now_ms)? {
            Popped::Ready(entry) => entry,
            Popped::Expired(entry) => {
                let waited_ms = now_ms.saturating_sub(entry.arrival_ms);
                return Some(Err((entry.payload, Rejected::ExpiredInQueue { waited_ms })));
            }
        };
        if let Some(policy) = self.degrade.filter(|p| self.queue.depth() >= p.queue_threshold) {
            if let Some(query) = (self.query_of)(&mut entry.payload) {
                query
                    .budget
                    .get_or_insert_with(QueryBudget::default)
                    .tighten_max_cells(policy.max_cells);
            }
        }
        Some(Ok(entry))
    }

    /// Records a dispatched query's outcome in the completed/failed/degraded
    /// tallies. A failure is its own query's answer: it sheds nothing else.
    pub fn complete(&mut self, result: Result<&QueryOutcome, &EngineError>) {
        self.completed += 1;
        match result {
            Ok(outcome) if !outcome.completeness.is_complete() => self.degraded += 1,
            Ok(_) => {}
            Err(_) => self.failed += 1,
        }
    }

    /// Records a dispatched write's outcome.
    pub(crate) fn complete_ingest(&mut self, ok: bool) {
        self.ingested += 1;
        if !ok {
            self.ingest_failed += 1;
        }
    }

    /// Closes admission: every later arrival is shed `ShuttingDown`.
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Empties the queue in dispatch order, so each entry can be answered
    /// as abandoned.
    pub fn abandon_all(&mut self) -> Vec<QueuedEntry<T>> {
        self.queue.drain_all()
    }

    /// Entries queued.
    pub(crate) fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// Monotone admission/shed counters.
    pub fn counters(&self) -> AdmissionCounters {
        self.queue.counters()
    }

    /// The `/health` report with `busy` workers executing.
    pub fn health(&self, busy: usize) -> HealthReport {
        build_report(&self.snapshot(busy))
    }

    /// `base` (the engine's registry snapshot) plus the `tklus_serve_*`
    /// rows with `busy` workers executing.
    pub(crate) fn metrics(&self, base: RegistrySnapshot, busy: usize) -> RegistrySnapshot {
        crate::metrics::inject_serve_rows(base, &self.snapshot(busy))
    }

    /// The gauge snapshot both surfaces above render from.
    pub(crate) fn snapshot(&self, busy: usize) -> Snapshot {
        Snapshot {
            depth: self.queue.depth(),
            capacity: self.queue.capacity(),
            busy,
            workers: self.workers,
            draining: self.draining,
            counters: self.queue.counters(),
            shed_shutdown: self.shed_shutdown,
            completed: self.completed,
            failed: self.failed,
            degraded: self.degraded,
            ingested: self.ingested,
            ingest_failed: self.ingest_failed,
        }
    }
}
