//! The one scheduler (DESIGN.md §11): every serving decision that takes a
//! clock reading, made by one single-threaded core.
//!
//! [`Scheduler`] holds the admission queue, the breaker panel, the serve
//! tallies and the draining flag. Two callers run it, each with its own
//! clock: the threaded [`crate::TklusServer`] keeps it behind a mutex and
//! feeds it wall-clock milliseconds, and the [`crate::sim`] harness feeds
//! it virtual ones. Neither re-implements a decision, so the seeded load
//! harness tests the scheduling that serves.
//!
//! What stays with a caller is what only that caller has: the run loop,
//! the answer channels and the per-query timeout (wall time) in the
//! server, whose waiting threads run its entries in `workers` run slots;
//! the virtual worker-free times and the drain cutoff in the simulator.
//! The count of busy slots is one of those, so the calls that estimate a
//! wait take it as an argument.

use crate::breaker::{BreakerPanel, ProbeGrant};
use crate::config::{DegradePolicy, ServeConfig};
use crate::health::{build_report, Snapshot};
use crate::queue::{AdmissionCounters, AdmissionQueue, AdmitResult, Popped, QueuedEntry};
use crate::reject::Rejected;
use tklus_core::{EngineError, QueryOutcome};
use tklus_metrics::{HealthReport, RegistrySnapshot};
use tklus_model::{Priority, QueryBudget, TklusQuery};

/// A queued payload plus the half-open probes the breaker panel spent
/// admitting it. `None` for work that skips the breaker gate (ingest).
struct Slot<T> {
    grant: Option<ProbeGrant>,
    payload: T,
}

/// Splits the probe receipt off a queued entry.
fn unslot<T>(entry: QueuedEntry<Slot<T>>) -> (Option<ProbeGrant>, QueuedEntry<T>) {
    let QueuedEntry { id, priority, arrival_ms, deadline_ms, payload } = entry;
    (payload.grant, QueuedEntry { id, priority, arrival_ms, deadline_ms, payload: payload.payload })
}

/// The admission, dispatch and completion decisions of the serving layer,
/// over caller-supplied millisecond timestamps. Generic over the queued
/// payload: the server queues response channels, the simulator plan
/// indices.
pub struct Scheduler<T> {
    queue: AdmissionQueue<Slot<T>>,
    panel: BreakerPanel,
    degrade: Option<DegradePolicy>,
    workers: usize,
    /// The query a payload carries, if it is a query. Queries pass the
    /// breaker gate and may be degraded; anything else (ingest) does not.
    query_of: fn(&mut T) -> Option<&mut TklusQuery>,
    draining: bool,
    shed_circuit: u64,
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
            panel: BreakerPanel::new(cfg.breaker),
            degrade: cfg.degrade,
            workers: cfg.workers,
            query_of,
            draining: false,
            shed_circuit: 0,
            shed_shutdown: 0,
            completed: 0,
            failed: 0,
            degraded: 0,
            ingested: 0,
            ingest_failed: 0,
        }
    }

    /// Admits an arrival at `now_ms` with an absolute `deadline_ms`, while
    /// `busy` workers execute: the drain check, then (queries only) the
    /// breaker gate, then the queue. `Ok` carries the ticket id and any
    /// lower-priority victim evicted to make room, with the reason to
    /// answer it (its Retry-After estimate); a shed refunds the probes it
    /// was granted.
    pub fn admit(
        &mut self,
        now_ms: u64,
        priority: Priority,
        deadline_ms: u64,
        busy: usize,
        mut payload: T,
    ) -> Result<(u64, Option<(T, Rejected)>), Rejected> {
        if self.draining {
            self.shed_shutdown += 1;
            return Err(Rejected::ShuttingDown);
        }
        let grant = match (self.query_of)(&mut payload) {
            None => None,
            Some(_) => match self.panel.check(now_ms) {
                Ok(grant) => Some(grant),
                Err(breaker) => {
                    self.shed_circuit += 1;
                    return Err(Rejected::CircuitOpen { breaker });
                }
            },
        };
        match self.queue.try_admit(now_ms, priority, deadline_ms, Slot { grant, payload }, busy) {
            AdmitResult::Admitted { id, evicted } => {
                let evicted = evicted.map(|victim| {
                    let (grant, victim) = unslot(victim);
                    self.panel.release(grant);
                    // What a retry at the victim's own priority would wait,
                    // against the queue as it stands after the eviction.
                    let estimated_wait_ms = self.queue.estimated_wait_ms(victim.priority, busy);
                    (victim.payload, Rejected::Evicted { by: priority, estimated_wait_ms })
                });
                Ok((id, evicted))
            }
            AdmitResult::Shed { reason, payload } => {
                self.panel.release(payload.grant);
                Err(reason)
            }
        }
    }

    /// Takes the next entry in dispatch order at `now_ms`. `Ok` is ready to
    /// run, its query's cell budget tightened when the backlog behind it
    /// has reached the degrade threshold; `Err` expired in the queue and
    /// was refunded, to be answered with the reason.
    pub fn dispatch(&mut self, now_ms: u64) -> Option<Result<QueuedEntry<T>, (T, Rejected)>> {
        let mut entry = match self.queue.pop_next(now_ms)? {
            // A ready query's grant is settled by `complete`, not refunded.
            Popped::Ready(entry) => unslot(entry).1,
            Popped::Expired(entry) => {
                let (grant, entry) = unslot(entry);
                self.panel.release(grant);
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

    /// Records a dispatched query's outcome at `now_ms`: the breaker
    /// panel's evidence, and the completed/failed/degraded tallies.
    pub fn complete(&mut self, now_ms: u64, result: Result<&QueryOutcome, &EngineError>) {
        self.panel.record(now_ms, result.map(|_| ()));
        self.completed += 1;
        match result {
            Ok(outcome) if !outcome.completeness.is_complete() => self.degraded += 1,
            Ok(_) => {}
            Err(_) => self.failed += 1,
        }
    }

    /// Records a dispatched write's outcome. Sink failures never reach the
    /// query breakers: a WAL disk failure must not shed reads.
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

    /// Empties the queue in dispatch order, refunding every probe, so each
    /// entry can be answered as abandoned.
    pub fn abandon_all(&mut self) -> Vec<QueuedEntry<T>> {
        let mut abandoned = Vec::with_capacity(self.queue.depth());
        for entry in self.queue.drain_all() {
            let (grant, entry) = unslot(entry);
            self.panel.release(grant);
            abandoned.push(entry);
        }
        abandoned
    }

    /// Entries queued.
    pub(crate) fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// Monotone admission/shed counters.
    pub fn counters(&self) -> AdmissionCounters {
        self.queue.counters()
    }

    /// The `/health` report at `now_ms` with `busy` workers executing.
    pub fn health(&self, now_ms: u64, busy: usize) -> HealthReport {
        build_report(&self.snapshot(now_ms, busy), &self.panel)
    }

    /// `base` (the engine's registry snapshot) plus the `tklus_serve_*`
    /// rows at `now_ms` with `busy` workers executing.
    pub(crate) fn metrics(
        &self,
        base: RegistrySnapshot,
        now_ms: u64,
        busy: usize,
    ) -> RegistrySnapshot {
        crate::metrics::inject_serve_rows(base, &self.snapshot(now_ms, busy), &self.panel)
    }

    /// The gauge snapshot both surfaces above render from.
    pub(crate) fn snapshot(&self, now_ms: u64, busy: usize) -> Snapshot {
        Snapshot {
            now_ms,
            depth: self.queue.depth(),
            capacity: self.queue.capacity(),
            busy,
            workers: self.workers,
            draining: self.draining,
            counters: self.queue.counters(),
            shed_circuit: self.shed_circuit,
            shed_shutdown: self.shed_shutdown,
            completed: self.completed,
            failed: self.failed,
            degraded: self.degraded,
            ingested: self.ingested,
            ingest_failed: self.ingest_failed,
        }
    }

    /// The breaker panel, for the simulator's report.
    pub(crate) fn panel(&self) -> &BreakerPanel {
        &self.panel
    }
}
