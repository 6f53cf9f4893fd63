//! The bounded, priority-aware admission queue (DESIGN.md §11).
//!
//! This is the deterministic heart of the serving layer: a pure state
//! machine over explicit millisecond timestamps, owned by the one
//! [`crate::Scheduler`] that both the threaded server (wall-clock time)
//! and the virtual-time [`crate::sim`] harness drive. All admission
//! policy lives here:
//!
//! * **bounded queue** — at most `capacity` requests wait; arrivals
//!   beyond that are shed typed, never silently dropped;
//! * **shed-lowest-first** — when full, a higher-priority arrival evicts
//!   the *newest* entry of the *lowest* strictly-lower priority class
//!   (newest because it has waited least — evicting it wastes the least
//!   sunk queueing time);
//! * **hopeless-deadline shedding** — an arrival whose deadline would
//!   expire before a worker could plausibly start it is shed at enqueue
//!   with the estimate that condemned it. The estimate is deliberately
//!   crude but fully deterministic:
//!   `est_wait = est_service_ms × ⌊(entries at ≥ its priority + busy workers) / workers⌋`;
//! * **dispatch-order** — pop highest priority first, FIFO within a
//!   priority; entries found dead at dispatch are returned tagged so the
//!   caller can answer them typed instead of wasting engine time.

use crate::reject::Rejected;
use std::collections::VecDeque;
use tklus_model::Priority;

/// A request sitting in (or just removed from) the admission queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedEntry<T> {
    /// Admission ticket id, unique per queue, assigned in admission order.
    pub id: u64,
    /// Scheduling priority.
    pub priority: Priority,
    /// When the request arrived (ms, caller's clock).
    pub arrival_ms: u64,
    /// Absolute deadline (ms, caller's clock): queueing time counts.
    pub deadline_ms: u64,
    /// The caller's request payload.
    pub payload: T,
}

/// What [`AdmissionQueue::try_admit`] decided.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmitResult<T> {
    /// Queued. If making room required shedding a lower-priority entry,
    /// the victim rides along so the caller can answer it typed.
    Admitted {
        /// The ticket id of the newly queued request.
        id: u64,
        /// The lower-priority entry evicted to make room, if any.
        evicted: Option<QueuedEntry<T>>,
    },
    /// Shed at enqueue; the payload comes back untouched.
    Shed {
        /// Why.
        reason: Rejected,
        /// The request payload, returned to the caller.
        payload: T,
    },
}

/// What [`AdmissionQueue::pop_next`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// Alive and ready to execute.
    Ready(QueuedEntry<T>),
    /// Its deadline passed while it queued; answer it typed, don't run it.
    Expired(QueuedEntry<T>),
}

/// Monotone shed/admission counters, exposed through the health probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Shed: queue full, nothing evictable.
    pub shed_queue_full: u64,
    /// Shed: deadline hopeless at enqueue.
    pub shed_deadline: u64,
    /// Shed: evicted after admission by a higher-priority arrival.
    pub shed_evicted: u64,
    /// Shed: expired in the queue, caught at dispatch.
    pub expired_at_dispatch: u64,
}

impl AdmissionCounters {
    /// Total requests shed before reaching the engine.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_evicted + self.expired_at_dispatch
    }
}

/// The bounded priority admission queue. Generic over the payload so the
/// threaded server can queue response channels while the simulator queues
/// bare request indices.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    capacity: usize,
    workers: usize,
    est_service_ms: u64,
    /// One FIFO per priority, indexed by [`Priority::index`].
    lanes: [VecDeque<QueuedEntry<T>>; 3],
    next_id: u64,
    counters: AdmissionCounters,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue with the given bounds (see
    /// [`crate::ServeConfig`] for the knobs' meaning).
    pub fn new(capacity: usize, workers: usize, est_service_ms: u64) -> Self {
        assert!(capacity > 0 && workers > 0 && est_service_ms > 0, "validated by ServeConfig");
        Self {
            capacity,
            workers,
            est_service_ms,
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            next_id: 0,
            counters: AdmissionCounters::default(),
        }
    }

    /// Entries currently queued.
    pub fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Monotone admission/shed counters.
    pub fn counters(&self) -> AdmissionCounters {
        self.counters
    }

    /// Entries queued at `priority` or higher — the work a new arrival of
    /// that priority would wait behind.
    fn depth_at_or_above(&self, priority: Priority) -> usize {
        self.lanes[priority.index()..].iter().map(VecDeque::len).sum()
    }

    /// The deterministic wait estimate for an arrival of `priority` given
    /// `busy_workers` already executing.
    pub fn estimated_wait_ms(&self, priority: Priority, busy_workers: usize) -> u64 {
        let work_ahead = self.depth_at_or_above(priority) + busy_workers.min(self.workers);
        self.est_service_ms.saturating_mul((work_ahead / self.workers) as u64)
    }

    /// Runs the admission decision for an arrival at `now_ms` with an
    /// absolute `deadline_ms`. `busy_workers` is how many workers are
    /// mid-query right now (the simulator and server both know exactly).
    pub fn try_admit(
        &mut self,
        now_ms: u64,
        priority: Priority,
        deadline_ms: u64,
        payload: T,
        busy_workers: usize,
    ) -> AdmitResult<T> {
        // Hopeless deadlines first: shedding here is free, and doing it
        // before the capacity check means a doomed request never evicts a
        // viable lower-priority one.
        let estimated_wait_ms = self.estimated_wait_ms(priority, busy_workers);
        if now_ms.saturating_add(estimated_wait_ms) > deadline_ms {
            self.counters.shed_deadline += 1;
            return AdmitResult::Shed {
                reason: Rejected::DeadlineHopeless {
                    deadline_in_ms: deadline_ms.saturating_sub(now_ms),
                    estimated_wait_ms,
                },
                payload,
            };
        }
        let mut evicted = None;
        if self.depth() >= self.capacity {
            match self.evict_below(priority) {
                Some(victim) => {
                    self.counters.shed_evicted += 1;
                    evicted = Some(victim);
                }
                None => {
                    self.counters.shed_queue_full += 1;
                    return AdmitResult::Shed {
                        reason: Rejected::QueueFull { depth: self.depth(), estimated_wait_ms },
                        payload,
                    };
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.counters.admitted += 1;
        self.lanes[priority.index()].push_back(QueuedEntry {
            id,
            priority,
            arrival_ms: now_ms,
            deadline_ms,
            payload,
        });
        AdmitResult::Admitted { id, evicted }
    }

    /// Sheds the newest entry of the lowest priority class strictly below
    /// `priority`, if any.
    fn evict_below(&mut self, priority: Priority) -> Option<QueuedEntry<T>> {
        self.lanes[..priority.index()].iter_mut().find_map(VecDeque::pop_back)
    }

    /// Removes the next entry in dispatch order (highest priority first,
    /// FIFO within), tagging it [`Popped::Expired`] when its deadline
    /// already passed.
    pub fn pop_next(&mut self, now_ms: u64) -> Option<Popped<T>> {
        let entry = self.lanes.iter_mut().rev().find_map(VecDeque::pop_front)?;
        if entry.deadline_ms < now_ms {
            self.counters.expired_at_dispatch += 1;
            Some(Popped::Expired(entry))
        } else {
            Some(Popped::Ready(entry))
        }
    }

    /// Empties the queue (graceful drain's abandon step), returning the
    /// entries in dispatch order so every one can be answered typed.
    pub fn drain_all(&mut self) -> Vec<QueuedEntry<T>> {
        let mut out = Vec::with_capacity(self.depth());
        while let Some(entry) = self.lanes.iter_mut().rev().find_map(VecDeque::pop_front) {
            out.push(entry);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn queue(capacity: usize, workers: usize) -> AdmissionQueue<&'static str> {
        AdmissionQueue::new(capacity, workers, 10)
    }

    fn admit(
        q: &mut AdmissionQueue<&'static str>,
        now: u64,
        p: Priority,
        deadline: u64,
        tag: &'static str,
    ) -> AdmitResult<&'static str> {
        q.try_admit(now, p, deadline, tag, 0)
    }

    #[test]
    fn fifo_within_priority_and_priority_order_across() {
        let mut q = queue(8, 2);
        admit(&mut q, 0, Priority::Normal, 1000, "n1");
        admit(&mut q, 1, Priority::Low, 1000, "l1");
        admit(&mut q, 2, Priority::High, 1000, "h1");
        admit(&mut q, 3, Priority::Normal, 1000, "n2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next(10))
            .map(|p| match p {
                Popped::Ready(e) => e.payload,
                Popped::Expired(e) => panic!("unexpected expiry of {}", e.payload),
            })
            .collect();
        assert_eq!(order, vec!["h1", "n1", "n2", "l1"]);
    }

    #[test]
    fn full_queue_sheds_or_evicts_lowest_first() {
        let mut q = queue(2, 1);
        admit(&mut q, 0, Priority::Low, 1000, "l-old");
        admit(&mut q, 1, Priority::Low, 1000, "l-new");
        // A Low arrival cannot evict its own class: queue full. The shed
        // carries the wait estimate a retry would face (2 entries ahead,
        // 1 worker, 10 ms each -> 20 ms).
        match admit(&mut q, 2, Priority::Low, 1000, "l-3") {
            AdmitResult::Shed {
                reason: Rejected::QueueFull { depth: 2, estimated_wait_ms: 20 },
                payload: "l-3",
            } => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // A High arrival evicts the *newest* Low entry.
        match admit(&mut q, 3, Priority::High, 1000, "h1") {
            AdmitResult::Admitted { evicted: Some(victim), .. } => {
                assert_eq!(victim.payload, "l-new");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        let c = q.counters();
        assert_eq!(c.shed_queue_full, 1);
        assert_eq!(c.shed_evicted, 1);
        assert_eq!(c.admitted, 3);
    }

    #[test]
    fn hopeless_deadline_is_shed_at_enqueue() {
        let mut q = queue(16, 1);
        // 3 entries ahead at 10 ms each, 1 worker -> estimated wait 30 ms.
        for _ in 0..3 {
            admit(&mut q, 0, Priority::Normal, 10_000, "w");
        }
        match q.try_admit(100, Priority::Normal, 120, "late", 0) {
            AdmitResult::Shed {
                reason: Rejected::DeadlineHopeless { deadline_in_ms: 20, estimated_wait_ms: 30 },
                ..
            } => {}
            other => panic!("expected DeadlineHopeless, got {other:?}"),
        }
        // Same arrival with a workable deadline is admitted.
        assert!(matches!(
            q.try_admit(100, Priority::Normal, 200, "ok", 0),
            AdmitResult::Admitted { .. }
        ));
        // High priority jumps the Normal backlog, so its estimate is 0.
        assert_eq!(q.estimated_wait_ms(Priority::High, 0), 0);
        assert_eq!(q.counters().shed_deadline, 1);
    }

    #[test]
    fn busy_workers_count_toward_the_estimate() {
        let q = queue(16, 2);
        assert_eq!(q.estimated_wait_ms(Priority::Normal, 0), 0);
        assert_eq!(q.estimated_wait_ms(Priority::Normal, 2), 10);
        // busy_workers is clamped to the worker count.
        assert_eq!(q.estimated_wait_ms(Priority::Normal, 99), 10);
    }

    #[test]
    fn expired_entries_are_tagged_at_dispatch() {
        let mut q = queue(4, 1);
        admit(&mut q, 0, Priority::Normal, 50, "dead");
        admit(&mut q, 0, Priority::Normal, 500, "alive");
        match q.pop_next(100) {
            Some(Popped::Expired(e)) => assert_eq!(e.payload, "dead"),
            other => panic!("expected expired, got {other:?}"),
        }
        match q.pop_next(100) {
            Some(Popped::Ready(e)) => assert_eq!(e.payload, "alive"),
            other => panic!("expected ready, got {other:?}"),
        }
        assert_eq!(q.counters().expired_at_dispatch, 1);
    }

    #[test]
    fn wait_estimate_saturates_at_extreme_clocks() {
        // est_service_ms at the ceiling: the multiply must saturate, not
        // wrap, and the saturated estimate must flow into the typed shed.
        let mut q: AdmissionQueue<&'static str> = AdmissionQueue::new(2, 1, u64::MAX);
        q.try_admit(0, Priority::Normal, u64::MAX, "a", 0);
        assert_eq!(q.estimated_wait_ms(Priority::Normal, 1), u64::MAX);
        // The saturated estimate pushes `now + estimate` to the clock's
        // ceiling; against any deadline below it the hopeless check fires
        // with the saturated value instead of a wrapped small number.
        match q.try_admit(0, Priority::Normal, u64::MAX - 1, "b", 1) {
            AdmitResult::Shed {
                reason: Rejected::DeadlineHopeless { estimated_wait_ms: u64::MAX, .. },
                ..
            } => {}
            other => panic!("expected saturated DeadlineHopeless, got {other:?}"),
        }
        // An idle queue with a live deadline still admits even at the
        // clock's edge (the PR 5 instant-shed guard, re-pinned here).
        let mut idle: AdmissionQueue<&'static str> = AdmissionQueue::new(2, 1, u64::MAX);
        assert!(matches!(
            idle.try_admit(u64::MAX, Priority::Normal, u64::MAX, "c", 0),
            AdmitResult::Admitted { .. }
        ));
        // With a deadline at the ceiling the saturated sum equals (never
        // exceeds) it, so the request survives to the capacity check and
        // the QueueFull shed carries the saturated wait.
        let mut full: AdmissionQueue<&'static str> = AdmissionQueue::new(1, 1, u64::MAX);
        full.try_admit(0, Priority::Normal, u64::MAX, "d", 0);
        match full.try_admit(0, Priority::Normal, u64::MAX, "e", 1) {
            AdmitResult::Shed {
                reason: Rejected::QueueFull { depth: 1, estimated_wait_ms: u64::MAX },
                ..
            } => {}
            other => panic!("expected saturated QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn queue_full_shed_carries_the_retry_estimate() {
        let mut q = queue(1, 2);
        admit(&mut q, 0, Priority::Normal, 1000, "first");
        // 1 queued + 1 busy over 2 workers -> floor(2/2) x 10 ms = 10 ms.
        match q.try_admit(0, Priority::Normal, 1000, "second", 1) {
            AdmitResult::Shed {
                reason: Rejected::QueueFull { depth: 1, estimated_wait_ms: 10 },
                ..
            } => {}
            other => panic!("expected QueueFull with estimate, got {other:?}"),
        }
    }

    #[test]
    fn drain_returns_everything_in_dispatch_order() {
        let mut q = queue(8, 1);
        admit(&mut q, 0, Priority::Low, 1000, "l");
        admit(&mut q, 0, Priority::High, 1000, "h");
        admit(&mut q, 0, Priority::Normal, 1000, "n");
        let drained: Vec<_> = q.drain_all().into_iter().map(|e| e.payload).collect();
        assert_eq!(drained, vec!["h", "n", "l"]);
        assert_eq!(q.depth(), 0);
    }
}
