//! The deterministic-load harness (DESIGN.md §11): a seeded open-loop
//! generator plus a virtual-time discrete-event loop around the threaded
//! server's own [`Scheduler`] — with simulated timestamps and
//! single-threaded execution, so every shed, evict, degrade and drain
//! decision is a pure function of `(corpus, workload, seed, config)`.
//! What is the simulator's own is the plan loop, the virtual worker-free
//! times (one per run slot), the drain cutoff and the report.
//!
//! Two clocks coexist deliberately:
//!
//! * **virtual time** decides scheduling — arrivals, queue waits,
//!   synthetic per-request service durations, the drain deadline. It
//!   never reads the wall clock.
//! * **the engine runs for real** — each admitted request executes
//!   `try_query` against the actual [`TklusEngine`] (possibly
//!   `FaultPager`-backed) at its virtual dispatch instant, in dispatch
//!   order. A query runs on the calling thread, so the storage fault
//!   schedule is a function of operation order and even injected faults
//!   reproduce exactly per seed.
//!
//! A real wall-clock budget (`timeout_ms`) would reintroduce
//! nondeterminism, so the simulator leaves the timeout alone (the server
//! tightens it at dispatch) and degrade only ever tightens `max_cells`,
//! which is bitwise-deterministic.

use crate::config::ServeConfig;
use crate::queue::AdmissionCounters;
use crate::reject::Rejected;
use crate::scheduler::Scheduler;
use tklus_core::{Completeness, EngineError, RankedUser, Ranking, TklusEngine};
use tklus_metrics::{HealthReport, RegistrySnapshot};
use tklus_model::{Priority, TklusQuery};

// ---- Seeded open-loop generation ---------------------------------------

/// SplitMix64 — the same tiny deterministic generator the storage fault
/// schedule uses; state advances by the golden-gamma constant and each
/// output is a finalized mix of the state.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next() % n
    }
}

/// One generated arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRequest {
    /// Virtual arrival instant (ms).
    pub arrival_ms: u64,
    /// Index into the caller's workload (`query_idx % workload.len()`).
    pub query_idx: usize,
    /// Scheduling priority.
    pub priority: Priority,
    /// Absolute virtual deadline (arrival + relative deadline).
    pub deadline_ms: u64,
    /// Synthetic virtual service duration (ms) charged to a worker.
    pub service_ms: u64,
}

/// Open-loop generator knobs. "Open loop" means arrivals ignore
/// completions — exactly the regime where an unprotected system melts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadConfig {
    /// Schedule seed (the CI matrix variable).
    pub seed: u64,
    /// Number of arrivals to generate.
    pub requests: usize,
    /// Mean inter-arrival gap; gaps are uniform in `[0, 2·mean]`.
    pub mean_interarrival_ms: u64,
    /// Relative deadline carried by every request.
    pub deadline_ms: u64,
    /// Mean synthetic service time; durations are uniform in `[1, 2·mean]`.
    pub mean_service_ms: u64,
    /// Relative draw weights for Low/Normal/High priorities.
    pub priority_weights: [u32; 3],
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            requests: 400,
            mean_interarrival_ms: 2,
            deadline_ms: 120,
            mean_service_ms: 8,
            priority_weights: [1, 2, 1],
        }
    }
}

/// The generated arrival schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadPlan {
    /// Arrivals in nondecreasing `arrival_ms` order.
    pub requests: Vec<SimRequest>,
}

/// Generates the arrival schedule for a workload of `workload_len`
/// queries. Pure in `(cfg, workload_len)`.
pub fn generate_plan(cfg: &LoadConfig, workload_len: usize) -> LoadPlan {
    assert!(workload_len > 0, "workload must not be empty");
    assert!(cfg.mean_interarrival_ms > 0 && cfg.mean_service_ms > 0);
    let total_weight: u32 = cfg.priority_weights.iter().sum();
    assert!(total_weight > 0, "at least one priority must have weight");
    let mut rng = Rng(cfg.seed);
    let mut clock = 0u64;
    let mut requests = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        // Saturating throughout: extreme configured means/deadlines pin at
        // u64::MAX instead of wrapping a request's timeline into the past.
        let gap_span = cfg.mean_interarrival_ms.saturating_mul(2).saturating_add(1);
        clock = clock.saturating_add(rng.below(gap_span));
        let query_idx = rng.below(workload_len as u64) as usize;
        let mut pick = rng.below(u64::from(total_weight)) as u32;
        let mut priority = Priority::Low;
        for (i, &w) in cfg.priority_weights.iter().enumerate() {
            if pick < w {
                priority = Priority::ALL[i];
                break;
            }
            pick -= w;
        }
        let service_span = cfg.mean_service_ms.saturating_mul(2).saturating_sub(1);
        let service_ms = rng.below(service_span).saturating_add(1);
        requests.push(SimRequest {
            arrival_ms: clock,
            query_idx,
            priority,
            deadline_ms: clock.saturating_add(cfg.deadline_ms),
            service_ms,
        });
    }
    LoadPlan { requests }
}

// ---- The simulator ------------------------------------------------------

/// When the simulated server starts a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPlan {
    /// Virtual instant admission closes.
    pub at_ms: u64,
    /// How long after `at_ms` queued/in-flight work may still finish.
    pub deadline_ms: u64,
}

/// Simulator configuration: the serving policy plus an optional drain.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The serving-layer policy under test.
    pub serve: ServeConfig,
    /// Optional mid-run graceful drain.
    pub drain: Option<DrainPlan>,
}

/// The engine-level digest of one executed request.
#[derive(Debug, Clone, PartialEq)]
pub enum SimResult {
    /// The engine answered (exactly or typed-degraded).
    Ranked {
        /// The ranked users.
        users: Vec<RankedUser>,
        /// Exact or degraded-prefix.
        completeness: Completeness,
    },
    /// The engine failed typed; `domain` names the error class.
    Failed {
        /// `"storage"` or `"index"`.
        domain: &'static str,
    },
}

/// What finally happened to one generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Shed without engine work (at enqueue, or evicted after admission).
    Shed(Rejected),
    /// Admitted but found dead at dispatch: answered typed, not executed.
    ExpiredInQueue,
    /// Admitted, dispatched, and finished.
    Completed {
        /// Virtual dispatch instant.
        start_ms: u64,
        /// Virtual completion instant (`start + service`).
        end_ms: u64,
        /// The engine's answer.
        result: SimResult,
    },
    /// Admitted but still queued when the drain deadline hit.
    AbandonedQueued,
    /// Dispatched but still running at the drain deadline. (The engine
    /// call itself completed inside the simulator — only its *delivery*
    /// is abandoned, exactly like the threaded server.)
    AbandonedInFlight {
        /// Virtual dispatch instant.
        start_ms: u64,
    },
}

/// One request's record in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Admission ticket id, if the request was ever queued.
    pub ticket: Option<u64>,
    /// The final disposition.
    pub disposition: Disposition,
}

/// Drain accounting: every admitted-but-unfinished request, by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Tickets abandoned while still queued.
    pub abandoned_queued: Vec<u64>,
    /// Tickets abandoned mid-execution.
    pub abandoned_in_flight: Vec<u64>,
}

/// Everything a simulation run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-request outcomes, in arrival order (same length as the plan).
    pub outcomes: Vec<RequestOutcome>,
    /// Admission-queue counters.
    pub admission: AdmissionCounters,
    /// Arrivals shed because the server was draining.
    pub shed_shutdown: u64,
    /// Completed answers that were typed-degraded (budget-tightened).
    pub degraded: u64,
    /// Completed answers that failed typed in the engine.
    pub failed: u64,
    /// Completion latencies (virtual ms, completion − arrival).
    pub latencies_ms: Vec<u64>,
    /// Drain accounting, when a drain was configured.
    pub drain: Option<DrainReport>,
    /// End-of-run health snapshot.
    pub health: HealthReport,
    /// End-of-run registry snapshot: the engine's query/storage
    /// metrics plus the `tklus_serve_*` counters (empty engine side when
    /// the engine was built with metrics off).
    pub metrics: RegistrySnapshot,
}

impl SimReport {
    /// Completed request count.
    pub fn completed(&self) -> usize {
        self.latencies_ms.len()
    }

    /// A 64-bit digest of every disposition — two runs with the same
    /// inputs must produce equal fingerprints (and differing shed or
    /// ranking decisions virtually never collide).
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV offset, SplitMix finisher below
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01B3);
            h ^= h >> 29;
        };
        for (i, o) in self.outcomes.iter().enumerate() {
            mix(i as u64);
            mix(o.ticket.map_or(u64::MAX, |t| t));
            match &o.disposition {
                Disposition::Shed(r) => {
                    mix(1);
                    mix(match r {
                        Rejected::QueueFull { depth, estimated_wait_ms } => {
                            10 + *depth as u64 + estimated_wait_ms.wrapping_mul(31)
                        }
                        Rejected::DeadlineHopeless { estimated_wait_ms, .. } => {
                            1000 + estimated_wait_ms
                        }
                        Rejected::Evicted { by, estimated_wait_ms } => {
                            3000 + by.index() as u64 + estimated_wait_ms.wrapping_mul(31)
                        }
                        Rejected::ShuttingDown => 4000,
                        Rejected::ExpiredInQueue { waited_ms } => 5000 + waited_ms,
                    });
                }
                Disposition::ExpiredInQueue => mix(2),
                Disposition::Completed { start_ms, end_ms, result } => {
                    mix(3);
                    mix(*start_ms);
                    mix(*end_ms);
                    match result {
                        SimResult::Ranked { users, completeness } => {
                            match completeness {
                                Completeness::Complete => mix(5),
                                Completeness::Degraded { cells_processed, cells_total } => {
                                    mix(6);
                                    mix(*cells_processed as u64);
                                    mix(*cells_total as u64);
                                }
                            }
                            for u in users {
                                mix(u.user.0);
                                mix(u.score.to_bits());
                            }
                        }
                        SimResult::Failed { domain } => {
                            mix(7);
                            mix(domain.len() as u64);
                        }
                    }
                }
                Disposition::AbandonedQueued => mix(8),
                Disposition::AbandonedInFlight { start_ms } => {
                    mix(9);
                    mix(*start_ms);
                }
            }
        }
        h
    }
}

/// What the simulator queues per admitted request: the plan index and the
/// query to run (the scheduler may tighten its cell budget at dispatch).
struct SimJob {
    idx: usize,
    query: TklusQuery,
}

fn failure_domain(e: &EngineError) -> &'static str {
    match e {
        EngineError::Storage(_) => "storage",
        EngineError::Index(_) => "index",
    }
}

/// Runs the simulation: replays `plan` against `engine` under `cfg`.
/// Deterministic given `(engine construction, workload, plan, cfg)`.
pub fn run_sim(
    engine: &TklusEngine,
    workload: &[(TklusQuery, Ranking)],
    plan: &LoadPlan,
    cfg: &SimConfig,
) -> SimReport {
    assert!(!workload.is_empty(), "workload must not be empty");
    cfg.serve.validate().expect("valid serve config");
    let mut sched = Scheduler::new(&cfg.serve, |job: &mut SimJob| Some(&mut job.query));
    let mut workers_free_at = vec![0u64; cfg.serve.workers];
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; plan.requests.len()];
    let cutoff = cfg.drain.map(|d| d.at_ms.saturating_add(d.deadline_ms));
    let ticket_of = |outcomes: &[Option<RequestOutcome>], idx: usize| {
        outcomes[idx].as_ref().and_then(|o| o.ticket)
    };

    // Dispatches every queued entry whose start instant falls strictly
    // before `limit` (and at or before the drain cutoff). The engine runs
    // at the dispatch; the worker is charged the plan's service time
    // whatever the engine answered, so a fault changes no schedule.
    let dispatch_until = |limit: u64,
                          sched: &mut Scheduler<SimJob>,
                          workers_free_at: &mut [u64],
                          outcomes: &mut [Option<RequestOutcome>]| {
        while sched.depth() > 0 {
            let (wi, free_at) = workers_free_at
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(i, t)| (t, i))
                .expect("at least one worker");
            if free_at >= limit || cutoff.is_some_and(|c| free_at > c) {
                return; // past the cutoff, drain finalization abandons the rest
            }
            let entry = match sched.dispatch(free_at) {
                None => return,
                Some(Err((job, _))) => {
                    let ticket = ticket_of(outcomes, job.idx);
                    outcomes[job.idx] =
                        Some(RequestOutcome { ticket, disposition: Disposition::ExpiredInQueue });
                    continue;
                }
                Some(Ok(entry)) => entry,
            };
            let idx = entry.payload.idx;
            let req = &plan.requests[idx];
            // A worker idle since before the entry arrived starts it at
            // its arrival instant, not in the past.
            let start = free_at.max(entry.arrival_ms);
            let ranking = workload[req.query_idx % workload.len()].1;
            let result = engine.try_query(&entry.payload.query, ranking);
            sched.complete(result.as_ref());
            let result = match result {
                Ok(outcome) => {
                    SimResult::Ranked { users: outcome.users, completeness: outcome.completeness }
                }
                Err(e) => SimResult::Failed { domain: failure_domain(&e) },
            };
            let end = start.saturating_add(req.service_ms.max(1));
            workers_free_at[wi] = end;
            outcomes[idx] = Some(RequestOutcome {
                ticket: ticket_of(outcomes, idx),
                disposition: Disposition::Completed { start_ms: start, end_ms: end, result },
            });
        }
    };

    for (idx, req) in plan.requests.iter().enumerate() {
        let now = req.arrival_ms;
        dispatch_until(now, &mut sched, &mut workers_free_at, &mut outcomes);
        if cfg.drain.is_some_and(|d| now >= d.at_ms) {
            sched.begin_drain();
        }
        let busy = workers_free_at.iter().filter(|&&t| t > now).count();
        let query = workload[req.query_idx % workload.len()].0.clone();
        let outcome =
            match sched.admit(now, req.priority, req.deadline_ms, busy, SimJob { idx, query }) {
                Ok((id, evicted)) => {
                    if let Some((victim, reason)) = evicted {
                        outcomes[victim.idx] = Some(RequestOutcome {
                            ticket: ticket_of(&outcomes, victim.idx),
                            disposition: Disposition::Shed(reason),
                        });
                    }
                    // Placeholder until dispatch or the drain decides; it is
                    // the only state that can survive to the end untouched.
                    RequestOutcome { ticket: Some(id), disposition: Disposition::AbandonedQueued }
                }
                Err(reason) => {
                    RequestOutcome { ticket: None, disposition: Disposition::Shed(reason) }
                }
            };
        outcomes[idx] = Some(outcome);
    }

    // Everything still queued after the last arrival runs to completion —
    // or up to the drain cutoff.
    dispatch_until(u64::MAX, &mut sched, &mut workers_free_at, &mut outcomes);

    // Drain finalization: queued leftovers are abandoned by name, and
    // anything whose completion lands past the cutoff was in flight at
    // the deadline — delivered as abandoned, never silently dropped.
    let mut drain_report = None;
    if let Some(cutoff) = cutoff {
        sched.begin_drain();
        let mut report = DrainReport::default();
        for entry in sched.abandon_all() {
            report.abandoned_queued.push(entry.id);
            outcomes[entry.payload.idx] = Some(RequestOutcome {
                ticket: Some(entry.id),
                disposition: Disposition::AbandonedQueued,
            });
        }
        for slot in outcomes.iter_mut().flatten() {
            if let Disposition::Completed { start_ms, end_ms, .. } = slot.disposition {
                if end_ms > cutoff {
                    report
                        .abandoned_in_flight
                        .push(slot.ticket.expect("completed implies admitted"));
                    slot.disposition = Disposition::AbandonedInFlight { start_ms };
                }
            }
        }
        report.abandoned_queued.sort_unstable();
        report.abandoned_in_flight.sort_unstable();
        drain_report = Some(report);
    }

    let outcomes: Vec<RequestOutcome> =
        outcomes.into_iter().map(|o| o.expect("every request got a disposition")).collect();
    let latencies_ms: Vec<u64> = plan
        .requests
        .iter()
        .zip(&outcomes)
        .filter_map(|(req, o)| match o.disposition {
            Disposition::Completed { end_ms, .. } => Some(end_ms - req.arrival_ms),
            _ => None,
        })
        .collect();

    let snapshot = sched.snapshot(0);
    SimReport {
        outcomes,
        admission: sched.counters(),
        shed_shutdown: snapshot.shed_shutdown,
        degraded: snapshot.degraded,
        failed: snapshot.failed,
        latencies_ms,
        drain: drain_report,
        health: sched.health(0),
        metrics: sched.metrics(engine.metrics_snapshot().unwrap_or_default(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_generation_is_deterministic_and_ordered() {
        let cfg = LoadConfig::default();
        let a = generate_plan(&cfg, 7);
        let b = generate_plan(&cfg, 7);
        assert_eq!(a, b);
        assert!(a.requests.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert!(a.requests.iter().all(|r| r.query_idx < 7));
        assert!(a.requests.iter().all(|r| r.service_ms >= 1));
        assert!(a.requests.iter().all(|r| r.deadline_ms == r.arrival_ms + cfg.deadline_ms));
        // A different seed moves the schedule.
        let c = generate_plan(&LoadConfig { seed: 2, ..cfg }, 7);
        assert_ne!(a, c);
    }

    #[test]
    fn priority_weights_cover_all_classes() {
        let plan = generate_plan(&LoadConfig { requests: 300, ..LoadConfig::default() }, 3);
        for p in Priority::ALL {
            assert!(
                plan.requests.iter().any(|r| r.priority == p),
                "priority {p} never drawn in 300 requests"
            );
        }
    }
}
