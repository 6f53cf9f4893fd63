//! Property tests for the serving layer's clock arithmetic (ISSUE
//! satellite: the u64-overflow class the PR 4 review caught in
//! `submit()`). Extreme `now_ms`/deadline values must flow through
//! admission, queue expiry and plan generation without panicking — and, the subtler failure, without *misclassifying*
//! a viable request as an instant shed because an addition wrapped.
//!
//! The last property drives the [`Scheduler`] alone, with no engine:
//! whatever the interleaving of admissions, dispatches, completions and
//! drains, every admitted ticket ends exactly once.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tklus_core::{Completeness, EngineError, QueryOutcome, QueryStats};
use tklus_geo::Point;
use tklus_model::{Priority, Semantics, TklusQuery};
use tklus_serve::sim::{generate_plan, LoadConfig};
use tklus_serve::{
    AdmissionQueue, AdmitResult, DegradePolicy, Popped, Rejected, Scheduler, ServeConfig,
};

/// Values dense near the overflow boundary, plus the ordinary range.
fn extreme_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(u64::MAX / 2),
        any::<u64>(),
        0u64..1_000_000,
    ]
}

/// Like [`extreme_u64`], but valid as a service estimate (the queue
/// asserts `est_service_ms > 0`, normally enforced by `ServeConfig`).
fn extreme_service_ms() -> impl Strategy<Value = u64> {
    extreme_u64().prop_map(|v| v.max(1))
}

fn priority() -> impl Strategy<Value = Priority> {
    prop_oneof![Just(Priority::Low), Just(Priority::Normal), Just(Priority::High)]
}

/// One step of a scheduler history.
#[derive(Debug, Clone)]
enum Op {
    Admit {
        priority: Priority,
        deadline_in_ms: u64,
    },
    Dispatch,
    /// Completes the oldest in-flight query, successfully or with a
    /// storage failure.
    Complete {
        ok: bool,
    },
    AbandonAll,
}

/// A clock step (0–14 ms, so deadlines lapse mid-history) and an op: admit 3 in 10, dispatch 3 in 10, complete 3 in 10, abandon-all 1
/// in 10.
fn step() -> impl Strategy<Value = (u64, Op)> {
    (0u64..15, 0u8..10, priority(), 0u64..40, any::<bool>()).prop_map(
        |(dt, pick, priority, deadline_in_ms, ok)| {
            let op = match pick {
                0..=2 => Op::Admit { priority, deadline_in_ms },
                3..=5 => Op::Dispatch,
                6..=8 => Op::Complete { ok },
                _ => Op::AbandonAll,
            };
            (dt, op)
        },
    )
}

fn query() -> TklusQuery {
    TklusQuery::new(
        Point::new_unchecked(43.68, -79.37),
        5.0,
        vec!["hotel".into()],
        5,
        Semantics::Or,
    )
    .expect("valid query")
}

fn outcome(ok: bool) -> Result<QueryOutcome, EngineError> {
    if ok {
        Ok(QueryOutcome {
            users: Vec::new(),
            stats: QueryStats::default(),
            completeness: Completeness::Complete,
        })
    } else {
        Err(EngineError::Storage(tklus_storage::StorageError::Io {
            op: "read",
            page: None,
            source: std::io::Error::other("injected"),
        }))
    }
}

/// Records that the request tagged `tag` ended `how`; a second end fails.
fn end(
    ended: &mut BTreeMap<usize, &'static str>,
    tag: usize,
    how: &'static str,
) -> Result<(), TestCaseError> {
    let before = ended.insert(tag, how);
    prop_assert!(before.is_none(), "request {tag} ended twice: {before:?} then {how}");
    Ok(())
}

proptest! {
    /// Admission at any clock/deadline/estimate combination: no panic,
    /// and — the misclassification guard — an arrival into an empty,
    /// idle queue whose deadline has not already passed is ALWAYS
    /// admitted, even at `deadline_ms == u64::MAX` where the naive
    /// `now + wait > deadline` comparison would wrap.
    #[test]
    fn empty_idle_queue_admits_any_live_deadline(
        now_ms in extreme_u64(),
        deadline_ms in extreme_u64(),
        est_service_ms in extreme_service_ms(),
        p in priority(),
    ) {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(4, 2, est_service_ms);
        let result = q.try_admit(now_ms, p, deadline_ms, 7, 0);
        if deadline_ms >= now_ms {
            prop_assert!(
                matches!(result, AdmitResult::Admitted { .. }),
                "live deadline shed at now={now_ms} deadline={deadline_ms}: {result:?}"
            );
        } else {
            // An already-passed deadline is a legitimate instant shed.
            prop_assert!(matches!(result, AdmitResult::Shed { .. }));
        }
    }

    /// With workers busy the wait estimate engages; whatever the
    /// decision, the counters must classify it consistently and the
    /// queue must stay within capacity. No arithmetic panics anywhere.
    #[test]
    fn loaded_admission_classifies_consistently(
        now_ms in extreme_u64(),
        deadlines in proptest::collection::vec(extreme_u64(), 1..24),
        est_service_ms in extreme_service_ms(),
        busy in 0usize..8,
        p in priority(),
    ) {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(4, 2, est_service_ms);
        for (i, &deadline) in deadlines.iter().enumerate() {
            let _ = q.try_admit(now_ms, p, deadline, i as u32, busy);
            prop_assert!(q.depth() <= q.capacity());
        }
        // Every arrival lands in exactly one admission-time class
        // (evictions strike entries that were already counted admitted).
        let c = q.counters();
        prop_assert_eq!(c.admitted + c.shed_queue_full + c.shed_deadline, deadlines.len() as u64);
        // The published wait estimate itself must not overflow-panic.
        let _ = q.estimated_wait_ms(p, busy);
    }

    /// Queue expiry at dispatch is exact under extreme clocks: an entry
    /// pops `Expired` iff its deadline lies strictly before the dispatch
    /// instant.
    #[test]
    fn expiry_classification_is_exact(
        admit_ms in extreme_u64(),
        deadline_ms in extreme_u64(),
        pop_ms in extreme_u64(),
    ) {
        prop_assume!(deadline_ms >= admit_ms); // otherwise shed at admit
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(4, 2, 1);
        let admitted = q.try_admit(admit_ms, Priority::Normal, deadline_ms, 1, 0);
        prop_assert!(matches!(admitted, AdmitResult::Admitted { .. }));
        match q.pop_next(pop_ms) {
            Some(Popped::Expired(e)) => prop_assert!(e.deadline_ms < pop_ms),
            Some(Popped::Ready(e)) => prop_assert!(e.deadline_ms >= pop_ms),
            None => prop_assert!(false, "admitted entry vanished"),
        }
    }

    /// Load-plan generation with extreme means/deadlines: timelines
    /// saturate instead of wrapping, so arrivals stay monotone and every
    /// deadline is at or after its arrival.
    #[test]
    fn generate_plan_saturates_extreme_configs(
        seed in any::<u64>(),
        mean_interarrival_ms in extreme_u64(),
        mean_service_ms in extreme_u64(),
        deadline_ms in extreme_u64(),
    ) {
        prop_assume!(mean_interarrival_ms > 0 && mean_service_ms > 0);
        let cfg = LoadConfig {
            seed,
            requests: 32,
            mean_interarrival_ms,
            deadline_ms,
            mean_service_ms,
            priority_weights: [1, 2, 1],
        };
        let plan = generate_plan(&cfg, 5);
        prop_assert!(plan.requests.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        for r in &plan.requests {
            prop_assert!(r.service_ms >= 1);
            prop_assert!(r.deadline_ms >= r.arrival_ms);
            prop_assert_eq!(r.deadline_ms, r.arrival_ms.saturating_add(cfg.deadline_ms));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The scheduler conserves tickets. Over arbitrary interleavings of
    /// admit, dispatch, complete (ok or failed) and abandon-all, on a
    /// monotone clock: once in-flight work completes and the rest is
    /// abandoned, every admitted ticket ended exactly once (completed,
    /// expired, evicted or abandoned) and the counters agree.
    #[test]
    fn scheduler_conserves_tickets(steps in proptest::collection::vec(step(), 1..120)) {
        let cfg = ServeConfig {
            workers: 2,
            queue_capacity: 3,
            default_deadline_ms: 20,
            est_service_ms: 4,
            degrade: Some(DegradePolicy { queue_threshold: 2, max_cells: 1 }),
        };
        let mut sched: Scheduler<(usize, TklusQuery)> =
            Scheduler::new(&cfg, |job| Some(&mut job.1));
        let mut now = 0u64;
        let mut tickets = BTreeMap::new();
        let mut ended = BTreeMap::new();
        let mut in_flight = std::collections::VecDeque::new();
        let mut failures = 0u64;
        for (tag, (dt, op)) in steps.into_iter().enumerate() {
            now += dt;
            match op {
                Op::Admit { priority, deadline_in_ms } => {
                    let job = (tag, query());
                    let busy = in_flight.len();
                    if let Ok((id, victim)) = sched.admit(now, priority, now + deadline_in_ms, busy, job) {
                        tickets.insert(tag, id);
                        if let Some(((victim, _), reason)) = victim {
                            prop_assert!(matches!(reason, Rejected::Evicted { .. }), "{reason:?}");
                            end(&mut ended, victim, "evicted")?;
                        }
                    }
                }
                Op::Dispatch => match sched.dispatch(now) {
                    None => {}
                    Some(Ok(entry)) => in_flight.push_back(entry.payload.0),
                    Some(Err(((tag, _), reason))) => {
                        prop_assert!(matches!(reason, Rejected::ExpiredInQueue { .. }), "{reason:?}");
                        end(&mut ended, tag, "expired")?;
                    }
                },
                Op::Complete { ok } => {
                    if let Some(tag) = in_flight.pop_front() {
                        failures += u64::from(!ok);
                        sched.complete(outcome(ok).as_ref());
                        end(&mut ended, tag, "completed")?;
                    }
                }
                Op::AbandonAll => {
                    for entry in sched.abandon_all() {
                        end(&mut ended, entry.payload.0, "abandoned")?;
                    }
                }
            }
        }
        for tag in in_flight.drain(..) {
            sched.complete(outcome(true).as_ref());
            end(&mut ended, tag, "completed")?;
        }
        for entry in sched.abandon_all() {
            end(&mut ended, entry.payload.0, "abandoned")?;
        }

        prop_assert!(ended.keys().eq(tickets.keys()), "ended {ended:?} vs admitted {tickets:?}");
        let ids: std::collections::BTreeSet<u64> = tickets.values().copied().collect();
        prop_assert_eq!(ids.len(), tickets.len(), "ticket ids are unique");
        let count = |how: &str| ended.values().filter(|&&h| h == how).count() as u64;
        let c = sched.counters();
        prop_assert_eq!(c.admitted, tickets.len() as u64);
        prop_assert_eq!(c.shed_evicted, count("evicted"));
        prop_assert_eq!(c.expired_at_dispatch, count("expired"));
        let health = sched.health(0);
        prop_assert_eq!(health.gauge_value("completed"), Some(count("completed") as f64));
        prop_assert_eq!(health.gauge_value("queue_depth"), Some(0.0));

        prop_assert_eq!(health.gauge_value("failed"), Some(failures as f64));

        // However many queries failed, an arrival into the empty, idle
        // queue is admitted: a failure is its own query's answer.
        let late = sched.admit(now, Priority::Low, u64::MAX, 0, (usize::MAX, query()));
        prop_assert!(late.is_ok(), "after {failures} failures: {late:?}");
    }
}
