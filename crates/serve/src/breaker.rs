//! Circuit breakers around the engine's failure domains (DESIGN.md §11).
//!
//! One [`CircuitBreaker`] guards each of PR 3's engine error classes
//! (`EngineError::Storage`, `EngineError::Index`). The state machine is
//! the classic three-state one:
//!
//! ```text
//!            failures ≥ threshold in window
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                      │ backoff elapses
//!     │ half_open_probes successes           ▼
//!     └───────────────────────────────── HalfOpen
//!                 probe failure: reopen, backoff ×2 (≤ max)
//! ```
//!
//! While open, the serving layer sheds matching work at admission with
//! [`crate::Rejected::CircuitOpen`] — a corrupt partition or flaky pager
//! fails fast instead of retry-storming the storage stack. Backoff
//! between probe rounds grows exponentially but is bounded by
//! `max_backoff_ms`, so recovery probing never stops entirely.
//!
//! Half-open probes are consumed at *admission* (so an open breaker
//! sheds instantly, without queueing doomed work), which means a probe
//! can die between admission and execution — evicted by a higher
//! priority, expired in the queue, or abandoned by a drain. Each
//! admission therefore carries a [`ProbeGrant`] receipt; a grant whose
//! request never reaches the engine must be handed back via
//! [`BreakerPanel::release`] so the probe budget frees up again.
//! Without that refund the breaker would wedge: all probes spent, no
//! outcome ever recorded, every future request shed — a permanent
//! outage in exactly the overload+fault regime this layer exists for.
//!
//! Like the admission queue, the breaker is a pure state machine over
//! caller-supplied millisecond timestamps: the threaded server feeds it
//! wall-clock time, the simulator virtual time, and every transition is
//! recorded with its timestamp so tests can assert the exact trajectory.

use tklus_core::EngineError;

/// Breaker tuning. Defaults suit the chaos-scale workloads in this repo;
/// real deployments would widen the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Rolling window length, in recorded outcomes.
    pub window: usize,
    /// Failures within the window that trip the breaker.
    pub failure_threshold: usize,
    /// Backoff before the first half-open probe round.
    pub base_backoff_ms: u64,
    /// Backoff ceiling (bounded exponential).
    pub max_backoff_ms: u64,
    /// Consecutive probe successes required to close again.
    pub half_open_probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 32,
            failure_threshold: 8,
            base_backoff_ms: 100,
            max_backoff_ms: 3_200,
            half_open_probes: 2,
        }
    }
}

impl BreakerConfig {
    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("breaker window must be at least 1".into());
        }
        if self.failure_threshold == 0 || self.failure_threshold > self.window {
            return Err("failure threshold must be in 1..=window".into());
        }
        if self.base_backoff_ms == 0 || self.max_backoff_ms < self.base_backoff_ms {
            return Err("backoff must satisfy 0 < base <= max".into());
        }
        if self.half_open_probes == 0 {
            return Err("half-open probes must be at least 1".into());
        }
        Ok(())
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes feed the rolling window.
    Closed,
    /// Failing fast; matching admissions are shed.
    Open,
    /// Letting a bounded number of probes through to test recovery.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// A three-state circuit breaker with a rolling failure window, half-open
/// probing, and bounded exponential backoff.
#[derive(Debug)]
pub struct CircuitBreaker {
    name: &'static str,
    cfg: BreakerConfig,
    state: BreakerState,
    /// Rolling outcome window, `true` = failure. Only fed while closed.
    window: std::collections::VecDeque<bool>,
    failures_in_window: usize,
    opened_at_ms: u64,
    backoff_ms: u64,
    probes_granted: usize,
    probe_successes: usize,
    transitions: Vec<(u64, BreakerState)>,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker named for the failure domain it guards.
    pub fn new(name: &'static str, cfg: BreakerConfig) -> Self {
        Self {
            name,
            cfg,
            state: BreakerState::Closed,
            window: std::collections::VecDeque::with_capacity(cfg.window),
            failures_in_window: 0,
            opened_at_ms: 0,
            backoff_ms: cfg.base_backoff_ms,
            probes_granted: 0,
            probe_successes: 0,
            transitions: Vec::new(),
            trips: 0,
        }
    }

    /// The guarded failure domain's name (`"storage"` or `"index"`).
    pub fn name(&self) -> &str {
        self.name
    }

    /// Current state (without advancing the clock — an open breaker past
    /// its backoff still reads `Open` until [`Self::allow`] probes it).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped open (from closed or a failed probe).
    pub fn trip_count(&self) -> u64 {
        self.trips
    }

    /// Every `(timestamp, new_state)` transition, in order.
    pub fn transitions(&self) -> &[(u64, BreakerState)] {
        &self.transitions
    }

    /// When the current backoff ends. Saturating: a backoff pushed toward
    /// `u64::MAX` pins the retry time at the far future instead of
    /// wrapping into the past and misreading the breaker as retryable.
    fn backoff_ends_ms(&self) -> u64 {
        self.opened_at_ms.saturating_add(self.backoff_ms)
    }

    /// Milliseconds until the next probe round may start (0 unless open).
    pub fn retry_in_ms(&self, now_ms: u64) -> u64 {
        match self.state {
            BreakerState::Open => self.backoff_ends_ms().saturating_sub(now_ms),
            _ => 0,
        }
    }

    /// Whether [`Self::allow`] would grant a request at `now_ms`, without
    /// consuming a probe or transitioning. Lets a caller consult several
    /// breakers and only commit when all of them agree.
    pub fn would_allow(&self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => now_ms >= self.backoff_ends_ms(),
            BreakerState::HalfOpen => self.probes_granted < self.cfg.half_open_probes,
        }
    }

    /// Whether a request may proceed at `now_ms`. An open breaker whose
    /// backoff has elapsed flips to half-open and grants the request as a
    /// probe; a half-open breaker grants up to `half_open_probes` probes
    /// per round.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        self.try_grant(now_ms).is_some()
    }

    /// Like [`Self::allow`], but reports *how* the request was granted:
    /// `Some(true)` consumed a half-open probe (the caller owes the
    /// breaker an outcome, or a [`Self::return_probe`] refund if the
    /// request dies unexecuted), `Some(false)` is closed-state
    /// passthrough, `None` is a fail-fast denial.
    pub fn try_grant(&mut self, now_ms: u64) -> Option<bool> {
        match self.state {
            BreakerState::Closed => Some(false),
            BreakerState::Open => {
                if now_ms >= self.backoff_ends_ms() {
                    self.transition(BreakerState::HalfOpen, now_ms);
                    self.probes_granted = 1;
                    self.probe_successes = 0;
                    Some(true)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_granted < self.cfg.half_open_probes {
                    self.probes_granted += 1;
                    Some(true)
                } else {
                    None
                }
            }
        }
    }

    /// Refunds a half-open probe whose request died without executing
    /// (evicted, expired in the queue, or abandoned by a drain), so the
    /// probe budget reopens for live traffic instead of wedging the
    /// breaker half-open forever with all probes spent and no outcome
    /// ever coming. A no-op unless the breaker is still half-open with
    /// an outstanding (granted-but-unresolved) probe — a refund that
    /// arrives after the round already closed or re-opened is stale and
    /// ignored.
    pub fn return_probe(&mut self) {
        if self.state == BreakerState::HalfOpen && self.probes_granted > self.probe_successes {
            self.probes_granted -= 1;
        }
    }

    /// Records a success for this failure domain.
    pub fn record_success(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed => self.push_outcome(false),
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.cfg.half_open_probes {
                    // Recovered: close, reset the window and the backoff.
                    self.window.clear();
                    self.failures_in_window = 0;
                    self.backoff_ms = self.cfg.base_backoff_ms;
                    self.transition(BreakerState::Closed, now_ms);
                }
            }
            // A straggler completing after the trip: the window restarts
            // from scratch when the breaker closes again.
            BreakerState::Open => {}
        }
    }

    /// Records a failure for this failure domain.
    pub fn record_failure(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed => {
                self.push_outcome(true);
                if self.failures_in_window >= self.cfg.failure_threshold {
                    self.backoff_ms = self.cfg.base_backoff_ms;
                    self.trip(now_ms);
                }
            }
            BreakerState::HalfOpen => {
                // Failed probe: reopen with doubled (bounded) backoff.
                self.backoff_ms = self.backoff_ms.saturating_mul(2).min(self.cfg.max_backoff_ms);
                self.trip(now_ms);
            }
            BreakerState::Open => {}
        }
    }

    fn push_outcome(&mut self, failure: bool) {
        if self.window.len() == self.cfg.window && self.window.pop_front() == Some(true) {
            self.failures_in_window -= 1;
        }
        self.window.push_back(failure);
        if failure {
            self.failures_in_window += 1;
        }
    }

    fn trip(&mut self, now_ms: u64) {
        self.opened_at_ms = now_ms;
        self.trips += 1;
        self.transition(BreakerState::Open, now_ms);
    }

    fn transition(&mut self, to: BreakerState, now_ms: u64) {
        self.state = to;
        self.transitions.push((now_ms, to));
    }
}

/// Receipt for one admission through the panel: which breakers spent a
/// half-open probe on it. Rides with the queued request; if the request
/// dies before executing, hand the receipt back via
/// [`BreakerPanel::release`]. A request admitted through closed breakers
/// holds no probes and its receipt is inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeGrant {
    /// The storage breaker granted this request as a probe.
    pub storage: bool,
    /// The index breaker granted this request as a probe.
    pub index: bool,
}

/// The serving layer's pair of breakers, one per engine failure domain
/// (PR 3's [`EngineError::Storage`] / [`EngineError::Index`] classes).
///
/// Outcome routing: a successful query is evidence both domains work (it
/// touched the metadata store and the index), so it feeds both windows; a
/// typed failure feeds only the breaker of the failing domain — a corrupt
/// metadata partition says nothing about the inverted index's health.
#[derive(Debug)]
pub struct BreakerPanel {
    /// Guards `EngineError::Storage`.
    pub storage: CircuitBreaker,
    /// Guards `EngineError::Index`.
    pub index: CircuitBreaker,
}

impl BreakerPanel {
    /// A panel of two closed breakers with the same tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            storage: CircuitBreaker::new("storage", cfg),
            index: CircuitBreaker::new("index", cfg),
        }
    }

    /// Admission-time gate: `Ok` grants the request through every breaker
    /// (consuming half-open probes) and returns the [`ProbeGrant`]
    /// receipt to queue alongside it; `Err` names the first breaker that
    /// is failing fast. Probes are only consumed when *all* breakers
    /// agree, so a denied request never burns another domain's probe.
    pub fn check(&mut self, now_ms: u64) -> Result<ProbeGrant, &'static str> {
        if !self.storage.would_allow(now_ms) {
            return Err("storage");
        }
        if !self.index.would_allow(now_ms) {
            return Err("index");
        }
        let storage = self.storage.try_grant(now_ms);
        let index = self.index.try_grant(now_ms);
        debug_assert!(storage.is_some() && index.is_some(), "would_allow and try_grant agree");
        Ok(ProbeGrant { storage: storage.unwrap_or(false), index: index.unwrap_or(false) })
    }

    /// Refunds the probes an admitted request held when it died without
    /// executing (evicted, expired in the queue, abandoned by a drain) —
    /// see [`CircuitBreaker::return_probe`]. Call exactly once per dead
    /// admission; grants from executed requests are settled by
    /// [`Self::record`] instead. `None` is work that skipped the gate
    /// (ingest).
    pub fn release(&mut self, grant: Option<ProbeGrant>) {
        let Some(grant) = grant else { return };
        if grant.storage {
            self.storage.return_probe();
        }
        if grant.index {
            self.index.return_probe();
        }
    }

    /// Feeds one completed query's outcome to the panel.
    pub fn record(&mut self, now_ms: u64, outcome: Result<(), &EngineError>) {
        match outcome {
            Ok(()) => {
                self.storage.record_success(now_ms);
                self.index.record_success(now_ms);
            }
            Err(EngineError::Storage(_)) => self.storage.record_failure(now_ms),
            Err(EngineError::Index(_)) => self.index.record_failure(now_ms),
        }
    }

    /// Total trips across both breakers.
    pub fn trip_count(&self) -> u64 {
        self.storage.trip_count() + self.index.trip_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            "storage",
            BreakerConfig {
                window: 8,
                failure_threshold: 4,
                base_backoff_ms: 100,
                max_backoff_ms: 400,
                half_open_probes: 2,
            },
        )
    }

    #[test]
    fn trips_after_threshold_failures_in_window() {
        let mut b = breaker();
        for i in 0..3 {
            b.record_failure(i);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        b.record_failure(3);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trip_count(), 1);
        assert!(!b.allow(4), "open breaker fails fast");
        assert_eq!(b.retry_in_ms(4), 99);
    }

    #[test]
    fn rolling_window_forgets_old_failures() {
        let mut b = breaker();
        // 3 failures, then a long run of successes pushes them out of the
        // 8-outcome window; 1 more failure must not trip.
        for i in 0..3 {
            b.record_failure(i);
        }
        for i in 3..11 {
            b.record_success(i);
        }
        b.record_failure(11);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probes_close_on_success() {
        let mut b = breaker();
        for i in 0..4 {
            b.record_failure(i);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(50), "backoff not elapsed");
        assert!(b.allow(104), "backoff elapsed: first probe granted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow(105), "second probe granted");
        assert!(!b.allow(106), "probe budget spent");
        b.record_success(110);
        assert_eq!(b.state(), BreakerState::HalfOpen, "one success is not enough");
        b.record_success(111);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(112));
        // The trajectory is recorded.
        let states: Vec<_> = b.transitions().iter().map(|&(_, s)| s).collect();
        assert_eq!(states, vec![BreakerState::Open, BreakerState::HalfOpen, BreakerState::Closed]);
    }

    #[test]
    fn failed_probe_reopens_with_bounded_exponential_backoff() {
        let mut b = breaker();
        for i in 0..4 {
            b.record_failure(i);
        }
        // Tripped at t=3 with base backoff 100: probes open at t=103.
        assert!(!b.allow(102));
        assert!(b.allow(103));
        // Round 1 fails -> reopen at 104, backoff 200.
        b.record_failure(104);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(303));
        assert!(b.allow(304));
        // Round 2 fails -> reopen at 305, backoff 400.
        b.record_failure(305);
        assert!(!b.allow(704));
        assert!(b.allow(705));
        // Round 3 fails -> backoff stays 400 (the bound).
        b.record_failure(706);
        assert_eq!(b.retry_in_ms(706), 400);
        assert_eq!(b.trip_count(), 4);
        // Recovery resets the backoff to base.
        assert!(b.allow(1106));
        b.record_success(1107);
        assert!(b.allow(1107));
        b.record_success(1108);
        assert_eq!(b.state(), BreakerState::Closed);
        for i in 0..4 {
            b.record_failure(2000 + i);
        }
        assert_eq!(b.retry_in_ms(2003), 100, "backoff reset to base after recovery");
    }

    #[test]
    fn returned_probe_reopens_the_budget_instead_of_wedging_half_open() {
        let mut b = breaker();
        for i in 0..4 {
            b.record_failure(i);
        }
        // Both probes of the half-open round are granted, then die
        // unexecuted (shed post-admission). Without the refund the
        // breaker would deny traffic forever.
        assert!(b.allow(104));
        assert!(b.allow(105));
        assert!(!b.would_allow(106), "probe budget spent");
        b.return_probe();
        b.return_probe();
        assert!(b.would_allow(107), "refunded probes re-arm the round");
        assert!(b.allow(107));
        b.record_success(108);
        assert!(b.allow(109));
        b.record_success(110);
        assert_eq!(b.state(), BreakerState::Closed, "recovery still possible");
    }

    #[test]
    fn probe_refund_never_revokes_recorded_successes() {
        let mut b = breaker();
        for i in 0..4 {
            b.record_failure(i);
        }
        assert!(b.allow(104));
        b.record_success(105);
        // Only one probe outstanding was granted and it already resolved:
        // further refunds are stale and must not free phantom probes
        // beyond the recorded successes.
        b.return_probe();
        b.return_probe();
        assert!(b.allow(106), "second probe of the round");
        assert!(!b.allow(107), "budget is still bounded by half_open_probes");
    }

    #[test]
    fn stale_refund_after_close_or_reopen_is_ignored() {
        let mut b = breaker();
        for i in 0..4 {
            b.record_failure(i);
        }
        assert!(b.allow(104));
        b.record_failure(105); // reopen: old round's grants are dead
        b.return_probe();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(106), "refund must not pierce the open backoff");
    }

    #[test]
    fn panel_grants_track_probe_consumption_and_release() {
        let cfg = BreakerConfig {
            window: 8,
            failure_threshold: 2,
            base_backoff_ms: 100,
            max_backoff_ms: 400,
            half_open_probes: 1,
        };
        let mut panel = BreakerPanel::new(cfg);
        let grant = panel.check(0).expect("closed panel admits");
        assert_eq!(grant, ProbeGrant::default(), "closed-state passthrough holds no probes");
        let storage_err = || {
            EngineError::Storage(tklus_storage::StorageError::Io {
                op: "read",
                page: None,
                source: std::io::Error::other("injected"),
            })
        };
        panel.record(1, Err(&storage_err()));
        panel.record(2, Err(&storage_err()));
        assert_eq!(panel.storage.state(), BreakerState::Open);
        assert!(panel.check(3).is_err(), "open storage breaker sheds");
        let grant = panel.check(103).expect("backoff elapsed: probe granted");
        assert!(grant.storage && !grant.index, "only the half-open breaker spent a probe");
        assert!(panel.check(104).is_err(), "probe budget spent");
        // The probe dies unexecuted; releasing it un-wedges the panel.
        panel.release(Some(grant));
        let again = panel.check(105).expect("released probe re-granted");
        assert!(again.storage);
        panel.record(106, Ok(()));
        assert_eq!(panel.storage.state(), BreakerState::Closed, "recovered");
    }

    #[test]
    fn config_validation_catches_nonsense() {
        assert!(BreakerConfig::default().validate().is_ok());
        assert!(BreakerConfig { window: 0, ..BreakerConfig::default() }.validate().is_err());
        assert!(BreakerConfig { failure_threshold: 0, ..BreakerConfig::default() }
            .validate()
            .is_err());
        assert!(BreakerConfig { failure_threshold: 33, ..BreakerConfig::default() }
            .validate()
            .is_err());
        assert!(BreakerConfig { base_backoff_ms: 0, ..BreakerConfig::default() }
            .validate()
            .is_err());
        assert!(BreakerConfig { max_backoff_ms: 1, ..BreakerConfig::default() }
            .validate()
            .is_err());
        assert!(BreakerConfig { half_open_probes: 0, ..BreakerConfig::default() }
            .validate()
            .is_err());
    }
}
