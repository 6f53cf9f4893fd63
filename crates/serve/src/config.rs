//! Serving-layer configuration (DESIGN.md §11).

/// When (and how) the server trades completeness for latency instead of
/// rejecting outright: once the admission queue holds at least
/// `queue_threshold` entries, every query dispatched while the pressure
/// lasts has its budget tightened to at most `max_cells` cover cells, so
/// the engine returns a typed `Completeness::Degraded` exact prefix
/// rather than timing out or being shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Queue depth at or above which dispatches degrade.
    pub queue_threshold: usize,
    /// The cover-cell cap applied under pressure (merged with any
    /// stricter client budget via `QueryBudget::tighten_max_cells`).
    pub max_cells: usize,
}

/// Configuration of the overload-resilient serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Run slots (the concurrency limit): at most this many admitted
    /// requests execute at once, each on a thread that waits on a ticket.
    pub workers: usize,
    /// Bounded admission-queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline, from *arrival*, applied to requests that do not carry
    /// their own. Queueing time counts against it.
    pub default_deadline_ms: u64,
    /// A priori estimate of one query's service time, used by the
    /// hopeless-deadline check at enqueue (a deliberately crude, fully
    /// deterministic model: estimated wait = ceil(work ahead / workers) ×
    /// this).
    pub est_service_ms: u64,
    /// Optional degrade-instead-of-reject policy under saturation.
    pub degrade: Option<DegradePolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 1_000,
            est_service_ms: 5,
            degrade: None,
        }
    }
}

impl ServeConfig {
    /// Validates the knobs that must be non-zero for the layer to make
    /// progress.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be at least 1".into());
        }
        if self.est_service_ms == 0 {
            return Err("estimated service time must be at least 1 ms".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_knobs_are_rejected() {
        assert!(ServeConfig { workers: 0, ..ServeConfig::default() }.validate().is_err());
        assert!(ServeConfig { queue_capacity: 0, ..ServeConfig::default() }.validate().is_err());
        assert!(ServeConfig { est_service_ms: 0, ..ServeConfig::default() }.validate().is_err());
    }
}
