//! Typed admission rejections and serving-layer errors (DESIGN.md §11).

use tklus_core::EngineError;
use tklus_model::Priority;

/// Why a request was shed instead of admitted (or, for [`Rejected::Evicted`],
/// after admission but before dispatch). Every shed is typed and costs the
/// engine nothing — that is the whole point of admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded admission queue is full and nothing of lower priority
    /// could be evicted to make room.
    QueueFull {
        /// Queue depth at the time of rejection.
        depth: usize,
        /// The deterministic wait estimate a same-priority retry would face
        /// right now (saturating; the HTTP front-end renders it as
        /// `Retry-After`).
        estimated_wait_ms: u64,
    },
    /// The request's deadline would expire before a worker could plausibly
    /// start it, so running it would waste engine time on an answer nobody
    /// is waiting for. Shed at enqueue.
    DeadlineHopeless {
        /// Milliseconds until the deadline at decision time.
        deadline_in_ms: u64,
        /// The (deterministic) wait estimate that exceeded it.
        estimated_wait_ms: u64,
    },
    /// The request was queued but a later, higher-priority arrival took
    /// its slot when the queue was full (shed-lowest-first).
    Evicted {
        /// Priority of the arrival that displaced it.
        by: Priority,
        /// The deterministic wait estimate a retry at the victim's own
        /// priority would face right now (saturating; feeds `Retry-After`).
        estimated_wait_ms: u64,
    },
    /// The request was admitted but its deadline passed while it queued;
    /// a worker caught it at dispatch and answered it typed instead of
    /// running the engine (the threaded twin of the simulator's
    /// `Disposition::ExpiredInQueue`).
    ExpiredInQueue {
        /// Milliseconds the request waited in the queue before expiring.
        waited_ms: u64,
    },
    /// The server is draining or stopped; admission is closed.
    ShuttingDown,
}

impl Rejected {
    /// For sheds a client can sensibly retry after a backoff, the
    /// deterministic queue-wait estimate (ms) at decision time; `None` for
    /// sheds where "try again soon" is the wrong advice (a shutdown heals
    /// on its own clock, expiry means the deadline was already spent). The HTTP front-end renders this as `Retry-After`.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Rejected::QueueFull { estimated_wait_ms, .. }
            | Rejected::Evicted { estimated_wait_ms, .. }
            | Rejected::DeadlineHopeless { estimated_wait_ms, .. } => Some(*estimated_wait_ms),
            Rejected::ExpiredInQueue { .. } | Rejected::ShuttingDown => None,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { depth, estimated_wait_ms } => {
                write!(f, "admission queue full ({depth} queued, ~{estimated_wait_ms} ms wait)")
            }
            Rejected::DeadlineHopeless { deadline_in_ms, estimated_wait_ms } => write!(
                f,
                "deadline hopeless: {deadline_in_ms} ms left, estimated wait {estimated_wait_ms} ms"
            ),
            Rejected::Evicted { by, estimated_wait_ms } => write!(
                f,
                "evicted from queue by a {by}-priority arrival (~{estimated_wait_ms} ms to retry)"
            ),
            Rejected::ExpiredInQueue { waited_ms } => {
                write!(f, "deadline expired after {waited_ms} ms in queue")
            }
            Rejected::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

/// Everything that can come back instead of a successful
/// [`tklus_core::QueryOutcome`].
#[derive(Debug)]
pub enum ServeError {
    /// Shed before reaching the engine.
    Rejected(Rejected),
    /// Admitted and executed, but the engine failed typed.
    Engine(EngineError),
    /// Admitted but abandoned by a graceful drain before completing; the
    /// drain report names it too (nothing is lost silently).
    Abandoned,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Abandoned => f.write_str("abandoned by graceful drain"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Rejected> for ServeError {
    fn from(r: Rejected) -> Self {
        ServeError::Rejected(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_cause() {
        let full = Rejected::QueueFull { depth: 9, estimated_wait_ms: 35 };
        assert!(full.to_string().contains("9 queued"));
        assert!(full.to_string().contains("~35 ms"));
        let hopeless = Rejected::DeadlineHopeless { deadline_in_ms: 3, estimated_wait_ms: 40 };
        assert!(hopeless.to_string().contains("estimated wait 40"));
        let evicted = Rejected::Evicted { by: Priority::High, estimated_wait_ms: 12 };
        assert!(evicted.to_string().contains("high"));
        assert!(Rejected::ExpiredInQueue { waited_ms: 75 }.to_string().contains("75 ms in queue"));
        assert!(ServeError::from(Rejected::ShuttingDown).to_string().contains("shutting down"));
        assert!(ServeError::Abandoned.to_string().contains("drain"));
    }

    #[test]
    fn retry_after_covers_exactly_the_retryable_sheds() {
        assert_eq!(
            Rejected::QueueFull { depth: 4, estimated_wait_ms: 20 }.retry_after_ms(),
            Some(20)
        );
        assert_eq!(
            Rejected::Evicted { by: Priority::High, estimated_wait_ms: 7 }.retry_after_ms(),
            Some(7)
        );
        assert_eq!(
            Rejected::DeadlineHopeless { deadline_in_ms: 1, estimated_wait_ms: u64::MAX }
                .retry_after_ms(),
            Some(u64::MAX)
        );
        assert_eq!(Rejected::ExpiredInQueue { waited_ms: 3 }.retry_after_ms(), None);
        assert_eq!(Rejected::ShuttingDown.retry_after_ms(), None);
    }
}
