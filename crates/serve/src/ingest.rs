//! Write-path plumbing (DESIGN.md §16).
//!
//! Ingest shares the query path's bounded admission queue — a firehose
//! burst and a query storm contend for the same slots, so overload sheds
//! writes with the same typed taxonomy instead of buffering them
//! unboundedly. The serving layer stays storage-agnostic: the durable
//! store (the WAL crate's `IngestStore`, in production) plugs in behind
//! [`IngestSink`], and its failures flow back typed, per request.

use crate::reject::Rejected;
use tklus_model::Post;

/// A durable destination for ingested posts. Implementations are called
/// from the threads that wait on tickets, with no serve lock held; they must be internally
/// synchronized. Returns the record's sequence number on success.
pub trait IngestSink: Send + Sync {
    /// Durably ingest one post.
    fn ingest(&self, post: Post) -> Result<u64, SinkError>;

    /// The sink's own health, if it has any to report. `None` (the
    /// default) means "nothing to say" — the serving layer adds no
    /// probe. The production WAL sink reports its background compactor's
    /// failure state here so `/health` goes unhealthy when the store has
    /// stopped sealing.
    fn health(&self) -> Option<SinkHealth> {
        None
    }
}

/// A sink's self-reported health (see [`IngestSink::health`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SinkHealth {
    /// True when the sink's maintenance machinery is persistently
    /// failing (e.g. compaction has failed several times in a row) and
    /// operator attention is needed. Renders the `/health` overall
    /// status unhealthy.
    pub persistent_failure: bool,
    /// Total maintenance failures observed (monotone counter; exported
    /// as `tklus_wal_compaction_failures_total` for the WAL sink).
    pub maintenance_failures: u64,
    /// Human-readable probe detail.
    pub detail: String,
}

/// A typed sink failure. `kind` is the stable error-class name (the WAL
/// taxonomy's variant name, for the production sink) that the HTTP layer
/// exposes verbatim so clients can distinguish `Io` from `Corrupt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkError {
    /// Stable error-class name, e.g. `"Io"`, `"DuplicateTweet"`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// True for idempotency conflicts (duplicate tweet id): the write is
    /// not retryable as-is, but the store is healthy — HTTP answers 409,
    /// not 503.
    pub conflict: bool,
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// Everything that can come back instead of a sequence number.
#[derive(Debug)]
pub enum IngestFailure {
    /// Shed by admission control before reaching the sink.
    Rejected(Rejected),
    /// Reached the sink, which failed typed.
    Sink(SinkError),
    /// Admitted but abandoned by a graceful drain before completing.
    Abandoned,
}

impl std::fmt::Display for IngestFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestFailure::Rejected(r) => write!(f, "rejected: {r}"),
            IngestFailure::Sink(e) => write!(f, "sink: {e}"),
            IngestFailure::Abandoned => f.write_str("abandoned by graceful drain"),
        }
    }
}

impl std::error::Error for IngestFailure {}

impl From<Rejected> for IngestFailure {
    fn from(r: Rejected) -> Self {
        IngestFailure::Rejected(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_cause() {
        let sink = SinkError { kind: "Io", message: "disk on fire".into(), conflict: false };
        assert!(IngestFailure::Sink(sink).to_string().contains("Io: disk on fire"));
        assert!(IngestFailure::from(Rejected::ShuttingDown).to_string().contains("shutting down"));
        assert!(IngestFailure::Abandoned.to_string().contains("drain"));
    }
}
