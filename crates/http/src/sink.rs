//! Adapts the WAL crate's durable [`IngestStore`] to the serving layer's
//! storage-agnostic [`IngestSink`] (DESIGN.md §16).
//!
//! The adapter is where the WAL's typed failure taxonomy crosses into
//! HTTP: each [`WalError`] variant's *name* is carried verbatim as the
//! stable `kind` in the 503/409 body, so a client (or an operator's
//! alert rule) can tell a dead disk (`Io`) from a corrupt log
//! (`Corrupt`) without parsing prose. The store's compaction outcome
//! counters cross the same seam as [`SinkHealth`], so `/health` can say
//! "the store has stopped sealing" without the serving layer knowing
//! what a compaction is.

use std::sync::Arc;
use tklus_model::Post;
use tklus_serve::{IngestSink, SinkError, SinkHealth};
use tklus_wal::{IngestStore, WalError};

/// The production sink: a crash-safe [`IngestStore`] behind the serve
/// crate's trait. The store is internally synchronized (`ingest` takes
/// `&self`), so worker threads call straight through. Shared as an
/// `Arc` so the serving path's background compactor can hold the same
/// store.
pub struct WalSink {
    store: Arc<IngestStore>,
}

impl WalSink {
    /// Wraps an opened store.
    pub fn new(store: Arc<IngestStore>) -> Self {
        Self { store }
    }

    /// The wrapped store (e.g. for a shutdown-time seal or stats read).
    pub fn store(&self) -> &Arc<IngestStore> {
        &self.store
    }
}

impl IngestSink for WalSink {
    fn ingest(&self, post: Post) -> Result<u64, SinkError> {
        self.store.ingest(post).map_err(sink_error)
    }

    fn health(&self) -> Option<SinkHealth> {
        let stats = self.store.compaction_stats();
        let detail = match (&stats.last_error, stats.consecutive_failures) {
            (_, 0) => format!("{} compactions sealed", stats.successes_total),
            (Some(err), n) => format!("compaction failing ({n} consecutive): {err}"),
            (None, n) => format!("compaction failing ({n} consecutive)"),
        };
        Some(SinkHealth {
            persistent_failure: stats.persistent_failure,
            maintenance_failures: stats.failures_total,
            detail,
        })
    }
}

/// Maps a [`WalError`] to the typed sink failure HTTP renders: the
/// variant name as the stable kind, duplicate ids flagged as conflicts
/// (409 — the store is healthy, the write is wrong), everything else a
/// store-side failure (503).
pub fn sink_error(e: WalError) -> SinkError {
    let kind = match &e {
        WalError::Io { .. } => "Io",
        WalError::Corrupt { .. } => "Corrupt",
        WalError::VersionMismatch { .. } => "VersionMismatch",
        WalError::Crashed => "Crashed",
        WalError::DuplicateTweet(_) => "DuplicateTweet",
        WalError::Engine(_) => "Engine",
    };
    SinkError { kind, message: e.to_string(), conflict: matches!(e, WalError::DuplicateTweet(_)) }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;
    use tklus_model::TweetId;

    #[test]
    fn every_wal_variant_keeps_its_name_and_only_duplicates_conflict() {
        let cases: Vec<(WalError, &str, bool)> = vec![
            (
                WalError::Io {
                    op: "append",
                    path: "wal-1.log".into(),
                    source: std::io::Error::other("disk gone"),
                },
                "Io",
                false,
            ),
            (
                WalError::Corrupt { path: "wal-1.log".into(), offset: 9, detail: "crc".into() },
                "Corrupt",
                false,
            ),
            (WalError::VersionMismatch { found: 9, expected: 1 }, "VersionMismatch", false),
            (WalError::Crashed, "Crashed", false),
            (WalError::DuplicateTweet(TweetId(7)), "DuplicateTweet", true),
        ];
        for (err, kind, conflict) in cases {
            let display = err.to_string();
            let sink = sink_error(err);
            assert_eq!(sink.kind, kind);
            assert_eq!(sink.conflict, conflict, "{kind}");
            assert_eq!(sink.message, display);
        }
    }

    #[test]
    fn sink_health_mirrors_compaction_stats() {
        let (fs, _) = tklus_wal::SimFs::new(31);
        let fs: Arc<dyn tklus_wal::WalFs> = fs;
        let (store, _) = IngestStore::open(fs, tklus_wal::StoreConfig::default()).unwrap();
        let sink = WalSink::new(Arc::new(store));
        let health = IngestSink::health(&sink).unwrap();
        assert!(!health.persistent_failure);
        assert_eq!(health.maintenance_failures, 0);
        assert!(health.detail.contains("0 compactions sealed"));
    }
}
