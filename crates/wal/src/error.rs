//! The write-path error taxonomy (DESIGN.md §15).
//!
//! The central distinction recovery depends on is **clean tail vs mid-log
//! corruption**. A torn tail — the final segment ending in an incomplete
//! or checksum-failing frame — is the *expected* signature of a crash
//! mid-append and is not an error at all: replay truncates at the first
//! bad frame and reports how many bytes it discarded. A bad frame with
//! valid segments *after* it, or inside any non-final segment, can never
//! be produced by a crash of our append-only writer; that is real
//! corruption and surfaces as the typed [`WalError::Corrupt`].

use tklus_core::EngineError;
use tklus_model::TweetId;

/// An error surfaced by the WAL, recovery, or the ingest store above them.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem operation failed.
    Io {
        /// The operation (`"append"`, `"sync"`, `"rename"`, …).
        op: &'static str,
        /// Store-relative path of the file involved.
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// Mid-log corruption: a bad frame that truncate-at-tail cannot
    /// explain (non-final segment, or a manifest/seal file failing its
    /// checksum). Recovery refuses to guess past this.
    Corrupt {
        /// Store-relative path of the corrupt file.
        path: String,
        /// Byte offset of the first bad frame or field.
        offset: usize,
        /// What failed to validate.
        detail: String,
    },
    /// A segment or manifest carries a format version this build does not
    /// speak.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The simulated filesystem's scheduled crash fired: the "process" is
    /// dead and every operation fails until the harness reopens the store.
    /// Only [`crate::fs::SimFs`] produces this.
    Crashed,
    /// The ingested tweet id already exists in the store (sealed or live).
    DuplicateTweet(TweetId),
    /// The sealed engine failed: a metadata page fault under a query, or
    /// in an engine build (at open or in a compaction). Nothing was
    /// applied or installed.
    Engine(EngineError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, path, source } => write!(f, "wal {op} on {path:?} failed: {source}"),
            WalError::Corrupt { path, offset, detail } => {
                write!(f, "mid-log corruption in {path:?} at byte {offset}: {detail}")
            }
            WalError::VersionMismatch { found, expected } => {
                write!(f, "wal format version {found} (this build speaks {expected})")
            }
            WalError::Crashed => f.write_str("injected crash: the simulated process is dead"),
            WalError::DuplicateTweet(id) => write!(f, "tweet {} already ingested", id.0),
            WalError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for WalError {
    fn from(e: EngineError) -> Self {
        WalError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;

    #[test]
    fn display_distinguishes_corruption_from_io() {
        let c =
            WalError::Corrupt { path: "wal-00000001.log".into(), offset: 24, detail: "crc".into() };
        assert!(c.to_string().contains("mid-log corruption"));
        let io = WalError::Io {
            op: "sync",
            path: "MANIFEST".into(),
            source: std::io::Error::other("disk gone"),
        };
        assert!(io.to_string().contains("sync"));
        assert!(WalError::DuplicateTweet(TweetId(7)).to_string().contains('7'));
    }
}
