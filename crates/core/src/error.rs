//! The engine-level error taxonomy (DESIGN.md §10).
//!
//! Every fallible engine operation reports an [`EngineError`] naming the
//! subsystem that failed: the metadata database's storage stack or the
//! inverted index's postings read. Both wrap the subsystem's own typed
//! error, so callers can match all the way down (e.g. to
//! [`tklus_storage::StorageError::PageCorrupt`]) when they need to.

use tklus_index::IndexError;
use tklus_storage::StorageError;

/// An error surfaced by engine construction or query execution.
#[derive(Debug)]
pub enum EngineError {
    /// The metadata database's storage stack failed (I/O, corruption, a
    /// malformed B⁺-tree node).
    Storage(StorageError),
    /// The inverted index failed to serve postings (a range outside its
    /// partition, undecodable bytes).
    Index(IndexError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "metadata storage error: {e}"),
            EngineError::Index(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Index(e) => Some(e),
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<IndexError> for EngineError {
    fn from(e: IndexError) -> Self {
        EngineError::Index(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tklus_storage::PageId;

    #[test]
    fn display_names_the_subsystem() {
        let e = EngineError::from(StorageError::PageCorrupt {
            page_id: PageId(3),
            expected: 1,
            actual: 2,
        });
        let msg = e.to_string();
        assert!(msg.starts_with("metadata storage error:"), "{msg}");
        assert!(msg.contains("p3"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
