//! Shared I/O counters.
//!
//! The paper's efficiency arguments are stated in I/Os ("every construction
//! will cost several I/Os", Section V-B; "it does not necessarily lead to
//! more I/Os", Section VI-B2). Counters are atomic so concurrent readers
//! can share one stats object.
//!
//! Multi-counter reads go through [`IoStats::snapshot`], which loads each
//! counter exactly once into an [`IoSnapshot`]; derived totals are then
//! computed from that coherent copy instead of re-loading live atomics
//! (which can tear against concurrent recorders). [`IoStats::take`] drains
//! the counters with atomic swaps, so a concurrent increment lands either
//! in the returned snapshot or in the live counters — never lost.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Per-OS-thread tally of physical page reads, incremented by every
    /// [`IoStats::record_read`] on this thread (process-wide across
    /// `IoStats` instances). The engine uses deltas of this tally to
    /// attribute metadata page reads to the query that incurred them,
    /// exactly, even with many queries in flight on other threads.
    static THREAD_PAGE_READS: Cell<u64> = const { Cell::new(0) };
}

/// One coherent reading of every counter in an [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Physical page reads.
    pub page_reads: u64,
    /// Physical page writes.
    pub page_writes: u64,
}

impl IoSnapshot {
    /// Total physical I/Os (reads + writes) — computed from one coherent
    /// copy, so it cannot tear against itself.
    pub fn total_io(&self) -> u64 {
        self.page_reads.saturating_add(self.page_writes)
    }

    /// Per-counter difference `self - earlier` (saturating; counters are
    /// monotone between resets, so a later snapshot dominates).
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
        }
    }
}

/// Cheaply cloneable handle to a set of atomic I/O counters.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a physical page read.
    pub fn record_read(&self) {
        self.inner.page_reads.fetch_add(1, Ordering::Relaxed);
        THREAD_PAGE_READS.with(|c| c.set(c.get().wrapping_add(1)));
    }

    /// Records a physical page write.
    pub fn record_write(&self) {
        self.inner.page_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Physical page reads so far.
    pub fn page_reads(&self) -> u64 {
        self.inner.page_reads.load(Ordering::Relaxed)
    }

    /// Physical page writes so far.
    pub fn page_writes(&self) -> u64 {
        self.inner.page_writes.load(Ordering::Relaxed)
    }

    /// Always 0: there is no page cache, so nothing hits one. Kept only
    /// because the frozen benchmark still reads it.
    pub fn cache_hits(&self) -> u64 {
        0
    }

    /// Always 0; see [`Self::cache_hits`].
    pub fn cache_misses(&self) -> u64 {
        0
    }

    /// Coherent copy of both counters: each atomic is loaded exactly
    /// once, and every derived figure (e.g. [`IoSnapshot::total_io`]) is
    /// computed from the copy. Use this wherever stats are exported.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.inner.page_reads.load(Ordering::Relaxed),
            page_writes: self.inner.page_writes.load(Ordering::Relaxed),
        }
    }

    /// Total physical I/Os (reads + writes), from one coherent snapshot.
    pub fn total_io(&self) -> u64 {
        self.snapshot().total_io()
    }

    /// Drains every counter to zero with atomic swaps and returns what was
    /// drained. Unlike a load-then-store reset, a concurrent
    /// `record_*` increment ends up either in the returned snapshot or in
    /// the live counters — it is never lost.
    pub fn take(&self) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.inner.page_reads.swap(0, Ordering::Relaxed),
            page_writes: self.inner.page_writes.swap(0, Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (swap-based; see [`take`](Self::take)).
    pub fn reset(&self) {
        let _ = self.take();
    }

    /// This thread's cumulative physical-page-read tally (process-wide
    /// across `IoStats` instances; see [`THREAD_PAGE_READS`]). Take a
    /// delta around a region to count the reads that region performed on
    /// the current thread.
    pub fn thread_page_reads() -> u64 {
        THREAD_PAGE_READS.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn counts_accumulate() {
        let s = IoStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        assert_eq!(s.page_reads(), 2);
        assert_eq!(s.page_writes(), 1);
        assert_eq!((s.cache_hits(), s.cache_misses()), (0, 0), "no page cache");
        assert_eq!(s.total_io(), 3);
        let snap = s.snapshot();
        assert_eq!(snap, IoSnapshot { page_reads: 2, page_writes: 1 });
        assert_eq!(snap.total_io(), 3);
    }

    #[test]
    fn clones_share_counters() {
        let s = IoStats::new();
        let t = s.clone();
        t.record_read();
        assert_eq!(s.page_reads(), 1);
    }

    #[test]
    fn reset_zeroes_and_take_returns_drained_values() {
        let s = IoStats::new();
        s.record_read();
        s.record_write();
        let drained = s.take();
        assert_eq!(drained.page_reads, 1);
        assert_eq!(drained.page_writes, 1);
        assert_eq!(s.snapshot(), IoSnapshot::default());
        s.record_read();
        s.reset();
        assert_eq!(s.total_io(), 0);
    }

    #[test]
    fn snapshot_deltas_subtract_per_counter() {
        let s = IoStats::new();
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        s.record_write();
        let delta = s.snapshot().delta_since(&before);
        assert_eq!(delta, IoSnapshot { page_reads: 1, page_writes: 1 });
    }

    #[test]
    fn thread_page_reads_tally_is_per_thread() {
        let s = IoStats::new();
        let before = IoStats::thread_page_reads();
        s.record_read();
        s.record_read();
        assert_eq!(IoStats::thread_page_reads() - before, 2);
        // Reads on another thread do not move this thread's tally, even
        // through the same shared IoStats.
        let t = s.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let inner_before = IoStats::thread_page_reads();
                t.record_read();
                assert_eq!(IoStats::thread_page_reads() - inner_before, 1);
            });
        });
        assert_eq!(IoStats::thread_page_reads() - before, 2);
        assert_eq!(s.page_reads(), 3);
    }

    /// Concurrent stress for the tear/reset bug: recorders hammer both
    /// counters while a drainer repeatedly `take`s. Swap-based draining
    /// must conserve every increment: the sum of everything drained plus
    /// the final snapshot equals exactly what was recorded.
    #[test]
    fn concurrent_take_never_loses_increments() {
        let s = IoStats::new();
        let per_thread = 20_000u64;
        let n_recorders = 4;
        let drained: IoSnapshot = std::thread::scope(|scope| {
            for _ in 0..n_recorders {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        s.record_read();
                        s.record_write();
                    }
                });
            }
            let s = s.clone();
            scope
                .spawn(move || {
                    let mut acc = IoSnapshot::default();
                    for _ in 0..200 {
                        let t = s.take();
                        acc.page_reads += t.page_reads;
                        acc.page_writes += t.page_writes;
                        std::thread::yield_now();
                    }
                    acc
                })
                .join()
                .unwrap()
        });
        let rest = s.snapshot();
        let total = n_recorders as u64 * per_thread;
        assert_eq!(drained.page_reads + rest.page_reads, total);
        assert_eq!(drained.page_writes + rest.page_writes, total);
    }
}
