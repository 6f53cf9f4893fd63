//! Job counters, in the spirit of Hadoop's built-in counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated across all tasks of one job.
#[derive(Debug, Default)]
pub struct JobCounters {
    map_input_records: AtomicU64,
    map_output_records: AtomicU64,
    reduce_groups: AtomicU64,
    reduce_output_records: AtomicU64,
    shuffled_records: AtomicU64,
}

/// A read-only snapshot of [`JobCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Records consumed by mappers.
    pub map_input_records: u64,
    /// Pairs emitted by mappers.
    pub map_output_records: u64,
    /// Distinct key groups reduced.
    pub reduce_groups: u64,
    /// Records emitted by reducers.
    pub reduce_output_records: u64,
    /// Pairs crossing the shuffle (equals map output in this engine).
    pub shuffled_records: u64,
}

impl JobCounters {
    pub(crate) fn add_map_input(&self, n: u64) {
        self.map_input_records.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn add_map_output(&self, n: u64) {
        self.map_output_records.fetch_add(n, Ordering::Relaxed);
        self.shuffled_records.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn add_reduce_group(&self, n: u64) {
        self.reduce_groups.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn add_reduce_output(&self, n: u64) {
        self.reduce_output_records.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            map_input_records: self.map_input_records.load(Ordering::Relaxed),
            map_output_records: self.map_output_records.load(Ordering::Relaxed),
            reduce_groups: self.reduce_groups.load(Ordering::Relaxed),
            reduce_output_records: self.reduce_output_records.load(Ordering::Relaxed),
            shuffled_records: self.shuffled_records.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let c = JobCounters::default();
        c.add_map_input(3);
        c.add_map_output(5);
        c.add_reduce_group(2);
        c.add_reduce_output(4);
        let s = c.snapshot();
        assert_eq!(s.map_input_records, 3);
        assert_eq!(s.map_output_records, 5);
        assert_eq!(s.shuffled_records, 5);
        assert_eq!(s.reduce_groups, 2);
        assert_eq!(s.reduce_output_records, 4);
    }
}
