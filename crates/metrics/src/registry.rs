//! Operational metric registry (DESIGN.md §12).
//!
//! A lock-free registry of named [`Counter`]s and fixed-log-bucket
//! [`Histogram`]s. Registration and snapshotting take a mutex; the hot
//! path — recording through a cloned handle — is a single relaxed atomic
//! RMW per counter increment and four per histogram sample, so the engine
//! can record from every query thread without contention.
//!
//! Design points:
//!
//! * **Power-of-two buckets.** A histogram has 64 buckets: bucket 0 holds
//!   the value 0; bucket *i* (1 ≤ *i* ≤ 63) holds values in
//!   `[2^(i-1), 2^i)`, with bucket 63 also absorbing everything above.
//!   Bucket index is one `leading_zeros` — no float math, no search.
//! * **Stable renderings.** [`RegistrySnapshot::render_prometheus`] and
//!   [`RegistrySnapshot::render_json`] emit names in sorted order with a
//!   format pinned by golden tests (the CI metrics smoke job).
//! * **Re-export, don't duplicate.** External counter families
//!   (`IoStats`, the serve-layer shed tallies) are injected into
//!   snapshots via [`RegistrySnapshot::set_counter`] at snapshot time
//!   instead of being double-counted at record time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of buckets in every [`Histogram`] (one per u64 bit, plus zero).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing named counter.
///
/// Cheap to clone; all clones share the same cell. Increments are relaxed
/// atomics — individually exact, monotone, and tear-free.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-log-bucket latency histogram (values are u64, conventionally
/// microseconds for `*_us` metrics).
///
/// Cheap to clone; all clones share the same cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Arc<HistogramCells>,
}

struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for HistogramCells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCells")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Bucket index for a value: 0 for 0, else the value's bit length
/// (clamped to 63), so bucket `i` covers `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let cells = &*self.inner;
        cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
        cells.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Reads every cell into a snapshot. Each cell is read once; under
    /// concurrent recording the cross-cell skew is bounded by in-flight
    /// `record` calls (each cell individually is exact and monotone).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.inner;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed)),
            count: cells.count.load(Ordering::Relaxed),
            sum: cells.sum.load(Ordering::Relaxed),
            max: cells.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`] for the layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping add on overflow).
    pub sum: u64,
    /// Largest value recorded.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the ⌈q·count⌉-th sample, capped at the observed max.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Default)]
struct Registered {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named-metric registry.
///
/// `counter`/`histogram` are get-or-register: the first call under a name
/// creates the metric, later calls hand back a clone of the same handle.
/// Only registration and [`snapshot`](Self::snapshot) lock; recording
/// through a handle is lock-free.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    inner: Mutex<Registered>,
}

impl MetricRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle to the counter named `name`, registering it if new.
    ///
    /// Names should be `snake_case` ASCII identifiers (they are rendered
    /// verbatim into the Prometheus exposition).
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(!reg.histograms.contains_key(name), "{name} is a histogram");
        reg.counters.entry(name.to_string()).or_default().clone()
    }

    /// Handle to the histogram named `name`, registering it if new.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(!reg.counters.contains_key(name), "{name} is a counter");
        reg.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            counters: reg.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: reg.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }
}

/// Point-in-time copy of a whole registry: counter values plus histogram
/// snapshots, keyed by name (sorted). External counter families are
/// injected with [`set_counter`](Self::set_counter) so one snapshot can
/// present every subsystem coherently.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Snapshot of the histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sets (or injects) a counter value — used to re-export counters
    /// that live outside the registry (`IoStats`, serve tallies) without
    /// double-counting them at record time.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Iterates `(name, value)` over all counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates `(name, snapshot)` over all histograms in sorted order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Prometheus text exposition: counters as `# TYPE … counter` plus a
    /// value line; histograms as cumulative `_bucket{le="…"}` lines up to
    /// the highest non-empty bucket, then `+Inf`, `_sum`, `_count`.
    /// Names render in sorted order; the format is pinned by golden tests.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let last = h.buckets.iter().rposition(|&n| n > 0);
            let mut cumulative = 0u64;
            if let Some(last) = last {
                for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
                    cumulative = cumulative.saturating_add(n);
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_upper_bound(i)
                    );
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }

    /// JSON rendering: `{"counters": {…}, "histograms": {name: {count,
    /// sum, max, p50, p90, p99}}}`, names sorted. Metric names are ASCII
    /// identifiers by convention, so no string escaping is performed.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {value}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{ \"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn counter_accumulates_and_handles_share_state() {
        let reg = MetricRegistry::new();
        let a = reg.counter("tklus_test_total");
        let b = reg.counter("tklus_test_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("tklus_test_total"), Some(5));
        assert_eq!(reg.snapshot().counter("missing"), None);
    }

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        // Every value falls inside its bucket's (lower, upper] range.
        for v in [0u64, 1, 2, 3, 15, 16, 17, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} below bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // p50 of 1..=100 lands in bucket [33,64] -> upper bound 63.
        assert_eq!(s.p50(), 63);
        // p99 and p100 cap at the observed max.
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(1.0), 100);
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.p50(), 0);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let reg = std::sync::Arc::new(MetricRegistry::new());
        let n_threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..n_threads {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    let c = reg.counter("tklus_storm_total");
                    let h = reg.histogram("tklus_storm_us");
                    for v in 0..per_thread {
                        c.inc();
                        h.record(v % 1024);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let total = n_threads as u64 * per_thread;
        assert_eq!(snap.counter("tklus_storm_total"), Some(total));
        let h = snap.histogram("tklus_storm_us").unwrap();
        assert_eq!(h.count, total);
        assert_eq!(h.buckets.iter().sum::<u64>(), total);
    }

    #[test]
    fn set_counter_injects_external_values() {
        let reg = MetricRegistry::new();
        reg.counter("tklus_native_total").add(7);
        let mut snap = reg.snapshot();
        snap.set_counter("tklus_injected_total", 42);
        assert_eq!(snap.counter("tklus_injected_total"), Some(42));
        assert_eq!(snap.counter("tklus_native_total"), Some(7));
        // Injection overwrites (re-export semantics, not accumulation).
        snap.set_counter("tklus_injected_total", 43);
        assert_eq!(snap.counter("tklus_injected_total"), Some(43));
    }

    /// Golden-format check: the exact Prometheus exposition for a small
    /// registry. The CI metrics smoke job runs this test; any format
    /// drift fails it.
    #[test]
    fn prometheus_rendering_is_golden() {
        let reg = MetricRegistry::new();
        reg.counter("tklus_queries_total").add(3);
        reg.counter("tklus_query_candidates_total").add(1);
        let h = reg.histogram("tklus_query_latency_us");
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(5);
        let rendered = reg.snapshot().render_prometheus();
        let expected = "\
# TYPE tklus_queries_total counter
tklus_queries_total 3
# TYPE tklus_query_candidates_total counter
tklus_query_candidates_total 1
# TYPE tklus_query_latency_us histogram
tklus_query_latency_us_bucket{le=\"0\"} 1
tklus_query_latency_us_bucket{le=\"1\"} 2
tklus_query_latency_us_bucket{le=\"3\"} 2
tklus_query_latency_us_bucket{le=\"7\"} 4
tklus_query_latency_us_bucket{le=\"+Inf\"} 4
tklus_query_latency_us_sum 11
tklus_query_latency_us_count 4
";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn json_rendering_is_golden() {
        let reg = MetricRegistry::new();
        reg.counter("tklus_queries_total").add(2);
        let h = reg.histogram("tklus_query_latency_us");
        h.record(4);
        h.record(6);
        let rendered = reg.snapshot().render_json();
        let expected = "{
  \"counters\": {
    \"tklus_queries_total\": 2
  },
  \"histograms\": {
    \"tklus_query_latency_us\": { \"count\": 2, \"sum\": 10, \"max\": 6, \
\"p50\": 6, \"p90\": 6, \"p99\": 6 }
  }
}
";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn empty_histogram_renders_inf_only() {
        let reg = MetricRegistry::new();
        let _ = reg.histogram("tklus_idle_us");
        let rendered = reg.snapshot().render_prometheus();
        assert_eq!(
            rendered,
            "# TYPE tklus_idle_us histogram\ntklus_idle_us_bucket{le=\"+Inf\"} 0\n\
             tklus_idle_us_sum 0\ntklus_idle_us_count 0\n"
        );
    }
}
