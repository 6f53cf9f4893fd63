//! Router-level metrics: the `tklus_shard_*` families.
//!
//! The router owns its own [`MetricRegistry`] so shard-level engine metrics
//! (which each shard engine records into its own registry) and router
//! metrics stay independently inspectable; `ShardedEngine::metrics_snapshot`
//! merges them all into one snapshot for export.

use tklus_metrics::{Counter, Histogram, MetricRegistry, RegistrySnapshot};

/// Counter and histogram handles for the sharded query router.
#[derive(Debug)]
pub struct ShardMetrics {
    registry: MetricRegistry,
    /// Queries routed (`tklus_shard_queries_total`).
    pub queries: Counter,
    /// Shard dispatches attempted, including breaker-refused ones
    /// (`tklus_shard_fanout_total`).
    pub fanout: Counter,
    /// Queries that returned a degraded result (`tklus_shard_degraded_total`).
    pub degraded: Counter,
    /// Shard dispatches that failed — breaker-refused or engine error
    /// (`tklus_shard_failed_total`).
    pub failed: Counter,
    /// Per-shard dispatch latency in microseconds (`tklus_shard_latency_us`).
    pub latency: Histogram,
}

impl ShardMetrics {
    pub fn new() -> Self {
        let registry = MetricRegistry::new();
        let queries = registry.counter("tklus_shard_queries_total");
        let fanout = registry.counter("tklus_shard_fanout_total");
        let degraded = registry.counter("tklus_shard_degraded_total");
        let failed = registry.counter("tklus_shard_failed_total");
        let latency = registry.histogram("tklus_shard_latency_us");
        Self { registry, queries, fanout, degraded, failed, latency }
    }

    /// Snapshot of the router-level families only.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

impl Default for ShardMetrics {
    fn default() -> Self {
        Self::new()
    }
}
