//! Engine-side observability (DESIGN.md §12): the per-engine metric
//! registry and the aggregation of per-query [`QueryStats`] into it.
//!
//! One [`EngineMetrics`] lives inside each [`crate::TklusEngine`] built
//! with `EngineConfig::metrics` on. Query counters and stage/latency
//! histograms are recorded natively (pre-registered handles, lock-free);
//! the storage [`tklus_storage::IoStats`] counters are *re-exported* into
//! snapshots at read time under `tklus_storage_*` names, so the registry
//! presents one coherent view without double-counting anything at record
//! time.

use crate::query::QueryStats;
use tklus_metrics::{Counter, Histogram, MetricRegistry, RegistrySnapshot};
use tklus_storage::IoSnapshot;

/// Pre-registered handles for everything the query path records.
pub(crate) struct EngineMetrics {
    registry: MetricRegistry,
    queries: Counter,
    query_errors: Counter,
    degraded: Counter,
    refined_out: Counter,
    candidates: Counter,
    in_radius: Counter,
    threads_built: Counter,
    threads_pruned: Counter,
    lists_fetched: Counter,
    dfs_bytes: Counter,
    metadata_page_reads: Counter,
    latency: Histogram,
    stage_cover: Histogram,
    stage_fetch: Histogram,
    stage_combine: Histogram,
    stage_threads: Histogram,
    stage_scoring: Histogram,
    stage_topk: Histogram,
}

impl EngineMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricRegistry::new();
        Self {
            queries: registry.counter("tklus_queries_total"),
            query_errors: registry.counter("tklus_query_errors_total"),
            degraded: registry.counter("tklus_queries_degraded_total"),
            refined_out: registry.counter("tklus_query_refined_out_total"),
            candidates: registry.counter("tklus_query_candidates_total"),
            in_radius: registry.counter("tklus_query_in_radius_total"),
            threads_built: registry.counter("tklus_query_threads_built_total"),
            threads_pruned: registry.counter("tklus_query_threads_pruned_total"),
            lists_fetched: registry.counter("tklus_query_lists_fetched_total"),
            dfs_bytes: registry.counter("tklus_query_dfs_bytes_total"),
            metadata_page_reads: registry.counter("tklus_query_metadata_page_reads_total"),
            latency: registry.histogram("tklus_query_latency_us"),
            stage_cover: registry.histogram("tklus_stage_cover_us"),
            stage_fetch: registry.histogram("tklus_stage_fetch_us"),
            stage_combine: registry.histogram("tklus_stage_combine_us"),
            stage_threads: registry.histogram("tklus_stage_threads_us"),
            stage_scoring: registry.histogram("tklus_stage_scoring_us"),
            stage_topk: registry.histogram("tklus_stage_topk_us"),
            registry,
        }
    }

    /// Folds one answered query's stats into the registry.
    pub(crate) fn observe(&self, stats: &QueryStats, degraded: bool) {
        self.queries.inc();
        if degraded {
            self.degraded.inc();
        }
        self.refined_out.add(stats.refined_out as u64);
        self.candidates.add(stats.candidates as u64);
        self.in_radius.add(stats.in_radius as u64);
        self.threads_built.add(stats.threads_built as u64);
        self.threads_pruned.add(stats.threads_pruned as u64);
        self.lists_fetched.add(stats.lists_fetched as u64);
        self.dfs_bytes.add(stats.dfs_bytes);
        self.metadata_page_reads.add(stats.metadata_page_reads);
        self.latency.record_duration_us(stats.elapsed);
        self.stage_cover.record_duration_us(stats.stages.cover);
        self.stage_fetch.record_duration_us(stats.stages.fetch);
        self.stage_combine.record_duration_us(stats.stages.combine);
        self.stage_threads.record_duration_us(stats.stages.threads);
        self.stage_scoring.record_duration_us(stats.stages.scoring);
        self.stage_topk.record_duration_us(stats.stages.topk);
    }

    /// Counts a query that failed with a typed engine error (such queries
    /// produce no stats, so they are tallied separately from
    /// `tklus_queries_total`).
    pub(crate) fn observe_error(&self) {
        self.query_errors.inc();
    }

    /// Registry snapshot with the storage counter family injected
    /// (re-exported, not duplicated — see the module docs).
    pub(crate) fn snapshot(&self, io: &IoSnapshot) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        snap.set_counter("tklus_storage_page_reads_total", io.page_reads);
        snap.set_counter("tklus_storage_page_writes_total", io.page_writes);
        snap.set_counter("tklus_storage_buffer_hits_total", io.cache_hits);
        snap.set_counter("tklus_storage_buffer_misses_total", io.cache_misses);
        snap
    }
}
