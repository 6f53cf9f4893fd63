//! The sharded scatter-gather engine.
//!
//! [`ShardedEngine`] owns `N` independent [`TklusEngine`]s, each holding
//! the inverted index of one contiguous geohash-prefix range of the corpus
//! (the [`ShardPlan`]). A query is answered by:
//!
//! 1. computing the circle cover once and fanning out only to shards whose
//!    range intersects it,
//! 2. merging the per-shard scored rows into global tweet-id order (a
//!    k-way merge with duplicate-tweet elimination) and ranking them on
//!    one engine — the same gather for Sum and Max, which differ only in
//!    the per-user fold (`+=` or `max`).
//!
//! Every shard dispatch runs behind its own circuit breaker (the serving
//! layer's [`CircuitBreaker`]); a faulted shard degrades the result to a
//! typed partial ([`ShardCompleteness::Degraded`] naming the failed
//! shards) instead of failing the query.
//!
//! ## Why sharded answers are bitwise-identical to monolithic ones
//!
//! Each shard engine is assembled from its own per-range index but the
//! **full** corpus metadata, so thread popularity φ, recency and distance
//! score δ are computed from exactly the same bytes as the monolithic
//! engine's. All postings of a tweet live in the single cell of its
//! location, so AND/OR combination never crosses a shard boundary. The
//! router folds per-tweet scores in global tweet-id order — the order the
//! monolithic Sum fold uses, so the float sums associate identically; a
//! Max fold is order-free. Both folds and the final ranking are the
//! engine's own ([`TklusEngine::try_rank_rows`]), the code a monolithic
//! engine's query runs. Each shard engine is its index and the metadata,
//! nothing else: building `N` of them over the full corpus pays no
//! per-shard bound precompute.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use parking_lot::Mutex;
use tklus_core::{
    merge_sum_rows, Completeness, EngineConfig, EngineError, PartialSumOutcome, QueryStats,
    RankedUser, Ranking, TklusEngine,
};
use tklus_geo::{circle_cover, encode, Geohash};
use tklus_index::{
    build_index, load_sharded_dir_with_report, save_sharded_dir_refs, HybridIndex, PersistError,
};
use tklus_model::{Corpus, Post, TklusQuery};
use tklus_serve::{BreakerConfig, BreakerState, CircuitBreaker};

use crate::metrics::ShardMetrics;
use crate::plan::{ShardId, ShardPlan};

/// What one shard dispatch yields: `None` when the breaker refused,
/// `Some(Err)` a typed engine failure.
type Dispatched = Option<Result<PartialSumOutcome, EngineError>>;

/// Completeness of a scatter-gather answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardCompleteness {
    /// Every fanned-out shard answered and examined its whole cover.
    Complete,
    /// The answer is a typed partial: it ranks only what the healthy
    /// shards found within their budgets.
    Degraded {
        /// Shards whose dispatch failed (engine error or open breaker);
        /// their contribution is missing from the ranking. Sorted, empty
        /// when the degradation is budget-only.
        failed_shards: Vec<ShardId>,
        /// Cover cells every healthy shard is known to have examined
        /// (the conservative minimum across shards).
        cells_processed: usize,
        /// Cover cells a budget-free, fault-free query would examine.
        cells_total: usize,
    },
}

impl ShardCompleteness {
    pub fn is_complete(&self) -> bool {
        matches!(self, ShardCompleteness::Complete)
    }
}

/// A merged scatter-gather answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Global top-k users (score descending, user id ascending).
    pub users: Vec<RankedUser>,
    /// Work tallies summed across the healthy shards' row gathers and the
    /// ranking that folds them — the ranking's metadata page reads and
    /// `scoring`/`topk` stages included (`cover_cells` is the max, since
    /// every shard walks the same cover; `elapsed` is the router's wall
    /// clock).
    pub stats: QueryStats,
    /// Whether the answer is exact or a typed partial.
    pub completeness: ShardCompleteness,
    /// Shards the router dispatched to: every shard whose range the
    /// cover intersects, failed dispatches included.
    pub fanout: usize,
    /// Always empty: the router skips no shard by score. Kept only
    /// because the frozen `benchmark/src/layers.rs` reads it.
    pub skipped_by_bound: Vec<ShardId>,
}

/// Errors from assembling a sharded engine off disk.
#[derive(Debug)]
pub enum ShardError {
    /// The sharded index directory failed to load.
    Persist(PersistError),
    /// A shard engine failed to assemble.
    Engine(EngineError),
    /// The shard plan is inconsistent with the loaded shards.
    Plan(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Persist(e) => write!(f, "sharded index load failed: {e}"),
            ShardError::Engine(e) => write!(f, "shard engine assembly failed: {e}"),
            ShardError::Plan(msg) => write!(f, "invalid shard plan: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<PersistError> for ShardError {
    fn from(e: PersistError) -> Self {
        ShardError::Persist(e)
    }
}

impl From<EngineError> for ShardError {
    fn from(e: EngineError) -> Self {
        ShardError::Engine(e)
    }
}

struct Shard {
    engine: TklusEngine,
    /// Mutating breaker behind a mutex: the router queries through `&self`.
    breaker: Mutex<CircuitBreaker>,
}

/// `N` shard engines plus the scatter-gather router over them.
pub struct ShardedEngine {
    shards: Vec<Shard>,
    plan: ShardPlan,
    geohash_len: usize,
    metrics: ShardMetrics,
    /// Monotonic epoch for breaker clocks.
    epoch: Instant,
    /// Scatter width: how many shard dispatches run concurrently on
    /// scoped worker threads. `1` is the sequential scatter; any value
    /// yields identical answers (see the module doc — merge order is
    /// fixed by fanout position).
    scatter_parallelism: usize,
}

/// Default scatter width: one dispatch thread per available core.
fn default_scatter_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ShardedEngine {
    /// Builds `n_shards` shard engines over `corpus` with a mass-balanced
    /// plan, every shard using `config` (each gets its own buffer pool
    /// and metric registry).
    pub fn try_build(
        corpus: &Corpus,
        n_shards: usize,
        config: &EngineConfig,
    ) -> Result<Self, EngineError> {
        let plan = Self::plan_for(corpus, n_shards, config.index.geohash_len);
        Self::try_build_with(corpus, plan, &|_| config.clone())
    }

    /// The mass-balanced plan `try_build` would use: post counts per
    /// geohash cell, split greedily into `n_shards` contiguous ranges.
    pub fn plan_for(corpus: &Corpus, n_shards: usize, geohash_len: usize) -> ShardPlan {
        let mut counts: BTreeMap<Geohash, usize> = BTreeMap::new();
        for post in corpus.posts() {
            if let Ok(cell) = encode(&post.location, geohash_len) {
                *counts.entry(cell).or_default() += 1;
            }
        }
        let cells: Vec<(Geohash, usize)> = counts.into_iter().collect();
        ShardPlan::balanced(&cells, n_shards)
    }

    /// Builds shard engines over `corpus` under an explicit `plan`, with a
    /// per-shard config hook (chaos tests hand one shard a fault-injecting
    /// metadata store). All configs must share the index geometry
    /// (`geohash_len`) of shard 0's.
    pub fn try_build_with(
        corpus: &Corpus,
        plan: ShardPlan,
        config_for: &dyn Fn(usize) -> EngineConfig,
    ) -> Result<Self, EngineError> {
        let n = plan.n_shards();
        let geohash_len = config_for(0).index.geohash_len;
        let mut shard_posts: Vec<Vec<Post>> = (0..n).map(|_| Vec::new()).collect();
        for post in corpus.posts() {
            // `encode` only fails on a bad length, which would fail the
            // index build identically; route defensively to shard 0.
            let sid = match encode(&post.location, geohash_len) {
                Ok(cell) => plan.shard_of(cell).0,
                Err(_) => 0,
            };
            shard_posts[sid].push(post.clone());
        }
        let mut engines = Vec::with_capacity(n);
        for (i, posts) in shard_posts.into_iter().enumerate() {
            let config = config_for(i);
            let (index, _) = build_index(&posts, &config.index);
            // Full corpus: shard metadata (φ, δ, recency) must be
            // bitwise-identical to the monolithic engine's.
            engines.push(TklusEngine::try_from_index(index, corpus, &config)?);
        }
        Ok(Self::assemble(engines, plan, geohash_len))
    }

    /// Assembles a sharded engine from already-built per-shard indexes
    /// (disk load, or hand-built overlapping shards in tests).
    pub fn try_from_indexes(
        indexes: Vec<HybridIndex>,
        plan: ShardPlan,
        corpus: &Corpus,
        config: &EngineConfig,
    ) -> Result<Self, ShardError> {
        if indexes.len() != plan.n_shards() {
            return Err(ShardError::Plan(format!(
                "plan has {} shards but {} indexes were provided",
                plan.n_shards(),
                indexes.len()
            )));
        }
        let geohash_len = config.index.geohash_len;
        let mut engines = Vec::with_capacity(indexes.len());
        for (i, index) in indexes.into_iter().enumerate() {
            if index.geohash_len() != geohash_len {
                return Err(ShardError::Plan(format!(
                    "shard {i} has geohash length {} but the config says {geohash_len}",
                    index.geohash_len()
                )));
            }
            engines.push(TklusEngine::try_from_index(index, corpus, config)?);
        }
        Ok(Self::assemble(engines, plan, geohash_len))
    }

    /// The router over `engines` (one per range of `plan`), each behind a
    /// fresh default breaker.
    fn assemble(engines: Vec<TklusEngine>, plan: ShardPlan, geohash_len: usize) -> Self {
        let shards = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| Shard {
                engine,
                breaker: Mutex::new(CircuitBreaker::new(
                    ShardId(i).to_string(),
                    BreakerConfig::default(),
                )),
            })
            .collect();
        Self {
            shards,
            plan,
            geohash_len,
            metrics: ShardMetrics::new(),
            epoch: Instant::now(),
            scatter_parallelism: default_scatter_parallelism(),
        }
    }

    /// Writes this engine's shards as a sharded (format v3) index
    /// directory.
    pub fn try_save_dir(&self, dir: &Path) -> Result<(), ShardError> {
        let indexes: Vec<&HybridIndex> = self.shards.iter().map(|s| s.engine.index()).collect();
        save_sharded_dir_refs(&indexes, self.plan.boundaries(), dir)?;
        Ok(())
    }

    /// Loads a sharded (format v3) or monolithic (v2, loaded as one shard)
    /// index directory and assembles the engines over `corpus`. File names
    /// the index loader does not know (earlier builds wrote a sidecar into
    /// each `shard-NNN/`) are ignored.
    pub fn try_load_dir(
        dir: &Path,
        corpus: &Corpus,
        config: &EngineConfig,
    ) -> Result<Self, ShardError> {
        let (indexes, boundaries, _report) = load_sharded_dir_with_report(dir)?;
        let plan = ShardPlan::from_boundaries(boundaries).map_err(ShardError::Plan)?;
        Self::try_from_indexes(indexes, plan, corpus, config)
    }

    /// Sets the scatter width (clamped to ≥ 1). `1` is the sequential
    /// scatter loop; the invariance oracle asserts the answer is identical
    /// at any width.
    pub fn with_scatter_parallelism(mut self, n: usize) -> Self {
        self.set_scatter_parallelism(n);
        self
    }

    /// In-place form of [`Self::with_scatter_parallelism`] (the invariance
    /// oracle re-queries one engine at several widths).
    pub fn set_scatter_parallelism(&mut self, n: usize) {
        self.scatter_parallelism = n.max(1);
    }

    /// Replaces every shard's circuit breaker with one using `cfg`.
    pub fn with_breaker_config(self, cfg: BreakerConfig) -> Self {
        for (i, shard) in self.shards.iter().enumerate() {
            *shard.breaker.lock() = CircuitBreaker::new(ShardId(i).to_string(), cfg);
        }
        self
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Direct access to one shard's engine (tests, introspection).
    pub fn shard_engine(&self, i: usize) -> &TklusEngine {
        &self.shards[i].engine
    }

    /// The breaker state of shard `i`.
    pub fn breaker_state(&self, i: usize) -> BreakerState {
        self.shards[i].breaker.lock().state()
    }

    /// Merged metric snapshot: the router's `tklus_shard_*` families plus
    /// every shard engine's registry (counters sum, histograms merge).
    pub fn metrics_snapshot(&self) -> tklus_metrics::RegistrySnapshot {
        let mut snap = self.metrics.snapshot();
        for shard in &self.shards {
            if let Some(s) = shard.engine.metrics_snapshot() {
                snap.merge(&s);
            }
        }
        snap
    }

    /// Answers `q` by scatter-gather. Infallible by construction: a shard
    /// failure (engine error or open breaker) degrades the result to a
    /// typed partial naming the shard, it never fails the query.
    ///
    /// One gather for both rankings: per-shard tid-ordered scored rows
    /// ([`TklusEngine::try_partial_sum`]), k-way merged with
    /// duplicate-tweet elimination into global tweet-id order (the
    /// monolithic fold order), then folded per user (`+=` or `max`),
    /// distance-blended and ranked by [`TklusEngine::try_rank_rows`].
    pub fn query(&self, q: &TklusQuery, ranking: Ranking) -> ShardedOutcome {
        let start = Instant::now();
        self.metrics.queries.inc();
        let mut parts = self.scatter(q);
        // The fold, distance blend and ranking run on the first healthy
        // shard's engine (every shard holds the full corpus metadata, so
        // any healthy one gives the monolithic bytes); if that too faults,
        // drop the shard and redo the merge without it (its rows must not
        // survive its failure).
        let (users, ranked_stats) = loop {
            let Some(&(rank_sid, _)) = parts.healthy.first() else {
                break (Vec::new(), QueryStats::default());
            };
            let merged = merge_sum_rows(parts.healthy.iter().map(|(_, p)| p.rows.as_slice()));
            match self.shards[rank_sid].engine.try_rank_rows(q, ranking, &merged) {
                Ok(ranked) => break ranked,
                Err(_) => {
                    let (sid, _) = parts.healthy.remove(0);
                    let mut breaker = self.shards[sid].breaker.lock();
                    breaker.record_failure(self.now_ms());
                    drop(breaker);
                    self.metrics.failed.inc();
                    parts.failed.push(ShardId(sid));
                }
            }
        };
        let mut out = parts.gathered(users, ranked_stats);
        out.stats.elapsed = start.elapsed();
        self.metrics.fanout.add(out.fanout as u64);
        if !out.completeness.is_complete() {
            self.metrics.degraded.inc();
        }
        out
    }

    /// The shards whose range intersects the query's circle cover, plus
    /// the cover size (the authoritative `cells_total`).
    fn fanout_for(&self, q: &TklusQuery) -> (Vec<usize>, usize) {
        let metric =
            self.shards.first().map_or_else(Default::default, |s| s.engine.scoring().metric);
        let cover = circle_cover(&q.location, q.radius_km, self.geohash_len, metric)
            .expect("engine geohash length is valid");
        let mut shards = BTreeSet::new();
        for &cell in &cover {
            shards.insert(self.plan.shard_of(cell).0);
        }
        (shards.into_iter().collect(), cover.len())
    }

    /// Asks shard `sid` for its scored rows behind its breaker; a typed
    /// engine failure is recorded against the breaker.
    fn dispatch(&self, sid: usize, q: &TklusQuery) -> Dispatched {
        let shard = &self.shards[sid];
        if shard.breaker.lock().try_grant(self.now_ms()).is_none() {
            self.metrics.failed.inc();
            return None;
        }
        let t0 = Instant::now();
        let result = shard.engine.try_partial_sum(q);
        self.metrics.latency.record_duration_us(t0.elapsed());
        let mut breaker = shard.breaker.lock();
        match &result {
            Ok(_) => breaker.record_success(self.now_ms()),
            Err(_) => {
                breaker.record_failure(self.now_ms());
                self.metrics.failed.inc();
            }
        }
        Some(result)
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Dispatches to every shard in `sids`, up to `scatter_parallelism`
    /// at a time on scoped worker threads. The result vector is indexed
    /// by position in `sids` — callers consume it in that order, so the
    /// merge order is identical to the sequential loop's no matter how
    /// the dispatches interleave in time.
    fn dispatch_all(&self, sids: &[usize], q: &TklusQuery) -> Vec<Dispatched> {
        let threads = self.scatter_parallelism.min(sids.len());
        if threads <= 1 {
            return sids.iter().map(|&sid| self.dispatch(sid, q)).collect();
        }
        // Outer `Option`: has a worker filled the slot yet.
        let slots: Vec<Mutex<Option<Dispatched>>> = sids.iter().map(|_| Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&sid) = sids.get(i) else { break };
                    let result = self.dispatch(sid, q);
                    *slots[i].lock() = Some(result);
                });
            }
        });
        slots.into_iter().map(|s| s.into_inner().expect("worker filled every slot")).collect()
    }

    /// The scatter: cover → intersecting shards → each one's rows behind
    /// its breaker → the answers split into healthy and failed. Dispatch
    /// is concurrent but collection is by fanout position, so `healthy`
    /// is in ascending shard order exactly as a sequential loop builds it
    /// and the merge downstream is independent of the scatter width.
    fn scatter(&self, q: &TklusQuery) -> Scattered {
        let (fanout, cells_total) = self.fanout_for(q);
        let mut healthy = Vec::new();
        let mut failed = Vec::new();
        for (&sid, result) in fanout.iter().zip(self.dispatch_all(&fanout, q)) {
            match result {
                Some(Ok(part)) => healthy.push((sid, part)),
                Some(Err(_)) | None => failed.push(ShardId(sid)),
            }
        }
        Scattered { healthy, failed, fanout: fanout.len(), cells_total }
    }
}

/// What one scatter collected, in fanout (ascending shard) order.
struct Scattered {
    healthy: Vec<(usize, PartialSumOutcome)>,
    failed: Vec<ShardId>,
    fanout: usize,
    cells_total: usize,
}

impl Scattered {
    /// The merged outcome around `users`: work tallies summed over the
    /// healthy partials and the ranking (`ranked`, what
    /// [`TklusEngine::try_rank_rows`] cost), and completeness folded over
    /// the healthy partials.
    fn gathered(self, users: Vec<RankedUser>, ranked: QueryStats) -> ShardedOutcome {
        let mut stats = ranked;
        for (_, p) in &self.healthy {
            merge_stats(&mut stats, &p.stats);
        }
        let completeness = consensus(
            self.failed,
            self.healthy.iter().map(|(_, p)| &p.completeness),
            self.cells_total,
        );
        ShardedOutcome {
            users,
            stats,
            completeness,
            fanout: self.fanout,
            skipped_by_bound: Vec::new(),
        }
    }
}

/// Folds per-shard completeness and the failed-shard list into the merged
/// verdict. Budget `cells_processed` merges conservatively (minimum across
/// shards); `cells_total` is the router's own cover size.
fn consensus<'a>(
    failed: Vec<ShardId>,
    parts: impl Iterator<Item = &'a Completeness>,
    cells_total: usize,
) -> ShardCompleteness {
    let mut budget_degraded = false;
    let mut min_processed = usize::MAX;
    for part in parts {
        if let Completeness::Degraded { cells_processed, .. } = part {
            budget_degraded = true;
            min_processed = min_processed.min(*cells_processed);
        }
    }
    if failed.is_empty() && !budget_degraded {
        return ShardCompleteness::Complete;
    }
    ShardCompleteness::Degraded {
        failed_shards: failed,
        cells_processed: if budget_degraded { min_processed } else { cells_total },
        cells_total,
    }
}

/// Sums one shard's work tallies into the merged stats. `cover_cells` is
/// the max (every shard resolves the same cover); durations add.
fn merge_stats(total: &mut QueryStats, s: &QueryStats) {
    total.cover_cells = total.cover_cells.max(s.cover_cells);
    total.lists_fetched += s.lists_fetched;
    total.dfs_bytes += s.dfs_bytes;
    total.candidates += s.candidates;
    total.in_radius += s.in_radius;
    total.threads_built += s.threads_built;
    total.threads_pruned += s.threads_pruned;
    total.metadata_page_reads += s.metadata_page_reads;
    total.stages.cover += s.stages.cover;
    total.stages.fetch += s.stages.fetch;
    total.stages.combine += s.stages.combine;
    total.stages.threads += s.stages.threads;
    total.stages.scoring += s.stages.scoring;
    total.stages.topk += s.stages.topk;
}
