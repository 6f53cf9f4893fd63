//! The sharded scatter-gather engine.
//!
//! [`ShardedEngine`] owns `N` independent [`TklusEngine`]s, each holding
//! the inverted index of one contiguous geohash-prefix range of the corpus
//! (the [`ShardPlan`]). A query is answered by:
//!
//! 1. computing the circle cover once and fanning out only to shards whose
//!    range intersects it,
//! 2. for Maximum-score ranking, ordering shards by their Definition 11
//!    upper bound and **skipping** any shard whose best possible user score
//!    cannot beat the running global k-th bound,
//! 3. merging per-shard partials into the global top-k — a tid-ordered
//!    k-way merge with duplicate-tweet elimination for Sum, a per-user
//!    float max for Max.
//!
//! Every shard dispatch runs behind its own circuit breaker (the serving
//! layer's [`CircuitBreaker`]); a faulted shard degrades the result to a
//! typed partial ([`ShardCompleteness::Degraded`] naming the failed
//! shards) instead of failing the query.
//!
//! ## Why sharded answers are bitwise-identical to monolithic ones
//!
//! Each shard engine is assembled from its own per-range index but the
//! **full** corpus metadata, so thread popularity φ, recency, distance
//! score δ, and the bounds table inputs are computed from exactly the same
//! bytes as the monolithic engine's. All postings of a tweet live in the
//! single cell of its location, so AND/OR combination never crosses a
//! shard boundary. For Sum, the router re-folds per-tweet scores in global
//! tweet-id order — the same order the monolithic fold uses — so the float
//! sums associate identically. For Max, the per-user maximum is
//! order-independent. The final ranking uses the engine's own
//! [`top_k`] comparator.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::Instant;

use parking_lot::Mutex;
use tklus_core::score::{tweet_keyword_score, upper_bound_user_score, user_score};
use tklus_core::{
    merge_sum_rows, top_k, BoundsMode, Completeness, EngineConfig, EngineError, PartialSumOutcome,
    QueryStats, RankedUser, Ranking, TklusEngine,
};
use tklus_geo::{circle_cover, encode, Geohash};
use tklus_graph::{build_thread, SocialNetwork};
use tklus_index::{
    build_index, load_sharded_dir_with_report, save_sharded_dir_refs, shard_dir_name, HybridIndex,
    PersistError,
};
use tklus_model::{Corpus, Post, ScoringConfig, Semantics, TklusQuery, UserId};
use tklus_serve::{BreakerConfig, BreakerState, CircuitBreaker};
use tklus_text::{TermId, TextPipeline, Vocab};

use crate::metrics::ShardMetrics;
use crate::plan::{ShardId, ShardPlan};

/// One parallel-scatter result slot: outer `Option` is "worker filled
/// it yet", inner is `dispatch`'s breaker-refusal signal.
type ScatterSlot<T> = Mutex<Option<Option<Result<T, EngineError>>>>;

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
    /// Work tallies summed across dispatched shards (`cover_cells` is the
    /// max, since every shard walks the same cover; `elapsed` is the
    /// router's wall clock).
    pub stats: QueryStats,
    /// Whether the answer is exact or a typed partial.
    pub completeness: ShardCompleteness,
    /// Shards the router attempted to dispatch (cover intersection minus
    /// bound-skipped shards, including failed dispatches).
    pub fanout: usize,
    /// Shards whose Definition 11 upper bound proved they cannot affect
    /// the top-k (Maximum-score ranking only). Sorted.
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

/// Per-term Definition 11 refinement for one shard: for every term in the
/// shard's vocabulary, the largest single-term contribution
/// `count_t(post) / N · φ(post)` any of the shard's posts can make to a
/// Maximum-score ρ, with φ built over **full-network** threads so it
/// equals the value the engine computes at query time. A query's ρ on
/// this shard is at most the sum of its resolved terms' entries (a term
/// absent from a post contributes zero occurrences), recency and the
/// distance score are each at most 1, so `α · Σ + (1 − α)` dominates
/// every user score the shard can produce — under both bounds modes, and
/// far tighter than `max_tf × corpus-wide popularity bound`, whose inputs
/// are identical across shards and therefore can never separate them.
struct ShardBoundTable {
    per_term: HashMap<TermId, f64>,
}

impl ShardBoundTable {
    fn compute(
        posts: &[Post],
        network: &SocialNetwork,
        vocab: &Vocab,
        config: &ScoringConfig,
    ) -> Self {
        let pipeline = TextPipeline::new();
        let mut per_term: HashMap<TermId, f64> = HashMap::new();
        for post in posts {
            let mut counts: HashMap<TermId, u32> = HashMap::new();
            for term in pipeline.terms(&post.text) {
                if let Some(id) = vocab.get(&term) {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
            if counts.is_empty() {
                continue;
            }
            let mut provider = network;
            let phi = build_thread(&mut provider, post.id, config.thread_depth)
                .popularity(config.epsilon);
            for (id, count) in counts {
                let contribution = tweet_keyword_score(count, phi, config);
                let entry = per_term.entry(id).or_insert(0.0);
                if contribution > *entry {
                    *entry = contribution;
                }
            }
        }
        Self { per_term }
    }

    /// Upper bound on the shard's Maximum-score ρ for `terms` (resolved
    /// against the shard's own vocabulary, so every term has an entry; a
    /// missing one means no shard post contains it and bounds it by zero).
    fn rho_bound(&self, terms: &[TermId]) -> f64 {
        terms.iter().map(|t| self.per_term.get(t).copied().unwrap_or(0.0)).sum()
    }

    /// The `bounds.tsv` sidecar body: format line, the shard's `max_tf`,
    /// then one `term` line per vocabulary term, id-sorted, with the f64
    /// bound as hex bits so a round trip is bit-exact.
    fn encode_tsv(&self, max_tf: u32) -> String {
        let mut entries: Vec<(u32, f64)> = self.per_term.iter().map(|(t, b)| (t.0, *b)).collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        let mut out = format!("format\t{BOUNDS_FORMAT_VERSION}\nmax_tf\t{max_tf}\n");
        for (term, bound) in entries {
            out.push_str(&format!("term\t{term}\t{:016x}\n", bound.to_bits()));
        }
        out
    }

    /// Parses a `bounds.tsv` body. Strict: an unknown key, a malformed
    /// value, a missing header, or a non-finite/negative bound is corrupt —
    /// an unsound table would silently skip shards that matter.
    fn decode_tsv(text: &str) -> Result<(Self, u32), String> {
        let mut format: Option<u32> = None;
        let mut max_tf: Option<u32> = None;
        let mut per_term: HashMap<TermId, f64> = HashMap::new();
        for line in text.lines() {
            let mut fields = line.split('\t');
            match (fields.next(), fields.next(), fields.next(), fields.next()) {
                (Some("format"), Some(v), None, None) => {
                    format = Some(v.parse().map_err(|_| format!("bad format line {line:?}"))?);
                }
                (Some("max_tf"), Some(v), None, None) => {
                    max_tf = Some(v.parse().map_err(|_| format!("bad max_tf line {line:?}"))?);
                }
                (Some("term"), Some(t), Some(bits), None) => {
                    let term: u32 = t.parse().map_err(|_| format!("bad term id in {line:?}"))?;
                    let bits = u64::from_str_radix(bits, 16)
                        .map_err(|_| format!("bad bits in {line:?}"))?;
                    let bound = f64::from_bits(bits);
                    if !bound.is_finite() || bound < 0.0 {
                        return Err(format!("bound for term {term} is not a finite non-negative"));
                    }
                    if per_term.insert(TermId(term), bound).is_some() {
                        return Err(format!("duplicate term {term}"));
                    }
                }
                _ => return Err(format!("unknown bounds line {line:?}")),
            }
        }
        match format {
            Some(BOUNDS_FORMAT_VERSION) => {}
            Some(v) => return Err(format!("bounds format {v}, expected {BOUNDS_FORMAT_VERSION}")),
            None => return Err("missing bounds format line".to_string()),
        }
        let max_tf = max_tf.ok_or_else(|| "missing max_tf line".to_string())?;
        Ok((Self { per_term }, max_tf))
    }
}

/// Format version of the per-shard `bounds.tsv` sidecar.
const BOUNDS_FORMAT_VERSION: u32 = 1;

/// The per-shard Definition 11 sidecar file name, stored inside each
/// `shard-NNN/` subdirectory next to the v2 index files (whose loader
/// ignores unknown file names, so pre-sidecar readers stay compatible).
pub const SHARD_BOUNDS_FILE: &str = "bounds.tsv";

struct Shard {
    engine: TklusEngine,
    /// Maximum token count of any post in this shard — an upper bound on
    /// the matched keyword occurrences of any tweet the shard can score.
    max_tf: u32,
    /// Definition 11 bounds specialized to this shard (see
    /// [`ShardBoundTable`]). `None` for shard sets whose exact post
    /// membership is unknown (loaded or hand-assembled via
    /// [`ShardedEngine::try_from_indexes`], where shards may overlap);
    /// those fall back to `max_tf` times the engine's corpus-wide table,
    /// which is always sound.
    bounds: Option<ShardBoundTable>,
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
    /// Definition 11 shard skipping (on by default; tests disable it to
    /// prove skipping never changes the answer).
    bound_skip: bool,
    /// Scatter width: how many shard dispatches run concurrently on
    /// scoped worker threads. `1` reproduces the sequential scatter
    /// exactly; any value yields identical answers (see the module doc —
    /// merge order is fixed by fanout position, and Definition 11 skips
    /// are exact), only the skip/fanout *accounting* may differ for
    /// Maximum-score ranking because the k-th floor is frozen per wave.
    scatter_parallelism: usize,
}

/// Default scatter width: one dispatch thread per available core.
fn default_scatter_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ShardedEngine {
    /// Builds `n_shards` shard engines over `corpus` with a mass-balanced
    /// plan, every shard using `config` (each gets its own buffer pool,
    /// caches, and metric registry).
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
        let pipeline = TextPipeline::new();
        let mut shard_posts: Vec<Vec<Post>> = (0..n).map(|_| Vec::new()).collect();
        let mut max_tfs = vec![0u32; n];
        for post in corpus.posts() {
            // `encode` only fails on a bad length, which would fail the
            // index build identically; route defensively to shard 0.
            let sid = match encode(&post.location, geohash_len) {
                Ok(cell) => plan.shard_of(cell).0,
                Err(_) => 0,
            };
            max_tfs[sid] = max_tfs[sid].max(pipeline.terms(&post.text).len() as u32);
            shard_posts[sid].push(post.clone());
        }
        // One full-corpus network for the shard-local bounds: replies to a
        // shard's tweets live wherever they were posted, so φ must be
        // computed over full threads to match query-time values.
        let network = SocialNetwork::from_corpus(corpus);
        let mut shards = Vec::with_capacity(n);
        for (i, posts) in shard_posts.into_iter().enumerate() {
            let config = config_for(i);
            let (index, _) = build_index(&posts, &config.index);
            // Full corpus: shard metadata (φ, δ, recency, bounds inputs)
            // must be bitwise-identical to the monolithic engine's.
            let engine = TklusEngine::try_from_index(index, corpus, &config)?;
            // Shard-local Definition 11 table over exactly the posts this
            // shard indexes: every (term, tweet) the shard can match comes
            // from one of these posts, so the per-term maxima dominate
            // every ρ contribution the shard's scorer will see.
            let bounds = Some(ShardBoundTable::compute(
                &posts,
                &network,
                engine.index().vocab(),
                engine.scoring(),
            ));
            shards.push(Shard {
                engine,
                max_tf: max_tfs[i],
                bounds,
                breaker: Mutex::new(CircuitBreaker::new(
                    ShardId(i).to_string(),
                    BreakerConfig::default(),
                )),
            });
        }
        Ok(Self {
            shards,
            plan,
            geohash_len,
            metrics: ShardMetrics::new(),
            epoch: Instant::now(),
            bound_skip: true,
            scatter_parallelism: default_scatter_parallelism(),
        })
    }

    /// Assembles a sharded engine from already-built per-shard indexes
    /// (disk load, or hand-built overlapping shards in tests). `max_tf` is
    /// bounded from the full corpus, which stays sound for any index
    /// content.
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
        let pipeline = TextPipeline::new();
        let corpus_max_tf =
            corpus.posts().iter().map(|p| pipeline.terms(&p.text).len() as u32).max().unwrap_or(0);
        let geohash_len = config.index.geohash_len;
        let mut shards = Vec::with_capacity(indexes.len());
        for (i, index) in indexes.into_iter().enumerate() {
            if index.geohash_len() != geohash_len {
                return Err(ShardError::Plan(format!(
                    "shard {i} has geohash length {} but the config says {geohash_len}",
                    index.geohash_len()
                )));
            }
            let engine = TklusEngine::try_from_index(index, corpus, config)?;
            shards.push(Shard {
                engine,
                max_tf: corpus_max_tf,
                // Membership is only known index-side here (shards may
                // overlap); the corpus-wide table is the sound fallback.
                bounds: None,
                breaker: Mutex::new(CircuitBreaker::new(
                    ShardId(i).to_string(),
                    BreakerConfig::default(),
                )),
            });
        }
        Ok(Self {
            shards,
            plan,
            geohash_len,
            metrics: ShardMetrics::new(),
            epoch: Instant::now(),
            bound_skip: true,
            scatter_parallelism: default_scatter_parallelism(),
        })
    }

    /// Writes this engine's shards as a sharded (format v3) index
    /// directory, each shard's Definition 11 bound table riding along as a
    /// `bounds.tsv` sidecar in its `shard-NNN/` subdirectory (shards
    /// without an exact-membership table — hand-assembled overlapping
    /// sets — simply omit the sidecar). [`Self::try_load_dir`] restores
    /// the tables bit-exactly, so a reloaded engine skips shards exactly
    /// as the builder did instead of falling back to the loose
    /// `max_tf × corpus bound`.
    pub fn try_save_dir(&self, dir: &Path) -> Result<(), ShardError> {
        let indexes: Vec<&HybridIndex> = self.shards.iter().map(|s| s.engine.index()).collect();
        save_sharded_dir_refs(&indexes, self.plan.boundaries(), dir)?;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(table) = &shard.bounds {
                let path = dir.join(shard_dir_name(i)).join(SHARD_BOUNDS_FILE);
                std::fs::write(&path, table.encode_tsv(shard.max_tf))
                    .map_err(|e| ShardError::Persist(PersistError::Io(e)))?;
            }
        }
        Ok(())
    }

    /// Loads a sharded (format v3) or monolithic (v2, loaded as one shard)
    /// index directory and assembles the engines over `corpus`. Shards
    /// carrying a `bounds.tsv` sidecar get their persisted Definition 11
    /// table (and exact per-shard `max_tf`) back; shards without one keep
    /// the sound corpus-wide fallback.
    pub fn try_load_dir(
        dir: &Path,
        corpus: &Corpus,
        config: &EngineConfig,
    ) -> Result<Self, ShardError> {
        let (indexes, boundaries, _report) = load_sharded_dir_with_report(dir)?;
        let plan = ShardPlan::from_boundaries(boundaries).map_err(ShardError::Plan)?;
        let mut engine = Self::try_from_indexes(indexes, plan, corpus, config)?;
        for (i, shard) in engine.shards.iter_mut().enumerate() {
            let path = dir.join(shard_dir_name(i)).join(SHARD_BOUNDS_FILE);
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(ShardError::Persist(PersistError::Io(e))),
            };
            let (table, max_tf) = ShardBoundTable::decode_tsv(&text).map_err(|msg| {
                ShardError::Persist(PersistError::Corrupt(format!(
                    "{}/{SHARD_BOUNDS_FILE}: {msg}",
                    shard_dir_name(i)
                )))
            })?;
            shard.bounds = Some(table);
            shard.max_tf = max_tf;
        }
        Ok(engine)
    }

    /// Disables (or re-enables) Definition 11 shard skipping. Used by the
    /// bound-soundness tests to prove skipping never changes the answer.
    pub fn with_bound_skip(mut self, on: bool) -> Self {
        self.bound_skip = on;
        self
    }

    /// Sets the scatter width (clamped to ≥ 1). `1` reproduces the
    /// sequential scatter loop exactly; the invariance oracle asserts the
    /// answer is identical at any width.
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

    /// The Definition 11 upper bound on any user score shard `sid` can
    /// produce for `q`: its maximum per-post token count (≥ any tweet's
    /// matched keyword occurrences) against the shard's popularity bound,
    /// with distance score and recency bounded by 1. `0` when the shard's
    /// vocabulary cannot produce a candidate at all.
    pub fn shard_upper_bound(&self, sid: usize, q: &TklusQuery, mode: BoundsMode) -> f64 {
        let shard = &self.shards[sid];
        let engine = &shard.engine;
        if q.semantics == Semantics::And
            && engine.resolve_keywords(&q.keywords).iter().any(Option::is_none)
        {
            return 0.0;
        }
        let terms = engine.resolve_query_terms(&q.keywords);
        if terms.is_empty() {
            return 0.0;
        }
        if let Some(table) = &shard.bounds {
            // Tight path: per-term shard maxima already include the
            // occurrence count, so no `max_tf` factor. Sound under both
            // bounds modes (`mode` only picks how loose the fallback is).
            return user_score(table.rho_bound(&terms), 1.0, engine.scoring());
        }
        let pop_bound = engine.bounds().query_bound(&terms, q.semantics, mode);
        upper_bound_user_score(shard.max_tf, pop_bound, engine.scoring())
    }

    /// Answers `q` by scatter-gather. Infallible by construction: a shard
    /// failure (engine error or open breaker) degrades the result to a
    /// typed partial naming the shard, it never fails the query.
    pub fn query(&self, q: &TklusQuery, ranking: Ranking) -> ShardedOutcome {
        let start = Instant::now();
        self.metrics.queries.inc();
        let (fanout, cells_total) = self.fanout_for(q);
        let mut out = match ranking {
            Ranking::Sum => self.scatter_sum(q, &fanout, cells_total),
            Ranking::Max(mode) => self.scatter_max(q, mode, &fanout, cells_total),
        };
        out.stats.elapsed = start.elapsed();
        self.metrics.fanout.add(out.fanout as u64);
        self.metrics.skipped_bound.add(out.skipped_by_bound.len() as u64);
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

    /// Dispatches `f` against shard `sid` behind its breaker. `None` means
    /// the breaker refused; `Some(Err)` a typed engine failure (recorded
    /// against the breaker).
    fn dispatch<T>(
        &self,
        sid: usize,
        f: impl FnOnce(&TklusEngine) -> Result<T, EngineError>,
    ) -> Option<Result<T, EngineError>> {
        let shard = &self.shards[sid];
        if shard.breaker.lock().try_grant(self.now_ms()).is_none() {
            self.metrics.failed.inc();
            return None;
        }
        let t0 = Instant::now();
        let result = f(&shard.engine);
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

    /// Dispatches `f` against every shard in `sids`, up to
    /// `scatter_parallelism` at a time on scoped worker threads. The
    /// result vector is indexed by position in `sids` — callers consume it
    /// in that order, so the merge order is identical to the sequential
    /// loop's no matter how the dispatches interleave in time.
    fn dispatch_all<T: Send>(
        &self,
        sids: &[usize],
        f: &(dyn Fn(&TklusEngine) -> Result<T, EngineError> + Sync),
    ) -> Vec<Option<Result<T, EngineError>>> {
        let threads = self.scatter_parallelism.min(sids.len());
        if threads <= 1 {
            return sids.iter().map(|&sid| self.dispatch(sid, f)).collect();
        }
        let slots: Vec<ScatterSlot<T>> = sids.iter().map(|_| Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&sid) = sids.get(i) else { break };
                    let result = self.dispatch(sid, f);
                    *slots[i].lock() = Some(result);
                });
            }
        });
        slots.into_iter().map(|s| s.into_inner().expect("worker filled every slot")).collect()
    }

    /// Sum-score scatter-gather: per-shard tid-ordered partial rows, k-way
    /// merged with duplicate-tweet elimination into global tweet-id order
    /// (the monolithic fold order), then folded, distance-blended and
    /// ranked by [`TklusEngine::try_rank_sum_rows`].
    fn scatter_sum(&self, q: &TklusQuery, fanout: &[usize], cells_total: usize) -> ShardedOutcome {
        let mut failed: Vec<ShardId> = Vec::new();
        let mut healthy: Vec<(usize, PartialSumOutcome)> = Vec::new();
        // Concurrent dispatch, position-ordered collection: `healthy` ends
        // up in fanout order exactly as the sequential loop built it, so
        // the k-way merge (and therefore the float fold) is unchanged.
        for (&sid, result) in
            fanout.iter().zip(self.dispatch_all(fanout, &|e| e.try_partial_sum(q)))
        {
            match result {
                Some(Ok(p)) => healthy.push((sid, p)),
                Some(Err(_)) | None => failed.push(ShardId(sid)),
            }
        }

        // The fold, distance blend and ranking run on the first healthy
        // shard's engine (every shard holds the full corpus metadata, so
        // any healthy one gives the monolithic bytes); if that too faults,
        // drop the shard and redo the merge without it (its rows must not
        // survive its failure).
        let users: Vec<RankedUser> = loop {
            let Some(&(rank_sid, _)) = healthy.first() else { break Vec::new() };
            let merged = merge_sum_rows(healthy.iter().map(|(_, p)| p.rows.as_slice()));
            match self.shards[rank_sid].engine.try_rank_sum_rows(q, &merged) {
                Ok(users) => break users,
                Err(_) => {
                    let (sid, _) = healthy.remove(0);
                    let mut breaker = self.shards[sid].breaker.lock();
                    breaker.record_failure(self.now_ms());
                    drop(breaker);
                    self.metrics.failed.inc();
                    failed.push(ShardId(sid));
                }
            }
        };

        let mut stats = QueryStats::default();
        for (_, p) in &healthy {
            merge_stats(&mut stats, &p.stats);
        }
        let completeness =
            consensus(failed, healthy.iter().map(|(_, p)| &p.completeness), cells_total);
        ShardedOutcome {
            users,
            stats,
            completeness,
            fanout: fanout.len(),
            skipped_by_bound: Vec::new(),
        }
    }

    /// Maximum-score scatter-gather: dispatch in descending Definition 11
    /// upper-bound order, skip every shard whose bound cannot beat the
    /// running k-th best, merge per-user maxima.
    fn scatter_max(
        &self,
        q: &TklusQuery,
        mode: BoundsMode,
        fanout: &[usize],
        cells_total: usize,
    ) -> ShardedOutcome {
        let mut order: Vec<(usize, f64)> =
            fanout.iter().map(|&sid| (sid, self.shard_upper_bound(sid, q, mode))).collect();
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("upper bounds are finite").then(a.0.cmp(&b.0))
        });

        let mut best: HashMap<UserId, f64> = HashMap::new();
        let mut failed: Vec<ShardId> = Vec::new();
        let mut skipped: Vec<ShardId> = Vec::new();
        let mut partial_completeness: Vec<Completeness> = Vec::new();
        let mut stats = QueryStats::default();
        let mut dispatched = 0usize;
        // Dispatch the bound-ordered list in waves of `scatter_parallelism`
        // shards. The k-th floor is frozen while a wave is being assembled
        // and refreshed between waves — at width 1 that is exactly the
        // sequential loop (the floor only ever changes after a dispatch).
        // Wider waves may dispatch a shard the sequential loop would have
        // skipped, but a skip is only ever taken when the bound *proves*
        // the shard cannot affect the top-k, so the merged answer is
        // identical at any width; only the skip/fanout tallies move.
        let mut i = 0usize;
        while i < order.len() {
            let floor = if self.bound_skip { kth_floor(&best, q.k) } else { None };
            let mut wave: Vec<usize> = Vec::new();
            while i < order.len() && wave.len() < self.scatter_parallelism {
                let (sid, upper) = order[i];
                i += 1;
                if floor.is_some_and(|floor| {
                    // Same comparison the monolithic prune uses
                    // (`upper <= kth`): a shard tying the floor cannot
                    // strictly displace the k-th user.
                    upper <= floor
                }) {
                    skipped.push(ShardId(sid));
                    continue;
                }
                wave.push(sid);
            }
            dispatched += wave.len();
            let results = self.dispatch_all(&wave, &|e| e.try_query(q, Ranking::Max(mode)));
            for (&sid, result) in wave.iter().zip(results) {
                match result {
                    Some(Ok(out)) => {
                        for ru in &out.users {
                            let entry = best.entry(ru.user).or_insert(f64::NEG_INFINITY);
                            if ru.score > *entry {
                                *entry = ru.score;
                            }
                        }
                        merge_stats(&mut stats, &out.stats);
                        partial_completeness.push(out.completeness);
                    }
                    Some(Err(_)) | None => failed.push(ShardId(sid)),
                }
            }
        }
        skipped.sort();
        failed.sort();
        let users =
            best.into_iter().map(|(user, score)| RankedUser { user, score }).collect::<Vec<_>>();
        let completeness = consensus(failed, partial_completeness.iter(), cells_total);
        ShardedOutcome {
            users: top_k(users, q.k),
            stats,
            completeness,
            fanout: dispatched,
            skipped_by_bound: skipped,
        }
    }
}

/// The current global k-th best user score, or `None` while fewer than `k`
/// users have been merged. Ordering matches [`top_k`]: score descending,
/// user id ascending.
fn kth_floor(best: &HashMap<UserId, f64>, k: usize) -> Option<f64> {
    if k == 0 || best.len() < k {
        return None;
    }
    let ranked: Vec<RankedUser> =
        best.iter().map(|(&user, &score)| RankedUser { user, score }).collect();
    top_k(ranked, k).last().map(|ru| ru.score)
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
    total.cover_cache_hits += s.cover_cache_hits;
    total.cover_cache_misses += s.cover_cache_misses;
    total.postings_cache_hits += s.postings_cache_hits;
    total.postings_cache_misses += s.postings_cache_misses;
    total.thread_cache_hits += s.thread_cache_hits;
    total.thread_cache_misses += s.thread_cache_misses;
    total.deadline_polls_saved += s.deadline_polls_saved;
    total.stages.cover += s.stages.cover;
    total.stages.fetch += s.stages.fetch;
    total.stages.combine += s.stages.combine;
    total.stages.threads += s.stages.threads;
    total.stages.scoring += s.stages.scoring;
    total.stages.topk += s.stages.topk;
}
