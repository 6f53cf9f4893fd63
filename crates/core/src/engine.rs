//! The end-to-end TkLUS engine: Figure 3's system in one object.
//!
//! An engine is its hybrid index (Algorithms 2/3, built by one sort)
//! and its metadata database, and nothing else. [`TklusEngine::query`]
//! answers either ranking with one algorithm: Algorithm 4's scored rows,
//! folded per user by `+=` (Sum) or `max` (Max). Algorithm 5, the
//! paper's pruned Max, is [`TklusEngine::try_query_max`]: the caller
//! passes the Section V-B bounds it precomputed with
//! [`BoundsTable::precompute`]. The figure harness and the tests call it;
//! no product path does.
//!
//! `build` and `query` come in two flavours (DESIGN.md §10): a `try_*`
//! method that threads typed [`EngineError`]s up from the storage and
//! index layers, and the historical panicking method, now a thin wrapper
//! — appropriate when the engine runs over the default in-memory stores,
//! which never fail. Everything else is `try_*` only.

use crate::bounds::{BoundsMode, BoundsTable};
use crate::error::EngineError;
use crate::metadata::{LiveMetadata, MetadataDb, MetadataStoreFactory};
use crate::obs::EngineMetrics;
use crate::query::{
    max,
    sum::{try_query_sum, try_rank_rows, try_score_candidates, try_sum_rows},
    Completeness, PartialSumOutcome, QueryContext, QueryOutcome, QueryStats, RankedUser,
    StageClock, SumRow,
};
use std::time::Instant;
use tklus_index::{build_index, HybridIndex, IndexBuildConfig, IndexBuildReport};
use tklus_metrics::RegistrySnapshot;
use tklus_model::{Corpus, ScoringConfig, Semantics, TklusQuery, TweetId};
use tklus_text::{TermId, TextPipeline};

/// How users are ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ranking {
    /// Sum-score ranking (Definition 7).
    Sum,
    /// Maximum-score ranking (Definition 8). The [`BoundsMode`] changes
    /// neither the answer nor the cost of [`TklusEngine::try_query`],
    /// which folds unpruned rows; it stays because the frozen
    /// `benchmark/` harness constructs it. Algorithm 5 takes its mode
    /// through [`TklusEngine::try_query_max`].
    Max(BoundsMode),
}

/// What a query body returns before the outcome struct is assembled:
/// the answer (ranked users or scored rows), its cost, its completeness.
type Answer<T> = (T, QueryStats, Completeness);

/// Entry budgets of the deleted query-memo layers. Never read: the
/// engine has no cache (DESIGN.md §9). The fields survive only because
/// the frozen `benchmark/` harness prints them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Never read.
    pub cover: usize,
    /// Never read.
    pub postings: usize,
    /// Never read.
    pub thread: usize,
}

/// Engine build configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Hybrid index build parameters.
    pub index: IndexBuildConfig,
    /// Scoring parameters (α, ε, N, thread depth, metric).
    pub scoring: ScoringConfig,
    /// Never read: the metadata trees read every page from their store,
    /// with "database caches … set off" as in the paper (DESIGN.md §9).
    /// The field survives only because the frozen `benchmark/` harness
    /// prints it and passes it on.
    pub cache_pages: usize,
    /// Number of hot keywords a caller of [`BoundsTable::precompute`]
    /// builds Section VI-B5 bounds for (the paper uses the top-10 of
    /// Table II). The engine never reads it: only callers that build a
    /// [`BoundsTable`] for [`TklusEngine::try_query_max`] do.
    pub hot_keywords: usize,
    /// Never read: a query runs on the calling thread, and requests are
    /// the unit of parallelism (DESIGN.md §8). The field survives only
    /// because the frozen `benchmark/` harness prints it.
    pub parallelism: usize,
    /// Never read (see [`CacheConfig`]); the field survives only because
    /// the frozen `benchmark/` harness prints it.
    pub caches: CacheConfig,
    /// The page store under the metadata database's checksum layer
    /// (`None` = the default in-memory pager). Chaos tests substitute a
    /// fault-injecting stack here; everything above it is unchanged.
    pub metadata_store: Option<MetadataStoreFactory>,
    /// Operational telemetry (DESIGN.md §12): per-query stage timings in
    /// `QueryStats::stages` and aggregation into the engine's metric
    /// registry ([`TklusEngine::metrics_snapshot`]). On by default — the
    /// `obs_overhead` bench holds the cost under a 2% median-latency
    /// budget; `false` skips every clock read and registry touch.
    pub metrics: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            index: IndexBuildConfig::default(),
            scoring: ScoringConfig::default(),
            cache_pages: 0,
            hot_keywords: 10,
            parallelism: 1,
            caches: CacheConfig::default(),
            metadata_store: None,
            metrics: true,
        }
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("index", &self.index)
            .field("scoring", &self.scoring)
            .field("cache_pages", &self.cache_pages)
            .field("hot_keywords", &self.hot_keywords)
            .field("parallelism", &self.parallelism)
            .field("caches", &self.caches)
            .field("metadata_store", &self.metadata_store.as_ref().map(|_| "<factory>"))
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// The assembled system.
///
/// ```
/// use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
/// use tklus_geo::Point;
/// use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};
///
/// let here = Point::new_unchecked(43.7, -79.4);
/// let corpus = Corpus::new(vec![
///     Post::original(TweetId(1), UserId(9), here, "I'm at the Clarion Hotel"),
/// ]).unwrap();
/// let (engine, _report) = TklusEngine::build(&corpus, &EngineConfig::default());
///
/// let q = TklusQuery::new(here, 10.0, vec!["hotel".into()], 5, Semantics::Or).unwrap();
/// let (top, _stats) = engine.query(&q, Ranking::Max(BoundsMode::HotKeywords));
/// assert_eq!(top[0].user, UserId(9));
/// ```
///
/// Queries take `&self`: the metadata B⁺-trees and the index are never
/// written after the build, so one engine can serve many client threads
/// at once.
pub struct TklusEngine {
    index: HybridIndex,
    db: MetadataDb,
    pipeline: TextPipeline,
    scoring: ScoringConfig,
    /// `Some` when built with `EngineConfig::metrics` (the default).
    obs: Option<EngineMetrics>,
}

// The whole point of the `&self` query API: one engine, many client
// threads. Breaking this bound is a compile error, not a runtime surprise.
const fn _assert_engine_is_shareable<T: Send + Sync>() {}
const _: () = _assert_engine_is_shareable::<TklusEngine>();

impl TklusEngine {
    /// Builds the engine from a corpus; returns it with the index build
    /// report. Panics on storage failure (impossible over the default
    /// in-memory stores); see [`Self::try_build`].
    pub fn build(corpus: &Corpus, config: &EngineConfig) -> (Self, IndexBuildReport) {
        match Self::try_build(corpus, config) {
            Ok(built) => built,
            Err(e) => panic!("engine build failed: {e}"),
        }
    }

    /// Fallible [`Self::build`]: a storage failure while bulk-loading the
    /// metadata database surfaces as a typed error.
    pub fn try_build(
        corpus: &Corpus,
        config: &EngineConfig,
    ) -> Result<(Self, IndexBuildReport), EngineError> {
        config.scoring.validate().expect("valid scoring config");
        let (index, report) = build_index(corpus.posts(), &config.index);
        Ok((Self::try_assemble(index, corpus, config)?, report))
    }

    /// Assembles an engine from a pre-built (e.g. loaded-from-disk) hybrid
    /// index plus the corpus it was built over. Skips the index build
    /// and loads the metadata database — matching Figure 3's architecture
    /// where the index is periodically rebuilt offline while the query
    /// side just loads it.
    pub fn try_from_index(
        index: HybridIndex,
        corpus: &Corpus,
        config: &EngineConfig,
    ) -> Result<Self, EngineError> {
        config.scoring.validate().expect("valid scoring config");
        Self::try_assemble(index, corpus, config)
    }

    fn try_assemble(
        index: HybridIndex,
        corpus: &Corpus,
        config: &EngineConfig,
    ) -> Result<Self, EngineError> {
        let db = MetadataDb::try_from_posts(corpus.posts(), 0, config.metadata_store.as_ref())?;
        Ok(Self {
            index,
            db,
            pipeline: TextPipeline::new(),
            scoring: config.scoring,
            obs: config.metrics.then(EngineMetrics::new),
        })
    }

    /// The hybrid index.
    pub fn index(&self) -> &HybridIndex {
        &self.index
    }

    /// The metadata database. Lookups take `&self`.
    pub fn db(&self) -> &MetadataDb {
        &self.db
    }

    /// The scoring configuration.
    pub fn scoring(&self) -> &ScoringConfig {
        &self.scoring
    }

    /// One coherent snapshot of the engine's metric registry
    /// (DESIGN.md §12): the natively recorded query counters and stage
    /// histograms, with the storage I/O counters re-exported as
    /// `tklus_storage_*`. Returns `None` when the engine was built with
    /// `EngineConfig::metrics` off.
    pub fn metrics_snapshot(&self) -> Option<RegistrySnapshot> {
        let obs = self.obs.as_ref()?;
        Some(obs.snapshot(&self.db.io().snapshot()))
    }

    /// Normalizes raw query keywords to term ids, position-aligned with
    /// the input. `None` entries are keywords absent from the corpus
    /// dictionary (or normalized away).
    pub fn resolve_keywords(&self, keywords: &[String]) -> Vec<Option<TermId>> {
        keywords
            .iter()
            .map(|kw| self.pipeline.normalize_keyword(kw).and_then(|t| self.index.vocab().get(&t)))
            .collect()
    }

    /// The distinct term ids a query's keywords resolve to, in first-
    /// occurrence order; unknown keywords are dropped. Keywords that
    /// normalize to the same term — exact duplicates, case variants,
    /// inflections sharing a stem ("Hotels" and "hotel") — contribute
    /// **one** term: Definition 6's `|q.W ∩ p.W|` counts matches against
    /// the *set* of query keywords, so letting a duplicate through would
    /// double-count every matching tweet's tf (and, under AND, intersect
    /// a keyword's postings with themselves).
    pub fn resolve_query_terms(&self, keywords: &[String]) -> Vec<TermId> {
        let mut seen = std::collections::HashSet::new();
        self.resolve_keywords(keywords).into_iter().flatten().filter(|&t| seen.insert(t)).collect()
    }

    /// Answers a TkLUS query with the chosen ranking method.
    ///
    /// Panics on storage/index failure and discards the completeness
    /// marker — the historical interface, appropriate over the default
    /// in-memory stores with unbudgeted queries. Fault-tolerant or
    /// budgeted callers use [`Self::try_query`].
    pub fn query(&self, q: &TklusQuery, ranking: Ranking) -> (Vec<RankedUser>, QueryStats) {
        match self.try_query(q, ranking) {
            Ok(outcome) => (outcome.users, outcome.stats),
            Err(e) => panic!("query failed: {e}"),
        }
    }

    /// Answers a TkLUS query, surfacing storage/index failures as typed
    /// [`EngineError`]s and reporting whether the result is exact or
    /// budget-degraded (see [`Completeness`]). A degraded outcome is the
    /// exact top-k over the cover-cell prefix the budget admitted.
    ///
    /// Both rankings run one algorithm: Algorithm 4's rows, folded per
    /// user by `+=` or `max`, blended with distance and ranked. Nothing is
    /// pruned, so `threads_pruned` is 0; for Max this is Algorithm 5's
    /// answer bit for bit ([`Self::try_query_max`]), because its prune
    /// skips only rows that cannot enter the top-k.
    ///
    /// The keyword contract: under AND, a keyword no tweet contains
    /// empties the result; under OR, unknown keywords are simply dropped.
    /// The unknown check runs per input keyword, *before* deduplication, so
    /// an AND query with one known and one unknown keyword stays empty even
    /// if other keywords repeat. A query whose keywords all resolve away is
    /// empty too, and a trivially empty result is complete.
    pub fn try_query(&self, q: &TklusQuery, ranking: Ranking) -> Result<QueryOutcome, EngineError> {
        let (users, stats, completeness) =
            self.try_answer(q, |ctx, terms| try_query_sum(ctx, q, terms, ranking))?;
        Ok(QueryOutcome { users, stats, completeness })
    }

    /// Algorithm 5, the paper's Maximum-score query with the Definition 11
    /// upper-bound prune, over `bounds` in `mode` — the bounds are the
    /// caller's, precomputed offline with [`BoundsTable::precompute`] over
    /// this engine's corpus. It returns [`Self::try_query`]'s `Max`
    /// answer bit for bit and reports the threads it pruned. The paper
    /// figures (Figs. 8, 10, 12) time it and the oracle suite holds it as
    /// the reference; no product path calls it. Same keyword contract as
    /// [`Self::try_query`].
    pub fn try_query_max(
        &self,
        q: &TklusQuery,
        bounds: &BoundsTable,
        mode: BoundsMode,
    ) -> Result<QueryOutcome, EngineError> {
        let (users, stats, completeness) =
            self.try_answer(q, |ctx, terms| max::try_query_max(ctx, bounds, mode, q, terms))?;
        Ok(QueryOutcome { users, stats, completeness })
    }

    /// The row-producing half of Algorithm 4 for a gathered answer under
    /// **either** ranking: cover, fetch, combine, and per-candidate
    /// relevance scoring, with the per-user fold and distance blend left to
    /// [`Self::try_rank_rows`]. Rows come back in candidate (tweet-id)
    /// order — a gatherer that merges them with rows over a disjoint tweet
    /// set by tweet id and folds them reproduces [`Self::try_query`]'s
    /// scores bit for bit. Same keyword contract as [`Self::try_query`].
    ///
    /// `live` overlays the metadata of posts this engine's trees do not
    /// hold (the ingest store's live posts; see [`MetadataDb::reader`]):
    /// their replies count in a sealed candidate's thread. Every other
    /// caller passes `None`.
    pub fn try_partial_sum(
        &self,
        q: &TklusQuery,
        live: Option<&LiveMetadata>,
    ) -> Result<PartialSumOutcome, EngineError> {
        let (rows, stats, completeness) = self.try_answer(q, |ctx, terms| {
            let start = Instant::now();
            let mut clock = StageClock::new(ctx.timings, start);
            let (rows, mut stats, completeness) =
                try_sum_rows(ctx, &mut self.db.reader(live), q, terms, start, &mut clock)?;
            stats.elapsed = start.elapsed();
            Ok((rows, stats, completeness))
        })?;
        Ok(PartialSumOutcome { rows, stats, completeness })
    }

    /// The one body behind [`Self::try_query`], [`Self::try_query_max`]
    /// and [`Self::try_partial_sum`]: the keyword contract (documented on
    /// [`Self::try_query`]), `run` over the resolved terms, and the
    /// registry accounting — every answered query counts, trivially empty
    /// ones included.
    fn try_answer<T: Default>(
        &self,
        q: &TklusQuery,
        run: impl FnOnce(&QueryContext<'_>, &[TermId]) -> Result<Answer<T>, EngineError>,
    ) -> Result<Answer<T>, EngineError> {
        let unknown_under_and = q.semantics == Semantics::And
            && self.resolve_keywords(&q.keywords).iter().any(Option::is_none);
        let terms =
            if unknown_under_and { Vec::new() } else { self.resolve_query_terms(&q.keywords) };
        let answer = if terms.is_empty() {
            Ok((T::default(), QueryStats::default(), Completeness::Complete))
        } else {
            run(&self.context(), &terms)
        };
        if let Some(obs) = &self.obs {
            match &answer {
                Ok((_, stats, completeness)) => obs.observe(stats, !completeness.is_complete()),
                Err(_) => obs.observe_error(),
            }
        }
        answer
    }

    fn context(&self) -> QueryContext<'_> {
        QueryContext {
            index: &self.index,
            db: &self.db,
            scoring: &self.scoring,
            timings: self.obs.is_some(),
        }
    }

    /// The gather half of a query (Algorithm 4 lines 23–27 and the final
    /// ranking) over tweet-id-ordered rows — the ingest store's sealed
    /// [`Self::try_partial_sum`] rows and its live rows, merged by
    /// [`merge_sum_rows`]: the per-user fold — `+=` in row order
    /// for [`Ranking::Sum`], `max` for [`Ranking::Max`], whose bounds mode
    /// is irrelevant here — the distance blend over this engine's metadata
    /// database, and the top-`q.k` ranking. It is the very code
    /// [`Self::try_query`] runs for either ranking, so a gatherer whose
    /// engine holds the full corpus metadata reproduces the monolithic
    /// answer bit for bit. Returns the ranked users with the cost of this
    /// half: its metadata page reads and its `scoring` and `topk` stages —
    /// what a gatherer adds to its row sources' stats. `live` is
    /// [`Self::try_partial_sum`]'s overlay: a user's `P_u` takes in their
    /// live posts.
    ///
    /// [`merge_sum_rows`]: crate::merge_sum_rows
    pub fn try_rank_rows(
        &self,
        q: &TklusQuery,
        ranking: Ranking,
        rows: &[SumRow],
        live: Option<&LiveMetadata>,
    ) -> Result<(Vec<RankedUser>, QueryStats), EngineError> {
        let mut stats = QueryStats::default();
        let mut clock = StageClock::new(self.obs.is_some(), Instant::now());
        let users = try_rank_rows(
            &self.context(),
            &mut self.db.reader(live),
            q,
            ranking,
            rows,
            &mut clock,
            &mut stats,
        )?;
        Ok((users, stats))
    }

    /// Scores `cands` — `(tweet, tf)` pairs in tweet-id order that did not
    /// come from this engine's index (the ingest store's memtable) — with
    /// the per-candidate body [`Self::try_partial_sum`] runs on its own:
    /// time window, metadata row, radius, thread popularity, keyword score
    /// × recency, over this engine's metadata database and `live`, the
    /// overlay that holds those candidates' own rows. One body, so rows
    /// from the two sources merge into what a from-scratch engine computes.
    pub fn try_score_candidates(
        &self,
        q: &TklusQuery,
        cands: impl IntoIterator<Item = (TweetId, u32)>,
        live: Option<&LiveMetadata>,
    ) -> Result<Vec<SumRow>, EngineError> {
        let mut untallied = QueryStats::default();
        try_score_candidates(&self.context(), &mut self.db.reader(live), q, cands, &mut untallied)
    }

    /// The thread popularity φ(p) of the thread rooted at `tid`, built
    /// over the metadata database by the query path's own code — the
    /// number a query-time candidate sees. A one-call reader: the
    /// `rsid = ?` scans of this one thread walk share a root-to-leaf path.
    pub fn try_thread_phi(&self, tid: TweetId) -> Result<f64, EngineError> {
        self.context().try_popularity(&mut self.db.reader(None), tid)
    }

    /// Normalizes one query keyword through this engine's text pipeline
    /// (lowercase + stem; `None` when it normalizes away entirely). The
    /// live-delta index is keyed by term *string* — new terms have no id
    /// in the sealed vocabulary yet — so its query path needs the
    /// pipeline's normalization without the vocabulary lookup of
    /// [`Self::resolve_keywords`].
    pub fn normalize_keyword(&self, keyword: &str) -> Option<String> {
        self.pipeline.normalize_keyword(keyword)
    }

    /// Tokenizes free text into `(term, tf)` pairs in first-occurrence
    /// order — the exact counts the index builder would assign the post,
    /// which is what makes a delta index over term strings agree with a
    /// from-scratch rebuild.
    pub fn term_counts(&self, text: &str) -> Vec<(String, u32)> {
        let mut order: Vec<(String, u32)> = Vec::new();
        for term in self.pipeline.terms(text) {
            match order.iter_mut().find(|(t, _)| *t == term) {
                Some((_, tf)) => *tf += 1,
                None => order.push((term, 1)),
            }
        }
        order
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use tklus_geo::Point;
    use tklus_model::{Post, TweetId, UserId};

    fn corpus() -> Corpus {
        let here = Point::new_unchecked(43.7, -79.4);
        Corpus::new(vec![
            Post::original(TweetId(1), UserId(1), here, "great hotel downtown"),
            Post::original(TweetId(2), UserId(2), here, "pizza place with hotels nearby"),
            Post::reply(TweetId(3), UserId(3), here, "thanks", TweetId(1), UserId(1)),
        ])
        .unwrap()
    }

    #[test]
    fn resolve_keywords_normalizes_and_reports_misses() {
        let (engine, _) = TklusEngine::build(&corpus(), &EngineConfig::default());
        // "Hotels" stems to the indexed "hotel"; stop words normalize away;
        // unknown words miss.
        let resolved = engine.resolve_keywords(&[
            "Hotels".to_string(),
            "the".to_string(),
            "zzzunknown".to_string(),
            "pizza".to_string(),
        ]);
        assert!(resolved[0].is_some());
        assert!(resolved[1].is_none(), "stop word normalizes away");
        assert!(resolved[2].is_none(), "unknown keyword");
        assert!(resolved[3].is_some());
        // Both "hotel"-family keywords resolve to the same term id.
        let direct = engine.resolve_keywords(&["hotel".to_string()]);
        assert_eq!(resolved[0], direct[0]);
    }

    #[test]
    fn duplicate_keywords_resolve_to_one_term() {
        let (engine, _) = TklusEngine::build(&corpus(), &EngineConfig::default());
        // "hotel", "Hotels", and "HOTEL" all normalize to the same stem;
        // the query term set must contain it exactly once so Definition
        // 6's occurrence count is not inflated.
        let terms = engine.resolve_query_terms(&[
            "hotel".to_string(),
            "Hotels".to_string(),
            "HOTEL".to_string(),
            "pizza".to_string(),
            "hotel".to_string(),
        ]);
        assert_eq!(terms.len(), 2, "expected [hotel, pizza], got {terms:?}");
        let direct = engine.resolve_query_terms(&["hotel".to_string(), "pizza".to_string()]);
        assert_eq!(terms, direct);
        // Unknown keywords drop out without affecting dedup.
        let with_unknown = engine.resolve_query_terms(&[
            "zzzunknown".to_string(),
            "hotel".to_string(),
            "Hotels".to_string(),
        ]);
        assert_eq!(with_unknown, engine.resolve_query_terms(&["hotel".to_string()]));
    }

    #[test]
    fn duplicate_keywords_do_not_inflate_scores() {
        // Regression: a query repeating a keyword (verbatim or as a case or
        // inflection variant) must score identically to the deduplicated
        // query. Before the fix, each duplicate re-fetched the keyword's
        // postings, doubling tf — and so N of Definition 6's ρ(p,q) — under
        // OR, and self-intersecting under AND.
        let corpus = corpus();
        let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let here = Point::new_unchecked(43.7, -79.4);
        let qk = |keywords: Vec<&str>, semantics| {
            tklus_model::TklusQuery::new(
                here,
                10.0,
                keywords.into_iter().map(String::from).collect(),
                5,
                semantics,
            )
            .unwrap()
        };
        for semantics in [Semantics::Or, Semantics::And] {
            for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
                let (clean, _) = engine.query(&qk(vec!["hotel"], semantics), ranking);
                let (duped, _) =
                    engine.query(&qk(vec!["hotel", "Hotels", "hotel"], semantics), ranking);
                assert_eq!(clean.len(), duped.len(), "{semantics:?}/{ranking:?}");
                for (a, b) in clean.iter().zip(&duped) {
                    assert_eq!(a.user, b.user, "{semantics:?}/{ranking:?}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "{semantics:?}/{ranking:?}: {} vs {}",
                        a.score,
                        b.score
                    );
                }
            }
        }
        // AND with an unknown keyword is still empty even when a known
        // keyword repeats (the unknown check precedes deduplication).
        let (empty, _) =
            engine.query(&qk(vec!["hotel", "hotel", "zzzunknown"], Semantics::And), Ranking::Sum);
        assert!(empty.is_empty());
    }

    #[test]
    fn keyword_order_does_not_change_results() {
        // Definition 6 scores the *set* of query keywords, so any
        // permutation (with or without duplicates) is the same query and
        // must produce bit-identical rankings.
        let corpus = corpus();
        let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let here = Point::new_unchecked(43.7, -79.4);
        let permutations: [&[&str]; 3] =
            [&["hotel", "pizza"], &["pizza", "hotel"], &["pizza", "hotel", "Hotels", "pizza"]];
        for semantics in [Semantics::Or, Semantics::And] {
            for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
                let runs: Vec<_> = permutations
                    .iter()
                    .map(|kws| {
                        let q = tklus_model::TklusQuery::new(
                            here,
                            10.0,
                            kws.iter().map(|s| s.to_string()).collect(),
                            5,
                            semantics,
                        )
                        .unwrap();
                        engine.query(&q, ranking).0
                    })
                    .collect();
                for other in &runs[1..] {
                    assert_eq!(runs[0].len(), other.len(), "{semantics:?}/{ranking:?}");
                    for (a, b) in runs[0].iter().zip(other) {
                        assert_eq!(a.user, b.user, "{semantics:?}/{ranking:?}");
                        assert_eq!(
                            a.score.to_bits(),
                            b.score.to_bits(),
                            "{semantics:?}/{ranking:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn registry_aggregates_query_stats_and_stage_timings() {
        let corpus = corpus();
        let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let q = tklus_model::TklusQuery::new(
            Point::new_unchecked(43.7, -79.4),
            10.0,
            vec!["hotel".into()],
            5,
            Semantics::Or,
        )
        .unwrap();
        let (_, s1) = engine.query(&q, Ranking::Sum);
        let (_, s2) = engine.query(&q, Ranking::Max(BoundsMode::HotKeywords));
        let snap = engine.metrics_snapshot().expect("metrics on by default");
        assert_eq!(snap.counter("tklus_queries_total"), Some(2));
        assert_eq!(snap.counter("tklus_queries_degraded_total"), Some(0));
        assert_eq!(
            snap.counter("tklus_query_candidates_total"),
            Some((s1.candidates + s2.candidates) as u64)
        );
        assert_eq!(
            snap.counter("tklus_query_metadata_page_reads_total"),
            Some(s1.metadata_page_reads + s2.metadata_page_reads)
        );
        let latency = snap.histogram("tklus_query_latency_us").expect("registered");
        assert_eq!(latency.count, 2);
        // Stage spans are recorded and cover+fetch+… sums below elapsed.
        assert!(s1.stages.total() <= s1.elapsed, "{:?} > {:?}", s1.stages.total(), s1.elapsed);
        assert!(s1.stages.total() > std::time::Duration::ZERO);
        let threads = snap.histogram("tklus_stage_threads_us").expect("registered");
        assert_eq!(threads.count, 2);
        // The trivially-empty path still counts as an answered query.
        let unknown = tklus_model::TklusQuery::new(
            Point::new_unchecked(43.7, -79.4),
            10.0,
            vec!["zzzunknown".into()],
            5,
            Semantics::And,
        )
        .unwrap();
        let _ = engine.query(&unknown, Ranking::Sum);
        let snap = engine.metrics_snapshot().expect("metrics on by default");
        assert_eq!(snap.counter("tklus_queries_total"), Some(3));
    }

    #[test]
    fn metrics_disabled_engine_skips_all_instrumentation() {
        let corpus = corpus();
        let config = EngineConfig { metrics: false, ..EngineConfig::default() };
        let (engine, _) = TklusEngine::build(&corpus, &config);
        assert!(engine.metrics_snapshot().is_none());
        let q = tklus_model::TklusQuery::new(
            Point::new_unchecked(43.7, -79.4),
            10.0,
            vec!["hotel".into()],
            5,
            Semantics::Or,
        )
        .unwrap();
        let (users, stats) = engine.query(&q, Ranking::Sum);
        assert!(!users.is_empty());
        assert_eq!(stats.stages, crate::query::StageTimings::default());
        // Results are identical with metrics on (instrumentation is
        // observation only).
        let (on, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let (users_on, stats_on) = on.query(&q, Ranking::Sum);
        assert_eq!(users.len(), users_on.len());
        for (a, b) in users.iter().zip(&users_on) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(stats.metadata_page_reads, stats_on.metadata_page_reads);
    }

    #[test]
    fn from_index_matches_full_build() {
        let corpus = corpus();
        let config = EngineConfig::default();
        let (built, _) = TklusEngine::build(&corpus, &config);
        // Re-assemble from the already-built index (the loaded-from-disk
        // path, minus the disk).
        let (index2, _) = build_index(corpus.posts(), &config.index);
        let assembled = TklusEngine::try_from_index(index2, &corpus, &config).unwrap();
        let q = tklus_model::TklusQuery::new(
            Point::new_unchecked(43.7, -79.4),
            10.0,
            vec!["hotel".into()],
            5,
            Semantics::Or,
        )
        .unwrap();
        for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
            let (a, _) = built.query(&q, ranking);
            let (b, _) = assembled.query(&q, ranking);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.user, y.user);
                assert!((x.score - y.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_k_is_rejected_at_query_construction() {
        // Guarded by TklusQuery::new, so the engine never sees k = 0.
        let err = tklus_model::TklusQuery::new(
            Point::new_unchecked(0.0, 0.0),
            1.0,
            vec!["x".into()],
            0,
            Semantics::Or,
        );
        assert!(err.is_err());
    }

    /// Algorithm 5's bounds over `corpus`, precomputed the way the figure
    /// harness does.
    fn bounds(corpus: &Corpus, engine: &TklusEngine) -> BoundsTable {
        let network = tklus_graph::SocialNetwork::from_corpus(corpus);
        BoundsTable::precompute(corpus, &network, engine.index().vocab(), 10, engine.scoring())
    }

    #[test]
    fn max_ranking_with_k_usize_max_returns_every_in_radius_user() {
        // `k` arrives unchecked from `POST /query`; Algorithm 5's running
        // top-k set must be bounded by it, never sized from it, and the
        // fold's `top_k` must truncate to it without allocating by it.
        let corpus = corpus();
        let (engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let table = bounds(&corpus, &engine);
        let q = tklus_model::TklusQuery::new(
            Point::new_unchecked(43.7, -79.4),
            10.0,
            vec!["hotel".into()],
            usize::MAX,
            Semantics::Or,
        )
        .unwrap();
        let sorted = |top: &[RankedUser]| {
            let mut users: Vec<UserId> = top.iter().map(|u| u.user).collect();
            users.sort();
            users
        };
        for mode in [BoundsMode::HotKeywords, BoundsMode::Global] {
            let out = engine.try_query_max(&q, &table, mode).unwrap();
            assert_eq!(sorted(&out.users), vec![UserId(1), UserId(2)], "{mode:?}");
            assert_eq!(
                out.stats.threads_pruned, 0,
                "{mode:?}: a set that never fills prunes nothing"
            );
            let (folded, _) = engine.query(&q, Ranking::Max(mode));
            assert_eq!(sorted(&folded), vec![UserId(1), UserId(2)], "{mode:?} fold");
        }
    }

    #[test]
    fn all_stopword_query_returns_empty() {
        let (engine, _) = TklusEngine::build(&corpus(), &EngineConfig::default());
        let q = tklus_model::TklusQuery::new(
            Point::new_unchecked(43.7, -79.4),
            10.0,
            vec!["the".into(), "and".into()],
            5,
            Semantics::Or,
        )
        .unwrap();
        let (top, stats) = engine.query(&q, Ranking::Sum);
        assert!(top.is_empty());
        assert_eq!(stats.candidates, 0);
    }
}
