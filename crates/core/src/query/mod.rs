//! TkLUS query processing: Algorithm 4 and Algorithm 5.
//!
//! Every engine answers both rankings with [`sum`]: Algorithm 4's scored
//! rows, folded per user by `+=` (Sum) or `max` (Maximum). [`max`] is
//! Algorithm 5, the paper's Maximum-score loop that prunes thread
//! construction with a precomputed upper bound; it runs only for the
//! paper figures and as the oracle's reference. Both share the same front
//! half — geohash circle cover, postings retrieval, AND/OR candidate
//! formation.

pub mod max;
pub mod sum;

use crate::error::EngineError;
use crate::metadata::{MetaReader, MetadataDb};
use std::time::Instant;
use tklus_geo::{circle_cover, Circle, Point};
use tklus_index::{CandidateFetch, HybridIndex};
use tklus_model::{QueryBudget, ScoringConfig, TklusQuery, TweetId, UserId};
use tklus_text::TermId;

/// One result row: a user and their score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedUser {
    /// The local user.
    pub user: UserId,
    /// `score(u, q)` under the ranking method used.
    pub score: f64,
}

/// Whether a query examined its whole cover or ran out of budget
/// (DESIGN.md §10): a degraded answer is the exact top-k over the cells
/// that *were* processed, never a silently truncated "complete" one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// Every cover cell was examined; this is the exact answer.
    Complete,
    /// The budget expired mid-cover; the result ranks only the tweets
    /// found in the first `cells_processed` of `cells_total` cover cells.
    Degraded {
        /// Cover cells fully examined before the budget expired.
        cells_processed: usize,
        /// Cover cells the query would have examined with no budget.
        cells_total: usize,
    },
}

impl Completeness {
    /// True when the result is exact.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// Everything [`crate::TklusEngine::try_query`] produces: the ranked
/// users, the cost accounting, and whether the answer is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The top-k local users, best first.
    pub users: Vec<RankedUser>,
    /// Cost accounting for this execution.
    pub stats: QueryStats,
    /// Whether the whole cover was examined.
    pub completeness: Completeness,
}

/// One scored candidate row (Algorithm 4 lines 15–24), before the
/// per-user fold: the tweet, its author, and the tweet's keyword
/// relevance ρ (thread popularity × keyword score × recency). Named for
/// Algorithm 4, whose front half produces it; a gatherer folds the same
/// rows by `max` for the Maximum-score ranking. Rows come out in
/// candidate (tweet-id) order, which is exactly the order the engine
/// folds them in — a gatherer that merges rows from disjoint sources by
/// tweet id and folds sequentially reproduces the engine's Sum scores
/// bit for bit (a Max fold is order-free).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumRow {
    /// The candidate tweet.
    pub tweet: TweetId,
    /// The tweet's author.
    pub user: UserId,
    /// The tweet's keyword relevance ρ(p, q): a term of its author's
    /// Sum score, a contender for their Maximum score.
    pub rho: f64,
}

/// What [`crate::TklusEngine::try_partial_sum`] produces: the scored
/// candidate rows in tweet-id order (the per-user fold of either ranking
/// and the distance blend left to the caller), plus cost accounting and
/// budget completeness.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSumOutcome {
    /// Scored rows in candidate (tweet-id) order.
    pub rows: Vec<SumRow>,
    /// Cost accounting through the thread-construction stage.
    pub stats: QueryStats,
    /// Whether the whole cover was examined.
    pub completeness: Completeness,
}

/// A query budget resolved against this execution's start time, checked at
/// cover-cell granularity: a cell is either fully examined or not started,
/// which is what keeps degraded results deterministic for a fixed
/// `max_cells` and exact for whatever prefix a deadline admits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellBudget {
    deadline: Option<Instant>,
    max_cells: Option<usize>,
}

impl CellBudget {
    /// Resolves a query's budget; `None` when there is nothing to enforce.
    pub(crate) fn new(budget: Option<&QueryBudget>, start: Instant) -> Option<Self> {
        let budget = budget?;
        if budget.is_unlimited() {
            return None;
        }
        Some(Self {
            deadline: budget.timeout_ms.map(|ms| start + std::time::Duration::from_millis(ms)),
            max_cells: budget.max_cells,
        })
    }

    /// May another cover cell be started after `cells_done` finished ones?
    pub(crate) fn allows(&self, cells_done: usize) -> bool {
        self.max_cells.is_none_or(|m| cells_done < m)
            && self.deadline.is_none_or(|d| Instant::now() < d)
    }
}

/// Wall-clock breakdown of one query by pipeline stage (DESIGN.md §12).
///
/// Stages follow Algorithms 4/5: circle cover, postings fetch (reads),
/// candidate combination (union/intersection), thread construction,
/// scoring, and top-k aggregation. All zero when the engine was built
/// with `EngineConfig::metrics` off.
///
/// Algorithm 5 ([`crate::TklusEngine::try_query_max`]) interleaves
/// thread construction, scoring, and admission inside one upper-bound
/// prune loop; that whole loop is attributed to `threads` and `scoring`
/// stays zero there. Every other query, either ranking, times the
/// distance blend as `scoring`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Circle-cover computation.
    pub cover: std::time::Duration,
    /// Postings retrieval: partition reads, decoding and the refinement
    /// test, into one buffer per keyword.
    pub fetch: std::time::Duration,
    /// AND/OR candidate combination: sorting the keyword buffers, summing
    /// a tweet's tfs, and intersecting under AND.
    pub combine: std::time::Duration,
    /// Candidate row lookups and φ: a read of the engine's φ column, or
    /// Algorithm 1's thread walk where the query takes one.
    pub threads: std::time::Duration,
    /// Per-user scoring (distance blend; 0 under Algorithm 5).
    pub scoring: std::time::Duration,
    /// Final top-k sort and truncation.
    pub topk: std::time::Duration,
}

impl StageTimings {
    /// Sum of every stage (≤ `QueryStats::elapsed`; the difference is
    /// untimed glue).
    pub fn total(&self) -> std::time::Duration {
        self.cover + self.fetch + self.combine + self.threads + self.scoring + self.topk
    }
}

/// Stage-boundary stopwatch: `lap()` returns the time since the previous
/// lap (or construction) and re-arms. Disabled, it never reads the clock
/// and always returns zero — the whole instrumentation cost of a disabled
/// engine is one branch per stage boundary.
pub(crate) struct StageClock {
    last: Option<Instant>,
}

impl StageClock {
    pub(crate) fn new(enabled: bool, start: Instant) -> Self {
        Self { last: enabled.then_some(start) }
    }

    pub(crate) fn lap(&mut self) -> std::time::Duration {
        match self.last {
            Some(prev) => {
                let now = Instant::now();
                self.last = Some(now);
                now - prev
            }
            None => std::time::Duration::ZERO,
        }
    }
}

/// Cost accounting for one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Wall-clock time of the whole query.
    pub elapsed: std::time::Duration,
    /// Geohash cells in the circle cover.
    pub cover_cells: usize,
    /// Postings lists fetched from the index's partitions.
    pub lists_fetched: usize,
    /// Encoded postings bytes fetched (named for the paper's HDFS, where
    /// the partitions live).
    pub dfs_bytes: u64,
    /// Postings the refinement dropped before the combination: their
    /// refined cell cannot reach the query circle.
    pub refined_out: usize,
    /// Candidate tweets after the refinement and the AND/OR combination:
    /// the tweets whose metadata row is looked up.
    pub candidates: usize,
    /// Candidates that passed the exact radius check.
    pub in_radius: usize,
    /// Tweet threads actually constructed (Algorithm 1 runs): 0 where φ
    /// is read from the engine's column.
    pub threads_built: usize,
    /// Thread constructions skipped by Algorithm 5's upper-bound prune
    /// (0 on every path but [`crate::TklusEngine::try_query_max`]).
    pub threads_pruned: usize,
    /// Candidate users whose `P_u` the blend did not scan: their
    /// Definition 10 bound at δ = 1 could no longer reach the k-th exact
    /// score (0 under [`crate::TklusEngine::try_query_algorithm4`] and
    /// Algorithm 5).
    pub distance_scans_skipped: usize,
    /// Physical metadata-database page reads incurred.
    pub metadata_page_reads: u64,
    /// Per-stage wall-clock breakdown (all zero with metrics disabled).
    pub stages: StageTimings,
}

/// Everything query execution needs from the engine, bundled so both
/// ranking algorithms run through the same access paths. Metadata is read
/// through one [`MetaReader`] per query, opened from `db` by the query's
/// entry point and passed down as `meta`.
pub(crate) struct QueryContext<'a> {
    pub index: &'a HybridIndex,
    pub db: &'a MetadataDb,
    pub scoring: &'a ScoringConfig,
    /// Record per-stage wall-clock spans (engine `metrics` flag).
    pub timings: bool,
}

impl QueryContext<'_> {
    /// The postings-retrieval phase of Algorithms 4/5 (lines 1–7): the
    /// circle cover, then the index's one fetch
    /// ([`HybridIndex::try_fetch_candidates`]), which decodes each
    /// keyword's surviving postings into one `(tweet, tf)` buffer, drops
    /// the postings whose refined cell cannot reach the query circle and
    /// asks the query's budget (started at `start`) before each cover
    /// cell. Fills `stats`' fetch counts and its `cover` and `fetch` stages
    /// (lapping `clock`), and returns the fetch with its completeness;
    /// [`tklus_index::candidates`] combines its buffers.
    pub(crate) fn try_fetch(
        &self,
        query: &TklusQuery,
        terms: &[TermId],
        start: Instant,
        clock: &mut StageClock,
        stats: &mut QueryStats,
    ) -> Result<(CandidateFetch, Completeness), EngineError> {
        let budget = CellBudget::new(query.budget.as_ref(), start);
        let cover = circle_cover(
            &query.location,
            query.radius_km,
            self.index.geohash_len(),
            self.scoring.metric,
        )
        .expect("index geohash length is valid");
        stats.stages.cover = clock.lap();
        let circle = Circle {
            center: query.location,
            radius_km: query.radius_km,
            metric: self.scoring.metric,
        };
        let fetch = self.index.try_fetch_candidates(&cover, &circle, terms, |done| {
            budget.is_none_or(|b| b.allows(done))
        })?;
        stats.stages.fetch = clock.lap();
        stats.cover_cells = fetch.cells;
        stats.lists_fetched = fetch.lists;
        stats.dfs_bytes = fetch.bytes;
        stats.refined_out = fetch.refined_out;
        let completeness = if fetch.cells < cover.len() {
            Completeness::Degraded { cells_processed: fetch.cells, cells_total: cover.len() }
        } else {
            Completeness::Complete
        };
        Ok((fetch, completeness))
    }

    /// Definition 4's thread popularity φ(p) for the thread rooted at
    /// `tid`: Algorithm 1's level walk, counted in place
    /// ([`MetaReader::try_thread_popularity`]). A metadata storage failure
    /// during the thread walk surfaces as a typed error.
    ///
    /// `replies` answers Algorithm 1's `rsid = ?` scans: the query's
    /// reader on the read path, a one-call reader otherwise.
    pub(crate) fn try_popularity(
        &self,
        replies: &mut MetaReader<'_>,
        tid: TweetId,
    ) -> Result<f64, EngineError> {
        let (depth, epsilon) = (self.scoring.thread_depth, self.scoring.epsilon);
        Ok(replies.try_thread_popularity(tid, depth, epsilon)?)
    }

    /// Definition 9's user distance score δ(u, q) over `P_u`, folded in
    /// place ([`MetaReader::try_user_distance`]).
    pub(crate) fn try_user_distance(
        &self,
        meta: &mut MetaReader<'_>,
        center: &Point,
        radius_km: f64,
        uid: UserId,
    ) -> Result<f64, EngineError> {
        Ok(meta.try_user_distance(uid, center, radius_km, self.scoring)?)
    }
}

/// Sorts users by score descending (ties broken by user id for
/// determinism) and truncates to `k`.
///
/// The one ranking order: Algorithm 4's final sort, Algorithm 5's
/// running set and every gatherer's fold agree on it, ties included.
pub fn top_k(mut users: Vec<RankedUser>, k: usize) -> Vec<RankedUser> {
    users.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).expect("scores are finite").then(a.user.cmp(&b.user))
    });
    users.truncate(k);
    users
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_budget_checks_cells_and_the_clock() {
        let cells = QueryBudget { timeout_ms: None, max_cells: Some(3) };
        let b = CellBudget::new(Some(&cells), Instant::now()).expect("budget enforced");
        assert!(b.allows(2));
        assert!(!b.allows(3));
        let far = QueryBudget { timeout_ms: Some(10_000), max_cells: None };
        let b = CellBudget::new(Some(&far), Instant::now()).expect("budget enforced");
        assert!((0..17).all(|i| b.allows(i)), "far deadline always allows");
        let passed = QueryBudget { timeout_ms: Some(0), max_cells: None };
        let b = CellBudget::new(Some(&passed), Instant::now()).expect("budget enforced");
        assert!(!b.allows(0), "deadline at start has already passed");
        assert!(CellBudget::new(Some(&QueryBudget::default()), Instant::now()).is_none());
    }

    #[test]
    fn stage_clock_disabled_returns_zero() {
        let mut off = StageClock::new(false, Instant::now());
        assert_eq!(off.lap(), std::time::Duration::ZERO);
        let mut on = StageClock::new(true, Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(on.lap() > std::time::Duration::ZERO);
    }

    #[test]
    fn top_k_sorts_and_breaks_ties_by_id() {
        let users = vec![
            RankedUser { user: UserId(3), score: 1.0 },
            RankedUser { user: UserId(1), score: 2.0 },
            RankedUser { user: UserId(2), score: 1.0 },
        ];
        let top = top_k(users, 2);
        assert_eq!(top[0].user, UserId(1));
        assert_eq!(top[1].user, UserId(2), "tie broken by id");
        assert_eq!(top.len(), 2);
    }
}
