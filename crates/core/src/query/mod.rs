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

use crate::cache::QueryCaches;
use crate::error::EngineError;
use crate::metadata::{MetaReader, MetadataDb};
use crate::score::user_distance_score;
use std::sync::Arc;
use std::time::Instant;
use tklus_geo::{circle_cover, CoverKey, Geohash, Point};
use tklus_graph::try_build_thread;
use tklus_index::{
    intersect_sum, union_sum, HybridIndex, IndexError, PostingsList, PostingsLocation,
};
use tklus_model::{QueryBudget, ScoringConfig, Semantics, TweetId, UserId};
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
/// candidate (tweet-id) order, which is exactly the order the monolithic
/// engine folds them in — a scatter-gather router that merges rows from
/// disjoint shards by tweet id and folds sequentially reproduces the
/// monolithic Sum scores bit for bit (a Max fold is order-free).
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
///
/// The deadline check reads the clock only every
/// [`DEADLINE_POLL_STRIDE`] cells: `Instant::now()` is a syscall-class
/// operation, and polling it per cell dominated the budgeted fetch loop
/// for small cells. Once a poll observes the deadline passed, the latch
/// sticks — `allows` never flips back to true. The `max_cells` check is
/// unaffected (it never reads the clock), so `max_cells`-budgeted and
/// unbudgeted executions are byte-identical to the unbatched code, which
/// the oracle suite asserts.
#[derive(Debug, Clone)]
pub(crate) struct CellBudget {
    deadline: Option<Instant>,
    max_cells: Option<usize>,
    /// Sticky "deadline passed" latch (single query thread; `Cell` keeps
    /// `allows` a `&self` call like before).
    expired: std::cell::Cell<bool>,
    /// Calls since the last real clock poll (0 = never polled).
    calls_since_poll: std::cell::Cell<u32>,
    /// `Instant::now()` calls skipped by the stride, exported through
    /// [`QueryStats::deadline_polls_saved`] and the metric registry.
    polls_saved: std::cell::Cell<u64>,
}

/// Deadline checks between cover cells read the clock once per this many
/// `allows` calls (DESIGN.md §12).
pub(crate) const DEADLINE_POLL_STRIDE: u32 = 8;

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
            expired: std::cell::Cell::new(false),
            calls_since_poll: std::cell::Cell::new(0),
            polls_saved: std::cell::Cell::new(0),
        })
    }

    /// May another cover cell be started after `cells_done` finished ones?
    pub(crate) fn allows(&self, cells_done: usize) -> bool {
        if self.max_cells.is_some_and(|m| cells_done >= m) {
            return false;
        }
        let Some(deadline) = self.deadline else { return true };
        if self.expired.get() {
            return false;
        }
        let since = self.calls_since_poll.get();
        if since > 0 && since < DEADLINE_POLL_STRIDE {
            self.calls_since_poll.set(since + 1);
            self.polls_saved.set(self.polls_saved.get() + 1);
            return true;
        }
        self.calls_since_poll.set(1);
        if Instant::now() >= deadline {
            self.expired.set(true);
            return false;
        }
        true
    }

    /// Clock polls the stride elided so far (see [`DEADLINE_POLL_STRIDE`]).
    pub(crate) fn deadline_polls_saved(&self) -> u64 {
        self.polls_saved.get()
    }
}

/// Wall-clock breakdown of one query by pipeline stage (DESIGN.md §12).
///
/// Stages follow Algorithms 4/5: circle-cover resolution, postings fetch
/// (cache probes + DFS reads), candidate combination (union/intersection),
/// thread construction, scoring, and top-k aggregation. All zero when the
/// engine was built with `EngineConfig::metrics` off.
///
/// Algorithm 5 ([`crate::TklusEngine::try_query_max`]) interleaves
/// thread construction, scoring, and admission inside one upper-bound
/// prune loop; that whole loop is attributed to `threads` and `scoring`
/// stays zero there. Every other query, either ranking, times the
/// distance blend as `scoring`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Circle-cover resolution (cover cache probe or fresh computation).
    pub cover: std::time::Duration,
    /// Postings retrieval: cache probes plus DFS reads and decoding.
    pub fetch: std::time::Duration,
    /// AND/OR candidate combination (union/intersection).
    pub combine: std::time::Duration,
    /// Thread construction (Algorithm 1 runs and thread-cache probes).
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
    /// Postings lists fetched from the DFS.
    pub lists_fetched: usize,
    /// Bytes fetched from the DFS.
    pub dfs_bytes: u64,
    /// Candidate tweets after AND/OR combination.
    pub candidates: usize,
    /// Candidates that passed the exact radius check.
    pub in_radius: usize,
    /// Tweet threads actually constructed (Algorithm 1 runs).
    pub threads_built: usize,
    /// Thread constructions skipped by Algorithm 5's upper-bound prune
    /// (0 on every path but [`crate::TklusEngine::try_query_max`]).
    pub threads_pruned: usize,
    /// Physical metadata-database page reads incurred.
    pub metadata_page_reads: u64,
    /// Circle covers served from the cover cache (0 or 1 per query; 0
    /// whenever the layer is disabled).
    pub cover_cache_hits: u64,
    /// Circle covers computed because the (enabled) cover cache missed.
    pub cover_cache_misses: u64,
    /// Postings lists served decoded from the postings cache.
    pub postings_cache_hits: u64,
    /// Postings lists fetched from the DFS because the (enabled) postings
    /// cache missed.
    pub postings_cache_misses: u64,
    /// Thread popularities φ(p) served from the thread cache.
    pub thread_cache_hits: u64,
    /// Thread popularities computed because the (enabled) thread cache
    /// missed.
    pub thread_cache_misses: u64,
    /// Deadline clock polls elided by the strided budget check
    /// (DESIGN.md §12); 0 for unbudgeted queries.
    pub deadline_polls_saved: u64,
    /// Per-stage wall-clock breakdown (all zero with metrics disabled).
    pub stages: StageTimings,
}

impl QueryStats {
    /// Folds one thread-cache probe outcome (`None` = layer disabled,
    /// `Some(hit?)` otherwise) into the tallies.
    pub(crate) fn record_thread_probe(&mut self, outcome: Option<bool>) {
        match outcome {
            Some(true) => self.thread_cache_hits += 1,
            Some(false) => self.thread_cache_misses += 1,
            None => {}
        }
    }
}

/// Per-fetch cache-probe tallies, folded into [`QueryStats`] by the caller.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FetchTally {
    /// `Some(hit?)` when the cover cache is enabled, `None` otherwise.
    pub cover: Option<bool>,
    pub postings_hits: u64,
    pub postings_misses: u64,
    /// Time spent resolving the circle cover (zero with metrics off).
    pub cover_time: std::time::Duration,
    /// Time spent in postings retrieval after the cover was resolved
    /// (zero with metrics off).
    pub fetch_time: std::time::Duration,
}

/// The result of the postings-retrieval phase (Algorithms 4/5 lines 1–7):
/// per-keyword postings plus the cost accounting the stats report.
pub(crate) struct Fetched {
    /// Postings grouped by query keyword, each keyword's lists in cover
    /// order.
    pub per_keyword: Vec<Vec<Arc<PostingsList>>>,
    /// Cover cells processed (may trail the full cover under a budget).
    pub cells: usize,
    /// Postings lists retrieved (cache hits included).
    pub lists: usize,
    /// Bytes read from the DFS (cache hits cost none).
    pub bytes: u64,
}

/// Everything query execution needs from the engine, bundled so both
/// ranking algorithms run through the same cache-aware access paths.
/// Metadata is read through one [`MetaReader`] per query, opened from
/// `db` by the query's entry point and passed down as `meta`.
pub(crate) struct QueryContext<'a> {
    pub index: &'a HybridIndex,
    pub db: &'a MetadataDb,
    pub caches: &'a QueryCaches,
    pub scoring: &'a ScoringConfig,
    /// Record per-stage wall-clock spans (engine `metrics` flag).
    pub timings: bool,
}

impl QueryContext<'_> {
    /// The postings-retrieval phase of Algorithms 4/5 (lines 1–7), run
    /// through the cache hierarchy: the circle cover through the cover
    /// cache, each `⟨cell, term⟩` list through the postings cache, and
    /// only the misses down to the DFS — in `(partition, offset)` order,
    /// exactly like [`HybridIndex::fetch_for_query`].
    ///
    /// Per-keyword lists are assembled in cover order, which differs from
    /// the uncached path's storage order; both orders feed the same
    /// order-insensitive union/intersection, so candidates — and therefore
    /// results — are identical. Directory misses (a `⟨cell, term⟩` with no
    /// postings) are never cached: the in-memory forward lookup already
    /// answers them for free.
    ///
    /// Returns the fetch (whose `cells` counts *processed* cells, which a
    /// `budget` may cut short), the cache tally, and the cover's total
    /// cell count.
    pub(crate) fn try_fetch(
        &self,
        center: &Point,
        radius_km: f64,
        terms: &[TermId],
        budget: Option<&CellBudget>,
    ) -> Result<(Fetched, FetchTally, usize), EngineError> {
        let mut tally = FetchTally::default();
        let mut clock = StageClock::new(self.timings, Instant::now());
        let geohash_len = self.index.geohash_len();
        let metric = self.scoring.metric;
        let compute_cover = || {
            Arc::new(
                circle_cover(center, radius_km, geohash_len, metric)
                    .expect("index geohash length is valid"),
            )
        };
        let cover: Arc<Vec<Geohash>> = if self.caches.cover.is_enabled() {
            let key = CoverKey::new(center, radius_km, geohash_len, metric);
            match self.caches.cover.get(&key) {
                Some(c) => {
                    tally.cover = Some(true);
                    c
                }
                None => {
                    tally.cover = Some(false);
                    let c = compute_cover();
                    self.caches.cover.insert(key, Arc::clone(&c));
                    c
                }
            }
        } else {
            compute_cover()
        };
        let cells_total = cover.len();
        tally.cover_time = clock.lap();

        let fetch = self.fetch_lists(&cover, terms, budget, &mut tally)?;
        tally.fetch_time = clock.lap();
        Ok((fetch, tally, cells_total))
    }

    /// Probes the postings cache, sends the misses to the DFS, and files
    /// everything per keyword in cover order.
    ///
    /// Unbudgeted, misses are batched: probe everything first (reserving a
    /// slot per list so hits and later-fetched misses land in deterministic
    /// positions), then fetch misses in storage order — the locality the
    /// sorted ⟨geohash, term⟩ layout provides, and the order the DFS
    /// sequential/random read accounting is measured in. With a `budget`,
    /// cells are processed one at a time (cell-outer/keyword-inner, each
    /// cell's misses fetched before the next cell starts): the deadline
    /// poll between cells needs that interleaving to reflect real work
    /// done, which is why the two loops stay separate. Both produce the
    /// same per-keyword list order, so a budget that admits the whole
    /// cover yields bitwise-identical results.
    fn fetch_lists(
        &self,
        cover: &[Geohash],
        terms: &[TermId],
        budget: Option<&CellBudget>,
        tally: &mut FetchTally,
    ) -> Result<Fetched, EngineError> {
        let read = |loc: PostingsLocation| -> Result<(Arc<PostingsList>, u64), IndexError> {
            self.index.try_read_postings(loc).map(|(list, bytes)| (Arc::new(list), bytes))
        };
        if let Some(budget) = budget {
            let mut per_keyword: Vec<Vec<Arc<PostingsList>>> =
                terms.iter().map(|_| Vec::new()).collect();
            let mut lists = 0usize;
            let mut bytes = 0u64;
            let mut processed = 0usize;
            for &cell in cover {
                if !budget.allows(processed) {
                    break;
                }
                for (ki, &term) in terms.iter().enumerate() {
                    let Some(loc) = self.index.forward().lookup(cell, term) else { continue };
                    lists += 1;
                    if let Some(list) = self.caches.postings.get(&(cell, term)) {
                        tally.postings_hits += 1;
                        per_keyword[ki].push(list);
                        continue;
                    }
                    if self.caches.postings.is_enabled() {
                        tally.postings_misses += 1;
                    }
                    let (list, b) = read(loc)?;
                    bytes += b;
                    self.caches.postings.insert((cell, term), Arc::clone(&list));
                    per_keyword[ki].push(list);
                }
                processed += 1;
            }
            return Ok(Fetched { per_keyword, cells: processed, lists, bytes });
        }

        // Probe the postings cache in (keyword, cover-cell) order.
        let mut per_keyword: Vec<Vec<Option<Arc<PostingsList>>>> =
            terms.iter().map(|_| Vec::new()).collect();
        let mut misses: Vec<(usize, usize, (Geohash, TermId), PostingsLocation)> = Vec::new();
        let mut lists = 0usize;
        for (ki, &term) in terms.iter().enumerate() {
            for &cell in cover.iter() {
                let Some(loc) = self.index.forward().lookup(cell, term) else { continue };
                lists += 1;
                match self.caches.postings.get(&(cell, term)) {
                    Some(list) => {
                        tally.postings_hits += 1;
                        per_keyword[ki].push(Some(list));
                    }
                    None => {
                        if self.caches.postings.is_enabled() {
                            tally.postings_misses += 1;
                        }
                        misses.push((ki, per_keyword[ki].len(), (cell, term), loc));
                        per_keyword[ki].push(None);
                    }
                }
            }
        }

        misses.sort_by_key(|&(_, _, _, loc)| (loc.partition, loc.offset));
        let mut bytes = 0u64;
        for (ki, slot, key, loc) in misses {
            let (list, b) = read(loc)?;
            bytes += b;
            self.caches.postings.insert(key, Arc::clone(&list));
            per_keyword[ki][slot] = Some(list);
        }
        let per_keyword = per_keyword
            .into_iter()
            .map(|lists| lists.into_iter().map(|l| l.expect("every slot filled")).collect())
            .collect();
        Ok(Fetched { per_keyword, cells: cover.len(), lists, bytes })
    }

    /// Definition 4's thread popularity φ(p) for the thread rooted at
    /// `tid`, through the thread cache. Returns the probe outcome
    /// (`None` = layer disabled, `Some(hit?)` otherwise); the thread is
    /// actually constructed exactly when the outcome is not `Some(true)`.
    ///
    /// Pure given the immutable corpus and the engine-fixed `thread_depth`
    /// and `epsilon`, so any thread may compute and cache it. A metadata
    /// storage failure during the thread walk surfaces as a typed error.
    ///
    /// `replies` answers Algorithm 1's `rsid = ?` scans: the query's
    /// reader on the read path, a one-call reader on the write path.
    pub(crate) fn try_popularity(
        &self,
        replies: &mut MetaReader<'_>,
        tid: TweetId,
    ) -> Result<(f64, Option<bool>), EngineError> {
        if let Some(phi) = self.caches.thread.get(&tid) {
            return Ok((phi, Some(true)));
        }
        let phi = try_build_thread(replies, tid, self.scoring.thread_depth)
            .map_err(EngineError::Storage)?
            .popularity(self.scoring.epsilon);
        if self.caches.thread.is_enabled() {
            self.caches.thread.insert(tid, phi);
            Ok((phi, Some(false)))
        } else {
            Ok((phi, None))
        }
    }

    /// Definition 9's user distance score δ(u, q) over `P_u`.
    pub(crate) fn try_user_distance(
        &self,
        meta: &mut MetaReader<'_>,
        center: &Point,
        radius_km: f64,
        uid: UserId,
    ) -> Result<f64, EngineError> {
        let locations: Vec<Point> =
            meta.try_posts_of_user(uid)?.into_iter().map(|(_, l)| l).collect();
        Ok(user_distance_score(center, radius_km, &locations, self.scoring))
    }
}

/// Lines 8–14 of Algorithms 4/5: combine the fetched postings lists into
/// the candidate list `P` of `(tweet, keyword-occurrence-count)` pairs.
///
/// * OR — union of every list; a tweet's count sums over all keywords.
/// * AND — per-keyword union across cover cells, then intersection across
///   keywords (a tweet must contain every keyword), counts summed.
pub(crate) fn candidates(fetch: &Fetched, semantics: Semantics) -> Vec<(TweetId, u32)> {
    match semantics {
        Semantics::Or => {
            let all: Vec<&PostingsList> =
                fetch.per_keyword.iter().flatten().map(Arc::as_ref).collect();
            union_sum(&all)
        }
        Semantics::And => {
            let groups: Vec<Vec<(TweetId, u32)>> =
                fetch.per_keyword.iter().map(|lists| union_sum(lists)).collect();
            if groups.iter().any(Vec::is_empty) {
                Vec::new()
            } else {
                intersect_sum(&groups)
            }
        }
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

    fn cands(per_keyword: Vec<Vec<Vec<(u64, u32)>>>, semantics: Semantics) -> Vec<(TweetId, u32)> {
        let per_keyword = per_keyword
            .into_iter()
            .map(|lists| {
                lists
                    .into_iter()
                    .map(|l| Arc::new(l.into_iter().collect::<PostingsList>()))
                    .collect()
            })
            .collect();
        candidates(&Fetched { per_keyword, cells: 0, lists: 0, bytes: 0 }, semantics)
    }

    #[test]
    fn or_unions_across_keywords() {
        let got =
            cands(vec![vec![vec![(1, 1), (2, 1)]], vec![vec![(2, 2), (3, 1)]]], Semantics::Or);
        assert_eq!(got, vec![(TweetId(1), 1), (TweetId(2), 3), (TweetId(3), 1)]);
    }

    #[test]
    fn and_intersects_across_keywords() {
        let got =
            cands(vec![vec![vec![(1, 1), (2, 1)]], vec![vec![(2, 2), (3, 1)]]], Semantics::And);
        assert_eq!(got, vec![(TweetId(2), 3)]);
    }

    #[test]
    fn and_with_missing_keyword_is_empty() {
        let lists = vec![vec![vec![(1, 1)]], vec![]];
        assert!(cands(lists.clone(), Semantics::And).is_empty());
        // OR still returns the present keyword's candidates.
        assert_eq!(cands(lists, Semantics::Or), vec![(TweetId(1), 1)]);
    }

    #[test]
    fn and_merges_per_keyword_cells_first() {
        // Keyword 0 spread over two cells; tweet 5 only matches keyword 0
        // in cell B and keyword 1 in its own cell.
        let got = cands(vec![vec![vec![(1, 1)], vec![(5, 2)]], vec![vec![(5, 1)]]], Semantics::And);
        assert_eq!(got, vec![(TweetId(5), 3)]);
    }

    #[test]
    fn and_seeds_from_smallest_keyword_without_changing_counts() {
        // Keyword 1 is far smaller than keyword 0, so the intersection
        // starts from it and gallops through keyword 0; counts must still
        // sum over *all* keywords regardless of that order.
        let big: Vec<(u64, u32)> = (0..400).map(|i| (i, 1)).collect();
        let got = cands(vec![vec![big], vec![vec![(7, 5), (399, 2)]]], Semantics::And);
        assert_eq!(got, vec![(TweetId(7), 6), (TweetId(399), 3)]);
    }

    #[test]
    fn three_long_keywords_intersect_on_a_sparse_stride() {
        let k0: Vec<(u64, u32)> = (0..1000).map(|i| (i * 2, 1)).collect();
        let k1: Vec<(u64, u32)> = (0..700).map(|i| (i * 3, 2)).collect();
        let k2: Vec<(u64, u32)> = (0..500).map(|i| (i * 4, 3)).collect();
        let lists = vec![vec![k0], vec![k1], vec![k2]];
        let and = cands(lists.clone(), Semantics::And);
        // Multiples of lcm(2,3,4)=12 below min(2000, 2100, 2000).
        assert_eq!(and.len(), 1998 / 12 + 1);
        assert!(and.iter().all(|&(_, tf)| tf == 6));
        let or = cands(lists, Semantics::Or);
        assert!(or.len() > 1000);
    }

    #[test]
    fn cell_budget_polls_deadline_with_stride() {
        let budget = QueryBudget { timeout_ms: Some(10_000), max_cells: None };
        let b = CellBudget::new(Some(&budget), Instant::now()).expect("budget enforced");
        for i in 0..17 {
            assert!(b.allows(i), "far deadline always allows");
        }
        // 17 calls with stride 8 poll the clock on calls 1, 9, and 17.
        assert_eq!(b.deadline_polls_saved(), 14);
    }

    #[test]
    fn cell_budget_expiry_latch_sticks() {
        let budget = QueryBudget { timeout_ms: Some(0), max_cells: None };
        let b = CellBudget::new(Some(&budget), Instant::now()).expect("budget enforced");
        assert!(!b.allows(0), "deadline at start has already passed");
        assert!(!b.allows(0), "latch sticks without re-polling");
        assert_eq!(b.deadline_polls_saved(), 0, "latched checks are not elided polls");
    }

    #[test]
    fn cell_budget_max_cells_never_touches_clock() {
        let budget = QueryBudget { timeout_ms: None, max_cells: Some(3) };
        let b = CellBudget::new(Some(&budget), Instant::now()).expect("budget enforced");
        assert!(b.allows(2));
        assert!(!b.allows(3));
        assert_eq!(b.deadline_polls_saved(), 0);
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
