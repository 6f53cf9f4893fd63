//! Algorithm 5: query processing for Maximum-score based user ranking.
//!
//! The key device is the upper-bound prune (lines 18–19): before paying the
//! I/Os of thread construction for a candidate tweet, compute the best user
//! score that tweet could possibly yield — keyword part bounded by the
//! popularity bound (global Definition 11, or the tighter per-hot-keyword
//! bound of Section VI-B5), distance part bounded by 1. If that optimistic
//! score cannot beat the current k-th best user, skip the tweet entirely.
//!
//! The prune makes this algorithm inherently sequential: each decision
//! depends on the top-k state left by every earlier candidate. The
//! candidate loop runs on the calling thread and always sees the exact
//! live floor, so no I/O is spent on a thread the prune would reject.
//!
//! This is the one place Algorithm 5 runs:
//! [`crate::TklusEngine::try_query_max`], with bounds the caller
//! precomputed. It is the paper-figure path (Figs. 8, 10, 12) and the
//! oracle's reference, not a product path: every engine — the sealed
//! engine at any partition count, the ingest store — ranks Max by folding
//! Algorithm 4's unpruned rows by `max` (`query/sum.rs`), which measured
//! faster than this loop in every cell (EXPERIMENTS.md, "Max is a fold").
//! The fold must get this module's answer bit for bit, which is why the
//! running set keeps [`top_k`]'s total order — score descending, user id
//! ascending — rather than arrival order: a tie at the k-th place
//! resolves the same way here, in a row fold and in the naive reference.
//!
//! # Failure
//!
//! Storage and index failures — postings fetch, metadata lookups, thread
//! walks — propagate as typed [`EngineError`]s instead of panics. A query
//! budget degrades the cover instead (see [`Completeness`]).

use crate::bounds::{BoundsMode, BoundsTable};
use crate::error::EngineError;
use crate::query::{
    candidates, top_k, Completeness, QueryContext, QueryStats, RankedUser, StageClock,
};
use crate::score::{tweet_keyword_score, upper_bound_user_score, user_score};
use std::collections::HashMap;
use std::time::Instant;
use tklus_model::{ScoringConfig, TklusQuery, UserId};
use tklus_storage::IoStats;
use tklus_text::TermId;

/// Per-user state in the running top-k set.
struct Candidate {
    /// Best (maximum) keyword relevance of the user's tweets so far —
    /// Definition 8's `ρ_m`.
    rho_max: f64,
    /// Cached user distance score (Definition 9).
    delta: f64,
    /// Combined user score (Definition 10).
    score: f64,
}

/// The running top-k user set of Algorithm 5 (the paper's `topKUser`
/// priority queue). With k ≤ tens, a flat map with linear min search is
/// faster than a heap with lazy deletion and trivially correct.
struct TopK {
    k: usize,
    users: HashMap<UserId, Candidate>,
}

impl TopK {
    /// `k` is a request field: it bounds the set, never sizes it.
    fn new(k: usize) -> Self {
        Self { k, users: HashMap::new() }
    }

    fn is_full(&self) -> bool {
        self.users.len() >= self.k
    }

    /// The set's last member in [`top_k`]'s order: the smallest score,
    /// and among equal scores the largest user id (`topKUser.peek()`).
    fn min(&self) -> Option<(UserId, f64)> {
        self.users
            .iter()
            .map(|(&uid, c)| (uid, c.score))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores").then(b.0.cmp(&a.0)))
    }

    /// Lines 23–33: maintain the set under Definition 8's max-aggregation.
    /// A new user enters a full set iff `(score, uid)` beats the current
    /// minimum in [`top_k`]'s order, displacing it.
    fn admit(&mut self, uid: UserId, rho: f64, delta: f64, config: &ScoringConfig) {
        match self.users.get_mut(&uid) {
            Some(c) => {
                if rho > c.rho_max {
                    c.rho_max = rho;
                    c.score = user_score(c.rho_max, c.delta, config);
                }
            }
            None => {
                let score = user_score(rho, delta, config);
                if self.is_full() {
                    let (min_uid, min_score) = self.min().expect("full set has a min");
                    if score < min_score || (score == min_score && uid > min_uid) {
                        return;
                    }
                    self.users.remove(&min_uid);
                }
                self.users.insert(uid, Candidate { rho_max: rho, delta, score });
            }
        }
    }

    fn into_ranked(self) -> Vec<RankedUser> {
        self.users.into_iter().map(|(user, c)| RankedUser { user, score: c.score }).collect()
    }
}

/// Runs Algorithm 5 with the given popularity-bound table and mode.
///
/// The temporal extension (Section VIII) composes with the prune: the
/// time window filters candidates before any I/O, and the recency factor —
/// known from the candidate's timestamp alone — scales the upper bound's
/// keyword part (an old tweet's best possible score shrinks by its decay
/// factor). Recency-biased queries still prune *less*, not more
/// (`ext_temporal`: 2 080 threads pruned without a bias, 1 427 at a
/// half-life of the whole span, 0 at a quarter of it). Candidates are
/// visited in tweet-id order, oldest first, so the running k-th score is
/// set by the most decayed rows, while the newer tweets after them keep
/// bounds near the unbiased ones; visiting newest first instead pruned
/// more than no bias at those two half-lives. At short half-lives every
/// keyword part decays toward 0, scores are almost all distance, and no
/// k-th user's distance score reaches the bound's 1, so nothing is
/// pruned in either order.
pub(crate) fn try_query_max(
    ctx: &QueryContext<'_>,
    bounds: &BoundsTable,
    mode: BoundsMode,
    query: &TklusQuery,
    terms: &[TermId],
) -> Result<(Vec<RankedUser>, QueryStats, Completeness), EngineError> {
    let start = Instant::now();
    let mut meta = ctx.db.reader(None);
    let config = ctx.scoring;
    let center = &query.location;
    let radius_km = query.radius_km;
    let k = query.k;
    let mut clock = StageClock::new(ctx.timings, start);

    // Lines 1–14: identical to Algorithm 4, stopping between cover cells
    // if the budget expires.
    let mut stats = QueryStats::default();
    let (fetch, completeness) = ctx.try_fetch(query, terms, start, &mut clock, &mut stats)?;
    let cands = candidates(&fetch, query.semantics);
    stats.candidates = cands.len();
    stats.stages.combine = clock.lap();

    let popularity_bound = bounds.query_bound(terms, query.semantics, mode);
    let mut top = TopK::new(k);
    // Per-user distance scores are query-constant; cache them.
    let mut delta_cache: HashMap<UserId, f64> = HashMap::new();

    // Every metadata read happens on this thread, so one thread-tally
    // delta around the loop attributes them all to this query exactly.
    let reads_before = IoStats::thread_page_reads();
    for &(tid, tf) in &cands {
        if !query.in_time_range(tid.0) {
            continue;
        }
        let Some(row) = meta.try_row(tid)? else { continue };
        if center.distance_km(&row.location, config.metric) > radius_km {
            continue;
        }
        stats.in_radius += 1;
        let recency = query.recency_factor(tid.0);

        // Lines 18–19: the prune. The best score this tweet can give
        // its author is below the current k-th user's -> skip the
        // thread. (A tweet that can at best *tie* is scored: its author
        // may still win the place on user id.) The recency factor scales
        // the keyword part.
        if top.is_full() {
            let upper = upper_bound_user_score(tf, popularity_bound * recency, config);
            if upper < top.min().expect("full set has a min").1 {
                stats.threads_pruned += 1;
                continue;
            }
        }

        // Lines 20–22: thread popularity, tweet and user scores.
        let phi = ctx.try_popularity(&mut meta, tid)?;
        stats.threads_built += 1;
        let rho = tweet_keyword_score(tf, phi, config) * recency;
        let uid = row.uid;
        let delta = match delta_cache.get(&uid) {
            Some(&d) => d,
            None => {
                let d = ctx.try_user_distance(&mut meta, center, radius_km, uid)?;
                delta_cache.insert(uid, d);
                d
            }
        };
        top.admit(uid, rho, delta, config);
    }
    stats.metadata_page_reads = IoStats::thread_page_reads() - reads_before;
    // Algorithm 5 interleaves scoring with the prune loop above, so the
    // whole loop is attributed to `threads` and `scoring` stays zero.
    stats.stages.threads = clock.lap();
    let ranked = top_k(top.into_ranked(), k);
    stats.stages.topk = clock.lap();
    stats.elapsed = start.elapsed();
    Ok((ranked, stats, completeness))
}
