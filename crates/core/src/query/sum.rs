//! Algorithm 4, and the one query algorithm of every engine.
//!
//! Every candidate tweet inside the radius gets its thread constructed
//! (the I/O bottleneck of Section V-B) and its keyword relevance folded
//! into its author's score — added for Sum (Definition 7), maxed for
//! Maximum (Definition 8); user scores then blend with the user distance
//! score (Definitions 9/10).
//!
//! Candidates are scored, and per-user Sum scores accumulated, in
//! candidate (tweet-id) order on the calling thread, which fixes the
//! floating-point result.
//!
//! The pipeline is split at the per-user fold: [`try_sum_rows`] produces
//! the scored candidate rows in tweet-id order, and [`try_rank_rows`]
//! folds them per user — by `+=` (Definition 7) or by `max`
//! (Definition 8) — blends with distance and ranks. [`try_query_sum`]
//! runs the two back to back for [`crate::TklusEngine::try_query`], under
//! either ranking. The split is what serves the ingest store's gather over
//! sealed ∪ live: it merges the two row streams by tweet id
//! ([`merge_sum_rows`]) and runs the same fold through
//! [`crate::TklusEngine::try_rank_rows`], reproducing a rebuilt engine's
//! result bit for bit. For Max that is also Algorithm 5's
//! answer (`query/max.rs`): its prune only ever skips rows that cannot
//! change the top-k. The per-candidate scoring body has one home,
//! [`try_score_candidates`]: the engine feeds it its postings
//! candidates, the store its memtable's.
//!
//! Storage and index failures anywhere along the path — postings fetch,
//! metadata row lookup, thread walk, user scan — propagate as typed
//! [`EngineError`]s; a query budget degrades the cover instead
//! (see [`Completeness`]).
//!
//! All metadata lookups of one query go through one [`MetaReader`], so
//! the tid-ordered candidate walk, the thread walks and the `P_u` scans
//! each descend their tree once. Page reads are attributed to the query
//! via the calling thread's read tally
//! ([`IoStats::thread_page_reads`]), one delta around each loop, so
//! `QueryStats::metadata_page_reads` is exact even with other queries
//! running concurrently on the shared engine (a global counter delta
//! would absorb their reads too).

use crate::engine::Ranking;
use crate::error::EngineError;
use crate::metadata::MetaReader;
use crate::query::{
    candidates, top_k, Completeness, QueryContext, QueryStats, RankedUser, StageClock, SumRow,
};
use crate::score::{tweet_keyword_score, user_score};
use std::collections::HashMap;
use std::time::Instant;
use tklus_model::{TklusQuery, TweetId, UserId};
use tklus_storage::IoStats;
use tklus_text::TermId;

/// The row-producing front half of Algorithm 4 (lines 1–24): cover,
/// fetch, AND/OR combine, and per-candidate relevance scoring. Returns
/// the surviving rows in candidate (tweet-id) order, stats through the
/// thread stage, and the budget completeness; the per-user fold and
/// distance blend are left to the caller.
pub(crate) fn try_sum_rows(
    ctx: &QueryContext<'_>,
    meta: &mut MetaReader<'_>,
    query: &TklusQuery,
    terms: &[TermId],
    start: Instant,
    clock: &mut StageClock,
) -> Result<(Vec<SumRow>, QueryStats, Completeness), EngineError> {
    // Lines 1–14: cover, fetch, AND/OR combine, stopping between cover
    // cells if the budget expires.
    let mut stats = QueryStats::default();
    let (fetch, completeness) = ctx.try_fetch(query, terms, start, clock, &mut stats)?;
    let cands = candidates(&fetch, query.semantics);
    stats.candidates = cands.len();
    stats.stages.combine = clock.lap();

    let reads_before = IoStats::thread_page_reads();
    let rows = try_score_candidates(ctx, meta, query, cands, &mut stats)?;
    stats.metadata_page_reads = IoStats::thread_page_reads() - reads_before;
    stats.stages.threads = clock.lap();
    Ok((rows, stats, completeness))
}

/// Lines 15–24, the per-candidate relevance stage both rankings' rows
/// come from: time window, metadata row, radius check, thread popularity,
/// keyword score × recency. `cands` are `(tweet, tf)`
/// pairs in tweet-id order and the surviving rows keep that order (the
/// fold order every consumer must preserve for float determinism). The
/// first storage error aborts the query.
pub(crate) fn try_score_candidates(
    ctx: &QueryContext<'_>,
    meta: &mut MetaReader<'_>,
    query: &TklusQuery,
    cands: impl IntoIterator<Item = (TweetId, u32)>,
    stats: &mut QueryStats,
) -> Result<Vec<SumRow>, EngineError> {
    let config = ctx.scoring;
    let mut rows: Vec<SumRow> = Vec::new();
    for (tid, tf) in cands {
        // Temporal extension: the id is the timestamp, so the window
        // check costs nothing and precedes all metadata I/O.
        if !query.in_time_range(tid.0) {
            continue;
        }
        let Some(row) = meta.try_row(tid)? else { continue };
        if query.location.distance_km(&row.location, config.metric) > query.radius_km {
            continue;
        }
        stats.in_radius += 1;
        let phi = ctx.try_popularity(meta, tid)?;
        stats.threads_built += 1;
        let rho = tweet_keyword_score(tf, phi, config) * query.recency_factor(tid.0);
        rows.push(SumRow { tweet: tid, user: row.uid, rho });
    }
    Ok(rows)
}

/// Merges the sealed and the live rows (each sorted by tweet id
/// ascending) into one tid-ascending stream. A tweet is sealed or live,
/// never both — the ingest store's duplicate check keeps the two lists
/// disjoint — so the merge has no duplicate to skip.
pub fn merge_sum_rows(sealed: &[SumRow], live: &[SumRow]) -> Vec<SumRow> {
    let mut merged: Vec<SumRow> = Vec::with_capacity(sealed.len() + live.len());
    let (mut sealed, mut live) = (sealed.iter().peekable(), live.iter().peekable());
    while let (Some(s), Some(l)) = (sealed.peek(), live.peek()) {
        merged.extend(if s.tweet < l.tweet { sealed.next() } else { live.next() });
    }
    merged.extend(sealed.chain(live));
    debug_assert!(
        merged.windows(2).all(|w| w[0].tweet < w[1].tweet),
        "sealed and live rows are id-sorted and disjoint"
    );
    merged
}

/// The per-user fold, distance blend and ranking (lines 23–27). Each
/// user's keyword relevance folds over `rows` in row order — tweet-id
/// order, so a Sum's float additions never depend on scheduling or on how
/// many sources the rows were gathered from — by `+=` under
/// [`Ranking::Sum`] (Definition 7) and by `max` under [`Ranking::Max`]
/// (Definition 8: order-free, whatever the bounds mode); then it blends
/// with the user's distance score δ (Definition 10) into the final
/// `score(u, q)`, and the top `query.k` are kept. Users are visited in id
/// order for deterministic I/O patterns. Adds the blend's metadata page
/// reads to `stats` and sets its `scoring` and `topk` stages.
pub(crate) fn try_rank_rows(
    ctx: &QueryContext<'_>,
    meta: &mut MetaReader<'_>,
    query: &TklusQuery,
    ranking: Ranking,
    rows: &[SumRow],
    clock: &mut StageClock,
    stats: &mut QueryStats,
) -> Result<Vec<RankedUser>, EngineError> {
    let config = ctx.scoring;
    let mut users: HashMap<UserId, f64> = HashMap::new();
    for row in rows {
        match ranking {
            Ranking::Sum => *users.entry(row.user).or_insert(0.0) += row.rho,
            Ranking::Max(_) => {
                let best = users.entry(row.user).or_insert(row.rho);
                if row.rho > *best {
                    *best = row.rho;
                }
            }
        }
    }
    let mut entries: Vec<(UserId, f64)> = users.into_iter().collect();
    entries.sort_by_key(|e| e.0);
    let reads_before = IoStats::thread_page_reads();
    let mut users_ranked = Vec::with_capacity(entries.len());
    for (uid, rho) in entries {
        let delta = ctx.try_user_distance(meta, &query.location, query.radius_km, uid)?;
        users_ranked.push(RankedUser { user: uid, score: user_score(rho, delta, config) });
    }
    stats.metadata_page_reads += IoStats::thread_page_reads() - reads_before;
    stats.stages.scoring = clock.lap();
    let top = top_k(users_ranked, query.k);
    stats.stages.topk = clock.lap();
    Ok(top)
}

/// Runs Algorithm 4 and ranks it under `ranking`: the scored rows, the
/// per-user fold (`+=` or `max`), the distance blend and the top-k — the
/// one query algorithm of every engine. `terms` are the query keywords
/// already normalized to term ids (keywords missing from the dictionary
/// are resolved upstream). The query's optional time window and recency
/// bias (the Section VIII temporal extension) are honoured: out-of-window
/// candidates are skipped before any metadata I/O, and keyword relevance
/// is decayed by the recency factor.
pub(crate) fn try_query_sum(
    ctx: &QueryContext<'_>,
    query: &TklusQuery,
    terms: &[TermId],
    ranking: Ranking,
) -> Result<(Vec<RankedUser>, QueryStats, Completeness), EngineError> {
    let start = Instant::now();
    let mut clock = StageClock::new(ctx.timings, start);
    let mut meta = ctx.db.reader(None);
    let (rows, mut stats, completeness) =
        try_sum_rows(ctx, &mut meta, query, terms, start, &mut clock)?;
    let top = try_rank_rows(ctx, &mut meta, query, ranking, &rows, &mut clock, &mut stats)?;
    stats.elapsed = start.elapsed();
    Ok((top, stats, completeness))
}
