//! The paper's primary contribution: TkLUS query processing.
//!
//! This crate ties the substrates together into the system of Sections III–V:
//!
//! * [`metadata`] — the centralized tweet-metadata database of Section IV-A:
//!   the relation `(sid, uid, lat, lon, ruid, rsid)` over from-scratch
//!   B⁺-trees on `sid`, `rsid`, and (for user distance scores) `uid`, every
//!   page read counted. The engine has no cache (DESIGN.md §9).
//! * [`score`] — the scoring functions: tweet distance score (Def. 5),
//!   keyword relevance (Def. 6), Sum/Maximum user keyword scores
//!   (Defs. 7/8), user distance score (Def. 9), combined user score
//!   (Def. 10).
//! * [`bounds`] — the pruning bounds of Section V-B: the global upper bound
//!   popularity (Def. 11) and the pre-computed per-hot-keyword bounds,
//!   which only Algorithm 5 reads and its caller precomputes.
//! * [`query`] — Algorithm 4's row producer and the per-user fold that
//!   ranks either Sum or Maximum from its rows (every engine's query), and
//!   Algorithm 5 (Maximum-score ranking with upper-bound pruning, the
//!   paper-figure path and the oracle's reference).
//! * [`engine`] — [`engine::TklusEngine`], the end-to-end facade: build the
//!   hybrid index and metadata database from a corpus, then answer
//!   [`tklus_model::TklusQuery`]s with either ranking.
//! * [`error`] — the typed failure taxonomy of DESIGN.md §10:
//!   [`error::EngineError`] wraps the storage and index subsystem errors,
//!   and [`TklusEngine::try_query`](engine::TklusEngine::try_query)
//!   reports budget-degraded results through [`query::Completeness`].
//! * [`obs`] (private) — the observability layer of DESIGN.md §12:
//!   per-query [`query::StageTimings`] spans and aggregation into the
//!   [`tklus_metrics::MetricRegistry`] surfaced by
//!   [`TklusEngine::metrics_snapshot`](engine::TklusEngine::metrics_snapshot).

pub mod bounds;
pub mod engine;
pub mod error;
pub mod metadata;
mod obs;
pub mod query;
pub mod score;

pub use bounds::{BoundsMode, BoundsTable};
pub use engine::{CacheConfig, EngineConfig, Ranking, TklusEngine};
pub use error::EngineError;
pub use metadata::{LiveMetadata, MetaReader, MetaRow, MetadataDb, MetadataStoreFactory};
pub use query::{
    sum::merge_sum_rows, top_k, Completeness, PartialSumOutcome, QueryOutcome, QueryStats,
    RankedUser, StageTimings, SumRow,
};
