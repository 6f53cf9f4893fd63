//! # tklus-shard — sharded scatter-gather query engine
//!
//! Horizontal partitioning of the TkLUS engine (DESIGN.md §14): the corpus
//! is split into `N` contiguous geohash-prefix ranges ([`ShardPlan`]), one
//! independent [`tklus_core::TklusEngine`] per range, and a router
//! ([`ShardedEngine`]) that computes the circle cover once, fans out only
//! to intersecting shards, and merges per-shard partials into the global
//! top-k — bitwise-identical to the monolithic answer for any shard count.
//!
//! Shard dispatches run behind per-shard circuit breakers; a faulted shard
//! yields a typed degraded partial ([`ShardCompleteness::Degraded`])
//! naming the failed shards instead of an error or a silently truncated
//! ranking.
//!
//! Persistence uses the format v3 sharded manifest
//! (`tklus_index::save_sharded_dir`); monolithic directories load as a
//! single full-range shard.

mod engine;
mod metrics;
mod plan;

pub use engine::{ShardCompleteness, ShardError, ShardedEngine, ShardedOutcome};
pub use metrics::ShardMetrics;
pub use plan::{ShardId, ShardPlan};
// Breaker vocabulary for callers inspecting per-shard dispatch health.
pub use tklus_serve::{BreakerConfig, BreakerState};
