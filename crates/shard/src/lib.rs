//! # tklus-shard — an N-partition engine under the router's old name
//!
//! Sharding is index partitioning (DESIGN.md §14): Algorithms 2–3 cut the
//! `⟨geohash, term⟩` key space into `nodes` geohash ranges
//! ([`tklus_index::build::partition_of`]), and one [`TklusEngine`] reads
//! them beside one metadata database. [`ShardedEngine`] is that engine
//! built with `nodes = N`; it routes nothing, spawns nothing and reads no
//! file.
//!
//! This crate exists only because `benchmark/Cargo.toml` names it and the
//! benchmark calls [`ShardedEngine::try_build`] and
//! [`ShardedEngine::query`]. The next change to the benchmark deletes it.

use std::collections::BTreeSet;

use tklus_core::{Completeness, EngineConfig, EngineError, RankedUser, Ranking, TklusEngine};
use tklus_geo::circle_cover;
use tklus_index::build::partition_of;
use tklus_model::{Corpus, TklusQuery};

/// One engine whose index has `N` partitions.
pub struct ShardedEngine {
    engine: TklusEngine,
}

/// An answer, with the partitions its cover touched.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Top-k users (score descending, user id ascending).
    pub users: Vec<RankedUser>,
    /// Whether the whole cover was examined.
    pub completeness: Completeness,
    /// Distinct index partitions among the query's cover cells.
    pub fanout: usize,
    /// Always empty: nothing is skipped by a score bound.
    pub skipped_by_bound: Vec<usize>,
}

impl ShardedEngine {
    /// Builds one engine over `corpus` whose index has `n` partitions
    /// (at least one).
    pub fn try_build(
        corpus: &Corpus,
        n: usize,
        config: &EngineConfig,
    ) -> Result<Self, EngineError> {
        let mut config = config.clone();
        config.index.nodes = n.max(1);
        let (engine, _) = TklusEngine::try_build(corpus, &config)?;
        Ok(Self { engine })
    }

    /// Answers `q`. Panics on an engine error, as [`TklusEngine::query`]
    /// does; over the default in-memory stores none can occur.
    pub fn query(&self, q: &TklusQuery, ranking: Ranking) -> ShardedOutcome {
        let outcome = match self.engine.try_query(q, ranking) {
            Ok(outcome) => outcome,
            Err(e) => panic!("query failed: {e}"),
        };
        let index = self.engine.index();
        let cover = circle_cover(
            &q.location,
            q.radius_km,
            index.geohash_len(),
            self.engine.scoring().metric,
        )
        .expect("the engine's geohash length is valid");
        let nodes = index.partitions().len();
        let partitions: BTreeSet<usize> =
            cover.into_iter().map(|cell| partition_of(cell, nodes)).collect();
        ShardedOutcome {
            users: outcome.users,
            completeness: outcome.completeness,
            fanout: partitions.len(),
            skipped_by_bound: Vec::new(),
        }
    }
}
