//! Deterministic chaos suite (ISSUE acceptance, DESIGN.md §10).
//!
//! Every test builds two engines over the same generated corpus: a
//! fault-free reference, and an engine whose metadata page store is a
//! seeded [`FaultPager`]. Faults are armed per phase, and every query
//! outcome must be one of:
//!
//! * `Ok` with exactly the reference's ranked users (never silently
//!   wrong), or
//! * a typed [`EngineError`] matching the fault class injected.
//!
//! A third option — panicking — fails the test by construction. Each
//! scenario runs under three seeds (overridable with `TKLUS_CHAOS_SEED`,
//! which is how the CI chaos matrix fans out), and asserts via the shared
//! [`FaultHandle`] counters that faults actually fired, so a green run is
//! never vacuous.
//!
//! There is no page cache, so every lookup is a physical page read and
//! meets the fault schedule. A query runs on the calling thread, so the
//! deterministic fault schedule meets a deterministic operation order.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::sync::Arc;
use tklus_core::{
    BoundsMode, Completeness, EngineConfig, EngineError, MetadataStoreFactory, QueryOutcome,
    RankedUser, Ranking, TklusEngine,
};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_model::{Corpus, Semantics, TklusQuery};
use tklus_storage::{FaultConfig, FaultHandle, FaultPager, MemPager, StorageError};

/// Seeds each scenario runs under; `TKLUS_CHAOS_SEED` (the CI matrix
/// variable) replaces the whole list with one seed.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("TKLUS_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("TKLUS_CHAOS_SEED must be a u64")],
        Err(_) => vec![101, 202, 303],
    }
}

fn corpus() -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: 300,
        users: 60,
        vocab_size: 300,
        ..GenConfig::default()
    })
}

fn queries(corpus: &Corpus) -> Vec<(TklusQuery, Ranking)> {
    let specs = generate_queries(corpus, &QueryConfig { per_bucket: 4, seed: 0xC4A0 });
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
            let ranking =
                if i % 3 == 0 { Ranking::Sum } else { Ranking::Max(BoundsMode::HotKeywords) };
            let q = TklusQuery::new(spec.location, 15.0, spec.keywords, 5, semantics)
                .expect("generated query is valid");
            (q, ranking)
        })
        .collect()
}

/// A metadata store factory stacking `FaultPager` (shared `handle`) over
/// `MemPager`.
fn faulty_store(cfg: FaultConfig, handle: Arc<FaultHandle>) -> MetadataStoreFactory {
    Arc::new(move |stats| {
        Box::new(FaultPager::with_handle(MemPager::with_stats(stats), cfg, Arc::clone(&handle)))
    })
}

fn build_reference(corpus: &Corpus) -> (TklusEngine, Vec<Vec<RankedUser>>) {
    let (engine, _) = TklusEngine::build(corpus, &EngineConfig::default());
    let expected = queries(corpus).iter().map(|(q, ranking)| engine.query(q, *ranking).0).collect();
    (engine, expected)
}

fn assert_same_users(got: &[RankedUser], want: &[RankedUser], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result size");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.user, w.user, "{ctx}");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ctx}: {} vs {}", g.score, w.score);
    }
}

/// Most sweeps of the workload a scenario makes while waiting for its
/// seeded fault schedule to fire.
const WORKLOAD_PASS_CEILING: usize = 16;

/// Sweeps the workload until the schedule has injected something (or the
/// ceiling is hit). The seeded schedule fires at fixed page-read ordinals
/// and a query reads few pages (it descends each tree once, not once per
/// candidate), so one sweep may end before the first scheduled fault:
/// exposure must be a property of the schedule, not of the read count.
fn sweep_until(exposed: impl Fn() -> bool, mut sweep: impl FnMut()) {
    for _ in 0..WORKLOAD_PASS_CEILING {
        sweep();
        if exposed() {
            return;
        }
    }
}

/// Armed transient read faults: every query either matches the fault-free
/// reference exactly or fails with a typed *transient* storage error.
#[test]
fn transient_read_faults_never_corrupt_results() {
    let corpus = corpus();
    let (_, expected) = build_reference(&corpus);
    for seed in chaos_seeds() {
        let handle = FaultHandle::new();
        let cfg = FaultConfig { seed, transient_read_ppm: 20_000, ..FaultConfig::default() };
        let config = EngineConfig {
            metadata_store: Some(faulty_store(cfg, Arc::clone(&handle))),
            ..EngineConfig::default()
        };
        let (engine, _) =
            TklusEngine::try_build(&corpus, &config).expect("disarmed build is clean");
        handle.arm(true);
        let mut errors = 0usize;
        sweep_until(
            || handle.transient_injected() > 0,
            || {
                for (i, (q, ranking)) in queries(&corpus).iter().enumerate() {
                    match engine.try_query(q, *ranking) {
                        Ok(outcome) => {
                            assert_same_users(
                                &outcome.users,
                                &expected[i],
                                &format!("seed {seed} q{i}"),
                            );
                            assert_eq!(outcome.completeness, Completeness::Complete);
                        }
                        Err(EngineError::Storage(e)) => {
                            assert!(
                                e.is_transient(),
                                "seed {seed} q{i}: unexpected error class: {e}"
                            );
                            errors += 1;
                        }
                        Err(e) => {
                            panic!("seed {seed} q{i}: transient faults must not surface as {e}")
                        }
                    }
                }
            },
        );
        assert!(
            handle.transient_injected() > 0,
            "seed {seed}: schedule never fired — the run was vacuous"
        );
        assert!(errors > 0, "seed {seed}: no query observed an injected fault");
    }
}

/// Armed bit flips on the read path: the checksum layer turns every one
/// into a typed `PageCorrupt` — never a silently different ranking.
#[test]
fn read_bit_flips_surface_as_page_corruption() {
    let corpus = corpus();
    let (_, expected) = build_reference(&corpus);
    for seed in chaos_seeds() {
        let handle = FaultHandle::new();
        let cfg = FaultConfig { seed, bit_flip_read_ppm: 15_000, ..FaultConfig::default() };
        let config = EngineConfig {
            metadata_store: Some(faulty_store(cfg, Arc::clone(&handle))),
            ..EngineConfig::default()
        };
        let (engine, _) =
            TklusEngine::try_build(&corpus, &config).expect("disarmed build is clean");
        handle.arm(true);
        let mut corrupt = 0usize;
        sweep_until(
            || handle.flips_injected() > 0,
            || {
                for (i, (q, ranking)) in queries(&corpus).iter().enumerate() {
                    match engine.try_query(q, *ranking) {
                        Ok(outcome) => {
                            assert_same_users(
                                &outcome.users,
                                &expected[i],
                                &format!("seed {seed} q{i}"),
                            );
                        }
                        Err(EngineError::Storage(StorageError::PageCorrupt { .. })) => corrupt += 1,
                        Err(e) => panic!(
                            "seed {seed} q{i}: a read flip must be caught as corruption: {e}"
                        ),
                    }
                }
            },
        );
        assert!(handle.flips_injected() > 0, "seed {seed}: no flips fired — vacuous run");
        assert!(corrupt > 0, "seed {seed}: no query observed a flip");
    }
}

/// Torn writes and write-path bit flips armed during the *build*: either
/// the build itself fails typed, or the damage is latent and every query
/// that touches a damaged page reports `PageCorrupt` — and queries that
/// succeed still return exactly the reference ranking.
#[test]
fn write_faults_during_build_are_caught_at_read_time() {
    let corpus = corpus();
    let (_, expected) = build_reference(&corpus);
    for seed in chaos_seeds() {
        let handle = FaultHandle::new();
        let cfg = FaultConfig {
            seed,
            torn_write_ppm: 60_000,
            bit_flip_write_ppm: 60_000,
            ..FaultConfig::default()
        };
        let config = EngineConfig {
            metadata_store: Some(faulty_store(cfg, Arc::clone(&handle))),
            ..EngineConfig::default()
        };
        handle.arm(true); // faults live through the whole bulk load
        let engine = match TklusEngine::try_build(&corpus, &config) {
            Ok((engine, _)) => engine,
            Err(EngineError::Storage(StorageError::PageCorrupt { .. })) => {
                // The bulk load read back a page it had (tornly) written.
                assert!(handle.total_injected() > 0);
                continue;
            }
            Err(e) => panic!("seed {seed}: write faults must not surface as {e}"),
        };
        handle.arm(false); // damage is already on the pages
        assert!(
            handle.torn_injected() + handle.flips_injected() > 0,
            "seed {seed}: no write fault fired — vacuous run"
        );
        let mut corrupt = 0usize;
        for (i, (q, ranking)) in queries(&corpus).iter().enumerate() {
            match engine.try_query(q, *ranking) {
                Ok(outcome) => {
                    assert_same_users(&outcome.users, &expected[i], &format!("seed {seed} q{i}"));
                }
                Err(EngineError::Storage(StorageError::PageCorrupt { .. })) => corrupt += 1,
                Err(e) => panic!("seed {seed} q{i}: latent write damage must be corruption: {e}"),
            }
        }
        if corrupt == 0 {
            // The query workload happened to avoid the damaged pages; a
            // full sweep of all three trees must still find them. (Only
            // bit flips damage a page unconditionally — a torn write whose
            // tail matched the old page content is a genuine no-op.)
            let db = engine.db();
            let found = corpus.posts().iter().any(|p| {
                matches!(db.try_row(p.id), Err(StorageError::PageCorrupt { .. }))
                    || matches!(db.try_replies_to_ids(p.id), Err(StorageError::PageCorrupt { .. }))
                    || matches!(db.try_posts_of_user(p.user), Err(StorageError::PageCorrupt { .. }))
            });
            assert!(
                found || handle.flips_injected() == 0,
                "seed {seed}: a write flip fired but no page reads back as corrupt"
            );
        }
    }
}

/// All fault classes at once, armed through build *and* queries: whatever
/// happens must be an `Ok`-and-correct or a typed error — this test's
/// assertion is mostly that nothing panics and nothing is silently wrong.
#[test]
fn combined_fault_storm_never_panics_or_lies() {
    let corpus = corpus();
    let (_, expected) = build_reference(&corpus);
    for seed in chaos_seeds() {
        let handle = FaultHandle::new();
        let cfg = FaultConfig {
            seed,
            transient_read_ppm: 10_000,
            transient_write_ppm: 2_000,
            torn_write_ppm: 2_000,
            bit_flip_read_ppm: 5_000,
            bit_flip_write_ppm: 2_000,
        };
        let config = EngineConfig {
            metadata_store: Some(faulty_store(cfg, Arc::clone(&handle))),
            ..EngineConfig::default()
        };
        handle.arm(true);
        let engine = match TklusEngine::try_build(&corpus, &config) {
            Ok((engine, _)) => engine,
            Err(EngineError::Storage(_)) => continue, // typed build failure is a valid outcome
            Err(e) => panic!("seed {seed}: build failed outside the storage taxonomy: {e}"),
        };
        sweep_until(
            || handle.total_injected() > 0,
            || {
                for (i, (q, ranking)) in queries(&corpus).iter().enumerate() {
                    match engine.try_query(q, *ranking) {
                        Ok(outcome) => {
                            assert_same_users(
                                &outcome.users,
                                &expected[i],
                                &format!("seed {seed} q{i}"),
                            );
                        }
                        Err(EngineError::Storage(_)) => {}
                        Err(e) => {
                            panic!("seed {seed} q{i}: fault surfaced outside the taxonomy: {e}")
                        }
                    }
                }
            },
        );
        assert!(handle.total_injected() > 0, "seed {seed}: vacuous storm");
    }
}

/// The full stack at once — injected storage faults × tight wall-clock
/// budgets × 8 concurrent query threads (the serving layer's worst case).
/// Every outcome must be typed: a complete answer matching the reference,
/// a degraded exact prefix, or a typed storage error. Any panic —
/// including a poisoned lock from a panicking worker — fails the test.
#[test]
fn fault_budget_concurrency_storm_stays_typed() {
    let corpus = corpus();
    let (_, expected) = build_reference(&corpus);
    let workload = queries(&corpus);
    for seed in chaos_seeds() {
        let handle = FaultHandle::new();
        let cfg = FaultConfig { seed, transient_read_ppm: 15_000, ..FaultConfig::default() };
        // Concurrent callers interleave on one op counter: the fault
        // schedule is no longer deterministic per query — only the
        // outcome taxonomy is asserted, which is exactly the point of
        // this storm.
        let config = EngineConfig {
            metadata_store: Some(faulty_store(cfg, Arc::clone(&handle))),
            ..EngineConfig::default()
        };
        let (engine, _) =
            TklusEngine::try_build(&corpus, &config).expect("disarmed build is clean");
        handle.arm(true);
        let engine = &engine;
        let workload = &workload;
        let expected = &expected;
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|t| {
                    scope.spawn(move || {
                        let mut ok = 0usize;
                        let mut degraded = 0usize;
                        let mut errors = 0usize;
                        for (i, (q, ranking)) in workload.iter().enumerate() {
                            // Stagger budgets across threads so some runs
                            // hit the deadline mid-cover and some finish.
                            let budgeted = q.clone().with_timeout_ms((t as u64) % 3);
                            match engine.try_query(&budgeted, *ranking) {
                                Ok(outcome) => match outcome.completeness {
                                    Completeness::Complete => {
                                        assert_same_users(
                                            &outcome.users,
                                            &expected[i],
                                            &format!("seed {seed} t{t} q{i}"),
                                        );
                                        ok += 1;
                                    }
                                    Completeness::Degraded { cells_processed, cells_total } => {
                                        assert!(
                                            cells_processed < cells_total,
                                            "seed {seed} t{t} q{i}: degraded must be a strict prefix"
                                        );
                                        degraded += 1;
                                    }
                                },
                                Err(EngineError::Storage(e)) => {
                                    assert!(
                                        e.is_transient(),
                                        "seed {seed} t{t} q{i}: unexpected error class: {e}"
                                    );
                                    errors += 1;
                                }
                                Err(e) => panic!(
                                    "seed {seed} t{t} q{i}: fault surfaced outside the taxonomy: {e}"
                                ),
                            }
                        }
                        (ok, degraded, errors)
                    })
                })
                .collect();
            let mut total_ok = 0usize;
            let mut total_degraded = 0usize;
            let mut total_errors = 0usize;
            for thread in threads {
                let (ok, degraded, errors) = thread.join().expect("no worker may panic");
                total_ok += ok;
                total_degraded += degraded;
                total_errors += errors;
            }
            // The storm must actually exercise all three outcome classes.
            assert!(total_ok > 0, "seed {seed}: nothing completed");
            assert!(total_degraded > 0, "seed {seed}: no budget ever expired — vacuous");
            assert!(total_errors > 0, "seed {seed}: no fault ever surfaced — vacuous");
        });
        assert!(handle.transient_injected() > 0, "seed {seed}: schedule never fired");
    }
}

// ---- Deadline / budget determinism (fault-free engine) -----------------

/// A query whose cover has several cells, so budgets have something to cut.
fn wide_query(corpus: &Corpus, engine: &TklusEngine) -> (TklusQuery, Ranking, usize) {
    for (q, ranking) in queries(corpus) {
        let (_, stats) = engine.query(&q, ranking);
        if stats.cover_cells >= 3 && stats.candidates > 0 {
            return (q, ranking, stats.cover_cells);
        }
    }
    panic!("generated workload has no multi-cell query");
}

#[test]
fn max_cells_budget_is_deterministic_and_monotone() {
    let corpus = corpus();
    let (engine, _) = build_reference(&corpus);
    let (q, ranking, total) = wide_query(&corpus, &engine);
    let (full, _) = engine.query(&q, ranking);
    for m in 0..=total {
        let budgeted = q.clone().with_max_cells(m);
        let a = engine.try_query(&budgeted, ranking).expect("fault-free");
        let b = engine.try_query(&budgeted, ranking).expect("fault-free");
        assert_eq!(a.users, b.users, "max_cells={m}: budgeted results must be reproducible");
        assert_eq!(a.completeness, b.completeness);
        if m >= total {
            assert_eq!(a.completeness, Completeness::Complete);
            assert_same_users(&a.users, &full, &format!("max_cells={m} admits the whole cover"));
        } else {
            assert_eq!(
                a.completeness,
                Completeness::Degraded { cells_processed: m, cells_total: total },
                "max_cells={m}"
            );
        }
    }
}

#[test]
fn zero_timeout_degrades_to_an_empty_exact_prefix() {
    let corpus = corpus();
    let (engine, _) = build_reference(&corpus);
    let (q, ranking, total) = wide_query(&corpus, &engine);
    let outcome: QueryOutcome =
        engine.try_query(&q.clone().with_timeout_ms(0), ranking).expect("fault-free");
    assert!(outcome.users.is_empty(), "no cells processed -> no candidates");
    assert_eq!(
        outcome.completeness,
        Completeness::Degraded { cells_processed: 0, cells_total: total }
    );
    assert_eq!(outcome.stats.cover_cells, 0);
}

#[test]
fn generous_timeout_is_complete_and_identical_to_unbudgeted() {
    let corpus = corpus();
    let (engine, _) = build_reference(&corpus);
    let (q, ranking, _) = wide_query(&corpus, &engine);
    let (full, _) = engine.query(&q, ranking);
    let outcome =
        engine.try_query(&q.clone().with_timeout_ms(60_000), ranking).expect("fault-free");
    assert_eq!(outcome.completeness, Completeness::Complete);
    assert_same_users(&outcome.users, &full, "generous timeout");
}

/// The degraded prefix is itself exact: ranking only the tweets found in
/// the first `m` cover cells of the *reference* engine's fetch order.
#[test]
fn degraded_results_are_a_prefix_ranking_not_garbage() {
    let corpus = corpus();
    let (engine, _) = build_reference(&corpus);
    let (q, ranking, total) = wide_query(&corpus, &engine);
    // Build a second, independent engine: the degraded answer for a given
    // max_cells must agree across engines (pure function of corpus+query).
    let (engine2, _) = TklusEngine::build(&corpus, &EngineConfig::default());
    for m in [1, total / 2, total.saturating_sub(1)] {
        let budgeted = q.clone().with_max_cells(m);
        let a = engine.try_query(&budgeted, ranking).expect("fault-free");
        let b = engine2.try_query(&budgeted, ranking).expect("fault-free");
        assert_same_users(&a.users, &b.users, &format!("max_cells={m} across engines"));
        assert_eq!(a.completeness, b.completeness);
    }
}
