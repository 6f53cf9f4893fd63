//! Concurrent ingest/query chaos storm (ISSUE satellite, DESIGN.md §15).
//!
//! Eight threads hammer one [`IngestStore`]: four writers stream whole
//! reply threads (grouped by root so every reply lands after its target,
//! as a timestamp-ordered stream guarantees), four readers issue top-k
//! queries the whole time. The engine's metadata page store is a seeded
//! [`FaultPager`], so both the query path and the live-apply path see
//! injected storage faults mid-storm.
//!
//! Invariants:
//!
//! * **No panics, typed errors only** — every operation returns `Ok` or a
//!   typed [`WalError`]; a panic in any thread fails the test.
//! * **No half-applied tweets** — ingest holds the store's write latch
//!   across "WAL append + live apply", so a reader never observes a post
//!   whose metadata landed but whose postings did not. After the storm
//!   (faults disarmed) every query is bitwise-equal to a from-scratch
//!   engine over the acked set, which could not hold if any admitted
//!   record were half-applied.
//! * **Poisoned fails fast** — when an unmasked fault storm defeats the
//!   rebuild fallback, every subsequent operation reports
//!   [`WalError::Poisoned`] instead of computing over a broken snapshot,
//!   and a fault-free reopen still recovers every acked ingest from the
//!   WAL (durability survives in-memory poisoning).
//!
//! `TKLUS_CHAOS_SEED` narrows the seed list to one (the CI matrix knob).

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tklus_core::{BoundsMode, EngineConfig, MetadataStoreFactory, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId};
use tklus_storage::{
    FaultConfig, FaultHandle, FaultPager, MemPager, PageStore, RetryPager, RetryPolicy,
};
use tklus_wal::{IngestStore, SimFs, StoreConfig, WalError, WalFs};

const WRITERS: usize = 4;
const READERS: usize = 4;
/// Reader queries (all readers together) after which a storm that has
/// still injected nothing gives up and is reported as vacuous. The fault
/// schedule is a function of the page-op ordinal alone; at 400 ppm the
/// chance that none of the first 10⁵ ops fires is e⁻⁴⁰.
const READER_QUERY_CEILING: usize = 100_000;

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("TKLUS_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("TKLUS_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 2, 3],
    }
}

fn faulty_store(
    cfg: FaultConfig,
    handle: Arc<FaultHandle>,
    retry: Option<RetryPolicy>,
) -> MetadataStoreFactory {
    Arc::new(move |stats| {
        let faulty = FaultPager::with_handle(MemPager::with_stats(stats), cfg, Arc::clone(&handle));
        match retry {
            Some(policy) => Box::new(RetryPager::new(faulty, policy)) as Box<dyn PageStore>,
            None => Box::new(faulty),
        }
    })
}

fn engine_config(faults: Option<MetadataStoreFactory>) -> EngineConfig {
    EngineConfig { cache_pages: 0, metadata_store: faults, ..EngineConfig::default() }
}

fn storm_posts(seed: u64) -> Vec<Post> {
    generate_corpus(&GenConfig {
        original_posts: 120,
        users: 30,
        vocab_size: 150,
        seed,
        ..GenConfig::default()
    })
    .posts()
    .to_vec()
}

fn storm_queries(posts: &[Post]) -> Vec<(TklusQuery, Ranking)> {
    let corpus = Corpus::new(posts.to_vec()).unwrap();
    generate_queries(&corpus, &QueryConfig { per_bucket: 2, seed: 0x5708 })
        .into_iter()
        .enumerate()
        .take(6)
        .map(|(i, spec)| {
            let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
            let ranking =
                if i % 2 == 0 { Ranking::Sum } else { Ranking::Max(BoundsMode::HotKeywords) };
            let q = TklusQuery::new(spec.location, 25.0, spec.keywords, 5, semantics).unwrap();
            (q, ranking)
        })
        .collect()
}

/// Splits `posts` into [`WRITERS`] streams, whole reply threads per
/// stream, each stream id-ordered — so every writer delivers targets
/// before replies, exactly like a timestamp-ordered shard of the firehose.
fn writer_streams(posts: &[Post]) -> Vec<Vec<Post>> {
    fn root_of<'a>(by_id: &HashMap<TweetId, &'a Post>, mut p: &'a Post) -> TweetId {
        while let Some(r) = p.in_reply_to {
            match by_id.get(&r.target) {
                Some(parent) => p = parent,
                None => break,
            }
        }
        p.id
    }
    let by_id: HashMap<TweetId, &Post> = posts.iter().map(|p| (p.id, p)).collect();
    let mut roots: Vec<TweetId> = Vec::new();
    let mut streams: Vec<Vec<Post>> = vec![Vec::new(); WRITERS];
    for post in posts {
        let root = root_of(&by_id, post);
        let slot = match roots.iter().position(|r| *r == root) {
            Some(i) => i,
            None => {
                roots.push(root);
                roots.len() - 1
            }
        };
        streams[slot % WRITERS].push(post.clone());
    }
    streams
}

struct StormOutcome {
    acked: Vec<TweetId>,
    reader_oks: usize,
    reader_typed_errors: usize,
    saw_poisoned: bool,
}

/// Runs the 8-thread storm. Writer errors other than `Poisoned` panic the
/// writer thread (readers additionally tolerate `Engine` faults), and any
/// panic propagates out of the join and fails the test.
///
/// How many page operations the readers get in beside the writers depends
/// on thread timing, and the seeded schedule fires at fixed operation
/// ordinals — so once the writers are done the readers keep querying
/// until `faults` has injected something (or [`READER_QUERY_CEILING`] is
/// hit): exposure is a property of the schedule, not of the scheduler.
fn run_storm(
    store: &Arc<IngestStore>,
    posts: &[Post],
    qs: &[(TklusQuery, Ranking)],
    faults: &FaultHandle,
) -> StormOutcome {
    let streams = writer_streams(posts);
    let done = Arc::new(AtomicBool::new(false));
    let oks = Arc::new(AtomicUsize::new(0));
    let typed = Arc::new(AtomicUsize::new(0));
    let exposed = || {
        faults.transient_injected() > 0
            || oks.load(Ordering::Relaxed) + typed.load(Ordering::Relaxed) >= READER_QUERY_CEILING
    };
    let poisoned_seen = Arc::new(AtomicBool::new(false));

    let mut acked = Vec::new();
    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for stream in streams {
            let store = Arc::clone(store);
            let poisoned_seen = Arc::clone(&poisoned_seen);
            writer_handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                for post in stream {
                    let id = post.id;
                    match store.ingest(post) {
                        Ok(_) => mine.push(id),
                        Err(WalError::Poisoned) => {
                            poisoned_seen.store(true, Ordering::SeqCst);
                            // Fail-fast contract: once poisoned, always
                            // poisoned (until a reopen).
                            assert!(matches!(
                                store.try_query(
                                    &TklusQuery::new(
                                        tklus_geo::Point::new(0.0, 0.0).unwrap(),
                                        10.0,
                                        vec!["storm".into()],
                                        3,
                                        Semantics::Or,
                                    )
                                    .unwrap(),
                                    Ranking::Sum,
                                ),
                                Err(WalError::Poisoned)
                            ));
                        }
                        Err(other) => panic!("writer: unexpected ingest error: {other}"),
                    }
                }
                mine
            }));
        }
        for _ in 0..READERS {
            let store = Arc::clone(store);
            let done = Arc::clone(&done);
            let oks = Arc::clone(&oks);
            let typed = Arc::clone(&typed);
            scope.spawn(move || {
                while !(done.load(Ordering::Acquire) && exposed()) {
                    for (q, ranking) in qs {
                        match store.try_query(q, *ranking) {
                            Ok(users) => {
                                for u in &users {
                                    assert!(
                                        u.score.is_finite() && u.score > 0.0,
                                        "reader observed a nonsense score {}",
                                        u.score
                                    );
                                }
                                oks.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(WalError::Engine(_)) | Err(WalError::Poisoned) => {
                                typed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("reader: untyped failure: {other}"),
                        }
                    }
                }
            });
        }
        for handle in writer_handles {
            acked.extend(handle.join().expect("writer thread panicked"));
        }
        done.store(true, Ordering::Release);
    });

    StormOutcome {
        acked,
        reader_oks: oks.load(Ordering::Relaxed),
        reader_typed_errors: typed.load(Ordering::Relaxed),
        saw_poisoned: poisoned_seen.load(Ordering::SeqCst),
    }
}

/// Retry-masked faults: the storm must ack every post, never poison, and
/// once the dust settles every query is bitwise the from-scratch answer.
#[test]
fn eight_thread_storm_with_masked_faults_converges_to_oracle() {
    for seed in chaos_seeds() {
        let posts = storm_posts(seed);
        let qs = storm_queries(&posts);

        let handle = FaultHandle::new();
        let cfg = FaultConfig {
            seed,
            transient_read_ppm: 8_000,
            transient_write_ppm: 8_000,
            ..FaultConfig::default()
        };
        // max_attempts 8 puts an unmasked streak at ~1e-17 per op: the
        // storm is fault-soaked yet every operation must still succeed.
        let retry = RetryPolicy { max_attempts: 8, base_backoff: std::time::Duration::ZERO };
        let factory = faulty_store(cfg, Arc::clone(&handle), Some(retry));

        let (fs, _) = SimFs::new(seed ^ 0x5708);
        let fs: Arc<dyn WalFs> = fs as Arc<dyn WalFs>;
        let config = StoreConfig { engine: engine_config(Some(factory)), ..StoreConfig::default() };
        let (store, _) = IngestStore::open(fs, config).unwrap();
        let store = Arc::new(store);

        handle.arm(true);
        let outcome = run_storm(&store, &posts, &qs, &handle);
        handle.arm(false);

        assert!(
            !outcome.saw_poisoned && !store.is_poisoned(),
            "seed {seed}: masked storm poisoned"
        );
        assert_eq!(outcome.acked.len(), posts.len(), "seed {seed}: masked storm dropped acks");
        assert!(outcome.reader_oks > 0, "seed {seed}: readers never got a result — vacuous");
        assert!(
            handle.transient_injected() > 0,
            "seed {seed}: no fault ever fired — the storm was vacuous"
        );

        // Oracle: bitwise equality with a from-scratch build.
        let corpus = Corpus::new(posts.clone()).unwrap();
        let (reference, _) = TklusEngine::try_build(&corpus, &engine_config(None)).unwrap();
        for (q, ranking) in &qs {
            let got = store.try_query(q, *ranking).unwrap();
            let want = reference.try_query(q, *ranking).unwrap().users;
            assert_eq!(got, want, "seed {seed}: post-storm query diverged from oracle");
        }
    }
}

/// Unmasked faults: operations fail typed (possibly poisoning the store),
/// never panic and never lose an acked ingest — a fault-free reopen
/// recovers every acked post from the WAL and answers match a
/// from-scratch engine over the recovered set.
#[test]
fn unmasked_fault_storm_fails_typed_and_loses_nothing_acked() {
    for seed in chaos_seeds() {
        let posts = storm_posts(seed);
        let qs = storm_queries(&posts);

        let handle = FaultHandle::new();
        let cfg = FaultConfig {
            seed,
            transient_read_ppm: 400,
            transient_write_ppm: 400,
            ..FaultConfig::default()
        };
        let factory = faulty_store(cfg, Arc::clone(&handle), None);

        let (fs, _) = SimFs::new(seed ^ 0xBAD);
        let walfs: Arc<dyn WalFs> = Arc::clone(&fs) as Arc<dyn WalFs>;
        let config = StoreConfig { engine: engine_config(Some(factory)), ..StoreConfig::default() };
        let (store, _) = IngestStore::open(Arc::clone(&walfs), config).unwrap();
        let store = Arc::new(store);

        handle.arm(true);
        let outcome = run_storm(&store, &posts, &qs, &handle);
        handle.arm(false);

        assert!(
            handle.transient_injected() > 0,
            "seed {seed}: no fault fired in {READER_QUERY_CEILING} reader queries — vacuous"
        );
        assert!(
            outcome.reader_oks + outcome.reader_typed_errors > 0,
            "seed {seed}: readers never ran"
        );
        if store.is_poisoned() {
            // Fail-fast: a poisoned store refuses everything, including
            // compaction (which must not seal a broken snapshot).
            assert!(outcome.saw_poisoned, "seed {seed}: poisoned without any writer seeing it");
            assert!(matches!(store.compact(), Err(WalError::Poisoned)));
        }
        drop(store);

        // Durability does not depend on the in-memory state: reopen
        // fault-free and every acked ingest must be there, with oracle
        // answers over exactly the recovered set.
        let config = StoreConfig { engine: engine_config(None), ..StoreConfig::default() };
        let (store, _) = IngestStore::open(walfs, config).unwrap();
        for id in &outcome.acked {
            assert!(store.contains_post(*id), "seed {seed}: acked tweet {} lost", id.0);
        }
        let recovered = store.posts();
        let corpus = Corpus::new(recovered).unwrap();
        let (reference, _) = TklusEngine::try_build(&corpus, &engine_config(None)).unwrap();
        for (q, ranking) in &qs {
            let got = store.try_query(q, *ranking).unwrap();
            let want = reference.try_query(q, *ranking).unwrap().users;
            assert_eq!(got, want, "seed {seed}: post-reopen query diverged from oracle");
        }
    }
}
