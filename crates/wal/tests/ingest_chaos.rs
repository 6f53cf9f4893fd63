//! Concurrent ingest/query/compaction chaos storm (DESIGN.md §15).
//!
//! Eight threads hammer one [`IngestStore`]: four writers stream whole
//! reply threads (grouped by root so every reply lands after its target,
//! as a timestamp-ordered stream guarantees) and the writer whose ack is
//! a multiple of [`COMPACT_EVERY`] runs a compaction round; four readers
//! run top-k queries the whole time. The engine's metadata page store
//! is a seeded [`FaultPager`], so the query path and every compaction's
//! engine build see injected storage faults mid-storm.
//!
//! Invariants:
//!
//! * **Ingest never touches a page** — the sealed engine is read-only and
//!   a live post's metadata lives in the memtable, so even the unmasked
//!   storm acks every post.
//! * **No panics, typed errors only** — queries and compaction rounds
//!   return `Ok` or [`WalError::Engine`]; a panic in any thread fails the
//!   test. A failed round is counted in
//!   [`IngestStore::compaction_stats`] and installs nothing: the old
//!   engine and the memtable keep answering.
//! * **No half-applied tweets** — after the storm (faults disarmed) every
//!   query is bitwise-equal to a from-scratch engine over the acked set,
//!   before and after one more compaction, and a fault-free reopen
//!   recovers every acked ingest from the WAL.
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
/// A compaction round runs after every this many acks (all writers
/// together).
const COMPACT_EVERY: usize = 64;
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
    rounds_ok: u64,
    rounds_failed: u64,
}

/// Runs the 8-thread storm. A writer panics on any ingest error and on a
/// compaction error other than `Engine`; readers panic on any error other
/// than `Engine`. Any panic propagates out of the join and fails the
/// test.
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
    let acks = AtomicUsize::new(0);
    let rounds_ok = AtomicUsize::new(0);
    let rounds_failed = AtomicUsize::new(0);
    let exposed = || {
        faults.transient_injected() > 0
            || oks.load(Ordering::Relaxed) + typed.load(Ordering::Relaxed) >= READER_QUERY_CEILING
    };

    let mut acked = Vec::new();
    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for stream in streams {
            let store = Arc::clone(store);
            let (acks, rounds_ok, rounds_failed) = (&acks, &rounds_ok, &rounds_failed);
            writer_handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                for post in stream {
                    let id = post.id;
                    match store.ingest(post) {
                        Ok(_) => mine.push(id),
                        Err(e) => panic!("writer: ingest failed: {e}"),
                    }
                    if (acks.fetch_add(1, Ordering::Relaxed) + 1) % COMPACT_EVERY != 0 {
                        continue;
                    }
                    match store.compact() {
                        Ok(_) => rounds_ok.fetch_add(1, Ordering::Relaxed),
                        Err(WalError::Engine(_)) => rounds_failed.fetch_add(1, Ordering::Relaxed),
                        Err(other) => panic!("writer: untyped compaction failure: {other}"),
                    };
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
                            Err(WalError::Engine(_)) => {
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
        rounds_ok: rounds_ok.load(Ordering::Relaxed) as u64,
        rounds_failed: rounds_failed.load(Ordering::Relaxed) as u64,
    }
}

/// Every query of `qs` on `store` equals a from-scratch engine over
/// `posts`, bit for bit.
fn assert_oracle(store: &IngestStore, posts: Vec<Post>, qs: &[(TklusQuery, Ranking)], what: &str) {
    let corpus = Corpus::new(posts).unwrap();
    let (reference, _) = TklusEngine::try_build(&corpus, &engine_config(None)).unwrap();
    for (q, ranking) in qs {
        let got = store.try_query(q, *ranking).unwrap();
        let want = reference.try_query(q, *ranking).unwrap().users;
        assert_eq!(got, want, "{what}: query {q:?} {ranking:?} diverged from oracle");
    }
}

/// The storm's bookkeeping agrees with the store's: every post acked,
/// every round counted where it happened.
fn assert_storm_accounting(store: &IngestStore, posts: &[Post], outcome: &StormOutcome, seed: u64) {
    assert_eq!(outcome.acked.len(), posts.len(), "seed {seed}: the storm dropped acks");
    assert!(
        outcome.rounds_ok + outcome.rounds_failed >= (posts.len() / COMPACT_EVERY) as u64,
        "seed {seed}: compaction rounds went missing"
    );
    let stats = store.compaction_stats();
    assert_eq!(stats.successes_total, outcome.rounds_ok, "seed {seed}");
    assert_eq!(stats.failures_total, outcome.rounds_failed, "seed {seed}");
}

/// Retry-masked faults: the storm must ack every post and seal every
/// round, and once the dust settles every query is bitwise the
/// from-scratch answer.
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

        assert_storm_accounting(&store, &posts, &outcome, seed);
        assert_eq!(outcome.rounds_failed, 0, "seed {seed}: a masked round failed");
        assert!(outcome.reader_oks > 0, "seed {seed}: readers never got a result — vacuous");
        assert!(
            handle.transient_injected() > 0,
            "seed {seed}: no fault ever fired — the storm was vacuous"
        );

        assert_oracle(&store, posts.clone(), &qs, &format!("seed {seed}, post-storm"));
        store.compact().unwrap();
        assert_oracle(&store, posts, &qs, &format!("seed {seed}, post-compaction"));
    }
}

/// Unmasked faults: every ingest acks, queries and compaction rounds fail
/// typed and never panic, a failed round leaves the store answering, and
/// once the faults are disarmed one round seals everything and every
/// answer is the from-scratch engine's — after a fault-free reopen too.
#[test]
fn unmasked_fault_storm_acks_everything_and_fails_only_typed() {
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
        assert_storm_accounting(&store, &posts, &outcome, seed);
        assert_oracle(&store, posts.clone(), &qs, &format!("seed {seed}, post-storm"));
        store.compact().unwrap();
        assert_eq!(store.live_posts(), 0, "seed {seed}: the fault-free round sealed everything");
        assert_oracle(&store, posts.clone(), &qs, &format!("seed {seed}, post-compaction"));
        drop(store);

        // Durability does not depend on the in-memory state: reopen
        // fault-free and every acked ingest must be there, with oracle
        // answers over exactly the recovered set.
        let config = StoreConfig { engine: engine_config(None), ..StoreConfig::default() };
        let (store, _) = IngestStore::open(walfs, config).unwrap();
        for id in &outcome.acked {
            assert!(store.contains_post(*id), "seed {seed}: acked tweet {} lost", id.0);
        }
        assert_oracle(&store, store.posts(), &qs, &format!("seed {seed}, post-reopen"));
    }
}

/// A store whose metadata pages all fail still acks every ingest — a
/// reply into a sealed thread included — because an ingest writes no
/// page. Queries and a compaction round fail typed meanwhile, and once
/// the pages heal the store answers exactly.
#[test]
fn ingest_acks_while_every_metadata_page_operation_fails() {
    let posts = storm_posts(7);
    let (sealed, live) = posts.split_at(posts.len() / 2);
    let live = &live[..50];
    assert!(
        live.iter().any(|p| p.in_reply_to.is_some_and(|r| sealed.iter().any(|s| s.id == r.target))),
        "the ingests must reply into sealed threads"
    );
    let qs = storm_queries(&posts);

    let handle = FaultHandle::new();
    let cfg = FaultConfig {
        seed: 7,
        transient_read_ppm: 1_000_000,
        transient_write_ppm: 1_000_000,
        ..FaultConfig::default()
    };
    let factory = faulty_store(cfg, Arc::clone(&handle), None);
    let (fs, _) = SimFs::new(0xDEAD);
    let config = StoreConfig { engine: engine_config(Some(factory)), ..StoreConfig::default() };
    let (store, _) = IngestStore::open(fs as Arc<dyn WalFs>, config).unwrap();
    for p in sealed {
        store.ingest(p.clone()).unwrap();
    }
    assert!(store.compact().unwrap());

    handle.arm(true);
    for p in live {
        store.ingest(p.clone()).unwrap();
    }
    for (q, ranking) in &qs {
        match store.try_query(q, *ranking) {
            Ok(_) | Err(WalError::Engine(_)) => {}
            Err(other) => panic!("untyped query failure: {other}"),
        }
    }
    assert!(
        qs.iter().any(|(q, r)| store.try_query(q, *r).is_err()),
        "a query that reads a sealed page fails"
    );
    assert!(matches!(store.compact(), Err(WalError::Engine(_))));
    handle.arm(false);

    assert_eq!(store.compaction_stats().failures_total, 1);
    assert_eq!(store.live_posts(), live.len(), "the failed round installed nothing");
    let acked: Vec<Post> = sealed.iter().chain(live).cloned().collect();
    assert_oracle(&store, acked.clone(), &qs, "healed");
    assert!(store.compact().unwrap());
    assert_oracle(&store, acked, &qs, "healed and sealed");
}
