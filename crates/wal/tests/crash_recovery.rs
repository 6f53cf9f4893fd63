//! Crash-recovery chaos suite (the ISSUE's tentpole acceptance).
//!
//! One deterministic workload — multi-partition ingests with WAL segment
//! rotation, two mid-stream incremental compactions (partial partition
//! rewrites, carried-forward seal files, manifest swaps), a final
//! compaction — runs against [`SimFs`] with a crash scheduled at the Nth
//! mutating filesystem operation, for **every** N the clean run performs
//! (so every append, segment-rotate, compaction write, and manifest-swap
//! op is a crash point), under each chaos seed. After the crash the
//! simulated machine reboots ([`SimFs::crash_and_lose_unsynced`]: durable
//! prefixes survive, a seeded slice of unsynced bytes survives as the
//! torn tail), the store reopens, and three things must hold:
//!
//! 1. **Acked durability** — every ingest that returned `Ok` before the
//!    crash is present after recovery (the WAL was fsynced before the
//!    ack).
//! 2. **No partial records** — recovery never surfaces corruption for a
//!    crash-shaped log: reopen succeeds, and replay's truncation report
//!    is the only place torn bytes appear.
//! 3. **Query fidelity** — post-recovery answers are bitwise-identical
//!    to a from-scratch monolithic engine built over exactly the
//!    recovered post set (which may exceed the acked set by unacked
//!    records whose frames happened to survive whole: at-least-once, not
//!    at-most-once).
//!
//! `TKLUS_CHAOS_SEED` narrows the seed list to one — the CI crash-matrix
//! variable.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::collections::HashSet;
use std::sync::Arc;
use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId};
use tklus_wal::{FsyncPolicy, IngestStore, SimFs, StoreConfig, WalConfig, WalError, WalFs};

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("TKLUS_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("TKLUS_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 2, 3],
    }
}

fn store_config() -> StoreConfig {
    StoreConfig {
        engine: EngineConfig::default(),
        // Tiny segments force rotations mid-workload, so the sweep hits
        // rotate-time crash points, not just appends.
        wal: WalConfig { segment_bytes: 256, fsync: FsyncPolicy::Always },
        ..StoreConfig::default()
    }
}

fn workload(seed: u64) -> Vec<Post> {
    // ~35 posts with reply cascades (targets precede replies in id
    // order). Small enough that a full every-op crash sweep stays fast.
    let mut posts = generate_corpus(&GenConfig {
        original_posts: 22,
        users: 10,
        vocab_size: 60,
        seed,
        ..GenConfig::default()
    })
    .posts()
    .to_vec();
    // Scatter a third of the posts across far-apart geohash partitions,
    // so every compaction in the sweep writes several partition files and
    // carries untouched ones forward — the incremental schedule's partial
    // rewrites and carried-forward names all become crash points.
    for (i, post) in posts.iter_mut().enumerate() {
        let jitter = i as f64 * 7e-3;
        match i % 3 {
            1 => post.location = tklus_geo::Point::new_unchecked(-33.85 + jitter, 151.20),
            2 => post.location = tklus_geo::Point::new_unchecked(35.65 + jitter, 139.70),
            _ => {}
        }
    }
    posts
}

fn queries(posts: &[Post]) -> Vec<(TklusQuery, Ranking)> {
    let corpus = Corpus::new(posts.to_vec()).unwrap();
    generate_queries(&corpus, &QueryConfig { per_bucket: 1, seed: 0xCAFE })
        .into_iter()
        .enumerate()
        .take(4)
        .map(|(i, spec)| {
            let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
            let ranking =
                if i % 2 == 0 { Ranking::Sum } else { Ranking::Max(BoundsMode::HotKeywords) };
            let q = TklusQuery::new(spec.location, 25.0, spec.keywords, 5, semantics).unwrap();
            (q, ranking)
        })
        .collect()
}

/// Runs the scripted workload, collecting the ids of acked ingests.
/// Errors (the scheduled crash) are recorded, never unwrapped — after the
/// kill fires every further operation fails, like a dead process.
fn run_workload(store: &IngestStore, posts: &[Post]) -> (Vec<TweetId>, bool) {
    let mut acked = Vec::new();
    let mut crashed = false;
    let compact_at = [posts.len() / 3, 2 * posts.len() / 3];
    for (i, post) in posts.iter().enumerate() {
        if compact_at.contains(&i) {
            crashed |= matches!(store.compact(), Err(WalError::Crashed));
        }
        match store.ingest(post.clone()) {
            Ok(_) => acked.push(post.id),
            Err(WalError::Crashed) => crashed = true,
            Err(other) => panic!("unexpected ingest error: {other}"),
        }
    }
    crashed |= matches!(store.compact(), Err(WalError::Crashed));
    (acked, crashed)
}

/// One full crash-point run: fresh SimFs, crash armed at op `n`, workload,
/// reboot, reopen, invariants.
fn crash_at(seed: u64, n: u64, posts: &[Post], qs: &[(TklusQuery, Ranking)]) {
    let (fs, handle) = SimFs::new(seed);
    let walfs: Arc<dyn WalFs> = Arc::clone(&fs) as Arc<dyn WalFs>;
    let (store, _) = IngestStore::open(Arc::clone(&walfs), store_config()).unwrap();
    handle.arm_crash_at(n);
    let (acked, crashed) = run_workload(&store, posts);
    assert!(crashed, "crash point {n} never fired (schedule shorter than expected)");
    drop(store);

    // Reboot: unsynced bytes die (a seeded slice survives as torn tail).
    fs.crash_and_lose_unsynced();

    // Invariant 2: recovery must treat any crash-shaped store as healable.
    let (store, report) = IngestStore::open(walfs, store_config())
        .unwrap_or_else(|e| panic!("seed {seed} crash@{n}: recovery refused: {e}"));

    // Invariant 1: acked ⊆ recovered.
    for id in &acked {
        assert!(
            store.contains_post(*id),
            "seed {seed} crash@{n}: acked tweet {} lost (report {report:?})",
            id.0
        );
    }

    // Invariant 3: recovered answers == from-scratch engine over the
    // recovered set, bit for bit.
    let recovered = store.posts();
    let recovered_ids: HashSet<TweetId> = recovered.iter().map(|p| p.id).collect();
    assert!(acked.iter().all(|id| recovered_ids.contains(id)));
    let corpus = Corpus::new(recovered).unwrap();
    let (reference, _) = TklusEngine::try_build(&corpus, &EngineConfig::default()).unwrap();
    for (q, ranking) in qs {
        let got = store.try_query(q, *ranking).unwrap();
        let want = reference.try_query(q, *ranking).unwrap().users;
        assert_eq!(got, want, "seed {seed} crash@{n}: post-recovery query diverged");
    }
}

#[test]
fn every_write_path_op_is_a_survivable_crash_point() {
    for seed in chaos_seeds() {
        let posts = workload(seed);
        let qs = queries(&posts);

        // Clean run first: count the write path's mutating ops (the crash
        // schedule counts only while armed, so arm far past the end).
        let total = {
            let (fs, handle) = SimFs::new(seed);
            let walfs: Arc<dyn WalFs> = Arc::clone(&fs) as Arc<dyn WalFs>;
            let (store, _) = IngestStore::open(Arc::clone(&walfs), store_config()).unwrap();
            handle.arm_crash_at(u64::MAX);
            let (acked, crashed) = run_workload(&store, posts.as_slice());
            assert!(!crashed && acked.len() == posts.len(), "clean run must ack everything");
            // The workload must actually exercise rotation + compaction:
            // several WAL segments existed before the final compaction
            // trimmed them, and two generations of seal files were written.
            assert!(
                store.generation() >= 3,
                "workload performed {} compactions",
                store.generation()
            );
            handle.crash_ops_seen()
        };
        assert!(total > 60, "workload too small to cover all op classes ({total} ops)");

        for n in 1..=total {
            crash_at(seed, n, &posts, &qs);
        }
    }
}

#[test]
fn unscheduled_power_cut_mid_ingest_is_survivable_at_any_prefix() {
    // Complements the op-sweep: cut power (no scheduled kill, just losing
    // unsynced bytes) after every ingest prefix, including right after a
    // compaction, and require full acked durability — under
    // FsyncPolicy::Always everything acked has been synced.
    for seed in chaos_seeds() {
        let posts = workload(seed);
        let qs = queries(&posts);
        for cut in 1..=posts.len() {
            let (fs, _) = SimFs::new(seed ^ 0xDEAD);
            let walfs: Arc<dyn WalFs> = Arc::clone(&fs) as Arc<dyn WalFs>;
            let (store, _) = IngestStore::open(Arc::clone(&walfs), store_config()).unwrap();
            for post in &posts[..cut] {
                store.ingest(post.clone()).unwrap();
            }
            if cut % 7 == 0 {
                store.compact().unwrap();
            }
            drop(store);
            fs.crash_and_lose_unsynced();
            let (store, _) = IngestStore::open(walfs, store_config()).unwrap();
            assert_eq!(store.acked_posts(), cut, "seed {seed}: power cut at {cut} lost acks");
            let corpus = Corpus::new(posts[..cut].to_vec()).unwrap();
            let (reference, _) = TklusEngine::try_build(&corpus, &EngineConfig::default()).unwrap();
            for (q, ranking) in &qs {
                let got = store.try_query(q, *ranking).unwrap();
                let want = reference.try_query(q, *ranking).unwrap().users;
                assert_eq!(got, want, "seed {seed} cut@{cut}: query diverged");
            }
        }
    }
}
