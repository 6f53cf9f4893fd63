//! Off-latch compaction race-regression suite (ISSUE satellite + tentpole
//! acceptance).
//!
//! The incremental compactor snapshots under a read lock, builds the
//! replacement partitions with **no latch held**, then swaps under the
//! write latch behind a seq fence. These tests attack exactly that
//! window:
//!
//! 1. **Answerability** — ingests landing while the build is parked
//!    mid-partition-write must be queryable immediately, survive the
//!    swap live in the memtable (fence: no loss, no double count), and
//!    be absorbed by the next round.
//! 2. **Crash sweep over the swap schedule** — with concurrent ingests
//!    recorded, kill the filesystem at every op from the first gen-2
//!    partition write through rename, rotate, and trim; after reboot the
//!    acked set must be fully recovered and answers bitwise-identical to
//!    a from-scratch engine over the recovered posts.
//! 3. **Proportional I/O** — a compaction whose live delta touches one
//!    geohash partition must not pay filesystem ops for the other
//!    partitions it carries forward by name (the incremental strategy's
//!    whole point, measured in SimFs op counts against the same store's
//!    seal-everything first round).
//!
//! The gate is a [`WalFs`] wrapper that parks the *first* append to a
//! chosen generation's seal files until the test releases it — a
//! deterministic "slow build" without timing assumptions.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus_geo::Point;
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};
use tklus_wal::{
    parse_seal_name, FsyncPolicy, IngestStore, SimFs, StoreConfig, WalConfig, WalError, WalFs,
};

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("TKLUS_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("TKLUS_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 2, 3],
    }
}

fn store_config() -> StoreConfig {
    StoreConfig {
        engine: EngineConfig::default(),
        // Tiny segments force rotations mid-workload so the fenced trim
        // has real segment boundaries to reason about.
        wal: WalConfig { segment_bytes: 256, fsync: FsyncPolicy::Always },
        ..StoreConfig::default()
    }
}

fn post(id: u64, user: u64, lat: f64, lon: f64, text: &str) -> Post {
    Post::original(TweetId(id), UserId(user), Point::new_unchecked(lat, lon), text)
}

/// Geohash partition 'd' (eastern North America).
fn toronto(id: u64) -> Post {
    post(id, id % 4 + 1, 43.70 + id as f64 * 1e-3, -79.42, "great hotel downtown")
}

/// Geohash partition 'r' (eastern Australia).
fn sydney(id: u64) -> Post {
    post(id, id % 3 + 10, -33.87 + id as f64 * 1e-3, 151.21, "beach hotel sunrise")
}

fn queries() -> Vec<(TklusQuery, Ranking)> {
    vec![
        (
            TklusQuery::new(
                Point::new_unchecked(43.70, -79.42),
                25.0,
                vec!["hotel".into()],
                5,
                Semantics::Or,
            )
            .unwrap(),
            Ranking::Sum,
        ),
        (
            TklusQuery::new(
                Point::new_unchecked(-33.87, 151.21),
                25.0,
                vec!["hotel".into(), "beach".into()],
                5,
                Semantics::And,
            )
            .unwrap(),
            Ranking::Max(BoundsMode::HotKeywords),
        ),
    ]
}

/// Answers must be bitwise-identical to a from-scratch monolithic engine
/// built over exactly `posts` — the suite's fidelity oracle.
fn assert_answers_match(store: &IngestStore, posts: &[Post], ctx: &str) {
    let corpus = Corpus::new(posts.to_vec()).unwrap();
    let (reference, _) = TklusEngine::try_build(&corpus, &EngineConfig::default()).unwrap();
    for (q, ranking) in queries() {
        let got = store.try_query(&q, ranking).unwrap();
        let want = reference.try_query(&q, ranking).unwrap().users;
        assert_eq!(got, want, "{ctx}: answers diverged from reference engine");
    }
}

// ---------------------------------------------------------------------
// GateFs: park the build at a chosen partition write
// ---------------------------------------------------------------------

/// [`WalFs`] wrapper that blocks the first append whose file name starts
/// with `prefix` (e.g. `"seal-00000002"` — the generation-2 partition
/// files) until the test sends on the release channel. Everything else
/// passes straight through to the wrapped [`SimFs`], so crash schedules
/// and durability semantics are untouched.
struct GateFs {
    inner: Arc<SimFs>,
    prefix: &'static str,
    reached: Mutex<Option<mpsc::Sender<()>>>,
    release: Mutex<Option<mpsc::Receiver<()>>>,
}

impl GateFs {
    fn gated(
        inner: Arc<SimFs>,
        prefix: &'static str,
    ) -> (Arc<dyn WalFs>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (reached_tx, reached_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let fs = Arc::new(Self {
            inner,
            prefix,
            reached: Mutex::new(Some(reached_tx)),
            release: Mutex::new(Some(release_rx)),
        });
        (fs, reached_rx, release_tx)
    }
}

impl WalFs for GateFs {
    fn list(&self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        self.inner.read(name)
    }
    fn create(&self, name: &str) -> Result<(), WalError> {
        self.inner.create(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        if name.starts_with(self.prefix) {
            // First matching append only: signal the test, then park
            // until released. Channels are taken so later rounds (the
            // absorb compaction) pass through.
            if let Some(tx) = self.reached.lock().unwrap().take() {
                let rx = self.release.lock().unwrap().take().expect("release channel");
                tx.send(()).expect("test gone while build parked");
                rx.recv_timeout(Duration::from_secs(30)).expect("gate never released");
            }
        }
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), WalError> {
        self.inner.sync(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        self.inner.truncate(name, len)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), WalError> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> Result<(), WalError> {
        self.inner.remove(name)
    }
}

// ---------------------------------------------------------------------
// 1. Answerability across the off-latch window
// ---------------------------------------------------------------------

#[test]
fn concurrent_ingest_during_off_latch_build_is_answerable_and_absorbed_next_round() {
    let (sim, _) = SimFs::new(41);
    let (fs, reached, release) = GateFs::gated(Arc::clone(&sim), "seal-00000002");
    let (store, _) = IngestStore::open(fs, store_config()).unwrap();
    let store = Arc::new(store);

    // Generation 1 seals two partitions: Sydney ('r') and Toronto ('d').
    let mut all: Vec<Post> = (1..=3).map(sydney).chain((4..=8).map(toronto)).collect();
    for p in &all {
        store.ingest(p.clone()).unwrap();
    }
    assert!(store.compact().unwrap());
    assert_eq!(store.generation(), 1);

    // Only Toronto moves: generation 2 will rewrite 'd' and carry 'r'.
    let phase_b: Vec<Post> = (9..=12).map(toronto).collect();
    for p in &phase_b {
        store.ingest(p.clone()).unwrap();
    }
    all.extend(phase_b);

    let builder = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.compact())
    };
    reached.recv_timeout(Duration::from_secs(30)).expect("build never reached the seal write");

    // The build is parked mid-partition-write and holds no latch: writes
    // and reads must land now, and the reads must already see them.
    let mid: Vec<Post> = (13..=15).map(toronto).chain(std::iter::once(sydney(16))).collect();
    for p in &mid {
        store.ingest(p.clone()).unwrap();
    }
    all.extend(mid.iter().cloned());
    assert_answers_match(&store, &all, "mid-build");

    release.send(()).unwrap();
    assert!(builder.join().unwrap().unwrap(), "gated compaction must seal");

    // Seq fence: the swap covers exactly the snapshot (seqs 1..=12);
    // mid-build acks stay live in the memtable — no loss, no double
    // count — and answers are unchanged.
    assert_eq!(store.generation(), 2);
    assert_eq!(store.sealed_seq(), 12);
    assert_eq!(store.live_posts(), mid.len());
    assert_eq!(store.acked_posts(), all.len());
    assert_answers_match(&store, &all, "post-swap");

    // Untouched Sydney partition carried forward by name; Toronto's old
    // file replaced and trimmed.
    let names = WalFs::list(sim.as_ref()).unwrap();
    assert!(names.iter().any(|n| n == "seal-00000002-d.log"), "{names:?}");
    assert!(names.iter().any(|n| n == "seal-00000001-r.log"), "{names:?}");
    assert!(!names.iter().any(|n| n == "seal-00000001-d.log"), "{names:?}");

    // The next round absorbs the mid-build tail.
    assert!(store.compact().unwrap());
    assert_eq!(store.live_posts(), 0);
    assert_eq!(store.acked_posts(), all.len());
    assert_answers_match(&store, &all, "after absorb");

    // And a reopen replays to the same state.
    drop(store);
    let walfs: Arc<dyn WalFs> = Arc::clone(&sim) as Arc<dyn WalFs>;
    let (reopened, report) = IngestStore::open(walfs, store_config()).unwrap();
    assert_eq!(report.sealed_posts, all.len());
    assert_answers_match(&reopened, &all, "after reopen");
}

// ---------------------------------------------------------------------
// 2. Crash sweep over the gated swap schedule
// ---------------------------------------------------------------------

struct GatedRun {
    sim: Arc<SimFs>,
    acked: Vec<Post>,
    crashed: bool,
    tail_ops: u64,
}

/// Runs the two-generation scenario with concurrent mid-build ingests,
/// arming a crash at the `tail_crash`-th filesystem op counted from the
/// gate release — so the schedule covers the partial partition rewrite,
/// the staged manifest, the rename commit point, the post-swap rotate,
/// and the fenced trim, all with carried-forward files on disk and
/// post-fence acks in the WAL.
fn run_gated(seed: u64, tail_crash: u64) -> GatedRun {
    let (sim, handle) = SimFs::new(seed);
    let (fs, reached, release) = GateFs::gated(Arc::clone(&sim), "seal-00000002");
    let (store, _) = IngestStore::open(fs, store_config()).unwrap();
    let store = Arc::new(store);

    let mut acked = Vec::new();
    for p in (1..=3).map(sydney).chain((4..=8).map(toronto)) {
        store.ingest(p.clone()).unwrap();
        acked.push(p);
    }
    store.compact().unwrap();
    for p in (9..=12).map(toronto) {
        store.ingest(p.clone()).unwrap();
        acked.push(p);
    }
    let builder = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.compact())
    };
    reached.recv_timeout(Duration::from_secs(30)).expect("build never reached the seal write");
    for p in (13..=15).map(toronto).chain(std::iter::once(sydney(16))) {
        store.ingest(p.clone()).unwrap();
        acked.push(p);
    }

    handle.arm_crash_at(tail_crash);
    release.send(()).unwrap();
    let result = builder.join().unwrap();
    let tail_ops = handle.crash_ops_seen();
    GatedRun { sim, acked, crashed: matches!(result, Err(WalError::Crashed)), tail_ops }
}

#[test]
fn crash_at_every_op_of_the_gated_swap_schedule_recovers_all_acked() {
    for seed in chaos_seeds() {
        // Clean run measures the tail schedule (counter armed past it).
        let clean = run_gated(seed, u64::MAX);
        assert!(!clean.crashed, "seed {seed}: clean gated run must not crash");
        assert!(
            clean.tail_ops > 8,
            "gated tail too short to cover the swap schedule ({} ops)",
            clean.tail_ops
        );

        for k in 1..=clean.tail_ops {
            let run = run_gated(seed, k);
            assert!(run.crashed, "seed {seed} tail op {k}: crash never fired");

            // Reboot: unsynced bytes die (seeded torn tails survive).
            run.sim.crash_and_lose_unsynced();
            let walfs: Arc<dyn WalFs> = Arc::clone(&run.sim) as Arc<dyn WalFs>;
            let (store, report) = IngestStore::open(walfs, store_config())
                .unwrap_or_else(|e| panic!("seed {seed} tail op {k}: recovery refused: {e}"));

            // Acked ⊆ recovered — including the mid-build acks whose seqs
            // sit past the fence the dying compaction staged.
            for p in &run.acked {
                assert!(
                    store.contains_post(p.id),
                    "seed {seed} tail op {k}: acked tweet {} lost (report {report:?})",
                    p.id.0
                );
            }

            // Bitwise fidelity over whatever the reboot kept.
            let recovered = store.posts();
            assert_answers_match(&store, &recovered, &format!("seed {seed} tail op {k}"));
        }
    }
}

// ---------------------------------------------------------------------
// 3. Compaction I/O proportional to touched partitions
// ---------------------------------------------------------------------

/// One post per far-flung region — many distinct geohash partitions.
fn spread(id: u64) -> Post {
    const SPOTS: [(f64, f64); 7] = [
        (51.50, -0.12),   // London
        (-33.87, 151.21), // Sydney
        (35.68, 139.69),  // Tokyo
        (-23.55, -46.63), // São Paulo
        (55.75, 37.62),   // Moscow
        (28.61, 77.21),   // Delhi
        (64.13, -21.90),  // Reykjavík
    ];
    let (lat, lon) = SPOTS[id as usize % SPOTS.len()];
    post(id, id % 5 + 20, lat + id as f64 * 1e-3, lon, "hotel far away")
}

#[test]
fn compaction_io_is_proportional_to_touched_partitions() {
    // Two rounds on one store, counting only the compacts' SimFs
    // write-path ops: round 1 seals posts spread over many partitions plus
    // Toronto; round 2's live delta touches Toronto alone.
    let (sim, handle) = SimFs::new(77);
    let walfs: Arc<dyn WalFs> = Arc::clone(&sim) as Arc<dyn WalFs>;
    let cfg = StoreConfig { engine: EngineConfig::default(), ..StoreConfig::default() };
    let (store, _) = IngestStore::open(walfs, cfg).unwrap();
    let seal_files = || -> BTreeSet<String> {
        let names = WalFs::list(sim.as_ref()).unwrap();
        names.into_iter().filter(|n| parse_seal_name(n).is_some()).collect()
    };

    for id in 1..=21 {
        store.ingest(spread(id)).unwrap();
    }
    for id in 22..=24 {
        store.ingest(toronto(id)).unwrap();
    }
    handle.arm_crash_at(u64::MAX); // count (never fire): round-1 ops
    assert!(store.compact().unwrap());
    let round1 = handle.crash_ops_seen();
    handle.arm_crash_at(0); // disarm: ingests don't count
    let sealed1 = seal_files();
    let parts = sealed1.len() as u64;
    assert!(parts >= 5, "workload spread over too few partitions ({parts})");

    for id in 25..=27 {
        store.ingest(toronto(id)).unwrap();
    }
    handle.arm_crash_at(u64::MAX); // count: round-2 ops
    assert!(store.compact().unwrap());
    let round2 = handle.crash_ops_seen();
    let sealed2 = seal_files();

    // Round 1 seals every partition (everything is live): at least
    // create+append+sync per partition file.
    assert!(round1 >= 3 * parts, "round 1 wrote too few ops ({round1})");
    // Round 2 rewrites Toronto's file and carries the other `parts - 1`
    // forward by name, paying none of their create/append/sync. The one op
    // it has that round 1 lacks is the `remove` of the Toronto file it
    // replaced.
    assert!(
        round2 + 3 * (parts - 1) <= round1 + 1,
        "savings not proportional to carried partitions: round 1 {round1} - round 2 {round2} \
         < 3 × {} untouched partitions - 1 stale remove",
        parts - 1
    );
    assert_eq!(sealed2.len() as u64, parts, "the partition layout is unchanged");
    let carried: Vec<&String> = sealed1.intersection(&sealed2).collect();
    assert_eq!(carried.len() as u64, parts - 1, "untouched files keep their names: {carried:?}");
    let rewritten: Vec<&String> = sealed2.difference(&sealed1).collect();
    assert_eq!(rewritten.len(), 1, "only Toronto's file is new: {rewritten:?}");
    assert_eq!(parse_seal_name(rewritten[0]).map(|(generation, _)| generation), Some(2));
}
