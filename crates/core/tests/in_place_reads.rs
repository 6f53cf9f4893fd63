//! Property test: the metadata read path that reads verified pages in
//! place answers exactly like the path that collected every scan, and
//! reads the same pages in the same order.
//!
//! * The counting level walk ([`MetaReader::try_thread_popularity`]) gives
//!   Algorithm 1's φ — `try_build_thread(..).popularity(ε)` over a reader
//!   of the same database, the reference — bit for bit, with the same
//!   metadata page reads, at thread depths 1–8.
//! * The in-place δ fold ([`MetaReader::try_user_distance`]) gives
//!   `user_distance_score` over the collected `P_u` bit for bit, with the
//!   same page reads.
//! * Both run over random sealed/live splits through [`LiveMetadata`]:
//!   live replies to sealed posts, sealed replies to live ones, and users
//!   with posts on both sides. The collected reply lists and `P_u` equal
//!   the corpus's own, so the merge by tweet id is checked against the
//!   data, not against itself.
//! * A [`TreeReader`] fed ascending, descending and random key sequences,
//!   mixing point gets and range visits, returns what one-call readers
//!   return and reads exactly the pages a cursor that only remembers its
//!   root-to-leaf path would read: its held-leaf shortcut skips searches,
//!   never reads.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use tklus_core::score::user_distance_score;
use tklus_core::{LiveMetadata, MetaReader, MetadataDb};
use tklus_geo::Point;
use tklus_graph::try_build_thread;
use tklus_model::{Post, ScoringConfig, TweetId, UserId};
use tklus_storage::{
    splitmix64, BPlusTree, IoStats, Key, MemPager, Page, PageId, PageStore, StorageError,
    TreeReader,
};

/// A SplitMix64 stream: the test's only randomness, from the case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A random corpus: ids ascending with gaps, most posts replies (to one
/// of the last few posts, so threads run deep, or to any earlier one),
/// a few hundred users around one city.
fn corpus(rng: &mut Rng) -> Vec<Post> {
    let n = 300 + rng.below(1_500) as usize;
    let users = 2 + rng.below(n as u64 / 3);
    let mut posts: Vec<Post> = Vec::with_capacity(n);
    let mut id = 0;
    for i in 0..n {
        id += 1 + rng.below(4);
        let user = UserId(rng.below(users));
        let at = Point::new_unchecked(
            43.6 + rng.below(4_000) as f64 * 1e-4,
            -79.6 + rng.below(4_000) as f64 * 1e-4,
        );
        let post = match rng.below(10) {
            0..=2 => Post::original(TweetId(id), user, at, "x"),
            pick => {
                let back = if pick < 8 { 1 + rng.below(6) } else { 1 + rng.below(i as u64 + 1) };
                match i.checked_sub(back as usize) {
                    Some(t) => {
                        let target = &posts[t];
                        Post::reply(TweetId(id), user, at, "re", target.id, target.user)
                    }
                    None => Post::original(TweetId(id), user, at, "x"),
                }
            }
        };
        posts.push(post);
    }
    posts
}

/// The corpus split into sealed trees and a live overlay: each post live
/// with a per-case probability, so live posts sit anywhere in id order.
struct Split {
    sealed: MetadataDb,
    live: LiveMetadata,
    posts: Vec<Post>,
}

fn split(rng: &mut Rng) -> Split {
    let posts = corpus(rng);
    let live_pct = 10 + rng.below(80);
    let mut sealed = Vec::new();
    let mut live = LiveMetadata::default();
    let mut is_live = HashSet::new();
    for post in &posts {
        if rng.below(100) < live_pct {
            live.insert(post);
            is_live.insert(post.id);
        } else {
            sealed.push(post.clone());
        }
    }
    // The cases the overlay's merge exists for.
    let live_to_sealed = posts.iter().any(|p| {
        is_live.contains(&p.id) && p.in_reply_to.is_some_and(|r| !is_live.contains(&r.target))
    });
    let sealed_users: HashSet<UserId> = sealed.iter().map(|p| p.user).collect();
    let live_by_sealed =
        posts.iter().any(|p| is_live.contains(&p.id) && sealed_users.contains(&p.user));
    assert!(live_to_sealed && live_by_sealed, "a split without the merge's cases");
    Split { sealed: MetadataDb::try_from_posts(&sealed, 0, None).unwrap(), live, posts }
}

/// `f`'s result and the metadata page reads it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = IoStats::thread_page_reads();
    let out = f();
    (out, IoStats::thread_page_reads() - before)
}

/// Ascending, descending or shuffled, by `order`.
fn ordered<T: Ord>(mut items: Vec<T>, order: u64, rng: &mut Rng) -> Vec<T> {
    items.sort();
    match order {
        0 => {}
        1 => items.reverse(),
        _ => rng.shuffle(&mut items),
    }
    items
}

fn walk_equals_algorithm_1(seed: u64, order: u64) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    let Split { sealed, live, posts } = split(&mut rng);
    let mut children: BTreeMap<TweetId, Vec<TweetId>> = BTreeMap::new();
    for post in &posts {
        if let Some(r) = post.in_reply_to {
            children.entry(r.target).or_default().push(post.id);
        }
    }
    let epsilon = [0.1, 0.5][rng.below(2) as usize];
    // Every post and a few ids no post has.
    let last = posts.last().unwrap().id.0;
    let roots: Vec<TweetId> =
        posts.iter().map(|p| p.id).chain([TweetId(0), TweetId(last + 1)]).collect();
    let roots = ordered(roots, order, &mut rng);
    for depth in 1..=8 {
        let (mut walk, mut reference) = (sealed.reader(Some(&live)), sealed.reader(Some(&live)));
        for &root in &roots {
            let (got, got_reads) =
                counted(|| walk.try_thread_popularity(root, depth, epsilon).unwrap());
            let (want, want_reads) = counted(|| {
                try_build_thread(&mut reference, root, depth).unwrap().popularity(epsilon)
            });
            prop_assert_eq!(got.to_bits(), want.to_bits(), "root {:?} depth {}", root, depth);
            prop_assert_eq!(got_reads, want_reads, "root {:?} depth {}", root, depth);
        }
    }
    // The merged reply lists are the corpus's, in tweet-id order.
    let mut reader = sealed.reader(Some(&live));
    for &root in &roots {
        let want = children.get(&root).cloned().unwrap_or_default();
        prop_assert_eq!(reader.try_replies_to_ids(root).unwrap(), want, "{:?}", root);
    }
    Ok(())
}

fn fold_equals_collected_mean(seed: u64, order: u64) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    let Split { sealed, live, posts } = split(&mut rng);
    let mut p_u: BTreeMap<UserId, Vec<(TweetId, Point)>> = BTreeMap::new();
    for post in &posts {
        p_u.entry(post.user).or_default().push((post.id, post.location));
    }
    let config = ScoringConfig::default();
    let center = Point::new_unchecked(43.8, -79.4);
    let users: Vec<UserId> = p_u.keys().copied().chain([UserId(u64::MAX - 1)]).collect();
    let users = ordered(users, order, &mut rng);
    for radius in [1.0, 5.0, 30.0] {
        let (mut fold, mut reference) = (sealed.reader(Some(&live)), sealed.reader(Some(&live)));
        for &uid in &users {
            let (got, got_reads) =
                counted(|| fold.try_user_distance(uid, &center, radius, &config).unwrap());
            let (posts_of, want_reads) = counted(|| reference.try_posts_of_user(uid).unwrap());
            let want_posts = p_u.get(&uid).cloned().unwrap_or_default();
            prop_assert_eq!(&posts_of, &want_posts, "P_u of {:?}", uid);
            let locations: Vec<Point> = posts_of.iter().map(|&(_, at)| at).collect();
            let want = user_distance_score(&center, radius, &locations, &config);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} at {} km", uid, radius);
            prop_assert_eq!(got_reads, want_reads, "{:?} at {} km", uid, radius);
        }
    }
    Ok(())
}

/// A store that logs the id of every page read.
struct RecordingPager {
    inner: MemPager,
    log: Mutex<Vec<PageId>>,
}

impl RecordingPager {
    fn take(&self) -> Vec<PageId> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }
}

impl PageStore for RecordingPager {
    fn allocate(&self) -> Result<PageId, StorageError> {
        self.inner.allocate()
    }
    fn read(&self, id: PageId) -> Result<Page, StorageError> {
        self.log.lock().unwrap().push(id);
        self.inner.read(id)
    }
    fn write(&self, id: PageId, page: Page) -> Result<(), StorageError> {
        self.inner.write(id, page)
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// The primary tree's value width: 72 rows per leaf, so a few thousand
/// entries already need internal levels.
const ROW: usize = 40;

type Tree = BPlusTree<RecordingPager, ROW>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Get(Key),
    Visit(Key, Key),
}

fn run(reader: &mut TreeReader<'_, RecordingPager, ROW>, op: Op) -> Vec<(Key, [u8; ROW])> {
    match op {
        Op::Get(k) => reader.get(k).unwrap().map(|v| (k, v)).into_iter().collect(),
        Op::Visit(lo, hi) => {
            let mut out = Vec::new();
            reader.visit(lo, hi, |k, v| out.push((k, *v))).unwrap();
            out
        }
    }
}

fn tree_reader_equals_path_cursor(seed: u64, order: u64) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed);
    // Keys (2a, 3b): absent majors and minors between the present ones.
    let n = 1 + rng.below(16_000);
    let entries: Vec<(Key, [u8; ROW])> = (0..n)
        .map(|i| ((i / 4 * 2, i % 4 * 3), std::array::from_fn(|j| (i as u8).wrapping_add(j as u8))))
        .collect();
    let store = RecordingPager { inner: MemPager::new(), log: Mutex::new(Vec::new()) };
    let tree = Tree::bulk_load(store, &entries).unwrap();
    let height = tree.height();
    let majors = n / 4 * 2 + 4;
    let key = |rng: &mut Rng| (rng.below(majors), rng.below(12));
    let ops: Vec<Op> = (0..200)
        .map(|_| match rng.below(3) {
            0 => Op::Get(key(&mut rng)),
            1 => {
                let lo = key(&mut rng);
                let span = rng.below(600);
                Op::Visit(lo, (lo.0 + span / 12, lo.1.max(span % 12)))
            }
            _ => {
                let major = rng.below(majors);
                Op::Visit((major, 0), (major, u64::MAX))
            }
        })
        .chain([Op::Visit((5, 0), (4, 0)), Op::Get((0, 0)), Op::Get((u64::MAX, u64::MAX))])
        // Every 37th key: in key order, some land on a leaf's first key
        // (its separator) right after a key of the leaf before it.
        .chain(entries.iter().step_by(37).map(|&(k, _)| Op::Get(k)))
        .collect();
    let ops = ordered(ops, order, &mut rng);
    let pages = tree.store();
    pages.take();
    let mut cursor = tree.reader();
    // The pages a cursor that remembers its root-to-leaf path, and
    // nothing else, holds per depth.
    let mut held: Vec<PageId> = Vec::new();
    for &op in &ops {
        let want = run(&mut tree.reader(), op);
        // A one-call reader reads the descent (depths 0..=height), then
        // the leaf chain at depth `height`.
        let mut want_reads = Vec::new();
        for (i, page) in pages.take().into_iter().enumerate() {
            let depth = i.min(height);
            if held.get(depth) != Some(&page) {
                held.truncate(depth);
                held.push(page);
                want_reads.push(page);
            }
        }
        let got = run(&mut cursor, op);
        prop_assert_eq!(&got, &want, "{:?}", op);
        prop_assert_eq!(pages.take(), want_reads, "{:?} (height {})", op, height);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn counting_walk_equals_algorithm_1(seed in any::<u64>(), order in 0u64..3) {
        walk_equals_algorithm_1(seed, order)?;
    }

    #[test]
    fn in_place_fold_equals_user_distance_score(seed in any::<u64>(), order in 0u64..3) {
        fold_equals_collected_mean(seed, order)?;
    }

    #[test]
    fn tree_reader_reads_what_a_path_cursor_reads(seed in any::<u64>(), order in 0u64..3) {
        tree_reader_equals_path_cursor(seed, order)?;
    }
}

/// The one-call collectors of a reader and [`MetaReader`]'s counting walk
/// agree on a thread whose replies are split across both sides.
#[test]
fn a_thread_split_across_sealed_and_live_counts_both_sides() {
    let at = Point::new_unchecked(43.7, -79.4);
    let posts = [
        Post::original(TweetId(1), UserId(1), at, "root"),
        Post::reply(TweetId(2), UserId(2), at, "re", TweetId(1), UserId(1)),
        Post::reply(TweetId(3), UserId(3), at, "re", TweetId(1), UserId(1)),
        Post::reply(TweetId(4), UserId(1), at, "re", TweetId(3), UserId(3)),
        Post::reply(TweetId(5), UserId(2), at, "re", TweetId(2), UserId(2)),
    ];
    // Sealed 1, 3, 5; live 2 and 4.
    let sealed: Vec<Post> = [0, 2, 4].iter().map(|&i| posts[i].clone()).collect();
    let mut live = LiveMetadata::default();
    live.insert(&posts[1]);
    live.insert(&posts[3]);
    let db = MetadataDb::try_from_posts(&sealed, 0, None).unwrap();
    let mut reader: MetaReader<'_> = db.reader(Some(&live));
    assert_eq!(reader.try_replies_to_ids(TweetId(1)).unwrap(), vec![TweetId(2), TweetId(3)]);
    // Levels [1, 2, 2]: φ = 2/2 + 2/3.
    let phi = reader.try_thread_popularity(TweetId(1), 3, 0.1).unwrap();
    assert_eq!(phi.to_bits(), (2.0f64 / 2.0 + 2.0 / 3.0).to_bits());
    assert_eq!(reader.try_thread_popularity(TweetId(1), 1, 0.1).unwrap(), 0.1);
    assert_eq!(reader.try_thread_popularity(TweetId(5), 4, 0.1).unwrap(), 0.1);
}
