//! The centralized tweet-metadata database of Section IV-A.
//!
//! "All tweets in our system form a relation with the schema of
//! `(sid, uid, lat, lon, ruid, rsid)` which is stored in a centralized
//! metadata database … attribute sid is the primary key for which we build
//! a B⁺-tree. Another B⁺-tree is built on attribute rsid."
//!
//! Three B⁺-trees over one buffer pool:
//!
//! * primary — key `(sid, 0)`, value = the 40-byte row remainder;
//! * reply index — key `(rsid, sid)`, empty value; `replies_to` is a range
//!   scan, exactly Algorithm 1's `select all where rsid equals Id`;
//! * user index — key `(uid, sid)`, value = `(lat, lon)`; user distance
//!   scores (Definition 9) average over all of a user's posts, which this
//!   index retrieves without touching post text.
//!
//! The trees are bulk-loaded once and never written afterwards. Posts
//! acked since (the ingest store's live posts) are read through a
//! [`LiveMetadata`] overlay held beside them, not inserted.
//!
//! Every tree runs over a [`CheckedPager`] (DESIGN.md §10): pages are
//! sealed with a magic/version/CRC32 header on write and verified on every
//! physical read, so torn writes and bit flips in the page store below
//! surface as typed [`StorageError`]s instead of silently wrong rows. The
//! store under the checksum layer is pluggable ([`MetadataStoreFactory`])
//! — the default is an in-memory pager; fault-injection tests substitute
//! a [`tklus_storage::FaultPager`] stack.
//!
//! Every logical operation's physical cost is visible through
//! [`MetadataDb::io`]; the experiments run with a zero-capacity pool
//! ("database caches are set off"). A query reads through one
//! [`MetaReader`] — a cursor per tree that keeps its root-to-leaf path for
//! the life of the query — and the `&self` lookups here are one-call
//! readers.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use tklus_geo::Point;
use tklus_graph::TryReplyProvider;
use tklus_model::{Post, TweetId, UserId};
use tklus_storage::{
    BPlusTree, BufferPool, CheckedPager, IoStats, MemPager, PageStore, StorageError, StorageResult,
    TreeReader,
};

/// Sentinel for "no reply target" in the `ruid`/`rsid` columns.
const NONE_ID: u64 = u64::MAX;

/// Builds the page store that backs each of the database's three B⁺-trees
/// (called once per tree, with the shared I/O counters). The produced store
/// sits *below* the checksum layer, so anything it corrupts or tears is
/// caught at read time.
pub type MetadataStoreFactory = Arc<dyn Fn(IoStats) -> Box<dyn PageStore> + Send + Sync>;

/// A decoded metadata row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaRow {
    /// Author.
    pub uid: UserId,
    /// Post location.
    pub location: Point,
    /// Reply target author, if any.
    pub ruid: Option<UserId>,
    /// Reply target post, if any.
    pub rsid: Option<TweetId>,
}

impl MetaRow {
    /// The row of `post`.
    fn of(post: &Post) -> Self {
        Self {
            uid: post.user,
            location: post.location,
            ruid: post.in_reply_to.map(|r| r.target_user),
            rsid: post.in_reply_to.map(|r| r.target),
        }
    }
}

const ROW_SIZE: usize = 40;
const LOC_SIZE: usize = 16;

fn encode_row(row: &MetaRow) -> [u8; ROW_SIZE] {
    let mut out = [0u8; ROW_SIZE];
    out[0..8].copy_from_slice(&row.uid.0.to_le_bytes());
    out[8..16].copy_from_slice(&row.location.lat().to_le_bytes());
    out[16..24].copy_from_slice(&row.location.lon().to_le_bytes());
    out[24..32].copy_from_slice(&row.ruid.map_or(NONE_ID, |u| u.0).to_le_bytes());
    out[32..40].copy_from_slice(&row.rsid.map_or(NONE_ID, |s| s.0).to_le_bytes());
    out
}

/// An 8-byte slice of a fixed-size row (infallible by construction).
fn field8(bytes: &[u8]) -> [u8; 8] {
    bytes.try_into().expect("row field is 8 bytes")
}

fn decode_row(bytes: &[u8; ROW_SIZE]) -> MetaRow {
    let uid = UserId(u64::from_le_bytes(field8(&bytes[0..8])));
    let lat = f64::from_le_bytes(field8(&bytes[8..16]));
    let lon = f64::from_le_bytes(field8(&bytes[16..24]));
    let ruid = u64::from_le_bytes(field8(&bytes[24..32]));
    let rsid = u64::from_le_bytes(field8(&bytes[32..40]));
    MetaRow {
        uid,
        location: Point::new_unchecked(lat, lon),
        ruid: (ruid != NONE_ID).then_some(UserId(ruid)),
        rsid: (rsid != NONE_ID).then_some(TweetId(rsid)),
    }
}

type Pool = BufferPool<CheckedPager<Box<dyn PageStore>>>;

/// The metadata database.
pub struct MetadataDb {
    primary: BPlusTree<Pool, ROW_SIZE>,
    reply_index: BPlusTree<Pool, 0>,
    user_index: BPlusTree<Pool, LOC_SIZE>,
    stats: IoStats,
    rows: u64,
}

impl MetadataDb {
    /// Bulk loads the database from posts over the default in-memory page
    /// store. `cache_pages` sizes the shared buffer-pool budget (0 = caches
    /// off, the paper's experimental setting); the budget is split across
    /// the three trees.
    ///
    /// Panics on storage failure, which the in-memory store never produces;
    /// fault-tolerant callers use [`Self::try_from_posts`].
    pub fn from_posts(posts: &[Post], cache_pages: usize) -> Self {
        match Self::try_from_posts(posts, cache_pages, None) {
            Ok(db) => db,
            Err(e) => panic!("metadata bulk load failed: {e}"),
        }
    }

    /// Fallible [`Self::from_posts`] over a caller-chosen page store
    /// (`None` = the default in-memory pager). Bulk-load I/O errors surface
    /// as typed [`StorageError`]s.
    pub fn try_from_posts(
        posts: &[Post],
        cache_pages: usize,
        store: Option<&MetadataStoreFactory>,
    ) -> StorageResult<Self> {
        let stats = IoStats::new();
        let per_tree = cache_pages / 3;

        let mut primary_entries: Vec<((u64, u64), [u8; ROW_SIZE])> =
            posts.iter().map(|p| ((p.id.0, 0), encode_row(&MetaRow::of(p)))).collect();
        primary_entries.sort_by_key(|e| e.0);

        let mut reply_entries: Vec<((u64, u64), [u8; 0])> = posts
            .iter()
            .filter_map(|p| p.in_reply_to.map(|r| ((r.target.0, p.id.0), [])))
            .collect();
        reply_entries.sort_by_key(|e| e.0);

        let mut user_entries: Vec<((u64, u64), [u8; LOC_SIZE])> = posts
            .iter()
            .map(|p| {
                let mut loc = [0u8; LOC_SIZE];
                loc[0..8].copy_from_slice(&p.location.lat().to_le_bytes());
                loc[8..16].copy_from_slice(&p.location.lon().to_le_bytes());
                ((p.user.0, p.id.0), loc)
            })
            .collect();
        user_entries.sort_by_key(|e| e.0);

        let pool = |s: &IoStats| -> Pool {
            let inner: Box<dyn PageStore> = match store {
                Some(factory) => factory(s.clone()),
                None => Box::new(MemPager::with_stats(s.clone())),
            };
            BufferPool::new(CheckedPager::new(inner), per_tree)
        };
        Ok(Self {
            primary: BPlusTree::bulk_load(pool(&stats), &primary_entries)?,
            reply_index: BPlusTree::bulk_load(pool(&stats), &reply_entries)?,
            user_index: BPlusTree::bulk_load(pool(&stats), &user_entries)?,
            stats,
            rows: posts.len() as u64,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        self.rows
    }

    /// True when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Shared I/O counters across all three trees.
    pub fn io(&self) -> &IoStats {
        &self.stats
    }

    /// Opens a read session over the three trees (see [`MetaReader`]):
    /// one per query, so lookups in tweet-id order share their descents.
    /// `live` overlays the metadata of posts the trees do not hold (the
    /// ingest store's live posts); `None` reads the trees alone.
    pub fn reader<'a>(&'a self, live: Option<&'a LiveMetadata>) -> MetaReader<'a> {
        MetaReader {
            primary: self.primary.reader(),
            reply_index: self.reply_index.reader(),
            user_index: self.user_index.reader(),
            live,
        }
    }

    /// `select * where sid = ?` on the primary index (the author and
    /// location lookups of Algorithm 4 line 20 / Algorithm 5 line 22): a
    /// one-call [`MetaReader`].
    pub fn try_row(&self, sid: TweetId) -> StorageResult<Option<MetaRow>> {
        self.reader(None).try_row(sid)
    }

    /// `select sid where rsid = ?` on the reply index (Algorithm 1 line 7).
    /// Panics on storage failure; see [`Self::try_replies_to_ids`].
    pub fn replies_to_ids(&self, rsid: TweetId) -> Vec<TweetId> {
        match self.try_replies_to_ids(rsid) {
            Ok(ids) => ids,
            Err(e) => panic!("metadata reply scan failed: {e}"),
        }
    }

    /// Fallible [`Self::replies_to_ids`]: a one-call [`MetaReader`].
    pub fn try_replies_to_ids(&self, rsid: TweetId) -> StorageResult<Vec<TweetId>> {
        self.reader(None).try_replies_to_ids(rsid)
    }

    /// All posts of a user, as `(sid, location)` — the `P_u` scan for
    /// Definition 9's user distance score: a one-call [`MetaReader`].
    pub fn try_posts_of_user(&self, uid: UserId) -> StorageResult<Vec<(TweetId, Point)>> {
        self.reader(None).try_posts_of_user(uid)
    }
}

/// The metadata of posts the trees do not hold: the ingest store's live
/// posts, kept beside their memtable postings until a compaction builds
/// new trees over them. The same three relations as the trees, under the
/// trees' keys: row by `sid`, `(rsid, sid)` reply edges, and
/// `(uid, sid)` → location.
#[derive(Debug, Clone, Default)]
pub struct LiveMetadata {
    rows: HashMap<TweetId, MetaRow>,
    replies: BTreeSet<(TweetId, TweetId)>,
    users: BTreeMap<(UserId, TweetId), Point>,
}

impl LiveMetadata {
    /// Adds `post`'s row, reply edge and author location. Posts may
    /// arrive in any tweet-id order.
    pub fn insert(&mut self, post: &Post) {
        self.rows.insert(post.id, MetaRow::of(post));
        if let Some(r) = post.in_reply_to {
            self.replies.insert((r.target, post.id));
        }
        self.users.insert((post.user, post.id), post.location);
    }

    /// Number of posts.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no post is held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn row(&self, sid: TweetId) -> Option<MetaRow> {
        self.rows.get(&sid).copied()
    }

    /// Merges the replies to `rsid` into the tid-sorted `sids`.
    fn merge_replies(&self, rsid: TweetId, sids: &mut Vec<TweetId>) {
        let range = (rsid, TweetId(0))..=(rsid, TweetId(u64::MAX));
        sids.extend(self.replies.range(range).map(|&(_, sid)| sid));
        sids.sort_unstable();
    }

    /// Merges the posts of `uid` into the tid-sorted `posts`.
    fn merge_posts(&self, uid: UserId, posts: &mut Vec<(TweetId, Point)>) {
        let range = (uid, TweetId(0))..=(uid, TweetId(u64::MAX));
        posts.extend(self.users.range(range).map(|(&(_, sid), &loc)| (sid, loc)));
        posts.sort_unstable_by_key(|e| e.0);
    }
}

/// One query's read session over the database: a [`TreeReader`] per
/// tree, each keeping its root-to-leaf path between calls. Algorithms 4/5
/// visit candidates in tweet-id order — the primary tree's key order —
/// and consecutive `rsid = ?` and `P_u` scans mostly land in the leaf the
/// reader already holds, so a query pays a page read where the path
/// *changes*, not a full descent per candidate, thread node and user.
///
/// The trees are never written after they are built, so the reader holds
/// nothing beyond its own lifetime, and every page it reads is
/// checksum-verified and counted in [`MetadataDb::io`] as usual.
///
/// An optional [`LiveMetadata`] overlays posts the trees do not hold (the
/// two sets are disjoint): a row lookup checks the live rows first, and
/// the reply and `P_u` scans merge the live entries into the trees' by
/// tweet id, so Definition 9's sum over `P_u` adds in the order a tree
/// over both sets would.
pub struct MetaReader<'a> {
    primary: TreeReader<'a, Pool, ROW_SIZE>,
    reply_index: TreeReader<'a, Pool, 0>,
    user_index: TreeReader<'a, Pool, LOC_SIZE>,
    live: Option<&'a LiveMetadata>,
}

impl MetaReader<'_> {
    /// `select * where sid = ?` on the primary index.
    pub fn try_row(&mut self, sid: TweetId) -> StorageResult<Option<MetaRow>> {
        if let Some(row) = self.live.and_then(|live| live.row(sid)) {
            return Ok(Some(row));
        }
        Ok(self.primary.get((sid.0, 0))?.map(|bytes| decode_row(&bytes)))
    }

    /// `select sid where rsid = ?` on the reply index (Algorithm 1 line 7).
    pub fn try_replies_to_ids(&mut self, rsid: TweetId) -> StorageResult<Vec<TweetId>> {
        let mut sids: Vec<TweetId> = self
            .reply_index
            .scan_major(rsid.0)?
            .into_iter()
            .map(|((_, sid), _)| TweetId(sid))
            .collect();
        if let Some(live) = self.live {
            live.merge_replies(rsid, &mut sids);
        }
        Ok(sids)
    }

    /// All posts of a user, as `(sid, location)` — the `P_u` scan for
    /// Definition 9's user distance score.
    pub fn try_posts_of_user(&mut self, uid: UserId) -> StorageResult<Vec<(TweetId, Point)>> {
        let mut posts: Vec<(TweetId, Point)> = self
            .user_index
            .scan_major(uid.0)?
            .into_iter()
            .map(|((_, sid), loc)| {
                let lat = f64::from_le_bytes(field8(&loc[0..8]));
                let lon = f64::from_le_bytes(field8(&loc[8..16]));
                (TweetId(sid), Point::new_unchecked(lat, lon))
            })
            .collect();
        if let Some(live) = self.live {
            live.merge_posts(uid, &mut posts);
        }
        Ok(posts)
    }
}

/// The engine's provider: Algorithm 1's `rsid = ?` scans run through a
/// reader (the query's one, or a one-call reader);
/// storage failures propagate as typed errors instead of panics.
impl TryReplyProvider for MetaReader<'_> {
    type Error = StorageError;

    fn try_replies_to(&mut self, id: TweetId) -> Result<Vec<TweetId>, StorageError> {
        self.try_replies_to_ids(id)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use tklus_graph::try_build_thread;
    use tklus_storage::{FaultConfig, FaultPager};

    fn pt(lat: f64, lon: f64) -> Point {
        Point::new_unchecked(lat, lon)
    }

    fn posts() -> Vec<Post> {
        vec![
            Post::original(TweetId(1), UserId(10), pt(43.7, -79.4), "root tweet"),
            Post::reply(
                TweetId(2),
                UserId(11),
                pt(43.8, -79.3),
                "reply one",
                TweetId(1),
                UserId(10),
            ),
            Post::reply(
                TweetId(3),
                UserId(12),
                pt(43.9, -79.2),
                "reply two",
                TweetId(1),
                UserId(10),
            ),
            Post::forward(TweetId(4), UserId(11), pt(43.6, -79.5), "rt", TweetId(2), UserId(11)),
            Post::original(TweetId(5), UserId(10), pt(44.0, -79.0), "another original"),
        ]
    }

    #[test]
    fn live_overlay_reads_like_a_bulk_load_of_both_sets() {
        let all = posts();
        let bulk = MetadataDb::from_posts(&all, 0);
        // Live 2 then 1, sealed 3..=5: sealed replies target live 1, live
        // reply 2 sorts before sealed reply 3, and users 10 and 11 each
        // have a live post before a sealed one.
        let sealed = MetadataDb::from_posts(&all[2..], 0);
        let mut live = LiveMetadata::default();
        for p in all[..2].iter().rev() {
            live.insert(p);
        }
        let (mut want, mut got) = (bulk.reader(None), sealed.reader(Some(&live)));
        for p in &all {
            assert_eq!(got.try_row(p.id).unwrap(), want.try_row(p.id).unwrap());
            let (g, w) = (got.try_replies_to_ids(p.id), want.try_replies_to_ids(p.id));
            assert_eq!(g.unwrap(), w.unwrap());
        }
        for uid in [UserId(10), UserId(11), UserId(12)] {
            let (g, w) = (got.try_posts_of_user(uid), want.try_posts_of_user(uid));
            assert_eq!(g.unwrap(), w.unwrap());
        }
    }

    #[test]
    fn primary_lookups() {
        let db = MetadataDb::from_posts(&posts(), 0);
        assert_eq!(db.len(), 5);
        let row = db.try_row(TweetId(2)).unwrap().unwrap();
        assert_eq!(row.uid, UserId(11));
        assert_eq!(row.rsid, Some(TweetId(1)));
        assert_eq!(row.ruid, Some(UserId(10)));
        assert_eq!(db.try_row(TweetId(5)).unwrap().map(|r| r.uid), Some(UserId(10)));
        assert_eq!(db.try_row(TweetId(99)).unwrap(), None);
        let root = db.try_row(TweetId(1)).unwrap().unwrap();
        assert_eq!(root.rsid, None);
        assert_eq!(root.ruid, None);
    }

    #[test]
    fn reply_index_scans() {
        let db = MetadataDb::from_posts(&posts(), 0);
        assert_eq!(db.replies_to_ids(TweetId(1)), vec![TweetId(2), TweetId(3)]);
        assert_eq!(db.replies_to_ids(TweetId(2)), vec![TweetId(4)]);
        assert!(db.replies_to_ids(TweetId(5)).is_empty());
    }

    #[test]
    fn user_index_scans() {
        let db = MetadataDb::from_posts(&posts(), 0);
        let u10 = db.try_posts_of_user(UserId(10)).unwrap();
        assert_eq!(u10.len(), 2);
        assert_eq!(u10[0].0, TweetId(1));
        assert_eq!(u10[1].0, TweetId(5));
        assert!((u10[1].1.lat() - 44.0).abs() < 1e-12);
        assert!(db.try_posts_of_user(UserId(99)).unwrap().is_empty());
    }

    #[test]
    fn works_as_reply_provider_for_threads() {
        let db = MetadataDb::from_posts(&posts(), 0);
        let t = try_build_thread(&mut db.reader(None), TweetId(1), 5).unwrap();
        assert_eq!(t.level_sizes(), vec![1, 2, 1]);
    }

    #[test]
    fn io_counted_with_caches_off() {
        let db = MetadataDb::from_posts(&posts(), 0);
        db.io().reset();
        db.try_row(TweetId(1)).unwrap();
        let first = db.io().page_reads();
        assert!(first > 0, "caches off: lookups cost physical reads");
        db.try_row(TweetId(1)).unwrap();
        assert_eq!(db.io().page_reads(), first * 2, "no caching between identical lookups");
    }

    #[test]
    fn caching_reduces_io() {
        let db = MetadataDb::from_posts(&posts(), 300);
        db.io().reset();
        db.try_row(TweetId(1)).unwrap();
        db.try_row(TweetId(1)).unwrap();
        db.try_row(TweetId(1)).unwrap();
        assert!(db.io().cache_hits() > 0);
    }

    #[test]
    fn location_roundtrip_precision() {
        let original = pt(43.6839128037, -79.37356590);
        let p = vec![Post::original(TweetId(7), UserId(1), original, "x")];
        let db = MetadataDb::from_posts(&p, 0);
        let loc = db.try_row(TweetId(7)).unwrap().unwrap().location;
        assert_eq!(loc.lat(), original.lat());
        assert_eq!(loc.lon(), original.lon());
    }

    #[test]
    fn custom_store_factory_is_used() {
        // A fault pager with 100% transient writes, armed from the start:
        // the (write-heavy) bulk load itself must surface the typed error.
        let cfg = FaultConfig { seed: 1, transient_write_ppm: 1_000_000, ..FaultConfig::default() };
        let handle = tklus_storage::FaultHandle::new();
        handle.arm(true);
        let factory: MetadataStoreFactory = {
            let handle = Arc::clone(&handle);
            Arc::new(move |stats| {
                Box::new(FaultPager::with_handle(
                    MemPager::with_stats(stats),
                    cfg,
                    Arc::clone(&handle),
                ))
            })
        };
        let err = match MetadataDb::try_from_posts(&posts(), 0, Some(&factory)) {
            Err(e) => e,
            Ok(_) => panic!("bulk load over an always-failing store must fail"),
        };
        assert!(err.is_transient(), "{err}");
        assert!(handle.transient_injected() > 0);
    }

    #[test]
    fn try_reply_scan_matches_the_panicking_twin() {
        let db = MetadataDb::from_posts(&posts(), 0);
        assert_eq!(db.try_replies_to_ids(TweetId(1)).unwrap(), db.replies_to_ids(TweetId(1)));
    }
}
