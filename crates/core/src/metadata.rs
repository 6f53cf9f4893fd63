//! The centralized tweet-metadata database of Section IV-A.
//!
//! "All tweets in our system form a relation with the schema of
//! `(sid, uid, lat, lon, ruid, rsid)` which is stored in a centralized
//! metadata database … attribute sid is the primary key for which we build
//! a B⁺-tree. Another B⁺-tree is built on attribute rsid."
//!
//! Three B⁺-trees, each over its own checksummed page store:
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
//! [`MetadataDb::io`]. There is no page cache: the paper runs with
//! "database caches … set off" (Section VI-B1), and every page a tree
//! reads is a counted physical read. A query reads through one
//! [`MetaReader`] — a cursor per tree that keeps its root-to-leaf path for
//! the life of the query — and the `&self` lookups here are one-call
//! readers. The query path reads scans in place: Algorithm 1's levels are
//! counted and Definition 9's mean is folded over the entries where they
//! sit in the verified pages; the `Vec`-returning lookups collect the
//! same visits for callers that want the ids.

use crate::score::tweet_distance_score;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use tklus_geo::Point;
use tklus_graph::{popularity, TryReplyProvider};
use tklus_model::{Corpus, Post, ScoringConfig, TweetId, UserId};
use tklus_storage::{
    BPlusTree, CheckedPager, IoStats, MemPager, PageStore, StorageError, StorageResult, TreeReader,
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

/// The page stack under each tree: a checksum layer over the store the
/// [`MetadataStoreFactory`] built.
type Pages = CheckedPager<Box<dyn PageStore>>;

/// The metadata database.
pub struct MetadataDb {
    primary: BPlusTree<Pages, ROW_SIZE>,
    reply_index: BPlusTree<Pages, 0>,
    user_index: BPlusTree<Pages, LOC_SIZE>,
    stats: IoStats,
    rows: u64,
}

impl MetadataDb {
    /// Bulk loads the database from posts over a caller-chosen page store
    /// (`None` = the default in-memory pager). Bulk-load I/O errors surface
    /// as typed [`StorageError`]s. `_cache_pages` is never read: there is
    /// no page cache (it stays while `benchmark/` still passes it).
    pub fn try_from_posts(
        posts: &[Post],
        _cache_pages: usize,
        store: Option<&MetadataStoreFactory>,
    ) -> StorageResult<Self> {
        let stats = IoStats::new();

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

        let pages = || -> Pages {
            CheckedPager::new(match store {
                Some(factory) => factory(stats.clone()),
                None => Box::new(MemPager::with_stats(stats.clone())),
            })
        };
        Ok(Self {
            primary: BPlusTree::bulk_load(pages(), &primary_entries)?,
            reply_index: BPlusTree::bulk_load(pages(), &reply_entries)?,
            user_index: BPlusTree::bulk_load(pages(), &user_entries)?,
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
            walk: LevelWalk::default(),
        }
    }

    /// `select * where sid = ?` on the primary index (the author and
    /// location lookups of Algorithm 4 line 20 / Algorithm 5 line 22): a
    /// one-call [`MetaReader`].
    pub fn try_row(&self, sid: TweetId) -> StorageResult<Option<MetaRow>> {
        self.reader(None).try_row(sid)
    }

    /// `select sid where rsid = ?` on the reply index (Algorithm 1 line 7):
    /// a one-call [`MetaReader`].
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

    /// The live replies to `rsid`, in tweet-id order.
    fn replies_to(&self, rsid: TweetId) -> impl Iterator<Item = TweetId> + '_ {
        let range = (rsid, TweetId(0))..=(rsid, TweetId(u64::MAX));
        self.replies.range(range).map(|&(_, sid)| sid)
    }

    /// The live posts of `uid`, in tweet-id order.
    fn posts_of(&self, uid: UserId) -> impl Iterator<Item = (TweetId, Point)> + '_ {
        let range = (uid, TweetId(0))..=(uid, TweetId(u64::MAX));
        self.users.range(range).map(|(&(_, sid), &loc)| (sid, loc))
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
/// tweet id, so Algorithm 1 looks its levels up, and Definition 9's sum
/// over `P_u` adds, in the order a tree over both sets would.
pub struct MetaReader<'a> {
    primary: TreeReader<'a, Pages, ROW_SIZE>,
    reply_index: TreeReader<'a, Pages, 0>,
    user_index: TreeReader<'a, Pages, LOC_SIZE>,
    live: Option<&'a LiveMetadata>,
    /// The buffers every thread walk of the query reuses.
    walk: LevelWalk,
}

impl MetaReader<'_> {
    /// `select * where sid = ?` on the primary index.
    pub fn try_row(&mut self, sid: TweetId) -> StorageResult<Option<MetaRow>> {
        if let Some(row) = self.live.and_then(|live| live.row(sid)) {
            return Ok(Some(row));
        }
        Ok(self.primary.get((sid.0, 0))?.map(|bytes| decode_row(&bytes)))
    }

    /// `select sid where rsid = ?` on the reply index (Algorithm 1 line 7),
    /// the live replies merged in by tweet id.
    pub fn try_replies_to_ids(&mut self, rsid: TweetId) -> StorageResult<Vec<TweetId>> {
        let mut sids = Vec::new();
        visit_replies(&mut self.reply_index, self.live, rsid, |sid| sids.push(sid))?;
        Ok(sids)
    }

    /// All posts of a user — the `P_u` scan for Definition 9's user
    /// distance score: calls `f` on each `(sid, location)` in tweet-id
    /// order, the live ones merged in, without collecting them.
    fn try_visit_posts_of_user(
        &mut self,
        uid: UserId,
        mut f: impl FnMut(TweetId, Point),
    ) -> StorageResult<()> {
        let mut live = self.live.into_iter().flat_map(|live| live.posts_of(uid)).peekable();
        self.user_index.visit((uid.0, 0), (uid.0, u64::MAX), |(_, sid), loc| {
            let sid = TweetId(sid);
            while let Some((before, at)) = live.next_if(|&(l, _)| l < sid) {
                f(before, at);
            }
            let lat = f64::from_le_bytes(field8(&loc[0..8]));
            let lon = f64::from_le_bytes(field8(&loc[8..16]));
            f(sid, Point::new_unchecked(lat, lon));
        })?;
        live.for_each(|(sid, at)| f(sid, at));
        Ok(())
    }

    /// All posts of a user, as `(sid, location)` in tweet-id order, the
    /// live ones merged in.
    pub fn try_posts_of_user(&mut self, uid: UserId) -> StorageResult<Vec<(TweetId, Point)>> {
        let mut posts = Vec::new();
        self.try_visit_posts_of_user(uid, |sid, at| posts.push((sid, at)))?;
        Ok(posts)
    }

    /// Definition 9's user distance score δ(u, q): the mean of the tweet
    /// distance scores over `P_u`, folded over the user index's entries
    /// where they sit. It adds in `P_u`'s tweet-id order, as
    /// [`user_distance_score`] adds over the collected `P_u`, so the two
    /// agree bit for bit.
    ///
    /// [`user_distance_score`]: crate::score::user_distance_score
    pub fn try_user_distance(
        &mut self,
        uid: UserId,
        center: &Point,
        radius_km: f64,
        config: &ScoringConfig,
    ) -> StorageResult<f64> {
        let (mut sum, mut posts) = (0.0, 0usize);
        self.try_visit_posts_of_user(uid, |_, at| {
            sum += tweet_distance_score(center, radius_km, &at, config);
            posts += 1;
        })?;
        Ok(if posts == 0 { 0.0 } else { sum / posts as f64 })
    }

    /// Definition 4's φ of the thread rooted at `root`, at most `depth`
    /// levels deep: Algorithm 1's walk ([`LevelWalk`]) over the reply
    /// index and the live replies. Every level's tweets are looked up in
    /// the order Algorithm 1 ([`tklus_graph::try_build_thread`] over this
    /// reader) looks them up, so it reads the same pages in the same
    /// order, and φ comes from the same level sizes, bit for bit.
    pub fn try_thread_popularity(
        &mut self,
        root: TweetId,
        depth: usize,
        epsilon: f64,
    ) -> StorageResult<f64> {
        let Self { reply_index, live, walk, .. } = self;
        walk.popularity(&mut TreeReplies { index: reply_index, live: *live }, root, depth, epsilon)
    }
}

/// Algorithm 1's `select sid where rsid = ?`, as the level walk asks it:
/// calls `f` on the id of each reply to `rsid`.
trait ReplyScan {
    type Error;
    fn scan(&mut self, rsid: TweetId, f: impl FnMut(TweetId)) -> Result<(), Self::Error>;
}

/// The query's reply scans: the reply-index cursor with the live replies
/// merged in.
struct TreeReplies<'r, 'a> {
    index: &'r mut TreeReader<'a, Pages, 0>,
    live: Option<&'a LiveMetadata>,
}

impl ReplyScan for TreeReplies<'_, '_> {
    type Error = StorageError;

    fn scan(&mut self, rsid: TweetId, f: impl FnMut(TweetId)) -> StorageResult<()> {
        visit_replies(self.index, self.live, rsid, f)
    }
}

/// Every reply edge of a post set in memory, as `(rsid, sid)` sorted: the
/// scans [`PhiColumn::build`] walks.
struct ReplyEdges(Vec<(TweetId, TweetId)>);

impl ReplyScan for ReplyEdges {
    type Error = std::convert::Infallible;

    fn scan(&mut self, rsid: TweetId, mut f: impl FnMut(TweetId)) -> Result<(), Self::Error> {
        let from = self.0.partition_point(|&(target, _)| target < rsid);
        self.0[from..]
            .iter()
            .take_while(|&&(target, _)| target == rsid)
            .for_each(|&(_, sid)| f(sid));
        Ok(())
    }
}

/// Algorithm 1's level walk, counting each level instead of building it:
/// the one walk behind the query-time φ and the [`PhiColumn`]. Only the
/// tweets of a level that is expanded in turn are kept, in two frontier
/// buffers reused from walk to walk; the last level is only counted. The
/// walk stops at `depth` levels and at the first empty one, so a self or
/// cyclic reply is counted at every level it comes round to, down to
/// `depth`, as Algorithm 1 counts it.
#[derive(Default)]
struct LevelWalk {
    /// The level being expanded and the level it finds.
    frontier: Vec<TweetId>,
    next: Vec<TweetId>,
    /// The walked thread's level sizes, root level first.
    level_sizes: Vec<usize>,
}

impl LevelWalk {
    /// Definition 4's φ of the thread rooted at `root`, at most `depth`
    /// levels deep, its levels found by `replies`.
    fn popularity<R: ReplyScan>(
        &mut self,
        replies: &mut R,
        root: TweetId,
        depth: usize,
        epsilon: f64,
    ) -> Result<f64, R::Error> {
        assert!(depth >= 1, "thread depth must be at least 1");
        let Self { frontier, next, level_sizes } = self;
        frontier.clear();
        frontier.push(root);
        level_sizes.clear();
        level_sizes.push(1);
        while level_sizes.len() < depth {
            let last = level_sizes.len() + 1 == depth;
            next.clear();
            let mut size = 0;
            for &id in frontier.iter() {
                replies.scan(id, |sid| {
                    size += 1;
                    if !last {
                        next.push(sid);
                    }
                })?;
            }
            if size == 0 {
                break;
            }
            level_sizes.push(size);
            std::mem::swap(frontier, next);
        }
        Ok(popularity(level_sizes, epsilon))
    }
}

/// Definition 4's φ of every post of a set, computed once when an engine
/// is assembled: `(tid, φ)` sorted by tid, 16 bytes a post. φ depends only
/// on a post's reply subtree, the thread depth and ε, never on the query,
/// so a query over posts that take no live replies reads it here instead
/// of walking its thread ([`PhiCursor`]). Each entry comes from the same
/// [`LevelWalk`] the query-time walk runs, over the set's reply edges in
/// memory, so it equals [`MetaReader::try_thread_popularity`] over trees of
/// the same posts bit for bit.
#[derive(Debug)]
pub struct PhiColumn {
    phi: Vec<(TweetId, f64)>,
}

impl PhiColumn {
    /// φ of every post in `corpus`, threads cut at `depth` levels, a
    /// thread without replies scoring `epsilon`. Costs O(posts × depth)
    /// scans of the sorted reply edges.
    pub fn build(corpus: &Corpus, depth: usize, epsilon: f64) -> Self {
        let posts = corpus.posts();
        let mut edges: Vec<(TweetId, TweetId)> =
            posts.iter().filter_map(|p| p.in_reply_to.map(|r| (r.target, p.id))).collect();
        edges.sort_unstable();
        let mut edges = ReplyEdges(edges);
        let mut walk = LevelWalk::default();
        let phi = posts
            .iter()
            .map(|p| match walk.popularity(&mut edges, p.id, depth, epsilon) {
                Ok(phi) => (p.id, phi),
                Err(never) => match never {},
            })
            .collect();
        Self { phi }
    }

    /// A reader for lookups in ascending tweet-id order.
    pub fn cursor(&self) -> PhiCursor<'_> {
        PhiCursor { rest: &self.phi }
    }
}

/// Reads a [`PhiColumn`] for tweet ids that only ascend, as a query's
/// candidates do: each lookup gallops forward from the last, so a query
/// pays for the distance between its candidates, not for the column.
pub struct PhiCursor<'a> {
    /// The entries at and after the last lookup.
    rest: &'a [(TweetId, f64)],
}

impl PhiCursor<'_> {
    /// φ of `tid`, or `None` when the column does not hold it. `tid` must
    /// not be below the previous lookup's.
    pub fn get(&mut self, tid: TweetId) -> Option<f64> {
        let mut end = 1;
        while end < self.rest.len() && self.rest[end - 1].0 < tid {
            end *= 2;
        }
        let end = end.min(self.rest.len());
        let at = self.rest[..end].partition_point(|&(id, _)| id < tid);
        self.rest = &self.rest[at..];
        self.rest.first().filter(|&&(id, _)| id == tid).map(|&(_, phi)| phi)
    }
}

/// Calls `f` on the id of each reply to `rsid` in tweet-id order, the
/// replies in `live` merged in, without collecting them. It takes the
/// reply-index cursor and the overlay rather than the [`MetaReader`], so
/// the thread walk can borrow its frontier buffers beside them.
fn visit_replies(
    reply_index: &mut TreeReader<'_, Pages, 0>,
    live: Option<&LiveMetadata>,
    rsid: TweetId,
    mut f: impl FnMut(TweetId),
) -> StorageResult<()> {
    let mut live = live.into_iter().flat_map(|live| live.replies_to(rsid)).peekable();
    reply_index.visit((rsid.0, 0), (rsid.0, u64::MAX), |(_, sid), _| {
        let sid = TweetId(sid);
        while let Some(before) = live.next_if(|&l| l < sid) {
            f(before);
        }
        f(sid);
    })?;
    live.for_each(f);
    Ok(())
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

    fn db(posts: &[Post]) -> MetadataDb {
        MetadataDb::try_from_posts(posts, 0, None).unwrap()
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
        let bulk = db(&all);
        // Live 2 then 1, sealed 3..=5: sealed replies target live 1, live
        // reply 2 sorts before sealed reply 3, and users 10 and 11 each
        // have a live post before a sealed one.
        let sealed = db(&all[2..]);
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
        let db = db(&posts());
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
        let db = db(&posts());
        assert_eq!(db.try_replies_to_ids(TweetId(1)).unwrap(), vec![TweetId(2), TweetId(3)]);
        assert_eq!(db.try_replies_to_ids(TweetId(2)).unwrap(), vec![TweetId(4)]);
        assert!(db.try_replies_to_ids(TweetId(5)).unwrap().is_empty());
    }

    #[test]
    fn user_index_scans() {
        let db = db(&posts());
        let u10 = db.try_posts_of_user(UserId(10)).unwrap();
        assert_eq!(u10.len(), 2);
        assert_eq!(u10[0].0, TweetId(1));
        assert_eq!(u10[1].0, TweetId(5));
        assert!((u10[1].1.lat() - 44.0).abs() < 1e-12);
        assert!(db.try_posts_of_user(UserId(99)).unwrap().is_empty());
    }

    #[test]
    fn works_as_reply_provider_for_threads() {
        let db = db(&posts());
        let t = try_build_thread(&mut db.reader(None), TweetId(1), 5).unwrap();
        assert_eq!(t.level_sizes(), vec![1, 2, 1]);
    }

    /// No page cache, whatever `cache_pages` says: identical lookups each
    /// pay the same physical reads.
    #[test]
    fn every_lookup_pays_its_page_reads() {
        for cache_pages in [0, 300] {
            let db = MetadataDb::try_from_posts(&posts(), cache_pages, None).unwrap();
            db.io().reset();
            db.try_row(TweetId(1)).unwrap();
            let one = db.io().page_reads();
            assert!(one > 0, "a lookup costs physical reads");
            db.try_row(TweetId(1)).unwrap();
            db.try_row(TweetId(1)).unwrap();
            assert_eq!(db.io().page_reads(), 3 * one, "cache_pages {cache_pages}");
        }
    }

    #[test]
    fn location_roundtrip_precision() {
        let original = pt(43.6839128037, -79.37356590);
        let p = vec![Post::original(TweetId(7), UserId(1), original, "x")];
        let db = db(&p);
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
}
