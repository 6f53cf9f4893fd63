//! A paged B⁺-tree with composite `(u64, u64)` keys and fixed-size values.
//!
//! Section IV-A: "attribute sid is the primary key for which we build a
//! B⁺-tree. Another B⁺-tree is built on attribute rsid. These indexes are
//! used to accelerate the query processing phase." The composite key covers
//! both uses:
//!
//! * primary index — key `(sid, 0)`, value = the rest of the metadata row;
//! * secondary index — key `(rsid, sid)`, empty value; the non-unique
//!   lookup "select all where rsid equals Id" (Algorithm 1, line 7) becomes
//!   the range scan `(rsid, 0) ..= (rsid, u64::MAX)`.
//!
//! Nodes live in fixed-size pages behind a [`PageStore`] (usually a
//! [`crate::BufferPool`] over a [`crate::CheckedPager`]), so every logical
//! operation's physical I/O cost is observable — the quantity the paper's
//! Maximum-score pruning (Section V-B) is designed to save. Node content
//! starts at [`PAGE_HEADER_SIZE`], leaving the verified page header (magic,
//! format version, CRC32) to the checksum layer.
//!
//! Every operation returns a [`StorageError`] instead of panicking when the
//! store fails or a page decodes to a structurally impossible node
//! (`CorruptNode`); programmer errors (unsorted bulk-load input) still
//! assert.
//!
//! A tree is built once, by a sorted bulk load, and only read afterwards:
//! point get, inclusive range scan, and the cursor of [`TreeReader`].
//! There is no insert or delete. The metadata database is rebuilt, never
//! edited in place, as the paper's index is (Section IV-A, Fig. 3).

use crate::error::{StorageError, StorageResult};
use crate::page::{zeroed_page, Page, PageId, PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::pager::PageStore;

/// Composite key: `(major, minor)` ordered lexicographically.
pub type Key = (u64, u64);

const NODE_LEAF: u8 = 1;
const NODE_INTERNAL: u8 = 2;
/// Node content begins after the verified page header.
const NODE_BASE: usize = PAGE_HEADER_SIZE;
/// Node-local header: tag, entry count, leaf `next` pointer.
const HEADER: usize = 16;
/// Where a leaf keeps its right sibling's page id.
const NEXT: usize = NODE_BASE + 8;
const KEY_SIZE: usize = 16;
const CHILD_SIZE: usize = 8;
const NO_NEXT: u64 = u64::MAX;

/// A B⁺-tree storing values of exactly `V` bytes.
///
/// ```
/// use tklus_storage::{BPlusTree, MemPager, StorageError};
///
/// # fn main() -> Result<(), StorageError> {
/// let entries = [((42, 0), 7u64.to_le_bytes()), ((42, 1), 8u64.to_le_bytes())];
/// let tree: BPlusTree<_, 8> = BPlusTree::bulk_load(MemPager::new(), &entries)?;
/// assert_eq!(tree.get((42, 0))?, Some(7u64.to_le_bytes()));
/// // The secondary-index shape: range-scan all entries of one major key.
/// assert_eq!(tree.scan_major(42)?.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct BPlusTree<S: PageStore, const V: usize> {
    store: S,
    root: PageId,
    height: usize,
    len: u64,
}

// Node layout, after the verified page header: a 16-byte node header
// (tag at 0, entry count at 2, leaf `next` pointer at 8), then the
// entries. A leaf packs `(key, value)` pairs; an internal node packs one
// child pointer, then `(key, child)` pairs. The helpers below are the only
// place the layout is written down: `BPlusTree::bulk_load` writes through
// them and `NodePage` reads through them.

/// Where a node's entries begin.
const ENTRIES: usize = NODE_BASE + HEADER;

const fn leaf_capacity<const V: usize>() -> usize {
    (PAGE_SIZE - ENTRIES) / (KEY_SIZE + V)
}

const fn internal_capacity() -> usize {
    (PAGE_SIZE - ENTRIES - CHILD_SIZE) / (KEY_SIZE + CHILD_SIZE)
}

/// Offset of key `i`: in a leaf, or (`V` ignored) an internal node.
const fn key_at<const V: usize>(leaf: bool, i: usize) -> usize {
    if leaf {
        ENTRIES + i * (KEY_SIZE + V)
    } else {
        ENTRIES + CHILD_SIZE + i * (KEY_SIZE + CHILD_SIZE)
    }
}

/// Offset of leaf value `i`.
const fn value_at<const V: usize>(i: usize) -> usize {
    key_at::<V>(true, i) + KEY_SIZE
}

/// Offset of internal child pointer `i` (`0 ..= count`).
const fn child_at(i: usize) -> usize {
    ENTRIES + i * (KEY_SIZE + CHILD_SIZE)
}

/// A fresh node page with its tag and count written.
fn node_page(tag: u8, count: usize) -> Page {
    let mut page = zeroed_page();
    page[NODE_BASE] = tag;
    page[NODE_BASE + 2..NODE_BASE + 4].copy_from_slice(&(count as u16).to_le_bytes());
    page
}

fn read_u64(page: &Page, off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&page[off..off + 8]);
    u64::from_le_bytes(b)
}

fn write_u64(page: &mut Page, off: usize, x: u64) {
    page[off..off + 8].copy_from_slice(&x.to_le_bytes());
}

fn write_key(page: &mut Page, off: usize, k: Key) {
    write_u64(page, off, k.0);
    write_u64(page, off + 8, k.1);
}

/// A node as read: the verified page, searched in place. [`Self::new`]
/// checks the tag and that the count fits the page, so every entry offset
/// below `count` lies inside it.
struct NodePage<const V: usize> {
    page: Page,
    leaf: bool,
    count: usize,
}

impl<const V: usize> NodePage<V> {
    fn new(page: Page, id: PageId) -> StorageResult<Self> {
        let corrupt = |detail: String| StorageError::CorruptNode { page_id: id, detail };
        let count = u16::from_le_bytes([page[NODE_BASE + 2], page[NODE_BASE + 3]]) as usize;
        let leaf = match page[NODE_BASE] {
            NODE_LEAF => true,
            NODE_INTERNAL => false,
            t => return Err(corrupt(format!("unknown node tag {t}"))),
        };
        let (kind, capacity) =
            if leaf { ("leaf", leaf_capacity::<V>()) } else { ("internal", internal_capacity()) };
        if count > capacity {
            return Err(corrupt(format!("{kind} count {count} exceeds capacity {capacity}")));
        }
        Ok(Self { page, leaf, count })
    }

    fn key(&self, i: usize) -> Key {
        let off = key_at::<V>(self.leaf, i);
        (read_u64(&self.page, off), read_u64(&self.page, off + 8))
    }

    fn value(&self, i: usize) -> [u8; V] {
        let off = value_at::<V>(i);
        let mut v = [0u8; V];
        v.copy_from_slice(&self.page[off..off + V]);
        v
    }

    fn child(&self, i: usize) -> PageId {
        PageId(read_u64(&self.page, child_at(i)))
    }

    fn next(&self) -> Option<PageId> {
        let raw = read_u64(&self.page, NEXT);
        (raw != NO_NEXT).then_some(PageId(raw))
    }

    /// Number of keys for which `before` holds, `before` being true on a
    /// prefix of the (sorted) keys.
    fn partition_point(&self, before: impl Fn(Key) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl<S: PageStore, const V: usize> BPlusTree<S, V> {
    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The underlying store (for stats inspection).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Opens a read session over this tree (see [`TreeReader`]).
    pub fn reader(&self) -> TreeReader<'_, S, V> {
        TreeReader { tree: self, path: Vec::new() }
    }

    /// Point lookup: a one-call [`TreeReader`].
    pub fn get(&self, key: Key) -> StorageResult<Option<[u8; V]>> {
        self.reader().get(key)
    }

    /// Inclusive range scan `lo ..= hi`, in key order: a one-call
    /// [`TreeReader`].
    pub fn scan(&self, lo: Key, hi: Key) -> StorageResult<Vec<(Key, [u8; V])>> {
        self.reader().scan(lo, hi)
    }

    /// Range scan over all keys with the given major component: a
    /// one-call [`TreeReader`].
    pub fn scan_major(&self, major: u64) -> StorageResult<Vec<(Key, [u8; V])>> {
        self.reader().scan_major(major)
    }

    /// Bulk loads a tree from key-sorted entries (keys must be strictly
    /// increasing): leaves are packed left to right at full fill, then each
    /// internal level is built in one pass. Panics if `entries` is unsorted
    /// or has duplicates.
    pub fn bulk_load(store: S, entries: &[(Key, [u8; V])]) -> StorageResult<Self> {
        if entries.is_empty() {
            let root = store.allocate()?;
            let mut empty = node_page(NODE_LEAF, 0);
            write_u64(&mut empty, NEXT, NO_NEXT);
            store.write(root, &empty)?;
            return Ok(Self { store, root, height: 0, len: 0 });
        }
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires strictly sorted keys"
        );
        // Build leaves.
        let mut level: Vec<(Key, PageId)> = Vec::new(); // (first key, page)
        let chunks: Vec<&[(Key, [u8; V])]> = entries.chunks(leaf_capacity::<V>()).collect();
        let mut ids: Vec<PageId> = Vec::with_capacity(chunks.len());
        for _ in &chunks {
            ids.push(store.allocate()?);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let mut page = node_page(NODE_LEAF, chunk.len());
            write_u64(&mut page, NEXT, ids.get(i + 1).map_or(NO_NEXT, |p| p.0));
            for (j, (k, v)) in chunk.iter().enumerate() {
                write_key(&mut page, key_at::<V>(true, j), *k);
                page[value_at::<V>(j)..value_at::<V>(j) + V].copy_from_slice(v);
            }
            store.write(ids[i], &page)?;
            level.push((chunk[0].0, ids[i]));
        }
        // Build internal levels until a single root remains.
        let mut height = 0;
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for group in level.chunks(internal_capacity() + 1) {
                let id = store.allocate()?;
                let mut page = node_page(NODE_INTERNAL, group.len() - 1);
                write_u64(&mut page, child_at(0), group[0].1 .0);
                for (j, (k, child)) in group[1..].iter().enumerate() {
                    write_key(&mut page, key_at::<V>(false, j), *k);
                    write_u64(&mut page, child_at(j + 1), child.0);
                }
                store.write(id, &page)?;
                next_level.push((group[0].0, id));
            }
            level = next_level;
            height += 1;
        }
        Ok(Self { store, root: level[0].1, height, len: entries.len() as u64 })
    }
}

/// A read session over one tree: a cursor that keeps its root-to-leaf
/// path. Per depth it keeps the last page it read there, verified by the
/// store and its node header checked, and searches its keys in place;
/// a value is copied out only when it is returned. It reads a level
/// again only when the page it needs there is a different one — so
/// lookups in key order (Algorithms 4/5 visit candidates in tweet-id
/// order, the primary tree's key order) descend the tree once, not once
/// per key.
///
/// Reuse is safe because a tree is never written after its bulk load, so
/// no page can change while a reader lives. Nothing outlives the reader — it is a cursor, not a
/// cache — and every page it does read goes through the store (and its
/// checksum verification) exactly like a one-shot lookup. A failed read
/// leaves the remembered path untouched, so the next call retries it.
///
/// All lookup and scan descent lives here; [`BPlusTree::get`],
/// [`BPlusTree::scan`] and [`BPlusTree::scan_major`] open a reader for
/// one call.
pub struct TreeReader<'a, S: PageStore, const V: usize> {
    tree: &'a BPlusTree<S, V>,
    /// `path[d]` is the last node read at depth `d` (0 = the root).
    path: Vec<(PageId, NodePage<V>)>,
}

impl<S: PageStore, const V: usize> TreeReader<'_, S, V> {
    /// The node `id` at `depth`: the remembered one when it is the same
    /// page, otherwise read from the store and remembered in its place.
    fn node(&mut self, depth: usize, id: PageId) -> StorageResult<&NodePage<V>> {
        if self.path.get(depth).map(|(held, _)| *held) != Some(id) {
            let node = NodePage::new(self.tree.store.read(id)?, id)?;
            self.path.truncate(depth);
            self.path.push((id, node));
        }
        Ok(&self.path[depth].1)
    }

    /// Descends to the leaf whose key range covers `key`; returns its
    /// depth and page id.
    fn seek(&mut self, key: Key) -> StorageResult<(usize, PageId)> {
        let (mut depth, mut id) = (0, self.tree.root);
        loop {
            let node = self.node(depth, id)?;
            if node.leaf {
                return Ok((depth, id));
            }
            id = node.child(node.partition_point(|k| k <= key));
            depth += 1;
        }
    }

    /// The leaf `id` at `depth`; a non-leaf there is a corrupt tree.
    fn leaf(&mut self, depth: usize, id: PageId) -> StorageResult<&NodePage<V>> {
        match self.node(depth, id)? {
            node if node.leaf => Ok(node),
            _ => Err(StorageError::CorruptNode {
                page_id: id,
                detail: "leaf chain reaches an internal node".to_string(),
            }),
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: Key) -> StorageResult<Option<[u8; V]>> {
        let (depth, id) = self.seek(key)?;
        let leaf = self.leaf(depth, id)?;
        let i = leaf.partition_point(|k| k < key);
        Ok((i < leaf.count && leaf.key(i) == key).then(|| leaf.value(i)))
    }

    /// Inclusive range scan `lo ..= hi`, in key order.
    pub fn scan(&mut self, lo: Key, hi: Key) -> StorageResult<Vec<(Key, [u8; V])>> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        // Start at the leaf covering lo, then walk the leaf chain.
        let (depth, mut id) = self.seek(lo)?;
        loop {
            let leaf = self.leaf(depth, id)?;
            for i in leaf.partition_point(|k| k < lo)..leaf.count {
                let k = leaf.key(i);
                if k > hi {
                    return Ok(out);
                }
                out.push((k, leaf.value(i)));
            }
            match leaf.next() {
                Some(n) => id = n,
                None => return Ok(out),
            }
        }
    }

    /// Range scan over all keys with the given major component — the
    /// "select all where rsid equals Id" lookup of Algorithm 1.
    pub fn scan_major(&mut self, major: u64) -> StorageResult<Vec<(Key, [u8; V])>> {
        self.scan((major, 0), (major, u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::pager::MemPager;

    type Tree = BPlusTree<MemPager, 8>;

    fn v(x: u64) -> [u8; 8] {
        x.to_le_bytes()
    }

    /// A tree over `keys` (sorted, distinct), each valued by its major.
    fn tree_of(keys: impl IntoIterator<Item = Key>) -> Tree {
        let entries: Vec<(Key, [u8; 8])> = keys.into_iter().map(|k| (k, v(k.0))).collect();
        Tree::bulk_load(MemPager::new(), &entries).unwrap()
    }

    #[test]
    fn empty_tree() {
        let t = tree_of([]);
        assert!(t.is_empty());
        assert_eq!(t.get((1, 0)).unwrap(), None);
        assert!(t.scan((0, 0), (100, 0)).unwrap().is_empty());
    }

    #[test]
    fn scan_returns_sorted_inclusive_range() {
        let t = tree_of((0..1000u64).map(|k| (k, 0)));
        let got = t.scan((100, 0), (110, 0)).unwrap();
        let keys: Vec<u64> = got.iter().map(|e| e.0 .0).collect();
        assert_eq!(keys, (100..=110).collect::<Vec<_>>());
        // Empty range.
        assert!(t.scan((50, 1), (50, 2)).unwrap().is_empty());
        // Inverted range.
        assert!(t.scan((10, 0), (5, 0)).unwrap().is_empty());
    }

    #[test]
    fn scan_major_finds_all_minors() {
        // Secondary-index shape: (rsid, sid) pairs.
        let t =
            tree_of([(6, 999)].into_iter().chain((0..50u64).map(|sid| (7, sid))).chain([(8, 0)]));
        let got = t.scan_major(7).unwrap();
        assert_eq!(got.len(), 50);
        assert!(got.iter().all(|e| e.0 .0 == 7));
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(t.scan_major(9).unwrap().is_empty());
    }

    #[test]
    fn scan_spanning_many_leaves() {
        let n = 3000u64;
        let t = tree_of((0..n).map(|k| (k, 0)));
        let all = t.scan((0, 0), (n, 0)).unwrap();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn bulk_load_is_searchable() {
        let n = 4000u64;
        let entries: Vec<((u64, u64), [u8; 8])> = (0..n).map(|k| ((k, 0), v(k * 3))).collect();
        let bulk = Tree::bulk_load(MemPager::new(), &entries).unwrap();
        assert_eq!(bulk.len(), n);
        for k in (0..n).step_by(37) {
            assert_eq!(bulk.get((k, 0)).unwrap(), Some(v(k * 3)));
        }
        let scan = bulk.scan((0, 0), (n, u64::MAX)).unwrap();
        assert_eq!(scan.len(), n as usize);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let t = Tree::bulk_load(MemPager::new(), &[]).unwrap();
        assert!(t.is_empty());
        let t1 = Tree::bulk_load(MemPager::new(), &[((1, 2), v(9))]).unwrap();
        assert_eq!(t1.get((1, 2)).unwrap(), Some(v(9)));
        assert_eq!(t1.len(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn bulk_load_rejects_unsorted() {
        let _ = Tree::bulk_load(MemPager::new(), &[((2, 0), v(1)), ((1, 0), v(2))]);
    }

    #[test]
    fn corrupt_node_tag_is_a_typed_error() {
        let t = tree_of((0..10u64).map(|k| (k, 0)));
        // Scribble an impossible tag over the root node.
        let mut raw = t.store().read(PageId(0)).unwrap();
        raw[NODE_BASE] = 9;
        t.store().write(PageId(0), &raw).unwrap();
        assert!(matches!(t.get((0, 0)), Err(StorageError::CorruptNode { .. })));
    }

    #[test]
    fn impossible_count_is_a_typed_error() {
        let t = tree_of((0..10u64).map(|k| (k, 0)));
        let mut raw = t.store().read(PageId(0)).unwrap();
        raw[NODE_BASE + 2..NODE_BASE + 4].copy_from_slice(&u16::MAX.to_le_bytes());
        t.store().write(PageId(0), &raw).unwrap();
        assert!(matches!(t.get((0, 0)), Err(StorageError::CorruptNode { .. })));
    }

    #[test]
    fn composite_key_ordering() {
        let t = tree_of([(1, 2), (1, 5), (2, 0)]);
        let got = t.scan((1, 0), (1, u64::MAX)).unwrap();
        let keys: Vec<Key> = got.iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![(1, 2), (1, 5)]);
    }

    #[test]
    fn io_counts_grow_with_depth() {
        let t = tree_of((0..20000u64).map(|k| (k, 0)));
        let before = t.store().stats().page_reads();
        t.get((12345, 0)).unwrap();
        let after = t.store().stats().page_reads();
        let per_get = after - before;
        assert_eq!(per_get as usize, t.height() + 1, "one read per level");
    }

    #[test]
    fn reader_rereads_only_the_levels_that_change() {
        let n = 40_000u64;
        let entries: Vec<(Key, [u8; 8])> = (0..n).map(|k| ((k, 0), v(k))).collect();
        let t = Tree::bulk_load(MemPager::new(), &entries).unwrap();
        assert_eq!(t.height(), 2);
        let reads = || t.store().stats().page_reads();
        let mut r = t.reader();
        let start = reads();
        assert_eq!(r.get((7, 0)).unwrap(), Some(v(7)));
        assert_eq!(reads() - start, 3, "first lookup descends every level");
        assert_eq!(r.get((8, 0)).unwrap(), Some(v(8)));
        assert_eq!(r.get((7, 0)).unwrap(), Some(v(7)));
        assert_eq!(reads() - start, 3, "same leaf: nothing is read again");
        assert_eq!(r.get((n - 1, 0)).unwrap(), Some(v(n - 1)));
        assert_eq!(reads() - start, 5, "far key: the root is kept, two levels change");
        // An ascending sweep of every key reads every page exactly once.
        let mut sweep = t.reader();
        let start = reads();
        for k in 0..n {
            assert_eq!(sweep.get((k, 0)).unwrap(), Some(v(k)));
        }
        assert_eq!(reads() - start, t.store().page_count());
        // The reader kept nothing the tree does not have: one-shot calls
        // still pay a full descent.
        let start = reads();
        t.get((7, 0)).unwrap();
        assert_eq!(reads() - start, 3);
    }
}
