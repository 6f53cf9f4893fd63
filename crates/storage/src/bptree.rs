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

/// Parsed in-memory form of a node page.
enum Node<const V: usize> {
    Leaf { keys: Vec<Key>, vals: Vec<[u8; V]>, next: Option<PageId> },
    Internal { keys: Vec<Key>, children: Vec<PageId> },
}

impl<const V: usize> Node<V> {
    fn leaf_capacity() -> usize {
        (PAGE_SIZE - NODE_BASE - HEADER) / (KEY_SIZE + V)
    }

    fn internal_capacity() -> usize {
        // One leading child pointer, then (key, child) pairs.
        (PAGE_SIZE - NODE_BASE - HEADER - CHILD_SIZE) / (KEY_SIZE + CHILD_SIZE)
    }

    fn parse(page: &Page, id: PageId) -> StorageResult<Self> {
        let corrupt = |detail: String| StorageError::CorruptNode { page_id: id, detail };
        let count = u16::from_le_bytes([page[NODE_BASE + 2], page[NODE_BASE + 3]]) as usize;
        match page[NODE_BASE] {
            NODE_LEAF => {
                if count > Self::leaf_capacity() {
                    return Err(corrupt(format!(
                        "leaf count {count} exceeds capacity {}",
                        Self::leaf_capacity()
                    )));
                }
                let next_raw = read_u64(page, NODE_BASE + 8);
                let next = (next_raw != NO_NEXT).then_some(PageId(next_raw));
                let mut keys = Vec::with_capacity(count);
                let mut vals = Vec::with_capacity(count);
                let mut off = NODE_BASE + HEADER;
                for _ in 0..count {
                    keys.push(read_key(page, off));
                    off += KEY_SIZE;
                    let mut v = [0u8; V];
                    v.copy_from_slice(&page[off..off + V]);
                    vals.push(v);
                    off += V;
                }
                Ok(Node::Leaf { keys, vals, next })
            }
            NODE_INTERNAL => {
                if count > Self::internal_capacity() {
                    return Err(corrupt(format!(
                        "internal count {count} exceeds capacity {}",
                        Self::internal_capacity()
                    )));
                }
                let mut off = NODE_BASE + HEADER;
                let mut children = Vec::with_capacity(count + 1);
                children.push(PageId(read_u64(page, off)));
                off += CHILD_SIZE;
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(read_key(page, off));
                    off += KEY_SIZE;
                    children.push(PageId(read_u64(page, off)));
                    off += CHILD_SIZE;
                }
                Ok(Node::Internal { keys, children })
            }
            t => Err(corrupt(format!("unknown node tag {t}"))),
        }
    }

    fn serialize(&self) -> Page {
        let mut page = zeroed_page();
        match self {
            Node::Leaf { keys, vals, next } => {
                assert!(keys.len() <= Self::leaf_capacity(), "leaf overflow");
                page[NODE_BASE] = NODE_LEAF;
                page[NODE_BASE + 2..NODE_BASE + 4]
                    .copy_from_slice(&(keys.len() as u16).to_le_bytes());
                page[NODE_BASE + 8..NODE_BASE + 16]
                    .copy_from_slice(&next.map_or(NO_NEXT, |p| p.0).to_le_bytes());
                let mut off = NODE_BASE + HEADER;
                for (k, v) in keys.iter().zip(vals) {
                    write_key(&mut page, off, *k);
                    off += KEY_SIZE;
                    page[off..off + V].copy_from_slice(v);
                    off += V;
                }
            }
            Node::Internal { keys, children } => {
                assert!(keys.len() <= Self::internal_capacity(), "internal overflow");
                assert_eq!(children.len(), keys.len() + 1, "internal arity");
                page[NODE_BASE] = NODE_INTERNAL;
                page[NODE_BASE + 2..NODE_BASE + 4]
                    .copy_from_slice(&(keys.len() as u16).to_le_bytes());
                let mut off = NODE_BASE + HEADER;
                page[off..off + 8].copy_from_slice(&children[0].0.to_le_bytes());
                off += CHILD_SIZE;
                for (k, c) in keys.iter().zip(&children[1..]) {
                    write_key(&mut page, off, *k);
                    off += KEY_SIZE;
                    page[off..off + 8].copy_from_slice(&c.0.to_le_bytes());
                    off += CHILD_SIZE;
                }
            }
        }
        page
    }
}

fn read_u64(page: &Page, off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&page[off..off + 8]);
    u64::from_le_bytes(b)
}

fn read_key(page: &Page, off: usize) -> Key {
    (read_u64(page, off), read_u64(page, off + 8))
}

fn write_key(page: &mut Page, off: usize, k: Key) {
    page[off..off + 8].copy_from_slice(&k.0.to_le_bytes());
    page[off + 8..off + 16].copy_from_slice(&k.1.to_le_bytes());
}

/// Number of keys `<= k` (upper-bound index for descent).
fn upper_bound(keys: &[Key], k: Key) -> usize {
    keys.partition_point(|&x| x <= k)
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

    fn load(&self, id: PageId) -> StorageResult<Node<V>> {
        Node::parse(&self.store.read(id)?, id)
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
            let empty: Node<V> = Node::Leaf { keys: Vec::new(), vals: Vec::new(), next: None };
            store.write(root, &empty.serialize())?;
            return Ok(Self { store, root, height: 0, len: 0 });
        }
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires strictly sorted keys"
        );
        let leaf_cap = Node::<V>::leaf_capacity();
        // Build leaves.
        let mut level: Vec<(Key, PageId)> = Vec::new(); // (first key, page)
        let chunks: Vec<&[(Key, [u8; V])]> = entries.chunks(leaf_cap).collect();
        let mut ids: Vec<PageId> = Vec::with_capacity(chunks.len());
        for _ in &chunks {
            ids.push(store.allocate()?);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let node: Node<V> = Node::Leaf {
                keys: chunk.iter().map(|e| e.0).collect(),
                vals: chunk.iter().map(|e| e.1).collect(),
                next: ids.get(i + 1).copied(),
            };
            store.write(ids[i], &node.serialize())?;
            level.push((chunk[0].0, ids[i]));
        }
        // Build internal levels until a single root remains.
        let mut height = 0;
        let internal_fanout = Node::<V>::internal_capacity() + 1;
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for group in level.chunks(internal_fanout) {
                let id = store.allocate()?;
                let keys: Vec<Key> = group[1..].iter().map(|e| e.0).collect();
                let children: Vec<PageId> = group.iter().map(|e| e.1).collect();
                let node: Node<V> = Node::Internal { keys, children };
                store.write(id, &node.serialize())?;
                next_level.push((group[0].0, id));
            }
            level = next_level;
            height += 1;
        }
        Ok(Self { store, root: level[0].1, height, len: entries.len() as u64 })
    }
}

/// A leaf's keys, values and right sibling.
type LeafView<'n, const V: usize> = (&'n [Key], &'n [[u8; V]], Option<PageId>);

/// A read session over one tree: a cursor that keeps its root-to-leaf
/// path. Per depth it remembers the last node it read, verified and
/// parsed, and reads a level again only when the page it needs there is a
/// different one — so lookups in key order (Algorithms 4/5 visit
/// candidates in tweet-id order, the primary tree's key order) descend
/// the tree once, not once per key.
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
    path: Vec<(PageId, Node<V>)>,
}

impl<S: PageStore, const V: usize> TreeReader<'_, S, V> {
    /// The node `id` at `depth`: the remembered one when it is the same
    /// page, otherwise read from the store and remembered in its place.
    fn node(&mut self, depth: usize, id: PageId) -> StorageResult<&Node<V>> {
        if self.path.get(depth).map(|(held, _)| *held) != Some(id) {
            let node = self.tree.load(id)?;
            self.path.truncate(depth);
            self.path.push((id, node));
        }
        Ok(&self.path[depth].1)
    }

    /// Descends to the leaf whose key range covers `key`; returns its
    /// depth and page id.
    fn seek(&mut self, key: Key) -> StorageResult<(usize, PageId)> {
        let (mut depth, mut id) = (0, self.tree.root);
        while let Node::Internal { keys, children } = self.node(depth, id)? {
            id = children[upper_bound(keys, key)];
            depth += 1;
        }
        Ok((depth, id))
    }

    /// The leaf `id` at `depth`; a non-leaf there is a corrupt tree.
    fn leaf(&mut self, depth: usize, id: PageId) -> StorageResult<LeafView<'_, V>> {
        match self.node(depth, id)? {
            Node::Leaf { keys, vals, next } => Ok((keys, vals, *next)),
            Node::Internal { .. } => Err(StorageError::CorruptNode {
                page_id: id,
                detail: "leaf chain reaches an internal node".to_string(),
            }),
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: Key) -> StorageResult<Option<[u8; V]>> {
        let (depth, id) = self.seek(key)?;
        let (keys, vals, _) = self.leaf(depth, id)?;
        Ok(keys.binary_search(&key).ok().map(|i| vals[i]))
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
            let (keys, vals, next) = self.leaf(depth, id)?;
            for (k, v) in keys.iter().zip(vals) {
                if *k > hi {
                    return Ok(out);
                }
                if *k >= lo {
                    out.push((*k, *v));
                }
            }
            match next {
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
