//! Buffer pool: a lock-striped LRU page cache between B⁺-trees and
//! physical storage.
//!
//! The pool implements [`PageStore`] itself, so a tree stacks on top of it
//! transparently. Hits are served from memory (counted as `cache_hits`, no
//! physical read); misses fall through to the inner store (which counts the
//! physical read) and are counted as `cache_misses`. Writes are
//! write-through: the inner store always sees them, keeping it crash-simple.
//!
//! All operations take `&self`. The cache is striped into up to 16 shards,
//! each its own `Mutex<HashMap>`, with pages routed by `page_id % shards`:
//! concurrent readers on different shards never contend, which is what lets
//! the query engine fan work out across threads over one shared pool.
//! Eviction is LRU *per shard* (a stamp from one global atomic clock) — an
//! approximation of global LRU that keeps the hot-path lock local.
//!
//! Section VI-B1 runs the paper's experiments with "database caches … set
//! off in order to get fair evaluation results"; a pool with `capacity = 0`
//! reproduces that configuration: every read is counted as a miss and
//! passed straight to the inner store, taking no lock and copying no page,
//! and so is every write.

use crate::error::StorageResult;
use crate::iostats::IoStats;
use crate::page::{Page, PageId};
use crate::pager::PageStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Most shards the cache is split into; the effective per-shard capacity
/// is `capacity / shards` (so tiny pools still evict correctly).
const MAX_SHARDS: usize = 16;

/// LRU write-through buffer pool over an inner [`PageStore`].
pub struct BufferPool<S: PageStore> {
    inner: S,
    /// Per-shard page budget (`capacity / shards.len()`).
    shard_capacity: usize,
    shards: Vec<Mutex<HashMap<PageId, (Page, u64)>>>,
    tick: AtomicU64,
    stats: IoStats,
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `inner` with an LRU cache of `capacity` pages. Capacity 0
    /// disables caching (every access is physical). Capacities above the
    /// shard count are rounded down to a multiple of the shard count.
    pub fn new(inner: S, capacity: usize) -> Self {
        let stats = inner.stats().clone();
        let num_shards = capacity.clamp(1, MAX_SHARDS);
        let shard_capacity = capacity / num_shards;
        let shards =
            (0..num_shards).map(|_| Mutex::new(HashMap::with_capacity(shard_capacity))).collect();
        Self { inner, shard_capacity, shards, tick: AtomicU64::new(0), stats }
    }

    /// Current number of cached pages (across all shards).
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn shard(&self, id: PageId) -> &Mutex<HashMap<PageId, (Page, u64)>> {
        &self.shards[(id.0 % self.shards.len() as u64) as usize]
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Inserts into an already-locked shard, evicting that shard's
    /// least-recently-stamped page if it is at budget. Callers have
    /// already taken the capacity-0 fast path.
    fn cache_put_locked(&self, shard: &mut HashMap<PageId, (Page, u64)>, id: PageId, page: Page) {
        let stamp = self.touch();
        if let std::collections::hash_map::Entry::Occupied(mut e) = shard.entry(id) {
            e.insert((page, stamp));
            return;
        }
        if shard.len() >= self.shard_capacity {
            if let Some((&victim, _)) = shard.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                shard.remove(&victim);
            }
        }
        shard.insert(id, (page, stamp));
    }
}

impl<S: PageStore> PageStore for BufferPool<S> {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        if self.shard_capacity == 0 {
            // Caches off: there is nothing to look up or fill, so readers
            // take no lock and copy no page — they must not serialise on a
            // mutex that protects an always-empty map.
            self.stats.record_miss();
            return self.inner.read(id);
        }
        let mut shard = self.shard(id).lock();
        if let Some((page, s)) = shard.get_mut(&id) {
            *s = self.touch();
            self.stats.record_hit();
            return Ok(page.clone());
        }
        self.stats.record_miss();
        // The shard lock is held across the physical read: a concurrent
        // reader of the same page waits instead of duplicating the I/O,
        // and readers of other shards are unaffected. A failed read is not
        // cached — a later retry goes back to the inner store.
        let page = self.inner.read(id)?;
        self.cache_put_locked(&mut shard, id, page.clone());
        Ok(page)
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        // Write-through: if the inner store rejects the write, the cache is
        // left untouched so it never serves pages the store does not hold.
        self.inner.write(id, page)?;
        if self.shard_capacity == 0 {
            // Caches off: same fast path as `read` — no lock, no copy of a
            // page that would be discarded.
            return Ok(());
        }
        let mut shard = self.shard(id).lock();
        self.cache_put_locked(&mut shard, id, page.clone());
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::page::zeroed_page;
    use crate::pager::MemPager;

    fn marked_page(b: u8) -> Page {
        let mut p = zeroed_page();
        p[0] = b;
        p
    }

    #[test]
    fn hits_avoid_physical_reads() {
        let pool = BufferPool::new(MemPager::new(), 4);
        let a = pool.allocate().unwrap();
        pool.write(a, &marked_page(7)).unwrap();
        let r1 = pool.read(a).unwrap();
        let r2 = pool.read(a).unwrap();
        assert_eq!(r1[0], 7);
        assert_eq!(r2[0], 7);
        // Write populated the cache, so both reads hit.
        assert_eq!(pool.stats().cache_hits(), 2);
        assert_eq!(pool.stats().page_reads(), 0);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let pool = BufferPool::new(MemPager::new(), 0);
        let a = pool.allocate().unwrap();
        pool.write(a, &marked_page(1)).unwrap();
        pool.read(a).unwrap();
        pool.read(a).unwrap();
        assert_eq!(pool.stats().cache_hits(), 0);
        assert_eq!(pool.stats().cache_misses(), 2);
        assert_eq!(pool.stats().page_reads(), 2);
        assert_eq!(pool.cached_pages(), 0);
    }

    /// A store whose first `read` or `write` after `first` is armed parks
    /// until released.
    struct GatedStore {
        inner: MemPager,
        first: std::sync::atomic::AtomicBool,
        entered: std::sync::mpsc::Sender<()>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl GatedStore {
        /// An unarmed gate plus the test's ends of its two channels.
        fn new() -> (Self, std::sync::mpsc::Receiver<()>, std::sync::mpsc::Sender<()>) {
            let (entered_tx, entered_rx) = std::sync::mpsc::channel();
            let (release_tx, release_rx) = std::sync::mpsc::channel();
            let store = Self {
                inner: MemPager::new(),
                first: std::sync::atomic::AtomicBool::new(false),
                entered: entered_tx,
                release: Mutex::new(release_rx),
            };
            (store, entered_rx, release_tx)
        }

        fn park_if_first(&self) {
            if self.first.swap(false, Ordering::SeqCst) {
                self.entered.send(()).unwrap();
                self.release.lock().recv().unwrap();
            }
        }
    }

    impl PageStore for GatedStore {
        fn allocate(&self) -> StorageResult<PageId> {
            self.inner.allocate()
        }
        fn read(&self, id: PageId) -> StorageResult<Page> {
            self.park_if_first();
            self.inner.read(id)
        }
        fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
            self.park_if_first();
            self.inner.write(id, page)
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn stats(&self) -> &IoStats {
            self.inner.stats()
        }
    }

    #[test]
    fn capacity_zero_readers_do_not_serialise() {
        use std::sync::mpsc::channel;
        let (store, entered_rx, release_tx) = GatedStore::new();
        let pool = BufferPool::new(store, 0);
        let a = pool.allocate().unwrap();
        pool.write(a, &marked_page(5)).unwrap();
        pool.inner().first.store(true, Ordering::SeqCst);
        let pool = &pool;
        std::thread::scope(|scope| {
            let parked = scope.spawn(move || pool.read(a).unwrap()[0]);
            entered_rx.recv().unwrap();
            // One reader is parked inside `inner.read`; a second read of
            // the same page must complete without waiting for it.
            let (done_tx, done_rx) = channel();
            let second = scope.spawn(move || done_tx.send(pool.read(a).unwrap()[0]).unwrap());
            let got = done_rx.recv_timeout(std::time::Duration::from_secs(10));
            release_tx.send(()).unwrap();
            assert_eq!(got, Ok(5), "second reader waited on the parked one");
            second.join().unwrap();
            assert_eq!(parked.join().unwrap(), 5);
        });
        assert_eq!(pool.stats().cache_misses(), 2);
        assert_eq!(pool.stats().cache_hits(), 0);
    }

    #[test]
    fn capacity_zero_writers_do_not_serialise() {
        use std::sync::mpsc::channel;
        let (store, entered_rx, release_tx) = GatedStore::new();
        let pool = BufferPool::new(store, 0);
        let a = pool.allocate().unwrap();
        pool.inner().first.store(true, Ordering::SeqCst);
        let pool = &pool;
        std::thread::scope(|scope| {
            let parked = scope.spawn(move || pool.write(a, &marked_page(1)).unwrap());
            entered_rx.recv().unwrap();
            // One writer is parked inside `inner.write`; a second write of
            // the same page id must complete without waiting for it.
            let (done_tx, done_rx) = channel();
            let second = scope.spawn(move || {
                pool.write(a, &marked_page(2)).unwrap();
                done_tx.send(()).unwrap();
            });
            let got = done_rx.recv_timeout(std::time::Duration::from_secs(10));
            release_tx.send(()).unwrap();
            assert_eq!(got, Ok(()), "second writer waited on the parked one");
            second.join().unwrap();
            parked.join().unwrap();
        });
        assert_eq!(pool.inner().stats().page_writes(), 2);
        assert_eq!(pool.cached_pages(), 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pool = BufferPool::new(MemPager::new(), 2);
        let ids: Vec<PageId> = (0..3).map(|_| pool.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.write(*id, &marked_page(i as u8)).unwrap();
        }
        // Cache holds the 2 most recently written: ids[1], ids[2].
        assert_eq!(pool.cached_pages(), 2);
        pool.stats().reset();
        pool.read(ids[1]).unwrap();
        pool.read(ids[2]).unwrap();
        assert_eq!(pool.stats().cache_hits(), 2);
        // ids[0] was evicted -> miss.
        pool.read(ids[0]).unwrap();
        assert_eq!(pool.stats().cache_misses(), 1);
        assert_eq!(pool.stats().page_reads(), 1);
    }

    #[test]
    fn writes_are_write_through() {
        let pool = BufferPool::new(MemPager::new(), 2);
        let a = pool.allocate().unwrap();
        pool.write(a, &marked_page(9)).unwrap();
        // Inner store sees the write immediately.
        assert_eq!(pool.inner().stats().page_writes(), 1);
    }

    #[test]
    fn failed_reads_are_not_cached() {
        let pool = BufferPool::new(MemPager::new(), 4);
        assert!(pool.read(PageId(9)).is_err());
        assert_eq!(pool.cached_pages(), 0);
    }

    #[test]
    fn tree_over_pool_reduces_reads() {
        use crate::bptree::BPlusTree;
        let cached = {
            let pool = BufferPool::new(MemPager::new(), 256);
            let entries: Vec<_> = (0..2000u64).map(|k| ((k, 0), k.to_le_bytes())).collect();
            let t: BPlusTree<_, 8> = BPlusTree::bulk_load(pool, &entries).unwrap();
            t.store().stats().reset();
            for k in 0..2000u64 {
                t.get((k, 0)).unwrap();
            }
            t.store().stats().page_reads()
        };
        let uncached = {
            let pool = BufferPool::new(MemPager::new(), 0);
            let entries: Vec<_> = (0..2000u64).map(|k| ((k, 0), k.to_le_bytes())).collect();
            let t: BPlusTree<_, 8> = BPlusTree::bulk_load(pool, &entries).unwrap();
            t.store().stats().reset();
            for k in 0..2000u64 {
                t.get((k, 0)).unwrap();
            }
            t.store().stats().page_reads()
        };
        assert!(cached * 2 < uncached, "cached={cached} uncached={uncached}");
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let pool = BufferPool::new(MemPager::new(), 8);
        let ids: Vec<PageId> = (0..32).map(|_| pool.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            pool.write(*id, &marked_page(i as u8)).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ids = &ids;
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..100 {
                        let i = (t * 7 + round * 13) % ids.len();
                        assert_eq!(pool.read(ids[i]).unwrap()[0], i as u8);
                    }
                });
            }
        });
        // Cache never exceeds its budget.
        assert!(pool.cached_pages() <= 8, "cached={}", pool.cached_pages());
    }
}
