//! Page stores: the physical layer under B⁺-trees.
//!
//! [`MemPager`] implements the [`PageStore`] trait by keeping pages in
//! memory (deterministic, fast: *counted* I/Os rather than real disk
//! latency drive the results, matching how the paper reasons about costs),
//! counting physical reads and writes through an [`IoStats`]. A write
//! keeps the writer's [`Page`] and a read hands the same page out, shared:
//! neither copies it, and a page a reader holds never changes under it.
//!
//! All operations take `&self`: stores use interior mutability so that a
//! read-only query path can run concurrently from many threads over one
//! shared store (the engine's `&self` query API bottoms out here).
//!
//! Every operation that can fail returns a [`StorageError`] instead of
//! panicking: an unallocated page id, a short read, or a failed syscall is
//! reported to the caller, which decides whether to retry, surface the
//! fault, or degrade.

use crate::error::{StorageError, StorageResult};
use crate::iostats::IoStats;
use crate::page::{zeroed_page, Page, PageId};
use parking_lot::RwLock;
use std::sync::Arc;

/// A store of fixed-size pages addressed by [`PageId`].
///
/// Methods take `&self`; implementations must be safe to call from many
/// threads at once (hence the `Send + Sync` bound).
pub trait PageStore: Send + Sync {
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> StorageResult<PageId>;
    /// Reads a page: the stored bytes, shared. Fails with
    /// [`StorageError::UnallocatedPage`] if the id was never allocated.
    fn read(&self, id: PageId) -> StorageResult<Page>;
    /// Writes a page. The store keeps `page` itself; a layer that changes
    /// the bytes on the way down changes them in place when it holds the
    /// only reference, and copies the page first otherwise.
    fn write(&self, id: PageId, page: Page) -> StorageResult<()>;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// The store's I/O counters.
    fn stats(&self) -> &IoStats;
}

/// Boxed stores forward to their contents, so stacks can be assembled
/// dynamically (e.g. a fault-injection pager slotted under the metadata
/// database in chaos tests).
impl PageStore for Box<dyn PageStore> {
    fn allocate(&self) -> StorageResult<PageId> {
        (**self).allocate()
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        (**self).read(id)
    }

    fn write(&self, id: PageId, page: Page) -> StorageResult<()> {
        (**self).write(id, page)
    }

    fn page_count(&self) -> u64 {
        (**self).page_count()
    }

    fn stats(&self) -> &IoStats {
        (**self).stats()
    }
}

/// In-memory page store.
#[derive(Debug)]
pub struct MemPager {
    /// Readers take the shared lock and clone a page's `Arc`; `allocate`
    /// (growth) and page writes take the exclusive lock. A write installs
    /// the written `Arc` in place of the old one, so pages already handed
    /// out keep their bytes.
    pages: RwLock<Vec<Page>>,
    stats: IoStats,
}

impl MemPager {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::with_stats(IoStats::new())
    }

    /// Creates a store sharing the given counters.
    pub fn with_stats(stats: IoStats) -> Self {
        Self { pages: RwLock::new(Vec::new()), stats }
    }
}

impl Default for MemPager {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for MemPager {
    /// A fresh page is the shared zero page: nothing is allocated until
    /// the page is written.
    fn allocate(&self) -> StorageResult<PageId> {
        let mut pages = self.pages.write();
        let id = PageId(pages.len() as u64);
        pages.push(zeroed_page());
        Ok(id)
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        let pages = self.pages.read();
        let page = pages
            .get(id.0 as usize)
            .ok_or(StorageError::UnallocatedPage { page_id: id, page_count: pages.len() as u64 })?;
        self.stats.record_read();
        Ok(Arc::clone(page))
    }

    fn write(&self, id: PageId, page: Page) -> StorageResult<()> {
        let mut pages = self.pages.write();
        let count = pages.len() as u64;
        let slot = pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::UnallocatedPage { page_id: id, page_count: count })?;
        self.stats.record_write();
        *slot = page;
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages.read().len() as u64
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::page::PAGE_SIZE;

    /// A page with `bytes` set at their offsets.
    fn page_with(bytes: &[(usize, u8)]) -> Page {
        let mut page = zeroed_page();
        for &(at, b) in bytes {
            Arc::make_mut(&mut page)[at] = b;
        }
        page
    }

    fn roundtrip(store: &dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        let page = page_with(&[(0, 0xAB), (PAGE_SIZE - 1, 0xCD)]);
        store.write(a, page.clone()).unwrap();
        let got = store.read(a).unwrap();
        assert_eq!(got[0], 0xAB);
        assert_eq!(got[PAGE_SIZE - 1], 0xCD);
        // b still zeroed.
        assert!(store.read(b).unwrap().iter().all(|&x| x == 0));
        assert_eq!(store.page_count(), 2);
    }

    #[test]
    fn mem_pager_roundtrip() {
        let p = MemPager::new();
        roundtrip(&p);
        assert_eq!(p.stats().page_reads(), 2);
        assert_eq!(p.stats().page_writes(), 1);
    }

    #[test]
    fn a_writer_changing_its_page_leaves_the_store_alone() {
        let p = MemPager::new();
        let a = p.allocate().unwrap();
        let mut page = page_with(&[(3, 1)]);
        p.write(a, page.clone()).unwrap();
        Arc::make_mut(&mut page)[3] = 2;
        assert_eq!(p.read(a).unwrap()[3], 1, "the store keeps the bytes it was given");
        assert!(zeroed_page().iter().all(|&b| b == 0), "the shared zero page stays zero");
    }

    #[test]
    fn unallocated_access_is_a_typed_error() {
        let m = MemPager::new();
        assert!(matches!(m.read(PageId(0)), Err(StorageError::UnallocatedPage { .. })));
        assert!(matches!(
            m.write(PageId(0), zeroed_page()),
            Err(StorageError::UnallocatedPage { .. })
        ));
    }

    #[test]
    fn boxed_store_forwards() {
        let boxed: Box<dyn PageStore> = Box::new(MemPager::new());
        let a = boxed.allocate().unwrap();
        boxed.write(a, page_with(&[(1, 0x11)])).unwrap();
        assert_eq!(boxed.read(a).unwrap()[1], 0x11);
        assert_eq!(boxed.page_count(), 1);
    }

    #[test]
    fn mem_pager_concurrent_reads_and_allocates() {
        let p = MemPager::new();
        let a = p.allocate().unwrap();
        p.write(a, page_with(&[(7, 0x77)])).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        assert_eq!(p.read(a).unwrap()[7], 0x77);
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..50 {
                    p.allocate().unwrap();
                }
            });
        });
        assert_eq!(p.page_count(), 51);
    }
}
