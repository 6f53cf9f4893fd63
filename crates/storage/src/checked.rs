//! Checksummed page store: seals every written page with the verified
//! header ([`crate::page::seal_page`]) and validates magic, format
//! version, reserved bytes, and CRC32 on every read — in place, on the
//! shared page the store below handed out, which is then passed up
//! uncopied.
//!
//! The layer sits *above* whatever physical (or fault-injecting) store
//! holds the bytes, so any corruption introduced below it — a torn write, a
//! flipped bit on the wire or at rest — surfaces as a typed
//! [`StorageError::PageCorrupt`] / [`StorageError::BadPageHeader`] instead
//! of silently feeding garbage to the B⁺-tree. Callers keep the page
//! payload area (bytes [`PAGE_HEADER_SIZE`]`..`) to themselves; the header
//! bytes are owned by this layer.

use crate::error::StorageResult;
use crate::iostats::IoStats;
use crate::page::{seal_page, verify_page, zeroed_page, Page, PageId};
use crate::pager::PageStore;
use std::sync::{Arc, OnceLock};

/// Page store adapter that checksums writes and verifies reads.
#[derive(Debug)]
pub struct CheckedPager<S: PageStore> {
    inner: S,
}

impl<S: PageStore> CheckedPager<S> {
    /// Wraps `inner`; all pages written through `self` are sealed, all
    /// pages read through `self` are verified.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: PageStore> PageStore for CheckedPager<S> {
    fn allocate(&self) -> StorageResult<PageId> {
        static SEALED_ZERO: OnceLock<Page> = OnceLock::new();
        let id = self.inner.allocate()?;
        // Physical stores hand out raw zero pages; seal immediately so a
        // read-before-first-write still verifies. Every fresh page is the
        // same sealed zero page.
        let sealed = SEALED_ZERO.get_or_init(|| {
            let mut page = zeroed_page();
            seal_page(Arc::make_mut(&mut page));
            page
        });
        self.inner.write(id, Arc::clone(sealed))?;
        Ok(id)
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        let page = self.inner.read(id)?;
        verify_page(&page, id)?;
        Ok(page)
    }

    /// Seals `page` and writes it: in place when the caller handed over
    /// its only reference (a bulk load does), on a copy otherwise.
    fn write(&self, id: PageId, mut page: Page) -> StorageResult<()> {
        seal_page(Arc::make_mut(&mut page));
        self.inner.write(id, page)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::error::StorageError;
    use crate::page::PAGE_HEADER_SIZE;
    use crate::pager::MemPager;

    #[test]
    fn roundtrip_verifies() {
        let store = CheckedPager::new(MemPager::new());
        let id = store.allocate().unwrap();
        // Fresh page readable right away (allocate seals it).
        assert!(store.read(id).unwrap()[PAGE_HEADER_SIZE..].iter().all(|&b| b == 0));
        let mut page = zeroed_page();
        Arc::make_mut(&mut page)[PAGE_HEADER_SIZE] = 0x42;
        store.write(id, page.clone()).unwrap();
        assert_eq!(store.read(id).unwrap()[PAGE_HEADER_SIZE], 0x42);
    }

    #[test]
    fn corruption_below_is_detected() {
        let store = CheckedPager::new(MemPager::new());
        let id = store.allocate().unwrap();
        let mut page = zeroed_page();
        Arc::make_mut(&mut page)[100] = 7;
        store.write(id, page.clone()).unwrap();
        // Flip a payload bit behind the checked layer's back.
        let mut raw = store.inner().read(id).unwrap();
        Arc::make_mut(&mut raw)[2048] ^= 0x10;
        store.inner().write(id, raw).unwrap();
        assert!(
            matches!(store.read(id), Err(StorageError::PageCorrupt { page_id, .. }) if page_id == id)
        );
    }

    #[test]
    fn header_tampering_is_detected() {
        let store = CheckedPager::new(MemPager::new());
        let id = store.allocate().unwrap();
        let mut raw = store.inner().read(id).unwrap();
        Arc::make_mut(&mut raw)[4] = 0xFF; // version byte
        store.inner().write(id, raw).unwrap();
        assert!(matches!(store.read(id), Err(StorageError::BadPageHeader { .. })));
    }

    #[test]
    fn a_read_page_keeps_its_bytes_across_a_rewrite() {
        let store = CheckedPager::new(MemPager::new());
        let id = store.allocate().unwrap();
        let mut page = zeroed_page();
        Arc::make_mut(&mut page)[PAGE_HEADER_SIZE] = 1;
        store.write(id, page.clone()).unwrap();
        let held = store.read(id).unwrap();
        Arc::make_mut(&mut page)[PAGE_HEADER_SIZE] = 2;
        store.write(id, page.clone()).unwrap();
        assert_eq!(held[PAGE_HEADER_SIZE], 1, "a held page is never written through");
        assert_eq!(store.read(id).unwrap()[PAGE_HEADER_SIZE], 2);
        verify_page(&held, id).unwrap();
    }

    #[test]
    fn write_does_not_mutate_caller_page() {
        let store = CheckedPager::new(MemPager::new());
        let id = store.allocate().unwrap();
        let page = zeroed_page();
        store.write(id, page.clone()).unwrap();
        assert!(page.iter().all(|&b| b == 0), "caller's buffer must stay untouched");
    }

    #[test]
    fn works_under_a_bptree() {
        use crate::bptree::BPlusTree;
        let entries: Vec<_> = (0..2000u64).map(|k| ((k, 0), k.to_le_bytes())).collect();
        let t: BPlusTree<_, 8> =
            BPlusTree::bulk_load(CheckedPager::new(MemPager::new()), &entries).unwrap();
        for k in (0..2000u64).step_by(17) {
            assert_eq!(t.get((k, 0)).unwrap(), Some(k.to_le_bytes()));
        }
    }
}
