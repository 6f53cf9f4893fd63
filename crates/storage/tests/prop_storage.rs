//! Property-based tests: a bulk-loaded B⁺-tree agrees with a BTreeMap
//! model, and the checksummed page format round-trips / detects
//! corruption.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tklus_storage::{
    crc32, seal_page, verify_page, BPlusTree, CheckedPager, FaultConfig, FaultHandle, FaultPager,
    MemPager, PageId, PageStore, StorageError, PAGE_HEADER_SIZE, PAGE_SIZE,
};

type Key = (u64, u64);

/// CRC-32 (IEEE 802.3, reflected) straight from the polynomial, one bit at
/// a time: no table, so it shares nothing with the product kernel.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_load_equals_model(mut keys in proptest::collection::btree_set((0u64..10_000, 0u64..4), 0..800)) {
        let entries: Vec<(Key, [u8; 8])> = keys
            .iter()
            .map(|&k| (k, (k.0 * 10 + k.1).to_le_bytes()))
            .collect();
        let tree: BPlusTree<_, 8> = BPlusTree::bulk_load(MemPager::new(), &entries).unwrap();
        prop_assert_eq!(tree.len(), entries.len() as u64);
        // Full scan returns everything in order.
        let all = tree.scan((0, 0), (u64::MAX, u64::MAX)).unwrap();
        prop_assert_eq!(all.len(), entries.len());
        for ((k, v), (ek, ev)) in all.iter().zip(&entries) {
            prop_assert_eq!(k, ek);
            prop_assert_eq!(v, ev);
        }
        // Spot lookups.
        if let Some(first) = keys.pop_first() {
            prop_assert!(tree.get(first).unwrap().is_some());
        }
        prop_assert_eq!(tree.get((u64::MAX, u64::MAX)).unwrap(), None);
    }

    #[test]
    fn scan_major_is_group_lookup(pairs in proptest::collection::btree_set((0u64..20, 0u64..50), 0..300)) {
        let entries: Vec<(Key, [u8; 0])> = pairs.iter().map(|&k| (k, [])).collect();
        let tree: BPlusTree<_, 0> = BPlusTree::bulk_load(MemPager::new(), &entries).unwrap();
        for major in 0u64..20 {
            let got: Vec<Key> = tree.scan_major(major).unwrap().into_iter().map(|(k, _)| k).collect();
            let want: Vec<Key> = pairs.iter().copied().filter(|k| k.0 == major).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Checksum round-trip: any payload seals and verifies; flipping any
    /// single bit anywhere in the sealed page is detected as a typed error.
    #[test]
    fn checksum_roundtrip_and_single_bit_detection(
        payload in proptest::collection::vec(any::<u8>(), 64),
        offsets in proptest::collection::vec(0usize..PAGE_SIZE, 8),
        bit in 0u8..8,
    ) {
        let mut page = [0u8; PAGE_SIZE];
        // Scatter the payload across the payload area deterministically.
        for (i, b) in payload.iter().enumerate() {
            let pos = PAGE_HEADER_SIZE + (i * 61) % (PAGE_SIZE - PAGE_HEADER_SIZE);
            page[pos] = *b;
        }
        seal_page(&mut page);
        prop_assert!(verify_page(&page, PageId(0)).is_ok());
        for &off in &offsets {
            let mut bad = page;
            bad[off] ^= 1 << bit;
            let verdict = verify_page(&bad, PageId(3));
            prop_assert!(
                matches!(
                    verdict,
                    Err(StorageError::PageCorrupt { .. }) | Err(StorageError::BadPageHeader { .. })
                ),
                "flip at byte {} bit {} escaped detection", off, bit
            );
        }
    }

    /// The table kernel is the bit-at-a-time definition of CRC-32: every
    /// length up to two pages and every start offset within an 8-byte
    /// step (so both the sliced body and the bytewise tail are hit at each
    /// alignment).
    #[test]
    fn crc32_equals_bitwise_reference(bytes in proptest::collection::vec(any::<u8>(), 0..=9_000)) {
        for start in 0..8.min(bytes.len() + 1) {
            prop_assert_eq!(crc32(&bytes[start..]), crc32_bitwise(&bytes[start..]), "start {}", start);
        }
    }

    /// The checked pager round-trips arbitrary payloads bit-for-bit.
    #[test]
    fn checked_pager_roundtrip(payload in proptest::collection::vec(any::<u8>(), 1..256)) {
        let store = CheckedPager::new(MemPager::new());
        let id = store.allocate().unwrap();
        let mut page = tklus_storage::page::zeroed_page();
        std::sync::Arc::make_mut(&mut page)[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + payload.len()]
            .copy_from_slice(&payload);
        store.write(id, page).unwrap();
        let got = store.read(id).unwrap();
        prop_assert_eq!(&got[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + payload.len()], &payload[..]);
    }
}

// ---- TreeReader ≡ one-shot lookups -------------------------------------

/// A read through either surface: the reader under test or the one-shot
/// tree methods.
#[derive(Debug, Clone)]
enum Read {
    Get(Key),
    Scan(Key, Key),
    ScanMajor(u64),
}

/// Keys `(major, minor)` with `major < MAJORS`: enough of them span many
/// leaves (72 entries per leaf at `V = 40`, 254 at `V = 0`).
const MAJORS: u64 = 600;

fn arb_read() -> impl Strategy<Value = Read> {
    let key = || (0u64..MAJORS + 10, 0u64..6);
    prop_oneof![
        key().prop_map(Read::Get),
        (key(), 0u64..40, 0u64..6)
            .prop_map(|(lo, span, minor)| Read::Scan(lo, (lo.0 + span, minor))),
        (0u64..MAJORS + 10).prop_map(Read::ScanMajor),
    ]
}

/// What a read returns, over either surface.
type Answer = Result<Vec<(Key, Vec<u8>)>, StorageError>;

/// The `V`-byte value the trees store for model value `x`: its
/// little-endian bytes, repeated (none at all when `V = 0`).
fn widen<const V: usize>(x: u64) -> [u8; V] {
    std::array::from_fn(|i| x.to_le_bytes()[i % 8])
}

fn rows<const V: usize>(found: Vec<(Key, [u8; V])>) -> Vec<(Key, Vec<u8>)> {
    found.into_iter().map(|(k, v)| (k, v.to_vec())).collect()
}

fn one_shot<S: PageStore, const V: usize>(tree: &BPlusTree<S, V>, read: &Read) -> Answer {
    match *read {
        Read::Get(k) => Ok(tree.get(k)?.map(|v| (k, v.to_vec())).into_iter().collect()),
        Read::Scan(lo, hi) => tree.scan(lo, hi).map(rows),
        Read::ScanMajor(m) => tree.scan_major(m).map(rows),
    }
}

fn through<S: PageStore, const V: usize>(
    reader: &mut tklus_storage::TreeReader<'_, S, V>,
    read: &Read,
) -> Answer {
    match *read {
        Read::Get(k) => Ok(reader.get(k)?.map(|v| (k, v.to_vec())).into_iter().collect()),
        Read::Scan(lo, hi) => reader.scan(lo, hi).map(rows),
        Read::ScanMajor(m) => reader.scan_major(m).map(rows),
    }
}

fn model_answer<const V: usize>(model: &BTreeMap<Key, u64>, read: &Read) -> Vec<(Key, Vec<u8>)> {
    let (lo, hi) = match *read {
        Read::Get(k) => (k, k),
        Read::Scan(lo, hi) => (lo, hi),
        Read::ScanMajor(m) => ((m, 0), (m, u64::MAX)),
    };
    if lo > hi {
        return Vec::new();
    }
    model.range(lo..=hi).map(|(k, v)| (*k, widen::<V>(*v).to_vec())).collect()
}

/// A multi-leaf tree over `store` and its model, bulk-loaded: the only
/// shape a tree has.
fn build_tree<S: PageStore, const V: usize>(
    store: S,
    seed: u64,
) -> (BPlusTree<S, V>, BTreeMap<Key, u64>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut model: BTreeMap<Key, u64> = BTreeMap::new();
    for _ in 0..2_500 {
        model.insert((rng.gen_range(0..MAJORS), rng.gen_range(0u64..6)), rng.gen());
    }
    let entries: Vec<(Key, [u8; V])> = model.iter().map(|(k, v)| (*k, widen(*v))).collect();
    (BPlusTree::bulk_load(store, &entries).unwrap(), model)
}

/// [`reader_equals_one_shot`] for one value width.
fn reader_equals_one_shot_at<const V: usize>(
    seed: u64,
    reads: &[Read],
) -> Result<(), TestCaseError> {
    let (tree, model) = build_tree::<_, V>(MemPager::new(), seed);
    let io = tree.store().stats().clone();
    io.reset();
    let want: Vec<Answer> = reads.iter().map(|r| one_shot(&tree, r)).collect();
    let one_shot_reads = io.page_reads();
    io.reset();
    let mut reader = tree.reader();
    for (read, want) in reads.iter().zip(&want) {
        let got = through(&mut reader, read);
        prop_assert_eq!(got.as_ref().ok(), want.as_ref().ok(), "V = {}: {:?}", V, read);
        prop_assert_eq!(got.ok(), Some(model_answer::<V>(&model, read)), "V = {}: {:?}", V, read);
    }
    prop_assert!(
        io.page_reads() <= one_shot_reads,
        "V = {}: {} > {}",
        V,
        io.page_reads(),
        one_shot_reads
    );
    Ok(())
}

/// [`ascending_sweep_reads_each_page_once`] for one value width.
fn ascending_sweep_at<const V: usize>(
    seed: u64,
    keys: &BTreeSet<Key>,
) -> Result<(), TestCaseError> {
    let store = RecordingPager { inner: MemPager::new(), log: std::sync::Mutex::new(Vec::new()) };
    let (tree, _) = build_tree::<_, V>(store, seed);
    let levels = tree.height() + 1;
    let take_log = || std::mem::take(&mut *tree.store().log.lock().unwrap());
    take_log();
    for &k in keys {
        tree.get(k).unwrap();
    }
    // One-shot lookups read one root-to-leaf path per key.
    let paths = take_log();
    prop_assert_eq!(paths.len(), keys.len() * levels, "V = {}", V);
    let changes: usize = paths
        .chunks(levels)
        .zip(paths.chunks(levels).skip(1))
        .map(|(prev, next)| prev.iter().zip(next).filter(|(a, b)| a != b).count())
        .sum();
    let mut reader = tree.reader();
    for &k in keys {
        reader.get(k).unwrap();
    }
    let mut read = take_log();
    prop_assert_eq!(read.len(), levels + changes, "V = {}", V);
    read.sort();
    read.dedup();
    prop_assert_eq!(read.len(), levels + changes, "V = {}: a page was read twice", V);
    Ok(())
}

/// A store that logs the id of every page read (to count what a reader
/// physically re-reads, page by page).
struct RecordingPager {
    inner: MemPager,
    log: std::sync::Mutex<Vec<PageId>>,
}

impl PageStore for RecordingPager {
    fn allocate(&self) -> Result<PageId, StorageError> {
        self.inner.allocate()
    }
    fn read(&self, id: PageId) -> Result<tklus_storage::page::Page, StorageError> {
        self.log.lock().unwrap().push(id);
        self.inner.read(id)
    }
    fn write(&self, id: PageId, page: tklus_storage::page::Page) -> Result<(), StorageError> {
        self.inner.write(id, page)
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn stats(&self) -> &tklus_storage::IoStats {
        self.inner.stats()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of reads, in any key order, through *one* reader
    /// answers exactly like the one-shot calls — and never reads more
    /// pages than they do. Run at each value width the metadata database
    /// stores (0: the reply index, 16: `P_u`, 40: rows) and at 8: the
    /// reader finds keys and values at offsets that depend on it.
    #[test]
    fn reader_equals_one_shot(
        seed in any::<u64>(),
        reads in proptest::collection::vec(arb_read(), 1..120),
    ) {
        reader_equals_one_shot_at::<0>(seed, &reads)?;
        reader_equals_one_shot_at::<8>(seed, &reads)?;
        reader_equals_one_shot_at::<16>(seed, &reads)?;
        reader_equals_one_shot_at::<40>(seed, &reads)?;
    }

    /// An ascending sweep of point lookups descends the tree once: the
    /// reader reads `height + 1` pages for the first key and afterwards
    /// exactly one page per change of leaf (or of an internal node above
    /// it) — every page at most once. At each value width, as above.
    #[test]
    fn ascending_sweep_reads_each_page_once(
        seed in any::<u64>(),
        keys in proptest::collection::btree_set((0u64..MAJORS + 10, 0u64..6), 1..300),
    ) {
        ascending_sweep_at::<0>(seed, &keys)?;
        ascending_sweep_at::<8>(seed, &keys)?;
        ascending_sweep_at::<16>(seed, &keys)?;
        ascending_sweep_at::<40>(seed, &keys)?;
    }

    /// Transient read faults under a live reader: the failing call returns
    /// the typed error, remembers nothing of the failed read, and the same
    /// call repeated on the same reader answers correctly.
    #[test]
    fn reader_survives_transient_read_faults(
        seed in any::<u64>(),
        reads in proptest::collection::vec(arb_read(), 40..100),
    ) {
        let handle = FaultHandle::new();
        let cfg = FaultConfig { seed, transient_read_ppm: 500_000, ..FaultConfig::default() };
        let store = FaultPager::with_handle(MemPager::new(), cfg, std::sync::Arc::clone(&handle));
        let (tree, model) = build_tree::<_, 8>(store, seed);
        let mut reader = tree.reader();
        let mut failed = 0usize;
        for read in &reads {
            handle.arm(true);
            let first = through(&mut reader, read);
            handle.arm(false);
            let answer = match first {
                Ok(answer) => answer,
                Err(e) => {
                    prop_assert!(e.is_transient(), "{:?}: {}", read, e);
                    failed += 1;
                    through(&mut reader, read).unwrap()
                }
            };
            prop_assert_eq!(answer, model_answer::<8>(&model, read), "{:?}", read);
        }
        prop_assert_eq!(failed as u64, handle.transient_injected());
        prop_assert!(failed > 0, "no read ever faulted — vacuous case");
    }
}
