//! Ablation: B⁺-tree bulk-load, point-get and range-scan cost over the
//! metadata database's stack (a checksumming pager over an in-memory one,
//! 40-byte rows like the primary tree's) — and what one checked page read
//! under them costs: the product `crc32` over a page's 4 084 covered bytes
//! beside its portable slicing-by-8 path and a bit-at-a-time reference,
//! the whole shared read (`checked_read`: the store's page, verified in
//! place) and the 4 KiB copy a read no longer makes (`page_copy`), all
//! timed in the same run (the ratios are the machine-independent
//! numbers).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use tklus_storage::{
    crc32, crc32_slicing_by_8, BPlusTree, CheckedPager, MemPager, PageStore, PAGE_SIZE,
};

/// The metadata database's value width for a row.
const ROW: usize = 40;

type Tree = BPlusTree<CheckedPager<MemPager>, ROW>;

fn entries(n: u64) -> Vec<((u64, u64), [u8; ROW])> {
    (0..n)
        .map(|k| {
            let mut row = [0u8; ROW];
            row[..8].copy_from_slice(&k.to_le_bytes());
            ((k, 0), row)
        })
        .collect()
}

fn pages() -> CheckedPager<MemPager> {
    CheckedPager::new(MemPager::new())
}

fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("bptree_load");
    group.sample_size(10);
    for &n in &[10_000u64, 50_000] {
        let data = entries(n);
        group.bench_with_input(BenchmarkId::new("bulk", n), &data, |b, data| {
            b.iter(|| Tree::bulk_load(pages(), black_box(data)).expect("bulk load"))
        });
    }
    group.finish();
}

fn bench_access(c: &mut Criterion) {
    let data = entries(100_000);
    let mut group = c.benchmark_group("bptree_access");
    let tree = Tree::bulk_load(pages(), &data).expect("bulk load");
    group.bench_function("get", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 9973) % 100_000;
            black_box(tree.get((k, 0)).expect("get"))
        })
    });
    group.bench_function("scan100", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 9973) % 99_900;
            black_box(tree.scan((k, 0), (k + 99, 0)).expect("scan"))
        })
    });
    group.finish();
}

/// CRC-32 (IEEE, reflected) one bit at a time: no table, nothing shared
/// with the product kernel.
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

fn bench_checked_page(c: &mut Criterion) {
    let covered: Vec<u8> = (0..4084u32).map(|i| (i * 7 + 3) as u8).collect();
    assert_eq!(crc32(&covered), crc32_bitwise(&covered));
    assert_eq!(crc32_slicing_by_8(&covered), crc32_bitwise(&covered));
    let mut group = c.benchmark_group("checked_page");
    group.bench_function("crc32_4084B", |b| b.iter(|| crc32(black_box(&covered))));
    group.bench_function("slicing_by_8_4084B", |b| {
        b.iter(|| crc32_slicing_by_8(black_box(&covered)))
    });
    group.bench_function("bitwise_reference_4084B", |b| {
        b.iter(|| crc32_bitwise(black_box(&covered)))
    });
    let store = CheckedPager::new(MemPager::new());
    let id = store.allocate().expect("allocate");
    let mut page = store.read(id).expect("fresh page");
    Arc::make_mut(&mut page)[16..].copy_from_slice(&covered[4..]);
    store.write(id, page.clone()).expect("write");
    group.bench_function("checked_read", |b| b.iter(|| store.read(black_box(id)).expect("read")));
    let owned: Box<[u8; PAGE_SIZE]> = Box::new(*page);
    group.bench_function("page_copy", |b| b.iter(|| black_box(&owned).clone()));
    group.finish();
}

criterion_group!(benches, bench_load, bench_access, bench_checked_page);
criterion_main!(benches);
