//! Ablation: postings set operations (union with tf-summing vs
//! intersection) and encode/decode cost — the inner loop of lines 9–14 of
//! Algorithms 4/5.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tklus_index::posting::REFINEMENT_CHARS;
use tklus_index::{intersect_gallop, intersect_sum, union_sum, PostingsList};

fn make_list(n: usize, stride: u64, offset: u64) -> PostingsList {
    (0..n as u64).map(|i| (offset + i * stride, 1 + (i % 3) as u32)).collect()
}

fn bench_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_sum");
    for &n in &[100usize, 1_000, 10_000] {
        let lists = vec![make_list(n, 3, 0), make_list(n, 5, 1), make_list(n, 7, 2)];
        group.bench_with_input(BenchmarkId::from_parameter(n), &lists, |b, lists| {
            b.iter(|| union_sum(black_box(lists)))
        });
    }
    group.finish();
}

fn bench_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect_sum");
    for &n in &[100usize, 1_000, 10_000] {
        let groups = vec![
            union_sum(&[make_list(n, 2, 0)]),
            union_sum(&[make_list(n, 3, 0)]),
            union_sum(&[make_list(n / 10 + 1, 6, 0)]),
        ];
        group.bench_with_input(BenchmarkId::from_parameter(n), &groups, |b, groups| {
            b.iter(|| intersect_sum(black_box(groups)))
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let list = make_list(10_000, 2, 1_000_000);
    let refinement = REFINEMENT_CHARS;
    let bytes = list.encode(refinement);
    c.bench_function("postings_encode_10k", |b| b.iter(|| black_box(&list).encode(refinement)));
    c.bench_function("postings_decode_10k", |b| {
        b.iter(|| PostingsList::decode(black_box(&bytes), refinement).unwrap())
    });
}

fn bench_gallop_vs_merge(c: &mut Criterion) {
    // Asymmetric intersection: a rare qualifier against a hot keyword —
    // where galloping should beat the linear merge.
    let mut group = c.benchmark_group("intersect_asymmetric");
    let hot = union_sum(&[make_list(100_000, 2, 0)]);
    for &small_n in &[10usize, 100, 1_000] {
        let rare = union_sum(&[make_list(small_n, 1009, 0)]);
        group.bench_with_input(BenchmarkId::new("merge", small_n), &rare, |b, rare| {
            b.iter(|| intersect_sum(&[rare.clone(), hot.clone()]))
        });
        group.bench_with_input(BenchmarkId::new("gallop", small_n), &rare, |b, rare| {
            b.iter(|| intersect_gallop(black_box(rare), black_box(&hot)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_union, bench_intersect, bench_codec, bench_gallop_vs_merge);
criterion_main!(benches);
