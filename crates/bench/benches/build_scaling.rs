//! Ablation: MapReduce index-build scaling with worker/node count, and
//! the distributed build vs the centralized baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tklus_bench::{standard_corpus, Flags};
use tklus_index::{baseline::build_centralized, build_index, IndexBuildConfig};

fn bench_build_scaling(c: &mut Criterion) {
    let corpus = standard_corpus(&Flags { posts: 10_000, seed: 0x7B1D5, queries: 1 });
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for &nodes in &[1usize, 2, 3, 4] {
        let config = IndexBuildConfig { geohash_len: 4, nodes, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("mapreduce", nodes), &config, |b, config| {
            b.iter(|| build_index(corpus.posts(), config))
        });
    }
    group.bench_function("centralized", |b| {
        b.iter(|| build_centralized(corpus.posts(), 4, 64 * 1024))
    });
    group.finish();
}

criterion_group!(benches, bench_build_scaling);
criterion_main!(benches);
