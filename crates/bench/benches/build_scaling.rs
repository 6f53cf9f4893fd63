//! Ablation: Fig. 5's MapReduce index build against its node count, and
//! the product's build (one sort on one thread) beside it as "centralized".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tklus_bench::{mapreduce::run_job, standard_corpus, Flags};
use tklus_index::{build_index, IndexBuildConfig};

fn bench_build_scaling(c: &mut Criterion) {
    let corpus = standard_corpus(&Flags { posts: 10_000, seed: 0x7B1D5, queries: 1 });
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for &nodes in &[1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("mapreduce", nodes), &nodes, |b, &nodes| {
            b.iter(|| run_job(corpus.posts(), 4, nodes))
        });
    }
    let config = IndexBuildConfig::default();
    group.bench_function("centralized", |b| b.iter(|| build_index(corpus.posts(), &config)));
    group.finish();
}

criterion_group!(benches, bench_build_scaling);
criterion_main!(benches);
