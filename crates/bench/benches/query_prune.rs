//! Ablation: the upper-bound prune of Algorithm 5 — Sum by Algorithm 4
//! (`try_query_algorithm4`: no pruning, every thread built) vs Algorithm 5
//! (`try_query_max`) with the global bound vs with hot-keyword bounds, on
//! the same queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tklus_bench::{build_engine, query_workload, standard_corpus, to_query, Flags};
use tklus_core::{BoundsMode, Ranking};
use tklus_model::Semantics;

fn bench_query_prune(c: &mut Criterion) {
    let flags = Flags { posts: 10_000, seed: 0x7B1D5, queries: 5 };
    let corpus = standard_corpus(&flags);
    let (engine, bounds) = build_engine(&corpus, 4);
    let specs: Vec<_> = query_workload(&corpus)
        .into_iter()
        .filter(|s| tklus_gen::TABLE2_KEYWORDS.contains(&s.keywords[0].as_str()))
        .take(5)
        .collect();

    let mut group = c.benchmark_group("query_prune");
    group.sample_size(10);
    for &radius in &[20.0f64, 50.0] {
        let queries: Vec<_> = specs.iter().map(|s| to_query(s, radius, 5, Semantics::Or)).collect();
        for (name, mode) in [
            ("sum", None),
            ("max_global", Some(BoundsMode::Global)),
            ("max_hot", Some(BoundsMode::HotKeywords)),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("r{radius}")),
                &queries,
                |b, queries| {
                    b.iter(|| {
                        for q in queries {
                            match mode {
                                None => {
                                    let _ = engine.try_query_algorithm4(q, Ranking::Sum);
                                }
                                Some(mode) => {
                                    let _ = engine.try_query_max(q, &bounds, mode);
                                }
                            }
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query_prune);
criterion_main!(benches);
