//! Ablation: candidate retrieval via the hybrid geohash index (circle
//! cover + postings fetch + combine) versus the centralized IR-tree
//! baseline (Section VII-A's comparison family), on identical corpora and
//! queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tklus_bench::{standard_corpus, Flags};
use tklus_geo::{DistanceMetric, Point};
use tklus_index::{build_index, intersect_sum, union_sum, IndexBuildConfig, IrTree};
use tklus_model::Semantics;
use tklus_text::TextPipeline;

fn bench_retrieval(c: &mut Criterion) {
    let corpus = standard_corpus(&Flags { posts: 10_000, seed: 0x7B1D5, queries: 1 });
    let (hybrid, _) = build_index(corpus.posts(), &IndexBuildConfig::default());
    let irtree = IrTree::build(corpus.posts());
    let pipeline = TextPipeline::new();
    let stems: Vec<String> =
        ["hotel", "pizza"].iter().map(|k| pipeline.normalize_keyword(k).unwrap()).collect();
    let hybrid_terms: Vec<_> = stems.iter().filter_map(|s| hybrid.vocab().get(s)).collect();
    let ir_terms: Vec<_> = stems.iter().filter_map(|s| irtree.vocab().get(s)).collect();
    let center = Point::new_unchecked(43.6839128037, -79.37356590);

    let mut group = c.benchmark_group("retrieval");
    for &radius in &[10.0f64, 50.0] {
        for semantics in [Semantics::And, Semantics::Or] {
            group.bench_with_input(
                BenchmarkId::new(format!("hybrid_{semantics}"), format!("r{radius}")),
                &radius,
                |b, &radius| {
                    b.iter(|| {
                        let fetch = hybrid.fetch_for_query(
                            &center,
                            radius,
                            &hybrid_terms,
                            DistanceMetric::Euclidean,
                        );
                        match semantics {
                            Semantics::Or => {
                                let all: Vec<_> =
                                    fetch.per_keyword.iter().flatten().cloned().collect();
                                union_sum(&all)
                            }
                            Semantics::And => {
                                let groups: Vec<_> =
                                    fetch.per_keyword.iter().map(|l| union_sum(l)).collect();
                                intersect_sum(&groups)
                            }
                        }
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("irtree_{semantics}"), format!("r{radius}")),
                &radius,
                |b, &radius| {
                    b.iter(|| {
                        irtree.search_circle(
                            &center,
                            radius,
                            &ir_terms,
                            semantics,
                            DistanceMetric::Euclidean,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_retrieval);
criterion_main!(benches);
