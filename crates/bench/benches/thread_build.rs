//! Ablation: tweet-thread construction cost over the metadata database —
//! the per-candidate I/O bottleneck that Section V-B's pruning targets.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tklus_bench::{standard_corpus, Flags};
use tklus_core::MetadataDb;
use tklus_graph::try_build_thread;
use tklus_model::TweetId;

fn bench_thread_build(c: &mut Criterion) {
    let corpus = standard_corpus(&Flags { posts: 10_000, seed: 0x7B1D5, queries: 1 });
    // Roots with the largest reply fan-out make the most expensive threads.
    let db = MetadataDb::from_posts(corpus.posts(), 0);
    let build = |root, depth| {
        try_build_thread(&mut db.reader(None), root, depth).expect("in-memory metadata")
    };
    let mut roots: Vec<(usize, TweetId)> = corpus
        .posts()
        .iter()
        .filter(|p| !p.is_reply())
        .map(|p| (db.replies_to_ids(p.id).len(), p.id))
        .collect();
    roots.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
    let busy = roots[0].1;
    let quiet = roots.last().expect("non-empty corpus").1;

    let mut group = c.benchmark_group("thread_build");
    for &depth in &[2usize, 4, 6] {
        group.bench_with_input(BenchmarkId::new("busy_root", depth), &depth, |b, &depth| {
            b.iter(|| build(black_box(busy), depth))
        });
        group.bench_with_input(BenchmarkId::new("quiet_root", depth), &depth, |b, &depth| {
            b.iter(|| build(black_box(quiet), depth))
        });
    }
    group.finish();

    // Report I/O per thread construction (the paper's unit of cost).
    db.io().reset();
    let t = build(busy, 6);
    println!(
        "\nbusy-root thread: {} tweets over {} levels, {} metadata page reads",
        t.size(),
        t.height(),
        db.io().page_reads()
    );
}

criterion_group!(benches, bench_thread_build);
criterion_main!(benches);
