//! Ablation: tweet-thread construction cost over the metadata database —
//! the per-candidate I/O bottleneck that Section V-B's pruning targets.
//! Algorithm 1 (`try_build_thread`, every level collected into a `Vec`)
//! beside the query path's counting walk
//! (`MetaReader::try_thread_popularity`, the same page reads, levels
//! counted in two reused buffers), each over a fresh reader per call.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tklus_bench::{standard_corpus, Flags};
use tklus_core::MetadataDb;
use tklus_graph::try_build_thread;
use tklus_model::TweetId;

fn bench_thread_build(c: &mut Criterion) {
    let corpus = standard_corpus(&Flags { posts: 10_000, seed: 0x7B1D5, queries: 1 });
    // Roots with the largest reply fan-out make the most expensive threads.
    let db = MetadataDb::try_from_posts(corpus.posts(), 0, None).expect("in-memory metadata");
    let build = |root, depth| {
        try_build_thread(&mut db.reader(None), root, depth).expect("in-memory metadata")
    };
    let mut roots: Vec<(usize, TweetId)> = corpus
        .posts()
        .iter()
        .filter(|p| !p.is_reply())
        .map(|p| (db.try_replies_to_ids(p.id).expect("in-memory metadata").len(), p.id))
        .collect();
    roots.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
    let busy = roots[0].1;
    let quiet = roots.last().expect("non-empty corpus").1;

    let walk = |root, depth| {
        db.reader(None).try_thread_popularity(root, depth, 0.1).expect("in-memory metadata")
    };

    let mut group = c.benchmark_group("thread_build");
    for &depth in &[2usize, 4, 6] {
        for (name, root) in [("busy_root", busy), ("quiet_root", quiet)] {
            group.bench_with_input(BenchmarkId::new(name, depth), &depth, |b, &depth| {
                b.iter(|| build(black_box(root), depth))
            });
            let counted = format!("{name}_counted");
            group.bench_with_input(BenchmarkId::new(counted, depth), &depth, |b, &depth| {
                b.iter(|| walk(black_box(root), depth))
            });
        }
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
