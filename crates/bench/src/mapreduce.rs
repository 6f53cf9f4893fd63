//! Figure 5's MapReduce index build.
//!
//! The paper builds its hybrid index "under Hadoop MapReduce" on a 3-node
//! cluster (Section IV-B2, Algorithms 2 and 3), and Fig. 5 times that build.
//! [`run_job`] keeps the job's phase structure in-process: `nodes` map tasks
//! tokenise contiguous input splits and pre-partition their emissions by
//! geohash range, the shuffle gathers each range's emissions, and `nodes`
//! reduce tasks sort one range each — the Hadoop guarantee the paper leans
//! on ("the Hadoop MapReduce framework can guarantee that the key of the
//! inverted index is sorted"). Each phase's tasks run on one thread apiece,
//! the first of them the caller's. Not a cluster's failure model: a task
//! is a pure function of its input, so a panicking task ends the job.
//!
//! The product builds the same index with one sort on one thread
//! ([`tklus_index::build_index`]). Both builders cut the key space with the
//! index's one partition rule ([`partition_of`]) and end in its one layout
//! step ([`lay_out`]), so the job's index is the product's, byte for byte.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use tklus_geo::{encode, Geohash};
use tklus_index::build::{lay_out, partition_of};
use tklus_index::{HybridIndex, IndexBuildReport};
use tklus_model::Post;
use tklus_text::TextPipeline;

/// `⟨(geohash, term), (tweet id, tf)⟩`: one pair of Algorithm 2's map
/// output, flattened so that sorting it sorts by key, then by tweet id.
type Emission = (Geohash, Arc<str>, u64, u32);

/// Runs one phase's tasks and returns their results in task order: the
/// first task on the calling thread, every further task on a scoped
/// thread of its own, so an `n`-task phase occupies `n` threads, the
/// caller included. A task that panics ends the job with its own panic
/// payload, whichever thread ran it.
fn run_tasks<T: Send>(tasks: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else { return Vec::new() };
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.map(|task| scope.spawn(task)).collect();
        let mut results = vec![first()];
        for handle in handles {
            results
                .push(handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        results
    })
}

/// Algorithm 2's map function over one input split: tokenise and stem each
/// post, count its term frequencies, and emit one pair per distinct term
/// into the bucket of the reduce partition that the key's range belongs to.
fn map_split(split: &[Post], geohash_len: usize, nodes: usize) -> Vec<Vec<Emission>> {
    let pipeline = TextPipeline::new();
    let mut interned: HashSet<Arc<str>> = HashSet::new();
    let mut buckets: Vec<Vec<Emission>> = vec![Vec::new(); nodes];
    for post in split {
        let gh = encode(&post.location, geohash_len).expect("valid geohash length");
        let mut terms = pipeline.terms(&post.text);
        terms.sort_unstable();
        for run in terms.chunk_by(|a, b| a == b) {
            let term = match interned.get(run[0].as_str()) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let shared: Arc<str> = Arc::from(run[0].as_str());
                    interned.insert(Arc::clone(&shared));
                    shared
                }
            };
            buckets[partition_of(gh, nodes)].push((gh, term, post.id.0, run.len() as u32));
        }
    }
    buckets
}

/// Builds the hybrid index over `posts` with a MapReduce job of `nodes`
/// map tasks and `nodes` reduce tasks (= partitions), then lays it out.
pub fn run_job(
    posts: &[Post],
    geohash_len: usize,
    nodes: usize,
) -> (HybridIndex, IndexBuildReport) {
    assert!(nodes > 0, "at least one node");
    let start = Instant::now();
    let chunk = posts.len().div_ceil(nodes).max(1);
    let map_tasks: Vec<_> =
        posts.chunks(chunk).map(|split| move || map_split(split, geohash_len, nodes)).collect();
    let mut buckets: Vec<Vec<Emission>> = vec![Vec::new(); nodes];
    for local in run_tasks(map_tasks) {
        for (bucket, mut part) in buckets.iter_mut().zip(local) {
            bucket.append(&mut part);
        }
    }
    let reduce_tasks: Vec<_> = buckets
        .into_iter()
        .map(|mut bucket| {
            move || {
                bucket.sort_unstable();
                bucket
            }
        })
        .collect();
    let partitions = run_tasks(reduce_tasks);
    let slices: Vec<&[Emission]> = partitions.iter().map(Vec::as_slice).collect();
    let (index, report) = lay_out(&slices, geohash_len);
    (index, IndexBuildReport { total_time: start.elapsed(), posts: posts.len() as u64, ..report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{standard_corpus, Flags};
    use tklus_geo::Point;
    use tklus_index::{build_index, IndexBuildConfig};
    use tklus_model::{TweetId, UserId};

    /// Asserts that the job and the product builder produce the same index:
    /// partition bytes, dictionary (id, term, frequency) and directory.
    fn assert_same_index(posts: &[Post], geohash_len: usize, nodes: usize) {
        let (job, job_report) = run_job(posts, geohash_len, nodes);
        let config = IndexBuildConfig { geohash_len, nodes, ..IndexBuildConfig::default() };
        let (product, product_report) = build_index(posts, &config);
        let at = format!("length {geohash_len}, {nodes} nodes");
        assert_eq!(job.partitions(), product.partitions(), "{at}: partitions");
        assert!(job.vocab().iter().eq(product.vocab().iter()), "{at}: dictionary");
        assert!(job.forward().iter().eq(product.forward().iter()), "{at}: directory");
        assert_eq!(job_report.posts, product_report.posts, "{at}: posts");
        assert_eq!(job_report.keys, product_report.keys, "{at}: keys");
    }

    #[test]
    fn the_job_builds_the_product_index() {
        let corpus = standard_corpus(&Flags { posts: 300, seed: 5, queries: 1 });
        for geohash_len in 1..=4 {
            for nodes in 1..=4 {
                assert_same_index(corpus.posts(), geohash_len, nodes);
            }
        }
    }

    #[test]
    fn the_job_builds_the_product_index_over_empty_and_one_post_corpora() {
        let one = [Post::original(
            TweetId(7),
            UserId(1),
            Point::new_unchecked(43.67, -79.38),
            "hotel pizza hotel",
        )];
        for nodes in 1..=4 {
            assert_same_index(&[], 4, nodes);
            assert_same_index(&one, 4, nodes);
        }
    }

    #[test]
    fn first_task_runs_on_the_caller() {
        let me = std::thread::current().id();
        let ran = run_tasks((0..3).map(|_| || std::thread::current().id()).collect());
        assert_eq!(ran[0], me);
        assert!(ran[1..].iter().all(|&t| t != me), "further tasks run on threads of their own");
    }

    #[test]
    #[should_panic(expected = "task rejects its input")]
    fn a_panicking_task_ends_the_job_with_its_payload() {
        // The bad input is the second task's, so the panic crosses a
        // spawned task's join.
        let tasks = [1, 2, 3].map(|i| move || assert_ne!(i, 2, "task rejects its input"));
        run_tasks(tasks.into());
    }
}
