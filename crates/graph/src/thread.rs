//! Tweet-thread construction: Definition 3 and Algorithm 1.
//!
//! A thread is the tree of replies/forwards rooted at a tweet, built
//! level by level ("breadth-first") down to a configured depth `d`, since
//! "constructing a complete tweet thread can incur quite a number of I/Os".
//! The provider abstraction mirrors Algorithm 1's line 7 — `select all
//! where rsid equals Id` — whose cost is exactly what the Maximum-score
//! pruning avoids paying.

use crate::network::SocialNetwork;
use crate::popularity::popularity;
use tklus_model::TweetId;

/// Source of "which tweets reply to / forward `id`?" lookups.
///
/// `&mut self` because database-backed providers move a cursor (a
/// B⁺-tree reader's root-to-leaf path) on every lookup.
pub trait ReplyProvider {
    /// The ids of tweets whose `rsid` equals `id`.
    fn replies_to(&mut self, id: TweetId) -> Vec<TweetId>;
}

/// Fallible variant of [`ReplyProvider`] for providers backed by storage
/// that can fail (the metadata database's secondary B⁺-tree scan). Every
/// infallible [`ReplyProvider`] is automatically a `TryReplyProvider` with
/// `Error = Infallible` via the blanket impl.
pub trait TryReplyProvider {
    /// The error a lookup can surface.
    type Error;
    /// The ids of tweets whose `rsid` equals `id`, or a storage error.
    fn try_replies_to(&mut self, id: TweetId) -> Result<Vec<TweetId>, Self::Error>;
}

impl<P: ReplyProvider> TryReplyProvider for P {
    type Error = std::convert::Infallible;

    fn try_replies_to(&mut self, id: TweetId) -> Result<Vec<TweetId>, Self::Error> {
        Ok(self.replies_to(id))
    }
}

impl ReplyProvider for &SocialNetwork {
    fn replies_to(&mut self, id: TweetId) -> Vec<TweetId> {
        self.children_of(id).to_vec()
    }
}

/// A constructed tweet thread: the tweets at each level, root first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TweetThread {
    root: TweetId,
    levels: Vec<Vec<TweetId>>,
}

impl TweetThread {
    /// The root tweet.
    pub fn root(&self) -> TweetId {
        self.root
    }

    /// Level sizes, root level first (so `sizes()[0] == 1`).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Thread height `T.h` (number of non-empty levels; 1 = just the root).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Total number of tweets in the thread.
    pub fn size(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// The tweets at `level` (0 = root level).
    pub fn level(&self, level: usize) -> &[TweetId] {
        self.levels.get(level).map_or(&[], Vec::as_slice)
    }

    /// Definition 4 popularity of this thread.
    pub fn popularity(&self, epsilon: f64) -> f64 {
        popularity(&self.level_sizes(), epsilon)
    }
}

/// Algorithm 1: builds the thread rooted at `root`, following reply links
/// level by level down to `depth` levels total (root counts as level 1, as
/// in the paper where `i` starts at 1 and lookups run `while i <= d`).
///
/// ```
/// use tklus_graph::{build_thread, SocialNetwork};
/// use tklus_model::{Corpus, Post, TweetId, UserId};
/// use tklus_geo::Point;
///
/// let at = Point::new_unchecked(43.7, -79.4);
/// let corpus = Corpus::new(vec![
///     Post::original(TweetId(1), UserId(1), at, "root"),
///     Post::reply(TweetId(2), UserId(2), at, "re", TweetId(1), UserId(1)),
///     Post::reply(TweetId(3), UserId(3), at, "re", TweetId(1), UserId(1)),
/// ]).unwrap();
/// let network = SocialNetwork::from_corpus(&corpus);
/// let thread = build_thread(&mut (&network), TweetId(1), 6);
/// assert_eq!(thread.level_sizes(), vec![1, 2]);
/// assert_eq!(thread.popularity(0.1), 1.0); // 2 × 1/2, Definition 4
/// ```
///
/// Each tweet in levels `1..depth` costs one `replies_to` lookup, exactly
/// like the per-tweet SQL of the paper's implementation.
pub fn build_thread<P: ReplyProvider>(
    provider: &mut P,
    root: TweetId,
    depth: usize,
) -> TweetThread {
    match try_build_thread(provider, root, depth) {
        Ok(thread) => thread,
        // The blanket impl gives infallible providers `Error = Infallible`.
        Err(infallible) => match infallible {},
    }
}

/// Fallible Algorithm 1: identical to [`build_thread`] but propagates the
/// provider's error (a partially built thread is discarded — popularity
/// over a truncated thread would be silently wrong).
pub fn try_build_thread<P: TryReplyProvider>(
    provider: &mut P,
    root: TweetId,
    depth: usize,
) -> Result<TweetThread, P::Error> {
    assert!(depth >= 1, "thread depth must be at least 1");
    let mut levels = vec![vec![root]];
    while levels.len() < depth {
        let current = levels.last().expect("non-empty levels");
        let mut next = Vec::new();
        for &id in current {
            next.extend(provider.try_replies_to(id)?);
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    Ok(TweetThread { root, levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tklus_geo::Point;
    use tklus_model::{Corpus, Post, UserId};

    /// A provider that counts lookups, for cost assertions.
    struct CountingProvider {
        children: HashMap<TweetId, Vec<TweetId>>,
        lookups: usize,
    }

    impl ReplyProvider for CountingProvider {
        fn replies_to(&mut self, id: TweetId) -> Vec<TweetId> {
            self.lookups += 1;
            self.children.get(&id).cloned().unwrap_or_default()
        }
    }

    fn provider(edges: &[(u64, u64)]) -> CountingProvider {
        let mut children: HashMap<TweetId, Vec<TweetId>> = HashMap::new();
        for &(parent, child) in edges {
            children.entry(TweetId(parent)).or_default().push(TweetId(child));
        }
        CountingProvider { children, lookups: 0 }
    }

    #[test]
    fn paper_figure2_thread() {
        // p1 <- p2, p3, p4; p2 <- p5, p6; p3 <- p7; p4 <- p8;  (4 at level 3
        // in the figure); level 4 has 2.
        let mut p =
            provider(&[(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (4, 8), (5, 9), (6, 10)]);
        let t = build_thread(&mut p, TweetId(1), 10);
        assert_eq!(t.level_sizes(), vec![1, 3, 4, 2]);
        assert!((t.popularity(0.1) - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.height(), 4);
        assert_eq!(t.size(), 10);
        assert_eq!(t.root(), TweetId(1));
    }

    #[test]
    fn singleton_thread() {
        let mut p = provider(&[]);
        let t = build_thread(&mut p, TweetId(42), 5);
        assert_eq!(t.level_sizes(), vec![1]);
        assert_eq!(t.popularity(0.1), 0.1);
        assert_eq!(p.lookups, 1, "one lookup discovers there are no replies");
    }

    #[test]
    fn depth_limit_truncates() {
        // Chain 1 <- 2 <- 3 <- 4 <- 5.
        let mut p = provider(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        let t = build_thread(&mut p, TweetId(1), 3);
        assert_eq!(t.level_sizes(), vec![1, 1, 1]);
        // Levels beyond the limit are not fetched: lookups only for levels
        // 1 and 2 (tweets 1 and 2).
        assert_eq!(p.lookups, 2);
        // Depth 1 = root only, zero lookups.
        let mut p2 = provider(&[(1, 2)]);
        let t1 = build_thread(&mut p2, TweetId(1), 1);
        assert_eq!(t1.level_sizes(), vec![1]);
        assert_eq!(p2.lookups, 0);
    }

    #[test]
    fn lookup_cost_equals_tweets_in_non_final_levels() {
        let mut p = provider(&[(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)]);
        let t = build_thread(&mut p, TweetId(1), 4);
        assert_eq!(t.level_sizes(), vec![1, 2, 2, 2]);
        // Lookups: level1 (1) + level2 (2) + level3 (2) = 5 — Algorithm 1's
        // I/O bottleneck, one query per tweet above the depth bound.
        assert_eq!(p.lookups, 5);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_rejected() {
        let mut p = provider(&[]);
        let _ = build_thread(&mut p, TweetId(1), 0);
    }

    /// A fallible provider that errors after a fixed number of lookups.
    struct FailingProvider {
        inner: CountingProvider,
        fail_after: usize,
    }

    impl TryReplyProvider for FailingProvider {
        type Error = String;

        fn try_replies_to(&mut self, id: TweetId) -> Result<Vec<TweetId>, Self::Error> {
            if self.inner.lookups >= self.fail_after {
                return Err(format!("lookup of {id:?} failed"));
            }
            Ok(self.inner.replies_to(id))
        }
    }

    #[test]
    fn try_build_thread_matches_infallible_path() {
        let edges = [(1, 2), (1, 3), (2, 4), (3, 5)];
        let mut p = provider(&edges);
        let infallible = build_thread(&mut p, TweetId(1), 4);
        // Via the blanket impl, the same provider works fallibly.
        let mut p2 = provider(&edges);
        let fallible = try_build_thread(&mut p2, TweetId(1), 4).unwrap();
        assert_eq!(infallible, fallible);
    }

    #[test]
    fn provider_error_discards_the_partial_thread() {
        let mut p = FailingProvider { inner: provider(&[(1, 2), (2, 3), (3, 4)]), fail_after: 2 };
        let err = try_build_thread(&mut p, TweetId(1), 5).unwrap_err();
        assert!(err.contains("failed"), "{err}");
    }

    #[test]
    fn social_network_is_a_provider() {
        let pt = Point::new_unchecked(43.7, -79.4);
        let corpus = Corpus::new(vec![
            Post::original(TweetId(1), UserId(1), pt, "root"),
            Post::reply(TweetId(2), UserId(2), pt, "re", TweetId(1), UserId(1)),
            Post::forward(TweetId(3), UserId(3), pt, "rt", TweetId(2), UserId(2)),
        ])
        .unwrap();
        let net = SocialNetwork::from_corpus(&corpus);
        let mut p = &net;
        let t = build_thread(&mut p, TweetId(1), 5);
        assert_eq!(t.level_sizes(), vec![1, 1, 1]);
        assert_eq!(t.level(1), &[TweetId(2)]);
        assert_eq!(t.level(2), &[TweetId(3)]);
        assert!(t.level(3).is_empty());
    }
}
