//! Pruning bounds for Maximum-score ranking (Section V-B).
//!
//! The global bound is Definition 11's `φ(p)_m = Σ t_m × 1/i` with `t_m`
//! the maximum reply fan-out observed in the database. Because that bound
//! is loose ("the upper bound of any specific-keyword tweet threads should
//! be much smaller than t_m"), the paper additionally pre-computes, for
//! each of the top-10 hot keywords, the largest actual thread popularity
//! among threads rooted at tweets containing that keyword, and uses the
//! keyword-specific bound when a query contains a hot keyword.
//!
//! No engine builds or holds a table. Algorithm 5
//! ([`crate::TklusEngine::try_query_max`]) takes one from its caller —
//! the figure harness and the tests precompute it with
//! [`BoundsTable::precompute`] — while every product query ranks Max by
//! folding unpruned rows and needs no bound.

use std::collections::HashMap;
use tklus_graph::{build_thread, upper_bound_popularity, SocialNetwork};
use tklus_model::{Corpus, ScoringConfig, Semantics};
use tklus_text::{TermId, TextPipeline, Vocab};

/// Which popularity bound Algorithm 5 consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsMode {
    /// Only the global Definition 11 bound.
    Global,
    /// Per-hot-keyword bounds where available, global otherwise
    /// (the Section VI-B5 configuration).
    #[default]
    HotKeywords,
}

/// Pre-computed popularity bounds: built once, offline, and never mutated —
/// they describe the corpus they were computed over, which must be the
/// corpus of the engine Algorithm 5 runs on.
#[derive(Debug, Clone)]
pub struct BoundsTable {
    global: f64,
    hot: HashMap<TermId, f64>,
}

impl BoundsTable {
    /// Computes the global bound and per-keyword bounds for the `hot_n`
    /// most frequent terms by offline thread construction over the corpus
    /// (as the paper does: "a specific upper bound popularity is
    /// pre-computed by offline constructing tweet threads and selecting the
    /// largest thread score").
    pub fn precompute(
        corpus: &Corpus,
        network: &SocialNetwork,
        vocab: &Vocab,
        hot_n: usize,
        config: &ScoringConfig,
    ) -> Self {
        let global =
            upper_bound_popularity(network.max_fanout(), config.thread_depth, config.epsilon);
        let pipeline = TextPipeline::new();
        let hot_terms: Vec<TermId> = vocab.top_terms(hot_n).into_iter().map(|(id, _)| id).collect();
        let mut hot: HashMap<TermId, f64> =
            hot_terms.iter().map(|&t| (t, config.epsilon)).collect();

        // One pass over the corpus: for each post containing a hot term,
        // build its thread and raise that term's bound.
        for post in corpus.posts() {
            let terms = pipeline.terms(&post.text);
            let mut matched: Vec<TermId> =
                terms.iter().filter_map(|t| vocab.get(t)).filter(|t| hot.contains_key(t)).collect();
            matched.sort_unstable();
            matched.dedup();
            if matched.is_empty() {
                continue;
            }
            let mut provider = network;
            let phi = build_thread(&mut provider, post.id, config.thread_depth)
                .popularity(config.epsilon);
            for t in matched {
                let entry = hot.get_mut(&t).expect("hot term");
                if phi > *entry {
                    *entry = phi;
                }
            }
        }
        Self { global, hot }
    }

    /// A table with only the global bound (no hot keywords).
    pub fn global_only(global: f64) -> Self {
        Self { global, hot: HashMap::new() }
    }

    /// The global Definition 11 bound.
    pub fn global(&self) -> f64 {
        self.global
    }

    /// The keyword-specific bound, if `term` is hot.
    pub fn hot_bound(&self, term: TermId) -> Option<f64> {
        self.hot.get(&term).copied()
    }

    /// Number of hot keywords tracked.
    pub fn hot_count(&self) -> usize {
        self.hot.len()
    }

    /// The popularity bound Algorithm 5 should use for a query:
    ///
    /// * [`BoundsMode::Global`] → always the global bound;
    /// * [`BoundsMode::HotKeywords`] → per-keyword bounds (global for
    ///   non-hot keywords), combined across the query's keywords with
    ///   **min** under AND and **max** under OR, per Section VI-B5
    ///   ("'AND' semantic uses the smallest upper bound among the query
    ///   keywords whereas 'OR' chooses the largest").
    pub fn query_bound(&self, terms: &[TermId], semantics: Semantics, mode: BoundsMode) -> f64 {
        if mode == BoundsMode::Global || terms.is_empty() {
            return self.global;
        }
        let per_term = terms.iter().map(|t| self.hot_bound(*t).unwrap_or(self.global));
        match semantics {
            Semantics::And => per_term.fold(f64::INFINITY, f64::min),
            Semantics::Or => per_term.fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use tklus_geo::Point;
    use tklus_model::{Post, TweetId, UserId};

    fn pt() -> Point {
        Point::new_unchecked(43.7, -79.4)
    }

    /// Corpus where "restaurant" tweets have big threads and "pizza" tweets
    /// have none.
    fn corpus() -> Corpus {
        let mut posts = vec![
            Post::original(TweetId(1), UserId(1), pt(), "best restaurant in town"),
            Post::original(TweetId(2), UserId(2), pt(), "pizza slice"),
        ];
        // 6 replies to the restaurant tweet.
        for i in 0..6u64 {
            posts.push(Post::reply(
                TweetId(10 + i),
                UserId(50 + i),
                pt(),
                "wow",
                TweetId(1),
                UserId(1),
            ));
        }
        Corpus::new(posts).unwrap()
    }

    fn setup() -> (Corpus, SocialNetwork, Vocab) {
        let corpus = corpus();
        let network = SocialNetwork::from_corpus(&corpus);
        let pipeline = TextPipeline::new();
        let mut vocab = Vocab::new();
        for post in corpus.posts() {
            for t in pipeline.terms(&post.text) {
                vocab.intern_occurrence(&t);
            }
        }
        (corpus, network, vocab)
    }

    #[test]
    fn global_bound_uses_max_fanout() {
        let (corpus, network, vocab) = setup();
        let config = ScoringConfig::default();
        let table = BoundsTable::precompute(&corpus, &network, &vocab, 5, &config);
        assert_eq!(network.max_fanout(), 6);
        let expect = upper_bound_popularity(6, config.thread_depth, config.epsilon);
        assert_eq!(table.global(), expect);
    }

    #[test]
    fn hot_bounds_are_tighter_than_global() {
        let (corpus, network, vocab) = setup();
        let config = ScoringConfig::default();
        let table = BoundsTable::precompute(&corpus, &network, &vocab, 10, &config);
        let pipeline = TextPipeline::new();
        let restaurant = vocab.get(&pipeline.normalize_keyword("restaurant").unwrap()).unwrap();
        let pizza = vocab.get(&pipeline.normalize_keyword("pizza").unwrap()).unwrap();
        // Restaurant's thread: root + 6 replies -> popularity 3.0.
        assert_eq!(table.hot_bound(restaurant), Some(3.0));
        // Pizza has only a singleton thread -> epsilon.
        assert_eq!(table.hot_bound(pizza), Some(config.epsilon));
        assert!(table.hot_bound(restaurant).unwrap() <= table.global());
    }

    #[test]
    fn query_bound_combines_per_semantics() {
        let (corpus, network, vocab) = setup();
        let config = ScoringConfig::default();
        let table = BoundsTable::precompute(&corpus, &network, &vocab, 10, &config);
        let pipeline = TextPipeline::new();
        let restaurant = vocab.get(&pipeline.normalize_keyword("restaurant").unwrap()).unwrap();
        let pizza = vocab.get(&pipeline.normalize_keyword("pizza").unwrap()).unwrap();
        let terms = [restaurant, pizza];
        let and = table.query_bound(&terms, Semantics::And, BoundsMode::HotKeywords);
        let or = table.query_bound(&terms, Semantics::Or, BoundsMode::HotKeywords);
        assert_eq!(and, config.epsilon, "AND takes the smallest bound");
        assert_eq!(or, 3.0, "OR takes the largest bound");
        // Global mode ignores hot bounds.
        assert_eq!(table.query_bound(&terms, Semantics::And, BoundsMode::Global), table.global());
    }

    #[test]
    fn non_hot_terms_fall_back_to_global() {
        let (corpus, network, vocab) = setup();
        let config = ScoringConfig::default();
        // Track only 1 hot keyword, so most terms are not hot.
        let table = BoundsTable::precompute(&corpus, &network, &vocab, 1, &config);
        assert_eq!(table.hot_count(), 1);
        let cold = TermId(9999);
        assert_eq!(table.hot_bound(cold), None);
        assert_eq!(
            table.query_bound(&[cold], Semantics::Or, BoundsMode::HotKeywords),
            table.global()
        );
    }

    #[test]
    fn bounds_dominate_actual_popularity() {
        // Soundness: every thread rooted at a tweet containing a hot term
        // scores at most that term's bound.
        let (corpus, network, vocab) = setup();
        let config = ScoringConfig::default();
        let table = BoundsTable::precompute(&corpus, &network, &vocab, 10, &config);
        let pipeline = TextPipeline::new();
        for post in corpus.posts() {
            let mut provider = &network;
            let phi = build_thread(&mut provider, post.id, config.thread_depth)
                .popularity(config.epsilon);
            for term in pipeline.terms(&post.text) {
                if let Some(id) = vocab.get(&term) {
                    if let Some(bound) = table.hot_bound(id) {
                        assert!(phi <= bound + 1e-12, "term {term}: {phi} > {bound}");
                    }
                    assert!(phi <= table.global() + 1e-12);
                }
            }
        }
    }
}
