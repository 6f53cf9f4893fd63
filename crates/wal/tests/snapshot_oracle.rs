//! Snapshot-equality oracle (DESIGN.md §15 acceptance).
//!
//! The ingest store's contract is that a query over "sealed ∪ live" is
//! **bitwise** equal to the same query against a from-scratch
//! [`TklusEngine`] built over the identical post set — same users, same
//! float bits, same order. This suite builds both sides over a generated
//! corpus split into a sealed prefix (ingested then compacted) and a live
//! suffix (ingested after compaction, so its postings sit in the
//! memtable), and asserts equality across Sum/Max × OR/AND × both bound
//! modes, including replies that land in sealed threads — under sealed
//! originals and sealed replies alike — and raise φ after sealing. (That
//! a from-scratch engine's Max is the paper's pruned Algorithm 5, bit for
//! bit, is `tklus-core`'s oracle suite.)

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::sync::Arc;
use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_model::{Corpus, Post, Semantics, TklusQuery};
use tklus_wal::{IngestStore, SimFs, StoreConfig, WalFs};

fn engine_config() -> EngineConfig {
    EngineConfig { cache_pages: 0, ..EngineConfig::default() }
}

fn corpus(seed: u64) -> Corpus {
    generate_corpus(&GenConfig {
        original_posts: 220,
        users: 50,
        vocab_size: 250,
        seed,
        ..GenConfig::default()
    })
}

fn queries(corpus: &Corpus) -> Vec<(TklusQuery, Ranking)> {
    let specs = generate_queries(corpus, &QueryConfig { per_bucket: 3, seed: 0x5EED });
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
            let ranking = match i % 3 {
                0 => Ranking::Sum,
                1 => Ranking::Max(BoundsMode::HotKeywords),
                _ => Ranking::Max(BoundsMode::Global),
            };
            let q = TklusQuery::new(spec.location, 20.0, spec.keywords, 5, semantics)
                .expect("generated query is valid");
            (q, ranking)
        })
        .collect()
}

/// Ingests `posts[..split]`, compacts (sealing them), ingests the rest
/// live, and returns the store.
fn store_with_split(posts: &[Post], split: usize) -> IngestStore {
    let (fs, _) = SimFs::new(0x0AC1E);
    let fs: Arc<dyn WalFs> = fs as Arc<dyn WalFs>;
    let config = StoreConfig { engine: engine_config(), ..StoreConfig::default() };
    let (store, _) = IngestStore::open(fs, config).unwrap();
    for p in &posts[..split] {
        store.ingest(p.clone()).unwrap();
    }
    assert_eq!(store.compact().unwrap(), split > 0, "compact seals iff something is live");
    for p in &posts[split..] {
        store.ingest(p.clone()).unwrap();
    }
    assert_eq!(store.live_posts(), posts.len() - split);
    store
}

/// Ingests one fresh reply under each of `targets` (echoing the target's
/// text and location, so it matches the same queries) and returns the
/// corpus the store now holds: `posts` plus the replies.
fn ingest_replies_to<'a>(
    store: &IngestStore,
    posts: &[Post],
    targets: impl IntoIterator<Item = &'a Post>,
) -> Corpus {
    let first_id = posts.iter().map(|p| p.id.0).max().unwrap() + 1;
    let mut all = posts.to_vec();
    for (next_id, target) in (first_id..).zip(targets) {
        let reply = Post::reply(
            tklus_model::TweetId(next_id),
            tklus_model::UserId(next_id % 40),
            target.location,
            target.text.clone(),
            target.id,
            target.user,
        );
        store.ingest(reply.clone()).unwrap();
        all.push(reply);
    }
    Corpus::new(all).unwrap()
}

#[test]
fn merged_snapshot_queries_match_from_scratch_engine_bitwise() {
    let corpus = corpus(42);
    let posts = corpus.posts().to_vec();
    let split = posts.len() * 3 / 5;
    let store = store_with_split(&posts, split);

    let (reference, _) = TklusEngine::try_build(&corpus, &engine_config()).unwrap();
    let qs = queries(&corpus);
    assert!(qs.len() >= 9, "query workload must exercise every ranking arm");
    let mut nonempty = 0;
    for (q, ranking) in &qs {
        let got = store.try_query(q, *ranking).unwrap();
        let want = reference.try_query(q, *ranking).unwrap().users;
        assert_eq!(got, want, "query {q:?} ranking {ranking:?} diverged from oracle");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 0, "oracle run is vacuous: every query came back empty");
}

#[test]
fn live_replies_into_sealed_threads_stay_exact() {
    // Seal a corpus, then ingest replies whose targets are *sealed* posts
    // — sealed replies (chains deeper than one) and sealed originals: each
    // reply raises the φ of its whole sealed ancestor chain after sealing,
    // and the merged answer must still be the reference's.
    let corpus = corpus(77);
    let posts = corpus.posts().to_vec();
    let store = store_with_split(&posts, posts.len());
    assert_eq!(store.live_posts(), 0);

    let replies = posts.iter().filter(|p| p.in_reply_to.is_some()).take(12);
    let originals = posts.iter().filter(|p| p.in_reply_to.is_none()).take(12);
    let targets: Vec<&Post> = replies.chain(originals).collect();
    assert_eq!(targets.len(), 24, "corpus must hold 12 replies and 12 originals");
    let full = ingest_replies_to(&store, &posts, targets);
    let (reference, _) = TklusEngine::try_build(&full, &engine_config()).unwrap();
    let mut nonempty = 0;
    for (q, ranking) in queries(&full) {
        let got = store.try_query(&q, ranking).unwrap();
        let want = reference.try_query(&q, ranking).unwrap().users;
        assert_eq!(got, want, "post-reply query {q:?} ranking {ranking:?} diverged");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 0, "oracle run is vacuous: every query came back empty");
}

#[test]
fn compaction_preserves_answers_at_every_boundary() {
    // Answers must be invariant across the sealed/live boundary: any
    // split of the same post set, compacted or not, yields the oracle's
    // bytes.
    let corpus = corpus(9);
    let posts: Vec<Post> = corpus.posts().iter().take(120).cloned().collect();
    let full = Corpus::new(posts.clone()).unwrap();
    let (reference, _) = TklusEngine::try_build(&full, &engine_config()).unwrap();
    let qs: Vec<(TklusQuery, Ranking)> = queries(&full).into_iter().take(6).collect();
    for split in [0, posts.len() / 4, posts.len() / 2, posts.len()] {
        let store = store_with_split(&posts, split);
        for (q, ranking) in &qs {
            let got = store.try_query(q, *ranking).unwrap();
            let want = reference.try_query(q, *ranking).unwrap().users;
            assert_eq!(got, want, "split {split}: query diverged from oracle");
        }
    }
}

#[test]
fn shuffled_ingest_with_a_sealed_half_matches_from_scratch_engine_bitwise() {
    // Every other case ingests in tweet-id order, so a live tid always
    // exceeds every sealed one and no reply lands before its target. Here
    // a seeded shuffle is ingested: half of it sealed, the rest live. So a
    // user's live posts interleave their sealed ones by tid — the `P_u`
    // overlay must merge them by tid, or Definition 9's float sum changes
    // — and a sealed reply can target a live post.
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::{HashMap, HashSet};
    for seed in [3u64, 11, 42] {
        let corpus = corpus(seed);
        let mut posts = corpus.posts().to_vec();
        posts.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let split = posts.len() / 2;
        let store = store_with_split(&posts, split);
        let (sealed, live) = posts.split_at(split);

        let mut max_sealed: HashMap<tklus_model::UserId, u64> = HashMap::new();
        for p in sealed {
            let at = max_sealed.entry(p.user).or_insert(0);
            *at = (*at).max(p.id.0);
        }
        let interleaved: HashSet<_> = live
            .iter()
            .filter(|p| max_sealed.get(&p.user).is_some_and(|&m| p.id.0 < m))
            .map(|p| p.user)
            .collect();
        let live_ids: HashSet<_> = live.iter().map(|p| p.id).collect();
        let replies_to_live = sealed
            .iter()
            .filter(|p| p.in_reply_to.is_some_and(|r| live_ids.contains(&r.target)))
            .count();
        assert!(!interleaved.is_empty(), "seed {seed}: no user's live posts interleave");
        assert!(replies_to_live > 0, "seed {seed}: no sealed reply targets a live post");

        let (reference, _) = TklusEngine::try_build(&corpus, &engine_config()).unwrap();
        let mut nonempty = 0;
        for (q, ranking) in queries(&corpus) {
            let got = store.try_query(&q, ranking).unwrap();
            let want = reference.try_query(&q, ranking).unwrap().users;
            let bits = |users: &[tklus_core::RankedUser]| -> Vec<(u64, u64)> {
                users.iter().map(|u| (u.user.0, u.score.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "seed {seed}: {q:?} {ranking:?} diverged");
            nonempty += usize::from(!want.is_empty());
        }
        assert!(nonempty > 0, "seed {seed}: every query came back empty");
    }
}
