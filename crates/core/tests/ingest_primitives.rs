//! The engine's streaming-ingest primitive (DESIGN.md §15), as the
//! `tklus-wal` store drives it: `try_insert_metadata` costs what the
//! metadata insert costs.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use tklus_core::{EngineConfig, MetadataDb, TklusEngine};
use tklus_geo::Point;
use tklus_model::{Corpus, Post, TweetId, UserId};

/// A reply chain 1 ← 2 ← 3 ← 4 and a reply to its deepest post.
fn chain_and_reply() -> (Corpus, Post) {
    let here = Point::new_unchecked(43.7, -79.4);
    let mut posts = vec![Post::original(TweetId(1), UserId(1), here, "grand hotel")];
    for i in 2..=4u64 {
        posts.push(Post::reply(TweetId(i), UserId(i), here, "re", TweetId(i - 1), UserId(i - 1)));
    }
    let reply = Post::reply(TweetId(5), UserId(5), here, "re", TweetId(4), UserId(4));
    (Corpus::new(posts).unwrap(), reply)
}

#[test]
fn reply_ingest_reads_no_ancestor_chain() {
    // The insert must cost exactly what the metadata database's own insert
    // costs on a twin: no ancestor row is looked up.
    let (corpus, reply) = chain_and_reply();
    let (mut engine, _) = TklusEngine::build(&corpus, &EngineConfig::default());
    let mut twin = MetadataDb::try_from_posts(corpus.posts(), 0, None).unwrap();
    let phi_before = engine.try_thread_phi(TweetId(1)).unwrap();

    let before = twin.io().page_reads();
    twin.try_insert_post(&reply).unwrap();
    let insert_alone = twin.io().page_reads() - before;

    let before = engine.db().io().page_reads();
    engine.try_insert_metadata(&reply).unwrap();
    assert_eq!(engine.db().io().page_reads() - before, insert_alone);
    // And the next φ read sees the reply: the root's thread grew.
    assert!(engine.try_thread_phi(TweetId(1)).unwrap() > phi_before);
}
