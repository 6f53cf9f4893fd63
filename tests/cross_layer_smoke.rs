//! Tier-1 cross-layer smoke: one small corpus through every top-level
//! engine and the socket front-end, each answer held bit-equal to a fresh
//! `TklusEngine::build` over the store's posts.
//!
//! corpus → `IngestStore` (ingest two posts in three, compact, ingest the
//! rest live — interleaved with the sealed set by tweet id, replies into
//! it included — reopen) → for Sum and Max × AND/OR: the store's sealed ∪ live
//! answer, a 4-shard `ShardedEngine`'s, and `POST /query` over a loopback
//! `tklus_http::serve` fronting the rebuilt engine. A seam that breaks —
//! index build, WAL replay, compaction, the Sum gather, shard routing,
//! admission, JSON — fails here, in the default `cargo test`.
//!
//! Then the one concurrency model (DESIGN.md §8: requests are the unit of
//! parallelism): four threads replay the same cases at once against the
//! shared engine, the store and the socket, and every answer must still be
//! the sequential one.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use tklus::core::{BoundsMode, EngineConfig, RankedUser, Ranking, TklusEngine};
use tklus::gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus::http::{serve, HttpConfig};
use tklus::model::{Corpus, Post, Semantics, TklusQuery, TweetId};
use tklus::serve::{ServeConfig, TklusServer};
use tklus::shard::ShardedEngine;
use tklus::wal::{IngestStore, SimFs, StoreConfig, WalFs};

/// `(user id, score bits)`: equality is bit equality.
fn bits(users: &[RankedUser]) -> Vec<(u64, u64)> {
    users.iter().map(|u| (u.user.0, u.score.to_bits())).collect()
}

/// One `POST /query` on a fresh connection; the `(user id, score bits)`
/// of a complete 200 answer. Scores are printed shortest-roundtrip, so
/// parsing them back is exact.
fn post_query(addr: std::net::SocketAddr, body: &str) -> Vec<(u64, u64)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    let (_, json) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(json.contains("\"completeness\":\"complete\""), "{json}");
    json.split("{\"user\":")
        .skip(1)
        .map(|row| {
            let (user, rest) = row.split_once(",\"score\":").expect("score field");
            let score = rest.split('}').next().expect("row end");
            (user.parse().expect("user id"), score.parse::<f64>().expect("score").to_bits())
        })
        .collect()
}

#[test]
fn store_shards_and_http_agree_with_a_fresh_engine() {
    let corpus = generate_corpus(&GenConfig {
        original_posts: 300,
        users: 80,
        seed: 0xC405,
        ..GenConfig::default()
    });
    // Seal two posts in three; every third stays live. Not a tid prefix:
    // live posts interleave the sealed ones by tid, so a user's `P_u`
    // mixes the two sets, and a live reply can land in a sealed thread.
    let posts = corpus.posts();
    let live: Vec<&Post> = posts.iter().skip(2).step_by(3).collect();
    let sealed: Vec<&Post> =
        posts.iter().enumerate().filter(|(i, _)| i % 3 != 2).map(|(_, p)| p).collect();
    let sealed_ids: HashSet<TweetId> = sealed.iter().map(|p| p.id).collect();
    assert!(
        live.iter().any(|p| p.in_reply_to.is_some_and(|r| sealed_ids.contains(&r.target))),
        "the live tail must reply into the sealed set"
    );
    assert!(
        live.iter().any(|l| sealed.iter().any(|s| s.user == l.user && s.id > l.id)),
        "a user's live posts must interleave their sealed ones by tid"
    );

    // Write path: ingest, seal, ingest a live tail, reopen from the WAL.
    let (fs, _faults) = SimFs::new(1);
    let open = || {
        IngestStore::open(Arc::clone(&fs) as Arc<dyn WalFs>, StoreConfig::default())
            .expect("store opens")
    };
    let (store, _) = open();
    for post in &sealed {
        store.ingest((*post).clone()).expect("ingest");
    }
    assert!(store.compact().expect("compaction"));
    for post in &live {
        store.ingest((*post).clone()).expect("ingest");
    }
    drop(store);
    let (store, report) = open();
    assert_eq!((report.sealed_posts, report.live_posts), (sealed.len(), live.len()));
    assert_eq!(report.generation, 1);

    // The reference every layer is held to, and the layers around it.
    let rebuilt = Corpus::new(store.posts()).expect("acked ids are unique");
    assert_eq!(rebuilt.len(), posts.len());
    let config = EngineConfig::default();
    let reference = Arc::new(TklusEngine::build(&rebuilt, &config).0);
    let sharded = ShardedEngine::try_build(&rebuilt, 4, &config).expect("sharded build");
    let server =
        TklusServer::start(Arc::clone(&reference), ServeConfig::default()).expect("server starts");
    let front = serve(server, HttpConfig::default()).expect("front-end binds");

    let mut non_empty = 0;
    let mut cases = Vec::new();
    for spec in generate_queries(&corpus, &QueryConfig { per_bucket: 2, seed: 11 }) {
        for (semantics, semantics_name) in [(Semantics::Or, "or"), (Semantics::And, "and")] {
            let q = TklusQuery::new(spec.location, 20.0, spec.keywords.clone(), 5, semantics)
                .expect("generated query is valid");
            let keywords: Vec<String> = spec.keywords.iter().map(|w| format!("\"{w}\"")).collect();
            for (ranking, ranking_name) in
                [(Ranking::Sum, "sum"), (Ranking::Max(BoundsMode::HotKeywords), "max_hot")]
            {
                let label = format!("{:?} {semantics_name} {ranking_name}", spec.keywords);
                let want = bits(&reference.try_query(&q, ranking).expect("reference").users);
                non_empty += usize::from(!want.is_empty());

                let got = store.try_query(&q, ranking).expect("store query");
                assert_eq!(bits(&got), want, "store: {label}");

                let got = sharded.query(&q, ranking);
                assert!(got.completeness.is_complete(), "shards: {label}");
                assert_eq!(bits(&got.users), want, "shards: {label}");

                let body = format!(
                    "{{\"lat\":{},\"lon\":{},\"radius_km\":20,\"keywords\":[{}],\"k\":5,\
                     \"semantics\":\"{semantics_name}\",\"ranking\":\"{ranking_name}\"}}",
                    spec.location.lat(),
                    spec.location.lon(),
                    keywords.join(","),
                );
                assert_eq!(post_query(front.addr(), &body), want, "http: {label}");
                cases.push((q.clone(), ranking, body, want, label));
            }
        }
    }
    assert!(non_empty >= 8, "only {non_empty} of 24 cases ranked anyone: the smoke has no teeth");

    // Concurrent callers, one shared engine / store / front-end: each
    // thread starts at its own offset so different queries overlap, and
    // the barrier makes all four start together.
    const CLIENTS: usize = 4;
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (reference, store, cases, barrier) = (&reference, &store, &cases, &barrier);
            let addr = front.addr();
            scope.spawn(move || {
                barrier.wait();
                for i in 0..cases.len() {
                    let (q, ranking, body, want, label) = &cases[(i + t * 7) % cases.len()];
                    let got = reference.try_query(q, *ranking).expect("engine query").users;
                    assert_eq!(&bits(&got), want, "concurrent engine, client {t}: {label}");
                    let got = store.try_query(q, *ranking).expect("store query");
                    assert_eq!(&bits(&got), want, "concurrent store, client {t}: {label}");
                    assert_eq!(
                        &post_query(addr, body),
                        want,
                        "concurrent http, client {t}: {label}"
                    );
                }
            });
        }
    });
    front.shutdown();
}
