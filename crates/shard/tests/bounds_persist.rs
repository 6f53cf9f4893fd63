//! Sharded index directories after the per-shard bound sidecars were
//! retired.
//!
//! Earlier builds wrote a `bounds.tsv` next to each shard's index files so
//! a reloaded router could skip shards by score. The router no longer
//! skips, so the contract is: `try_save_dir` writes the format v3 index
//! files and nothing else, `try_load_dir` answers bit-equal to the engine
//! that was saved, and a directory an earlier build wrote — sidecars
//! included — still loads and answers identically (no format bump).

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use std::path::PathBuf;
use tklus_core::{BoundsMode, EngineConfig, Ranking};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig};
use tklus_geo::Point;
use tklus_model::{Corpus, Post, Semantics, TklusQuery, TweetId, UserId};
use tklus_shard::{ShardPlan, ShardedEngine, ShardedOutcome};

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tklus-bounds-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn engine_config() -> EngineConfig {
    EngineConfig { cache_pages: 0, ..EngineConfig::default() }
}

const RANKINGS: [Ranking; 3] =
    [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords), Ranking::Max(BoundsMode::Global)];

fn assert_same_answer(got: &ShardedOutcome, want: &ShardedOutcome, label: &str) {
    assert_eq!(got.users.len(), want.users.len(), "{label}: cardinality");
    for (g, w) in got.users.iter().zip(&want.users) {
        assert_eq!(g.user, w.user, "{label}: ranking");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{label}: score bits");
    }
    assert_eq!(got.completeness, want.completeness, "{label}: completeness");
    assert_eq!(got.fanout, want.fanout, "{label}: fanout");
    assert!(got.skipped_by_bound.is_empty() && want.skipped_by_bound.is_empty(), "{label}");
}

#[test]
fn saved_directory_reloads_bit_equal_and_has_no_sidecar() {
    let corpus = generate_corpus(&GenConfig {
        original_posts: 260,
        users: 50,
        vocab_size: 200,
        seed: 17,
        ..GenConfig::default()
    });
    let built = ShardedEngine::try_build(&corpus, 3, &engine_config()).unwrap();
    let dir = tmp_dir("roundtrip");
    built.try_save_dir(&dir).unwrap();

    // Each shard directory holds the v2 index files and nothing else.
    let v2_entries = ["checksums.tsv", "forward.tsv", "meta.tsv", "partitions", "vocab.tsv"];
    for i in 0..built.n_shards() {
        let mut entries: Vec<String> = std::fs::read_dir(dir.join(tklus_index::shard_dir_name(i)))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert_eq!(entries, v2_entries, "shard {i}");
    }

    let loaded = ShardedEngine::try_load_dir(&dir, &corpus, &engine_config()).unwrap();
    assert_eq!(loaded.n_shards(), built.n_shards());
    assert_eq!(loaded.plan().boundaries(), built.plan().boundaries());
    let specs = generate_queries(&corpus, &QueryConfig { per_bucket: 3, seed: 0xB0D5 });
    for (i, spec) in specs.into_iter().enumerate() {
        let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
        let q = TklusQuery::new(spec.location, 18.0, spec.keywords, 5, semantics).unwrap();
        for ranking in RANKINGS {
            assert_same_answer(
                &loaded.query(&q, ranking),
                &built.query(&q, ranking),
                &format!("q{i} {ranking:?}"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn directory_written_with_sidecars_still_loads_and_answers_identically() {
    // Four posts: two in Toronto cell dpz8, one a cell east in dpzb, and a
    // Toronto reply to the eastern one (so its thread crosses the shard
    // boundary).
    let toronto = Point::new_unchecked(43.67, -79.39);
    let east = Point::new_unchecked(43.67, -79.00);
    let corpus = Corpus::new(vec![
        Post::original(TweetId(1), UserId(1), toronto, "hotel spa".to_string()),
        Post::original(TweetId(2), UserId(2), toronto, "hotel hotel".to_string()),
        Post::original(TweetId(3), UserId(3), east, "hotel pool".to_string()),
        Post::reply(
            TweetId(4),
            UserId(1),
            toronto,
            "nice hotel".to_string(),
            TweetId(3),
            UserId(3),
        ),
    ])
    .unwrap();

    // Every byte below is what `try_save_dir` wrote for this corpus, split
    // at dpzb, in the last build that had shard bound tables — `bounds.tsv`
    // included. No call into this build's writer.
    let dir = tmp_dir("with-sidecars");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("manifest.tsv"), "format\t3\nshards\t2\nboundary\tdpzb\n").unwrap();
    let meta = "format\t2\npostings_format\tflat\ngeohash_len\t4\nnodes\t3\n";
    let shard = |name: &str, files: &[(&str, &str)], part: &[u8], crc: &str| {
        let sdir = dir.join(name);
        std::fs::create_dir_all(sdir.join("partitions")).unwrap();
        std::fs::write(sdir.join("meta.tsv"), meta).unwrap();
        for (file, body) in files {
            std::fs::write(sdir.join(file), body).unwrap();
        }
        std::fs::write(
            sdir.join("checksums.tsv"),
            format!("part-00000\t00000000\npart-00001\t{crc}\npart-00002\t00000000\n"),
        )
        .unwrap();
        std::fs::write(sdir.join("partitions").join("part-00000"), []).unwrap();
        std::fs::write(sdir.join("partitions").join("part-00001"), part).unwrap();
        std::fs::write(sdir.join("partitions").join("part-00002"), []).unwrap();
    };
    shard(
        "shard-000",
        &[
            ("vocab.tsv", "0\t4\thotel\n1\t1\tnice\n2\t1\tspa\n"),
            ("forward.tsv", "dpz8\t0\t1\t0\t7\ndpz8\t1\t1\t7\t3\ndpz8\t2\t1\t10\t3\n"),
            (
                "bounds.tsv",
                "format\t1\nmax_tf\t2\nterm\t0\t3f747ae147ae147c\n\
                 term\t1\t3f647ae147ae147c\nterm\t2\t3f647ae147ae147c\n",
            ),
        ],
        &[3, 1, 1, 1, 2, 2, 1, 1, 4, 1, 1, 1, 1],
        "244d8f72",
    );
    shard(
        "shard-001",
        &[
            ("vocab.tsv", "0\t1\thotel\n1\t1\tpool\n"),
            ("forward.tsv", "dpzb\t0\t1\t0\t3\ndpzb\t1\t1\t3\t3\n"),
            (
                "bounds.tsv",
                "format\t1\nmax_tf\t2\nterm\t0\t3f8999999999999a\nterm\t1\t3f8999999999999a\n",
            ),
        ],
        &[1, 3, 1, 1, 3, 1],
        "d86a66d1",
    );

    let loaded = ShardedEngine::try_load_dir(&dir, &corpus, &engine_config()).unwrap();
    let plan = ShardPlan::from_boundaries(vec!["dpzb".parse().unwrap()]).unwrap();
    assert_eq!(loaded.plan().boundaries(), plan.boundaries());
    let built = ShardedEngine::try_build_with(&corpus, plan, &|_| engine_config()).unwrap();

    // Centred between the two cells: the cover reaches both shards.
    let center = Point::new_unchecked(43.67, -79.20);
    for semantics in [Semantics::Or, Semantics::And] {
        for keywords in [vec!["hotel"], vec!["hotel", "pool"], vec!["nice", "spa"]] {
            let keywords: Vec<String> = keywords.into_iter().map(String::from).collect();
            let q = TklusQuery::new(center, 30.0, keywords.clone(), 3, semantics).unwrap();
            for ranking in RANKINGS {
                let got = loaded.query(&q, ranking);
                assert_eq!(got.fanout, 2, "the query must cross the shard boundary");
                assert_same_answer(
                    &got,
                    &built.query(&q, ranking),
                    &format!("{keywords:?} {semantics:?} {ranking:?}"),
                );
            }
        }
    }
    let hotel = TklusQuery::new(center, 30.0, vec!["hotel".to_string()], 3, Semantics::Or).unwrap();
    assert_eq!(loaded.query(&hotel, Ranking::Sum).users.len(), 3, "all three authors rank");

    // Ignored means not read: what used to be a corrupt-sidecar error loads.
    std::fs::write(dir.join("shard-001").join("bounds.tsv"), "gibberish\n").unwrap();
    assert!(ShardedEngine::try_load_dir(&dir, &corpus, &engine_config()).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
