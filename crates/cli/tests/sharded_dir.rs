//! `query --index` on the sharded layout earlier builds wrote
//! (`manifest.tsv` over `shard-NNN/` index directories) fails as an
//! index-directory error, exit 3, and names the command that rebuilds it
//! as one partitioned index.

use std::process::Command;

#[test]
fn a_sharded_directory_exits_3_with_the_rebuild_hint() {
    let dir = std::env::temp_dir().join(format!("tklus-sharded-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One shard holding two "hotel" tweets in Toronto cell dpz8, in the
    // format-2 bytes every build since that format has loaded.
    let shard = dir.join("shard-000");
    std::fs::create_dir_all(shard.join("partitions")).expect("create the shard");
    let files: [(&str, &[u8]); 5] = [
        ("manifest.tsv", b"format\t3\nshards\t1\n"),
        ("shard-000/meta.tsv", b"format\t2\npostings_format\tflat\ngeohash_len\t4\nnodes\t1\n"),
        ("shard-000/vocab.tsv", b"0\t3\thotel\n"),
        ("shard-000/forward.tsv", b"dpz8\t0\t0\t0\t5\n"),
        ("shard-000/checksums.tsv", b"part-00000\t56c63dd6\n"),
    ];
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write a file");
    }
    std::fs::write(shard.join("partitions/part-00000"), [2u8, 5, 1, 2, 2]).expect("write part");

    let out = Command::new(env!("CARGO_BIN_EXE_tklus"))
        .args(["query", "--posts", "200", "--lat", "43.67", "--lon", "-79.39"])
        .args(["--radius", "5", "--keywords", "hotel", "--index"])
        .arg(&dir)
        .output()
        .expect("run tklus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("tklus build-index --nodes N"), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused directory answers nothing");
    std::fs::remove_dir_all(&dir).expect("remove the directory");
}
