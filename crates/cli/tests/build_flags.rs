//! `build-index` rejects an out-of-range `--nodes` or `--geohash-len` as a
//! usage error (exit 2, with a message), before it builds or writes
//! anything.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tklus")).args(args).output().expect("run tklus");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn out_of_range_build_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("tklus-build-flags-{}", std::process::id()));
    let out = dir.to_str().expect("utf-8 temp dir");
    for (flag, value) in
        [("--nodes", "0"), ("--nodes", "40"), ("--geohash-len", "0"), ("--geohash-len", "13")]
    {
        let (code, stderr) = run(&["build-index", "--posts", "200", "--out", out, flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains(value), "{stderr}");
    }
    assert!(!dir.exists(), "a rejected build wrote {out}");
}

#[test]
fn the_range_ends_still_build() {
    let dir = std::env::temp_dir().join(format!("tklus-build-ends-{}", std::process::id()));
    let out = dir.to_str().expect("utf-8 temp dir");
    for (nodes, len) in [("1", "1"), ("32", "12")] {
        let args = ["build-index", "--posts", "200", "--out", out, "--nodes", nodes];
        let (code, stderr) = run(&[&args[..], &["--geohash-len", len]].concat());
        assert_eq!(code, Some(0), "--nodes {nodes} --geohash-len {len}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the built index");
}
