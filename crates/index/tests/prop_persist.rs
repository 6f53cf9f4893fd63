//! Index-directory loader robustness (DESIGN.md §10).
//!
//! The partition files are checksummed; the four text files beside them
//! are not, so the loader is all that stands between a damaged line and a
//! query. For a saved directory with one line of `meta.tsv`, `vocab.tsv`,
//! `forward.tsv` or `checksums.tsv` deleted, duplicated, swapped with its
//! neighbour, or byte-damaged:
//!
//! * **the load never panics** — it returns the index or a typed
//!   [`PersistError`] that says what was wrong;
//! * **a loaded index never panics** — `try_fetch_for_query` and the
//!   query's own `try_fetch_candidates` over every directory cell and term
//!   return postings or a typed `IndexError`.

#![allow(clippy::unwrap_used)] // test code: panics are the failure report

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use tklus_geo::{Cell, Circle, DistanceMetric, Geohash, Point};
use tklus_index::{build_index, load_dir_with_report, save_dir, IndexBuildConfig};
use tklus_model::{Post, TweetId, UserId};

const TEXT_FILES: [&str; 4] = ["meta.tsv", "vocab.tsv", "forward.tsv", "checksums.tsv"];

/// A fresh, empty directory under the system temp dir.
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tklus-prop-persist-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of a saved three-partition index, as `(path under the
/// directory, bytes)`, built and read once.
fn pristine() -> &'static [(PathBuf, Vec<u8>)] {
    static FILES: OnceLock<Vec<(PathBuf, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        // Three continents, so more than one partition holds bytes.
        let places = [(-23.99, -46.23), (43.67, -79.38), (57.64, 10.40), (-33.87, 151.21)];
        let texts = ["hotel spa pool", "pizza hotel pizza", "beach sunrise"];
        let posts: Vec<Post> = (0..120u64)
            .map(|i| {
                let (lat, lon) = places[(i % 4) as usize];
                let at = Point::new_unchecked(lat + (i % 5) as f64 * 0.05, lon);
                let text = format!("{} word{}", texts[(i % 3) as usize], i % 7);
                Post::original(TweetId(i + 1), UserId(i % 9), at, text)
            })
            .collect();
        let (index, _) = build_index(&posts, &IndexBuildConfig { nodes: 3, ..Default::default() });
        let dir = fresh_dir();
        save_dir(&index, &dir).unwrap();
        let mut files: Vec<(PathBuf, Vec<u8>)> =
            TEXT_FILES.iter().map(|f| (PathBuf::from(f), Vec::new())).collect();
        for entry in std::fs::read_dir(dir.join("partitions")).unwrap() {
            files.push((Path::new("partitions").join(entry.unwrap().file_name()), Vec::new()));
        }
        for (path, bytes) in &mut files {
            *bytes = std::fs::read(dir.join(&path)).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
        files
    })
}

/// A circle around `cell` that reaches every point on the globe, so the
/// refinement drops nothing.
fn around(cell: Geohash) -> Circle {
    let center = Cell::from_geohash(&cell).center();
    Circle { center, radius_km: 25_000.0, metric: DistanceMetric::Haversine }
}

/// What happens to the chosen line.
#[derive(Debug, Clone)]
enum Damage {
    Delete,
    Duplicate,
    SwapWithNext,
    /// Overwrite the byte at this position (modulo the line's length).
    Byte(usize, u8),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    // Bytes a line is made of get further into the parser than noise.
    let byte = prop_oneof![any::<u8>(), (0usize..20).prop_map(|i| b"0123456789\t-bcdpzu f"[i])];
    prop_oneof![
        Just(Damage::Delete),
        Just(Damage::Duplicate),
        Just(Damage::SwapWithNext),
        (any::<usize>(), byte).prop_map(|(at, b)| Damage::Byte(at, b)),
    ]
}

/// `bytes` (newline-terminated lines) with line `line` (modulo the line
/// count) damaged.
fn damaged(bytes: &[u8], line: usize, damage: &Damage) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    lines.pop(); // the empty piece after the final newline
    if lines.is_empty() {
        return bytes.to_vec();
    }
    let at = line % lines.len();
    match *damage {
        Damage::Delete => {
            lines.remove(at);
        }
        Damage::Duplicate => lines.insert(at, lines[at].clone()),
        Damage::SwapWithNext => {
            let next = (at + 1) % lines.len();
            lines.swap(at, next);
        }
        Damage::Byte(pos, byte) => {
            let target = &mut lines[at];
            if !target.is_empty() {
                let pos = pos % target.len();
                target[pos] = byte;
            }
        }
    }
    lines
        .into_iter()
        .flat_map(|mut l| {
            l.push(b'\n');
            l
        })
        .collect()
}

/// Writes the saved directory with `file`'s line damaged, loads it, and
/// queries every directory entry of whatever loaded.
fn load_damaged(file: usize, line: usize, damage: &Damage) -> Result<(), TestCaseError> {
    let dir = fresh_dir();
    std::fs::create_dir_all(dir.join("partitions")).unwrap();
    for (path, bytes) in pristine() {
        let bytes = if path == Path::new(TEXT_FILES[file]) {
            damaged(bytes, line, damage)
        } else {
            bytes.clone()
        };
        std::fs::write(dir.join(path), bytes).unwrap();
    }
    let loaded = load_dir_with_report(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    match loaded {
        Err(e) => prop_assert!(!e.to_string().is_empty(), "a load error must say what was wrong"),
        Ok((index, _)) => {
            for &((cell, term), _) in index.forward().iter() {
                if let Err(e) = index.try_fetch_for_query(&[cell], &around(cell), &[term], |_| true)
                {
                    prop_assert!(!e.to_string().is_empty());
                }
                let fetch = index.try_fetch_candidates(&[cell], &around(cell), &[term], |_| true);
                if let Err(e) = fetch {
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One line of one text file deleted, duplicated, swapped with its
    /// neighbour or byte-damaged: a typed error or a working index.
    #[test]
    fn a_damaged_line_loads_or_fails_typed(
        file in 0usize..TEXT_FILES.len(),
        line in any::<usize>(),
        damage in arb_damage(),
    ) {
        load_damaged(file, line, &damage)?;
    }
}

/// The undamaged directory loads and answers: the property above starts
/// from a directory that works.
#[test]
fn the_pristine_directory_loads() {
    let dir = fresh_dir();
    std::fs::create_dir_all(dir.join("partitions")).unwrap();
    for (path, bytes) in pristine() {
        std::fs::write(dir.join(path), bytes).unwrap();
    }
    let (index, report) = load_dir_with_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(report.partitions_loaded, 3);
    assert!(index.partitions().iter().filter(|p| !p.is_empty()).count() > 1);
    for &((cell, term), _) in index.forward().iter() {
        let fetch = index.try_fetch_for_query(&[cell], &around(cell), &[term], |_| true).unwrap();
        assert_eq!((fetch.lists, fetch.refined_out), (1, 0));
    }
}
