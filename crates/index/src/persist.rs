//! Saving and loading a [`HybridIndex`] as a directory on the real
//! filesystem.
//!
//! Layout (all text formats are line-oriented and human-inspectable):
//!
//! ```text
//! <dir>/meta.tsv          format version, geohash_len, partition count
//! <dir>/vocab.tsv         term_id \t frequency \t term   (ascending ids)
//! <dir>/forward.tsv       geohash \t term_id \t partition \t offset \t len
//! <dir>/checksums.tsv     partition file \t crc32 (hex)
//! <dir>/partitions/part-NNNNN    raw concatenated postings bytes
//! ```
//!
//! The partition count is written as `nodes`, the paper's cluster size:
//! the build cuts the key space into that many geohash ranges
//! (`IndexBuildConfig::nodes`), one partition each. Loading reads the partition bytes
//! back (partition `i` from `part-i`), the dictionary (ids are positions,
//! so interning in file order reproduces them), and the forward directory.
//! Every partition file is verified against its recorded CRC32 before it
//! is trusted, the `format` line must name [`PERSIST_FORMAT_VERSION`] or
//! format 2 (postings without refinement, loaded as refinement 0), and
//! files in `partitions/` that are not partition files are skipped and
//! reported rather than aborting the load (editor swap files, `.DS_Store`,
//! and the like are not corruption). `forward.tsv` carries no checksum, so
//! the load checks what a query relies on: the directory is strictly
//! sorted, every key has the meta's geohash length, and every location
//! lies inside a loaded partition.

use crate::forward::{ForwardIndex, PostingsLocation};
use crate::inverted::HybridIndex;
use crate::posting::{refinement_len, PostingsFormat};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use tklus_geo::{Geohash, MAX_GEOHASH_LEN};
use tklus_storage::crc32;
use tklus_text::{TermId, Vocab};

/// On-disk format version written to (and required from) `meta.tsv`.
///
/// Version history:
/// * **1** — no `postings_format` line. Nothing has written it since
///   version 2 appeared; refused as a [`PersistError::VersionMismatch`].
/// * **2** — adds the mandatory `postings_format` meta line. `flat` is the
///   one value this build writes and reads; a directory naming any other
///   layout (the retired `block` encoding) is refused as a
///   [`PersistError::UnsupportedPostingsFormat`]. Still loads: its
///   postings carry no refinement, so it loads with refinement 0 and its
///   queries drop nothing before the lookup.
/// * **3** — every posting carries its refinement
///   ([`crate::posting::refinement_len`] of `geohash_len` characters) as a
///   little-endian `u16` after its tf. Same files and meta lines as 2.
pub const PERSIST_FORMAT_VERSION: u32 = 3;

/// The oldest `format` this build loads.
const OLDEST_LOADED_FORMAT: u32 = 2;

/// The `postings_format` value of `meta.tsv` for a layout.
fn postings_format_tag(format: PostingsFormat) -> &'static str {
    match format {
        PostingsFormat::Flat => "flat",
    }
}

/// Errors from index persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed metadata/dictionary/directory line.
    Corrupt(String),
    /// The directory was written by an incompatible format version.
    VersionMismatch {
        /// The `format` value found in `meta.tsv` (or a description of its
        /// absence).
        found: String,
        /// The version this build reads.
        expected: u32,
    },
    /// `meta.tsv` names a postings layout this build does not read.
    UnsupportedPostingsFormat {
        /// The `postings_format` value found.
        found: String,
    },
    /// A partition file's bytes do not match their recorded checksum.
    PartitionCorrupt {
        /// The partition file name.
        file: String,
        /// CRC32 recorded in `checksums.tsv`.
        expected: u32,
        /// CRC32 of the bytes actually on disk.
        actual: u32,
    },
    /// A partition file recorded in `checksums.tsv` is absent on disk.
    MissingPartition {
        /// The missing partition file name.
        file: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index io error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt index directory: {m}"),
            PersistError::VersionMismatch { found, expected } => write!(
                f,
                "index format version mismatch: directory has {found}, this build reads \
                 {OLDEST_LOADED_FORMAT} to {expected}"
            ),
            PersistError::UnsupportedPostingsFormat { found } => write!(
                f,
                "index directory holds {found:?} postings, this build reads only {:?}",
                postings_format_tag(PostingsFormat::Flat)
            ),
            PersistError::PartitionCorrupt { file, expected, actual } => write!(
                f,
                "partition {file} is corrupt: checksum {actual:#010x} does not match recorded {expected:#010x}"
            ),
            PersistError::MissingPartition { file } => {
                write!(f, "partition {file} is recorded in checksums.tsv but missing on disk")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn corrupt(message: impl Into<String>) -> PersistError {
    PersistError::Corrupt(message.into())
}

/// The file name of partition `i` under `partitions/`.
fn partition_file(i: usize) -> String {
    format!("part-{i:05}")
}

/// What a load found beyond the index itself: partitions verified and any
/// stray files skipped in `partitions/`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Partition files loaded and checksum-verified.
    pub partitions_loaded: usize,
    /// Files in `partitions/` that are not partition files, skipped.
    pub skipped_files: Vec<String>,
}

/// Writes the index to `dir` (created if missing; existing files are
/// overwritten).
pub fn save_dir(index: &HybridIndex, dir: &Path) -> Result<(), PersistError> {
    std::fs::create_dir_all(dir.join("partitions"))?;

    // meta.tsv — format version first, so incompatible readers stop before
    // interpreting anything else.
    let mut meta = BufWriter::new(std::fs::File::create(dir.join("meta.tsv"))?);
    writeln!(meta, "format\t{PERSIST_FORMAT_VERSION}")?;
    writeln!(meta, "postings_format\t{}", postings_format_tag(PostingsFormat::Flat))?;
    writeln!(meta, "geohash_len\t{}", index.geohash_len())?;
    writeln!(meta, "nodes\t{}", index.partitions().len())?;
    meta.flush()?;

    // vocab.tsv — ascending term id order.
    let mut vocab = BufWriter::new(std::fs::File::create(dir.join("vocab.tsv"))?);
    for (id, term, freq) in index.vocab().iter() {
        debug_assert!(!term.contains('\t') && !term.contains('\n'), "terms are tokenizer output");
        writeln!(vocab, "{}\t{}\t{}", id.0, freq, term)?;
    }
    vocab.flush()?;

    // forward.tsv — already sorted by (geohash, term).
    let mut fwd = BufWriter::new(std::fs::File::create(dir.join("forward.tsv"))?);
    for ((gh, term), loc) in index.forward().iter() {
        writeln!(fwd, "{}\t{}\t{}\t{}\t{}", gh, term.0, loc.partition, loc.offset, loc.len)?;
    }
    fwd.flush()?;

    // Partition files, with a CRC32 per file recorded in checksums.tsv.
    let mut sums = BufWriter::new(std::fs::File::create(dir.join("checksums.tsv"))?);
    for (i, bytes) in index.partitions().iter().enumerate() {
        let file = partition_file(i);
        writeln!(sums, "{file}\t{:08x}", crc32(bytes))?;
        std::fs::write(dir.join("partitions").join(file), bytes)?;
    }
    sums.flush()?;
    Ok(())
}

/// Loads an index previously written by [`save_dir`], reporting what was
/// verified and what was skipped.
pub fn load_dir_with_report(dir: &Path) -> Result<(HybridIndex, LoadReport), PersistError> {
    // meta.tsv — the format line gates everything else.
    let meta = std::fs::read_to_string(dir.join("meta.tsv"))?;
    let mut format: Option<String> = None;
    let mut postings_format: Option<String> = None;
    let mut geohash_len: Option<usize> = None;
    let mut nodes: Option<usize> = None;
    for line in meta.lines() {
        match line.split_once('\t') {
            Some(("format", v)) => format = Some(v.to_string()),
            Some(("postings_format", v)) => postings_format = Some(v.to_string()),
            Some(("geohash_len", v)) => {
                geohash_len = Some(v.parse().map_err(|_| corrupt("geohash_len"))?)
            }
            Some(("nodes", v)) => nodes = Some(v.parse().map_err(|_| corrupt("nodes"))?),
            _ => return Err(corrupt(format!("meta line {line:?}"))),
        }
    }
    let format = match format.as_deref().map(str::parse::<u32>) {
        Some(Ok(v)) if (OLDEST_LOADED_FORMAT..=PERSIST_FORMAT_VERSION).contains(&v) => v,
        _ => {
            return Err(PersistError::VersionMismatch {
                found: format.unwrap_or_else(|| "no format line".to_string()),
                expected: PERSIST_FORMAT_VERSION,
            })
        }
    };
    match postings_format {
        Some(v) if v == postings_format_tag(PostingsFormat::Flat) => {}
        Some(found) => return Err(PersistError::UnsupportedPostingsFormat { found }),
        None => return Err(corrupt("missing postings_format")),
    }
    let geohash_len = geohash_len.ok_or_else(|| corrupt("missing geohash_len"))?;
    if !(1..=MAX_GEOHASH_LEN).contains(&geohash_len) {
        return Err(corrupt(format!("geohash_len {geohash_len}")));
    }
    let nodes = nodes.ok_or_else(|| corrupt("missing nodes"))?;
    let refinement = if format == OLDEST_LOADED_FORMAT { 0 } else { refinement_len(geohash_len) };

    // vocab.tsv — ids must be dense and ascending.
    let mut vocab = Vocab::new();
    let reader = BufReader::new(std::fs::File::open(dir.join("vocab.tsv"))?);
    for line in reader.lines() {
        let line = line?;
        let mut parts = line.splitn(3, '\t');
        let id: u32 =
            parts.next().and_then(|v| v.parse().ok()).ok_or_else(|| corrupt("vocab id"))?;
        let freq: u64 =
            parts.next().and_then(|v| v.parse().ok()).ok_or_else(|| corrupt("vocab freq"))?;
        let term = parts.next().ok_or_else(|| corrupt("vocab term"))?;
        let assigned = vocab.intern(term);
        if assigned.0 != id {
            return Err(corrupt(format!(
                "vocab ids not dense: expected {id}, assigned {}",
                assigned.0
            )));
        }
        vocab.add_occurrences(assigned, freq);
    }

    // forward.tsv — strictly sorted by (geohash, term), every key at the
    // meta's geohash length.
    let mut entries: Vec<((Geohash, TermId), PostingsLocation)> = Vec::new();
    let reader = BufReader::new(std::fs::File::open(dir.join("forward.tsv"))?);
    for line in reader.lines() {
        let line = line?;
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 5 {
            return Err(corrupt(format!("forward line {line:?}")));
        }
        let gh: Geohash = fields[0].parse().map_err(|_| corrupt("forward geohash"))?;
        let term: u32 = fields[1].parse().map_err(|_| corrupt("forward term"))?;
        let partition: u32 = fields[2].parse().map_err(|_| corrupt("forward partition"))?;
        let offset: u64 = fields[3].parse().map_err(|_| corrupt("forward offset"))?;
        let len: u32 = fields[4].parse().map_err(|_| corrupt("forward len"))?;
        let key = (gh, TermId(term));
        if gh.len() != geohash_len {
            return Err(corrupt(format!("forward line {line:?}: not a {geohash_len}-cell")));
        }
        if entries.last().is_some_and(|(prev, _)| *prev >= key) {
            return Err(corrupt(format!("forward line {line:?}: not after its predecessor")));
        }
        entries.push((key, PostingsLocation { partition, offset, len }));
    }

    // checksums.tsv — the set of partition files we expect, and what their
    // bytes must hash to.
    let mut expected: BTreeMap<String, u32> = BTreeMap::new();
    let sums = std::fs::read_to_string(dir.join("checksums.tsv"))?;
    for line in sums.lines() {
        let (file, sum) =
            line.split_once('\t').ok_or_else(|| corrupt(format!("checksum line {line:?}")))?;
        let sum =
            u32::from_str_radix(sum, 16).map_err(|_| corrupt(format!("checksum value {sum:?}")))?;
        expected.insert(file.to_string(), sum);
    }

    // Partition files. Stray files are skipped and reported;
    // recorded-but-absent files are an error.
    let mut report = LoadReport::default();
    let mut partitions: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    let mut names: Vec<String> = std::fs::read_dir(dir.join("partitions"))?
        .map(|e| Ok(e?.file_name().to_string_lossy().into_owned()))
        .collect::<Result<_, PersistError>>()?;
    names.sort();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for name in names {
        let idx: u32 = match name.strip_prefix("part-").and_then(|s| s.parse().ok()) {
            Some(idx) => idx,
            None => {
                report.skipped_files.push(name);
                continue;
            }
        };
        let bytes = std::fs::read(dir.join("partitions").join(&name))?;
        let recorded = *expected
            .get(&name)
            .ok_or_else(|| corrupt(format!("partition {name} has no checksum entry")))?;
        let actual = crc32(&bytes);
        if actual != recorded {
            return Err(PersistError::PartitionCorrupt { file: name, expected: recorded, actual });
        }
        if partitions.insert(idx, bytes).is_some() {
            return Err(corrupt(format!("two files hold partition {idx}")));
        }
        seen.insert(name);
        report.partitions_loaded += 1;
    }
    if let Some(missing) = expected.keys().find(|file| !seen.contains(*file)) {
        return Err(PersistError::MissingPartition { file: missing.clone() });
    }
    if partitions.len() != nodes || partitions.keys().zip(0..).any(|(&idx, i)| idx != i) {
        return Err(corrupt(format!(
            "meta.tsv names {nodes} partitions, partitions/ holds {:?}",
            partitions.keys()
        )));
    }

    let index = HybridIndex::new(
        ForwardIndex::from_sorted(entries),
        vocab,
        partitions.into_values().collect(),
        geohash_len,
        refinement,
    );
    if let Some(((gh, term), loc)) =
        index.forward().iter().find(|(_, loc)| index.bytes_at(*loc).is_none())
    {
        return Err(corrupt(format!(
            "forward entry {gh} term {} names bytes [{}, +{}) outside partition {}",
            term.0, loc.offset, loc.len, loc.partition
        )));
    }
    Ok((index, report))
}

/// On-disk format version of a *sharded* index directory (`manifest.tsv`).
///
/// Version history continues from [`PERSIST_FORMAT_VERSION`]:
/// * **3** — a sharded directory: `manifest.tsv` names the shard count and
///   the `N-1` geohash boundaries of the contiguous prefix ranges, and each
///   shard's index lives in a `shard-NNN/` subdirectory in the monolithic
///   layout ([`PERSIST_FORMAT_VERSION`]). A monolithic directory — no
///   `manifest.tsv` — still loads via [`load_sharded_dir_with_report`] as a
///   single full-range shard.
pub const SHARDED_FORMAT_VERSION: u32 = 3;

/// The `shard-NNN` subdirectory name for shard `i`.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

/// Writes a sharded index directory (format v3): `manifest.tsv` plus one
/// v2 subdirectory per shard. `boundaries` are the `shards.len() - 1`
/// geohash range boundaries, sorted ascending; boundary `i` is the first
/// cell of shard `i + 1`'s half-open range.
pub fn save_sharded_dir(
    shards: &[HybridIndex],
    boundaries: &[Geohash],
    dir: &Path,
) -> Result<(), PersistError> {
    let refs: Vec<&HybridIndex> = shards.iter().collect();
    save_sharded_dir_refs(&refs, boundaries, dir)
}

/// [`save_sharded_dir`] over borrowed indexes — the entry point for
/// callers whose indexes live inside engines (the sharded engine's own
/// save path).
pub fn save_sharded_dir_refs(
    shards: &[&HybridIndex],
    boundaries: &[Geohash],
    dir: &Path,
) -> Result<(), PersistError> {
    if boundaries.len() + 1 != shards.len() {
        return Err(corrupt(format!(
            "{} shards need {} boundaries, got {}",
            shards.len(),
            shards.len().saturating_sub(1),
            boundaries.len()
        )));
    }
    std::fs::create_dir_all(dir)?;
    let mut manifest = BufWriter::new(std::fs::File::create(dir.join("manifest.tsv"))?);
    writeln!(manifest, "format\t{SHARDED_FORMAT_VERSION}")?;
    writeln!(manifest, "shards\t{}", shards.len())?;
    for b in boundaries {
        writeln!(manifest, "boundary\t{b}")?;
    }
    manifest.flush()?;
    for (i, shard) in shards.iter().enumerate() {
        save_dir(shard, &dir.join(shard_dir_name(i)))?;
    }
    Ok(())
}

/// Loads a sharded (v3) *or* monolithic (v2) index directory as a list
/// of shard indexes plus their range boundaries. A monolithic directory
/// loads as one shard covering the whole keyspace (no boundaries) — the
/// forward-compat path that lets every pre-sharding index keep working.
/// Per-shard [`LoadReport`]s are merged; skipped-file names are prefixed
/// with their shard subdirectory.
pub fn load_sharded_dir_with_report(
    dir: &Path,
) -> Result<(Vec<HybridIndex>, Vec<Geohash>, LoadReport), PersistError> {
    let manifest_path = dir.join("manifest.tsv");
    if !manifest_path.exists() {
        // Monolithic v2 directory: one full-range shard.
        let (index, report) = load_dir_with_report(dir)?;
        return Ok((vec![index], Vec::new(), report));
    }
    let manifest = std::fs::read_to_string(&manifest_path)?;
    let mut format: Option<String> = None;
    let mut shard_count: Option<usize> = None;
    let mut boundaries: Vec<Geohash> = Vec::new();
    for line in manifest.lines() {
        match line.split_once('\t') {
            Some(("format", v)) => format = Some(v.to_string()),
            Some(("shards", v)) => {
                shard_count = Some(v.parse().map_err(|_| corrupt("manifest shards"))?)
            }
            Some(("boundary", v)) => {
                boundaries.push(v.parse().map_err(|_| corrupt("manifest boundary"))?)
            }
            _ => return Err(corrupt(format!("manifest line {line:?}"))),
        }
    }
    match format {
        Some(v) if v.parse::<u32>() == Ok(SHARDED_FORMAT_VERSION) => {}
        Some(v) => {
            return Err(PersistError::VersionMismatch {
                found: v,
                expected: SHARDED_FORMAT_VERSION,
            })
        }
        None => {
            return Err(PersistError::VersionMismatch {
                found: "no format line".to_string(),
                expected: SHARDED_FORMAT_VERSION,
            })
        }
    }
    let shard_count = shard_count.ok_or_else(|| corrupt("missing shards line"))?;
    if shard_count == 0 {
        return Err(corrupt("sharded directory with zero shards"));
    }
    if boundaries.len() + 1 != shard_count {
        return Err(corrupt(format!(
            "{shard_count} shards need {} boundaries, manifest has {}",
            shard_count - 1,
            boundaries.len()
        )));
    }
    if boundaries.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("manifest boundaries are not sorted"));
    }
    let mut shards = Vec::with_capacity(shard_count);
    let mut report = LoadReport::default();
    for i in 0..shard_count {
        let name = shard_dir_name(i);
        let (index, shard_report) = load_dir_with_report(&dir.join(&name))?;
        report.partitions_loaded += shard_report.partitions_loaded;
        report
            .skipped_files
            .extend(shard_report.skipped_files.into_iter().map(|f| format!("{name}/{f}")));
        shards.push(index);
    }
    Ok((shards, boundaries, report))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are the failure report
mod tests {
    use super::*;
    use crate::build::{build_index, IndexBuildConfig};
    use tklus_geo::{DistanceMetric, Point};
    use tklus_model::{Post, TweetId, UserId};

    fn posts() -> Vec<Post> {
        (0..300u64)
            .map(|i| {
                let lat = 43.6 + (i % 15) as f64 * 0.01;
                let lon = -79.5 + (i % 11) as f64 * 0.01;
                let text = match i % 3 {
                    0 => "hotel by the lake",
                    1 => "pizza pizza downtown",
                    _ => "coffee and games",
                };
                Post::original(TweetId(i + 1), UserId(i % 40), Point::new_unchecked(lat, lon), text)
            })
            .collect()
    }

    fn load_err(dir: &Path) -> PersistError {
        match load_dir_with_report(dir) {
            Err(e) => e,
            Ok(_) => panic!("load of a damaged directory must fail"),
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tklus-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn saved_dir(name: &str) -> std::path::PathBuf {
        let (index, _) = build_index(&posts(), &IndexBuildConfig::default());
        let dir = tmp_dir(name);
        save_dir(&index, &dir).unwrap();
        dir
    }

    /// The first non-empty partition file in `dir` (smallest name).
    fn first_partition(dir: &Path) -> std::path::PathBuf {
        let mut names: Vec<_> = std::fs::read_dir(dir.join("partitions"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
            .iter()
            .map(|n| dir.join("partitions").join(n))
            .find(|p| std::fs::metadata(p).unwrap().len() > 0)
            .expect("a non-empty partition exists")
    }

    #[test]
    fn save_load_roundtrip_preserves_queries() {
        let (index, report) = build_index(&posts(), &IndexBuildConfig::default());
        let dir = tmp_dir("roundtrip");
        save_dir(&index, &dir).unwrap();
        let (loaded, load_report) = load_dir_with_report(&dir).unwrap();
        assert!(load_report.partitions_loaded > 0);
        assert!(load_report.skipped_files.is_empty());

        assert_eq!(loaded.geohash_len(), index.geohash_len());
        assert_eq!(loaded.forward().len(), index.forward().len());
        assert_eq!(loaded.vocab().len(), index.vocab().len());
        assert_eq!(loaded.partitions(), index.partitions());
        let bytes: usize = loaded.partitions().iter().map(Vec::len).sum();
        assert_eq!(bytes as u64, report.index_bytes);

        // Same postings for every keyword over a query region.
        let center = Point::new_unchecked(43.68, -79.45);
        for kw in ["hotel", "pizza", "coffe", "game"] {
            let t1 = index.vocab().get(kw);
            let t2 = loaded.vocab().get(kw);
            assert_eq!(t1, t2, "{kw}: term ids must be identical");
            let Some(t) = t1 else { continue };
            let f1 = index.fetch_for_query(&center, 30.0, &[t], DistanceMetric::Euclidean);
            let f2 = loaded.fetch_for_query(&center, 30.0, &[t], DistanceMetric::Euclidean);
            assert_eq!(f1.per_keyword, f2.per_keyword, "{kw}");
        }
        // Term frequencies survive (Table II reproducibility from a loaded
        // index).
        let top1: Vec<_> = index.vocab().top_terms(5);
        let top2: Vec<_> = loaded.vocab().top_terms(5);
        assert_eq!(top1, top2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_dir_errors() {
        let err = match load_dir_with_report(Path::new("/nonexistent/tklus-index")) {
            Err(e) => e,
            Ok(_) => panic!("missing directory must not load"),
        };
        assert!(matches!(err, PersistError::Io(_)), "{err}");
    }

    #[test]
    fn corrupt_meta_detected() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(dir.join("partitions")).unwrap();
        std::fs::write(dir.join("meta.tsv"), "format\t1\nbogus\t4\n").unwrap();
        std::fs::write(dir.join("vocab.tsv"), "").unwrap();
        std::fs::write(dir.join("forward.tsv"), "").unwrap();
        std::fs::write(dir.join("checksums.tsv"), "").unwrap();
        let err = match load_dir_with_report(&dir) {
            Err(e) => e,
            Ok(_) => panic!("corrupt meta must not load"),
        };
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let dir = saved_dir("version");
        let meta = std::fs::read_to_string(dir.join("meta.tsv")).unwrap();
        std::fs::write(dir.join("meta.tsv"), meta.replace("format\t3", "format\t99")).unwrap();
        let err = load_err(&dir);
        assert!(
            matches!(&err, PersistError::VersionMismatch { found, expected: 3 } if found == "99"),
            "{err}"
        );
        // A directory with no format line at all is also a version mismatch
        // (pre-versioning layout), not a parse error.
        std::fs::write(dir.join("meta.tsv"), meta.replace("format\t3\n", "")).unwrap();
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::VersionMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_directory_is_refused_with_a_typed_error() {
        // What builds that still had the block layout wrote by default: a
        // v2 meta naming it. Its partition bytes must never be parsed as
        // flat postings.
        let dir = saved_dir("v2-block");
        let meta = std::fs::read_to_string(dir.join("meta.tsv")).unwrap();
        assert!(meta.contains("postings_format\tflat\n"), "{meta}");
        std::fs::write(
            dir.join("meta.tsv"),
            meta.replace("postings_format\tflat", "postings_format\tblock"),
        )
        .unwrap();
        let err = load_err(&dir);
        assert!(
            matches!(&err, PersistError::UnsupportedPostingsFormat { found } if found == "block"),
            "{err}"
        );
        // A v2 meta with no postings_format line at all is corrupt.
        std::fs::write(dir.join("meta.tsv"), meta.replace("postings_format\tflat\n", "")).unwrap();
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_directory_is_refused_with_a_typed_error() {
        // A v1 directory is a flat save whose meta says `format 1` and
        // has no postings_format line.
        let dir = saved_dir("v1");
        let meta = std::fs::read_to_string(dir.join("meta.tsv")).unwrap();
        std::fs::write(
            dir.join("meta.tsv"),
            meta.replace("format\t3", "format\t1").replace("postings_format\tflat\n", ""),
        )
        .unwrap();
        let err = load_err(&dir);
        assert!(
            matches!(&err, PersistError::VersionMismatch { found, expected: 3 } if found == "1"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hand_assembled_flat_v2_directory_loads_and_answers() {
        // Every byte below is format 2 as `save_dir` has written it for a
        // flat index since that format appeared — two "hotel" tweets (ids
        // 5 and 7, tf 1 and 2) in Toronto cell dpz8. No call into this
        // build's writer, so a change to the on-disk layout fails here.
        let dir = tmp_dir("hand-v2");
        std::fs::create_dir_all(dir.join("partitions")).unwrap();
        std::fs::write(
            dir.join("meta.tsv"),
            "format\t2\npostings_format\tflat\ngeohash_len\t4\nnodes\t1\n",
        )
        .unwrap();
        std::fs::write(dir.join("vocab.tsv"), "0\t3\thotel\n").unwrap();
        std::fs::write(dir.join("forward.tsv"), "dpz8\t0\t0\t0\t5\n").unwrap();
        // varint count 2, then (id delta, tf) pairs: (5, 1), (2, 2).
        std::fs::write(dir.join("partitions").join("part-00000"), [2u8, 5, 1, 2, 2]).unwrap();
        std::fs::write(dir.join("checksums.tsv"), "part-00000\t56c63dd6\n").unwrap();

        let (index, report) = load_dir_with_report(&dir).unwrap();
        assert_eq!(report.partitions_loaded, 1);
        assert_eq!(index.geohash_len(), 4);
        let hotel = index.vocab().get("hotel").unwrap();
        assert_eq!(index.vocab().frequency(hotel), 3);
        let center = Point::new_unchecked(43.67, -79.39);
        let fetch = index.fetch_for_query(&center, 5.0, &[hotel], DistanceMetric::Euclidean);
        assert_eq!(fetch.lists, 1);
        assert_eq!(fetch.bytes, 5);
        let got: Vec<(u64, u32)> =
            fetch.per_keyword[0][0].postings().iter().map(|p| (p.id.0, p.tf)).collect();
        assert_eq!(got, vec![(5, 1), (7, 2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_line_written_before_the_crc_kernel_change_verifies() {
        // As above, but the bytes are what the last build with the
        // byte-at-a-time CRC wrote for twelve Toronto tweets: a 38-byte
        // partition, long enough for the sliced kernel's 8-byte steps and
        // its tail, under the `checksums.tsv` value that build recorded.
        let dir = tmp_dir("hand-v2-crc");
        std::fs::create_dir_all(dir.join("partitions")).unwrap();
        std::fs::write(
            dir.join("meta.tsv"),
            "format\t2\npostings_format\tflat\ngeohash_len\t4\nnodes\t1\n",
        )
        .unwrap();
        std::fs::write(dir.join("vocab.tsv"), "0\t18\thotel\n1\t6\tspa\n").unwrap();
        std::fs::write(dir.join("forward.tsv"), "dpz8\t0\t0\t0\t25\ndpz8\t1\t0\t25\t13\n").unwrap();
        let part: [u8; 38] = [
            12, 5, 1, 3, 2, 3, 1, 3, 2, 3, 1, 3, 2, 3, 1, 3, 2, 3, 1, 3, 2, 3, 1, 3, 2, 6, 8, 1, 6,
            1, 6, 1, 6, 1, 6, 1, 6, 1,
        ];
        std::fs::write(dir.join("partitions").join("part-00000"), part).unwrap();
        std::fs::write(dir.join("checksums.tsv"), "part-00000\ta4db452a\n").unwrap();

        let (index, report) = load_dir_with_report(&dir).unwrap();
        assert_eq!(report.partitions_loaded, 1);
        let hotel = index.vocab().get("hotel").unwrap();
        let cell = tklus_geo::encode(&Point::new_unchecked(43.67, -79.39), 4).unwrap();
        let list = index.postings(cell, hotel).unwrap();
        assert_eq!(list.len(), 12);
        assert_eq!(list.postings().iter().map(|p| p.tf as u64).sum::<u64>(), 18);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hand_assembled_format_3_directory_loads_and_answers_as_a_fresh_build() {
        // Format 3 as `save_dir` writes it, every byte literal: "hotel"
        // tweets 5 (tf 1, at 43.67, -79.39) and 7 (tf 2, at 43.68, -79.38)
        // in Toronto cell dpz8, each posting followed by its three
        // characters below the key as a little-endian u16.
        let dir = tmp_dir("hand-v3");
        std::fs::create_dir_all(dir.join("partitions")).unwrap();
        std::fs::write(
            dir.join("meta.tsv"),
            "format\t3\npostings_format\tflat\ngeohash_len\t4\nnodes\t1\n",
        )
        .unwrap();
        std::fs::write(dir.join("vocab.tsv"), "0\t3\thotel\n").unwrap();
        std::fs::write(dir.join("forward.tsv"), "dpz8\t0\t0\t0\t9\n").unwrap();
        // Count 2, then (id delta, tf, refinement): (5, 1, 0x0e7b), (2, 2, 0x0fb9).
        let part = [2u8, 5, 1, 0x7b, 0x0e, 2, 2, 0xb9, 0x0f];
        std::fs::write(dir.join("partitions").join("part-00000"), part).unwrap();
        std::fs::write(dir.join("checksums.tsv"), "part-00000\tf4886e1e\n").unwrap();

        let (index, report) = load_dir_with_report(&dir).unwrap();
        assert_eq!(report.partitions_loaded, 1);
        assert_eq!(index.refinement(), 3);
        let posts = [
            Post::original(TweetId(5), UserId(1), Point::new_unchecked(43.67, -79.39), "hotel"),
            Post::original(
                TweetId(7),
                UserId(2),
                Point::new_unchecked(43.68, -79.38),
                "hotel hotel",
            ),
        ];
        let (fresh, _) = build_index(&posts, &IndexBuildConfig::default());
        assert_eq!(index.partitions(), fresh.partitions());
        assert!(index.forward().iter().eq(fresh.forward().iter()));
        assert!(index.vocab().iter().eq(fresh.vocab().iter()));
        let hotel = index.vocab().get("hotel").unwrap();
        // 0.5 km around tweet 5: tweet 7, 1.4 km away, is dropped from
        // the list before any lookup; 5 km keeps both.
        let center = Point::new_unchecked(43.67, -79.39);
        for (radius, want) in [(0.5, vec![5]), (5.0, vec![5, 7])] {
            let got = index.fetch_for_query(&center, radius, &[hotel], DistanceMetric::Euclidean);
            let ids: Vec<u64> = got.per_keyword[0][0].postings().iter().map(|p| p.id.0).collect();
            assert_eq!(ids, want, "{radius} km");
            assert_eq!(got.refined_out, 2 - want.len());
            let again = fresh.fetch_for_query(&center, radius, &[hotel], DistanceMetric::Euclidean);
            assert_eq!(got.per_keyword, again.per_keyword);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_2_loads_with_no_refinement_and_answers_as_format_3() {
        // A format-2 directory of the same index: the partition bytes
        // without each posting's two refinement bytes.
        let (index, _) = build_index(&posts(), &IndexBuildConfig::default());
        let dir = saved_dir("as-format-2");
        let mut forward = String::new();
        let mut part = Vec::new();
        for ((gh, term), loc) in index.forward().iter() {
            let (list, _) = index.try_read_postings(*loc).unwrap();
            let offset = part.len();
            part.extend(list.encode(0));
            forward.push_str(&format!("{gh}\t{}\t0\t{offset}\t{}\n", term.0, part.len() - offset));
        }
        let meta = std::fs::read_to_string(dir.join("meta.tsv")).unwrap();
        std::fs::write(dir.join("meta.tsv"), meta.replace("format\t3", "format\t2")).unwrap();
        std::fs::write(dir.join("forward.tsv"), forward).unwrap();
        std::fs::write(dir.join("partitions").join("part-00000"), &part).unwrap();
        std::fs::write(dir.join("checksums.tsv"), format!("part-00000\t{:08x}\n", crc32(&part)))
            .unwrap();
        let (old, _) = load_dir_with_report(&dir).unwrap();
        assert_eq!(old.refinement(), 0);
        let center = Point::new_unchecked(43.66, -79.44);
        let ids = |index: &HybridIndex, t, radius| -> Vec<u64> {
            let fetch = index.fetch_for_query(&center, radius, &[t], DistanceMetric::Haversine);
            crate::union_sum(&fetch.per_keyword[0]).iter().map(|(id, _)| id.0).collect()
        };
        let hotel = index.vocab().get("hotel").unwrap();
        let corpus = posts();
        for radius in [0.5, 2.0, 30.0] {
            let inside = |ids: Vec<u64>| -> Vec<u64> {
                let at = |id: u64| corpus[id as usize - 1].location;
                ids.into_iter().filter(|&id| center.haversine_km(&at(id)) <= radius).collect()
            };
            let (all, kept) = (ids(&old, hotel, radius), ids(&index, hotel, radius));
            // The format-2 fetch drops nothing; what the refinement drops
            // is outside the circle, so the in-radius posts are the same.
            assert!(all.len() >= kept.len(), "{radius} km");
            let want = inside(all);
            assert!(!want.is_empty(), "{radius} km: the circle holds a hotel post");
            assert_eq!(inside(kept), want, "{radius} km");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_meta_is_typed() {
        let dir = saved_dir("truncated-meta");
        // Keep only the first two lines: nodes is gone.
        let meta = std::fs::read_to_string(dir.join("meta.tsv")).unwrap();
        let short: String = meta.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(dir.join("meta.tsv"), short).unwrap();
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_partition_is_typed() {
        let dir = saved_dir("bitflip");
        let part = first_partition(&dir);
        let mut bytes = std::fs::read(&part).unwrap();
        assert!(!bytes.is_empty());
        bytes[0] ^= 0x40;
        std::fs::write(&part, bytes).unwrap();
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::PartitionCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites `dir`'s `forward.tsv` through `edit` on its lines.
    fn edit_forward(dir: &Path, edit: impl FnOnce(&mut Vec<String>)) {
        let text = std::fs::read_to_string(dir.join("forward.tsv")).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        edit(&mut lines);
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(dir.join("forward.tsv"), text).unwrap();
    }

    /// `forward.tsv` with every line's offset field set to `offset`.
    fn forward_with_offsets(dir: &Path, offset: &str) {
        edit_forward(dir, |lines| {
            for line in lines.iter_mut() {
                let mut fields: Vec<&str> = line.split('\t').collect();
                fields[3] = offset;
                *line = fields.join("\t");
            }
        });
    }

    #[test]
    fn unsorted_forward_directory_is_typed() {
        // Two neighbouring lines swapped: the directory's binary search
        // would miss keys, so the load refuses it.
        let dir = saved_dir("forward-swapped");
        edit_forward(&dir, |lines| lines.swap(1, 2));
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        // A duplicated line is not strictly sorted either.
        let dir = saved_dir("forward-duplicated");
        edit_forward(&dir, |lines| lines.insert(1, lines[1].clone()));
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn location_past_its_partition_is_typed() {
        let dir = saved_dir("forward-past-end");
        forward_with_offsets(&dir, "99999999");
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        // A partition the directory does not hold.
        let dir = saved_dir("forward-no-partition");
        edit_forward(&dir, |lines| {
            let fields: Vec<&str> = lines[0].split('\t').collect();
            lines[0] = format!("{}\t{}\t7\t{}\t{}", fields[0], fields[1], fields[3], fields[4]);
        });
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn location_whose_end_overflows_is_typed() {
        // offset + len wraps past u64::MAX: a range check without checked
        // arithmetic passes it and the slice panics.
        let dir = saved_dir("forward-overflow");
        forward_with_offsets(&dir, "18446744073709551610");
        let err = load_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_must_agree_with_the_directory() {
        // The partition count, and the cell length of every key.
        let dir = saved_dir("meta-disagrees");
        let meta = std::fs::read_to_string(dir.join("meta.tsv")).unwrap();
        for wrong in [meta.replace("nodes\t1", "nodes\t2"), meta.replace("len\t4", "len\t5")] {
            std::fs::write(dir.join("meta.tsv"), wrong).unwrap();
            let err = load_err(&dir);
            assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_partition_is_typed() {
        let dir = saved_dir("missing-part");
        let part = first_partition(&dir);
        let name = part.file_name().unwrap().to_string_lossy().into_owned();
        std::fs::remove_file(&part).unwrap();
        let err = load_err(&dir);
        assert!(matches!(&err, PersistError::MissingPartition { file } if *file == name), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_roundtrip_preserves_each_shard() {
        let all = posts();
        let mid = all.len() / 2;
        let (left, _) = build_index(&all[..mid], &IndexBuildConfig::default());
        let (right, _) = build_index(&all[mid..], &IndexBuildConfig::default());
        let boundary = tklus_geo::encode(&Point::new_unchecked(43.68, -79.45), 4).unwrap();
        let dir = tmp_dir("sharded-roundtrip");
        save_sharded_dir(&[left, right], &[boundary], &dir).unwrap();
        let (shards, boundaries, report) = load_sharded_dir_with_report(&dir).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(boundaries, vec![boundary]);
        assert!(report.partitions_loaded > 0);
        // Each shard answers identically to a fresh build over its slice.
        let (fresh, _) = build_index(&all[..mid], &IndexBuildConfig::default());
        let center = Point::new_unchecked(43.68, -79.45);
        let hotel = fresh.vocab().get("hotel").unwrap();
        let f1 = fresh.fetch_for_query(&center, 30.0, &[hotel], DistanceMetric::Euclidean);
        let f2 = shards[0].fetch_for_query(&center, 30.0, &[hotel], DistanceMetric::Euclidean);
        assert_eq!(f1.per_keyword, f2.per_keyword);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn monolithic_dir_loads_as_single_shard() {
        let dir = saved_dir("mono-as-shard");
        let (shards, boundaries, report) = load_sharded_dir_with_report(&dir).unwrap();
        assert_eq!(shards.len(), 1);
        assert!(boundaries.is_empty());
        assert!(report.partitions_loaded > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_manifest_errors_are_typed() {
        let (index, _) = build_index(&posts(), &IndexBuildConfig::default());
        let boundary = tklus_geo::encode(&Point::new_unchecked(43.68, -79.45), 4).unwrap();
        // Boundary count must match the shard count.
        let dir = tmp_dir("sharded-bad-save");
        let err = save_sharded_dir(&[index], &[boundary], &dir).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);

        // A wrong manifest format version is a typed mismatch.
        let (a, _) = build_index(&posts(), &IndexBuildConfig::default());
        let dir = tmp_dir("sharded-bad-version");
        save_sharded_dir(&[a], &[], &dir).unwrap();
        let load_sharded_err = |dir: &Path| match load_sharded_dir_with_report(dir) {
            Err(e) => e,
            Ok(_) => panic!("load of a damaged sharded directory must fail"),
        };
        let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        std::fs::write(dir.join("manifest.tsv"), manifest.replace("format\t3", "format\t9"))
            .unwrap();
        let err = load_sharded_err(&dir);
        assert!(
            matches!(&err, PersistError::VersionMismatch { found, expected: 3 } if found == "9"),
            "{err}"
        );
        // A manifest claiming more shards than it has boundaries for.
        std::fs::write(dir.join("manifest.tsv"), "format\t3\nshards\t2\n").unwrap();
        let err = load_sharded_err(&dir);
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_files_are_skipped_and_reported() {
        let dir = saved_dir("stray");
        std::fs::write(dir.join("partitions").join(".DS_Store"), b"junk").unwrap();
        std::fs::write(dir.join("partitions").join("part-00000.swp"), b"vim").unwrap();
        let (loaded, report) = load_dir_with_report(&dir).unwrap();
        assert!(!loaded.forward().is_empty());
        assert_eq!(report.skipped_files, vec![".DS_Store", "part-00000.swp"]);
        assert!(report.partitions_loaded > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
