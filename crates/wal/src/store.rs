//! The crash-safe ingest store: WAL-fronted LSM over the TkLUS engine.
//!
//! # Shape
//!
//! ```text
//!   ingest ──▶ WAL append (fsync) ──▶ apply to live state ──▶ ack
//!                                        │
//!              sealed engine             ▼
//!              (read-only index     MemtableIndex (live postings
//!               and metadata over    + live metadata)
//!               sealed posts)
//!                      ▲
//!                      └── compaction: touched geohash partitions
//!                          rewritten, untouched ones carried forward
//!                          by name; built OFF the latch, installed by
//!                          a seq-fenced swap under the write latch
//! ```
//!
//! The sealed engine — index and metadata — covers only *sealed* posts.
//! It is built at open and at every compaction round and never written
//! afterwards. A live post's postings and metadata (row, reply edge,
//! author location) live in the memtable, so applying an acked record
//! touches no page and cannot fail. A query of either ranking is one
//! gather, which reproduces a from-scratch engine's answers **bitwise**
//! (the oracle suite asserts equality, not closeness): sealed
//! [`TklusEngine::try_partial_sum`] rows and memtable rows (scored by the
//! same per-candidate body, [`TklusEngine::try_score_candidates`]) merge
//! by tweet id — the monolithic fold order — and
//! [`TklusEngine::try_rank_rows`] folds them per user (`+=` for Sum, `max`
//! for Max), blends and ranks with the engine's own code: the very fold a
//! monolithic engine's query runs. All three read the sealed trees through
//! the memtable's [`tklus_core::LiveMetadata`] overlay, so live replies
//! count in sealed threads and live posts in a user's `P_u`.
//!
//! # Incremental, off-latch compaction
//!
//! Seal files are partitioned by the leading geohash character — the
//! paper's coarse spatial grouping — and the manifest names one file per
//! partition, LSM-style: a compaction rewrites only the partitions the
//! live memtable actually touched and **carries forward** every other
//! partition's file by name, so seal I/O is proportional to the delta's
//! spatial footprint, not the corpus.
//!
//! The protocol has three phases:
//!
//! 1. **Snapshot** (read lock): record the seq fence (the highest acked
//!    seq), clone the acked set, and note which partitions the live
//!    records touch. Ingest resumes the moment the lock drops.
//! 2. **Build** (no lock): write the touched partitions' replacement
//!    seal files (fsynced), stage `MANIFEST.tmp` — fsynced but **not**
//!    renamed — and rebuild the engine over the snapshot. Queries and
//!    ingest run concurrently throughout.
//! 3. **Swap** (write lock): `MANIFEST.tmp → MANIFEST` is the atomic
//!    commit point; then install the built engine, advance the sealed
//!    prefix to the fence, and refill a fresh memtable with the records
//!    acked *during* the build (their seqs are above the fence) — they
//!    stay live and are absorbed by the next round. The latch is held
//!    only for the rename plus the refill, never for the O(corpus) build.
//!
//! # Crash safety
//!
//! An ingest is acked only after its WAL frame is appended (and, under
//! [`FsyncPolicy::Always`], fsynced). Recovery replays the log over the
//! sealed state named by `MANIFEST`, skipping records compaction already
//! absorbed (`seq ≤ sealed_seq`), truncating the final segment's torn
//! tail, and refusing mid-log corruption. A crash anywhere in the
//! compaction schedule leaves either the old manifest (the WAL still
//! replays everything above the old fence) or the new one (replay skips
//! the newly sealed prefix) — never a mix; partition files staged by a
//! build that never committed are unreferenced and swept at reopen.
//!
//! The WAL trim after a swap is **seq-fenced**: a segment is removed only
//! when every record it holds is at or below the fence. Records acked
//! during an off-latch build land in pre-rotation segments but carry
//! post-fence seqs, so the trim keeps their segments alive until a later
//! round absorbs them.
//!
//! # Failure containment
//!
//! An ingest fails only before anything is applied: at the duplicate
//! check or the WAL append. The live apply is in-memory and infallible,
//! so no query ever observes a half-applied tweet and no error leaves the
//! live state suspect. A query can fail typed (a metadata page fault
//! under the sealed trees) and leaves nothing behind. A compaction that
//! fails — a seal-file write, or a metadata fault in the engine build —
//! sweeps what it staged and installs nothing: the old engine and the
//! memtable keep answering. Compaction failures are counted in
//! [`IngestStore::compaction_stats`]; the background compactor backs off
//! exponentially on repeated failure and the serving layer surfaces the
//! persistent-failure flag through `/health`.
//!
//! [`FsyncPolicy::Always`]: crate::log::FsyncPolicy::Always

use crate::error::WalError;
use crate::frame::{decode_step, encode_frame, FrameStep};
use crate::fs::WalFs;
use crate::log::{parse_segment_name, replay, RecoveryReport, WalConfig, WalWriter};
use crate::memtable::MemtableIndex;
use crate::record::{decode_record, encode_record, WalRecord};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tklus_core::{
    merge_sum_rows, EngineConfig, LiveMetadata, RankedUser, Ranking, SumRow, TklusEngine,
};
use tklus_geo::{circle_cover, encode, Geohash};
use tklus_model::{Corpus, Post, TklusQuery, TweetId};
use tklus_storage::crc32;

/// Manifest header line.
const MANIFEST_MAGIC: &str = "TKLUSMANIFEST 1";
/// The manifest's durable name.
pub const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// Consecutive compaction failures after which the store reports
/// persistent failure (and `/health` goes unhealthy).
const PERSISTENT_FAILURE_THRESHOLD: u64 = 3;
/// Ceiling for the background compactor's exponential backoff.
const MAX_COMPACTOR_BACKOFF: Duration = Duration::from_secs(5);

/// How [`IngestStore::compact`] schedules its work. One variant: the
/// enum survives only because `StoreConfig::strategy` is printed by the
/// frozen `benchmark/` harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionStrategy {
    /// Snapshot under a read lock, build the replacement partitions and
    /// engine off the latch, then take the write latch only for the
    /// seq-fenced manifest swap. Rewrites only touched partitions.
    Incremental,
}

/// Ingest store configuration.
#[derive(Clone)]
pub struct StoreConfig {
    /// Engine build parameters (scoring, index, metadata store).
    pub engine: EngineConfig,
    /// WAL segment size and fsync policy.
    pub wal: WalConfig,
    /// Background compactor: seal once this many posts are live. The
    /// synchronous [`IngestStore::compact`] ignores it.
    pub compact_threshold: usize,
    /// Background compactor poll interval (also the base of its failure
    /// backoff).
    pub compact_interval: Duration,
    /// Compaction scheduling (always off-latch incremental; never read).
    pub strategy: CompactionStrategy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            wal: WalConfig::default(),
            compact_threshold: 1024,
            compact_interval: Duration::from_millis(20),
            strategy: CompactionStrategy::Incremental,
        }
    }
}

/// What [`IngestStore::open`] found and rebuilt.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// WAL scan outcome (segments, torn-tail truncation).
    pub recovery: RecoveryReport,
    /// Posts loaded from sealed partitions.
    pub sealed_posts: usize,
    /// Posts replayed from the WAL into the live memtable.
    pub live_posts: usize,
    /// Compaction generation of the manifest loaded (0 = none).
    pub generation: u64,
}

/// The sealed state a manifest names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Manifest {
    generation: u64,
    sealed_seq: u64,
    /// `(file name, record count)` pairs, in manifest order. Files from
    /// older generations carried forward keep their original names.
    files: Vec<(String, usize)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut text = String::new();
        text.push_str(MANIFEST_MAGIC);
        text.push('\n');
        text.push_str(&format!("generation {}\n", self.generation));
        text.push_str(&format!("sealed_seq {}\n", self.sealed_seq));
        for (name, count) in &self.files {
            text.push_str(&format!("file {name} {count}\n"));
        }
        let crc = crc32(text.as_bytes());
        text.push_str(&format!("crc {crc:08x}\n"));
        text.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, WalError> {
        let corrupt = |offset: usize, detail: &str| WalError::Corrupt {
            path: MANIFEST.to_string(),
            offset,
            detail: detail.to_string(),
        };
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt(0, "manifest is not UTF-8"))?;
        let Some(crc_at) = text.rfind("crc ") else {
            return Err(corrupt(0, "manifest missing crc line"));
        };
        let declared = text[crc_at + 4..].trim();
        let declared = u32::from_str_radix(declared, 16)
            .map_err(|_| corrupt(crc_at, "manifest crc is not hex"))?;
        if crc32(&text.as_bytes()[..crc_at]) != declared {
            return Err(corrupt(crc_at, "manifest checksum mismatch"));
        }
        let mut lines = text[..crc_at].lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(corrupt(0, "bad manifest magic"));
        }
        let mut m = Manifest::default();
        let mut have_gen = false;
        let mut have_seq = false;
        for line in lines {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("generation") => {
                    m.generation = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt(0, "bad generation line"))?;
                    have_gen = true;
                }
                Some("sealed_seq") => {
                    m.sealed_seq = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt(0, "bad sealed_seq line"))?;
                    have_seq = true;
                }
                Some("file") => {
                    let name = parts.next().ok_or_else(|| corrupt(0, "bad file line"))?;
                    let count: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt(0, "bad file line"))?;
                    m.files.push((name.to_string(), count));
                }
                // Same forward-compat posture as the page layer: an
                // unknown field under a valid checksum is a future writer,
                // not corruption — but we cannot honour what we cannot
                // parse, so refuse loudly rather than drop state.
                Some(other) => {
                    return Err(corrupt(0, &format!("unknown manifest field {other:?}")))
                }
                None => {}
            }
        }
        if !(have_gen && have_seq) {
            return Err(corrupt(0, "manifest missing generation or sealed_seq"));
        }
        Ok(m)
    }
}

/// The name of generation `generation`'s seal file for geohash group `g`.
pub fn seal_name(generation: u64, group: char) -> String {
    format!("seal-{generation:08}-{group}.log")
}

/// Parses a seal-file name back to `(generation, group)`; `None` when
/// the name is not of [`seal_name`]'s form.
pub fn parse_seal_name(name: &str) -> Option<(u64, char)> {
    let rest = name.strip_prefix("seal-")?.strip_suffix(".log")?;
    let (digits, tail) = rest.split_once('-')?;
    if digits.len() != 8 {
        return None;
    }
    let mut chars = tail.chars();
    let group = chars.next()?;
    if chars.next().is_some() {
        return None;
    }
    Some((digits.parse().ok()?, group))
}

/// Mutable state under the store's lock.
struct Inner {
    engine: TklusEngine,
    memtable: MemtableIndex,
    wal: WalWriter,
    /// Every acked record, sequence order. `acked[..sealed_len]` is the
    /// sealed prefix the engine covers.
    acked: Vec<WalRecord>,
    /// Geohash partition (leading geohash character) per acked record,
    /// parallel to `acked`. Stable across reopen: the geohash length is
    /// configuration, not state.
    groups: Vec<char>,
    sealed_len: usize,
    /// Tweet id → index into `acked` (duplicate detection).
    by_id: HashMap<TweetId, usize>,
    /// Highest acked seq per WAL segment ordinal. The seq-fenced trim
    /// consults this: a segment may be removed only once every record it
    /// holds is at or below the sealed fence.
    segment_max_seq: HashMap<u64, u64>,
    next_seq: u64,
    /// Highest seq ever acked — the compaction fence source, tracked
    /// incrementally instead of re-scanning `acked`.
    max_seq: u64,
    sealed_seq: u64,
    generation: u64,
    /// The manifest's current partition files: group → (name, records).
    seal_files: BTreeMap<char, (String, usize)>,
}

/// Counters behind [`IngestStore::compaction_stats`].
#[derive(Default)]
struct CompactionStats {
    successes: AtomicU64,
    failures: AtomicU64,
    consecutive_failures: AtomicU64,
    last_error: Mutex<Option<String>>,
}

/// A snapshot of compaction outcomes, for metrics and health reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Rounds that completed (including empty-memtable no-ops).
    pub successes_total: u64,
    /// Rounds that returned an error.
    pub failures_total: u64,
    /// Failures since the last success.
    pub consecutive_failures: u64,
    /// True once `consecutive_failures` reaches the persistence
    /// threshold — the store is not sealing and needs attention.
    pub persistent_failure: bool,
    /// The most recent failure's rendering, if any failure ever happened.
    pub last_error: Option<String>,
}

/// The crash-safe streaming ingest store. Cheaply shareable across
/// threads behind an `Arc`; ingest takes the write lock, queries the
/// read lock, so a query can never observe an ingest half applied.
/// Incremental compaction holds the write lock only for its final swap.
pub struct IngestStore {
    fs: Arc<dyn WalFs>,
    config: StoreConfig,
    inner: RwLock<Inner>,
    /// Serializes compaction rounds (background + synchronous callers).
    compact_gate: Mutex<()>,
    stats: CompactionStats,
}

impl IngestStore {
    /// Opens the store: loads the manifest's sealed partitions, sweeps
    /// stray files an uncommitted build left behind, replays the WAL
    /// (healing a torn tail), rebuilds the live memtable, and starts a
    /// fresh WAL segment. Idempotent — opening twice in a row changes
    /// nothing the second time.
    pub fn open(fs: Arc<dyn WalFs>, config: StoreConfig) -> Result<(Self, OpenReport), WalError> {
        let listing = fs.list()?;
        let manifest = if listing.iter().any(|f| f == MANIFEST) {
            Manifest::decode(&fs.read(MANIFEST)?)?
        } else {
            Manifest::default()
        };

        // Sealed posts, from the files the manifest names. These were
        // fsynced before the manifest swap, so any invalid frame here is
        // real corruption, never a torn tail.
        let mut sealed: Vec<WalRecord> = Vec::new();
        let mut seal_files: BTreeMap<char, (String, usize)> = BTreeMap::new();
        for (name, count) in &manifest.files {
            let Some((_, group)) = parse_seal_name(name) else {
                return Err(WalError::Corrupt {
                    path: MANIFEST.to_string(),
                    offset: 0,
                    detail: format!("manifest names unparseable seal file {name:?}"),
                });
            };
            seal_files.insert(group, (name.clone(), *count));
            let buf = fs.read(name)?;
            let mut offset = 0;
            let mut in_file = 0usize;
            loop {
                match decode_step(&buf, offset) {
                    FrameStep::CleanEnd => break,
                    FrameStep::Frame { payload_start, len, next } => {
                        let rec = decode_record(&buf[payload_start..payload_start + len]).map_err(
                            |detail| WalError::Corrupt {
                                path: name.clone(),
                                offset: payload_start,
                                detail,
                            },
                        )?;
                        sealed.push(rec);
                        in_file += 1;
                        offset = next;
                    }
                    FrameStep::Torn { reason } | FrameStep::Bad { reason } => {
                        return Err(WalError::Corrupt {
                            path: name.clone(),
                            offset,
                            detail: reason.to_string(),
                        });
                    }
                }
            }
            if in_file != *count {
                return Err(WalError::Corrupt {
                    path: name.clone(),
                    offset: buf.len(),
                    detail: format!("manifest promises {count} records, file holds {in_file}"),
                });
            }
        }
        sealed.sort_by_key(|r| r.seq);

        // Sweep what an uncommitted build left behind: partition files no
        // manifest names and a staged-but-unrenamed manifest. Both are
        // invisible to recovery (the rename never happened), so removing
        // them is a no-op on state — it just stops generations of strays
        // accumulating across crash/reopen cycles.
        let named: HashSet<&str> = manifest.files.iter().map(|(n, _)| n.as_str()).collect();
        for name in &listing {
            if name == MANIFEST_TMP || (name.starts_with("seal-") && !named.contains(name.as_str()))
            {
                fs.remove(name)?;
            }
        }

        // Live posts, from the WAL. Records compaction already absorbed
        // (seq ≤ sealed_seq) are skipped — the crash-between-swap-and-trim
        // window leaves them in the log, and replay must be idempotent.
        // An *exact* duplicate (same post, a later seq) is the benign
        // signature of a failed-but-durable append followed by a client
        // retry: keep the first copy. The same tweet id over a different
        // payload is not something the write path can produce — refuse it
        // rather than let `Corpus::new`'s duplicate check wedge reopen.
        let (walked, recovery) = replay(fs.as_ref())?;
        let mut live: Vec<WalRecord> = Vec::new();
        let mut live_at: HashMap<TweetId, usize> = HashMap::new();
        for rec in walked {
            if rec.seq <= manifest.sealed_seq {
                continue;
            }
            if let Some(&at) = live_at.get(&rec.post.id) {
                if live[at].post == rec.post {
                    continue;
                }
                return Err(WalError::DuplicateTweet(rec.post.id));
            }
            live_at.insert(rec.post.id, live.len());
            live.push(rec);
        }

        let report = OpenReport {
            recovery: recovery.clone(),
            sealed_posts: sealed.len(),
            live_posts: live.len(),
            generation: manifest.generation,
        };

        let next_seq =
            sealed.iter().chain(live.iter()).map(|r| r.seq).max().unwrap_or(manifest.sealed_seq)
                + 1;
        let wal = WalWriter::open(
            Arc::clone(&fs),
            config.wal,
            recovery.max_ordinal.map_or(0, |o| o + 1),
        )?;

        let engine = Self::build_engine(sealed.iter().map(|r| r.post.clone()), &config.engine)?;
        let groups: Vec<char> =
            sealed.iter().map(|r| Self::group(&Self::post_cell(&engine, &r.post))).collect();
        let mut inner = Inner {
            engine,
            memtable: MemtableIndex::new(),
            wal,
            acked: sealed,
            groups,
            sealed_len: 0,
            by_id: HashMap::new(),
            segment_max_seq: recovery.segment_max_seqs.iter().copied().collect(),
            next_seq,
            max_seq: manifest.sealed_seq,
            sealed_seq: manifest.sealed_seq,
            generation: manifest.generation,
            seal_files,
        };
        inner.sealed_len = inner.acked.len();
        for (i, rec) in inner.acked.iter().enumerate() {
            inner.by_id.insert(rec.post.id, i);
        }
        for rec in live {
            Self::admit(&mut inner, rec);
        }
        let store = Self {
            fs,
            config,
            inner: RwLock::new(inner),
            compact_gate: Mutex::new(()),
            stats: CompactionStats::default(),
        };
        Ok((store, report))
    }

    fn build_engine(
        sealed: impl Iterator<Item = Post>,
        config: &EngineConfig,
    ) -> Result<TklusEngine, WalError> {
        let corpus = Corpus::new(sealed.collect()).map_err(|d| WalError::DuplicateTweet(d.0))?;
        let (engine, _report) = TklusEngine::try_build(&corpus, config)?;
        Ok(engine)
    }

    /// Appends `rec` to the acked set and applies it to the live state.
    fn admit(inner: &mut Inner, rec: WalRecord) {
        let cell = Self::apply(&inner.engine, &mut inner.memtable, &rec.post);
        inner.groups.push(Self::group(&cell));
        inner.by_id.insert(rec.post.id, inner.acked.len());
        inner.max_seq = inner.max_seq.max(rec.seq);
        inner.acked.push(rec);
    }

    /// Applies one acked post to the live state: one encode, the term
    /// counts, and a memtable insert of its postings and metadata. The one
    /// apply routine — ingest, the open-time replay and the compaction
    /// swap's refill all run it — and infallible: nothing here reads or
    /// writes a page. Returns the post's cell.
    fn apply(engine: &TklusEngine, memtable: &mut MemtableIndex, post: &Post) -> Geohash {
        let cell = Self::post_cell(engine, post);
        memtable.insert(post, cell, &engine.term_counts(&post.text));
        cell
    }

    /// The post's cell at the sealed index's geohash length, which the
    /// index checked when it was built.
    fn post_cell(engine: &TklusEngine, post: &Post) -> Geohash {
        encode(&post.location, engine.index().geohash_len()).expect("index geohash length is valid")
    }

    /// A seal partition: the cell's leading geohash character.
    fn group(cell: &Geohash) -> char {
        cell.to_string().chars().next().expect("a geohash has at least one character")
    }

    /// Ingests one post: duplicate check, durable WAL append, live apply.
    /// Returns the record's sequence number. Only the first two can fail,
    /// and both run before anything is applied. When this returns `Ok`
    /// under [`FsyncPolicy::Always`], the post survives any crash.
    ///
    /// [`FsyncPolicy::Always`]: crate::log::FsyncPolicy::Always
    pub fn ingest(&self, post: Post) -> Result<u64, WalError> {
        let mut inner = self.inner.write();
        if inner.by_id.contains_key(&post.id) {
            return Err(WalError::DuplicateTweet(post.id));
        }
        // The seq is burned even when the append fails: a failed append's
        // frame may still be durable (a sync error after a complete
        // write), and reusing the seq for the client's retry would put
        // two records for the same tweet in the log. Gaps are harmless —
        // replay only needs seqs monotone.
        let rec = WalRecord { seq: inner.next_seq, post };
        inner.next_seq += 1;
        inner.wal.append(&rec)?;
        // `append` rotates *before* writing, so the current ordinal is
        // the segment this record landed in — record it for the fenced
        // trim before anything can fail.
        let ordinal = inner.wal.current_ordinal();
        let entry = inner.segment_max_seq.entry(ordinal).or_insert(rec.seq);
        *entry = (*entry).max(rec.seq);
        let seq = rec.seq;
        Self::admit(&mut inner, rec);
        Ok(seq)
    }

    /// Answers a query over the consistent snapshot "sealed ∪ live",
    /// bitwise-equal to a from-scratch engine over the same posts (module
    /// docs give the argument; the oracle suite asserts it).
    ///
    /// The answer is always exact: a query budget is ignored. The return
    /// type has no completeness marker, so a budget-degraded answer would
    /// be indistinguishable from a complete one (DESIGN.md §15).
    pub fn try_query(&self, q: &TklusQuery, ranking: Ranking) -> Result<Vec<RankedUser>, WalError> {
        // Only the sealed gather reads a budget; clear it, cloning the
        // query only when it has one.
        let q = match q.budget {
            Some(_) => Cow::Owned(TklusQuery { budget: None, ..q.clone() }),
            None => Cow::Borrowed(q),
        };
        let q = q.as_ref();
        let inner = self.inner.read();
        let engine = &inner.engine;
        // The sealed and live sets are disjoint (a tweet is sealed or
        // live, never both) and both streams are id-sorted: merged by
        // tweet id they are the monolithic fold order, so the engine's own
        // fold, blend and ranking reproduce a from-scratch engine's floats.
        // Every half reads the sealed trees through the live overlay.
        let live = Some(inner.memtable.meta()).filter(|m| !m.is_empty());
        let live_rows = Self::live_rows(&inner, q, live)?;
        let sealed = engine.try_partial_sum(q, live)?;
        let merged = merge_sum_rows(&sealed.rows, &live_rows);
        Ok(engine.try_rank_rows(q, ranking, &merged, live)?.0)
    }

    /// The memtable's candidates for `q`, scored by the engine's own
    /// per-candidate body over the overlay `live`. Returns id-sorted rows.
    fn live_rows(
        inner: &Inner,
        q: &TklusQuery,
        live: Option<&LiveMetadata>,
    ) -> Result<Vec<SumRow>, WalError> {
        let engine = &inner.engine;
        if live.is_none() {
            return Ok(Vec::new());
        }
        let cover = circle_cover(
            &q.location,
            q.radius_km,
            engine.index().geohash_len(),
            engine.scoring().metric,
        )
        .expect("index geohash length is valid");
        let keywords: Vec<Option<String>> =
            q.keywords.iter().map(|kw| engine.normalize_keyword(kw)).collect();
        let cands = inner.memtable.candidates(&cover, &keywords, q.semantics);
        Ok(engine.try_score_candidates(q, cands, live)?)
    }

    /// Runs one compaction round, recording the outcome for
    /// [`Self::compaction_stats`]. Rounds are serialized by an internal
    /// gate, so background and synchronous callers never interleave.
    /// Returns `true` when something was sealed.
    pub fn compact(&self) -> Result<bool, WalError> {
        let _gate = self.compact_gate.lock();
        let result = self.compact_incremental();
        match &result {
            Ok(_) => {
                self.stats.successes.fetch_add(1, Ordering::Relaxed);
                self.stats.consecutive_failures.store(0, Ordering::Relaxed);
            }
            Err(e) => {
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
                self.stats.consecutive_failures.fetch_add(1, Ordering::Relaxed);
                *self.stats.last_error.lock() = Some(e.to_string());
            }
        }
        result
    }

    /// Compaction outcome counters (metrics, `/health`).
    pub fn compaction_stats(&self) -> CompactionReport {
        let consecutive = self.stats.consecutive_failures.load(Ordering::Relaxed);
        CompactionReport {
            successes_total: self.stats.successes.load(Ordering::Relaxed),
            failures_total: self.stats.failures.load(Ordering::Relaxed),
            consecutive_failures: consecutive,
            persistent_failure: consecutive >= PERSISTENT_FAILURE_THRESHOLD,
            last_error: self.stats.last_error.lock().clone(),
        }
    }

    /// The off-latch incremental round (module docs, "Incremental,
    /// off-latch compaction"). The write latch is held only for the
    /// manifest rename and the refill with records acked during the build.
    fn compact_incremental(&self) -> Result<bool, WalError> {
        // Phase 1 — snapshot under the read lock: the fence, the acked
        // set, and which partitions the live records touch. Untouched
        // partitions' files are carried forward by name: their record
        // sets are exactly the old sealed prefix's (every live record's
        // partition is in `touched` by construction).
        let (snapshot, snapshot_groups, touched, carried, generation, fence) = {
            let inner = self.inner.read();
            if inner.memtable.is_empty() {
                return Ok(false);
            }
            let touched: BTreeSet<char> =
                inner.groups[inner.sealed_len..].iter().copied().collect();
            let carried: BTreeMap<char, (String, usize)> = inner
                .seal_files
                .iter()
                .filter(|(g, _)| !touched.contains(g))
                .map(|(g, f)| (*g, f.clone()))
                .collect();
            (
                inner.acked.clone(),
                inner.groups.clone(),
                touched,
                carried,
                inner.generation + 1,
                inner.max_seq,
            )
        };

        // Phase 2 — build outside any lock: the touched partitions' seal
        // files, the staged manifest, and the replacement engine. Nothing
        // here is visible to recovery until the rename below; on error
        // the staged files are swept (and reopen sweeps whatever a crash
        // leaves). The engine comes last because it takes the snapshot's
        // posts by value: the build's working set then holds one copy of
        // them, not the snapshot beside a corpus cloned from it.
        let sealed_len = snapshot.len();
        let mut files = carried;
        let mut created = Vec::new();
        let built = self
            .stage_partitions(
                generation,
                fence,
                &snapshot,
                &snapshot_groups,
                &touched,
                &mut files,
                &mut created,
            )
            .and_then(|()| {
                Self::build_engine(snapshot.into_iter().map(|r| r.post), &self.config.engine)
            });
        let engine = match built {
            Ok(engine) => engine,
            Err(e) => {
                self.remove_aborted(&created);
                return Err(e);
            }
        };

        // Phase 3 — seq-fenced validate-and-swap under the write latch.
        let mut inner = self.inner.write();
        debug_assert_eq!(inner.generation + 1, generation, "compaction rounds are serialized");
        if let Err(e) = self.fs.rename(MANIFEST_TMP, MANIFEST) {
            drop(inner);
            self.remove_aborted(&created);
            return Err(e);
        }
        // ---- The rename is the commit point. The in-memory install
        // below mirrors exactly what the manifest now promises: sealed =
        // the snapshot, live = the records acked during the build (their
        // seqs are above the fence, so recovery replays them from the
        // WAL, which the fenced trim keeps).
        inner.sealed_len = sealed_len;
        inner.sealed_seq = fence;
        inner.generation = generation;
        inner.seal_files = files;
        let mut memtable = MemtableIndex::new();
        for rec in &inner.acked[sealed_len..] {
            Self::apply(&engine, &mut memtable, &rec.post);
        }
        inner.engine = engine;
        inner.memtable = memtable;
        inner.wal.rotate()?;
        self.trim_absorbed(&mut inner)?;
        Ok(true)
    }

    /// Writes the replacement seal file for every touched partition —
    /// all snapshot records of that partition, framed and fsynced — and
    /// stages `MANIFEST.tmp` naming `files` (carried ∪ rewritten), also
    /// fsynced but **not** renamed: the caller owns the commit point.
    /// Every created name is pushed to `created` before any write to it,
    /// so the caller can sweep a partial stage.
    #[allow(clippy::too_many_arguments)]
    fn stage_partitions(
        &self,
        generation: u64,
        fence: u64,
        snapshot: &[WalRecord],
        snapshot_groups: &[char],
        touched: &BTreeSet<char>,
        files: &mut BTreeMap<char, (String, usize)>,
        created: &mut Vec<String>,
    ) -> Result<(), WalError> {
        for &group in touched {
            let name = seal_name(generation, group);
            let mut bytes = Vec::new();
            let mut count = 0usize;
            for (rec, &g) in snapshot.iter().zip(snapshot_groups) {
                if g == group {
                    encode_frame(&encode_record(rec), &mut bytes);
                    count += 1;
                }
            }
            created.push(name.clone());
            self.fs.create(&name)?;
            self.fs.append(&name, &bytes)?;
            self.fs.sync(&name)?;
            files.insert(group, (name, count));
        }
        let manifest =
            Manifest { generation, sealed_seq: fence, files: files.values().cloned().collect() };
        created.push(MANIFEST_TMP.to_string());
        self.fs.create(MANIFEST_TMP)?;
        self.fs.append(MANIFEST_TMP, &manifest.encode())?;
        self.fs.sync(MANIFEST_TMP)?;
        Ok(())
    }

    /// Best-effort sweep of a build that will not commit. The names are
    /// from a generation no manifest names, so failure here costs disk,
    /// never correctness — reopen sweeps strays again.
    fn remove_aborted(&self, created: &[String]) {
        for name in created {
            let _ = self.fs.remove(name);
        }
    }

    /// Trims durable state a committed swap absorbed. WAL segments are
    /// removed under the **seq fence**: only when every acked record the
    /// segment holds is at or below `sealed_seq` — records acked during
    /// an off-latch build sit in pre-rotation segments with post-fence
    /// seqs and must survive until a later round absorbs them. Seal
    /// files the manifest no longer names are removed outright.
    fn trim_absorbed(&self, inner: &mut Inner) -> Result<(), WalError> {
        let keep_ordinal = inner.wal.current_ordinal();
        let fence = inner.sealed_seq;
        let keep_names: HashSet<String> =
            inner.seal_files.values().map(|(n, _)| n.clone()).collect();
        for name in self.fs.list()? {
            if let Some(ordinal) = parse_segment_name(&name) {
                let absorbed = inner.segment_max_seq.get(&ordinal).is_none_or(|&max| max <= fence);
                if ordinal < keep_ordinal && absorbed {
                    self.fs.remove(&name)?;
                    inner.segment_max_seq.remove(&ordinal);
                }
            } else if name.starts_with("seal-") && !keep_names.contains(&name) {
                self.fs.remove(&name)?;
            }
        }
        Ok(())
    }

    /// The configuration the store was opened with.
    pub fn store_config(&self) -> &StoreConfig {
        &self.config
    }

    /// Total acked posts (sealed + live).
    pub fn acked_posts(&self) -> usize {
        self.inner.read().acked.len()
    }

    /// True when `tid` has been acked (sealed or live).
    pub fn contains_post(&self, tid: TweetId) -> bool {
        self.inner.read().by_id.contains_key(&tid)
    }

    /// A snapshot of every acked post, sequence order. The chaos suite
    /// builds its reference engine from exactly this set.
    pub fn posts(&self) -> Vec<Post> {
        self.inner.read().acked.iter().map(|r| r.post.clone()).collect()
    }

    /// Posts in the live memtable.
    pub fn live_posts(&self) -> usize {
        self.inner.read().memtable.len()
    }

    /// Current compaction generation.
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// Highest sequence number compaction has absorbed.
    pub fn sealed_seq(&self) -> u64 {
        self.inner.read().sealed_seq
    }

    /// Starts the background compactor: polls every
    /// `config.compact_interval` and seals once `compact_threshold` posts
    /// are live. Failures are *counted*, not swallowed: the outcome feeds
    /// [`Self::compaction_stats`] (so `/health` can surface a store that
    /// never seals) and repeated failure backs the poll off exponentially
    /// up to a few seconds instead of spin-failing every interval. The
    /// synchronous [`Self::compact`] stays available throughout.
    pub fn spawn_compactor(self: &Arc<Self>) -> CompactorHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let store = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let base = store.config.compact_interval.max(Duration::from_millis(1));
            let mut delay = base;
            loop {
                // Sleep in short slices so `stop()` never waits out a
                // multi-second backoff.
                let mut slept = Duration::ZERO;
                while slept < delay {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    let slice = (delay - slept).min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    slept += slice;
                }
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                if store.live_posts() < store.config.compact_threshold {
                    delay = base;
                    continue;
                }
                match store.compact() {
                    Ok(_) => delay = base,
                    Err(_) => {
                        let strikes =
                            store.stats.consecutive_failures.load(Ordering::Relaxed).min(8);
                        delay = base
                            .saturating_mul(1u32 << (strikes as u32))
                            .min(MAX_COMPACTOR_BACKOFF);
                    }
                }
            }
        });
        CompactorHandle { stop, join: Some(join) }
    }
}

/// Stops the background compactor on drop (or explicitly via
/// [`CompactorHandle::stop`]).
pub struct CompactorHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    /// Signals the compactor to exit and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;
    use crate::fs::SimFs;
    use tklus_core::{BoundsMode, Ranking};
    use tklus_geo::Point;
    use tklus_model::{Semantics, UserId};

    fn post(id: u64, user: u64, lat: f64, lon: f64, text: &str) -> Post {
        Post::original(TweetId(id), UserId(user), Point::new_unchecked(lat, lon), text)
    }

    fn query() -> TklusQuery {
        TklusQuery::new(
            Point::new_unchecked(43.70, -79.42),
            25.0,
            vec!["hotel".into()],
            5,
            Semantics::Or,
        )
        .unwrap()
    }

    fn open(fs: &Arc<SimFs>) -> (IngestStore, OpenReport) {
        let fs: Arc<dyn WalFs> = Arc::clone(fs) as Arc<dyn WalFs>;
        IngestStore::open(fs, StoreConfig::default()).unwrap()
    }

    #[test]
    fn seal_name_roundtrips_through_parse() {
        assert_eq!(parse_seal_name(&seal_name(7, 'd')), Some((7, 'd')));
        assert_eq!(parse_seal_name(&seal_name(0, '9')), Some((0, '9')));
        assert_eq!(parse_seal_name("seal-0000000a-d.log"), None);
        assert_eq!(parse_seal_name("seal-00000001-dd.log"), None);
        assert_eq!(parse_seal_name("seal-001-d.log"), None);
        assert_eq!(parse_seal_name("wal-00000001.log"), None);
        assert_eq!(parse_seal_name("seal-00000001-d"), None);
    }

    #[test]
    fn ingest_query_reopen_cycle() {
        let (fs, _) = SimFs::new(11);
        let (store, report) = open(&fs);
        assert_eq!(report.sealed_posts + report.live_posts, 0);
        store.ingest(post(1, 10, 43.70, -79.42, "great hotel downtown")).unwrap();
        store.ingest(post(2, 11, 43.71, -79.40, "coffee first, hotel later")).unwrap();
        let users = store.try_query(&query(), Ranking::Sum).unwrap();
        assert_eq!(users.len(), 2);
        assert!(matches!(
            store.ingest(post(1, 9, 43.0, -79.0, "dup")),
            Err(WalError::DuplicateTweet(TweetId(1)))
        ));
        drop(store);
        let (store2, report2) = open(&fs);
        assert_eq!(report2.live_posts, 2);
        assert_eq!(store2.try_query(&query(), Ranking::Sum).unwrap(), users);
    }

    #[test]
    fn budgeted_query_is_answered_exactly() {
        // Three users in three length-4 geohash cells within 30 km, sealed,
        // plus a fourth user's live post. A one-cell budget used to reach
        // the sealed gather, which dropped the other two cells' rows and
        // the completeness marker with them: `Ok([])`, no marker.
        let (fs, _) = SimFs::new(21);
        let (store, _) = open(&fs);
        let posts = [
            post(1, 10, 43.70, -79.42, "grand hotel"),
            post(2, 11, 43.70, -79.60, "hotel bar"),
            post(3, 12, 43.80, -79.42, "another hotel"),
        ];
        for p in &posts {
            store.ingest(p.clone()).unwrap();
        }
        assert!(store.compact().unwrap());
        let live = post(4, 13, 43.71, -79.41, "hotel lobby");
        store.ingest(live.clone()).unwrap();

        let corpus = Corpus::new(posts.into_iter().chain([live]).collect()).unwrap();
        let (fresh, _) = TklusEngine::build(&corpus, &EngineConfig::default());
        let q = TklusQuery::new(
            Point::new_unchecked(43.70, -79.42),
            30.0,
            vec!["hotel".into()],
            5,
            Semantics::Or,
        )
        .unwrap();
        let budgeted = q.clone().with_max_cells(1);
        // The budget really cuts the cover short on a plain engine.
        let cut = fresh.try_query(&budgeted, Ranking::Sum).unwrap();
        assert!(!cut.completeness.is_complete(), "{:?}", cut.completeness);
        for ranking in [Ranking::Sum, Ranking::Max(BoundsMode::HotKeywords)] {
            let want = fresh.try_query(&q, ranking).unwrap().users;
            assert_eq!(want.len(), 4, "{ranking:?}");
            for query in [&q, &budgeted] {
                let got = store.try_query(query, ranking).unwrap();
                assert_eq!(got.len(), want.len(), "{ranking:?} {:?}", query.budget);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.user, w.user, "{ranking:?} {:?}", query.budget);
                    assert_eq!(g.score.to_bits(), w.score.to_bits(), "{ranking:?}");
                }
            }
        }
    }

    #[test]
    fn compaction_seals_and_reopen_reads_manifest() {
        let (fs, _) = SimFs::new(12);
        let (store, _) = open(&fs);
        for i in 1..=6 {
            store.ingest(post(i, i, 43.70 + i as f64 * 1e-3, -79.42, "hotel by the lake")).unwrap();
        }
        let before = store.try_query(&query(), Ranking::Max(BoundsMode::HotKeywords)).unwrap();
        assert!(store.compact().unwrap());
        assert_eq!(store.live_posts(), 0);
        assert_eq!(store.acked_posts(), 6);
        let after = store.try_query(&query(), Ranking::Max(BoundsMode::HotKeywords)).unwrap();
        assert_eq!(before, after, "compaction must not change answers");
        assert!(!store.compact().unwrap(), "empty memtable has nothing to seal");
        // Old WAL segments are gone; the log holds only the fresh one.
        let segments: Vec<String> =
            fs.list().unwrap().into_iter().filter(|n| parse_segment_name(n).is_some()).collect();
        assert_eq!(segments.len(), 1);
        drop(store);
        let (store2, report) = open(&fs);
        assert_eq!(report.sealed_posts, 6);
        assert_eq!(report.live_posts, 0);
        assert_eq!(report.generation, 1);
        assert_eq!(
            store2.try_query(&query(), Ranking::Max(BoundsMode::HotKeywords)).unwrap(),
            after
        );
    }

    #[test]
    fn incremental_compaction_rewrites_only_touched_partitions() {
        let (fs, _) = SimFs::new(19);
        let (store, _) = open(&fs);
        // Two far-apart geohash partitions: Toronto ('d') and Sydney ('r').
        store.ingest(post(1, 10, 43.70, -79.42, "toronto hotel")).unwrap();
        store.ingest(post(2, 11, -33.87, 151.21, "sydney hotel")).unwrap();
        assert!(store.compact().unwrap());
        let listing = fs.list().unwrap();
        assert!(listing.iter().any(|n| n == &seal_name(1, 'd')), "{listing:?}");
        assert!(listing.iter().any(|n| n == &seal_name(1, 'r')), "{listing:?}");
        // A delta confined to Toronto rewrites only Toronto's partition;
        // Sydney's generation-1 file is carried forward by name.
        store.ingest(post(3, 12, 43.71, -79.41, "toronto coffee")).unwrap();
        assert!(store.compact().unwrap());
        let listing = fs.list().unwrap();
        assert!(listing.iter().any(|n| n == &seal_name(2, 'd')), "{listing:?}");
        assert!(listing.iter().any(|n| n == &seal_name(1, 'r')), "{listing:?}");
        assert!(
            !listing.iter().any(|n| n == &seal_name(2, 'r')),
            "untouched partition must not be rewritten: {listing:?}"
        );
        assert!(!listing.iter().any(|n| n == &seal_name(1, 'd')), "{listing:?}");
        // Reopen reads the mixed-generation manifest bit-exactly.
        drop(store);
        let (store2, report) = open(&fs);
        assert_eq!(report.sealed_posts, 3);
        assert_eq!(report.generation, 2);
        assert!(store2.contains_post(TweetId(2)));
    }

    #[test]
    fn compaction_failures_count_and_clear_on_success() {
        let (sim, _) = SimFs::new(17);
        let flaky = crate::fs::FlakyFs::new(sim);
        let fs: Arc<dyn WalFs> = Arc::clone(&flaky) as Arc<dyn WalFs>;
        let (store, _) = IngestStore::open(Arc::clone(&fs), StoreConfig::default()).unwrap();
        for i in 1..=4 {
            store.ingest(post(i, i, 43.70, -79.42, "grand hotel")).unwrap();
        }
        for round in 1..=3u64 {
            flaky.fail_sync_at(1);
            assert!(store.compact().is_err());
            let stats = store.compaction_stats();
            assert_eq!(stats.failures_total, round);
            assert_eq!(stats.consecutive_failures, round);
            assert_eq!(stats.persistent_failure, round >= 3);
            assert!(stats.last_error.is_some());
        }
        assert!(store.compact().unwrap(), "store recovers once the fault clears");
        let stats = store.compaction_stats();
        assert_eq!(stats.successes_total, 1);
        assert_eq!(stats.failures_total, 3);
        assert_eq!(stats.consecutive_failures, 0);
        assert!(!stats.persistent_failure);
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn transient_append_failure_then_retry_survives_reopen() {
        let (sim, _) = SimFs::new(14);
        let flaky = crate::fs::FlakyFs::new(sim);
        let fs: Arc<dyn WalFs> = Arc::clone(&flaky) as Arc<dyn WalFs>;
        let (store, _) = IngestStore::open(Arc::clone(&fs), StoreConfig::default()).unwrap();
        store.ingest(post(1, 10, 43.70, -79.42, "grand hotel")).unwrap();
        // The frame lands whole but its fsync fails: no ack, but the
        // bytes are in the log. The client retries the identical post.
        flaky.fail_sync_at(1);
        assert!(store.ingest(post(2, 11, 43.71, -79.41, "hotel bar")).is_err());
        store.ingest(post(2, 11, 43.71, -79.41, "hotel bar")).unwrap();
        store.ingest(post(3, 12, 43.69, -79.43, "another hotel")).unwrap();
        assert_eq!(store.acked_posts(), 3);
        let answered = store.try_query(&query(), Ranking::Sum).unwrap();
        drop(store);
        let (store2, report) = IngestStore::open(fs, StoreConfig::default()).unwrap();
        assert_eq!(report.live_posts, 3, "retry must not duplicate tweet 2 in the log");
        assert_eq!(store2.try_query(&query(), Ranking::Sum).unwrap(), answered);
    }

    #[test]
    fn replayed_exact_duplicate_is_skipped_and_mismatch_refused() {
        // Hand-craft the crash shape the writer can leave when an append
        // fails after its frame became durable and the process dies
        // before healing: the same post twice, under distinct seqs.
        let (fs, _) = SimFs::new(15);
        {
            let mut w =
                crate::log::WalWriter::open(fs.clone(), crate::log::WalConfig::default(), 0)
                    .unwrap();
            let p = post(1, 10, 43.70, -79.42, "grand hotel");
            w.append(&WalRecord { seq: 1, post: p.clone() }).unwrap();
            w.append(&WalRecord { seq: 2, post: p }).unwrap();
            w.append(&WalRecord { seq: 3, post: post(2, 11, 43.71, -79.41, "hotel bar") }).unwrap();
        }
        let walfs: Arc<dyn WalFs> = Arc::clone(&fs) as Arc<dyn WalFs>;
        let (store, report) =
            IngestStore::open(Arc::clone(&walfs), StoreConfig::default()).unwrap();
        assert_eq!(report.live_posts, 2, "the exact duplicate collapses to one record");
        assert_eq!(store.acked_posts(), 2);
        drop(store);

        // Same id over a different payload is *not* a crash signature.
        let (fs2, _) = SimFs::new(16);
        {
            let mut w =
                crate::log::WalWriter::open(fs2.clone(), crate::log::WalConfig::default(), 0)
                    .unwrap();
            w.append(&WalRecord { seq: 1, post: post(1, 10, 43.70, -79.42, "grand hotel") })
                .unwrap();
            w.append(&WalRecord { seq: 2, post: post(1, 10, 43.70, -79.42, "different text") })
                .unwrap();
        }
        let walfs2: Arc<dyn WalFs> = Arc::clone(&fs2) as Arc<dyn WalFs>;
        assert!(matches!(
            IngestStore::open(walfs2, StoreConfig::default()),
            Err(WalError::DuplicateTweet(TweetId(1)))
        ));
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = Manifest {
            generation: 3,
            sealed_seq: 120,
            files: vec![(seal_name(3, 'd'), 57), (seal_name(3, '9'), 4)],
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        let mut bad = bytes.clone();
        let at = bad.len() / 2;
        bad[at] ^= 0x01;
        assert!(matches!(Manifest::decode(&bad), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn replies_grow_threads_and_queries_survive_reopen() {
        let (fs, _) = SimFs::new(13);
        let (store, _) = open(&fs);
        store.ingest(post(1, 10, 43.70, -79.42, "grand hotel opening")).unwrap();
        for i in 0..5 {
            store
                .ingest(Post::reply(
                    TweetId(100 + i),
                    UserId(20 + i),
                    Point::new_unchecked(43.70, -79.42),
                    "what a hotel",
                    TweetId(1),
                    UserId(10),
                ))
                .unwrap();
        }
        let sum = store.try_query(&query(), Ranking::Sum).unwrap();
        let max = store.try_query(&query(), Ranking::Max(BoundsMode::HotKeywords)).unwrap();
        assert!(!sum.is_empty() && !max.is_empty());
        // The thread root's author benefits from the replies under Sum.
        assert_eq!(sum[0].user, UserId(10));
        drop(store);
        let (store2, _) = open(&fs);
        assert_eq!(store2.try_query(&query(), Ranking::Sum).unwrap(), sum);
        assert_eq!(store2.try_query(&query(), Ranking::Max(BoundsMode::HotKeywords)).unwrap(), max);
    }
}
