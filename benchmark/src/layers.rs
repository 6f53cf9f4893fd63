//! Every call the benchmark makes into a `tklus-*` crate.
//!
//! The rest of the harness sees only the plain types declared here, so a
//! rename in the workspace's public API is a fix in this one file (and in
//! `counting_fs.rs`, which implements the `WalFs` trait). Only `pub`
//! items of the workspace crates are used; nothing inside the program is
//! instrumented.
//!
//! Every engine and store is built from the product defaults that
//! `tklus serve-http --wal` runs with: `EngineConfig::default()` and
//! `StoreConfig::default()`, stated by [`product_defaults`].

use crate::counting_fs::CountingFs;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tklus_core::{
    BoundsMode, EngineConfig, MetadataDb, QueryStats, RankedUser, Ranking, TklusEngine,
};
use tklus_gen::{generate_corpus, generate_queries, GenConfig, QueryConfig, QuerySpec};
use tklus_geo::circle_cover_with_stats;
use tklus_http::{serve, HttpConfig, HttpHandle, WalSink};
use tklus_index::{build_index, intersect_sum, union_sum, IndexBuildConfig, PostingsList};
use tklus_model::{
    Corpus as ModelCorpus, InteractionKind, Priority, Semantics, TklusQuery, TweetId,
};
use tklus_serve::{IngestSink, ServeConfig, TklusServer};
use tklus_shard::ShardedEngine;
use tklus_wal::{CompactorHandle, IngestStore, StdFs, StoreConfig, WalFs};

/// Users per original post of every generated corpus (6 666 : 20 000).
const USERS_PER_ORIGINAL: f64 = 1.0 / 3.0;
/// `k` of every query.
const TOP_K: usize = 5;

/// One line stating the defaults every run uses, read from the defaults
/// themselves.
pub fn product_defaults() -> String {
    let e = EngineConfig::default();
    let s = StoreConfig::default();
    format!(
        "EngineConfig::default(): geohash_len {} postings {:?} hot_keywords {} cache_pages {} \
         caches cover/postings/thread {}/{}/{} parallelism {}; StoreConfig::default(): fsync {:?} \
         compact_threshold {} strategy {:?} compact_interval {} ms; ServeConfig workers 1, one \
         keep-alive connection, TCP_NODELAY",
        e.index.geohash_len,
        e.index.postings_format,
        e.hot_keywords,
        e.cache_pages,
        e.caches.cover,
        e.caches.postings,
        e.caches.thread,
        e.parallelism,
        s.wal.fsync,
        s.compact_threshold,
        s.strategy,
        s.compact_interval.as_millis(),
    )
}

fn serve_config() -> ServeConfig {
    ServeConfig { workers: 1, ..ServeConfig::default() }
}

// ---------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------

/// A generated corpus, in tweet-id (= time) order.
pub struct Corpus(ModelCorpus);

impl Corpus {
    /// `originals` original posts plus their reply/forward cascades.
    pub fn generate(originals: usize, seed: u64) -> Self {
        let users = ((originals as f64 * USERS_PER_ORIGINAL) as usize).max(1);
        Self(generate_corpus(&GenConfig {
            original_posts: originals,
            users,
            seed,
            ..GenConfig::default()
        }))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The first `n` posts as a corpus of their own (a reply's target
    /// always precedes it, so a prefix is closed under replies).
    pub fn prefix(&self, n: usize) -> Self {
        Self(ModelCorpus::new(self.0.posts()[..n].to_vec()).expect("ids stay unique"))
    }

    pub fn post_id(&self, i: usize) -> u64 {
        self.0.posts()[i].id.0
    }

    pub fn post_text(&self, i: usize) -> &str {
        &self.0.posts()[i].text
    }

    /// User bytes of posts `range`: text bytes plus 40 per post for id,
    /// user, coordinates and reply target.
    pub fn user_bytes(&self, range: std::ops::Range<usize>) -> u64 {
        self.0.posts()[range].iter().map(|p| p.text.len() as u64 + 40).sum()
    }

    /// Post `i` as a `POST /ingest` body.
    pub fn ingest_body(&self, i: usize) -> String {
        let p = &self.0.posts()[i];
        let mut out = format!(
            "{{\"id\":{},\"user\":{},\"lat\":{},\"lon\":{},\"text\":\"{}\"",
            p.id.0,
            p.user.0,
            p.location.lat(),
            p.location.lon(),
            tklus_http::json::escape(&p.text)
        );
        if let Some(r) = &p.in_reply_to {
            let kind = match r.kind {
                InteractionKind::Reply => "reply",
                InteractionKind::Forward => "forward",
            };
            out.push_str(&format!(
                ",\"reply_to\":{{\"id\":{},\"user\":{},\"kind\":\"{kind}\"}}",
                r.target.0, r.target_user.0
            ));
        }
        out.push('}');
        out
    }
}

/// The query shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct QueryClass {
    pub radius_km: f64,
    /// AND semantics (else OR).
    pub and: bool,
    /// `Max(HotKeywords)` ranking (else `Sum`).
    pub max: bool,
    /// Keep only the generator's specs with at least this many keywords.
    pub min_keywords: usize,
}

/// One generated query, ready for every layer.
pub struct Query {
    query: TklusQuery,
    ranking: Ranking,
    /// The `POST /query` body.
    pub body: String,
}

/// The top-k as `(user id, score bits)`: equality is bit equality.
pub type Answer = Vec<(u64, u64)>;

fn answer(users: &[RankedUser]) -> Answer {
    users.iter().map(|u| (u.user.0, u.score.to_bits())).collect()
}

/// Generated specs per query kept: the pool the dealing below draws from.
const POOL_FACTOR: usize = 3;

/// `count` distinct queries of `class` from the paper's generator
/// (`QueryConfig.per_bucket`; keywords repeat from its 30-keyword pool,
/// locations are drawn afresh).
///
/// The generator draws every query's keywords independently, so among a
/// few hundred draws the share of the dearest ones ("restaurant …") swings
/// by a third from seed to seed and takes p90 with it. From three times
/// the specs needed, each bucket is therefore dealt round-robin over its
/// specs' first keyword — the single keyword, or the hot anchor of a 2- or
/// 3-keyword query — so every keyword gets the same number of turns;
/// locations stay as drawn. The generator emits its 1-, 2- and 3-keyword
/// buckets one after the other; they are interleaved so that any prefix
/// of the list has the whole mix.
pub fn generate_query_set(
    corpus: &Corpus,
    class: QueryClass,
    count: usize,
    seed: u64,
) -> Vec<Query> {
    let buckets = 3 - (class.min_keywords.clamp(1, 3) - 1);
    let per_bucket = count.div_ceil(buckets);
    let generated = per_bucket * POOL_FACTOR;
    let specs = generate_queries(&corpus.0, &QueryConfig { per_bucket: generated, seed });
    let dealt: Vec<Vec<&QuerySpec>> = specs
        .chunks(generated)
        .skip(3 - buckets)
        .map(|bucket| deal_by_first_keyword(bucket, per_bucket))
        .collect();
    let semantics = if class.and { Semantics::And } else { Semantics::Or };
    let ranking = if class.max { Ranking::Max(BoundsMode::HotKeywords) } else { Ranking::Sum };
    (0..per_bucket)
        .flat_map(|i| dealt.iter().filter_map(move |bucket| bucket.get(i).copied()))
        .take(count)
        .map(|spec| {
            let words: Vec<String> = spec
                .keywords
                .iter()
                .map(|w| format!("\"{}\"", tklus_http::json::escape(w)))
                .collect();
            let body = format!(
                "{{\"lat\":{},\"lon\":{},\"radius_km\":{},\"keywords\":[{}],\"k\":{TOP_K},\
                 \"semantics\":\"{}\",\"ranking\":\"{}\"}}",
                spec.location.lat(),
                spec.location.lon(),
                class.radius_km,
                words.join(","),
                if class.and { "and" } else { "or" },
                if class.max { "max_hot" } else { "sum" },
            );
            let query = TklusQuery::new(
                spec.location,
                class.radius_km,
                spec.keywords.clone(),
                TOP_K,
                semantics,
            )
            .expect("generated queries are valid");
            Query { query, ranking, body }
        })
        .collect()
}

/// `want` specs of one bucket, one per first keyword in turn (keywords in
/// sorted order, each keyword's specs in generated order).
fn deal_by_first_keyword(bucket: &[QuerySpec], want: usize) -> Vec<&QuerySpec> {
    let mut by_keyword: BTreeMap<&str, std::collections::VecDeque<&QuerySpec>> = BTreeMap::new();
    for spec in bucket {
        by_keyword.entry(spec.keywords[0].as_str()).or_default().push_back(spec);
    }
    let mut out = Vec::with_capacity(want);
    while out.len() < want && !by_keyword.is_empty() {
        by_keyword.retain(|_, specs| {
            if out.len() < want {
                out.extend(specs.pop_front());
            }
            !specs.is_empty()
        });
    }
    out
}

/// Decodes a `/query` 200 body; `None` when it is not a complete answer.
pub fn parse_answer(body: &[u8]) -> Option<Answer> {
    let v = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    if v.get("completeness")?.as_str()? != "complete" {
        return None;
    }
    v.get("users")?
        .as_array()?
        .iter()
        .map(|u| Some((u.get("user")?.as_u64()?, u.get("score")?.as_f64()?.to_bits())))
        .collect()
}

// ---------------------------------------------------------------------
// The read path, layer by layer
// ---------------------------------------------------------------------

/// What `QueryStats` reports for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCounts {
    pub elapsed_ns: u64,
    pub candidates: usize,
    pub in_radius: usize,
    pub threads_built: usize,
    pub threads_pruned: usize,
    pub page_reads: u64,
    pub stage_cover_ns: u64,
    pub stage_fetch_ns: u64,
    pub stage_combine_ns: u64,
    pub stage_threads_ns: u64,
    pub stage_scoring_ns: u64,
    pub stage_topk_ns: u64,
}

impl From<&QueryStats> for QueryCounts {
    fn from(s: &QueryStats) -> Self {
        let ns = |d: Duration| d.as_nanos() as u64;
        Self {
            elapsed_ns: ns(s.elapsed),
            candidates: s.candidates,
            in_radius: s.in_radius,
            threads_built: s.threads_built,
            threads_pruned: s.threads_pruned,
            page_reads: s.metadata_page_reads,
            stage_cover_ns: ns(s.stages.cover),
            stage_fetch_ns: ns(s.stages.fetch),
            stage_combine_ns: ns(s.stages.combine),
            stage_threads_ns: ns(s.stages.threads),
            stage_scoring_ns: ns(s.stages.scoring),
            stage_topk_ns: ns(s.stages.topk),
        }
    }
}

/// What `IndexBuildReport` says about an engine's index.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexCounts {
    pub posts: u64,
    pub index_bytes: u64,
}

/// The static engine the read workloads query.
#[derive(Clone)]
pub struct ReadEngine {
    engine: Arc<TklusEngine>,
    pub index: IndexCounts,
}

/// The postings one query fetched, still per keyword.
pub struct Fetched {
    per_keyword: Vec<Vec<Arc<PostingsList>>>,
    pub lists: usize,
    pub bytes: u64,
}

impl ReadEngine {
    pub fn build(corpus: &Corpus) -> Self {
        let (engine, report) = TklusEngine::build(&corpus.0, &EngineConfig::default());
        Self {
            engine: Arc::new(engine),
            index: IndexCounts { posts: report.posts, index_bytes: report.index_bytes },
        }
    }

    /// `TklusEngine::try_query`.
    pub fn query(&self, q: &Query) -> Result<(Answer, QueryCounts), String> {
        let out = self.engine.try_query(&q.query, q.ranking).map_err(|e| e.to_string())?;
        if !out.completeness.is_complete() {
            return Err("unbudgeted query came back degraded".into());
        }
        Ok((answer(&out.users), QueryCounts::from(&out.stats)))
    }

    /// `tklus_geo::circle_cover_with_stats` at the engine's geohash length
    /// and metric: `(cells, overcover ratio)`.
    pub fn cover(&self, q: &Query) -> (usize, f64) {
        let (_, stats) = circle_cover_with_stats(
            &q.query.location,
            q.query.radius_km,
            self.engine.index().geohash_len(),
            self.engine.scoring().metric,
        )
        .expect("index geohash length is valid");
        (stats.cells, stats.overcover_ratio())
    }

    /// `HybridIndex::fetch_for_query` on the query's resolved terms.
    pub fn fetch(&self, q: &Query) -> Fetched {
        let terms = self.engine.resolve_query_terms(&q.query.keywords);
        let f = self.engine.index().fetch_for_query(
            &q.query.location,
            q.query.radius_km,
            &terms,
            self.engine.scoring().metric,
        );
        Fetched { per_keyword: f.per_keyword, lists: f.lists, bytes: f.bytes }
    }

    /// The candidate tweet ids of a fetch under the query's AND/OR, by the
    /// index crate's own `union_sum` / `intersect_sum`.
    pub fn candidates(&self, q: &Query, fetched: &Fetched) -> Vec<u64> {
        let ids = |v: Vec<(TweetId, u32)>| v.into_iter().map(|(t, _)| t.0).collect();
        match q.query.semantics {
            Semantics::Or => {
                let all: Vec<&Arc<PostingsList>> = fetched.per_keyword.iter().flatten().collect();
                ids(union_sum(&all.iter().map(|l| l.as_ref()).collect::<Vec<_>>()))
            }
            Semantics::And => {
                let known = self.engine.resolve_keywords(&q.query.keywords);
                if known.iter().any(Option::is_none) {
                    return Vec::new();
                }
                let groups: Vec<Vec<(TweetId, u32)>> = fetched
                    .per_keyword
                    .iter()
                    .map(|lists| union_sum(&lists.iter().map(|l| l.as_ref()).collect::<Vec<_>>()))
                    .collect();
                ids(intersect_sum(&groups))
            }
        }
    }

    /// `MetadataDb::try_row` plus the radius check the engine makes on it:
    /// `Some(in radius?)`, `None` for an unknown id.
    pub fn row_in_radius(&self, q: &Query, tid: u64) -> Result<Option<bool>, String> {
        let row = self.engine.db().try_row(TweetId(tid)).map_err(|e| e.to_string())?;
        Ok(row.map(|r| {
            q.query.location.distance_km(&r.location, self.engine.scoring().metric)
                <= q.query.radius_km
        }))
    }

    /// `TklusEngine::try_thread_phi`.
    pub fn thread_phi(&self, tid: u64) -> Result<f64, String> {
        self.engine.try_thread_phi(TweetId(tid)).map_err(|e| e.to_string())
    }

    /// `TklusEngine::term_counts`: distinct terms of a text.
    pub fn term_counts(&self, text: &str) -> usize {
        self.engine.term_counts(text).len()
    }

    /// Metadata-database `IoStats`: `(page reads, cache hits, cache misses)`.
    pub fn io(&self) -> (u64, u64, u64) {
        let io = self.engine.db().io();
        (io.page_reads(), io.cache_hits(), io.cache_misses())
    }
}

/// Seconds of the two build steps under `TklusEngine::build`, called
/// directly: `(build_index, MetadataDb::try_from_posts)`.
pub fn time_build_parts(corpus: &Corpus) -> (f64, f64) {
    let t = Instant::now();
    let built = build_index(corpus.0.posts(), &IndexBuildConfig::default());
    let index_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&built);
    drop(built);
    let t = Instant::now();
    let db =
        MetadataDb::try_from_posts(corpus.0.posts(), EngineConfig::default().cache_pages, None)
            .expect("in-memory metadata load");
    let metadata_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&db);
    (index_s, metadata_s)
}

/// `ShardedEngine` over the same corpus.
pub struct Sharded(ShardedEngine);

impl Sharded {
    pub fn build(corpus: &Corpus, shards: usize) -> Result<Self, String> {
        ShardedEngine::try_build(&corpus.0, shards, &EngineConfig::default())
            .map(Self)
            .map_err(|e| e.to_string())
    }

    /// `ShardedEngine::query`: the answer (`None` if degraded), shards
    /// dispatched to, shards skipped by the Def. 11 bound.
    pub fn query(&self, q: &Query) -> (Option<Answer>, usize, usize) {
        let out = self.0.query(&q.query, q.ranking);
        let complete = out.completeness.is_complete();
        (complete.then(|| answer(&out.users)), out.fanout, out.skipped_by_bound.len())
    }
}

// ---------------------------------------------------------------------
// The serving layer and the socket front-end
// ---------------------------------------------------------------------

/// In-process `tklus_http::serve` over a one-worker `TklusServer`.
pub struct Front(HttpHandle);

impl Front {
    pub fn start(engine: &ReadEngine, sink: Option<&Store>) -> Result<Self, String> {
        let server = start_server(engine, sink)?;
        serve(server, HttpConfig::default()).map(Self).map_err(|e| format!("bind: {e}"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// `HttpMetrics`: 4xx and 5xx responses written so far.
    pub fn non2xx(&self) -> u64 {
        let m = self.0.metrics();
        m.responses_4xx.load(Ordering::Relaxed) + m.responses_5xx.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains and joins every server thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

fn start_server(engine: &ReadEngine, sink: Option<&Store>) -> Result<TklusServer, String> {
    let sink = sink.map(|s| Arc::new(WalSink::new(Arc::clone(&s.0))) as Arc<dyn IngestSink>);
    TklusServer::start_with_sink(Arc::clone(&engine.engine), serve_config(), sink)
}

/// A second one-worker `TklusServer` over the same engine (and sink), for
/// replaying requests one layer below the socket: `serve` consumes the
/// server it fronts, so that one cannot be called directly.
pub struct Replay(TklusServer);

impl Replay {
    pub fn start(engine: &ReadEngine, sink: Option<&Store>) -> Result<Self, String> {
        start_server(engine, sink).map(Self)
    }

    /// `TklusServer::query` at normal priority, default deadline.
    pub fn query(&self, q: &Query) -> Result<Answer, String> {
        let out = self
            .0
            .query(q.query.clone(), q.ranking, Priority::Normal, None)
            .map_err(|e| e.to_string())?;
        if !out.completeness.is_complete() {
            return Err("deadline degraded the answer".into());
        }
        Ok(answer(&out.users))
    }

    /// `TklusServer::submit_ingest` and wait.
    pub fn ingest(&self, corpus: &Corpus, i: usize) -> Result<u64, String> {
        self.0
            .submit_ingest(corpus.0.posts()[i].clone(), None)
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| format!("{e:?}"))
    }

    /// `AdmissionCounters`: requests shed at or after enqueue.
    pub fn shed(&self) -> u64 {
        let c = self.0.counters();
        c.shed_total() + c.expired_at_dispatch
    }
}

// ---------------------------------------------------------------------
// The write path
// ---------------------------------------------------------------------

/// What `OpenReport` says about an `IngestStore::open`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenInfo {
    pub sealed_posts: usize,
    pub live_posts: usize,
    pub generation: u64,
}

/// An `IngestStore` on `StdFs` under a directory.
#[derive(Clone)]
pub struct Store(Arc<IngestStore>);

/// The background compactor; stops and joins on drop.
pub struct Compactor(#[allow(dead_code)] CompactorHandle);

impl Store {
    /// `IngestStore::open` on plain `StdFs` — what the end-to-end run uses.
    pub fn open(dir: &Path) -> Result<(Self, OpenInfo), String> {
        let fs = StdFs::open(dir).map_err(|e| e.to_string())?;
        Self::open_on(Arc::new(fs))
    }

    /// The same over a [`CountingFs`] around `StdFs` — the traced run.
    pub fn open_counting(dir: &Path) -> Result<(Self, OpenInfo, Arc<CountingFs>), String> {
        let fs = StdFs::open(dir).map_err(|e| e.to_string())?;
        let counting = Arc::new(CountingFs::new(Arc::new(fs)));
        let (store, info) = Self::open_on(Arc::clone(&counting) as Arc<dyn WalFs>)?;
        Ok((store, info, counting))
    }

    fn open_on(fs: Arc<dyn WalFs>) -> Result<(Self, OpenInfo), String> {
        let (store, report) =
            IngestStore::open(fs, StoreConfig::default()).map_err(|e| e.to_string())?;
        let info = OpenInfo {
            sealed_posts: report.sealed_posts,
            live_posts: report.live_posts,
            generation: report.generation,
        };
        Ok((Self(Arc::new(store)), info))
    }

    /// `IngestStore::ingest` of corpus post `i`.
    pub fn ingest(&self, corpus: &Corpus, i: usize) -> Result<u64, String> {
        self.0.ingest(corpus.0.posts()[i].clone()).map_err(|e| e.to_string())
    }

    /// `IngestStore::try_query` over sealed ∪ live.
    pub fn query(&self, q: &Query) -> Result<Answer, String> {
        self.0.try_query(&q.query, q.ranking).map(|u| answer(&u)).map_err(|e| e.to_string())
    }

    /// One synchronous `IngestStore::compact` round.
    pub fn compact(&self) -> Result<bool, String> {
        self.0.compact().map_err(|e| e.to_string())
    }

    pub fn spawn_compactor(&self) -> Compactor {
        Compactor(self.0.spawn_compactor())
    }

    /// `CompactionReport`: `(rounds completed, rounds failed)`.
    pub fn compactions(&self) -> (u64, u64) {
        let r = self.0.compaction_stats();
        (r.successes_total, r.failures_total)
    }

    pub fn acked_posts(&self) -> usize {
        self.0.acked_posts()
    }

    pub fn live_posts(&self) -> usize {
        self.0.live_posts()
    }

    pub fn contains_post(&self, id: u64) -> bool {
        self.0.contains_post(TweetId(id))
    }

    /// A fresh `TklusEngine::build` over `store.posts()` — the reference
    /// the store's answers are held to.
    pub fn rebuilt_engine(&self) -> Result<ReadEngine, String> {
        let corpus = ModelCorpus::new(self.0.posts()).map_err(|e| format!("{e:?}"))?;
        Ok(ReadEngine::build(&Corpus(corpus)))
    }
}
