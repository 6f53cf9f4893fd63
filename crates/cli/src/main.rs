//! `tklus` — command-line interface to the TkLUS reproduction.
//!
//! ```text
//! tklus generate    --posts 20000 --seed 123 --out corpus.tsv
//! tklus build-index --corpus corpus.tsv --out index_dir/ --nodes 4
//! tklus stats       [--corpus corpus.tsv | --posts 20000 --seed 123]
//! tklus query       --lat 43.6839 --lon -79.3736 --radius 10 \
//!                   --keywords hotel,spa --k 5 --ranking max --semantics or \
//!                   [--corpus corpus.tsv] [--index index_dir/] \
//!                   [--since T --until T] [--now T --half-life H] \
//!                   [--timeout-ms MS] [--max-cells N]
//! ```
//!
//! Corpora travel between invocations as TSV files (`tklus generate --out`)
//! or are regenerated deterministically from `--posts`/`--seed`; indexes
//! can be built once (`build-index`, its key space cut into `--nodes`
//! geohash-range partitions) and reloaded for querying (`query --index`).
//!
//! # Exit codes
//!
//! Failures map to distinct exit codes so scripts can branch on the
//! failure class (DESIGN.md §10):
//!
//! * `1` — general failure (corpus file I/O, ETL);
//! * `2` — usage error (bad flags, invalid query parameters);
//! * `3` — index directory persistence failure (save/load, corruption,
//!   format-version mismatch, or the sharded `manifest.tsv` layout earlier
//!   builds wrote);
//! * `4` — metadata storage failure during engine build or query;
//! * `5` — inverted-index failure during query;
//! * `6` — degraded (budget-truncated) result under `--fail-on-degraded`;
//! * `7` — write-ahead-log failure (`ingest --wal`: append, replay, or
//!   unhealable corruption; DESIGN.md §15).
//!
//! `tklus serve-http` exits `0` on a clean SIGTERM/SIGINT drain — shed or
//! abandoned requests were each answered typed, so a drained shutdown is
//! success, not failure; the usual codes above apply to startup errors
//! (bad flags `2`, WAL open `7`, bind failures `1`).
//!
//! A *degraded* query result (budget exhausted) is not a failure by
//! default: the CLI prints the partial top-k with a completeness note and
//! exits `0`. Pass `--fail-on-degraded` to make scripts treat the partial
//! answer as an error — the result is still printed, but the process
//! exits `6`.

mod args;
mod serve_http;

use args::{ArgError, Args};
use std::path::PathBuf;
use tklus_core::{BoundsMode, Completeness, EngineConfig, EngineError, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, load_tsv, save_tsv, GenConfig};
use tklus_geo::Point;
use tklus_model::{Corpus, Semantics, TklusQuery};

/// A CLI failure, carrying the class that decides the process exit code.
#[derive(Debug)]
enum CliError {
    /// File I/O and other environment failures — exit 1.
    General(String),
    /// Flag and query-parameter errors — exit 2.
    Usage(String),
    /// Index directory save/load failures — exit 3.
    Persist(tklus_index::PersistError),
    /// Engine failures — exit 4 (storage) or 5 (index).
    Engine(EngineError),
    /// Degraded result rejected by `--fail-on-degraded` — exit 6. The
    /// partial answer was already printed; this only flips the exit code.
    Degraded {
        /// Cover cells examined before the budget expired.
        cells_processed: usize,
        /// Cover cells a complete answer would have examined.
        cells_total: usize,
    },
    /// Write-ahead-log failures (`ingest --wal`) — exit 7.
    Wal(tklus_wal::WalError),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::General(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Persist(_) => 3,
            CliError::Engine(EngineError::Storage(_)) => 4,
            CliError::Engine(EngineError::Index(_)) => 5,
            CliError::Degraded { .. } => 6,
            CliError::Wal(_) => 7,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::General(msg) | CliError::Usage(msg) => f.write_str(msg),
            CliError::Persist(e) => write!(f, "index persistence failed: {e}"),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Degraded { cells_processed, cells_total } => write!(
                f,
                "degraded result ({cells_processed}/{cells_total} cover cells) \
                 rejected by --fail-on-degraded"
            ),
            CliError::Wal(e) => write!(f, "write-ahead log failure: {e}"),
        }
    }
}

impl From<tklus_wal::WalError> for CliError {
    fn from(e: tklus_wal::WalError) -> Self {
        CliError::Wal(e)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.0)
    }
}

impl From<tklus_index::PersistError> for CliError {
    fn from(e: tklus_index::PersistError) -> Self {
        CliError::Persist(e)
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}

const USAGE: &str = "usage:
  tklus generate    --posts N [--seed S] --out FILE.tsv
  tklus ingest      --json FILE.jsonl [--out FILE.tsv] [--wal DIR]
                    [--compact]
  tklus build-index [--corpus FILE.tsv | --posts N --seed S]
                    --out DIR [--geohash-len 4] [--nodes 3]
  tklus stats       [--corpus FILE.tsv] [--posts N] [--seed S]
                    [--metrics] [--format prometheus|json]
  tklus query       --lat L --lon L --radius KM --keywords a,b[,c]
                    [--k K] [--ranking sum|max|max-global] [--semantics and|or]
                    [--corpus FILE.tsv] [--posts N] [--seed S] [--index DIR]
                    [--since T --until T] [--now T --half-life H]
                    [--timeout-ms MS] [--max-cells N] [--fail-on-degraded]
                    [--metrics]
  tklus serve-http  [--corpus FILE.tsv] [--posts N] [--seed S]
                    [--addr HOST:PORT] [--wal DIR]
                    [--compact-threshold N] [--compact-interval-ms MS]
                    [--workers N] [--queue-capacity N] [--deadline-ms MS]
                    [--est-service-ms MS]
                    [--degrade-threshold N --degrade-cells N]
                    [--max-connections N] [--max-header-bytes B]
                    [--max-body-bytes B] [--read-timeout-ms MS]
                    [--write-timeout-ms MS] [--max-batch N]
                    [--drain-timeout-ms MS]";

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let rest: Vec<String> = argv.collect();
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "ingest" => cmd_ingest(rest),
        "build-index" => cmd_build_index(rest),
        "stats" => cmd_stats(rest),
        "query" => cmd_query(rest),
        "serve-http" => serve_http::cmd_serve_http(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}\n{USAGE}"))),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

/// Loads `--corpus FILE` if given, else generates from `--posts`/`--seed`.
fn corpus_from(args: &Args) -> Result<Corpus, CliError> {
    if let Some(path) = args.get_str("corpus") {
        return load_tsv(&PathBuf::from(path)).map_err(|e| CliError::General(e.to_string()));
    }
    let posts: usize = args.get_or("posts", 20_000)?;
    let seed: u64 = args.get_or("seed", 0x7B1D5)?;
    Ok(generate_corpus(&GenConfig {
        original_posts: posts,
        users: (posts / 3).max(50),
        seed,
        ..GenConfig::default()
    }))
}

fn cmd_generate(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    args.check_known(&["posts", "seed", "out"])?;
    let out: String = args.require("out")?;
    let corpus = corpus_from(&args)?;
    save_tsv(&corpus, &PathBuf::from(&out)).map_err(|e| CliError::General(e.to_string()))?;
    println!("wrote {} posts by {} users to {out}", corpus.len(), corpus.user_count());
    Ok(())
}

fn cmd_ingest(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    args.check_known(&["json", "out", "wal", "compact"])?;
    let json: String = args.require("json")?;
    let out = args.get_str("out").map(str::to_string);
    let wal = args.get_str("wal").map(str::to_string);
    if out.is_none() && wal.is_none() {
        return Err(ArgError("ingest needs --out FILE.tsv and/or --wal DIR".to_string()).into());
    }
    let file = std::fs::File::open(&json).map_err(|e| CliError::General(format!("{json}: {e}")))?;
    let (corpus, report) =
        tklus_gen::etl_json(file).map_err(|e| CliError::General(e.to_string()))?;
    println!(
        "etl: {} lines -> {} loaded ({} no location, {} bad location, {} malformed, {} duplicate)",
        report.lines,
        report.loaded,
        report.dropped_no_location,
        report.dropped_bad_location,
        report.dropped_malformed,
        report.dropped_duplicate
    );
    if let Some(out) = out {
        save_tsv(&corpus, &PathBuf::from(&out)).map_err(|e| CliError::General(e.to_string()))?;
        println!("wrote {} posts -> {out}", corpus.len());
    }
    if let Some(dir) = wal {
        ingest_into_wal(&corpus, &dir, args.get_flag("compact")?)?;
    }
    Ok(())
}

/// Appends `corpus` into the crash-safe WAL store at `dir` (creating it on
/// first use, replaying any existing log first). Posts already in the
/// store — this command is safe to re-run after a crash — count as
/// duplicates, not failures.
fn ingest_into_wal(corpus: &Corpus, dir: &str, compact: bool) -> Result<(), CliError> {
    use std::sync::Arc;
    use tklus_wal::{IngestStore, StdFs, StoreConfig, WalError, WalFs};
    let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(dir)?);
    let (store, open) = IngestStore::open(fs, StoreConfig::default())?;
    println!(
        "wal: opened {dir} at generation {} ({} segments scanned, {} records replayed, \
         {} sealed + {} live posts{})",
        open.generation,
        open.recovery.segments_scanned,
        open.recovery.records_replayed,
        open.sealed_posts,
        open.live_posts,
        match open.recovery.truncated_bytes {
            0 => String::new(),
            n => format!(", healed a {n}-byte torn tail"),
        }
    );
    let mut acked = 0usize;
    let mut duplicates = 0usize;
    for post in corpus.posts() {
        match store.ingest(post.clone()) {
            Ok(_) => acked += 1,
            Err(WalError::DuplicateTweet(_)) => duplicates += 1,
            Err(e) => return Err(e.into()),
        }
    }
    println!("wal: acked {acked} posts ({duplicates} duplicates skipped)");
    if compact {
        let sealed = store.compact()?;
        println!(
            "wal: compaction {} (generation {}, {} posts sealed)",
            if sealed { "sealed the live set" } else { "had nothing to seal" },
            store.generation(),
            store.acked_posts(),
        );
    }
    Ok(())
}

/// `--geohash-len` (default 4) and `--nodes` (default 3, the paper's
/// cluster), each checked against the range the index can lay out: a
/// geohash of 1 to 12 characters, and at most one partition per top-level
/// geohash character.
fn index_build_config(args: &Args) -> Result<tklus_index::IndexBuildConfig, ArgError> {
    let geohash_len: usize = args.get_or("geohash-len", 4)?;
    if !(1..=tklus_geo::MAX_GEOHASH_LEN).contains(&geohash_len) {
        let max = tklus_geo::MAX_GEOHASH_LEN;
        return Err(ArgError(format!("--geohash-len must be in 1..={max}, got {geohash_len}")));
    }
    let nodes: usize = args.get_or("nodes", 3)?;
    let max_nodes = tklus_geo::geohash::ALPHABET.len();
    if !(1..=max_nodes).contains(&nodes) {
        return Err(ArgError(format!("--nodes must be in 1..={max_nodes}, got {nodes}")));
    }
    Ok(tklus_index::IndexBuildConfig { geohash_len, nodes, ..Default::default() })
}

fn cmd_build_index(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    args.check_known(&["corpus", "posts", "seed", "out", "geohash-len", "nodes"])?;
    let out: String = args.require("out")?;
    let config = index_build_config(&args)?;
    let corpus = corpus_from(&args)?;
    let (index, report) = tklus_index::build_index(corpus.posts(), &config);
    tklus_index::save_dir(&index, &PathBuf::from(&out))?;
    println!(
        "built index over {} posts in {:?}: {} keys, {} postings, {} bytes -> {out}",
        report.posts, report.total_time, report.keys, report.postings, report.index_bytes
    );
    Ok(())
}

fn cmd_stats(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    args.check_known(&["corpus", "posts", "seed", "metrics", "format"])?;
    let corpus = corpus_from(&args)?;
    let (engine, report) = TklusEngine::try_build(&corpus, &EngineConfig::default())?;
    if args.get_flag("metrics")? {
        // Registry exposition (DESIGN.md §12): on a freshly built engine
        // the query counters are zero, but the storage counters already
        // carry the build's page traffic.
        let snap = engine
            .metrics_snapshot()
            .ok_or_else(|| CliError::General("engine built with metrics disabled".into()))?;
        match args.get_str("format").unwrap_or("prometheus") {
            "prometheus" | "prom" => print!("{}", snap.render_prometheus()),
            "json" => println!("{}", snap.render_json()),
            other => {
                return Err(
                    ArgError(format!("--format must be prometheus|json, got {other:?}")).into()
                )
            }
        }
        return Ok(());
    }
    println!("corpus: {} posts, {} users", corpus.len(), corpus.user_count());
    let replies = corpus.posts().iter().filter(|p| p.is_reply()).count();
    println!("  replies/forwards: {replies}");
    println!("index: built in {:?}", report.total_time);
    println!("  <geohash, term> keys: {}", report.keys);
    println!("  postings:             {}", report.postings);
    println!("  inverted bytes:       {}", report.index_bytes);
    println!("  forward bytes (RAM):  {}", engine.index().forward().size_bytes());
    println!("  distinct terms:       {}", report.distinct_terms);
    println!("top-10 keywords:");
    for (rank, (term, freq)) in engine.index().vocab().top_terms(10).into_iter().enumerate() {
        println!(
            "  {:>2}. {:<16} {freq}",
            rank + 1,
            engine.index().vocab().term(term).unwrap_or("?")
        );
    }
    Ok(())
}

fn cmd_query(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    args.check_known(&[
        "lat",
        "lon",
        "radius",
        "keywords",
        "k",
        "ranking",
        "semantics",
        "corpus",
        "posts",
        "seed",
        "index",
        "since",
        "until",
        "now",
        "half-life",
        "timeout-ms",
        "max-cells",
        "fail-on-degraded",
        "metrics",
    ])?;
    let lat: f64 = args.require("lat")?;
    let lon: f64 = args.require("lon")?;
    let location = Point::new(lat, lon).map_err(|e| ArgError(e.to_string()))?;
    let radius: f64 = args.require("radius")?;
    let keywords: Vec<String> = args
        .require::<String>("keywords")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let k: usize = args.get_or("k", 5)?;
    let semantics = match args.get_str("semantics").unwrap_or("or") {
        "and" | "AND" => Semantics::And,
        "or" | "OR" => Semantics::Or,
        other => return Err(ArgError(format!("--semantics must be and|or, got {other:?}")).into()),
    };
    let ranking = match args.get_str("ranking").unwrap_or("max") {
        "sum" => Ranking::Sum,
        "max" => Ranking::Max(BoundsMode::HotKeywords),
        "max-global" => Ranking::Max(BoundsMode::Global),
        other => {
            return Err(
                ArgError(format!("--ranking must be sum|max|max-global, got {other:?}")).into()
            )
        }
    };

    let mut query = TklusQuery::new(location, radius, keywords, k, semantics)
        .map_err(|e| ArgError(e.to_string()))?;
    match (args.get::<u64>("since")?, args.get::<u64>("until")?) {
        (None, None) => {}
        (since, until) => {
            query = query
                .with_time_range(since.unwrap_or(0), until.unwrap_or(u64::MAX))
                .map_err(|e| ArgError(e.to_string()))?;
        }
    }
    if let Some(now) = args.get::<u64>("now")? {
        let half_life: u64 = args.require("half-life")?;
        query = query.with_recency(now, half_life).map_err(|e| ArgError(e.to_string()))?;
    }
    // Per-query budget: exhausting it degrades the result (exit 0 with a
    // completeness note) rather than failing.
    if let Some(ms) = args.get::<u64>("timeout-ms")? {
        query = query.with_timeout_ms(ms);
    }
    if let Some(cells) = args.get::<usize>("max-cells")? {
        query = query.with_max_cells(cells);
    }

    let corpus = corpus_from(&args)?;
    let engine_config = EngineConfig::default();
    let engine = match args.get_str("index") {
        Some(dir) => {
            eprintln!("loading index from {dir} ...");
            let (index, report) = tklus_index::load_dir_with_report(&PathBuf::from(dir))?;
            for stray in &report.skipped_files {
                eprintln!("warning: skipped stray file in index dir: {stray}");
            }
            TklusEngine::try_from_index(index, &corpus, &engine_config)?
        }
        None => {
            eprintln!("building engine over {} posts ...", corpus.len());
            TklusEngine::try_build(&corpus, &engine_config)?.0
        }
    };
    let outcome = engine.try_query(&query, ranking)?;
    let (top, stats) = (outcome.users, outcome.stats);

    println!(
        "top-{k} local users for {:?} within {radius} km of ({lat}, {lon}) [{}]:",
        query.keywords, query.semantics
    );
    if top.is_empty() {
        println!("  (no qualifying users)");
    }
    for (rank, r) in top.iter().enumerate() {
        println!("  #{:<3} {:<12} score {:.4}", rank + 1, r.user.to_string(), r.score);
    }
    let mut degraded = None;
    if let Completeness::Degraded { cells_processed, cells_total } = outcome.completeness {
        println!(
            "note: degraded result — budget expired after {cells_processed}/{cells_total} \
             cover cells; the ranking is exact over the cells processed"
        );
        degraded = Some(CliError::Degraded { cells_processed, cells_total });
    }
    println!(
        "stats: {} candidates, {} in radius, {} threads built, {} pruned, {} metadata page reads, {:.2} ms",
        stats.candidates,
        stats.in_radius,
        stats.threads_built,
        stats.threads_pruned,
        stats.metadata_page_reads,
        stats.elapsed.as_secs_f64() * 1e3
    );
    // Per-stage span breakdown (DESIGN.md §12).
    let st = &stats.stages;
    if *st != tklus_core::StageTimings::default() {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "stages: cover {:.2} ms, fetch {:.2} ms, combine {:.2} ms, threads {:.2} ms, \
             scoring {:.2} ms, topk {:.2} ms",
            ms(st.cover),
            ms(st.fetch),
            ms(st.combine),
            ms(st.threads),
            ms(st.scoring),
            ms(st.topk)
        );
    }
    if args.get_flag("metrics")? {
        if let Some(snap) = engine.metrics_snapshot() {
            print!("-- metrics --\n{}", snap.render_prometheus());
        }
    }
    // The result (printed above) stands either way; the flag only decides
    // whether scripts see a partial answer as exit 6 instead of 0.
    match degraded {
        Some(e) if args.get_flag("fail-on-degraded")? => Err(e),
        _ => Ok(()),
    }
}
