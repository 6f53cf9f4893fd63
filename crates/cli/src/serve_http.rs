//! `tklus serve-http` — run the real-socket HTTP front-end (DESIGN.md
//! §16) over an engine built from a corpus, until SIGTERM/SIGINT.
//!
//! The process prints the bound address (`listening on http://...`) once
//! the listener is up — pass `--addr 127.0.0.1:0` to let the OS pick a
//! port and scrape it from that line. On SIGTERM or SIGINT the server
//! stops accepting, drains (answering every in-flight request, typed),
//! prints the drain accounting, and exits `0` — a clean shutdown is not
//! an error, however much work was abandoned at the deadline.
//!
//! With `--wal DIR`, `POST /ingest` writes land in the crash-safe WAL
//! store (DESIGN.md §15) through the admission queue's priority lane,
//! and a background compactor seals the memtable incrementally once it
//! crosses `--compact-threshold` live posts (polling every
//! `--compact-interval-ms`). On shutdown the compactor is stopped before
//! the drain's final seal. Without `--wal`, ingest answers a typed 503
//! `NotConfigured`.

use crate::args::Args;
use crate::{corpus_from, CliError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tklus_core::{EngineConfig, TklusEngine};
use tklus_http::{serve, HttpConfig, ParserConfig, WalSink};
use tklus_serve::{IngestSink, ServeConfig, TklusServer};

/// Set by the signal handler; the main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers via raw `signal(2)` — std exposes no
/// signal API and the workspace takes no external crates, but an
/// async-signal-safe atomic store is all a drain trigger needs.
#[cfg(unix)]
fn install_signal_handlers() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {
    // No signals to hook; the process runs until killed.
}

fn parse_serve_config(args: &Args) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    let degrade =
        match (args.get::<usize>("degrade-threshold")?, args.get::<usize>("degrade-cells")?) {
            (None, None) => defaults.degrade,
            (Some(queue_threshold), Some(max_cells)) => {
                Some(tklus_serve::DegradePolicy { queue_threshold, max_cells })
            }
            _ => {
                return Err(crate::args::ArgError(
                    "--degrade-threshold and --degrade-cells must be given together".into(),
                )
                .into())
            }
        };
    let cfg = ServeConfig {
        workers: args.get_or("workers", defaults.workers)?,
        queue_capacity: args.get_or("queue-capacity", defaults.queue_capacity)?,
        default_deadline_ms: args.get_or("deadline-ms", defaults.default_deadline_ms)?,
        est_service_ms: args.get_or("est-service-ms", defaults.est_service_ms)?,
        degrade,
    };
    cfg.validate().map_err(CliError::Usage)?;
    Ok(cfg)
}

fn parse_http_config(args: &Args) -> Result<HttpConfig, CliError> {
    let defaults = HttpConfig::default();
    let parser_defaults = ParserConfig::default();
    let cfg = HttpConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:8080").to_string(),
        max_connections: args.get_or("max-connections", defaults.max_connections)?,
        parser: ParserConfig {
            max_header_bytes: args.get_or("max-header-bytes", parser_defaults.max_header_bytes)?,
            max_body_bytes: args.get_or("max-body-bytes", parser_defaults.max_body_bytes)?,
        },
        read_timeout_ms: args.get_or("read-timeout-ms", defaults.read_timeout_ms)?,
        write_timeout_ms: args.get_or("write-timeout-ms", defaults.write_timeout_ms)?,
        max_batch: args.get_or("max-batch", defaults.max_batch)?,
        drain_timeout_ms: args.get_or("drain-timeout-ms", defaults.drain_timeout_ms)?,
    };
    cfg.validate().map_err(CliError::Usage)?;
    Ok(cfg)
}

/// `tklus serve-http` entry point.
pub fn cmd_serve_http(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    args.check_known(&[
        "corpus",
        "posts",
        "seed",
        "addr",
        "workers",
        "queue-capacity",
        "deadline-ms",
        "est-service-ms",
        "degrade-threshold",
        "degrade-cells",
        "max-connections",
        "max-header-bytes",
        "max-body-bytes",
        "read-timeout-ms",
        "write-timeout-ms",
        "max-batch",
        "drain-timeout-ms",
        "wal",
        "compact-threshold",
        "compact-interval-ms",
    ])?;
    let serve_cfg = parse_serve_config(&args)?;
    let http_cfg = parse_http_config(&args)?;

    let corpus = corpus_from(&args)?;
    eprintln!("building engine over {} posts ...", corpus.len());
    let engine = Arc::new(TklusEngine::try_build(&corpus, &EngineConfig::default())?.0);

    // Optional durable write path: open (and replay) the WAL store before
    // the listener exists, so a bound port means writes are accepted.
    let mut wal_store: Option<Arc<tklus_wal::IngestStore>> = None;
    let sink: Option<Arc<dyn IngestSink>> = match args.get_str("wal") {
        Some(dir) => {
            use tklus_wal::{IngestStore, StdFs, StoreConfig, WalFs};
            let defaults = StoreConfig::default();
            let store_cfg = StoreConfig {
                compact_threshold: args.get_or("compact-threshold", defaults.compact_threshold)?,
                compact_interval: Duration::from_millis(
                    args.get_or(
                        "compact-interval-ms",
                        defaults.compact_interval.as_millis() as u64,
                    )?,
                ),
                ..defaults
            };
            let fs: Arc<dyn WalFs> = Arc::new(StdFs::open(dir)?);
            let (store, open) = IngestStore::open(fs, store_cfg)?;
            eprintln!(
                "wal: opened {dir} at generation {} ({} sealed + {} live posts)",
                open.generation, open.sealed_posts, open.live_posts
            );
            let store = Arc::new(store);
            wal_store = Some(Arc::clone(&store));
            Some(Arc::new(WalSink::new(store)))
        }
        None => None,
    };

    let server =
        TklusServer::start_with_sink(engine, serve_cfg.clone(), sink).map_err(CliError::Usage)?;
    // The background compactor seals the memtable once it crosses the
    // threshold, keeping live-candidate scoring bounded under sustained
    // `POST /ingest`. Started after the server so a bind failure never
    // leaves a compactor thread behind.
    let compactor = wal_store.as_ref().map(|store| store.spawn_compactor());
    if let Some(store) = &wal_store {
        eprintln!(
            "wal: background compactor sealing at {} live posts (poll {} ms)",
            store.store_config().compact_threshold,
            store.store_config().compact_interval.as_millis(),
        );
    }
    let handle = serve(server, http_cfg.clone())
        .map_err(|e| CliError::General(format!("bind {}: {e}", http_cfg.addr)))?;
    // The contract line scripts scrape (port 0 resolves here).
    println!("listening on http://{}", handle.addr());
    println!(
        "serve: {} workers, queue {}, deadline {} ms; http: {} connections max, \
         read/write timeouts {}/{} ms, drain {} ms",
        serve_cfg.workers,
        serve_cfg.queue_capacity,
        serve_cfg.default_deadline_ms,
        http_cfg.max_connections,
        http_cfg.read_timeout_ms,
        http_cfg.write_timeout_ms,
        http_cfg.drain_timeout_ms,
    );

    install_signal_handlers();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("signal received; draining ...");
    // Stop the compactor *before* the drain's final seal: a background
    // round mid-build would otherwise contend with it for the compaction
    // gate and the final seal could absorb a stale snapshot.
    if let Some(compactor) = compactor {
        compactor.stop();
    }
    let report = handle.shutdown();
    println!(
        "shutdown: {} connections open at signal; drain: {} completed, {} abandoned in queue, \
         {} in flight at deadline",
        report.connections_at_shutdown,
        report.drain.completed,
        report.drain.abandoned_queued.len(),
        report.drain.in_flight_at_deadline,
    );
    if let Some(store) = &wal_store {
        // Every drained ingest is acked in the WAL; the final seal folds
        // them into the immutable form so the next open replays nothing.
        match store.compact() {
            Ok(true) => eprintln!(
                "wal: final seal wrote generation {} ({} posts sealed)",
                store.generation(),
                store.acked_posts()
            ),
            Ok(false) => eprintln!("wal: final seal found nothing live to seal"),
            Err(e) => eprintln!("wal: final seal failed: {e}"),
        }
    }
    Ok(())
}
