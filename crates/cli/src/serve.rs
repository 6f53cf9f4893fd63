//! `tklus serve` — replay a seeded open-loop workload through the
//! overload-resilient serving layer (DESIGN.md §11) and report how it
//! degraded: shed breakdown, latency percentiles, breaker trajectory,
//! drain accounting, and the final health/readiness probes.
//!
//! Two modes share every knob:
//!
//! * `--mode sim` (default) — the virtual-time simulator: deterministic
//!   per `--load-seed`, finishes instantly regardless of the schedule's
//!   virtual length;
//! * `--mode threaded` — the real [`TklusServer`] with worker threads and
//!   wall-clock arrivals (the same schedule, replayed in real time).
//!
//! Threaded mode optionally attaches the crash-safe WAL store
//! (`--wal DIR`) as the ingest sink and runs its background compactor
//! (`--compact-threshold`, `--compact-interval-ms`), stopping it before
//! the drain's final seal — the same serving-path wiring `serve-http`
//! uses.

use crate::args::{ArgError, Args};
use crate::{corpus_from, CliError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tklus_core::{BoundsMode, EngineConfig, Ranking, TklusEngine};
use tklus_gen::{generate_queries, QueryConfig};
use tklus_metrics::RegistrySnapshot;
use tklus_metrics::Summary;
use tklus_model::{Semantics, TklusQuery};
use tklus_serve::sim::{
    generate_plan, run_sim, Disposition, DrainPlan, LoadConfig, SimConfig, SimReport,
};
use tklus_serve::{DegradePolicy, Rejected, ServeConfig, ServeError, TklusServer};

/// Builds the query workload the load generator draws from.
fn workload(
    corpus: &tklus_model::Corpus,
    seed: u64,
) -> Result<Vec<(TklusQuery, Ranking)>, CliError> {
    let specs = generate_queries(corpus, &QueryConfig { per_bucket: 4, seed });
    let queries: Vec<(TklusQuery, Ranking)> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let semantics = if i % 2 == 0 { Semantics::Or } else { Semantics::And };
            let ranking =
                if i % 3 == 0 { Ranking::Sum } else { Ranking::Max(BoundsMode::HotKeywords) };
            TklusQuery::new(spec.location, 15.0, spec.keywords, 5, semantics).map(|q| (q, ranking))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    if queries.is_empty() {
        return Err(CliError::General("generated workload is empty".into()));
    }
    Ok(queries)
}

fn parse_serve_config(args: &Args) -> Result<ServeConfig, CliError> {
    let degrade =
        match (args.get::<usize>("degrade-threshold")?, args.get::<usize>("degrade-cells")?) {
            (None, None) => None,
            (Some(queue_threshold), Some(max_cells)) => {
                Some(DegradePolicy { queue_threshold, max_cells })
            }
            _ => {
                return Err(ArgError(
                    "--degrade-threshold and --degrade-cells must be given together".into(),
                )
                .into())
            }
        };
    let cfg = ServeConfig {
        workers: args.get_or("workers", 3)?,
        queue_capacity: args.get_or("queue-capacity", 16)?,
        default_deadline_ms: args.get_or("deadline-ms", 120)?,
        est_service_ms: args.get_or("est-service-ms", 5)?,
        degrade,
        breaker: Default::default(),
    };
    cfg.validate().map_err(CliError::Usage)?;
    Ok(cfg)
}

fn parse_load_config(args: &Args) -> Result<LoadConfig, CliError> {
    Ok(LoadConfig {
        seed: args.get_or("load-seed", 1)?,
        requests: args.get_or("requests", 400)?,
        mean_interarrival_ms: args.get_or("mean-interarrival-ms", 2)?,
        deadline_ms: args.get_or("deadline-ms", 120)?,
        mean_service_ms: args.get_or("mean-service-ms", 7)?,
        priority_weights: [1, 2, 1],
    })
}

fn parse_drain(args: &Args) -> Result<Option<DrainPlan>, CliError> {
    match (args.get::<u64>("drain-at-ms")?, args.get::<u64>("drain-deadline-ms")?) {
        (None, None) => Ok(None),
        (Some(at_ms), deadline) => {
            Ok(Some(DrainPlan { at_ms, deadline_ms: deadline.unwrap_or(50) }))
        }
        (None, Some(_)) => {
            Err(ArgError("--drain-deadline-ms requires --drain-at-ms".into()).into())
        }
    }
}

/// One compact line of the registry's headline numbers, for the
/// `--stats-every` periodic ticker.
fn stats_line(snap: &RegistrySnapshot) -> String {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let (p50, p99) = snap
        .histogram("tklus_query_latency_us")
        .map_or((0, 0), |h| (h.quantile(0.50), h.quantile(0.99)));
    format!(
        "stats: {} answered ({} degraded, {} errors), {}/{} admitted, {} shed, \
         latency p50 {} us p99 {} us",
        c("tklus_queries_total"),
        c("tklus_queries_degraded_total"),
        c("tklus_query_errors_total"),
        c("tklus_serve_completed"),
        c("tklus_serve_admitted"),
        c("tklus_serve_shed_total"),
        p50,
        p99,
    )
}

fn print_latencies(label: &str, latencies: &[f64]) {
    if latencies.is_empty() {
        println!("{label}: no completions");
        return;
    }
    let s = Summary::of(latencies);
    println!(
        "{label}: n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1} (ms)",
        s.n, s.mean, s.p50, s.p95, s.p99, s.max
    );
}

fn print_sim_report(report: &SimReport) {
    let mut shed = 0usize;
    let mut expired = 0usize;
    let mut abandoned = 0usize;
    let mut completed = 0usize;
    for o in &report.outcomes {
        match o.disposition {
            Disposition::Shed(_) => shed += 1,
            Disposition::ExpiredInQueue => expired += 1,
            Disposition::Completed { .. } => completed += 1,
            Disposition::AbandonedQueued | Disposition::AbandonedInFlight { .. } => abandoned += 1,
        }
    }
    println!(
        "dispositions: {completed} completed ({} degraded, {} failed), {shed} shed, \
         {expired} expired in queue, {abandoned} abandoned",
        report.degraded, report.failed
    );
    let c = &report.admission;
    println!(
        "sheds: {} queue-full, {} hopeless-deadline, {} evicted, {} circuit-open, {} shutdown",
        c.shed_queue_full,
        c.shed_deadline,
        c.shed_evicted,
        report.shed_circuit,
        report.shed_shutdown
    );
    let latencies: Vec<f64> = report.latencies_ms.iter().map(|&v| v as f64).collect();
    print_latencies("latency (virtual)", &latencies);
    if report.breaker_trips > 0 {
        println!("breaker: {} trips", report.breaker_trips);
        for &(t, state) in &report.storage_transitions {
            println!("  storage @{t}ms -> {state}");
        }
        for &(t, state) in &report.index_transitions {
            println!("  index   @{t}ms -> {state}");
        }
    }
    if let Some(drain) = &report.drain {
        println!(
            "drain: {} abandoned in queue, {} abandoned in flight",
            drain.abandoned_queued.len(),
            drain.abandoned_in_flight.len()
        );
    }
    println!("-- health --\n{}", report.health.render());
}

fn run_threaded(
    engine: Arc<TklusEngine>,
    queries: &[(TklusQuery, Ranking)],
    serve: ServeConfig,
    load: &LoadConfig,
    drain: Option<DrainPlan>,
    stats_every: Option<u64>,
    wal_store: Option<Arc<tklus_wal::IngestStore>>,
) -> Result<(), CliError> {
    let plan = generate_plan(load, queries.len());
    let sink: Option<Arc<dyn tklus_serve::IngestSink>> =
        wal_store.as_ref().map(|store| Arc::new(tklus_http::WalSink::new(Arc::clone(store))) as _);
    let server = TklusServer::start_with_sink(engine, serve, sink).map_err(CliError::Usage)?;
    // The serving path owns the store's maintenance: seal live posts
    // (replayed at open, or ingested through the sink) in the background
    // so queries never score an unbounded memtable.
    let compactor = wal_store.as_ref().map(|store| store.spawn_compactor());
    let mut shed = 0usize;
    let mut submitted = 0usize;
    let mut completed = 0usize;
    let mut degraded = 0usize;
    let mut failed = 0usize;
    let mut post_admission = 0usize;
    let mut tickets = Vec::new();
    let ticker_stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if let Some(every_ms) = stats_every {
            let every = Duration::from_millis(every_ms.max(1));
            let (stop, server) = (&ticker_stop, &server);
            scope.spawn(move || {
                // Sleep in short slices so the ticker exits promptly when
                // the run ends, however long the emission period is.
                let slice = every.min(Duration::from_millis(50));
                let mut next = std::time::Instant::now() + every;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(slice);
                    if std::time::Instant::now() >= next {
                        println!("{}", stats_line(&server.metrics_snapshot()));
                        next += every;
                    }
                }
            });
        }
        let start = std::time::Instant::now();
        for req in &plan.requests {
            if let Some(d) = drain {
                if req.arrival_ms >= d.at_ms {
                    break; // admission closes at the drain instant
                }
            }
            // Open-loop pacing: wait until this request's wall-clock arrival.
            let arrival = Duration::from_millis(req.arrival_ms);
            if let Some(wait) = arrival.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            submitted += 1;
            let (q, ranking) = &queries[req.query_idx % queries.len()];
            let deadline = Duration::from_millis(req.deadline_ms.saturating_sub(req.arrival_ms));
            match server.submit(q.clone(), *ranking, req.priority, Some(deadline)) {
                Ok(t) => tickets.push(t),
                Err(_) => shed += 1,
            }
        }
        // The ticker keeps emitting while admitted work resolves, so the
        // periodic lines cover the full run, not just the arrival phase.
        for t in tickets.drain(..) {
            match t.wait() {
                Ok(outcome) => {
                    completed += 1;
                    if !outcome.completeness.is_complete() {
                        degraded += 1;
                    }
                }
                Err(ServeError::Engine(_)) => {
                    completed += 1;
                    failed += 1;
                }
                Err(ServeError::Rejected(
                    Rejected::Evicted { .. }
                    | Rejected::ExpiredInQueue { .. }
                    | Rejected::DeadlineHopeless { .. },
                ))
                | Err(ServeError::Abandoned) => post_admission += 1,
                Err(ServeError::Rejected(_)) => shed += 1,
            }
        }
        ticker_stop.store(true, Ordering::Relaxed);
    });
    println!(
        "threaded: {submitted} submitted, {completed} completed ({degraded} degraded, \
         {failed} failed), {shed} shed at admission, {post_admission} shed/abandoned after"
    );
    println!("-- health --\n{}", server.health().render());
    if stats_every.is_some() {
        println!("{}", stats_line(&server.metrics_snapshot()));
        println!("-- metrics --\n{}", server.metrics_snapshot().render_prometheus());
    }
    // The compactor stops before the drain's final seal — a round
    // mid-build would contend with it for the compaction gate.
    if let Some(compactor) = compactor {
        compactor.stop();
    }
    let drain_deadline = Duration::from_millis(drain.map_or(1_000, |d| d.deadline_ms));
    let report = server.drain(drain_deadline);
    println!(
        "drain: {} completed, {} abandoned in queue, {} in flight at deadline",
        report.completed,
        report.abandoned_queued.len(),
        report.in_flight_at_deadline
    );
    if let Some(store) = &wal_store {
        match store.compact() {
            Ok(sealed) => println!(
                "wal: final seal {} (generation {})",
                if sealed { "wrote" } else { "had nothing live" },
                store.generation()
            ),
            Err(e) => println!("wal: final seal failed: {e}"),
        }
    }
    Ok(())
}

/// `tklus serve` entry point.
pub fn cmd_serve(raw: Vec<String>) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    args.check_known(&[
        "corpus",
        "posts",
        "seed",
        "mode",
        "requests",
        "load-seed",
        "mean-interarrival-ms",
        "deadline-ms",
        "mean-service-ms",
        "workers",
        "queue-capacity",
        "est-service-ms",
        "degrade-threshold",
        "degrade-cells",
        "drain-at-ms",
        "drain-deadline-ms",
        "stats-every",
        "wal",
        "compact-threshold",
        "compact-interval-ms",
    ])?;
    let serve = parse_serve_config(&args)?;
    let stats_every = args.get::<u64>("stats-every")?;
    let load = parse_load_config(&args)?;
    let drain = parse_drain(&args)?;
    let corpus = corpus_from(&args)?;
    let load_seed = load.seed;

    println!(
        "serve: {} workers, queue {}, deadline {} ms, degrade {}",
        serve.workers,
        serve.queue_capacity,
        serve.default_deadline_ms,
        serve.degrade.map_or("off".to_string(), |d| format!(
            "at depth {} -> {} cells",
            d.queue_threshold, d.max_cells
        ))
    );
    println!(
        "load: {} requests, seed {}, mean interarrival {} ms, mean service {} ms",
        load.requests, load.seed, load.mean_interarrival_ms, load.mean_service_ms
    );

    // Optional durable write path (threaded mode only: the virtual-time
    // simulator has no sink seam and no wall clock for a compactor).
    let wal_store = match args.get_str("wal") {
        Some(dir) => {
            if args.get_str("mode").unwrap_or("sim") != "threaded" {
                return Err(ArgError("--wal requires --mode threaded".into()).into());
            }
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
            println!(
                "wal: opened {dir} at generation {} ({} sealed + {} live posts)",
                open.generation, open.sealed_posts, open.live_posts
            );
            Some(Arc::new(store))
        }
        None => None,
    };

    match args.get_str("mode").unwrap_or("sim") {
        "sim" => {
            let engine = TklusEngine::try_build(&corpus, &EngineConfig::default())?.0;
            let queries = workload(&corpus, load_seed)?;
            let plan = generate_plan(&load, queries.len());
            let report = run_sim(&engine, &queries, &plan, &SimConfig { serve, drain });
            print_sim_report(&report);
            if stats_every.is_some() {
                // Virtual time has no wall-clock ticks; emit the final
                // registry exposition the periodic mode would converge to.
                println!("{}", stats_line(&report.metrics));
                println!("-- metrics --\n{}", report.metrics.render_prometheus());
            }
            Ok(())
        }
        "threaded" => {
            let engine = Arc::new(TklusEngine::try_build(&corpus, &EngineConfig::default())?.0);
            let queries = workload(&corpus, load_seed)?;
            run_threaded(engine, &queries, serve, &load, drain, stats_every, wal_store)
        }
        other => Err(ArgError(format!("--mode must be sim|threaded, got {other:?}")).into()),
    }
}
