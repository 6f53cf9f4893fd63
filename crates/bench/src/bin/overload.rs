//! Saturation behaviour of the serving layer under 4× overload.
//!
//! The tentpole measurement for DESIGN.md §11: an open-loop burst offers
//! queries at four times the measured service capacity of the worker
//! pool, once through a [`TklusServer`] with the admission limiter ON
//! (bounded queue, deadlines, degrade policy) and once with it
//! effectively OFF (queue deep enough to hold the whole burst, deadline
//! far beyond the run). With the limiter on, the p99 latency of
//! *successful* responses stays bounded near `queue_capacity ×
//! mean_service / workers`; with it off, nothing is shed and the p99
//! grows with the backlog — the classic unbounded-queue failure mode.
//! Emits `results/BENCH_overload.json` so the bound is machine-checkable
//! across PRs.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tklus_bench::{banner, build_engine, csv_row, parse_flags, query_workload, to_query};
use tklus_core::{BoundsMode, Ranking, TklusEngine};
use tklus_gen::{generate_corpus, GenConfig};
use tklus_metrics::Summary;
use tklus_model::{Priority, Semantics, TklusQuery};
use tklus_serve::{DegradePolicy, ServeConfig, ServeError, TklusServer};

/// One limiter configuration pushed through the same burst.
struct RunOutcome {
    label: &'static str,
    offered: usize,
    completed: usize,
    degraded: usize,
    shed: usize,
    latency: Option<Summary>,
}

/// Wall-clock service time of the workload, measured sequentially on the
/// unloaded engine: (mean, max) per query in ms. The mean calibrates the
/// burst's offered rate; the max sets the latency bound's slack (a worker
/// may pop an entry just before its deadline and then run the slowest
/// query in the mix).
fn calibrate_service_ms(engine: &TklusEngine, requests: &[(TklusQuery, Ranking)]) -> (f64, f64) {
    let mut worst = 0.0f64;
    let t = Instant::now();
    for (q, ranking) in requests {
        let one = Instant::now();
        let (top, _) = engine.query(q, *ranking);
        std::hint::black_box(top);
        worst = worst.max(one.elapsed().as_secs_f64() * 1e3);
    }
    ((t.elapsed().as_secs_f64() * 1e3 / requests.len() as f64).max(0.05), worst)
}

/// Offers `total` requests open-loop at `interarrival` spacing and waits
/// for every ticket. Latency is measured from the request's *scheduled*
/// arrival (open-loop convention: queueing delay the server causes counts
/// against it, client-side pacing jitter does not hide it).
fn run_burst(
    label: &'static str,
    engine: Arc<TklusEngine>,
    requests: &[(TklusQuery, Ranking)],
    cfg: ServeConfig,
    total: usize,
    interarrival: Duration,
    deadline: Duration,
) -> RunOutcome {
    let server = TklusServer::start(engine, cfg).expect("serve config is valid");
    let start = Instant::now();
    // One waiter thread per admitted ticket stamps the completion instant
    // the moment the response lands — waiting for tickets sequentially
    // from the submit thread would time early completions at whenever the
    // burst loop got around to them.
    let mut waiters = Vec::with_capacity(total);
    let mut shed = 0usize;
    for i in 0..total {
        let scheduled = interarrival * i as u32;
        if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let (q, ranking) = &requests[i % requests.len()];
        match server.submit(q.clone(), *ranking, Priority::Normal, Some(deadline)) {
            Ok(ticket) => waiters.push(std::thread::spawn(move || {
                let result = ticket.wait();
                (scheduled, start.elapsed(), result)
            })),
            Err(_) => shed += 1,
        }
    }
    let mut latencies = Vec::with_capacity(waiters.len());
    let mut completed = 0usize;
    let mut degraded = 0usize;
    for waiter in waiters {
        let (scheduled, end, result) = waiter.join().expect("waiter thread never panics");
        match result {
            Ok(outcome) => {
                completed += 1;
                if !outcome.completeness.is_complete() {
                    degraded += 1;
                }
                latencies.push((end.as_secs_f64() - scheduled.as_secs_f64()) * 1e3);
            }
            Err(ServeError::Engine(_)) => completed += 1,
            Err(_) => shed += 1, // evicted / expired after admission
        }
    }
    server.drain(Duration::from_millis(200));
    RunOutcome {
        label,
        offered: total,
        completed,
        degraded,
        shed,
        latency: if latencies.is_empty() { None } else { Some(Summary::of(&latencies)) },
    }
}

fn json_run(out: &RunOutcome) -> String {
    let (p50, p95, p99, max) =
        out.latency.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |s| (s.p50, s.p95, s.p99, s.max));
    format!(
        "    {{ \"label\": \"{}\", \"offered\": {}, \"completed\": {}, \"degraded\": {}, \
         \"shed\": {}, \"p50_ms\": {:.2}, \"p95_ms\": {:.2}, \"p99_ms\": {:.2}, \
         \"max_ms\": {:.2} }}",
        out.label, out.offered, out.completed, out.degraded, out.shed, p50, p95, p99, max
    )
}

fn main() {
    let flags = parse_flags();
    banner("Overload: 4x saturation burst, limiter on vs off", &flags);
    // A mid-size corpus keeps per-query service time well above timer
    // resolution without making the unbounded run take minutes.
    let corpus = generate_corpus(&GenConfig {
        original_posts: flags.posts.min(20_000),
        seed: flags.seed,
        ..GenConfig::default()
    });
    let engine = Arc::new(build_engine(&corpus, 4).0);

    let specs = query_workload(&corpus);
    let requests: Vec<(TklusQuery, Ranking)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ranking =
                if i % 3 == 0 { Ranking::Sum } else { Ranking::Max(BoundsMode::HotKeywords) };
            (to_query(spec, 12.0, 5, Semantics::Or), ranking)
        })
        .collect();

    let workers = 3usize;
    let (service_ms, worst_service_ms) = calibrate_service_ms(&engine, &requests);
    // 4x overload: arrivals at 4 × (workers / service_time).
    let overload = 4.0;
    let interarrival = Duration::from_secs_f64(service_ms / 1e3 / workers as f64 / overload);
    let total = 600usize;
    println!(
        "calibrated service {:.2} ms; {} workers; interarrival {:.0} us ({}x overload); {} requests",
        service_ms,
        workers,
        interarrival.as_secs_f64() * 1e6,
        overload,
        total
    );

    // Limiter ON: bounded queue, deadline a small multiple of the service
    // time, degrade to a prefix when the backlog passes half the queue.
    let queue_capacity = 2 * workers;
    let deadline_ms = (service_ms * 10.0).ceil() as u64 + 5;
    let limiter_on = ServeConfig {
        workers,
        queue_capacity,
        default_deadline_ms: deadline_ms,
        est_service_ms: service_ms.ceil() as u64,
        degrade: Some(DegradePolicy { queue_threshold: queue_capacity / 2, max_cells: 2 }),
        breaker: Default::default(),
    };
    // Limiter OFF: the queue swallows the whole burst and the deadline
    // outlives the run, so nothing is ever shed — every request waits.
    let limiter_off = ServeConfig {
        workers,
        queue_capacity: total + 1,
        default_deadline_ms: 600_000,
        est_service_ms: service_ms.ceil() as u64,
        degrade: None,
        breaker: Default::default(),
    };

    let on = run_burst(
        "limiter-on",
        Arc::clone(&engine),
        &requests,
        limiter_on,
        total,
        interarrival,
        Duration::from_millis(deadline_ms),
    );
    let off = run_burst(
        "limiter-off",
        Arc::clone(&engine),
        &requests,
        limiter_off,
        total,
        interarrival,
        Duration::from_secs(600),
    );

    println!(
        "{:<12} {:>9} {:>10} {:>9} {:>6} {:>9} {:>9}",
        "mode", "offered", "completed", "degraded", "shed", "p99(ms)", "max(ms)"
    );
    for out in [&on, &off] {
        let (p99, max) = out.latency.as_ref().map_or((0.0, 0.0), |s| (s.p99, s.max));
        println!(
            "{:<12} {:>9} {:>10} {:>9} {:>6} {:>9.2} {:>9.2}",
            out.label, out.offered, out.completed, out.degraded, out.shed, p99, max
        );
        csv_row(&[
            out.label.into(),
            out.offered.to_string(),
            out.completed.to_string(),
            out.shed.to_string(),
            format!("{p99:.2}"),
        ]);
    }

    let on_p99 = on.latency.as_ref().map_or(0.0, |s| s.p99);
    let off_p99 = off.latency.as_ref().map_or(0.0, |s| s.p99);
    // The claim under test: with the limiter on, p99 is bounded by the
    // deadline plus one worst-case service (nothing admitted waits past
    // its deadline, and the slowest query can start right at it); with it
    // off, p99 grows with the backlog and blows through that bound.
    let bound_ms = deadline_ms as f64 + worst_service_ms;
    let bounded = on_p99 <= bound_ms;
    println!(
        "limiter-on p99 {on_p99:.2} ms (bound {bound_ms:.0} ms, bounded: {bounded}); \
         limiter-off p99 {off_p99:.2} ms"
    );

    // Hand-rolled JSON: serde is a no-op stand-in in this workspace.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"overload\",\n");
    json.push_str(&format!("  \"posts\": {},\n", flags.posts.min(20_000)));
    json.push_str(&format!("  \"seed\": {},\n", flags.seed));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"overload_factor\": {overload},\n"));
    json.push_str(&format!("  \"calibrated_service_ms\": {service_ms:.3},\n"));
    json.push_str(&format!("  \"worst_service_ms\": {worst_service_ms:.3},\n"));
    json.push_str(&format!("  \"deadline_ms\": {deadline_ms},\n"));
    json.push_str(&format!("  \"p99_bound_ms\": {bound_ms:.1},\n"));
    json.push_str(&format!("  \"requests\": {total},\n"));
    json.push_str("  \"runs\": [\n");
    json.push_str(&json_run(&on));
    json.push_str(",\n");
    json.push_str(&json_run(&off));
    json.push_str("\n  ],\n");
    json.push_str(&format!("  \"limiter_on_p99_bounded_by_deadline\": {bounded}\n"));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_overload.json", &json)
        .expect("write results/BENCH_overload.json");
    println!("wrote results/BENCH_overload.json");
}
