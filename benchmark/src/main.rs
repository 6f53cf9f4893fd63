//! `tklus-benchmark`: one run of one workload.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs the
//! workload in this process (so `setup_s` and `peak_rss_mb` are its own),
//! prints the human-readable report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics of the mode: every end-to-end metric untraced, every per-layer
//! metric traced. It exits non-zero when a correctness check fails.

mod client;
mod common;
mod contract;
mod counting_fs;
mod layers;
mod mixed;
mod read;
mod stats;
mod trace;
mod write;

use common::Args;
use contract::{result_json, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

const USAGE: &str = "usage: tklus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}\n{USAGE}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    if let Some(w) = read::workload(name) {
        return if args.trace { read::run_traced(name, &w, args) } else { read::run(&w, args) };
    }
    match (name, args.trace) {
        ("ingest_stream", false) => write::run(args),
        ("ingest_stream", true) => write::run_traced(args),
        ("mixed_rw", false) => mixed::run(args),
        ("mixed_rw", true) => mixed::run_traced(args),
        _ => Err(format!("no workload {name}")),
    }
}

fn main() -> std::process::ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return std::process::ExitCode::from(2);
        }
    };
    eprintln!(
        "# {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprintln!("# {}", layers::product_defaults());
    let outcome = run(&args).unwrap_or_else(common::failed_outcome);
    for l in &outcome.report {
        eprintln!("{l}");
    }
    let listed = if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    if args.trace {
        for (name, unit) in listed {
            eprintln!("{name} {unit} {}", outcome.value(name));
        }
    }
    eprintln!("answers_digest {:016x}", outcome.answers_digest);
    eprintln!(
        "failed_share {} ({} of {})",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_json(&outcome, listed));
    if outcome.correct {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
