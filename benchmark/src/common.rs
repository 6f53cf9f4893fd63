//! What every workload shares: the parsed arguments, seed derivation, the
//! end-to-end metric set, report lines and scratch directories.

use crate::contract::Outcome;
use crate::stats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where trace files and store directories go (inside the checkout).
    pub out_dir: PathBuf,
}

/// A seed for `(round, stream)` of a run: corpus, query and ingest-corpus
/// seeds all come from the one `--seed` through here (SplitMix64).
pub fn derive(seed: u64, round: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(stream.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `name unit value n=<samples>`.
pub fn line(name: &str, unit: &str, value: f64, n: usize) -> String {
    format!("{name} {unit} {value} n={n}")
}

/// What the measured part of an untraced run hands to [`end_to_end`].
pub struct Measured {
    /// One set-up time per round, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every completed operation, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Wall seconds the measuring windows lasted.
    pub wall_s: f64,
    /// CPU seconds (all threads) the process used inside those windows.
    pub cpu_s: f64,
}

/// The six end-to-end metrics, the same on every workload: median set-up
/// time, median and p90 operation latency, completed operations per
/// second of measuring, CPU per completed operation, and peak RSS.
pub fn end_to_end(m: &Measured, report: &mut Vec<String>) -> Vec<(&'static str, f64)> {
    let n = m.latency_ms.len();
    let summary = stats::summarize(&m.latency_ms);
    let metrics = vec![
        ("setup_s", stats::median(&m.setup_s)),
        ("op_p50_ms", summary.p50),
        ("op_p90_ms", stats::percentile(&m.latency_ms, 90.0)),
        ("ops_per_s", n as f64 / m.wall_s),
        ("cpu_ms_per_op", m.cpu_s * 1e3 / n.max(1) as f64),
        ("peak_rss_mb", stats::peak_rss_mib()),
    ];
    for (name, value) in &metrics {
        let unit = crate::contract::END_TO_END.iter().find(|(n, _)| n == name).map_or("", |m| m.1);
        let samples = if *name == "setup_s" { m.setup_s.len() } else { n };
        report.push(line(name, unit, *value, samples));
    }
    if let Some((p, v)) = summary.tail {
        report.push(format!(
            "op latency: highest percentile with {} samples beyond it is p{p} = {v} ms (n={n})",
            stats::MIN_BEYOND
        ));
    }
    metrics
}

/// Feeds one answer — its length, then user ids and score bits — to a digest.
pub fn digest_answer(fnv: &mut stats::Fnv, answer: &crate::layers::Answer) {
    fnv.write_u64(answer.len() as u64);
    for (user, score) in answer {
        fnv.write_u64(*user);
        fnv.write_u64(*score);
    }
}

/// An outcome that failed before it could measure.
pub fn failed_outcome(why: String) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        report: vec![format!("FAILED: {why}")],
        answers_digest: 0,
    }
}

/// A directory under the run's out directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out_dir: &Path, tag: &str) -> std::io::Result<Self> {
        let path = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The open-loop schedule of the mixed workload: operation `i` is due
/// `i / rate` seconds after the start, whatever happened to the ones
/// before it. Latency counts from the due time, so a stall is charged to
/// every operation it delays; lateness is how long after its due time an
/// operation was actually started.
pub struct OpenLoop {
    start: Instant,
    interval_ns: u64,
}

/// One operation's accounting against the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Start delay past the due time (0 when the generator was on time).
    pub late: Duration,
    /// Completion minus due time.
    pub latency: Duration,
}

impl OpenLoop {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Self { start, interval_ns: (1e9 / rate_per_s).round() as u64 }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(self.interval_ns * i)
    }

    /// Sleeps until operation `i` is due (not at all if it already is).
    pub fn wait_for(&self, i: u64) {
        let due = self.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }

    /// Accounts operation `i`, started at `started` and done at `done`.
    pub fn account(&self, i: u64, started: Instant, done: Instant) -> Due {
        let due = self.due(i);
        Due {
            late: started.saturating_duration_since(due),
            latency: done.saturating_duration_since(due),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_seed_round_and_stream() {
        let base = derive(1, 0, 0);
        assert_eq!(base, derive(1, 0, 0));
        let others = [derive(2, 0, 0), derive(1, 1, 0), derive(1, 0, 1), derive(0, 0, 0)];
        for o in others {
            assert_ne!(base, o);
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_operations_it_delays() {
        let start = Instant::now();
        let schedule = OpenLoop::new(start, 200.0);
        let at = |ms: u64| start + Duration::from_millis(ms);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(4), at(20));
        // On time: started at its due time, 2 ms of service.
        let on_time = schedule.account(2, at(10), at(12));
        assert_eq!(on_time, Due { late: Duration::ZERO, latency: Duration::from_millis(2) });
        // Operation 3 was due at 15 ms but the one before it stalled until
        // 40 ms: it starts 25 ms late, and its 1 ms of service reads as
        // 26 ms from its due time.
        let delayed = schedule.account(3, at(40), at(41));
        assert_eq!(delayed.late, Duration::from_millis(25));
        assert_eq!(delayed.latency, Duration::from_millis(26));
        // Starting early (a generator never does) is not negative lateness.
        let early = schedule.account(4, at(18), at(19));
        assert_eq!(early.late, Duration::ZERO);
        assert_eq!(early.latency, Duration::ZERO);
    }

    #[test]
    fn end_to_end_metrics_are_the_listed_six() {
        let m = Measured {
            setup_s: vec![0.5, 0.3, 0.4],
            latency_ms: (1..=100).map(f64::from).collect(),
            wall_s: 5.0,
            cpu_s: 2.0,
        };
        let mut report = Vec::new();
        let metrics = end_to_end(&m, &mut report);
        let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = crate::contract::END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed);
        let value = |n: &str| metrics.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(value("setup_s"), 0.4);
        assert_eq!(value("op_p50_ms"), 50.0);
        assert_eq!(value("op_p90_ms"), 90.0);
        assert_eq!(value("ops_per_s"), 20.0);
        assert_eq!(value("cpu_ms_per_op"), 20.0);
        assert!(report.iter().any(|l| l.starts_with("op_p50_ms ms 50 n=100")));
    }
}
