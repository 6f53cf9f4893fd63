//! Order statistics for the harness: the percentile rule (median plus the
//! highest percentile that still has ten samples beyond it), FNV digests,
//! and `/proc` readings for memory and CPU.

/// Candidate tail percentiles, ascending.
const TAILS: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Empty input reads 0 — "this workload never crossed the layer".
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes one percentile.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&v, p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p75 has fewer (report the median only).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.iter().copied().rfind(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// What the human-readable report prints for one timing: median, the
/// supported tail, and the sample count beside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Summary {
        n: v.len(),
        p50: percentile_sorted(&v, 50.0),
        tail: tail_percentile(v.len()).map(|p| (p, percentile_sorted(&v, p))),
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// not there.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used so
/// far, from `/proc/self/stat` at the kernel's fixed 100 ticks a second.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 135 requests: p90 leaves 13 beyond, p95 only 6.
        assert_eq!(samples_beyond(135, 90.0), 13);
        assert_eq!(samples_beyond(135, 95.0), 6);
        assert_eq!(tail_percentile(135), Some(90.0));
        // 39 samples cannot carry even p75 (9 beyond); 40 can.
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail, Some((95.0, 190.0)));
    }

    #[test]
    fn fnv_depends_on_every_word_and_their_order() {
        let digest = |words: &[u64]| {
            let mut h = Fnv::default();
            words.iter().for_each(|&w| h.write_u64(w));
            h.finish()
        };
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[1, 2]), digest(&[1, 3]));
    }
}
