//! The names the harness prints, as `../BENCHMARK.json` lists them. The
//! tests below hold the two to each other.

/// `(name, unit)` of every end-to-end metric; all are reported on every
/// workload by the `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric of the `--trace 1` run. A
/// metric of a layer the workload never crosses reads 0 there, which is
/// why a per-call time has the unit `us/call` and a layer's time is a
/// share: no plain time is ever a constant.
pub const PER_LAYER: [(&str, &str); 66] = [
    // The ledger: each layer's self time as a share of the traced
    // operation, summing to 1 with the unattributed row.
    ("http.self_share", "share"),
    ("serve.self_share", "share"),
    ("geo.self_share", "share"),
    ("index.self_share", "share"),
    ("storage.self_share", "share"),
    ("core.self_share", "share"),
    ("text.self_share", "share"),
    ("fs.self_share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.op_us_p50", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
    // Set-up, by the calls under it.
    ("gen.corpus_share", "share"),
    ("index.build_share", "share"),
    ("core.metadata_load_share", "share"),
    ("index.bytes_per_post", "bytes"),
    // Socket front-end and admission.
    ("http.req_bytes_mean", "bytes"),
    ("http.resp_bytes_mean", "bytes"),
    ("http.non2xx", "count"),
    ("serve.shed", "count"),
    // Read path.
    ("geo.cover_us", "us/call"),
    ("geo.cells_per_query", "count"),
    ("geo.overcover_ratio", "ratio"),
    ("index.fetch_us", "us/call"),
    ("index.lists_per_query", "count"),
    ("index.bytes_per_query", "bytes"),
    ("core.query_us", "us/call"),
    ("core.candidates_per_query", "count"),
    ("core.in_radius_ratio", "ratio"),
    ("core.threads_built_per_query", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.stage_threads_share", "share"),
    ("core.stage_scoring_share", "share"),
    ("core.stage_fetch_combine_share", "share"),
    ("core.stage_untimed_share", "share"),
    ("core.thread_phi_us", "us/call"),
    ("storage.page_reads_per_thread", "count"),
    ("storage.row_lookup_us", "us/call"),
    ("storage.page_reads_per_lookup", "count"),
    ("storage.page_reads_per_query", "count"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("shard.query_us", "us/call"),
    ("shard.overhead_ratio", "ratio"),
    ("shard.skip_ratio", "ratio"),
    // Write path.
    ("text.terms_us", "us/call"),
    ("wal.ingest_us", "us/call"),
    ("wal.ack_p99_us", "us/call"),
    ("wal.fs_time_share", "share"),
    ("wal.fs_append_calls_per_post", "count"),
    ("wal.fs_append_bytes_per_post", "bytes"),
    ("wal.fsync_calls_per_post", "count"),
    ("wal.fsync_us", "us/call"),
    ("wal.compact_ms", "ms/call"),
    ("wal.compact_bytes_per_round", "bytes"),
    ("wal.compact_files_per_round", "count"),
    ("wal.write_amp", "ratio"),
    ("wal.space_amp", "ratio"),
    ("wal.replay_posts_per_s", "1/s"),
    ("wal.sealed_load_posts_per_s", "1/s"),
    ("wal.open_read_bytes_per_post", "bytes"),
    ("wal.live_query_overhead_ratio", "ratio"),
    // Validity of the mixed workload, and its write side.
    ("mixed.gen_late_p99_us", "us/call"),
    ("mixed.compactions", "count"),
    ("mixed.ack_p50_us", "us/call"),
    ("mixed.ack_max_us", "us/call"),
    ("mixed.query_us", "us/call"),
];

pub const WORKLOADS: [&str; 6] = [
    "query_default",
    "query_wide_max",
    "query_narrow",
    "query_selective",
    "ingest_stream",
    "mixed_rw",
];

/// What one run hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; for a traced run, names left out read 0.
    pub metrics: Vec<(&'static str, f64)>,
    /// `name unit value n=<samples>` lines and remarks for the human report.
    pub report: Vec<String>,
    /// FNV over the answers the correctness check compared.
    pub answers_digest: u64,
}

impl Outcome {
    /// The value of a listed metric; one the run left out reads 0.
    pub fn value(&self, name: &str) -> f64 {
        let value = self.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        if value.is_finite() {
            value
        } else {
            0.0
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every listed metric and no other. Floats print with Rust's
/// shortest round-trip form, so every measured digit is there.
pub fn result_json(outcome: &Outcome, listed: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let value = outcome.value(name);
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn contract_file() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_and_units(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(|l| l.as_array())
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn the_harness_lists_exactly_what_the_contract_file_lists() {
        let v = contract_file();
        for (key, ours) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let theirs = names_and_units(&v, key);
            let ours: Vec<(String, String)> =
                ours.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(ours, theirs, "{key}: names, units and order");
        }
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(|l| l.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_name_and_unit_is_within_the_contract_alphabet_and_used_once() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn the_contract_file_keeps_to_its_schema() {
        let v = contract_file();
        let keys: Vec<&str> = v.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        for m in v.get("end_to_end").and_then(|l| l.as_array()).expect("list") {
            let bound = m.get("bound").and_then(|b| b.as_f64()).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            let better = m.get("better").and_then(|b| b.as_str()).expect("better");
            assert!(better == "lower" || better == "higher");
        }
        for w in v.get("workloads").and_then(|l| l.as_array()).expect("list") {
            let why = w.get("why").and_then(|s| s.as_str()).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
        let seconds = v.get("run_seconds").and_then(|s| s.as_u64()).expect("run_seconds");
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn the_result_line_parses_back_to_the_listed_names_and_nothing_else() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("op_p50_ms", 1.2034), ("setup_s", 0.5), ("not_listed", 9.0)],
            report: Vec::new(),
            answers_digest: 0,
        };
        for listed in [&END_TO_END[..], &PER_LAYER[..]] {
            let v = serde_json::from_str(&result_json(&outcome, listed)).expect("parses");
            let top: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);
            let printed: BTreeSet<&str> =
                v.get("metrics").unwrap().as_object().unwrap().keys().map(String::as_str).collect();
            let wanted: BTreeSet<&str> = listed.iter().map(|(n, _)| *n).collect();
            assert_eq!(printed, wanted);
            for (name, unit) in listed {
                let m = v.get("metrics").unwrap().get(name).unwrap();
                assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
                assert!(m.get("value").and_then(|x| x.as_f64()).is_some(), "{name}");
            }
        }
        let v = serde_json::from_str(&result_json(&outcome, &END_TO_END)).unwrap();
        let value =
            |n: &str| v.get("metrics").unwrap().get(n).unwrap().get("value").unwrap().as_f64();
        assert_eq!(value("op_p50_ms"), Some(1.2034));
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(12));
    }
}
