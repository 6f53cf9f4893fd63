//! Serving-layer registry export (DESIGN.md §12).
//!
//! The admission/shed counters already live in the server's
//! [`Snapshot`] and feed the [`crate::health`] gauges; this module
//! re-exports the same numbers into a [`RegistrySnapshot`] under
//! `tklus_serve_*` counter names. One row list drives both surfaces, so
//! the health report and the metrics exposition can never disagree.

use crate::health::Snapshot;
use tklus_metrics::RegistrySnapshot;

/// The serve gauge rows, in the exact name order the health report
/// renders them. Every value is a non-negative integral count, so the
/// registry export keeps them as `u64` counters while the health report
/// widens to `f64` gauges.
pub(crate) fn gauge_rows(snap: &Snapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("queue_depth", snap.depth as u64),
        ("queue_capacity", snap.capacity as u64),
        ("in_flight", snap.busy as u64),
        ("admitted", snap.counters.admitted),
        ("completed", snap.completed),
        ("failed", snap.failed),
        ("degraded", snap.degraded),
        ("ingested", snap.ingested),
        ("ingest_failed", snap.ingest_failed),
        ("shed_queue_full", snap.counters.shed_queue_full),
        ("shed_deadline", snap.counters.shed_deadline),
        ("shed_evicted", snap.counters.shed_evicted),
        ("shed_expired", snap.counters.expired_at_dispatch),
        ("shed_shutdown", snap.shed_shutdown),
        ("shed_total", snap.counters.shed_total().saturating_add(snap.shed_shutdown)),
    ]
}

/// Injects the serve rows into `base` (typically the engine's registry
/// snapshot) as `tklus_serve_<row>` counters and returns it.
pub(crate) fn inject_serve_rows(mut base: RegistrySnapshot, snap: &Snapshot) -> RegistrySnapshot {
    for (name, value) in gauge_rows(snap) {
        base.set_counter(&format!("tklus_serve_{name}"), value);
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::build_report;
    use crate::queue::AdmissionCounters;

    fn snap() -> Snapshot {
        Snapshot {
            depth: 3,
            capacity: 8,
            busy: 2,
            workers: 4,
            draining: false,
            counters: AdmissionCounters {
                admitted: 40,
                shed_queue_full: 4,
                shed_deadline: 3,
                shed_evicted: 2,
                expired_at_dispatch: 1,
            },
            shed_shutdown: 6,
            completed: 30,
            failed: 2,
            degraded: 1,
            ingested: 12,
            ingest_failed: 3,
        }
    }

    #[test]
    fn registry_rows_mirror_health_gauges_exactly() {
        let s = snap();
        let report = build_report(&s);
        let rows = gauge_rows(&s);
        assert_eq!(rows.len(), report.gauges.len());
        for ((name, value), gauge) in rows.iter().zip(&report.gauges) {
            assert_eq!(*name, gauge.0, "gauge order drifted");
            assert_eq!(*value as f64, gauge.1, "gauge {name} disagrees");
        }
    }

    #[test]
    fn injected_snapshot_prefixes_and_sums_sheds() {
        let out = inject_serve_rows(RegistrySnapshot::default(), &snap());
        assert_eq!(out.counter("tklus_serve_admitted"), Some(40));
        assert_eq!(out.counter("tklus_serve_queue_depth"), Some(3));
        // 4+3+2+1 counter sheds, +6 shutdown.
        assert_eq!(out.counter("tklus_serve_shed_total"), Some(16));
        assert!(out.render_prometheus().contains("tklus_serve_shed_shutdown 6"));
    }
}
