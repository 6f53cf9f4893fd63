//! Builds the serving layer's [`HealthReport`] (DESIGN.md §11).
//!
//! One code path renders both the threaded server's live snapshot and the
//! simulator's end-of-run state, so probes and gauge names can never
//! drift between them.

use crate::queue::AdmissionCounters;
use tklus_metrics::{Health, HealthReport, Probe};

/// Everything the probes summarize, captured under the caller's lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Snapshot {
    pub depth: usize,
    pub capacity: usize,
    pub busy: usize,
    pub workers: usize,
    pub draining: bool,
    pub counters: AdmissionCounters,
    pub shed_shutdown: u64,
    pub completed: u64,
    pub failed: u64,
    pub degraded: u64,
    pub ingested: u64,
    pub ingest_failed: u64,
}

/// Renders the snapshot into a [`HealthReport`].
pub(crate) fn build_report(snap: &Snapshot) -> HealthReport {
    let mut report = HealthReport::ready();
    report.ready = !snap.draining;
    let admission_health = if snap.draining || snap.depth >= snap.capacity {
        Health::Degraded
    } else {
        Health::Healthy
    };
    let admission_detail = if snap.draining {
        format!("draining, {} queued, {} in flight", snap.depth, snap.busy)
    } else {
        format!(
            "queue {}/{}, {}/{} workers busy",
            snap.depth, snap.capacity, snap.busy, snap.workers
        )
    };
    report.probe(Probe::new("admission", admission_health, admission_detail));

    // One row list feeds both the health gauges and the `tklus_serve_*`
    // registry export (crate::metrics), so the surfaces cannot drift.
    for (name, value) in crate::metrics::gauge_rows(snap) {
        report.gauge(name, value as f64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot {
        Snapshot {
            depth: 0,
            capacity: 8,
            busy: 1,
            workers: 2,
            draining: false,
            counters: AdmissionCounters::default(),
            shed_shutdown: 0,
            completed: 5,
            failed: 0,
            degraded: 0,
            ingested: 0,
            ingest_failed: 0,
        }
    }

    #[test]
    fn healthy_idle_server_reports_healthy_and_ready() {
        let report = build_report(&snap());
        assert!(report.ready);
        assert_eq!(report.overall(), Health::Healthy);
        assert_eq!(report.gauge_value("completed"), Some(5.0));
        assert_eq!(report.gauge_value("queue_capacity"), Some(8.0));
    }

    #[test]
    fn draining_is_not_ready() {
        let report = build_report(&Snapshot { draining: true, ..snap() });
        assert!(!report.ready);
        assert_eq!(report.overall(), Health::Degraded);
    }

    #[test]
    fn full_queue_degrades_admission() {
        let report = build_report(&Snapshot { depth: 8, ..snap() });
        let probe = report.probes.iter().find(|p| p.name == "admission").expect("probe");
        assert_eq!(probe.health, Health::Degraded);
    }
}
