//! Evaluation metrics for the TkLUS experimental study.
//!
//! * [`kendall`] — the paper's padded variant of the Kendall tau rank
//!   correlation coefficient (Section VI-B3), used to compare Sum- vs
//!   Maximum-score rankings (Figures 9 and 11).
//! * [`precision`] — precision@k for the user study (Figure 13).
//! * [`user_study`] — the simulated judging panel standing in for the
//!   paper's six human participants: four votes per result line, a line is
//!   relevant when at least two votes agree (Section VI-B6).
//! * [`summary`] — small statistics helpers (mean, percentiles) for the
//!   benchmark harnesses.
//! * [`health`] — health/readiness probe types ([`HealthReport`]) the
//!   overload-resilient serving layer reports through (DESIGN.md §11).
//! * [`registry`] — the operational telemetry registry (DESIGN.md §12):
//!   lock-free named counters and power-of-two-bucket latency histograms
//!   with point-in-time snapshots and stable Prometheus/JSON renderings.

pub mod health;
pub mod kendall;
pub mod precision;
pub mod registry;
pub mod summary;
pub mod user_study;

pub use health::{Health, HealthReport, Probe};
pub use kendall::padded_kendall_tau;
pub use precision::precision_at_k;
pub use registry::{
    Counter, Histogram, HistogramSnapshot, MetricRegistry, RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use summary::Summary;
pub use user_study::{JudgePanel, StudyLine};
