//! Health and readiness probes (DESIGN.md §11).
//!
//! The serving layer reports its operational state — admission-queue
//! pressure, the ingest sink's compaction state, shed counters — as a
//! [`HealthReport`]: a set of named [`Probe`]s each carrying a
//! [`Health`] verdict, plus free-form numeric gauges. The report is plain
//! data with a stable text rendering, so it serves equally as a CLI
//! status line, a test assertion target, and the payload a real
//! `/healthz` endpoint would serialize.
//!
//! Semantics follow the usual liveness/readiness split:
//!
//! * **ready** — the component accepts new work. A draining server is
//!   alive but not ready.
//! * overall [`Health`] — the worst verdict across probes: one `Unhealthy`
//!   probe (say, a compaction that keeps failing) makes the whole report
//!   `Unhealthy` even while other subsystems hum along.

/// One probe's verdict, ordered best-to-worst so `max` picks the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Operating normally.
    Healthy,
    /// Operating with reduced quality (e.g. a full queue shedding load,
    /// or a drain) — answers may be partial or delayed.
    Degraded,
    /// Not operating (e.g. a compaction failing persistently).
    Unhealthy,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Unhealthy => "unhealthy",
        })
    }
}

/// One named component's health plus a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// Component name (e.g. `"admission"`, `"sink:compaction"`).
    pub name: String,
    /// The verdict.
    pub health: Health,
    /// Operator-facing detail (`"queue 12/64, 3 in flight"`).
    pub detail: String,
}

impl Probe {
    /// Builds a probe.
    pub fn new(name: impl Into<String>, health: Health, detail: impl Into<String>) -> Self {
        Self { name: name.into(), health, detail: detail.into() }
    }
}

/// A point-in-time health snapshot of a serving component.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Whether the component admits new work right now.
    pub ready: bool,
    /// Per-subsystem probes.
    pub probes: Vec<Probe>,
    /// Monotone or point-in-time numeric gauges (queue depth, shed
    /// counts, …), in insertion order.
    pub gauges: Vec<(String, f64)>,
}

impl HealthReport {
    /// An empty, ready report to extend with probes and gauges.
    pub fn ready() -> Self {
        Self { ready: true, probes: Vec::new(), gauges: Vec::new() }
    }

    /// The worst verdict across all probes (`Healthy` when empty).
    pub fn overall(&self) -> Health {
        self.probes.iter().map(|p| p.health).max().unwrap_or(Health::Healthy)
    }

    /// Adds a probe.
    pub fn probe(&mut self, probe: Probe) -> &mut Self {
        self.probes.push(probe);
        self
    }

    /// Adds a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.gauges.push((name.into(), value));
        self
    }

    /// Looks up a gauge by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Stable multi-line text rendering:
    ///
    /// ```text
    /// status: healthy (ready)
    ///   admission        healthy    queue 0/64, 0/4 workers busy
    ///   sink:compaction  healthy    3 compactions sealed
    /// gauges: queue_depth=0 shed_total=0
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "status: {} ({})\n",
            self.overall(),
            if self.ready { "ready" } else { "not ready" }
        );
        let name_w = self.probes.iter().map(|p| p.name.len()).max().unwrap_or(0).max(8);
        for p in &self.probes {
            out.push_str(&format!(
                "  {:<name_w$}  {:<9}  {}\n",
                p.name,
                p.health.to_string(),
                p.detail
            ));
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:");
            for (name, value) in &self.gauges {
                if (value.fract() == 0.0) && value.abs() < 1e15 {
                    out.push_str(&format!(" {name}={value:.0}"));
                } else {
                    out.push_str(&format!(" {name}={value:.3}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_is_worst_probe() {
        let mut r = HealthReport::ready();
        assert_eq!(r.overall(), Health::Healthy);
        r.probe(Probe::new("a", Health::Healthy, "ok"));
        r.probe(Probe::new("b", Health::Degraded, "shedding"));
        assert_eq!(r.overall(), Health::Degraded);
        r.probe(Probe::new("c", Health::Unhealthy, "compaction failing"));
        assert_eq!(r.overall(), Health::Unhealthy);
    }

    #[test]
    fn gauges_are_ordered_and_queryable() {
        let mut r = HealthReport::ready();
        r.gauge("queue_depth", 3.0).gauge("shed_total", 12.0);
        assert_eq!(r.gauge_value("queue_depth"), Some(3.0));
        assert_eq!(r.gauge_value("missing"), None);
        assert_eq!(r.gauges[0].0, "queue_depth");
    }

    #[test]
    fn render_mentions_everything() {
        let mut r = HealthReport::ready();
        r.ready = false;
        r.probe(Probe::new("admission", Health::Degraded, "queue 60/64"));
        r.gauge("queue_depth", 60.0);
        let text = r.render();
        assert!(text.contains("status: degraded (not ready)"), "{text}");
        assert!(text.contains("admission"), "{text}");
        assert!(text.contains("queue 60/64"), "{text}");
        assert!(text.contains("queue_depth=60"), "{text}");
    }

    #[test]
    fn health_orders_best_to_worst() {
        assert!(Health::Healthy < Health::Degraded);
        assert!(Health::Degraded < Health::Unhealthy);
    }
}
