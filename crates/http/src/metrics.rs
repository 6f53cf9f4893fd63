//! Connection- and request-level counters (DESIGN.md §16).
//!
//! The serving layer already counts admissions, sheds and failed queries
//! under `tklus_serve_*`; this module counts what only the socket layer
//! can see — connections, parse failures, slow-client timeouts, torn
//! uploads — under `tklus_http_*`. One row list drives the exposition,
//! mirroring the serve crate's pattern, and the rendered format is
//! golden-pinned.

use std::sync::atomic::{AtomicU64, Ordering};
use tklus_metrics::RegistrySnapshot;

/// Shared atomic counters, incremented by connection threads with no
/// lock. Relaxed ordering everywhere: rows are independent monotone
/// counts, and the exposition is a sample, not a barrier.
#[derive(Debug, Default)]
pub struct HttpMetrics {
    /// Connections accepted into a thread slot.
    pub connections_accepted: AtomicU64,
    /// Connections refused at the cap (answered 503 and closed).
    pub connections_refused: AtomicU64,
    /// Complete requests parsed off sockets.
    pub requests: AtomicU64,
    /// Responses written, by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses written.
    pub responses_4xx: AtomicU64,
    /// 5xx responses written.
    pub responses_5xx: AtomicU64,
    /// Requests cut off by the read deadline mid-head or mid-body
    /// (slow-loris / stalled uploads; answered 408).
    pub read_timeouts: AtomicU64,
    /// Connections that vanished mid-request (EOF or reset with a
    /// partial request buffered) — closed with nothing to answer.
    pub torn_requests: AtomicU64,
    /// Responses abandoned because the client stopped reading past the
    /// write deadline (slow-reader defense).
    pub write_timeouts: AtomicU64,
    /// Bytes read off sockets.
    pub bytes_read: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_written: AtomicU64,
}

impl HttpMetrics {
    /// Bumps a counter by one.
    pub fn hit(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one written response in its status class.
    pub fn record_response(&self, status: u16) {
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// The exposition rows, in pinned order.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("connections_accepted", get(&self.connections_accepted)),
            ("connections_refused", get(&self.connections_refused)),
            ("requests", get(&self.requests)),
            ("responses_2xx", get(&self.responses_2xx)),
            ("responses_4xx", get(&self.responses_4xx)),
            ("responses_5xx", get(&self.responses_5xx)),
            ("read_timeouts", get(&self.read_timeouts)),
            ("torn_requests", get(&self.torn_requests)),
            ("write_timeouts", get(&self.write_timeouts)),
            ("bytes_read", get(&self.bytes_read)),
            ("bytes_written", get(&self.bytes_written)),
        ]
    }

    /// Injects the rows into `base` (typically the serve layer's registry
    /// snapshot) as `tklus_http_<row>` counters.
    pub fn inject(&self, mut base: RegistrySnapshot) -> RegistrySnapshot {
        for (name, value) in self.rows() {
            base.set_counter(&format!("tklus_http_{name}"), value);
        }
        base
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;

    #[test]
    fn golden_prometheus_exposition() {
        let m = HttpMetrics::default();
        m.connections_accepted.store(3, Ordering::Relaxed);
        m.requests.store(7, Ordering::Relaxed);
        m.record_response(200);
        m.record_response(200);
        m.record_response(429);
        m.record_response(503);
        m.bytes_read.store(1024, Ordering::Relaxed);
        let out = m.inject(RegistrySnapshot::default()).render_prometheus();
        // Names render sorted; the whole section is pinned.
        let want = "\
# TYPE tklus_http_bytes_read counter
tklus_http_bytes_read 1024
# TYPE tklus_http_bytes_written counter
tklus_http_bytes_written 0
# TYPE tklus_http_connections_accepted counter
tklus_http_connections_accepted 3
# TYPE tklus_http_connections_refused counter
tklus_http_connections_refused 0
# TYPE tklus_http_read_timeouts counter
tklus_http_read_timeouts 0
# TYPE tklus_http_requests counter
tklus_http_requests 7
# TYPE tklus_http_responses_2xx counter
tklus_http_responses_2xx 2
# TYPE tklus_http_responses_4xx counter
tklus_http_responses_4xx 1
# TYPE tklus_http_responses_5xx counter
tklus_http_responses_5xx 1
# TYPE tklus_http_torn_requests counter
tklus_http_torn_requests 0
# TYPE tklus_http_write_timeouts counter
tklus_http_write_timeouts 0
";
        assert_eq!(out, want);
    }
}
