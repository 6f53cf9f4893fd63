//! The shed-to-status-code mapping (DESIGN.md §16).
//!
//! One function per answer kind, total over the typed taxonomies of the
//! serving layer — adding a `Rejected` variant breaks compilation here,
//! not silently at runtime. The ground rules:
//!
//! * **429** for sheds a client should retry after backing off
//!   (`QueueFull`, `Evicted`, `DeadlineHopeless`) — exactly the variants
//!   whose [`Rejected::retry_after_ms`] is `Some`, and that estimate
//!   becomes the `Retry-After` header (seconds, rounded up) plus a
//!   precise `retry_after_ms` field in the JSON body;
//! * **503** for conditions that heal on the server's own clock
//!   (`ShuttingDown`, drain abandonment, non-conflict sink failures) — retrying immediately is pointless, so no
//!   `Retry-After` is offered;
//! * **504** for `ExpiredInQueue`: the request was admitted but its own
//!   deadline lapsed while queued — the budget was spent, not refused;
//! * **500** for typed engine faults, **409** for idempotency conflicts
//!   (duplicate tweet id — the store is healthy, the write is wrong).

use crate::json::render_error;
use crate::parser::ParseError;
use crate::response::Response;
use tklus_serve::{IngestFailure, Rejected, ServeError};

/// Renders a parse failure as its typed status (400/413/431/501); the
/// connection always closes after one — framing is unrecoverable once
/// the byte stream stopped making sense.
pub fn parse_error_response(e: &ParseError) -> Response {
    let kind = match e {
        ParseError::HeadersTooLarge { .. } => "HeadersTooLarge",
        ParseError::BodyTooLarge { .. } => "BodyTooLarge",
        ParseError::Malformed(_) => "Malformed",
        ParseError::UnsupportedTransferEncoding => "UnsupportedTransferEncoding",
    };
    Response::json(e.status(), render_error(kind, &e.to_string(), None)).closing()
}

/// Stable error-class name for a shed, exposed in the JSON body.
pub fn rejected_kind(r: &Rejected) -> &'static str {
    match r {
        Rejected::QueueFull { .. } => "QueueFull",
        Rejected::DeadlineHopeless { .. } => "DeadlineHopeless",
        Rejected::Evicted { .. } => "Evicted",
        Rejected::ExpiredInQueue { .. } => "ExpiredInQueue",
        Rejected::ShuttingDown => "ShuttingDown",
    }
}

/// The one status code each shed answers with.
pub fn rejected_status(r: &Rejected) -> u16 {
    match r {
        Rejected::QueueFull { .. }
        | Rejected::DeadlineHopeless { .. }
        | Rejected::Evicted { .. } => 429,
        Rejected::ShuttingDown => 503,
        Rejected::ExpiredInQueue { .. } => 504,
    }
}

/// Renders a shed as a response: typed body, plus `Retry-After` exactly
/// when the taxonomy offers an estimate.
pub fn rejected_response(r: &Rejected) -> Response {
    let body = render_error(rejected_kind(r), &r.to_string(), r.retry_after_ms());
    let mut resp = Response::json(rejected_status(r), body);
    if let Some(ms) = r.retry_after_ms() {
        // The header speaks whole seconds; round up so a client honoring
        // it never retries before the estimate has elapsed.
        resp = resp.with_header("Retry-After", ms.div_ceil(1000).max(1).to_string());
    }
    resp
}

/// Renders a query answer (success or any [`ServeError`]).
pub fn query_response(result: Result<String, ServeError>) -> Response {
    match result {
        Ok(body) => Response::json(200, body),
        Err(ServeError::Rejected(r)) => rejected_response(&r),
        Err(ServeError::Engine(e)) => {
            Response::json(500, render_error("Engine", &e.to_string(), None))
        }
        Err(ServeError::Abandoned) => {
            Response::json(503, render_error("Abandoned", "abandoned by graceful drain", None))
        }
    }
}

/// Renders a write acknowledgement (sequence number or any
/// [`IngestFailure`]).
pub fn ingest_response(result: Result<u64, IngestFailure>) -> Response {
    match result {
        Ok(seq) => Response::json(200, format!("{{\"seq\":{seq}}}")),
        Err(IngestFailure::Rejected(r)) => rejected_response(&r),
        Err(IngestFailure::Sink(e)) => {
            let status = if e.conflict { 409 } else { 503 };
            Response::json(status, render_error(e.kind, &e.message, None))
        }
        Err(IngestFailure::Abandoned) => {
            Response::json(503, render_error("Abandoned", "abandoned by graceful drain", None))
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;
    use tklus_model::Priority;
    use tklus_serve::SinkError;

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Case-by-case over the entire `Rejected` taxonomy: status code,
    /// error-class name, and Retry-After presence all pinned.
    #[test]
    fn every_shed_maps_to_its_pinned_status() {
        let cases: Vec<(Rejected, u16, &str, Option<&str>)> = vec![
            (
                Rejected::QueueFull { depth: 9, estimated_wait_ms: 2_500 },
                429,
                "QueueFull",
                Some("3"), // 2500 ms rounds UP to 3 s
            ),
            (
                Rejected::Evicted { by: Priority::High, estimated_wait_ms: 10 },
                429,
                "Evicted",
                Some("1"), // sub-second estimates still advise waiting 1 s
            ),
            (
                Rejected::DeadlineHopeless { deadline_in_ms: 5, estimated_wait_ms: 4_000 },
                429,
                "DeadlineHopeless",
                Some("4"),
            ),
            (Rejected::ShuttingDown, 503, "ShuttingDown", None),
            (Rejected::ExpiredInQueue { waited_ms: 80 }, 504, "ExpiredInQueue", None),
        ];
        for (shed, status, kind, retry_after) in cases {
            let resp = rejected_response(&shed);
            assert_eq!(resp.status, status, "{shed:?}");
            let body = String::from_utf8(resp.body.clone()).unwrap();
            assert!(body.contains(&format!("\"error\":\"{kind}\"")), "{shed:?}: {body}");
            assert_eq!(header(&resp, "Retry-After"), retry_after, "{shed:?}");
            // The body carries the precise millisecond estimate whenever
            // the header is present.
            assert_eq!(body.contains("retry_after_ms"), retry_after.is_some(), "{shed:?}");
        }
    }

    #[test]
    fn parse_errors_map_to_their_statuses_and_close() {
        let cases: Vec<(ParseError, u16, &str)> = vec![
            (ParseError::HeadersTooLarge { limit: 64 }, 431, "HeadersTooLarge"),
            (ParseError::BodyTooLarge { declared: 99, limit: 16 }, 413, "BodyTooLarge"),
            (ParseError::Malformed("method"), 400, "Malformed"),
            (ParseError::UnsupportedTransferEncoding, 501, "UnsupportedTransferEncoding"),
        ];
        for (err, status, kind) in cases {
            let resp = parse_error_response(&err);
            assert_eq!(resp.status, status);
            assert!(resp.close, "{kind}: parse failures always close");
            assert!(String::from_utf8(resp.body).unwrap().contains(kind));
        }
    }

    #[test]
    fn serve_errors_map_to_500_and_503() {
        let resp = query_response(Ok("{\"users\":[]}".into()));
        assert_eq!(resp.status, 200);
        let resp = query_response(Err(ServeError::Abandoned));
        assert_eq!(resp.status, 503);
        assert!(String::from_utf8(resp.body).unwrap().contains("Abandoned"));
        let resp =
            query_response(Err(ServeError::Rejected(Rejected::ExpiredInQueue { waited_ms: 7 })));
        assert_eq!(resp.status, 504);
    }

    #[test]
    fn ingest_conflicts_are_409_other_sink_failures_503() {
        let resp = ingest_response(Ok(42));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"seq\":42}");
        let dup = SinkError {
            kind: "DuplicateTweet",
            message: "tweet 7 already ingested".into(),
            conflict: true,
        };
        let resp = ingest_response(Err(IngestFailure::Sink(dup)));
        assert_eq!(resp.status, 409);
        assert!(String::from_utf8(resp.body).unwrap().contains("DuplicateTweet"));
        let io = SinkError { kind: "Io", message: "disk gone".into(), conflict: false };
        let resp = ingest_response(Err(IngestFailure::Sink(io)));
        assert_eq!(resp.status, 503);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"error\":\"Io\""));
        let resp = ingest_response(Err(IngestFailure::Abandoned));
        assert_eq!(resp.status, 503);
    }
}
