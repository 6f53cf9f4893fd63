//! The span recorder of the traced run.
//!
//! Spans may only wrap calls made *from* the benchmark, so nesting comes
//! from **peeling**: a request is sent through the outermost layer once
//! (`http.roundtrip`), then the same request is replayed in-process one
//! layer lower each time. A replayed span re-executes work its parent
//! already did, so the recorder re-bases it *into* the parent's interval,
//! end to end with its replayed siblings: its duration is real, its
//! position is not, and the file reads like any nested trace.
//!
//! A span's self time is its duration minus what its children cover —
//! here the sum of their durations, since replayed siblings never
//! overlap. A replay can outlast the original; the remainder is then
//! negative and is kept, so that summed over many requests the noise of
//! re-execution cancels instead of being clipped into the thinnest layers.
//!
//! Spans stay in memory and are written as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Where the next replayed child starts (not written out).
    cursor_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Recorder {
    fn push(
        &mut self,
        parent: Option<SpanId>,
        request_id: u64,
        name: &'static str,
        at: (u64, u64),
    ) {
        self.spans.push(Span {
            span_id: self.spans.len() as u64 + 1,
            parent_id: parent.map(|p| self.spans[p.0].span_id),
            request_id,
            name,
            start_ns: at.0,
            end_ns: at.1,
            cursor_ns: at.0,
        });
    }

    /// Times `f` as a root span at its true position on the clock.
    pub fn root<T>(
        &mut self,
        request_id: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.push(None, request_id, name, (start, end.max(start)));
        (SpanId(self.spans.len() - 1), out)
    }

    /// Times `f` — a replay of work `parent` already did — and records it
    /// re-based into `parent`'s interval after its earlier replayed
    /// children.
    pub fn replay<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed().as_nanos() as u64;
        self.add_replayed(parent, name, dur);
        (SpanId(self.spans.len() - 1), out)
    }

    /// Records an already-measured replayed child of `dur_ns`.
    pub fn add_replayed(&mut self, parent: SpanId, name: &'static str, dur_ns: u64) -> SpanId {
        let start = self.spans[parent.0].cursor_ns;
        self.spans[parent.0].cursor_ns = start + dur_ns;
        let request_id = self.spans[parent.0].request_id;
        self.push(Some(parent), request_id, name, (start, start + dur_ns));
        SpanId(self.spans.len() - 1)
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of the spans called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// Self time of every span, by [`self_times`].
    pub fn self_times(&self) -> Vec<i64> {
        self_times(&self.spans)
    }

    /// One JSON object per line with exactly the span's six public fields,
    /// into `path` (its directory is made if it is not there).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent_id.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span_id\":{},\"parent_id\":{},\"request_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.span_id, parent, s.request_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span in nanoseconds: its duration minus the durations of
/// the spans that name it as parent. A span without children keeps its
/// whole duration; children that together outlast their parent leave a
/// negative remainder (see the module text). Over any trace the self
/// times add up to the durations of the root spans.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let index_of: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
    let mut selfs: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(&p) = s.parent_id.as_ref().and_then(|id| index_of.get(id)) {
            selfs[p] -= s.duration_ns() as i64;
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            span_id: id,
            parent_id: parent,
            request_id: 1,
            name: "t",
            start_ns: start,
            end_ns: end,
            cursor_ns: start,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [span(1, None, 0, 100), span(2, Some(1), 0, 30), span(3, Some(1), 30, 50)];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
        // Two levels: every span's self time adds up to the root's duration.
        let deep = [span(1, None, 0, 100), span(2, Some(1), 0, 90), span(3, Some(2), 0, 60)];
        assert_eq!(self_times(&deep), vec![10, 30, 60]);
        assert_eq!(self_times(&deep).iter().sum::<i64>(), 100);
    }

    #[test]
    fn children_that_outlast_their_parent_leave_a_negative_remainder() {
        // The replays overlap the end of the parent: 70 + 50 > 100.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 0, 70), span(3, Some(1), 70, 120)];
        assert_eq!(self_times(&spans), vec![-20, 70, 50]);
        assert_eq!(self_times(&spans).iter().sum::<i64>(), 100);
    }

    #[test]
    fn missing_child_leaves_the_whole_duration() {
        // No children at all, and a parent id that names no recorded span.
        let spans = [span(1, None, 5, 25), span(2, Some(99), 30, 40)];
        assert_eq!(self_times(&spans), vec![20, 10]);
    }

    #[test]
    fn replayed_children_are_laid_end_to_end_inside_the_parent() {
        let mut rec = Recorder::default();
        let (root, ()) =
            rec.root(7, "outer", || std::thread::sleep(std::time::Duration::from_millis(3)));
        let a = rec.add_replayed(root, "a", 1_000_000);
        let b = rec.add_replayed(root, "b", 500_000);
        let start = rec.span(root).start_ns;
        assert_eq!(rec.span(a).start_ns, start);
        assert_eq!(rec.span(b).start_ns, start + 1_000_000);
        assert_eq!(rec.span(b).request_id, 7);
        let selfs = rec.self_times();
        assert_eq!(selfs[0], rec.span(root).duration_ns() as i64 - 1_500_000);
    }

    #[test]
    fn jsonl_has_the_six_fields() {
        let mut rec = Recorder::default();
        let (root, ()) = rec.root(1, "outer", || ());
        rec.add_replayed(root, "inner", 10);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = serde_json::from_str(lines[1]).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["end_ns", "name", "parent_id", "request_id", "span_id", "start_ns"]);
        assert_eq!(v.get("parent_id").and_then(|p| p.as_u64()), Some(1));
        assert!(serde_json::from_str(lines[0]).unwrap().get("parent_id").unwrap().is_null());
    }
}
