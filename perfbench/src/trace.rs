//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and an
//! optional request id shared by every span of one served request. A span
//! that aggregates many individually timed calls (a per-call timing
//! wrapper) also carries its busy time and call count; for an ordinary
//! span the busy time is its duration. A span's *self* time is its busy
//! time minus its children's. Spans stay in memory and are written out
//! as JSON lines when the run ends; per-name totals are kept exactly even
//! past the storage cap.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Spans kept for the written trace; totals cover every span regardless.
const STORED_SPANS: usize = 200_000;

/// Identifies a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug)]
struct Span {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
    calls: u64,
    request: Option<u64>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    /// Summed busy time, ns.
    pub busy_ns: u128,
    /// Summed busy time of the spans' children, ns.
    pub child_ns: u128,
    /// Calls covered.
    pub calls: u64,
    /// Spans recorded.
    pub spans: u64,
}

impl Total {
    /// Self time per call, ns (NaN when no call was recorded).
    pub fn self_per_call_ns(&self) -> f64 {
        if self.calls == 0 {
            return f64::NAN;
        }
        (self.busy_ns as f64 - self.child_ns as f64) / self.calls as f64
    }
}

/// A span opened with [`Tracer::open`] and not yet closed.
#[derive(Debug)]
struct OpenSpan {
    id: u32,
    name: &'static str,
    start: Instant,
    parent: Option<u32>,
    request: Option<u64>,
    /// Busy time of the children recorded so far.
    child_ns: u128,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    stored: Vec<Span>,
    unstored: u64,
    open: Vec<OpenSpan>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: 0,
            stored: Vec::new(),
            unstored: 0,
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Opens a span that will have children; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let id = self.fresh_id();
        self.open.push(OpenSpan {
            id,
            name,
            start: Instant::now(),
            parent: parent.map(|p| p.0),
            request,
            child_ns: 0,
        });
        SpanId(id)
    }

    /// Closes an open span covering `calls` calls.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not open.
    pub fn close(&mut self, id: SpanId, calls: u64) {
        let end = Instant::now();
        let pos = self
            .open
            .iter()
            .rposition(|o| o.id == id.0)
            .expect("closing a span that is not open");
        let o = self.open.remove(pos);
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            start_ns: self.ns_since_origin(o.start),
            end_ns: self.ns_since_origin(end),
            busy_ns: end.duration_since(o.start).as_nanos() as u64,
            calls,
            request: o.request,
        };
        self.store(span, o.child_ns);
    }

    /// Records a finished span with no children of its own.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        calls: u64,
        request: Option<u64>,
    ) {
        let busy = end.duration_since(start);
        self.record_busy(name, parent, (start, end), busy, calls, request);
    }

    /// Records a span aggregating `calls` individually timed calls that
    /// were busy for `busy` in total within `interval`.
    pub fn record_busy(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        interval: (Instant, Instant),
        busy: Duration,
        calls: u64,
        request: Option<u64>,
    ) {
        let span = Span {
            id: self.fresh_id(),
            parent: parent.map(|p| p.0),
            name,
            start_ns: self.ns_since_origin(interval.0),
            end_ns: self.ns_since_origin(interval.1),
            busy_ns: busy.as_nanos() as u64,
            calls,
            request,
        };
        self.store(span, 0);
    }

    fn store(&mut self, span: Span, child_ns: u128) {
        let busy_ns = u128::from(span.busy_ns);
        if let Some(p) = span.parent {
            if let Some(open) = self.open.iter_mut().rev().find(|o| o.id == p) {
                open.child_ns += busy_ns;
            }
        }
        let total = self.totals.entry(span.name).or_default();
        total.busy_ns += busy_ns;
        total.child_ns += child_ns;
        total.calls += span.calls;
        total.spans += 1;
        if self.stored.len() < STORED_SPANS {
            self.stored.push(span);
        } else {
            self.unstored += 1;
        }
    }

    /// Totals of every span named `name` (all zero when none was recorded).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes every stored span, then one totals line per name, as JSON
    /// lines to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or(Json::Str("none".to_string()), Json::Int);
        for s in &self.stored {
            let line = Json::obj([
                ("id", Json::Int(u64::from(s.id))),
                ("parent", opt(s.parent.map(u64::from))),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("busy_ns", Json::Int(s.busy_ns)),
                ("calls", Json::Int(s.calls)),
                ("request", opt(s.request)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        for (name, t) in &self.totals {
            let line = Json::obj([
                ("total", Json::Str((*name).to_string())),
                ("spans", Json::Int(t.spans)),
                ("calls", Json::Int(t.calls)),
                ("busy_ns", Json::Num(t.busy_ns as f64)),
                ("self_ns", Json::Num(t.busy_ns as f64 - t.child_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        writeln!(
            out,
            "{}",
            Json::obj([("unstored_spans", Json::Int(self.unstored))]).render()
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let parent = t.open("request", None, Some(7));
        let a = Instant::now();
        let b = a + Duration::from_nanos(300);
        t.record("child", Some(parent), a, b, 1, Some(7));
        t.record_busy(
            "agg",
            Some(parent),
            (a, b),
            Duration::from_nanos(100),
            4,
            Some(7),
        );
        t.close(parent, 1);
        let req = t.total("request");
        assert_eq!(req.child_ns, 400);
        assert_eq!(t.total("agg").self_per_call_ns(), 25.0);
        assert_eq!(t.total("child").self_per_call_ns(), 300.0);
        assert_eq!(t.total("missing").calls, 0);
    }
}
