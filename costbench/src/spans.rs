//! In-memory span recorder for traced runs. A span wraps one call the
//! benchmark makes into a layer: name, start, end, parent span and the
//! request it belongs to. Spans stay in memory and are written out as
//! JSON lines when the run ends; an untraced run records nothing.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `mux.take_reports`.
    pub name: &'static str,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request the span serves (0 when it serves none).
    pub request: u64,
}

/// Span storage for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans opened and not yet closed, innermost last.
    open: Vec<usize>,
}

/// Handle to an opened span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer sharing `epoch` with the run's other tracers; records
    /// only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this tracer records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (a trace run measures its untraced
    /// window with recording off).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// An empty tracer for another thread, sharing this one's epoch and
    /// on/off state; merge it back with [`Tracer::absorb`].
    pub fn child(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        if let Some(pos) = self.open.iter().rposition(|&i| i == index) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-timed span (for calls timed on another clock,
    /// e.g. a request's due time to its response).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// Moves every span of `other` into this tracer, re-basing parent
    /// links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || ());
        t.end(outer);
        t.span("after", 0, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", 1);
        t.end(id);
        t.record("y", Instant::now(), Instant::now(), 2);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, epoch);
        let outer = b.begin("b", 0);
        b.span("c", 0, || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
