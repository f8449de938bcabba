//! In-memory spans, written out when the benchmark ends.
//!
//! A span is one layer's work on one generated request. Spans of one
//! request share its sequence number; a span's parent is named by the
//! parent span's name within the same request.

use std::io::Write;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// Sequence number of the generated request (shared by all its spans).
    pub req: u64,
    /// Layer boundary, e.g. `store.mget`.
    pub name: &'static str,
    /// Parent span's name in the same request (`""` for a root).
    pub parent: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one run, kept in memory up to a cap.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl SpanLog {
    /// An empty log keeping at most `cap` spans (the rest are timed but
    /// dropped, so recording cost stays the same past the cap).
    pub fn new(epoch: Instant, cap: usize) -> Self {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(cap.min(1 << 20)),
            cap,
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `name` (child of `parent`) for request `req`.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() < self.cap {
            let span = Span {
                req,
                name,
                parent,
                start_ns: self.offset(start),
                end_ns: self.offset(end),
            };
            self.spans.push(span);
        }
    }

    /// Record a span known only by its duration, placed at `start`.
    pub fn record_ns(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        ns: u64,
    ) {
        if self.spans.len() < self.cap {
            let start_ns = self.offset(start);
            let span = Span {
                req,
                name,
                parent,
                start_ns,
                end_ns: start_ns + ns,
            };
            self.spans.push(span);
        }
    }

    /// Append another log's spans.
    pub fn extend(&mut self, other: SpanLog) {
        let room = self.cap.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
