//! In-memory span recorder for the traced twin.
//!
//! A span is one layer call: its name, start, end, the span that
//! caused it and the request (one `optimize_circuit` call) it belongs
//! to. Spans stay in memory while the flow runs and are written out once
//! the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// One recorded layer call. Times are nanoseconds since the tracer's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"bounds"`.
    pub name: &'static str,
    /// Start (ns).
    pub start_ns: u64,
    /// End (ns); equal to `start_ns` while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: usize,
}

impl Span {
    /// Duration (ns).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tag the spans that follow with a request id.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` together with any span still open inside it (an
    /// early `?` return leaves inner spans open).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not open.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        let depth = self
            .open
            .iter()
            .rposition(|&s| s == id)
            .expect("exit of a span that is not open");
        for s in self.open.drain(depth..) {
            self.spans[s].end_ns = now;
        }
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append the spans as JSON lines to `out`, each tagged with `pass`
    /// (span ids and parents are per pass).
    ///
    /// # Errors
    ///
    /// Any write error.
    pub fn write_jsonl(&self, pass: usize, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Per-span self time: its duration minus the time its direct children
/// cover (children never overlap, since the flow is single-threaded).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_closes_inner_spans_and_self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.enter("flow");
        let inner = t.enter("bounds");
        t.enter("leaf");
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_ns(spans);
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[2], spans[2].dur_ns());
    }
}
