//! In-memory spans recorded by the benchmark around its calls into each
//! layer.  Spans stay in memory while the run measures and are written
//! out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.  All spans of one op share its `op` id.
#[derive(Clone, Debug)]
pub struct Span {
    /// The op (or replay) the span belongs to.
    pub op: u64,
    /// The layer call, named after its module and function.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the children's durations).
    pub self_ns: u64,
}

/// Records spans; each `start` nests under the innermost open span.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span of op `op`, nested under the innermost open span.
    pub fn start(&mut self, op: u64, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `index` (the innermost open span) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, index: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
        self.spans[index].duration_ns()
    }

    /// Runs `f` inside a span of op `op`.
    pub fn time<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(op, name, f).0
    }

    /// Runs `f` inside a span of op `op` and also returns the span's
    /// duration in microseconds.
    pub fn timed<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.start(op, name);
        let value = f();
        let ns = self.end(span);
        (value, ns as f64 / 1e3)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(children_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// The spans as JSON lines: `op`, `name`, `parent` (span index or
    /// `null`), `start_ns`, `end_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{index},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                span.op, span.name, span.start_ns, span.end_ns
            ));
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
