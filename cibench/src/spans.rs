//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (ns since the recorder's epoch),
//! the span that caused it, and the request it belongs to. Spans stay in
//! memory while the benchmark runs and are written out as JSON lines
//! when it ends. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use easeml_serve::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Spans`] recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`http.parse`, `client.wait`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or operation) the span belongs to.
    pub request: u64,
}

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, µs.
    #[must_use]
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

impl Spans {
    /// A recorder whose times count from `epoch` (share one epoch
    /// between threads so their spans can be merged).
    #[must_use]
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span with explicit times.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Time `f` as one span named `name`; returns its result and
    /// duration in ns.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now();
        let out = std::hint::black_box(f());
        let end_ns = self.now();
        self.record(name, start_ns, end_ns, None, request);
        (out, end_ns - start_ns)
    }

    /// Append another recorder's spans (same epoch), re-basing parents.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals clipped to it.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let covered = covered_ns(&mut children[id], span.start_ns, span.end_ns);
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.self_ns += total - covered.min(total);
        }
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Value::object([
                ("id", Value::from(id)),
                ("name", Value::from(span.name)),
                ("start_ns", Value::from(span.start_ns)),
                ("end_ns", Value::from(span.end_ns)),
                ("parent", Value::from(span.parent)),
                ("request", Value::from(span.request)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.record("request", 0, 100, None, 7);
        spans.record("send", 10, 30, Some(root), 7);
        // Overlapping children count once.
        spans.record("wait", 20, 60, Some(root), 7);
        spans.record("recv", 90, 120, Some(root), 7);
        let times = spans.self_times();
        assert_eq!(times["request"].self_ns, 100 - 50 - 10);
        assert_eq!(times["send"].self_ns, 20);
        assert_eq!(times["recv"].count, 1);
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        a.record("x", 0, 10, None, 1);
        let mut b = Spans::new(epoch);
        let p = b.record("y", 0, 10, None, 2);
        b.record("z", 2, 4, Some(p), 2);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times()["y"].self_ns, 8);
    }
}
