//! The benchmark's own spans: stopwatches around the public entry
//! point of each layer, kept in memory and written out at exit.
//!
//! A span carries a name, a start, an end, the span that caused it and
//! the op it belongs to. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
    /// `<layer>.<entry point>`.
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin; `start_ns` until closed.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only, single-threaded span recorder. Each client thread
/// owns one; logs are merged after the threads are joined.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose timestamps count from `origin` (shared by every log
    /// of a run, so merged spans sit on one time axis).
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`SpanLog::end`] and for
    /// children to name as their parent.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { parent, op, name, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// Close a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another log's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in microseconds, grouped by name in
    /// first-seen order.
    pub fn self_us_by_name(&self) -> Vec<(&'static str, Vec<f64>)> {
        let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let us = self_ns as f64 / 1_000.0;
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, v)) => v.push(us),
                None => out.push((span.name, vec![us])),
            }
        }
        out
    }

    /// Write one JSON object per span: `name`, `op`, `id`, `parent`,
    /// `start_us`, `end_us`, `self_us`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times_ns(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                s.name,
                s.op,
                id,
                parent,
                s.start_ns as f64 / 1_000.0,
                s.end_ns as f64 / 1_000.0,
                self_ns as f64 / 1_000.0,
            )?;
        }
        w.flush()
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, each clipped to the span. Children that
/// overlap one another are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { parent, op: 0, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [span(None, 0, 100), span(Some(0), 10, 30), span(Some(0), 50, 90)];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        // Children cover 10..60 between them, overlapping on 30..40.
        let spans = [span(None, 0, 100), span(Some(0), 10, 40), span(Some(0), 30, 60)];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child running past its parent's end only hides the part inside it.
        let spans = [span(None, 100, 200), span(Some(0), 150, 400), span(Some(0), 0, 50)];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = [span(None, 0, 100), span(Some(0), 20, 80), span(Some(1), 30, 50)];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn merge_rebases_parent_indices() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        a.time("a", None, 1, || ());
        let mut b = SpanLog::new(origin);
        let root = b.begin("b", None, 2);
        b.time("b.child", Some(root), 2, || ());
        b.end(root);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].name, "b");
    }
}
