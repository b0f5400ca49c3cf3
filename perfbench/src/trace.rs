//! In-memory spans around the benchmark's calls into each layer, and
//! the per-layer self-time table derived from them.
//!
//! A span has a name, a start, an end and the span that was open when
//! it started (its parent). Spans are kept in memory and written once,
//! when the run ends, so recording costs two clock reads and a push.

use occamy_stats::Json;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.slice`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall nanoseconds between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open, and returns `f`'s result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an interval measured elsewhere as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent: self.open.last().copied(),
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds covered by the most recent span named `name`.
    pub fn last_s(&self, name: &str) -> Option<f64> {
        let span = self.spans.iter().rev().find(|s| s.name == name)?;
        Some(span.duration_ns() as f64 / 1e9)
    }
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap one another or reach past
/// the parent; only the union of their coverage inside the parent
/// counts.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut reach = parent.start_ns;
    for (a, b) in covered {
        let a = a.max(reach);
        if b > a {
            union += b - a;
            reach = b;
        }
    }
    parent.duration_ns() - union
}

/// Per-name totals and self times, in order of each name's first span.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut rows: Vec<LayerRow> = Vec::new();
    for (id, span) in spans.iter().enumerate() {
        let own = self_ns(spans, id);
        match rows.iter_mut().find(|r| r.name == span.name) {
            Some(row) => {
                row.calls += 1;
                row.total_ns += span.duration_ns();
                row.self_ns += own;
            }
            None => rows.push(LayerRow {
                name: span.name,
                calls: 1,
                total_ns: span.duration_ns(),
                self_ns: own,
            }),
        }
    }
    rows
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
        ])
    }))
}

/// The self-time table as aligned text, one layer per line.
pub fn layer_table_text(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<28} {:>7} {:>12} {:>12}\n",
        "span", "calls", "total_ms", "self_ms"
    );
    for r in rows {
        out += &format!(
            "{:<28} {:>7} {:>12.3} {:>12.3}\n",
            r.name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("cell", 0, 100, None),
            span("setup", 10, 30, Some(0)),
            span("engine", 30, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 60);
    }

    #[test]
    fn grandchildren_count_only_against_their_parent() {
        let spans = [
            span("cell", 0, 100, None),
            span("engine", 0, 80, Some(0)),
            span("engine.slice", 0, 50, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 1), 30);
        assert_eq!(self_ns(&spans, 2), 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("p", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 140, 145, Some(0)),
            span("d", 190, 260, Some(0)),
        ];
        // Covered inside [100, 200): [100, 150) and [190, 200).
        assert_eq!(self_ns(&spans, 0), 40);
    }

    #[test]
    fn table_sums_spans_by_name_in_first_seen_order() {
        let spans = [
            span("engine", 0, 100, None),
            span("engine.slice", 0, 40, Some(0)),
            span("engine.slice", 40, 90, Some(0)),
            span("report", 100, 110, None),
        ];
        let rows = layer_table(&spans);
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["engine", "engine.slice", "report"]);
        assert_eq!(rows[0].self_ns, 10);
        assert_eq!(
            (rows[1].calls, rows[1].total_ns, rows[1].self_ns),
            (2, 90, 90)
        );
        assert_eq!(rows[2].self_ns, 10);
        let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 110, "self times partition the root spans");
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(t.last_s("inner").is_some());
    }
}
