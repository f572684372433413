//! Spans recorded from the benchmark's own files, around the calls into
//! each layer, kept in memory and written out when the traced run ends.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`. The layers are
//! opaque from out here: a whole call (`SnapshotView::query`) cannot have
//! spans opened inside it. Its inner steps are therefore *replayed* right
//! after it through the inner layers' public functions (`parse`, `plan`,
//! `optimize`, `lower`, `run_traced`, …) and recorded as children of the
//! whole call's span. Children are linked by `parent`, not by nesting in
//! time, and a span's self time is its duration minus its children's.

use crate::json::quote;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The sampled operation this span belongs to.
    pub op_id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let since = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: since(start), end_ns: since(end), parent, op_id });
        (out, self.spans.len() - 1)
    }

    /// Duration minus the children's durations, floored at zero (replayed
    /// children can run longer than the step they stand for).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::ns).sum();
        self.spans[id].ns().saturating_sub(children)
    }

    /// Microsecond durations of the spans called `name` whose operation
    /// passes `keep`.
    pub fn durations_us(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.op_id))
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.op_id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_linked_by_parent() {
        let mut t = Tracer::default();
        let span =
            |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, op_id: 3 };
        t.spans.push(span("whole", 0, 100, None));
        // Replayed after the parent, not nested in time.
        t.spans.push(span("part_a", 100, 130, Some(0)));
        t.spans.push(span("part_b", 130, 190, Some(0)));
        t.spans.push(span("leaf", 190, 200, Some(2)));
        assert_eq!(t.self_ns(0), 10);
        assert_eq!(t.self_ns(2), 50);
        assert_eq!(t.self_ns(3), 10);
        assert_eq!(t.durations_us("part_b", |op| op == 3), vec![0.06]);
        assert!(t.durations_us("part_b", |op| op == 4).is_empty());
        let lines: Vec<_> = t.to_jsonl().lines().map(|l| crate::json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[3].get("parent").and_then(crate::json::Json::as_f64), Some(2.0));
    }
}
