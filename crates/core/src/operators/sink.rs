//! Result sink: materializes the delta stream into a final relation.

use crate::delta::{Annotation, Delta, Punctuation, ZSet};
use crate::error::Result;
use crate::operators::{OpCtx, Operator};
use crate::tuple::{sort_rows, Tuple};

/// How the sink stores its result multiset.
enum SinkState {
    /// Where every sink starts: plain appends, one sort when the results
    /// are taken. Whether the stream is insert-only is a fact about the
    /// data, so the sink finds out from the data — the first non-insert
    /// delta degrades it to [`SinkState::Counted`].
    Append(Vec<Tuple>),
    /// General path: the rows as a Z-set, so deletes and replacements
    /// apply in O(1) instead of scanning a bag.
    Counted(ZSet),
}

/// Applies deltas to a result bag. At the query requestor this is where
/// per-worker results are unioned into the final answer.
pub struct SinkOp {
    state: SinkState,
    eos: bool,
}

impl Default for SinkOp {
    fn default() -> Self {
        SinkOp::new()
    }
}

impl SinkOp {
    /// An empty sink: incoming insertions are appended without hashing
    /// and sorted once at the end, until a non-insert delta arrives.
    pub fn new() -> SinkOp {
        SinkOp { state: SinkState::Append(Vec::new()), eos: false }
    }

    /// Whether end-of-stream has been observed.
    pub fn complete(&self) -> bool {
        self.eos
    }

    /// Current materialized results (sorted for determinism).
    pub fn results(&self) -> Vec<Tuple> {
        let mut v = match &self.state {
            SinkState::Append(rows) => rows.clone(),
            SinkState::Counted(z) => return z.rows(),
        };
        sort_rows(&mut v);
        v
    }

    /// Take the results, leaving the sink empty.
    pub fn take_results(&mut self) -> Vec<Tuple> {
        let mut v = match &mut self.state {
            SinkState::Append(rows) => std::mem::take(rows),
            SinkState::Counted(z) => return std::mem::take(z).rows(),
        };
        sort_rows(&mut v);
        v
    }
}

impl Operator for SinkOp {
    fn name(&self) -> String {
        "Sink".into()
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        if let SinkState::Append(rows) = &mut self.state {
            if deltas.iter().all(|d| matches!(d.ann, Annotation::Insert)) {
                rows.reserve(deltas.len());
                for d in deltas {
                    rows.push(d.tuple);
                }
                return Ok(());
            }
            // Leave the append path: the Z-set starts from what was appended.
            self.state = SinkState::Counted(ZSet::from_rows(std::mem::take(rows)));
        }
        let SinkState::Counted(z) = &mut self.state else { unreachable!("just degraded") };
        for d in deltas {
            let (gone, new) = match d.ann {
                Annotation::Insert => (None, Some(d.tuple)),
                Annotation::Delete => (Some(d.tuple), None),
                Annotation::Replace(old) => (Some(old), Some(d.tuple)),
            };
            // A row leaves only if the sink holds it: a delete of an
            // absent row is a no-op, as the bag-backed sink always had it.
            if let Some(t) = gone.filter(|t| z.weight(t) > 0) {
                z.add(t, -1);
            }
            if let Some(t) = new {
                z.add(t, 1);
            }
        }
        Ok(())
    }

    /// Bare tuples append (or count) directly.
    fn on_rows(&mut self, _port: usize, rows: Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(rows.len());
        match &mut self.state {
            SinkState::Append(v) => v.extend(rows),
            SinkState::Counted(z) => rows.into_iter().for_each(|t| z.add(t, 1)),
        }
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, _ctx: &mut OpCtx<'_>) -> Result<()> {
        if p == Punctuation::EndOfStream {
            self.eos = true;
        }
        Ok(())
    }

    fn as_sink(&mut self) -> Option<&mut SinkOp> {
        Some(self)
    }

    fn reset(&mut self) {
        *self = SinkOp::new();
    }

    /// `degraded` is 1 once the sink has left the append path (summed
    /// over workers and threads in merged traces).
    fn stats_detail(&self) -> Vec<(String, u64)> {
        vec![("degraded".into(), matches!(self.state, SinkState::Counted(_)) as u64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::tuple;
    use crate::udf::Registry;

    fn drive(sink: &mut SinkOp, deltas: Vec<Delta>) {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        sink.on_deltas(0, deltas, &mut ctx).unwrap();
    }

    #[test]
    fn applies_delta_semantics() {
        let mut s = SinkOp::new();
        drive(
            &mut s,
            vec![
                Delta::insert(tuple![1i64]),
                Delta::insert(tuple![2i64]),
                Delta::delete(tuple![1i64]),
                Delta::replace(tuple![2i64], tuple![3i64]),
            ],
        );
        assert_eq!(s.results(), vec![tuple![3i64]]);
    }

    #[test]
    fn delete_of_missing_row_is_a_noop() {
        let mut s = SinkOp::new();
        drive(&mut s, vec![Delta::insert(tuple![1i64]), Delta::delete(tuple![9i64])]);
        assert_eq!(s.results(), vec![tuple![1i64]]);
        // A replacement whose old row is absent still inserts the new row
        // (upsert, as the bag-backed sink always did).
        drive(&mut s, vec![Delta::replace(tuple![7i64], tuple![8i64])]);
        assert_eq!(s.results(), vec![tuple![1i64], tuple![8i64]]);
    }

    #[test]
    fn delete_before_insert_leaves_one_copy() {
        let mut s = SinkOp::new();
        drive(&mut s, vec![Delta::delete(tuple![4i64])]);
        drive(&mut s, vec![Delta::insert(tuple![4i64])]);
        assert_eq!(s.results(), vec![tuple![4i64]]);
    }

    #[test]
    fn duplicates_respect_multiplicity() {
        let mut s = SinkOp::new();
        drive(
            &mut s,
            vec![
                Delta::insert(tuple![1i64]),
                Delta::insert(tuple![1i64]),
                Delta::delete(tuple![1i64]),
            ],
        );
        assert_eq!(s.results(), vec![tuple![1i64]]);
    }

    #[test]
    fn eos_marks_complete() {
        let mut s = SinkOp::new();
        assert!(!s.complete());
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        s.on_punct(0, Punctuation::EndOfStream, &mut ctx).unwrap();
        assert!(s.complete());
    }

    #[test]
    fn take_results_drains() {
        let mut s = SinkOp::new();
        drive(&mut s, vec![Delta::insert(tuple![5i64])]);
        assert_eq!(s.take_results(), vec![tuple![5i64]]);
        assert!(s.results().is_empty());
    }

    fn degraded(s: &SinkOp) -> u64 {
        s.stats_detail()[0].1
    }

    #[test]
    fn inserts_append_and_sort_on_take() {
        let mut s = SinkOp::new();
        drive(&mut s, vec![Delta::insert(tuple![3i64]), Delta::insert(tuple![1i64])]);
        drive(&mut s, vec![Delta::insert(tuple![2i64]), Delta::insert(tuple![1i64])]);
        assert_eq!(degraded(&s), 0);
        assert_eq!(s.take_results(), vec![tuple![1i64], tuple![1i64], tuple![2i64], tuple![3i64]]);
    }

    #[test]
    fn first_non_insert_degrades_to_counted() {
        let mut s = SinkOp::new();
        drive(&mut s, vec![Delta::insert(tuple![1i64]), Delta::insert(tuple![2i64])]);
        // A delete must not be dropped: the sink rebuilds the counted
        // multiset from what it appended and applies it.
        drive(&mut s, vec![Delta::delete(tuple![1i64])]);
        assert_eq!(degraded(&s), 1);
        assert_eq!(s.results(), vec![tuple![2i64]]);
    }

    #[test]
    fn reset_clears_rows_and_returns_to_appending() {
        let mut s = SinkOp::new();
        drive(&mut s, vec![Delta::insert(tuple![1i64]), Delta::delete(tuple![1i64])]);
        assert_eq!(degraded(&s), 1);
        s.reset();
        assert!(s.results().is_empty());
        assert!(!s.complete());
        // A restart-recovery rerun gets the append path back.
        drive(&mut s, vec![Delta::insert(tuple![1i64])]);
        assert_eq!(degraded(&s), 0);
        assert!(matches!(s.state, SinkState::Append(_)));
    }
}
