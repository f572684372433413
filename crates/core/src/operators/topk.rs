//! Top-k selection: the physical operator behind `ORDER BY … LIMIT`.
//!
//! The operator buffers its input as a [`ZSet`] and, on every
//! punctuation, re-derives the current *selection* — the rows that survive
//! `OFFSET`/`LIMIT` under the sort order — and emits the **diff** against
//! what it last emitted. Downstream sinks apply deltas, so repeated
//! flushes (one per gathered worker punctuation in distributed plans)
//! converge on the correct selection without double counting.
//!
//! Ordering is total and deterministic: rows compare by each sort key in
//! turn (descending keys reversed), then by the full tuple as a
//! tie-break. This makes `LIMIT` without `ORDER BY` (no keys) a
//! deterministic prefix of the tuple order, and makes ties under
//! `ORDER BY` resolve identically on every engine.
//!
//! In distributed lowering the operator appears twice: a *partial* top-k
//! per worker (capped at `limit + offset`, no offset applied) ahead of a
//! gather boundary, and a *final* top-k applying the true offset and
//! limit at the gather owner — the classic scatter/gather top-k.

use crate::delta::{Annotation, Delta, Punctuation, ZSet};
use crate::error::Result;
use crate::expr::Expr;
use crate::operators::{OpCtx, Operator};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;

/// One `ORDER BY` key: the expression to sort on and its direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortSpec {
    /// Key expression, evaluated over the input row.
    pub expr: Expr,
    /// `true` for `DESC`.
    pub desc: bool,
}

impl SortSpec {
    /// An ascending key on `expr`.
    pub fn asc(expr: Expr) -> SortSpec {
        SortSpec { expr, desc: false }
    }

    /// A descending key on `expr`.
    pub fn desc(expr: Expr) -> SortSpec {
        SortSpec { expr, desc: true }
    }
}

/// The one total order `ORDER BY` uses everywhere: compare pre-evaluated
/// key values in key order (descending keys reversed), then the full
/// tuples as the tie-break. Row *selection* ([`TopKOp`]) and row
/// *presentation* (the session's final ordering of engine results) both
/// call this, so the two can never disagree about which rows a LIMIT
/// keeps versus how they are displayed.
pub fn compare_by_keys(
    keys: &[SortSpec],
    a_keys: &[Value],
    a: &Tuple,
    b_keys: &[Value],
    b: &Tuple,
) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let ord = a_keys[i].cmp(&b_keys[i]);
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.cmp(b)
}

/// Buffering sort + offset/limit selection with diff emission.
pub struct TopKOp {
    keys: Vec<SortSpec>,
    fetch: Option<usize>,
    offset: usize,
    /// Input multiset.
    buffer: ZSet,
    /// What the operator currently contributes downstream.
    emitted: ZSet,
}

impl TopKOp {
    /// Select `fetch` rows (all when `None`) after skipping `offset`, in
    /// the order given by `keys` (full-tuple tie-break).
    pub fn new(keys: Vec<SortSpec>, fetch: Option<usize>, offset: usize) -> TopKOp {
        TopKOp { keys, fetch, offset, buffer: ZSet::new(), emitted: ZSet::new() }
    }

    /// Compute the current selection.
    fn selection(&self, ctx: &mut OpCtx<'_>) -> Result<ZSet> {
        // Evaluate the sort keys once per distinct tuple.
        let mut entries: Vec<(Vec<Value>, &Tuple, i64)> = Vec::new();
        for (t, n) in self.buffer.iter() {
            if n <= 0 {
                continue; // cancelled rows contribute nothing
            }
            let mut kv = Vec::with_capacity(self.keys.len());
            for k in &self.keys {
                kv.push(k.expr.eval(t, ctx.reg)?);
            }
            entries.push((kv, t, n));
        }
        ctx.charge_cpu(entries.len() as f64 * ctx.cost.cpu_per_tuple);
        entries.sort_unstable_by(|a, b| compare_by_keys(&self.keys, &a.0, a.1, &b.0, b.1));
        // Walk the sorted multiset, skipping `offset` rows and taking
        // `fetch`, splitting multiplicities at the boundaries.
        let mut out = ZSet::new();
        let mut skip = self.offset as i64;
        let mut take = self.fetch.map(|f| f as i64);
        for (_, t, n) in entries {
            let mut n = n;
            if skip > 0 {
                let s = skip.min(n);
                skip -= s;
                n -= s;
            }
            if n == 0 {
                continue;
            }
            match &mut take {
                None => out.add(t.clone(), n),
                Some(rem) => {
                    if *rem == 0 {
                        break;
                    }
                    let took = n.min(*rem);
                    *rem -= took;
                    out.add(t.clone(), took);
                }
            }
        }
        Ok(out)
    }
}

impl Operator for TopKOp {
    fn name(&self) -> String {
        let dir: Vec<String> = self
            .keys
            .iter()
            .map(|k| format!("{:?}{}", k.expr, if k.desc { " desc" } else { "" }))
            .collect();
        format!("TopK[{}] fetch={:?} offset={}", dir.join(","), self.fetch, self.offset)
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        for d in deltas {
            match d.ann {
                Annotation::Insert => self.buffer.add(d.tuple, 1),
                Annotation::Delete => self.buffer.add(d.tuple, -1),
                Annotation::Replace(old) => {
                    self.buffer.add(old, -1);
                    self.buffer.add(d.tuple, 1);
                }
            }
        }
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        let selection = self.selection(ctx)?;
        // Emit the new selection minus what was last emitted.
        let mut diff = ZSet::new();
        diff.merge_scaled(&self.emitted, -1);
        diff.merge_scaled(&selection, 1);
        self.emitted = selection;
        ctx.emit(0, diff.to_deltas());
        ctx.punct(0, p);
        Ok(())
    }

    fn reset(&mut self) {
        self.buffer = ZSet::new();
        self.emitted = ZSet::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;

    fn drive(op: &mut TopKOp, deltas: Vec<Delta>, punct: bool) -> Vec<Delta> {
        let reg = Registry::with_builtins();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_deltas(0, deltas, &mut ctx).unwrap();
        if punct {
            op.on_punct(0, Punctuation::EndOfStream, &mut ctx).unwrap();
        }
        let mut out: Vec<Delta> = ctx
            .take_output()
            .into_iter()
            .flat_map(|(_, e)| match e {
                Event::Data(d) => d,
                _ => vec![],
            })
            .collect();
        out.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        out
    }

    #[test]
    fn selects_top_k_descending() {
        let mut op = TopKOp::new(vec![SortSpec::desc(Expr::col(1))], Some(2), 0);
        let out = drive(
            &mut op,
            vec![
                Delta::insert(tuple![1i64, 10i64]),
                Delta::insert(tuple![2i64, 30i64]),
                Delta::insert(tuple![3i64, 20i64]),
            ],
            true,
        );
        assert_eq!(
            out,
            vec![Delta::insert(tuple![2i64, 30i64]), Delta::insert(tuple![3i64, 20i64])]
        );
    }

    #[test]
    fn offset_skips_and_limit_bounds() {
        let mut op = TopKOp::new(vec![SortSpec::asc(Expr::col(0))], Some(2), 1);
        let out = drive(&mut op, (0..5i64).map(|i| Delta::insert(tuple![i])).collect(), true);
        assert_eq!(out, vec![Delta::insert(tuple![1i64]), Delta::insert(tuple![2i64])]);
    }

    #[test]
    fn later_punctuation_emits_only_the_diff() {
        let mut op = TopKOp::new(vec![SortSpec::asc(Expr::col(0))], Some(2), 0);
        let out =
            drive(&mut op, vec![Delta::insert(tuple![5i64]), Delta::insert(tuple![7i64])], true);
        assert_eq!(out.len(), 2);
        // A smaller row arrives (another worker's partial, say): the
        // selection shifts and only the displaced row is retracted.
        let out = drive(&mut op, vec![Delta::insert(tuple![1i64])], true);
        assert_eq!(out, vec![Delta::insert(tuple![1i64]), Delta::delete(tuple![7i64])]);
    }

    #[test]
    fn ties_resolve_by_full_tuple_order() {
        let mut op = TopKOp::new(vec![SortSpec::asc(Expr::col(1))], Some(2), 0);
        let out = drive(
            &mut op,
            vec![
                Delta::insert(tuple![9i64, 1i64]),
                Delta::insert(tuple![2i64, 1i64]),
                Delta::insert(tuple![5i64, 1i64]),
            ],
            true,
        );
        assert_eq!(out, vec![Delta::insert(tuple![2i64, 1i64]), Delta::insert(tuple![5i64, 1i64])]);
    }

    #[test]
    fn deletions_and_duplicates_respect_multiplicity() {
        let mut op = TopKOp::new(vec![], Some(3), 0);
        let out = drive(
            &mut op,
            vec![
                Delta::insert(tuple![1i64]),
                Delta::insert(tuple![1i64]),
                Delta::insert(tuple![2i64]),
                Delta::insert(tuple![3i64]),
                Delta::delete(tuple![1i64]),
            ],
            true,
        );
        // Multiset after deltas: {1, 2, 3}; keyless order = tuple order.
        assert_eq!(
            out,
            vec![
                Delta::insert(tuple![1i64]),
                Delta::insert(tuple![2i64]),
                Delta::insert(tuple![3i64]),
            ]
        );
    }

    #[test]
    fn cancelled_tuples_leave_no_entries() {
        let mut op = TopKOp::new(vec![SortSpec::asc(Expr::col(0))], Some(2), 0);
        for round in 0..3i64 {
            let rows: Vec<Tuple> = (0..4).map(|i| tuple![round * 10 + i]).collect();
            drive(&mut op, rows.iter().cloned().map(Delta::insert).collect(), true);
            let out = drive(&mut op, rows.into_iter().map(Delta::delete).collect(), true);
            assert_eq!(out.len(), 2, "round {round}: the selection is retracted");
        }
        assert!(op.buffer.is_empty(), "cancelled tuples stay in the input multiset");
        assert!(op.emitted.is_empty());
    }

    #[test]
    fn no_fetch_passes_everything_in_multiset() {
        let mut op = TopKOp::new(vec![SortSpec::asc(Expr::col(0))], None, 0);
        let out =
            drive(&mut op, vec![Delta::insert(tuple![2i64]), Delta::insert(tuple![2i64])], true);
        assert_eq!(out.len(), 2);
    }
}
