//! Pipelined group-by with per-aggregate delta state.
//!
//! "A group by operator's internal state includes a map from the grouping
//! key to some aggregate function-specific form of intermediate state, for
//! each aggregate function being computed. As a group by operator receives a
//! delta, it can determine the key associated with the delta, but then each
//! aggregate function needs to determine how to update its own intermediate
//! state and what to emit" (§3.3).
//!
//! At stratum end, only *changed* groups are flushed — a sorted list of
//! dirty keys, never a scan of every group: an unseen group emits an
//! insertion, a previously-emitted group emits a replacement, and a group
//! whose last row was deleted retracts its output and is pruned. Retaining
//! state across strata (`retain_across_strata`) is what makes delta-based
//! recursion incremental; clearing it reproduces the `no-delta`
//! configuration that re-aggregates everything each iteration.
//!
//! A composable aggregate can also run split around an exchange (the
//! MapReduce combiner of §5.2): a [`partial`](GroupByOp::partial) folds
//! each stratum's rows where they are and ships one row per touched group,
//! and a [`merge`](GroupByOp::merge) past the exchange folds those rows.
//! A partial row carries its group's net `+()`/`-()` row count and whether
//! a `-()` arrived, so the merge keeps exactly the row bookkeeping — and
//! the group retraction — of one operator that saw every row.

use crate::col::ColumnBatch;
use crate::delta::{Annotation, Delta, Punctuation};
use crate::error::{Result, RexError};
use crate::handlers::{AggHandler, AggOutputKind, AggState};
use crate::hash::KeyedTable;
use crate::operators::{OpCtx, Operator, OperatorState};
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

type Key = Vec<Value>;

/// One aggregate computation within a group-by.
#[derive(Clone)]
pub struct AggSpec {
    /// The handler implementing AGGSTATE/AGGRESULT.
    pub handler: Arc<dyn AggHandler>,
    /// Which input columns feed the aggregate (projected before dispatch).
    pub input_cols: Vec<usize>,
}

impl AggSpec {
    /// Build an aggregate spec.
    pub fn new(handler: Arc<dyn AggHandler>, input_cols: Vec<usize>) -> AggSpec {
        AggSpec { handler, input_cols }
    }
}

#[derive(Clone)]
struct GroupEntry {
    states: Vec<AggState>,
    /// Net `+()`/`-()` rows folded into the group; replacements leave it
    /// unchanged.
    rows: i64,
    /// A `-()` arrived since the last flush, so a zero `rows` means the
    /// group's last row is gone (a replacement-only group also counts zero).
    deleted: bool,
    /// What this group last emitted (scalar mode), for replacement deltas.
    last_emitted: Option<Tuple>,
    /// Last emitted result tuples (table-valued mode).
    last_results: Vec<Tuple>,
    /// Whether the group's key is already on the dirty list.
    changed: bool,
}

/// Which part of an aggregate a [`GroupByOp`] computes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    /// The whole aggregate, from input rows.
    Whole,
    /// The sender-side half of a split aggregate: each flush emits one
    /// `key ++ partial values ++ [rows, deleted]` insertion per touched
    /// group and forgets every group.
    Partial,
    /// The receiving half: every input row is a partial row, whose carried
    /// row count and deletion flag start at column `carry`.
    Merge { carry: usize },
}

impl GroupEntry {
    fn new(aggs: &[AggSpec]) -> GroupEntry {
        GroupEntry {
            states: aggs.iter().map(|a| a.handler.init()).collect(),
            rows: 0,
            deleted: false,
            last_emitted: None,
            last_results: Vec::new(),
            changed: false,
        }
    }

    /// Count `rows` net input rows (and a deletion, if one arrived) into
    /// the group and queue its `key` for the next flush the first time it
    /// changes.
    fn touch(
        &mut self,
        (rows, deleted): (i64, bool),
        key: impl FnOnce() -> Key,
        dirty: &mut Vec<Key>,
    ) {
        self.rows += rows;
        self.deleted |= deleted;
        if !self.changed {
            self.changed = true;
            dirty.push(key());
        }
    }
}

/// An inserted row as the group-by's fold reads it: a tuple, or one row
/// of a column batch ([`ColRow`]), read in place either way.
trait InsertRow {
    /// Whether the row's `cols` equal a stored key.
    fn key_eq(&self, cols: &[usize], key: &[Value]) -> bool;
    /// The row's `cols` as an owned key.
    fn key(&self, cols: &[usize]) -> Key;
    /// Run `f` on the value of column `c`.
    fn with_value<R>(&self, c: usize, f: impl FnOnce(&Value) -> R) -> Result<R>;
    /// The row projected onto `cols` (the general AGGSTATE path).
    fn project(&self, cols: &[usize], scratch: &mut Vec<Value>, empty: &Tuple) -> Tuple;
}

impl InsertRow for Tuple {
    fn key_eq(&self, cols: &[usize], key: &[Value]) -> bool {
        Tuple::key_eq(self, cols, key)
    }

    fn key(&self, cols: &[usize]) -> Key {
        Tuple::key(self, cols)
    }

    fn with_value<R>(&self, c: usize, f: impl FnOnce(&Value) -> R) -> Result<R> {
        Ok(f(self.try_get(c)?))
    }

    fn project(&self, cols: &[usize], scratch: &mut Vec<Value>, empty: &Tuple) -> Tuple {
        project_row(self, cols, scratch, empty)
    }
}

/// Row `.1` of the column batch `.0`.
struct ColRow<'a>(&'a ColumnBatch, usize);

impl InsertRow for ColRow<'_> {
    fn key_eq(&self, cols: &[usize], key: &[Value]) -> bool {
        self.0.key_eq(self.1, cols, key)
    }

    fn key(&self, cols: &[usize]) -> Key {
        self.0.key(self.1, cols)
    }

    fn with_value<R>(&self, c: usize, f: impl FnOnce(&Value) -> R) -> Result<R> {
        let col = self.0.columns().get(c).ok_or_else(|| {
            RexError::Exec(format!("column index {c} out of range (arity {})", self.0.width()))
        })?;
        Ok(col.with_value(self.1, f))
    }

    fn project(&self, cols: &[usize], _scratch: &mut Vec<Value>, empty: &Tuple) -> Tuple {
        if cols.is_empty() {
            return empty.clone();
        }
        Tuple::new(self.0.key(self.1, cols))
    }
}

/// The group-by operator.
///
/// Group state lives in a [`KeyedTable`], so the per-delta group lookup
/// hashes and compares the grouping columns in place; an owned key is
/// allocated only when a group is first seen, and once per stratum for its
/// entry on the dirty list.
#[derive(Clone)]
pub struct GroupByOp {
    key_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    groups: KeyedTable<GroupEntry>,
    /// Keys of the groups changed since the last flush.
    dirty: Vec<Key>,
    /// Keep aggregate state across strata (delta mode). When false the
    /// operator clears itself after each flush (no-delta / Hadoop-like).
    retain_across_strata: bool,
    /// Streamed partial aggregation: forward handler intermediate deltas
    /// immediately instead of waiting for punctuation (§4.2).
    streaming: bool,
    part: Part,
    /// Reusable projection buffer (one allocation per projected tuple
    /// instead of two) and a cached empty tuple for zero-column
    /// aggregates like `count(*)` (an `Arc` bump instead of an
    /// allocation per row).
    scratch: Vec<Value>,
    empty: Tuple,
}

impl GroupByOp {
    /// Group on `key_cols`, computing `aggs`.
    pub fn new(key_cols: Vec<usize>, aggs: Vec<AggSpec>) -> GroupByOp {
        GroupByOp {
            key_cols,
            aggs,
            groups: KeyedTable::new(),
            dirty: Vec::new(),
            retain_across_strata: true,
            streaming: false,
            part: Part::Whole,
            scratch: Vec::new(),
            empty: Tuple::empty(),
        }
    }

    /// The sender-side half of a split aggregate: group on `key_cols` with
    /// the partial handlers `aggs`. At each punctuation it emits, for every
    /// group the stratum touched, the insertion `key ++ one partial value
    /// per aggregate ++ [net row count, whether a -() arrived]`, then
    /// forgets every group.
    pub fn partial(key_cols: Vec<usize>, aggs: Vec<AggSpec>) -> GroupByOp {
        GroupByOp { part: Part::Partial, ..GroupByOp::new(key_cols, aggs).without_retention() }
    }

    /// The receiving half of a split aggregate: merge the rows of a
    /// [`partial`](Self::partial) with `n_keys` key columns, folding the
    /// i-th partial value with the i-th handler of `merges`. Its output is
    /// what one whole `GroupByOp` over every input row would emit.
    pub fn merge(n_keys: usize, merges: Vec<Arc<dyn AggHandler>>) -> GroupByOp {
        let carry = n_keys + merges.len();
        let aggs = merges
            .into_iter()
            .enumerate()
            .map(|(i, h)| AggSpec::new(h, vec![n_keys + i]))
            .collect();
        GroupByOp { part: Part::Merge { carry }, ..GroupByOp::new((0..n_keys).collect(), aggs) }
    }

    /// Disable cross-stratum state retention (the `no-delta` strategy).
    pub fn without_retention(mut self) -> Self {
        self.retain_across_strata = false;
        self
    }

    /// Enable streamed partial aggregation.
    pub fn streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Number of groups currently held.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Fold one inserted row — `rows` net rows of its group (a merge's
    /// partial row carries its own count) — into its group, whose key
    /// hashes to `hash`: one hashed upsert, then per aggregate the
    /// allocation-free [`fold_value`](AggHandler::fold_value) of the
    /// built-ins, or AGGSTATE on the projected row for a handler without
    /// one (its intermediate deltas kept in `streamed` when streaming).
    /// Both batch lanes fold through here, so a row folds identically
    /// whichever form it arrived in.
    fn fold_insert(
        &mut self,
        row: &impl InsertRow,
        hash: u64,
        rows: (i64, bool),
        streamed: &mut Vec<Delta>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        ctx.charge_cpu(ctx.cost.hash_cost);
        let GroupByOp { key_cols, aggs, groups, dirty, streaming, scratch, empty, .. } = self;
        let entry = groups.probe_or_insert_by(
            hash,
            |k| row.key_eq(key_cols, k),
            || row.key(key_cols),
            || GroupEntry::new(aggs),
        );
        entry.touch(rows, || row.key(key_cols), dirty);
        for (spec, state) in aggs.iter().zip(entry.states.iter_mut()) {
            if spec.handler.is_builtin() {
                ctx.charge_cpu(ctx.cost.cpu_per_tuple * 0.02);
            } else {
                ctx.charge_udf_call();
            }
            let folded = match spec.input_cols.as_slice() {
                [] => spec.handler.fold_value(state, None)?,
                [c] => row.with_value(*c, |v| spec.handler.fold_value(state, Some(v)))??,
                _ => false,
            };
            if !folded {
                let projected = Delta::insert(row.project(&spec.input_cols, scratch, empty));
                let inter = spec.handler.agg_state(state, &projected)?;
                if *streaming {
                    streamed.extend(inter);
                }
            }
        }
        Ok(())
    }

    /// Fold one annotated row into its group. A `+()` row takes
    /// [`fold_insert`](Self::fold_insert). A `-()` or `→(t')` dispatches
    /// AGGSTATE on a projected delta — a replacement's old tuple projected
    /// too; its intermediate deltas are kept in `streamed` when streaming.
    /// A replacement that moves a row to another group is the deletion
    /// from the old group and the insertion into the new one.
    fn fold(
        &mut self,
        ann: &Annotation,
        t: &Tuple,
        streamed: &mut Vec<Delta>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        if let Annotation::Replace(old) = ann {
            if self.key_cols.iter().any(|&c| old.get(c) != t.get(c)) {
                self.fold(&Annotation::Delete, old, streamed, ctx)?;
                return self.fold(&Annotation::Insert, t, streamed, ctx);
            }
        }
        let rows = match (self.part, ann) {
            (Part::Merge { carry }, Annotation::Insert) => carried(t, carry)?,
            (Part::Merge { .. }, _) => {
                return Err(RexError::Exec(
                    "group-by merge: partial rows must be insertions".into(),
                ))
            }
            (_, Annotation::Insert) => (1, false),
            (_, Annotation::Delete) => (-1, true),
            (_, Annotation::Replace(_)) => (0, false),
        };
        if *ann == Annotation::Insert {
            return self.fold_insert(t, t.hash_key(&self.key_cols), rows, streamed, ctx);
        }
        ctx.charge_cpu(ctx.cost.hash_cost);
        let aggs = &self.aggs;
        let key_cols = &self.key_cols;
        let entry = self.groups.probe_or_insert_with(t, key_cols, || GroupEntry::new(aggs));
        entry.touch(rows, || t.key(key_cols), &mut self.dirty);
        for (i, spec) in self.aggs.iter().enumerate() {
            if spec.handler.is_builtin() {
                ctx.charge_cpu(ctx.cost.cpu_per_tuple * 0.02);
            } else {
                ctx.charge_udf_call();
            }
            let ann = match ann {
                Annotation::Replace(old) => Annotation::Replace(project_row(
                    old,
                    &spec.input_cols,
                    &mut self.scratch,
                    &self.empty,
                )),
                other => other.clone(),
            };
            let projected = Delta {
                ann,
                tuple: project_row(t, &spec.input_cols, &mut self.scratch, &self.empty),
            };
            let inter = spec.handler.agg_state(&mut entry.states[i], &projected)?;
            if self.streaming {
                streamed.extend(inter);
            }
        }
        Ok(())
    }

    fn flush(&mut self, ctx: &mut OpCtx<'_>) -> Result<Vec<Delta>> {
        let mut out = Vec::new();
        // Deterministic flush order simplifies testing and reproducibility.
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        let table_valued = self
            .aggs
            .first()
            .map(|a| a.handler.output_kind() == AggOutputKind::TableValued)
            .unwrap_or(false);
        for key in dirty {
            let g = self.groups.get_mut(&key).expect("dirty key exists");
            g.changed = false;
            if self.part == Part::Partial {
                // A partial's net row count may be negative: the rows it
                // retracts were counted in an earlier stratum's partial.
                let mut vals = key;
                push_results(&self.aggs, &g.states, &mut vals, ctx)?;
                vals.push(Value::Int(g.rows));
                vals.push(Value::Bool(g.deleted));
                out.push(Delta::insert(Tuple::new(vals)));
                continue;
            }
            if g.rows < 0 {
                return Err(RexError::Exec(format!(
                    "group-by: negative row count {} in group {key:?}",
                    g.rows
                )));
            }
            if std::mem::take(&mut g.deleted) && g.rows == 0 {
                // The group's last row was deleted: retract what it
                // emitted and forget it.
                out.extend(g.last_emitted.take().map(Delta::delete));
                out.extend(g.last_results.drain(..).map(Delta::delete));
                self.groups.remove(&key);
                continue;
            }
            if table_valued {
                // Single table-valued UDA: key-prefixed result tuples.
                let spec = &self.aggs[0];
                if !spec.handler.is_builtin() {
                    ctx.charge_udf_call();
                }
                let results = spec.handler.agg_result(&g.states[0])?;
                let mut tuples: Vec<Tuple> = Vec::with_capacity(results.len());
                for d in results {
                    let mut vals = key.clone();
                    vals.extend(d.tuple.values().iter().cloned());
                    tuples.push(Tuple::new(vals));
                }
                if tuples != g.last_results {
                    for t in &tuples {
                        out.push(Delta::insert(t.clone()));
                    }
                    g.last_results = tuples;
                }
            } else {
                let mut vals = key.clone();
                push_results(&self.aggs, &g.states, &mut vals, ctx)?;
                let t = Tuple::new(vals);
                match &g.last_emitted {
                    None => out.push(Delta::insert(t.clone())),
                    Some(prev) if prev != &t => out.push(Delta::replace(prev.clone(), t.clone())),
                    Some(_) => {} // value unchanged: emit nothing
                }
                g.last_emitted = Some(t);
            }
        }
        if !self.retain_across_strata {
            self.groups.clear();
        }
        Ok(out)
    }
}

impl Operator for GroupByOp {
    fn name(&self) -> String {
        let names: Vec<&str> = self.aggs.iter().map(|a| a.handler.name()).collect();
        let part = match self.part {
            Part::Whole => "",
            Part::Partial => " partial",
            Part::Merge { .. } => " merge",
        };
        format!("GroupBy[{}]{part}", names.join(","))
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        let mut streamed = Vec::new();
        for d in &deltas {
            self.fold(&d.ann, &d.tuple, &mut streamed, ctx)?;
        }
        if self.streaming && !streamed.is_empty() {
            ctx.emit(0, streamed);
        }
        Ok(())
    }

    /// Bare rows fold straight into group state as the `+()` deltas they
    /// stand for, with no delta wrapper.
    fn on_rows(&mut self, _port: usize, rows: Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(rows.len());
        let mut streamed = Vec::new();
        for t in &rows {
            self.fold(&Annotation::Insert, t, &mut streamed, ctx)?;
        }
        if self.streaming && !streamed.is_empty() {
            ctx.emit(0, streamed);
        }
        Ok(())
    }

    /// A column batch folds from its typed columns: the selected rows'
    /// key hashes are computed column by column, then each row is one
    /// `fold_insert` reading its key and input values
    /// in place — no tuple is built. A merge's partial rows come from the
    /// exchange, never as columns, and take the row path.
    fn on_cols(&mut self, port: usize, batch: ColumnBatch, ctx: &mut OpCtx<'_>) -> Result<()> {
        if let Part::Merge { .. } = self.part {
            return self.on_rows(port, batch.to_rows(), ctx);
        }
        ctx.charge_input(batch.len());
        let sel = batch.selection();
        let hashes = batch.key_hashes(&sel, &self.key_cols);
        let mut streamed = Vec::new();
        for (&r, &hash) in sel.iter().zip(&hashes) {
            self.fold_insert(&ColRow(&batch, r as usize), hash, (1, false), &mut streamed, ctx)?;
        }
        if self.streaming && !streamed.is_empty() {
            ctx.emit(0, streamed);
        }
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        let out = self.flush(ctx)?;
        ctx.emit(0, out);
        ctx.punct(0, p);
        Ok(())
    }

    fn checkpoint(&self) -> Option<OperatorState> {
        // Group-by state is rebuilt from replayed inputs on recovery; only
        // fixpoint state is checkpointed (§4.3).
        None
    }

    fn reset(&mut self) {
        self.groups.clear();
        self.dirty.clear();
    }

    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Approximate bytes of retained group state: each group's row count
    /// plus its aggregates' states.
    fn state_bytes(&self) -> usize {
        self.groups
            .values()
            .map(|g| 8 + g.states.iter().map(AggState::byte_size).sum::<usize>())
            .sum()
    }

    fn stats_detail(&self) -> Vec<(String, u64)> {
        let (probes, collisions) = self.groups.probe_stats();
        vec![
            ("hash_probes".into(), probes),
            ("hash_collisions".into(), collisions),
            ("groups".into(), self.groups.len() as u64),
        ]
    }
}

/// Append each scalar aggregate's result for a group's `states` to `vals`
/// (`NULL` for a handler that returns none).
fn push_results(
    aggs: &[AggSpec],
    states: &[AggState],
    vals: &mut Vec<Value>,
    ctx: &mut OpCtx<'_>,
) -> Result<()> {
    for (spec, state) in aggs.iter().zip(states) {
        if !spec.handler.is_builtin() {
            ctx.charge_udf_call();
        }
        let mut results = spec.handler.agg_result(state)?;
        vals.push(results.pop().map_or(Value::Null, |d| d.tuple.get(0).clone()));
    }
    Ok(())
}

/// The net row count and deletion flag a partial row carries from `carry`.
fn carried(t: &Tuple, carry: usize) -> Result<(i64, bool)> {
    match (t.try_get(carry)?, t.try_get(carry + 1)?) {
        (Value::Int(rows), Value::Bool(deleted)) => Ok((*rows, *deleted)),
        (r, d) => Err(RexError::Exec(format!("group-by merge: bad partial row count ({r}, {d})"))),
    }
}

/// Project a row onto an aggregate's input columns, through a reusable
/// scratch buffer (one allocation per projected tuple); the zero-column
/// projection of `count(*)` reuses a cached empty tuple. The fallback
/// when an input cannot take the [`AggHandler::fold_value`] fast path.
fn project_row(t: &Tuple, cols: &[usize], scratch: &mut Vec<Value>, empty: &Tuple) -> Tuple {
    if cols.is_empty() {
        return empty.clone();
    }
    scratch.clear();
    scratch.extend(cols.iter().map(|&c| t.get(c).clone()));
    Tuple::from_slice(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{CountAgg, SumAgg};
    use crate::delta::Annotation;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;

    fn sum_group() -> GroupByOp {
        GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(SumAgg), vec![1])])
    }

    fn drive(op: &mut GroupByOp, deltas: Vec<Delta>, punct: bool) -> Vec<Delta> {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_deltas(0, deltas, &mut ctx).unwrap();
        if punct {
            op.on_punct(0, Punctuation::EndOfStratum(0), &mut ctx).unwrap();
        }
        ctx.take_output()
            .into_iter()
            .flat_map(|(_, e)| match e {
                Event::Data(d) => d,
                _ => vec![],
            })
            .collect()
    }

    #[test]
    fn emits_only_on_punctuation() {
        let mut g = sum_group();
        let out = drive(&mut g, vec![Delta::insert(tuple![1i64, 2.0f64])], false);
        assert!(out.is_empty());
        let out = drive(&mut g, vec![Delta::insert(tuple![1i64, 3.0f64])], true);
        assert_eq!(out, vec![Delta::insert(tuple![1i64, 5.0f64])]);
    }

    #[test]
    fn changed_groups_emit_replacements_next_stratum() {
        let mut g = sum_group();
        drive(&mut g, vec![Delta::insert(tuple![1i64, 2.0f64])], true);
        // Second stratum: another contribution to the same group.
        let out = drive(&mut g, vec![Delta::insert(tuple![1i64, 3.0f64])], true);
        assert_eq!(out, vec![Delta::replace(tuple![1i64, 2.0f64], tuple![1i64, 5.0f64])]);
    }

    #[test]
    fn unchanged_groups_stay_silent() {
        let mut g = sum_group();
        drive(
            &mut g,
            vec![Delta::insert(tuple![1i64, 2.0f64]), Delta::insert(tuple![2i64, 9.0f64])],
            true,
        );
        // Only group 1 receives new data; group 2 must not re-emit.
        let out = drive(&mut g, vec![Delta::insert(tuple![1i64, 1.0f64])], true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple.get(0), &Value::Int(1));
    }

    #[test]
    fn zero_net_change_emits_nothing() {
        let mut g = sum_group();
        drive(&mut g, vec![Delta::insert(tuple![1i64, 2.0f64])], true);
        // +3 then -3: the aggregate value is back where it was.
        let out = drive(
            &mut g,
            vec![Delta::insert(tuple![1i64, 3.0f64]), Delta::delete(tuple![1i64, 3.0f64])],
            true,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn without_retention_reaggregates_from_scratch() {
        let mut g = sum_group().without_retention();
        drive(&mut g, vec![Delta::insert(tuple![1i64, 2.0f64])], true);
        assert_eq!(g.group_count(), 0);
        // Next stratum starts fresh: same input sums to 3, not 5.
        let out = drive(&mut g, vec![Delta::insert(tuple![1i64, 3.0f64])], true);
        assert_eq!(out, vec![Delta::insert(tuple![1i64, 3.0f64])]);
    }

    #[test]
    fn multiple_aggregates_compose_output_tuple() {
        let mut g = GroupByOp::new(
            vec![0],
            vec![
                AggSpec::new(Arc::new(SumAgg), vec![1]),
                AggSpec::new(Arc::new(CountAgg), vec![1]),
            ],
        );
        let out = drive(
            &mut g,
            vec![Delta::insert(tuple![1i64, 2.0f64]), Delta::insert(tuple![1i64, 4.0f64])],
            true,
        );
        assert_eq!(out, vec![Delta::insert(tuple![1i64, 6.0f64, 2i64])]);
    }

    #[test]
    fn deletion_delta_updates_group() {
        let mut g = sum_group();
        drive(
            &mut g,
            vec![Delta::insert(tuple![1i64, 5.0f64]), Delta::insert(tuple![1i64, 3.0f64])],
            true,
        );
        let out = drive(&mut g, vec![Delta::delete(tuple![1i64, 3.0f64])], true);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].ann, Annotation::Replace(_)));
        assert_eq!(out[0].tuple, tuple![1i64, 5.0f64]);
    }

    #[test]
    fn deleting_a_groups_only_row_retracts_and_prunes_it() {
        let mut g = sum_group();
        drive(&mut g, vec![Delta::insert(tuple![1i64, 2.0f64])], true);
        let out = drive(&mut g, vec![Delta::delete(tuple![1i64, 2.0f64])], true);
        assert_eq!(out, vec![Delta::delete(tuple![1i64, 2.0f64])]);
        assert_eq!(g.group_count(), 0);
        assert_eq!(g.state_bytes(), 0);
    }

    #[test]
    fn insert_then_delete_in_one_stratum_emits_nothing() {
        let mut g = sum_group();
        let out = drive(
            &mut g,
            vec![Delta::insert(tuple![1i64, 2.0f64]), Delta::delete(tuple![1i64, 2.0f64])],
            true,
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(g.group_count(), 0);
    }

    #[test]
    fn a_delete_before_any_insert_is_an_error() {
        let mut g = sum_group();
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        g.on_deltas(0, vec![Delta::delete(tuple![1i64, 2.0f64])], &mut ctx).unwrap();
        let err = g.on_punct(0, Punctuation::EndOfStratum(0), &mut ctx).unwrap_err();
        assert!(err.to_string().contains("negative row count"), "{err}");
    }

    #[test]
    fn a_replacement_adjusts_by_its_projected_old_value() {
        // The sum reads column 2; the replaced row's column 0 is the key.
        let mut g = GroupByOp::new(vec![1], vec![AggSpec::new(Arc::new(SumAgg), vec![2])]);
        drive(&mut g, vec![Delta::insert(tuple![9i64, 1i64, 2.0f64])], true);
        let out = drive(
            &mut g,
            vec![Delta::replace(tuple![9i64, 1i64, 2.0f64], tuple![9i64, 1i64, 5.0f64])],
            true,
        );
        assert_eq!(out, vec![Delta::replace(tuple![1i64, 2.0f64], tuple![1i64, 5.0f64])]);
    }

    #[test]
    fn a_replacement_that_changes_group_moves_the_row() {
        let mut g = GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(CountAgg), vec![])]);
        drive(
            &mut g,
            vec![Delta::insert(tuple![1i64, 2.0f64]), Delta::insert(tuple![1i64, 3.0f64])],
            true,
        );
        let out =
            drive(&mut g, vec![Delta::replace(tuple![1i64, 2.0f64], tuple![2i64, 2.0f64])], true);
        assert_eq!(
            out,
            vec![
                Delta::replace(tuple![1i64, 2i64], tuple![1i64, 1i64]),
                Delta::insert(tuple![2i64, 1i64]),
            ]
        );
    }

    /// A stratum's deltas on `sites` partials, their rows merged: the
    /// merge must emit exactly what one whole operator emits, group
    /// retractions included, stratum after stratum.
    #[test]
    fn partials_merged_equal_one_whole_operator() {
        use crate::aggregates::{agg_split, AvgAgg, CountFinalAgg};
        let reg = Registry::with_builtins();
        let funcs = ["sum", "count", "avg"];
        let whole_specs = vec![
            AggSpec::new(Arc::new(SumAgg), vec![1]),
            AggSpec::new(Arc::new(CountAgg), vec![]),
            AggSpec::new(Arc::new(AvgAgg), vec![1]),
        ];
        let splits: Vec<_> = funcs.iter().map(|f| agg_split(&reg, f).unwrap().unwrap()).collect();
        assert_eq!(splits[1].merge.name(), CountFinalAgg.name());
        let partial_specs: Vec<AggSpec> = whole_specs
            .iter()
            .zip(&splits)
            .map(|(w, s)| AggSpec::new(s.partial.clone(), w.input_cols.clone()))
            .collect();
        let mut whole = GroupByOp::new(vec![0], whole_specs);
        let sites = 3;
        let mut partials: Vec<GroupByOp> =
            (0..sites).map(|_| GroupByOp::partial(vec![0], partial_specs.clone())).collect();
        let mut merge = GroupByOp::merge(1, splits.iter().map(|s| s.merge.clone()).collect());
        // Live rows, so deletes and replacements name rows that exist.
        let mut live: Vec<Tuple> = Vec::new();
        let mut z = 7u64;
        let mut next = |m: u64| {
            z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (z >> 33) % m
        };
        let mut retracted = 0;
        for _stratum in 0..12 {
            let mut batch = Vec::new();
            for _ in 0..10 {
                let roll = next(10);
                if roll < 4 || live.is_empty() {
                    let t = tuple![next(4) as i64, next(8) as f64];
                    live.push(t.clone());
                    batch.push(Delta::insert(t));
                } else if roll < 8 {
                    let t = live.swap_remove(next(live.len() as u64) as usize);
                    batch.push(Delta::delete(t));
                } else {
                    let i = next(live.len() as u64) as usize;
                    let new = tuple![next(4) as i64, next(8) as f64];
                    batch.push(Delta::replace(std::mem::replace(&mut live[i], new.clone()), new));
                }
            }
            let want = drive(&mut whole, batch.clone(), true);
            retracted += want.iter().filter(|d| d.ann == Annotation::Delete).count();
            let mut shipped = Vec::new();
            for (i, p) in partials.iter_mut().enumerate() {
                let mine = batch.iter().skip(i).step_by(sites).cloned().collect();
                shipped.extend(drive(p, mine, true));
                assert_eq!(p.group_count(), 0, "a partial forgets its groups");
            }
            assert!(shipped.iter().all(|d| d.ann == Annotation::Insert));
            assert_eq!(drive(&mut merge, shipped, true), want);
            assert_eq!(merge.group_count(), whole.group_count());
        }
        assert!(retracted > 0, "the stream must retract a group");
    }

    #[test]
    fn table_valued_uda_prefixes_key() {
        use crate::aggregates::ArgMinAgg;
        let mut g = GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(ArgMinAgg), vec![1, 2])]);
        let out = drive(
            &mut g,
            vec![
                Delta::insert(tuple![7i64, 1i64, 5.0f64]),
                Delta::insert(tuple![7i64, 2i64, 3.0f64]),
            ],
            true,
        );
        assert_eq!(out, vec![Delta::insert(tuple![7i64, 2i64, 3.0f64])]);
        // Re-delivering the same minimum changes nothing → silent.
        let out = drive(&mut g, vec![Delta::insert(tuple![7i64, 3i64, 9.0f64])], true);
        assert!(out.is_empty());
    }
}
