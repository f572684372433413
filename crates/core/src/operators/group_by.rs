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

    /// Count one input row into the group and queue its key for the next
    /// flush the first time it changes.
    fn touch(&mut self, ann: &Annotation, t: &Tuple, key_cols: &[usize], dirty: &mut Vec<Key>) {
        match ann {
            Annotation::Insert => self.rows += 1,
            Annotation::Delete => {
                self.rows -= 1;
                self.deleted = true;
            }
            Annotation::Replace(_) => {}
        }
        if !self.changed {
            self.changed = true;
            dirty.push(t.key(key_cols));
        }
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
            scratch: Vec::new(),
            empty: Tuple::empty(),
        }
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

    /// Fold one annotated row into its group. A `+()` row takes the
    /// allocation-free [`fold_insert`](AggHandler::fold_insert) path of
    /// the built-in aggregates: no delta wrapper, no projected tuple. Any
    /// other annotation, and any handler without a fast fold, dispatches
    /// AGGSTATE on a projected delta; its intermediate deltas are kept in
    /// `streamed` when streaming.
    fn fold(
        &mut self,
        ann: &Annotation,
        t: &Tuple,
        streamed: &mut Vec<Delta>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        ctx.charge_cpu(ctx.cost.hash_cost);
        let aggs = &self.aggs;
        let entry = self.groups.probe_or_insert_with(t, &self.key_cols, || GroupEntry::new(aggs));
        entry.touch(ann, t, &self.key_cols, &mut self.dirty);
        let insert = *ann == Annotation::Insert;
        for (i, spec) in self.aggs.iter().enumerate() {
            if spec.handler.is_builtin() {
                ctx.charge_cpu(ctx.cost.cpu_per_tuple * 0.02);
            } else {
                ctx.charge_udf_call();
            }
            if insert && spec.handler.fold_insert(&mut entry.states[i], t, &spec.input_cols)? {
                continue;
            }
            let projected = Delta {
                ann: ann.clone(),
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
                for (spec, state) in self.aggs.iter().zip(&g.states) {
                    if !spec.handler.is_builtin() {
                        ctx.charge_udf_call();
                    }
                    let mut results = spec.handler.agg_result(state)?;
                    if let Some(d) = results.pop() {
                        vals.push(d.tuple.get(0).clone());
                    } else {
                        vals.push(Value::Null);
                    }
                }
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
        format!("GroupBy[{}]", names.join(","))
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

/// Project a row onto an aggregate's input columns, through a reusable
/// scratch buffer (one allocation per projected tuple); the zero-column
/// projection of `count(*)` reuses a cached empty tuple. The fallback
/// when an input cannot take the [`AggHandler::fold_insert`] fast path.
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
