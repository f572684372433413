//! The incremental maintenance plan: a stateful mirror of a logical plan
//! that converts base-table delta batches into view-output deltas.
//!
//! The delta rules are rex-core's own. A join node drives a
//! [`HashJoinOp`] and a group-by node a [`GroupByOp`] built from the
//! registry exactly as lowering builds it, so views and queries share one
//! set of operators, aggregate handlers and aggregate state (PAPER §3.3;
//! OpenIVM's design point of compiling maintenance onto the host engine's
//! own operators):
//!
//! * **Scan** — the leaf: emits the batch when it targets this table;
//! * **Filter / Project** — stateless, per-tuple mapping of deltas;
//! * **Join** — the left delta enters port 0, then the right delta port 1.
//!   The symmetric join probes before it stores, so the output is
//!   `Δ(L ⋈ R) = ΔL ⋈ R_old + L_new ⋈ ΔR` (which expands to the textbook
//!   `ΔL ⋈ R + L ⋈ ΔR + ΔL ⋈ ΔR`, so self-joins — both children delta-ing
//!   in one batch — stay correct);
//! * **Aggregate** — the batch goes in, an end-of-stratum flushes: every
//!   aggregate's handler updates its own state under `+()`/`-()` (O(1) for
//!   `sum`/`count`/`avg`, an O(log n) ordered multiset for `min`/`max`, a
//!   user UDA's AGGSTATE for anything else), only dirty groups emit, and a
//!   group whose last row is deleted retracts its output row.
//!
//! Two RQL clauses ride on these rules for free: `SELECT DISTINCT` plans
//! as a group-by over every output column with *no* aggregate calls — a
//! counted projection whose only state is each group's row count (the
//! row retracts when its count reaches zero) — and `HAVING` plans as a
//! stateless filter *above* the aggregate, post-filtering maintained
//! group state. Both therefore maintain incrementally, never by
//! recompute fallback.
//!
//! Both stateful nodes speak [`DeltaSet`] at their boundary: an
//! all-positive batch enters through [`Operator::on_rows`] (so priming
//! rides the aggregates' `fold_insert` fast path), anything else as
//! [`DeltaSet::to_deltas`], and emissions fold back with
//! [`DeltaSet::add_delta`]. Outputs are only observable through
//! [`DeltaSet`] emission boundaries, which sort.
//!
//! Shapes the rules don't cover — recursive fixpoints, user join delta
//! handlers, table-valued UDAs — fail [`build`] with a descriptive error;
//! the view layer responds by falling back to full recomputation.

use crate::delta_set::DeltaSet;
use rex_core::delta::Punctuation;
use rex_core::error::{Result, RexError};
use rex_core::expr::{eval_predicate, Expr};
use rex_core::handlers::AggOutputKind;
use rex_core::metrics::{CostModel, ExecMetrics};
use rex_core::operators::{AggSpec, Event, GroupByOp, HashJoinOp, OpCtx, Operator};
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use rex_rql::logical::LogicalPlan;

/// A node of the maintenance plan. Stateful nodes own the core operator
/// whose state the delta rules need; the tree is primed by replaying each
/// base table's current contents as an insert batch.
///
/// `Clone` copies the full operator state — that is the point: sharded
/// maintenance ([`crate::sharded`]) clones a shard's tree as its replica
/// snapshot after each round.
#[derive(Clone)]
pub enum MaintNode {
    /// Base-table leaf (table name lowercased).
    Scan {
        /// The scanned table, lowercase.
        table: String,
    },
    /// Stateless selection.
    Filter {
        /// Child node.
        input: Box<MaintNode>,
        /// Row predicate.
        predicate: Expr,
    },
    /// Stateless projection.
    Project {
        /// Child node.
        input: Box<MaintNode>,
        /// Output expressions.
        exprs: Vec<Expr>,
    },
    /// Equi-join (empty keys = cross join); the join's two build sides are
    /// the materialized inputs.
    Join {
        /// Left child.
        left: Box<MaintNode>,
        /// Right child.
        right: Box<MaintNode>,
        /// The symmetric hash join, left on port 0 and right on port 1.
        op: HashJoinOp,
    },
    /// Group-by, then the post-aggregation projection.
    Aggregate {
        /// Child node.
        input: Box<MaintNode>,
        /// The group-by holding per-group aggregate state.
        op: GroupByOp,
        /// Post-aggregation projection over `group cols ++ agg results`.
        post: Option<Vec<Expr>>,
    },
}

/// Build a maintenance plan for `plan`, or explain why the plan is not
/// incrementally maintainable (the caller then falls back to full
/// recomputation).
pub fn build(plan: &LogicalPlan, reg: &Registry) -> Result<MaintNode> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            Ok(MaintNode::Scan { table: table.to_ascii_lowercase() })
        }
        LogicalPlan::FixpointRef { .. } | LogicalPlan::Fixpoint { .. } => Err(RexError::Plan(
            "recursive fixpoint: delta rules do not cover WITH ... UNTIL FIXPOINT".into(),
        )),
        // The session rejects ORDER BY/LIMIT view definitions outright
        // (a materialized view is an unordered relation); this arm keeps
        // `build` total for callers that probe arbitrary plans.
        LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => Err(RexError::Plan(
            "ORDER BY/LIMIT: a materialized view is an unordered relation; order at query time"
                .into(),
        )),
        LogicalPlan::Filter { input, predicate } => Ok(MaintNode::Filter {
            input: Box::new(build(input, reg)?),
            predicate: predicate.clone(),
        }),
        LogicalPlan::Project { input, exprs, .. } => {
            Ok(MaintNode::Project { input: Box::new(build(input, reg)?), exprs: exprs.clone() })
        }
        LogicalPlan::Join { left, right, left_key, right_key, handler, .. } => {
            if let Some(h) = handler {
                return Err(RexError::Plan(format!(
                    "user join delta handler {h}: maintenance semantics are handler-defined"
                )));
            }
            Ok(MaintNode::Join {
                left: Box::new(build(left, reg)?),
                right: Box::new(build(right, reg)?),
                op: HashJoinOp::new(left_key.clone(), right_key.clone()),
            })
        }
        LogicalPlan::Aggregate { input, group_cols, aggs, post, .. } => {
            let mut specs = Vec::with_capacity(aggs.len());
            for a in aggs {
                let handler = reg.agg(&a.func)?;
                if handler.output_kind() == AggOutputKind::TableValued {
                    return Err(RexError::Plan(format!(
                        "table-valued aggregate {}: output shape is handler-defined",
                        a.func
                    )));
                }
                specs.push(AggSpec::new(handler, a.input_cols.clone()));
            }
            Ok(MaintNode::Aggregate {
                input: Box::new(build(input, reg)?),
                op: GroupByOp::new(group_cols.clone(), specs),
                post: post.clone(),
            })
        }
    }
}

impl MaintNode {
    /// Propagate a batch of changes to `table` through this subtree,
    /// returning the delta of this subtree's output and updating internal
    /// materializations along the way.
    pub fn apply(&mut self, table: &str, batch: &DeltaSet, reg: &Registry) -> Result<DeltaSet> {
        match self {
            MaintNode::Scan { table: t } => {
                Ok(if t == table { batch.clone() } else { DeltaSet::new() })
            }
            MaintNode::Filter { input, predicate } => {
                let din = input.apply(table, batch, reg)?;
                let mut out = DeltaSet::new();
                for (t, n) in din.iter() {
                    if eval_predicate(predicate, t, reg)? {
                        out.add(t.clone(), n);
                    }
                }
                Ok(out)
            }
            MaintNode::Project { input, exprs } => {
                project(&input.apply(table, batch, reg)?, exprs, reg)
            }
            MaintNode::Join { left, right, op } => {
                let dl = left.apply(table, batch, reg)?;
                let dr = right.apply(table, batch, reg)?;
                let mut out = drive(op, 0, &dl, reg)?;
                out.merge_scaled(&drive(op, 1, &dr, reg)?, 1);
                Ok(out)
            }
            MaintNode::Aggregate { input, op, post } => {
                let raw = drive(op, 0, &input.apply(table, batch, reg)?, reg)?;
                match post {
                    Some(exprs) => project(&raw, exprs, reg),
                    None => Ok(raw),
                }
            }
        }
    }

    /// Approximate bytes held by the operators' state (diagnostics): join
    /// sides and per-group aggregate state.
    pub fn state_bytes(&self) -> usize {
        match self {
            MaintNode::Scan { .. } => 0,
            MaintNode::Filter { input, .. } | MaintNode::Project { input, .. } => {
                input.state_bytes()
            }
            MaintNode::Join { left, right, op } => {
                left.state_bytes() + right.state_bytes() + op.state_bytes()
            }
            MaintNode::Aggregate { input, op, .. } => input.state_bytes() + op.state_bytes(),
        }
    }
}

/// Feed one delta batch to a core operator on `port`, then end the stratum
/// (a group-by flushes its dirty groups; a join has nothing to flush) and
/// collect everything it emitted as a signed multiset.
fn drive(op: &mut dyn Operator, port: usize, batch: &DeltaSet, reg: &Registry) -> Result<DeltaSet> {
    let mut out = DeltaSet::new();
    if batch.is_empty() {
        return Ok(out);
    }
    let cost = CostModel::default();
    let mut metrics = ExecMetrics::default();
    let mut ctx = OpCtx::new(0, 0, reg, &cost, &mut metrics);
    if batch.iter().all(|(_, n)| n > 0) {
        op.on_rows(port, batch.iter_rows().cloned().collect(), &mut ctx)?;
    } else {
        op.on_deltas(port, batch.to_deltas(), &mut ctx)?;
    }
    op.on_punct(port, Punctuation::EndOfStratum(0), &mut ctx)?;
    for (_, event) in ctx.take_output() {
        match event {
            Event::Data(deltas) => {
                for d in deltas {
                    out.add_delta(d)?;
                }
            }
            Event::Rows(rows) => rows.into_iter().for_each(|t| out.add(t, 1)),
            Event::Cols(cols) => cols.to_rows().into_iter().for_each(|t| out.add(t, 1)),
            Event::Punct(_) => {}
        }
    }
    Ok(out)
}

/// Map every tuple of `d` through `exprs`, carrying its multiplicity.
fn project(d: &DeltaSet, exprs: &[Expr], reg: &Registry) -> Result<DeltaSet> {
    let mut out = DeltaSet::new();
    for (t, n) in d.iter() {
        let vals: Result<Vec<_>> = exprs.iter().map(|e| e.eval(t, reg)).collect();
        out.add(Tuple::new(vals?), n);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::delta::Delta;
    use rex_core::tuple;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;
    use rex_rql::logical::plan_text;
    use rex_rql::SchemaCatalog;

    fn catalog() -> SchemaCatalog {
        let mut c = SchemaCatalog::new();
        c.register("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]));
        c.register("weights", Schema::of(&[("node", DataType::Int), ("w", DataType::Double)]));
        c
    }

    fn node(sql: &str) -> MaintNode {
        let reg = Registry::with_builtins();
        build(&plan_text(sql, &catalog(), &reg).unwrap(), &reg).unwrap()
    }

    fn inserts(rows: Vec<Tuple>) -> DeltaSet {
        DeltaSet::from_rows(rows)
    }

    #[test]
    fn filter_project_propagate_per_tuple() {
        let reg = Registry::with_builtins();
        let mut n = node("SELECT dst FROM edges WHERE src = 0");
        let out =
            n.apply("edges", &inserts(vec![tuple![0i64, 1i64], tuple![5i64, 6i64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![1i64]]);
        // Deleting the matching row retracts its projection.
        let mut del = DeltaSet::new();
        del.add(tuple![0i64, 1i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert_eq!(out.to_deltas(), vec![Delta::delete(tuple![1i64])]);
    }

    #[test]
    fn join_maintains_both_sides_incrementally() {
        let reg = Registry::with_builtins();
        let mut n =
            node("SELECT edges.dst, weights.w FROM edges, weights WHERE edges.dst = weights.node");
        let out = n.apply("edges", &inserts(vec![tuple![0i64, 1i64]]), &reg).unwrap();
        assert!(out.is_empty(), "no matching right rows yet");
        let out = n.apply("weights", &inserts(vec![tuple![1i64, 0.5f64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![1i64, 0.5f64]]);
        // New left row joins the stored right side.
        let out = n.apply("edges", &inserts(vec![tuple![7i64, 1i64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![1i64, 0.5f64]]);
        // Deleting the right row retracts both join results.
        let mut del = DeltaSet::new();
        del.add(tuple![1i64, 0.5f64], -1);
        let out = n.apply("weights", &del, &reg).unwrap();
        assert_eq!(out.rows().len(), 0);
        assert_eq!(out.iter().map(|(_, n)| n).sum::<i64>(), -2);
    }

    #[test]
    fn self_join_handles_same_batch_on_both_sides() {
        let reg = Registry::with_builtins();
        // edges ⋈ edges on dst = src: 2-hop paths.
        let mut n = node("SELECT a.src, b.dst FROM edges a, edges b WHERE a.dst = b.src");
        let out =
            n.apply("edges", &inserts(vec![tuple![0i64, 1i64], tuple![1i64, 2i64]]), &reg).unwrap();
        // Both sides changed in one batch: the ΔL ⋈ ΔR term must fire.
        assert_eq!(out.rows(), vec![tuple![0i64, 2i64]]);
        let out = n.apply("edges", &inserts(vec![tuple![2i64, 3i64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![1i64, 3i64]]);
    }

    #[test]
    fn aggregate_touches_only_dirty_groups() {
        let reg = Registry::with_builtins();
        let mut n = node("SELECT src, count(*), sum(dst) FROM edges GROUP BY src");
        let out = n
            .apply(
                "edges",
                &inserts(vec![tuple![0i64, 1i64], tuple![0i64, 2i64], tuple![9i64, 4i64]]),
                &reg,
            )
            .unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64, 2i64, 3.0f64], tuple![9i64, 1i64, 4.0f64]]);
        // Delete the only row of group 9: its output row disappears.
        let mut del = DeltaSet::new();
        del.add(tuple![9i64, 4i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert_eq!(out.to_deltas(), vec![Delta::delete(tuple![9i64, 1i64, 4.0f64])]);
        // Group 0 untouched → no deltas for it.
        let out = n.apply("edges", &inserts(vec![tuple![0i64, 3i64]]), &reg).unwrap();
        assert_eq!(out.iter().count(), 2, "old row out, new row in");
    }

    #[test]
    fn min_survives_deleting_the_current_extreme() {
        let reg = Registry::with_builtins();
        let mut n = node("SELECT src, min(dst), max(dst) FROM edges GROUP BY src");
        n.apply(
            "edges",
            &inserts(vec![tuple![0i64, 3i64], tuple![0i64, 5i64], tuple![0i64, 8i64]]),
            &reg,
        )
        .unwrap();
        // Delete the current minimum: the multiset recovers 5 without
        // revisiting the group's other rows.
        let mut del = DeltaSet::new();
        del.add(tuple![0i64, 3i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64, 5i64, 8i64]]);
        // Delete the maximum too.
        let mut del = DeltaSet::new();
        del.add(tuple![0i64, 8i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64, 5i64, 5i64]]);
    }

    #[test]
    fn distinct_maintains_as_counted_projection() {
        let reg = Registry::with_builtins();
        let mut n = node("SELECT DISTINCT src FROM edges");
        // Two rows project to src=0: one output row, counted twice.
        let out =
            n.apply("edges", &inserts(vec![tuple![0i64, 1i64], tuple![0i64, 2i64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64]]);
        // Deleting one of them keeps the distinct row (count 2 → 1)…
        let mut del = DeltaSet::new();
        del.add(tuple![0i64, 1i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert!(out.is_empty(), "distinct row survives while any source row remains");
        // …and deleting the last retracts it.
        let mut del = DeltaSet::new();
        del.add(tuple![0i64, 2i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert_eq!(out.to_deltas(), vec![Delta::delete(tuple![0i64])]);
    }

    #[test]
    fn having_maintains_as_filter_over_group_state() {
        let reg = Registry::with_builtins();
        let mut n = node("SELECT src, count(*) FROM edges GROUP BY src HAVING count(*) > 1");
        let out = n.apply("edges", &inserts(vec![tuple![0i64, 1i64]]), &reg).unwrap();
        assert!(out.is_empty(), "count=1 fails the HAVING");
        // Crossing the threshold emits the group…
        let out = n.apply("edges", &inserts(vec![tuple![0i64, 2i64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64, 2i64]]);
        // …and dropping back below retracts it.
        let mut del = DeltaSet::new();
        del.add(tuple![0i64, 2i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert_eq!(out.to_deltas(), vec![Delta::delete(tuple![0i64, 2i64])]);
    }

    #[test]
    fn expression_aggregate_views_maintain_incrementally() {
        let reg = Registry::with_builtins();
        let mut n = node("SELECT src, sum(dst * dst) FROM edges GROUP BY src");
        let out =
            n.apply("edges", &inserts(vec![tuple![0i64, 2i64], tuple![0i64, 3i64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64, 13.0f64]]);
    }

    #[test]
    fn order_by_limit_plans_are_not_maintainable() {
        let reg = Registry::with_builtins();
        let plan =
            plan_text("SELECT src FROM edges ORDER BY src LIMIT 3", &catalog(), &reg).unwrap();
        let err = build(&plan, &reg).err().expect("not maintainable");
        assert!(err.to_string().contains("unordered relation"), "{err}");
    }

    #[test]
    fn unsupported_shapes_name_their_reason() {
        let reg = Registry::with_builtins();
        let rec = plan_text(
            "WITH R (a) AS (SELECT src FROM edges)
             UNION UNTIL FIXPOINT BY a (SELECT edges.dst FROM edges, R WHERE edges.src = R.a)",
            &catalog(),
            &reg,
        )
        .unwrap();
        let err = build(&rec, &reg).err().expect("not maintainable");
        assert!(err.to_string().contains("recursive fixpoint"));
    }
}
