//! A view's maintenance dataflow: the defining plan lowered once, by
//! [`lower_dataflow`], into rex-core operators that live as long as the
//! view, driven batch by batch by an [`Executor`].
//!
//! Views and queries therefore share one lowering, one set of operators
//! and one driver (PAPER §3.3; OpenIVM's design point of compiling
//! maintenance onto the host engine's own operators). The delta rules are
//! the operators' own:
//!
//! * **Filter / Project** — stateless, per-tuple mapping of deltas;
//! * **Join** — a [`HashJoinOp`](rex_core::operators::HashJoinOp) probes
//!   before it stores, so a batch that changes both inputs (a self-join)
//!   yields `Δ(L ⋈ R) = ΔL ⋈ R_old + L_new ⋈ ΔR`, which expands to the
//!   textbook `ΔL ⋈ R + L ⋈ ΔR + ΔL ⋈ ΔR`. Both sides are always stored:
//!   the scans are fed deletes too, so no join is promised insert-only
//!   inputs, and the graph never sees end-of-stream;
//! * **Aggregate** — a [`GroupByOp`](rex_core::operators::GroupByOp)
//!   folds the batch and flushes at the end-of-stratum that closes it:
//!   every aggregate's handler updates its own state under `+()`/`-()`
//!   (O(1) for `sum`/`count`/`avg`, an O(log n) ordered multiset for
//!   `min`/`max`, a user UDA's AGGSTATE for anything else), only dirty
//!   groups emit, and a group whose last row is deleted retracts its row;
//! * **Recursion** — a `FixpointOp` that never sees its base case end:
//!   at convergence it emits the net change of its mutable set and stays
//!   open, so the next batch's deltas — new base rows on port 0, new step
//!   rows probed against the step joins' stored side on port 1 — are the
//!   next stratum's Δ, and semi-naive evaluation resumes from the converged
//!   state. Admitted for set-semantics recursion (`FIXPOINT BY` covers
//!   every column) whose base and step are built only of scan, filter,
//!   project and plain join: under inserts that continuation is
//!   bit-identical to a cold run. Such a flow takes inserts only; a batch
//!   that deletes from its sources rebuilds it from the store (the
//!   delete-and-rederive of Olteanu's survey is future work).
//!
//! Two RQL clauses ride on these rules for free: `SELECT DISTINCT` plans
//! as a group-by over every output column with *no* aggregate calls — a
//! counted projection whose only state is each group's row count — and
//! `HAVING` plans as a filter *above* the aggregate. Both maintain
//! incrementally, never by recompute fallback.
//!
//! A batch for table `t` enters at `t`'s scan nodes, as [`Event::Rows`]
//! when it only inserts and as [`Event::Data`] otherwise, and
//! [`Executor::run_strata`] runs it to quiescence — the same stratum loop
//! a query runs, with every scan punctuated on each stratum of the
//! executor's one clock so the step joins align with the fixpoint's
//! feedback. The root's output crosses a gather boundary into the outbox,
//! and that emission *is* the view delta, folded into a [`ZSet`] once,
//! at the view boundary. The graph holds no copy of the view's contents.
//!
//! Shapes the rules don't cover — other recursion, ORDER BY/LIMIT, user
//! join delta handlers, table-valued UDAs — fail [`ViewFlow::new`] with a
//! descriptive error; the view layer then falls back to full
//! recomputation.

use rex_core::delta::ZSet;
use rex_core::error::{Result, RexError};
use rex_core::exec::{Executor, NodeId};
use rex_core::handlers::AggOutputKind;
use rex_core::metrics::CostModel;
use rex_core::operators::Event;
use rex_core::udf::Registry;
use rex_rql::logical::LogicalPlan;
use rex_rql::lower::{lower_dataflow, Dataflow};

/// Explain why the delta rules do not cover `plan`, if they don't.
fn maintainable(plan: &LogicalPlan, reg: &Registry) -> Result<()> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(()),
        LogicalPlan::Fixpoint { key_cols, base, step, schema, .. } => {
            if !(0..schema.arity()).all(|c| key_cols.contains(&c)) {
                return Err(RexError::Plan(
                    "recursive fixpoint: FIXPOINT BY does not cover every column, so a \
                     stratum may replace rows; only set-semantics recursion continues from \
                     its converged state"
                        .into(),
                ));
            }
            monotone(base)?;
            monotone(step)
        }
        LogicalPlan::FixpointRef { .. } => Err(RexError::Plan(
            "recursive relation read outside its WITH ... UNTIL FIXPOINT".into(),
        )),
        // The session rejects ORDER BY/LIMIT view definitions outright
        // (a materialized view is an unordered relation); this arm keeps
        // the check total for callers that probe arbitrary plans.
        LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => Err(RexError::Plan(
            "ORDER BY/LIMIT: a materialized view is an unordered relation; order at query time"
                .into(),
        )),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            maintainable(input, reg)
        }
        LogicalPlan::Join { left, right, handler, .. } => {
            if let Some(h) = handler {
                return Err(RexError::Plan(format!(
                    "user join delta handler {h}: maintenance semantics are handler-defined"
                )));
            }
            maintainable(left, reg)?;
            maintainable(right, reg)
        }
        LogicalPlan::Aggregate { input, aggs, .. } => {
            for a in aggs {
                if reg.agg(&a.func)?.output_kind() == AggOutputKind::TableValued {
                    return Err(RexError::Plan(format!(
                        "table-valued aggregate {}: output shape is handler-defined",
                        a.func
                    )));
                }
            }
            maintainable(input, reg)
        }
    }
}

/// Explain why `plan`, the base case or step of a recursive fixpoint, is
/// not built only of scan, filter, project and plain join — the operators
/// whose insert deltas stay exact when a converged fixpoint re-enters.
fn monotone(plan: &LogicalPlan) -> Result<()> {
    let kind = match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::FixpointRef { .. } => return Ok(()),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            return monotone(input)
        }
        LogicalPlan::Join { left, right, handler: None, .. } => {
            monotone(left)?;
            return monotone(right);
        }
        LogicalPlan::Join { handler: Some(h), .. } => format!("user join delta handler {h}"),
        LogicalPlan::Aggregate { .. } => "aggregate (GROUP BY or DISTINCT)".into(),
        LogicalPlan::Fixpoint { .. } => "nested fixpoint".into(),
        LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => "ORDER BY/LIMIT".into(),
    };
    Err(RexError::Plan(format!(
        "recursive fixpoint: {kind} in WITH ... UNTIL FIXPOINT; only scan, filter, project and \
         plain join continue from the converged state"
    )))
}

/// One long-lived maintenance dataflow. `Clone` copies every operator's
/// state — sharded maintenance ([`crate::sharded`]) clones a shard's flow
/// as its replica after each round.
pub struct ViewFlow {
    exec: Executor,
    /// Scan nodes with their (lowercase) table names.
    scans: Vec<(String, NodeId)>,
    cost: CostModel,
}

impl Clone for ViewFlow {
    fn clone(&self) -> ViewFlow {
        ViewFlow {
            exec: self.exec.try_clone().expect("every operator of a view dataflow clones"),
            scans: self.scans.clone(),
            cost: self.cost,
        }
    }
}

impl ViewFlow {
    /// Lower `plan` into an empty dataflow, or explain why it is not
    /// incrementally maintainable.
    pub fn new(plan: &LogicalPlan, reg: &Registry) -> Result<ViewFlow> {
        maintainable(plan, reg)?;
        let Dataflow { mut graph, scans, root: (root, port) } = lower_dataflow(plan, reg)?;
        // A distributed executor hands whatever leaves a network boundary
        // to the drain's outbox: the gather on the root is the view
        // boundary.
        let out = graph.add_gather();
        graph.connect(root, port, out, 0);
        Ok(ViewFlow { exec: Executor::new(graph, 0, true), scans, cost: CostModel::default() })
    }

    /// Propagate a batch of changes to `table` (lowercase) and return the
    /// delta of the view's output; operator state carries over to the
    /// next batch. A recursive flow takes inserts only (a delete is the
    /// caller's to handle by rebuilding; see
    /// [`MaterializedView::on_change`](crate::view::MaterializedView::on_change)).
    pub fn apply(&mut self, table: &str, batch: &ZSet, reg: &Registry) -> Result<ZSet> {
        let mut out = ZSet::new();
        let mut targets: Vec<NodeId> =
            self.scans.iter().filter(|(t, _)| t == table).map(|&(_, id)| id).collect();
        let Some(last) = targets.pop().filter(|_| !batch.is_empty()) else { return Ok(out) };
        let event = if batch.iter().all(|(_, n)| n > 0) {
            Event::Rows(batch.iter_rows().cloned().collect())
        } else {
            Event::Data(batch.to_deltas())
        };
        for scan in targets {
            self.exec.inject_downstream(scan, 0, event.clone());
        }
        self.exec.inject_downstream(last, 0, event);
        let open: Vec<NodeId> = self.scans.iter().map(|&(_, id)| id).collect();
        let mut emitted = Vec::new();
        self.exec.run_strata(&open, reg, &self.cost, &mut emitted)?;
        for e in emitted {
            match e.event {
                Event::Data(deltas) => {
                    for d in deltas {
                        out.add_delta(d);
                    }
                }
                Event::Rows(rows) => rows.into_iter().for_each(|t| out.add(t, 1)),
                Event::Cols(cols) => cols.to_rows().into_iter().for_each(|t| out.add(t, 1)),
                Event::Punct(_) => {}
            }
        }
        Ok(out)
    }

    /// Approximate bytes held by the operators' state (diagnostics): join
    /// sides and per-group aggregate state.
    pub fn state_bytes(&self) -> usize {
        self.exec.state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::delta::Delta;
    use rex_core::tuple;
    use rex_core::tuple::{Schema, Tuple};
    use rex_core::value::DataType;
    use rex_data::rng::StdRng;
    use rex_rql::logical::plan_text;
    use rex_rql::SchemaCatalog;

    fn catalog() -> SchemaCatalog {
        let mut c = SchemaCatalog::new();
        c.register("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]));
        c.register("weights", Schema::of(&[("node", DataType::Int), ("w", DataType::Double)]));
        c
    }

    fn node(sql: &str) -> ViewFlow {
        let reg = Registry::with_builtins();
        ViewFlow::new(&plan_text(sql, &catalog(), &reg).unwrap(), &reg).unwrap()
    }

    fn inserts(rows: Vec<Tuple>) -> ZSet {
        ZSet::from_rows(rows)
    }

    #[test]
    fn filter_project_propagate_per_tuple() {
        let reg = Registry::with_builtins();
        let mut n = node("SELECT dst FROM edges WHERE src = 0");
        let out =
            n.apply("edges", &inserts(vec![tuple![0i64, 1i64], tuple![5i64, 6i64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![1i64]]);
        // Deleting the matching row retracts its projection.
        let mut del = ZSet::new();
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
        let mut del = ZSet::new();
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
        let mut del = ZSet::new();
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
        let mut del = ZSet::new();
        del.add(tuple![0i64, 3i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64, 5i64, 8i64]]);
        // Delete the maximum too.
        let mut del = ZSet::new();
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
        let mut del = ZSet::new();
        del.add(tuple![0i64, 1i64], -1);
        let out = n.apply("edges", &del, &reg).unwrap();
        assert!(out.is_empty(), "distinct row survives while any source row remains");
        // …and deleting the last retracts it.
        let mut del = ZSet::new();
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
        let mut del = ZSet::new();
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
        let err = ViewFlow::new(&plan, &reg).err().expect("not maintainable");
        assert!(err.to_string().contains("unordered relation"), "{err}");
    }

    #[test]
    fn unsupported_shapes_name_their_reason() {
        let reg = Registry::with_builtins();
        for (sql, reason) in [
            (
                "WITH R (a) AS (SELECT src FROM edges)
                 UNION UNTIL FIXPOINT BY a (
                   SELECT DISTINCT edges.dst FROM edges, R WHERE edges.src = R.a)",
                "aggregate",
            ),
            (
                "WITH R (a, b) AS (SELECT src, dst FROM edges)
                 UNION UNTIL FIXPOINT BY a (
                   SELECT edges.dst, R.b FROM edges, R WHERE edges.src = R.a)",
                "does not cover every column",
            ),
        ] {
            let plan = plan_text(sql, &catalog(), &reg).unwrap();
            let err = ViewFlow::new(&plan, &reg).err().expect("not maintainable");
            assert!(err.to_string().contains("recursive fixpoint"), "{err}");
            assert!(err.to_string().contains(reason), "{err}");
        }
    }

    /// Law L3 (inverse) over [`ZSet`]: from a seeded primed state, a batch
    /// `b` and then `−b` sum to the empty Z-set and leave the operators'
    /// state the size it was before `b`, on every non-recursive shape.
    #[test]
    fn a_batch_then_its_inverse_cancel() {
        let reg = Registry::with_builtins();
        let row = |table: &str, rng: &mut StdRng| match table {
            "edges" => tuple![rng.gen_range(0..=15i64), rng.gen_range(0..=7i64)],
            _ => tuple![rng.gen_range(0..=7i64), rng.gen_range(0..=3i64) as f64],
        };
        for sql in [
            "SELECT dst FROM edges WHERE src < 4",
            "SELECT edges.dst, weights.w FROM edges, weights WHERE edges.dst = weights.node",
            "SELECT a.src, b.dst FROM edges a, edges b WHERE a.dst = b.src",
            "SELECT src, min(dst), max(dst) FROM edges GROUP BY src",
            "SELECT DISTINCT src FROM edges",
            "SELECT src, count(*) FROM edges GROUP BY src HAVING count(*) > 1",
        ] {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut n = node(sql);
                let mut b: Vec<(&str, ZSet)> = Vec::new();
                for table in ["edges", "weights"] {
                    let primed = ZSet::from_rows((0..30).map(|_| row(table, &mut rng)));
                    n.apply(table, &primed, &reg).unwrap();
                    // Delete about a quarter of the primed rows, insert fresh ones.
                    let mut batch = ZSet::new();
                    for t in primed.iter_rows() {
                        if rng.gen_range(0..4usize) == 0 {
                            batch.add(t.clone(), -1);
                        }
                    }
                    (0..8).for_each(|_| batch.add(row(table, &mut rng), 1));
                    b.push((table, batch));
                }
                let before = n.state_bytes();
                let mut sum = ZSet::new();
                for factor in [1, -1] {
                    for (table, batch) in &b {
                        let mut scaled = ZSet::new();
                        scaled.merge_scaled(batch, factor);
                        sum.merge_scaled(&n.apply(table, &scaled, &reg).unwrap(), 1);
                    }
                }
                assert!(sum.is_empty(), "{sql} seed {seed}: b + (−b) left {sum:?}");
                assert_eq!(n.state_bytes(), before, "{sql} seed {seed}");
            }
        }
    }

    /// Set-semantics reachability continues from its converged fixpoint:
    /// a batch emits only the rows it makes reachable, whether it reaches
    /// the base case or only the step's join.
    #[test]
    fn recursive_flow_continues_from_its_converged_state() {
        let reg = Registry::with_builtins();
        let mut n = node(
            "WITH R (a) AS (SELECT node FROM weights)
             UNION UNTIL FIXPOINT BY a (SELECT edges.dst FROM edges, R WHERE edges.src = R.a)",
        );
        let out = n.apply("edges", &inserts(vec![tuple![0i64, 1i64], tuple![1i64, 2i64]]), &reg);
        assert!(out.unwrap().is_empty(), "nothing is reachable without a base case");
        let out = n.apply("weights", &inserts(vec![tuple![0i64, 0.5f64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![0i64], tuple![1i64], tuple![2i64]]);
        // A step-table insert probes the stored recursive relation.
        let out = n.apply("edges", &inserts(vec![tuple![2i64, 3i64], tuple![9i64, 4i64]]), &reg);
        assert_eq!(out.unwrap().to_deltas(), vec![Delta::insert(tuple![3i64])]);
        // A base-table insert recurses through the stored edges.
        let out = n.apply("weights", &inserts(vec![tuple![9i64, 1.0f64]]), &reg).unwrap();
        assert_eq!(out.rows(), vec![tuple![4i64], tuple![9i64]]);
        // Re-deriving known rows changes nothing.
        let out = n.apply("edges", &inserts(vec![tuple![0i64, 2i64]]), &reg).unwrap();
        assert!(out.is_empty());
    }
}
