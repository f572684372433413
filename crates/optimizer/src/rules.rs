//! Rewrite rules: predicate migration for UDFs (§5.1), UDA
//! pre-aggregation pushdown (§5.2), and the ORDER BY / LIMIT / DISTINCT /
//! HAVING normalizations:
//!
//! * [`fuse_limit_into_sort`] — `Limit` directly above `Sort` collapses
//!   into a top-k (the sort never materializes more than
//!   `limit + offset` rows per worker);
//! * [`push_having_below_aggregate`] — a HAVING predicate that touches
//!   only group-key columns filters input *rows* instead of groups;
//! * [`eliminate_redundant_distinct`] — `DISTINCT` over input whose rows
//!   are provably unique (an aggregate output, another DISTINCT) is a
//!   no-op and is removed.
//!
//! The rules are cost-guided but semantics-preserving; tests execute the
//! original and rewritten plans and compare results.

use crate::stats::Statistics;
use rex_core::aggregates::agg_split;
use rex_core::error::Result;
use rex_core::expr::Expr;
use rex_core::udf::Registry;
use rex_rql::logical::{AggCall, LogicalPlan};

/// The calibrated rank of a filter predicate: `cost / (1 − selectivity)`.
/// Cheap, selective predicates rank low and run first.
fn predicate_rank(e: &Expr, stats: &Statistics) -> f64 {
    let sel = crate::stats::predicate_selectivity(e, stats);
    let cost = expr_udf_cost(e, stats) + 1.0;
    cost / (1.0 - sel).max(1e-9)
}

fn expr_udf_cost(e: &Expr, stats: &Statistics) -> f64 {
    match e {
        Expr::Udf(name, args) => {
            stats.udf(name).cost_per_tuple
                + args.iter().map(|a| expr_udf_cost(a, stats)).sum::<f64>()
        }
        Expr::Bin(_, a, b) => expr_udf_cost(a, stats) + expr_udf_cost(b, stats),
        Expr::Not(a) | Expr::Neg(a) | Expr::IsNull(a) => expr_udf_cost(a, stats),
        _ => 0.0,
    }
}

/// Reorder chains of adjacent filters by increasing rank ("the optimal
/// order of application of expensive predicates over the same relation is
/// in increasing order of rank", \[13\] via §5.1). Applied recursively to
/// the whole plan.
pub fn order_filters_by_rank(plan: LogicalPlan, stats: &Statistics) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            // Collect the maximal chain of filters.
            let mut chain = vec![predicate];
            let mut cur = *input;
            while let LogicalPlan::Filter { input, predicate } = cur {
                chain.push(predicate);
                cur = *input;
            }
            let rebuilt = order_filters_by_rank(cur, stats);
            // Sort by rank; the lowest rank sits deepest (runs first).
            chain.sort_by(|a, b| {
                predicate_rank(a, stats)
                    .partial_cmp(&predicate_rank(b, stats))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut out = rebuilt;
            for p in chain {
                out = LogicalPlan::Filter { input: Box::new(out), predicate: p };
            }
            out
        }
        LogicalPlan::Project { input, exprs, schema } => LogicalPlan::Project {
            input: Box::new(order_filters_by_rank(*input, stats)),
            exprs,
            schema,
        },
        LogicalPlan::Join { left, right, left_key, right_key, handler, schema } => {
            LogicalPlan::Join {
                left: Box::new(order_filters_by_rank(*left, stats)),
                right: Box::new(order_filters_by_rank(*right, stats)),
                left_key,
                right_key,
                handler,
                schema,
            }
        }
        LogicalPlan::Aggregate { input, group_cols, aggs, post, schema } => {
            LogicalPlan::Aggregate {
                input: Box::new(order_filters_by_rank(*input, stats)),
                group_cols,
                aggs,
                post,
                schema,
            }
        }
        LogicalPlan::Fixpoint { name, key_cols, base, step, schema } => LogicalPlan::Fixpoint {
            name,
            key_cols,
            base: Box::new(order_filters_by_rank(*base, stats)),
            step: Box::new(order_filters_by_rank(*step, stats)),
            schema,
        },
        LogicalPlan::Sort { input, keys, fetch, offset } => LogicalPlan::Sort {
            input: Box::new(order_filters_by_rank(*input, stats)),
            keys,
            fetch,
            offset,
        },
        LogicalPlan::Limit { input, fetch, offset } => LogicalPlan::Limit {
            input: Box::new(order_filters_by_rank(*input, stats)),
            fetch,
            offset,
        },
        leaf => leaf,
    }
}

/// Rebuild a plan with `f` applied to every node bottom-up (children
/// first, then the node itself).
fn rewrite_bottom_up(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let rebuilt = match plan {
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(rewrite_bottom_up(*input, f)), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            LogicalPlan::Project { input: Box::new(rewrite_bottom_up(*input, f)), exprs, schema }
        }
        LogicalPlan::Join { left, right, left_key, right_key, handler, schema } => {
            LogicalPlan::Join {
                left: Box::new(rewrite_bottom_up(*left, f)),
                right: Box::new(rewrite_bottom_up(*right, f)),
                left_key,
                right_key,
                handler,
                schema,
            }
        }
        LogicalPlan::Aggregate { input, group_cols, aggs, post, schema } => {
            LogicalPlan::Aggregate {
                input: Box::new(rewrite_bottom_up(*input, f)),
                group_cols,
                aggs,
                post,
                schema,
            }
        }
        LogicalPlan::Fixpoint { name, key_cols, base, step, schema } => LogicalPlan::Fixpoint {
            name,
            key_cols,
            base: Box::new(rewrite_bottom_up(*base, f)),
            step: Box::new(rewrite_bottom_up(*step, f)),
            schema,
        },
        LogicalPlan::Sort { input, keys, fetch, offset } => {
            LogicalPlan::Sort { input: Box::new(rewrite_bottom_up(*input, f)), keys, fetch, offset }
        }
        LogicalPlan::Limit { input, fetch, offset } => {
            LogicalPlan::Limit { input: Box::new(rewrite_bottom_up(*input, f)), fetch, offset }
        }
        leaf => leaf,
    };
    f(rebuilt)
}

/// Fuse `Limit` directly above a plain `Sort` into a top-k: the sort
/// carries the fetch/offset, so execution keeps at most `fetch + offset`
/// rows per worker instead of a full sorted materialization.
pub fn fuse_limit_into_sort(plan: LogicalPlan) -> LogicalPlan {
    rewrite_bottom_up(plan, &|p| match p {
        LogicalPlan::Limit { input, fetch, offset } => match *input {
            LogicalPlan::Sort { input: si, keys, fetch: None, offset: 0 } => {
                LogicalPlan::Sort { input: si, keys, fetch: Some(fetch), offset }
            }
            other => LogicalPlan::Limit { input: Box::new(other), fetch, offset },
        },
        other => other,
    })
}

/// Push a HAVING filter below its aggregate when the predicate references
/// only group-key columns: filtering the groups is then equivalent to
/// filtering the input rows (a group disappears exactly when all its rows
/// do), and the aggregate maintains fewer groups. Skipped for global
/// aggregates (no group keys): they emit a row even for empty input, so
/// the filter must stay above.
pub fn push_having_below_aggregate(plan: LogicalPlan) -> LogicalPlan {
    rewrite_bottom_up(plan, &|p| match p {
        LogicalPlan::Filter { input, predicate } => match *input {
            LogicalPlan::Aggregate { input: agg_in, group_cols, aggs, post: None, schema }
                if !group_cols.is_empty() && {
                    let mut cols = Vec::new();
                    predicate.referenced_columns(&mut cols);
                    cols.iter().all(|c| *c < group_cols.len())
                } =>
            {
                // Output position i is the input's group column group_cols[i].
                let pushed = predicate.remap_columns(&|i| group_cols[i]);
                LogicalPlan::Aggregate {
                    input: Box::new(LogicalPlan::Filter { input: agg_in, predicate: pushed }),
                    group_cols,
                    aggs,
                    post: None,
                    schema,
                }
            }
            other => LogicalPlan::Filter { input: Box::new(other), predicate },
        },
        other => other,
    })
}

/// Move filters below the joins they sit on (predicate pushdown): a
/// conjunct whose columns all come from one side of a plain join filters
/// that side's rows before the join hashes and probes them, instead of
/// filtering joined rows after. A pushed predicate keeps sinking through
/// further joins below it; on the right side its columns are renumbered
/// from the join's output to the right input. Filters that stay put keep
/// their order.
///
/// Left where they are: predicates that call a UDF, whose placement is
/// §5.1's rank ordering's call ([`order_filters_by_rank`] runs after this
/// rule), predicates over both sides, and every filter over a handler
/// join, whose output is whatever the handler emits rather than left ++
/// right. Applied everywhere, fixpoint steps included: a filter commutes
/// with a join on deltas as it does on relations.
pub fn push_filters_below_joins(plan: LogicalPlan) -> LogicalPlan {
    rewrite_bottom_up(plan, &|p| match p {
        LogicalPlan::Filter { input, predicate } => sink_filter(*input, predicate),
        other => other,
    })
}

/// `Filter(input, pred)`, with `pred` moved as far below the joins in
/// `input` as [`push_filters_below_joins`] allows.
fn sink_filter(input: LogicalPlan, pred: Expr) -> LogicalPlan {
    match try_sink(input, pred) {
        Ok(plan) => plan,
        Err(kept) => {
            let (input, predicate) = *kept;
            LogicalPlan::Filter { input: Box::new(input), predicate }
        }
    }
}

/// A plan with a predicate that could not move into it.
type Unmoved = Box<(LogicalPlan, Expr)>;

/// Put `pred` below the first plain join under `input`, looking through
/// the filters above that join; hand both back when it cannot move.
fn try_sink(input: LogicalPlan, pred: Expr) -> std::result::Result<LogicalPlan, Unmoved> {
    match input {
        LogicalPlan::Filter { input, predicate } => match try_sink(*input, pred) {
            Ok(inner) => Ok(LogicalPlan::Filter { input: Box::new(inner), predicate }),
            Err(kept) => {
                let (inner, pred) = *kept;
                Err(Box::new((LogicalPlan::Filter { input: Box::new(inner), predicate }, pred)))
            }
        },
        LogicalPlan::Join { left, right, left_key, right_key, handler: None, schema }
            if !pred.contains_udf() =>
        {
            let split = left.schema().arity();
            let mut cols = Vec::new();
            pred.referenced_columns(&mut cols);
            let (left, right) = if cols.iter().all(|&c| c < split) {
                (sink_filter(*left, pred), *right)
            } else if cols.iter().all(|&c| c >= split) {
                (*left, sink_filter(*right, pred.remap_columns(&|c| c - split)))
            } else {
                let join =
                    LogicalPlan::Join { left, right, left_key, right_key, handler: None, schema };
                return Err(Box::new((join, pred)));
            };
            Ok(LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_key,
                right_key,
                handler: None,
                schema,
            })
        }
        other => Err(Box::new((other, pred))),
    }
}

/// Whether every row of the plan's output is provably distinct: aggregate
/// outputs (without a post projection the row is `key ++ results`, unique
/// per key; a DISTINCT is an aggregate with no calls), optionally seen
/// through row-preserving operators (Filter/Sort/Limit).
fn produces_unique_rows(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Aggregate { post: None, .. } => true,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => produces_unique_rows(input),
        _ => false,
    }
}

/// Drop a DISTINCT (group-by-all-columns with no aggregates) whose input
/// already produces unique rows.
pub fn eliminate_redundant_distinct(plan: LogicalPlan) -> LogicalPlan {
    rewrite_bottom_up(plan, &|p| match p {
        LogicalPlan::Aggregate { input, group_cols, aggs, post, schema } => {
            let is_distinct = aggs.is_empty()
                && post.is_none()
                && group_cols.len() == input.schema().arity()
                && group_cols.iter().enumerate().all(|(i, c)| i == *c);
            if is_distinct && produces_unique_rows(&input) {
                *input
            } else {
                LogicalPlan::Aggregate { input, group_cols, aggs, post, schema }
            }
        }
        other => other,
    })
}

/// Decision record for a pre-aggregation pushdown (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreAggPlan {
    /// The final aggregate's registered name.
    pub agg: String,
    /// The partial (pushed-down) aggregate's name.
    pub partial: String,
    /// The aggregate that merges the partials' values.
    pub merge: String,
    /// Whether the pushdown crossed a non-key join and needs `multiply`
    /// compensation by the opposite group's cardinality.
    pub needs_multiply: bool,
}

/// Determine the legal pre-aggregation pushdowns for an aggregate above a
/// join: an aggregate with a partial/final pair ([`agg_split`], the same
/// pairing distributed lowering combines with) pushes through any join,
/// with multiply compensation when the join is not on a key; any other
/// aggregate is not pushed. At most one pre-aggregation per UDA,
/// maximally pushed (the §5.2 heuristic).
pub fn preaggregation_plan(
    aggs: &[AggCall],
    reg: &Registry,
    join_on_key: bool,
) -> Result<Vec<Option<PreAggPlan>>> {
    let mut out = Vec::with_capacity(aggs.len());
    for a in aggs {
        out.push(agg_split(reg, &a.func)?.map(|s| PreAggPlan {
            agg: a.func.clone(),
            partial: s.partial.name().to_string(),
            merge: s.merge.name().to_string(),
            needs_multiply: !join_on_key,
        }));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::UdfProfile;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;
    use rex_rql::logical::plan_text;
    use rex_rql::SchemaCatalog;

    fn catalog() -> SchemaCatalog {
        let mut c = SchemaCatalog::new();
        c.register(
            "t",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Double)]),
        );
        c
    }

    fn filter_chain(plan: &LogicalPlan) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = plan;
        loop {
            match cur {
                LogicalPlan::Filter { input, predicate } => {
                    out.push(format!("{predicate:?}"));
                    cur = input;
                }
                LogicalPlan::Project { input, .. } => cur = input,
                _ => return out,
            }
        }
    }

    #[test]
    fn expensive_udf_filter_moves_above_cheap_comparison() {
        let reg = Registry::with_builtins();
        let mut stats = Statistics::new();
        stats.set_udf("sqrt", UdfProfile { cost_per_tuple: 500.0, selectivity: 0.99 });
        // Written with the expensive predicate first.
        let p = plan_text("SELECT a FROM t WHERE sqrt(c) > 1 AND b = 3", &catalog(), &reg).unwrap();
        let rewritten = order_filters_by_rank(p, &stats);
        let chain = filter_chain(&rewritten);
        assert_eq!(chain.len(), 2);
        // Outermost (last-applied) filter is the expensive one.
        assert!(chain[0].contains("sqrt"), "expensive predicate should apply last: {chain:?}");
        assert!(!chain[1].contains("sqrt"));
    }

    #[test]
    fn rank_ordering_preserves_results() {
        use rex_core::exec::LocalRuntime;
        use rex_core::tuple;
        use rex_rql::lower::{lower, MemTables};
        let reg = Registry::with_builtins();
        let mut stats = Statistics::new();
        stats.set_udf("sqrt", UdfProfile { cost_per_tuple: 500.0, selectivity: 0.99 });
        let p = plan_text("SELECT a FROM t WHERE sqrt(c) > 1 AND b = 3", &catalog(), &reg).unwrap();
        let rewritten = order_filters_by_rank(p.clone(), &stats);

        let mut m = MemTables::new();
        m.insert(
            "t",
            vec![
                tuple![1i64, 3i64, 4.0f64],
                tuple![2i64, 3i64, 0.25f64],
                tuple![3i64, 9i64, 9.0f64],
            ],
        );
        let run = |lp: &LogicalPlan| {
            let g = lower(lp, &m, &reg).unwrap();
            let (mut r, _) = LocalRuntime::new().run(g).unwrap();
            r.sort();
            r
        };
        assert_eq!(run(&p), run(&rewritten));
        assert_eq!(run(&p), vec![tuple![1i64]]);
    }

    #[test]
    fn composable_uda_pushes_through_any_join() {
        let reg = Registry::with_builtins();
        let aggs =
            vec![AggCall { func: "count".into(), input_cols: vec![], return_type: DataType::Int }];
        let on_key = preaggregation_plan(&aggs, &reg, true).unwrap();
        assert_eq!(
            on_key[0],
            Some(PreAggPlan {
                agg: "count".into(),
                partial: "count".into(),
                merge: "count_final".into(),
                needs_multiply: false
            })
        );
        let off_key = preaggregation_plan(&aggs, &reg, false).unwrap();
        assert!(off_key[0].as_ref().unwrap().needs_multiply);
    }

    #[test]
    fn non_composable_uda_is_never_pushed() {
        let reg = Registry::with_builtins();
        // MIN keeps a buffered bag and advertises no pre-aggregate: never
        // pushed.
        let aggs = vec![AggCall {
            func: "min".into(),
            input_cols: vec![0],
            return_type: DataType::Double,
        }];
        assert_eq!(preaggregation_plan(&aggs, &reg, true).unwrap()[0], None);
        assert_eq!(preaggregation_plan(&aggs, &reg, false).unwrap()[0], None);
    }

    #[test]
    fn avg_splits_into_partial_and_final() {
        let reg = Registry::with_builtins();
        let aggs = vec![AggCall {
            func: "avg".into(),
            input_cols: vec![1],
            return_type: DataType::Double,
        }];
        let plan = preaggregation_plan(&aggs, &reg, false).unwrap();
        let p = plan[0].as_ref().expect("avg is composable via sum+count");
        assert_eq!((p.partial.as_str(), p.merge.as_str()), ("avg_partial", "avg_final"));
    }

    #[test]
    fn limit_fuses_into_sort_as_topk() {
        let reg = Registry::with_builtins();
        let p = plan_text("SELECT a FROM t ORDER BY a DESC LIMIT 3 OFFSET 1", &catalog(), &reg)
            .unwrap();
        assert!(matches!(p, LogicalPlan::Limit { .. }));
        let fused = fuse_limit_into_sort(p);
        let LogicalPlan::Sort { fetch: Some(3), offset: 1, keys, .. } = &fused else {
            panic!("expected fused top-k, got {fused:?}");
        };
        assert!(keys[0].desc);
        // A bare LIMIT (no sort beneath) stays a Limit.
        let p = plan_text("SELECT a FROM t LIMIT 3", &catalog(), &reg).unwrap();
        assert!(matches!(fuse_limit_into_sort(p), LogicalPlan::Limit { .. }));
    }

    #[test]
    fn having_on_group_keys_pushes_below_aggregate() {
        let reg = Registry::with_builtins();
        let p = plan_text("SELECT a, count(*) FROM t GROUP BY a HAVING a > 2", &catalog(), &reg)
            .unwrap();
        let pushed = push_having_below_aggregate(p);
        let LogicalPlan::Aggregate { input, .. } = &pushed else {
            panic!("filter should vanish above the aggregate: {pushed:?}");
        };
        let LogicalPlan::Filter { predicate, .. } = input.as_ref() else {
            panic!("filter should appear below: {input:?}");
        };
        // The predicate's column is remapped from output position 0 to
        // the input's group column (a = col 0 here).
        let mut cols = Vec::new();
        predicate.referenced_columns(&mut cols);
        assert_eq!(cols, vec![0]);
    }

    #[test]
    fn having_on_aggregates_stays_above() {
        let reg = Registry::with_builtins();
        let p =
            plan_text("SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2", &catalog(), &reg)
                .unwrap();
        let rewritten = push_having_below_aggregate(p);
        assert!(matches!(rewritten, LogicalPlan::Filter { .. }), "{rewritten:?}");
    }

    #[test]
    fn having_pushdown_preserves_results() {
        use rex_core::exec::LocalRuntime;
        use rex_core::tuple;
        use rex_rql::lower::{lower, MemTables};
        let reg = Registry::with_builtins();
        let p =
            plan_text("SELECT a, sum(c) FROM t GROUP BY a HAVING a > 1", &catalog(), &reg).unwrap();
        let rewritten = push_having_below_aggregate(p.clone());
        let mut m = MemTables::new();
        m.insert(
            "t",
            vec![
                tuple![1i64, 0i64, 1.0f64],
                tuple![2i64, 0i64, 2.0f64],
                tuple![2i64, 0i64, 3.0f64],
                tuple![3i64, 0i64, 4.0f64],
            ],
        );
        let run = |lp: &LogicalPlan| {
            let g = lower(lp, &m, &reg).unwrap();
            let (mut r, _) = LocalRuntime::new().run(g).unwrap();
            r.sort();
            r
        };
        assert_eq!(run(&p), run(&rewritten));
        assert_eq!(run(&p), vec![tuple![2i64, 5.0f64], tuple![3i64, 4.0f64]]);
    }

    /// The filters directly above the first join under `plan` (through
    /// projections and filters), and that join.
    fn filters_above_join(plan: &LogicalPlan) -> (Vec<String>, &LogicalPlan) {
        let (mut above, mut cur) = (Vec::new(), plan);
        loop {
            match cur {
                LogicalPlan::Filter { input, predicate } => {
                    above.push(format!("{predicate:?}"));
                    cur = input;
                }
                LogicalPlan::Project { input, .. } => cur = input,
                join => return (above, join),
            }
        }
    }

    #[test]
    fn one_sided_filters_sink_below_plain_joins_only() {
        let reg = Registry::with_builtins();
        let mut c = catalog();
        c.register("u", Schema::of(&[("k", DataType::Int), ("d", DataType::Double)]));
        let q = "SELECT t.a FROM t, u WHERE t.a = u.k AND t.b > 1 AND u.d < 2.0 \
                 AND t.c < u.d AND sqrt(u.d) > 1.0";
        let p = plan_text(q, &c, &reg).unwrap();
        let (above, _) = filters_above_join(&p);
        assert_eq!(above.len(), 4, "{p:?}");

        let pushed = push_filters_below_joins(p.clone());
        let (above, join) = filters_above_join(&pushed);
        // The two-sided comparison and the UDF predicate stay.
        assert_eq!(above.len(), 2, "{pushed:?}");
        assert!(above.iter().any(|f| f.contains("sqrt")), "{above:?}");
        let LogicalPlan::Join { left, right, .. } = join else { panic!("{join:?}") };
        let LogicalPlan::Filter { input, predicate } = left.as_ref() else { panic!("{left:?}") };
        assert!(matches!(input.as_ref(), LogicalPlan::Scan { .. }));
        assert_eq!(format!("{predicate:?}"), "Bin(Gt, Col(1), Lit(Int(1)))");
        // u.d is column 4 of the join's output and column 1 of u.
        let LogicalPlan::Filter { predicate, .. } = right.as_ref() else { panic!("{right:?}") };
        assert_eq!(format!("{predicate:?}"), "Bin(Lt, Col(1), Lit(Double(2.0)))");

        // A handler join's output is not left ++ right: nothing moves.
        fn mark_handler(p: &mut LogicalPlan) {
            match p {
                LogicalPlan::Join { handler, .. } => *handler = Some("h".into()),
                LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
                    mark_handler(input)
                }
                other => panic!("{other:?}"),
            }
        }
        let mut handled = p;
        mark_handler(&mut handled);
        let kept = push_filters_below_joins(handled.clone());
        assert_eq!(format!("{kept:?}"), format!("{handled:?}"));
    }

    #[test]
    fn pushed_filters_sink_through_nested_joins() {
        let reg = Registry::with_builtins();
        let mut c = catalog();
        c.register("u", Schema::of(&[("k", DataType::Int), ("d", DataType::Double)]));
        c.register("v", Schema::of(&[("k", DataType::Int)]));
        let q = "SELECT t.a FROM t, u, v WHERE t.a = u.k AND u.k = v.k AND t.b > 1 AND v.k > 2";
        let pushed = push_filters_below_joins(plan_text(q, &c, &reg).unwrap());
        let (_, outer) = filters_above_join(&pushed);
        let LogicalPlan::Join { left, right, .. } = outer else { panic!("{outer:?}") };
        // v.k > 2 (column 5 of the outer join) filters v as its column 0.
        let LogicalPlan::Filter { predicate, .. } = right.as_ref() else { panic!("{right:?}") };
        assert_eq!(format!("{predicate:?}"), "Bin(Gt, Col(0), Lit(Int(2)))");
        // t.b > 1 passes the outer join and the inner one's key filter.
        let (_, inner) = filters_above_join(left);
        let LogicalPlan::Join { left, .. } = inner else { panic!("{inner:?}") };
        assert!(matches!(left.as_ref(), LogicalPlan::Filter { .. }), "{pushed:?}");
    }

    #[test]
    fn distinct_over_aggregate_output_is_eliminated() {
        let reg = Registry::with_builtins();
        let p =
            plan_text("SELECT DISTINCT a, count(*) FROM t GROUP BY a", &catalog(), &reg).unwrap();
        let rewritten = eliminate_redundant_distinct(p);
        let LogicalPlan::Aggregate { aggs, .. } = &rewritten else {
            panic!("outer DISTINCT should be gone: {rewritten:?}");
        };
        assert_eq!(aggs.len(), 1, "only the real aggregate remains");
        // DISTINCT over a plain scan is NOT unique input: kept.
        let p = plan_text("SELECT DISTINCT a FROM t", &catalog(), &reg).unwrap();
        let kept = eliminate_redundant_distinct(p);
        let LogicalPlan::Aggregate { aggs, .. } = &kept else { panic!("{kept:?}") };
        assert!(aggs.is_empty());
    }
}
