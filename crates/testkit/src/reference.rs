//! A deliberately naive evaluator over [`LogicalPlan`] — the independent
//! reference the engine sweeps compare against.
//!
//! It shares nothing with the dataflow executor: no operators, no batch
//! forms, no hash tables, no threads. Joins are nested loops, groups live
//! in a `BTreeMap`, expressions go through the row-at-a-time
//! [`Expr::eval`](rex::core::expr::Expr::eval) interpreter, and ordering
//! is a plain comparison sort. Only non-recursive, handler-free plans
//! over the built-in `count`/`sum`/`min`/`max`/`avg` are supported;
//! anything else is an error rather than a guess.
//!
//! Sums are accumulated in input order, so callers wanting *exact*
//! agreement with an engine that sums in another order (threads, shards,
//! workers) must keep the fixture's doubles dyadic — [`crate::tkd_row`]
//! does.

use rex::core::error::{Result as RexResult, RexError};
use rex::core::expr::Expr;
use rex::core::tuple::Tuple;
use rex::core::udf::Registry;
use rex::core::value::Value;
use rex::rql::logical::{AggCall, LogicalPlan, SortKey};
use rex::storage::catalog::Catalog;
use std::collections::BTreeMap;

type Result<T> = std::result::Result<T, String>;

/// Evaluate `plan` over the tables in `store`, returning rows in the
/// session's presentation order: the plan's `ORDER BY` order when its
/// root has one (ties by full row), total row order otherwise.
pub fn evaluate(plan: &LogicalPlan, store: &Catalog, reg: &Registry) -> Result<Vec<Tuple>> {
    let mut rows = eval(plan, store, reg)?;
    if !ordered(plan) {
        rows.sort();
    }
    Ok(rows)
}

/// Whether `eval` returns `plan`'s rows already in their final order
/// (a `LIMIT` selects, and so leaves, its rows in order).
fn ordered(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. })
}

/// Row-at-a-time projection of `t` through `exprs`.
fn project(exprs: &[Expr], t: &Tuple, reg: &Registry) -> Result<Tuple> {
    let vals: RexResult<Vec<Value>> = exprs.iter().map(|e| e.eval(t, reg)).collect();
    vals.map(Tuple::new).map_err(|e| e.to_string())
}

fn eval(plan: &LogicalPlan, store: &Catalog, reg: &Registry) -> Result<Vec<Tuple>> {
    let err = |e: RexError| e.to_string();
    match plan {
        LogicalPlan::Scan { table, .. } => Ok(store.get(table).map_err(err)?.rows().to_vec()),
        LogicalPlan::Filter { input, predicate } => {
            let mut out = Vec::new();
            for t in eval(input, store, reg)? {
                // SQL WHERE: NULL is not true.
                if predicate.eval(&t, reg).map_err(err)? == Value::Bool(true) {
                    out.push(t);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            eval(input, store, reg)?.iter().map(|t| project(exprs, t, reg)).collect()
        }
        LogicalPlan::Join { left, right, left_key, right_key, handler: None, .. } => {
            let (l, r) = (eval(left, store, reg)?, eval(right, store, reg)?);
            let mut out = Vec::new();
            for lt in &l {
                for rt in &r {
                    if left_key.iter().zip(right_key).all(|(&lc, &rc)| lt.get(lc) == rt.get(rc)) {
                        out.push(lt.concat(rt));
                    }
                }
            }
            Ok(out)
        }
        LogicalPlan::Aggregate { input, group_cols, aggs, post, .. } => {
            let mut groups: BTreeMap<Vec<Value>, Vec<Tuple>> = BTreeMap::new();
            for t in eval(input, store, reg)? {
                let key = group_cols.iter().map(|&c| t.get(c).clone()).collect();
                groups.entry(key).or_default().push(t);
            }
            let mut out = Vec::new();
            for (mut vals, members) in groups {
                for a in aggs {
                    vals.push(aggregate(a, &members)?);
                }
                let row = Tuple::new(vals);
                out.push(match post {
                    Some(exprs) => project(exprs, &row, reg)?,
                    None => row,
                });
            }
            Ok(out)
        }
        LogicalPlan::Sort { input, keys, fetch, offset } => {
            let rows = sort_by_keys(eval(input, store, reg)?, keys, reg)?;
            Ok(window(rows, *fetch, *offset))
        }
        LogicalPlan::Limit { input, fetch, offset } => {
            let mut rows = eval(input, store, reg)?;
            if !ordered(input) {
                // A bare LIMIT selects in total row order.
                rows.sort();
            }
            Ok(window(rows, Some(*fetch), *offset))
        }
        other => Err(format!("reference evaluator: unsupported plan node {other:?}")),
    }
}

/// One built-in aggregate over a group's member rows.
fn aggregate(call: &AggCall, members: &[Tuple]) -> Result<Value> {
    let arg = || -> Result<Vec<&Value>> {
        let &[c] = call.input_cols.as_slice() else {
            return Err(format!("reference evaluator: {} takes one column", call.func));
        };
        Ok(members.iter().map(|t| t.get(c)).collect())
    };
    let sum = |vals: &[&Value]| -> Result<f64> {
        vals.iter().try_fold(0.0, |acc, v| {
            v.as_double().map(|d| acc + d).ok_or(format!("{}: non-numeric input {v}", call.func))
        })
    };
    match call.func.as_str() {
        "count" => Ok(Value::Int(members.len() as i64)),
        "sum" => Ok(Value::Double(sum(&arg()?)?)),
        "avg" => Ok(Value::Double(sum(&arg()?)? / members.len() as f64)),
        "min" => Ok(arg()?.into_iter().min().cloned().unwrap_or(Value::Null)),
        "max" => Ok(arg()?.into_iter().max().cloned().unwrap_or(Value::Null)),
        other => Err(format!("reference evaluator: unsupported aggregate {other}")),
    }
}

/// `ORDER BY keys`, ties broken by the full row.
fn sort_by_keys(rows: Vec<Tuple>, keys: &[SortKey], reg: &Registry) -> Result<Vec<Tuple>> {
    let mut keyed: Vec<(Vec<Value>, Tuple)> = Vec::with_capacity(rows.len());
    for t in rows {
        let k: RexResult<Vec<Value>> = keys.iter().map(|k| k.expr.eval(&t, reg)).collect();
        keyed.push((k.map_err(|e| e.to_string())?, t));
    }
    keyed.sort_by(|(ak, at), (bk, bt)| {
        for (i, k) in keys.iter().enumerate() {
            let ord = ak[i].cmp(&bk[i]);
            let ord = if k.desc { ord.reverse() } else { ord };
            if ord.is_ne() {
                return ord;
            }
        }
        at.cmp(bt)
    });
    Ok(keyed.into_iter().map(|(_, t)| t).collect())
}

/// `OFFSET offset LIMIT fetch` over already-ordered rows.
fn window(rows: Vec<Tuple>, fetch: Option<u64>, offset: u64) -> Vec<Tuple> {
    let it = rows.into_iter().skip(offset as usize);
    match fetch {
        Some(n) => it.take(n as usize).collect(),
        None => it.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fill_tkd, session};

    #[test]
    fn hand_checked_answers() {
        let mut s = session("local");
        s.query("CREATE TABLE p (g int, v double)").unwrap();
        s.query("CREATE TABLE q (g int, name int)").unwrap();
        let row = |g: i64, v: f64| Tuple::new(vec![Value::Int(g), Value::Double(v)]);
        s.insert("p", vec![row(1, 2.0), row(2, 0.5), row(1, 4.0), row(3, 8.0)]).unwrap();
        s.insert("q", vec![Tuple::new(vec![Value::Int(1), Value::Int(10)])]).unwrap();
        let run = |sql: &str| evaluate(&s.plan(sql).unwrap(), s.store(), s.registry()).unwrap();
        assert_eq!(
            run("SELECT g, count(*), sum(v), avg(v), min(v), max(v) FROM p GROUP BY g HAVING count(*) > 1"),
            vec![Tuple::new(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Double(6.0),
                Value::Double(3.0),
                Value::Double(2.0),
                Value::Double(4.0),
            ])]
        );
        assert_eq!(
            run("SELECT p.v, q.name FROM p, q WHERE p.g = q.g AND p.v > 2.0"),
            vec![Tuple::new(vec![Value::Double(4.0), Value::Int(10)])]
        );
        assert_eq!(
            run("SELECT v FROM p ORDER BY v DESC LIMIT 2 OFFSET 1"),
            vec![Tuple::new(vec![Value::Double(4.0)]), Tuple::new(vec![Value::Double(2.0)]),]
        );
    }

    #[test]
    fn recursion_and_handlers_are_refused() {
        let mut s = session("local");
        fill_tkd(&mut s, 11);
        let plan = s
            .plan(
                "WITH r (k) AS (SELECT k FROM seed) UNION UNTIL FIXPOINT BY k (
                   SELECT d.k FROM d, r WHERE d.k = r.k)",
            )
            .unwrap();
        assert!(evaluate(&plan, s.store(), s.registry()).unwrap_err().contains("unsupported"));
    }
}
