//! Built-in aggregates with full delta support.
//!
//! "The standard operators (min, max, sum, average, count) automatically
//! handle insertion, deletion, and replacement deltas" (§3.3). Each built-in
//! here is an [`AggHandler`]; the delta rules follow the paper's discussion:
//!
//! * **sum** subtracts on deletion and adjusts on replacement, so an
//!   inserted row can carry an *adjustment* to the sum (how PageRank's
//!   handler join feeds rank changes into it);
//! * **min/max** keep a count-annotated ordered multiset so that deleting
//!   the current extremum finds the next-best value in O(log n);
//! * **avg** is split into a composable sum+count pre-aggregate and a final
//!   division, mirroring the MapReduce combiner discussion.
//!
//! [`agg_split`] is the one place that pairs a composable aggregate with
//! the partial that folds rows where they are and the final that merges
//! the partials: distributed lowering combines before every exchange with
//! it, and the optimizer's pre-aggregation plan reads it.

use crate::delta::{Annotation, Delta};
use crate::error::{Result, RexError};
use crate::handlers::{AggHandler, AggState};
use crate::tuple::Tuple;
use crate::udf::Registry;
use crate::value::{DataType, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

fn numeric(v: &Value) -> Result<f64> {
    v.as_double().ok_or_else(|| {
        RexError::Type(format!("aggregate input must be numeric, got {}", v.data_type()))
    })
}

/// First attribute of the delta's tuple — built-in aggregates are unary; the
/// group-by operator projects the aggregate's input column(s) before
/// dispatching.
fn arg(d: &Delta) -> &Value {
    d.tuple.get(0)
}

fn scalar_result(v: Value) -> Vec<Delta> {
    vec![Delta::insert(Tuple::new(vec![v]))]
}

/// The input value of a unary aggregate's insert fast path.
fn unary(v: Option<&Value>) -> Result<&Value> {
    v.ok_or_else(|| RexError::Exec("aggregate needs an input column".into()))
}

/// Sum/avg shared delta rule: `+()` adds the value and one row, `-()`
/// takes them away, and `→(t')` adjusts the sum by the difference.
fn sum_count_state(state: &mut AggState, d: &Delta, name: &str) -> Result<()> {
    let AggState::SumCount(sum, n) = state else {
        return Err(RexError::Exec(format!("{name}: bad state shape")));
    };
    match &d.ann {
        Annotation::Insert => {
            *sum += numeric(arg(d))?;
            *n += 1;
        }
        Annotation::Delete => {
            *sum -= numeric(arg(d))?;
            *n -= 1;
        }
        Annotation::Replace(old) => *sum += numeric(arg(d))? - numeric(old.get(0))?,
    }
    Ok(())
}

/// Sum/avg shared insert fold: `state += value, count += 1`.
fn fold_sum_count(state: &mut AggState, v: &Value, name: &str) -> Result<bool> {
    match state {
        AggState::SumCount(sum, n) => {
            *sum += numeric(v)?;
            *n += 1;
            Ok(true)
        }
        _ => Err(RexError::Exec(format!("{name}: bad state shape"))),
    }
}

/// SUM over a numeric column.
pub struct SumAgg;

impl AggHandler for SumAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "sum"
    }

    fn init(&self) -> AggState {
        AggState::SumCount(0.0, 0)
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        sum_count_state(state, d, "sum")?;
        Ok(vec![])
    }

    fn fold_value(&self, state: &mut AggState, v: Option<&Value>) -> Result<bool> {
        fold_sum_count(state, unary(v)?, "sum")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            AggState::SumCount(s, n) => {
                if *n == 0 && *s == 0.0 {
                    Ok(scalar_result(Value::Double(0.0)))
                } else {
                    Ok(scalar_result(Value::Double(*s)))
                }
            }
            _ => Err(RexError::Exec("sum: bad state shape".into())),
        }
    }

    fn composable(&self) -> bool {
        true
    }

    fn pre_aggregate(&self) -> Option<(String, String)> {
        // Partial sums are summed.
        Some(("sum".into(), "sum".into()))
    }

    fn multiply(&self, state: &AggState, cardinality: i64) -> Option<AggState> {
        // sum scales linearly with the multiplicity of the opposite group.
        match state {
            AggState::SumCount(s, n) => {
                Some(AggState::SumCount(s * cardinality as f64, n * cardinality))
            }
            _ => None,
        }
    }
}

/// COUNT(*) / COUNT(col).
pub struct CountAgg;

impl AggHandler for CountAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "count"
    }

    fn init(&self) -> AggState {
        AggState::Int(0)
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        let n = match state {
            AggState::Int(n) => n,
            _ => return Err(RexError::Exec("count: bad state shape".into())),
        };
        match &d.ann {
            Annotation::Insert => *n += 1,
            Annotation::Delete => *n -= 1,
            Annotation::Replace(_) => {}
        }
        Ok(vec![])
    }

    fn fold_value(&self, state: &mut AggState, _v: Option<&Value>) -> Result<bool> {
        match state {
            AggState::Int(n) => {
                *n += 1;
                Ok(true)
            }
            _ => Err(RexError::Exec("count: bad state shape".into())),
        }
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            AggState::Int(n) => Ok(scalar_result(Value::Int(*n))),
            _ => Err(RexError::Exec("count: bad state shape".into())),
        }
    }

    fn return_type(&self) -> DataType {
        DataType::Int
    }

    fn composable(&self) -> bool {
        true
    }

    fn pre_aggregate(&self) -> Option<(String, String)> {
        // Partial counts are summed, as Ints.
        Some(("count".into(), "count_final".into()))
    }

    fn multiply(&self, state: &AggState, cardinality: i64) -> Option<AggState> {
        match state {
            AggState::Int(n) => Some(AggState::Int(n * cardinality)),
            _ => None,
        }
    }
}

/// Final stage for partial counts: sums its Int input, so a count split
/// around an exchange stays an Int.
pub struct CountFinalAgg;

impl AggHandler for CountFinalAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "count_final"
    }

    fn init(&self) -> AggState {
        AggState::Int(0)
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        let AggState::Int(n) = state else {
            return Err(RexError::Exec("count_final: bad state shape".into()));
        };
        match &d.ann {
            Annotation::Insert => *n += partial_count(arg(d))?,
            Annotation::Delete => *n -= partial_count(arg(d))?,
            Annotation::Replace(old) => *n += partial_count(arg(d))? - partial_count(old.get(0))?,
        }
        Ok(vec![])
    }

    fn fold_value(&self, state: &mut AggState, v: Option<&Value>) -> Result<bool> {
        let AggState::Int(n) = state else {
            return Err(RexError::Exec("count_final: bad state shape".into()));
        };
        *n += partial_count(unary(v)?)?;
        Ok(true)
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        CountAgg.agg_result(state)
    }

    fn return_type(&self) -> DataType {
        DataType::Int
    }
}

fn partial_count(v: &Value) -> Result<i64> {
    v.as_int().ok_or_else(|| RexError::Type(format!("count_final expects Int counts, got {v}")))
}

/// MIN with buffered state: "a min aggregate will take a tuple deletion
/// delta, and first determine whether the deletion affects the existing
/// minimum value. If so, it must determine the next-smallest value (which
/// needs to be in its buffered state)" (§3.3). The buffer is a
/// count-annotated ordered multiset, so inserts and deletes — deleting the
/// current minimum included — cost O(log n) and the result is its first key.
pub struct MinAgg;

/// MAX, symmetric to [`MinAgg`].
pub struct MaxAgg;

fn multiset<'s>(state: &'s mut AggState, name: &str) -> Result<&'s mut BTreeMap<Value, i64>> {
    match state {
        AggState::Multiset(m) => Ok(m),
        _ => Err(RexError::Exec(format!("{name}: bad state shape"))),
    }
}

/// Remove one occurrence of `v`. Deleting a value the group does not hold
/// is an error, not a silent no-op: it means the input stream and the
/// state have diverged.
fn remove_one(m: &mut BTreeMap<Value, i64>, v: &Value, name: &str) -> Result<()> {
    match m.get_mut(v) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            m.remove(v);
        }
        None => {
            return Err(RexError::Exec(format!(
                "{name}: deleting {v}, which the group does not hold (negative multiplicity)"
            )))
        }
    }
    Ok(())
}

/// Extremum insert fold: count the value into the multiset.
fn fold_extremum(state: &mut AggState, v: &Value, name: &str) -> Result<bool> {
    *multiset(state, name)?.entry(v.clone()).or_insert(0) += 1;
    Ok(true)
}

fn extremum_state(state: &mut AggState, d: &Delta, name: &str) -> Result<()> {
    let m = multiset(state, name)?;
    match &d.ann {
        Annotation::Insert => {}
        Annotation::Delete => return remove_one(m, arg(d), name),
        // Upsert, like `TupleSet::replace`: an old value the group never
        // held leaves only the insertion.
        Annotation::Replace(old) => {
            if m.contains_key(old.get(0)) {
                remove_one(m, old.get(0), name)?;
            }
        }
    }
    *m.entry(arg(d).clone()).or_insert(0) += 1;
    Ok(())
}

/// The multiset's first (`min`) or last (`max`) value; `NULL` when empty.
fn extremum_result(state: &AggState, name: &str, min: bool) -> Result<Vec<Delta>> {
    match state {
        AggState::Multiset(m) => {
            let v = if min { m.keys().next() } else { m.keys().next_back() };
            Ok(scalar_result(v.cloned().unwrap_or(Value::Null)))
        }
        _ => Err(RexError::Exec(format!("{name}: bad state shape"))),
    }
}

impl AggHandler for MinAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "min"
    }

    fn init(&self) -> AggState {
        AggState::Multiset(BTreeMap::new())
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        extremum_state(state, d, "min")?;
        Ok(vec![])
    }

    fn fold_value(&self, state: &mut AggState, v: Option<&Value>) -> Result<bool> {
        fold_extremum(state, unary(v)?, "min")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        extremum_result(state, "min", true)
    }

    fn return_type(&self) -> DataType {
        DataType::Any
    }

    // min is composable for insert-only streams (min of mins) but the
    // buffered deletion path is not; REX treats it as non-composable so the
    // optimizer only pushes it below key-foreign-key joins.
    fn composable(&self) -> bool {
        false
    }
}

impl AggHandler for MaxAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "max"
    }

    fn init(&self) -> AggState {
        AggState::Multiset(BTreeMap::new())
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        extremum_state(state, d, "max")?;
        Ok(vec![])
    }

    fn fold_value(&self, state: &mut AggState, v: Option<&Value>) -> Result<bool> {
        fold_extremum(state, unary(v)?, "max")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        extremum_result(state, "max", false)
    }

    fn return_type(&self) -> DataType {
        DataType::Any
    }

    fn composable(&self) -> bool {
        false
    }
}

/// AVG, "often divided into two portions: a pre-aggregate operation that
/// associates both a sum and a count with each group (called combiner in
/// MapReduce), and a final aggregate" (§3.3).
pub struct AvgAgg;

impl AggHandler for AvgAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "avg"
    }

    fn init(&self) -> AggState {
        AggState::SumCount(0.0, 0)
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        sum_count_state(state, d, "avg")?;
        Ok(vec![])
    }

    fn fold_value(&self, state: &mut AggState, v: Option<&Value>) -> Result<bool> {
        fold_sum_count(state, unary(v)?, "avg")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            AggState::SumCount(s, n) => {
                if *n == 0 {
                    Ok(scalar_result(Value::Null))
                } else {
                    Ok(scalar_result(Value::Double(s / *n as f64)))
                }
            }
            _ => Err(RexError::Exec("avg: bad state shape".into())),
        }
    }

    fn composable(&self) -> bool {
        true
    }

    fn pre_aggregate(&self) -> Option<(String, String)> {
        Some(("avg_partial".into(), "avg_final".into()))
    }

    fn multiply(&self, state: &AggState, cardinality: i64) -> Option<AggState> {
        match state {
            AggState::SumCount(s, n) => {
                Some(AggState::SumCount(s * cardinality as f64, n * cardinality))
            }
            _ => None,
        }
    }
}

/// The avg pre-aggregate: produces `(sum, count)` list values that
/// `avg_final` folds. Used when the optimizer pushes avg below a rehash.
pub struct AvgPartialAgg;

impl AggHandler for AvgPartialAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "avg_partial"
    }

    fn init(&self) -> AggState {
        AggState::SumCount(0.0, 0)
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        AvgAgg.agg_state(state, d)
    }

    fn fold_value(&self, state: &mut AggState, v: Option<&Value>) -> Result<bool> {
        fold_sum_count(state, unary(v)?, "avg_partial")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            AggState::SumCount(s, n) => {
                Ok(scalar_result(Value::list(vec![Value::Double(*s), Value::Int(*n)])))
            }
            _ => Err(RexError::Exec("avg_partial: bad state shape".into())),
        }
    }

    fn return_type(&self) -> DataType {
        DataType::List
    }

    fn composable(&self) -> bool {
        true
    }
}

/// Final stage for partial averages: input values are `(sum, count)` lists.
pub struct AvgFinalAgg;

impl AggHandler for AvgFinalAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "avg_final"
    }

    fn init(&self) -> AggState {
        AggState::SumCount(0.0, 0)
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        let (sum, n) = match state {
            AggState::SumCount(s, n) => (s, n),
            _ => return Err(RexError::Exec("avg_final: bad state shape".into())),
        };
        let l = arg(d)
            .as_list()
            .ok_or_else(|| RexError::Type("avg_final expects (sum,count) lists".into()))?;
        let (ds, dn) = (
            l.first().and_then(Value::as_double).unwrap_or(0.0),
            l.get(1).and_then(Value::as_int).unwrap_or(0),
        );
        match &d.ann {
            Annotation::Insert => {
                *sum += ds;
                *n += dn;
            }
            Annotation::Delete => {
                *sum -= ds;
                *n -= dn;
            }
            Annotation::Replace(old) => {
                let ol = old.get(0).as_list().unwrap_or(&[]).to_vec();
                let (os, on) = (
                    ol.first().and_then(Value::as_double).unwrap_or(0.0),
                    ol.get(1).and_then(Value::as_int).unwrap_or(0),
                );
                *sum += ds - os;
                *n += dn - on;
            }
        }
        Ok(vec![])
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        AvgAgg.agg_result(state)
    }
}

/// ARGMIN(id, value): "a general-purpose aggregate returning the identifier
/// with minimum value" (appendix, used by the shortest-path query).
///
/// Input tuples are `(id, value)` pairs; buffered so deletions can recover.
pub struct ArgMinAgg;

impl AggHandler for ArgMinAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "argmin"
    }

    fn init(&self) -> AggState {
        AggState::Tuples(crate::handlers::TupleSet::new())
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        let set = match state {
            AggState::Tuples(s) => s,
            _ => return Err(RexError::Exec("argmin: bad state shape".into())),
        };
        match &d.ann {
            Annotation::Insert => set.insert(d.tuple.clone()),
            Annotation::Delete => {
                set.remove(&d.tuple);
            }
            Annotation::Replace(old) => {
                set.replace(old, d.tuple.clone());
            }
        }
        Ok(vec![])
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            AggState::Tuples(s) => {
                let best = s.iter().min_by(|a, b| a.get(1).cmp(b.get(1))).cloned();
                match best {
                    Some(t) => Ok(vec![Delta::insert(t)]),
                    None => Ok(vec![]),
                }
            }
            _ => Err(RexError::Exec("argmin: bad state shape".into())),
        }
    }

    fn output_kind(&self) -> crate::handlers::AggOutputKind {
        crate::handlers::AggOutputKind::TableValued
    }
}

/// A composable aggregate split in two around an exchange (§5.2).
#[derive(Clone)]
pub struct AggSplit {
    /// Folds the rows on one side of the exchange into one partial value
    /// per group.
    pub partial: Arc<dyn AggHandler>,
    /// Folds the partial values, as insertions, into the final result.
    pub merge: Arc<dyn AggHandler>,
}

/// The partial/final pair of the aggregate registered as `func`: its
/// [`pre_aggregate`](AggHandler::pre_aggregate) names, resolved in `reg`.
/// `None` when the aggregate is not composable or names no pair, so it
/// must see every row at one place.
pub fn agg_split(reg: &Registry, func: &str) -> Result<Option<AggSplit>> {
    let handler = reg.agg(func)?;
    match handler.pre_aggregate() {
        Some((partial, merge)) if handler.composable() => {
            Ok(Some(AggSplit { partial: reg.agg(&partial)?, merge: reg.agg(&merge)? }))
        }
        _ => Ok(None),
    }
}

/// Register every built-in aggregate into `reg`.
pub fn register_builtins(reg: &Registry) {
    reg.register_agg("sum", Arc::new(SumAgg));
    reg.register_agg("count", Arc::new(CountAgg));
    reg.register_agg("count_final", Arc::new(CountFinalAgg));
    reg.register_agg("min", Arc::new(MinAgg));
    reg.register_agg("max", Arc::new(MaxAgg));
    reg.register_agg("avg", Arc::new(AvgAgg));
    reg.register_agg("avg_partial", Arc::new(AvgPartialAgg));
    reg.register_agg("avg_final", Arc::new(AvgFinalAgg));
    reg.register_agg("argmin", Arc::new(ArgMinAgg));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn result_value(h: &dyn AggHandler, s: &AggState) -> Value {
        h.agg_result(s).unwrap()[0].tuple.get(0).clone()
    }

    #[test]
    fn sum_handles_all_annotations() {
        let h = SumAgg;
        let mut s = h.init();
        h.agg_state(&mut s, &Delta::insert(tuple![10.0f64])).unwrap();
        h.agg_state(&mut s, &Delta::insert(tuple![5.0f64])).unwrap();
        assert_eq!(result_value(&h, &s), Value::Double(15.0));
        h.agg_state(&mut s, &Delta::delete(tuple![10.0f64])).unwrap();
        assert_eq!(result_value(&h, &s), Value::Double(5.0));
        h.agg_state(&mut s, &Delta::replace(tuple![5.0f64], tuple![7.0f64])).unwrap();
        assert_eq!(result_value(&h, &s), Value::Double(7.0));
    }

    #[test]
    fn count_ignores_replace() {
        let h = CountAgg;
        let mut s = h.init();
        for _ in 0..3 {
            h.agg_state(&mut s, &Delta::insert(tuple![1i64])).unwrap();
        }
        h.agg_state(&mut s, &Delta::replace(tuple![1i64], tuple![2i64])).unwrap();
        assert_eq!(result_value(&h, &s), Value::Int(3));
        h.agg_state(&mut s, &Delta::delete(tuple![1i64])).unwrap();
        assert_eq!(result_value(&h, &s), Value::Int(2));
    }

    #[test]
    fn min_recovers_next_smallest_after_deleting_minimum() {
        let h = MinAgg;
        let mut s = h.init();
        for v in [5i64, 3, 8] {
            h.agg_state(&mut s, &Delta::insert(tuple![v])).unwrap();
        }
        assert_eq!(result_value(&h, &s), Value::Int(3));
        // Delete the current minimum: buffered state recovers 5.
        h.agg_state(&mut s, &Delta::delete(tuple![3i64])).unwrap();
        assert_eq!(result_value(&h, &s), Value::Int(5));
    }

    #[test]
    fn duplicated_extremes_survive_one_delete_and_absent_deletes_fail() {
        for (h, extreme, other) in [(&MinAgg as &dyn AggHandler, 2i64, 9i64), (&MaxAgg, 9, 2)] {
            let mut s = h.init();
            for v in [extreme, extreme, other] {
                h.agg_state(&mut s, &Delta::insert(tuple![v])).unwrap();
            }
            h.agg_state(&mut s, &Delta::delete(tuple![extreme])).unwrap();
            assert_eq!(result_value(h, &s), Value::Int(extreme), "{}", h.name());
            h.agg_state(&mut s, &Delta::delete(tuple![extreme])).unwrap();
            assert_eq!(result_value(h, &s), Value::Int(other), "{}", h.name());
            let err = h.agg_state(&mut s, &Delta::delete(tuple![extreme])).unwrap_err();
            assert!(err.to_string().contains("does not hold"), "{err}");
        }
    }

    #[test]
    fn max_replacement() {
        let h = MaxAgg;
        let mut s = h.init();
        for v in [5i64, 3, 8] {
            h.agg_state(&mut s, &Delta::insert(tuple![v])).unwrap();
        }
        h.agg_state(&mut s, &Delta::replace(tuple![8i64], tuple![1i64])).unwrap();
        assert_eq!(result_value(&h, &s), Value::Int(5));
    }

    #[test]
    fn avg_and_partial_compose() {
        let h = AvgAgg;
        let mut s = h.init();
        for v in [2.0f64, 4.0] {
            h.agg_state(&mut s, &Delta::insert(tuple![v])).unwrap();
        }
        assert_eq!(result_value(&h, &s), Value::Double(3.0));

        // Two partial states merged by avg_final must equal direct avg.
        let p = AvgPartialAgg;
        let mut s1 = p.init();
        let mut s2 = p.init();
        p.agg_state(&mut s1, &Delta::insert(tuple![2.0f64])).unwrap();
        p.agg_state(&mut s2, &Delta::insert(tuple![4.0f64])).unwrap();
        let f = AvgFinalAgg;
        let mut fs = f.init();
        for part in [&s1, &s2] {
            let d = &p.agg_result(part).unwrap()[0];
            f.agg_state(&mut fs, d).unwrap();
        }
        assert_eq!(result_value(&f, &fs), Value::Double(3.0));
    }

    #[test]
    fn avg_empty_group_is_null() {
        let h = AvgAgg;
        let s = h.init();
        assert_eq!(result_value(&h, &s), Value::Null);
    }

    #[test]
    fn argmin_returns_tuple_with_smallest_value() {
        let h = ArgMinAgg;
        let mut s = h.init();
        h.agg_state(&mut s, &Delta::insert(tuple![7i64, 3.0f64])).unwrap();
        h.agg_state(&mut s, &Delta::insert(tuple![9i64, 1.0f64])).unwrap();
        let out = h.agg_result(&s).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple, tuple![9i64, 1.0f64]);
        // Deleting the winner falls back to the runner-up.
        h.agg_state(&mut s, &Delta::delete(tuple![9i64, 1.0f64])).unwrap();
        assert_eq!(h.agg_result(&s).unwrap()[0].tuple, tuple![7i64, 3.0f64]);
    }

    #[test]
    fn multiply_compensation_scales_sum_and_count() {
        let h = SumAgg;
        let s = AggState::SumCount(10.0, 2);
        let m = h.multiply(&s, 3).unwrap();
        assert_eq!(m, AggState::SumCount(30.0, 6));
        let c = CountAgg;
        assert_eq!(c.multiply(&AggState::Int(4), 3).unwrap(), AggState::Int(12));
        // min is not composable and has no multiply.
        assert!(MinAgg.multiply(&MinAgg.init(), 3).is_none());
    }

    #[test]
    fn composability_flags_match_paper() {
        assert!(SumAgg.composable());
        assert!(CountAgg.composable());
        assert!(AvgAgg.composable());
        assert!(!MinAgg.composable());
        assert!(!MaxAgg.composable());
    }
}
