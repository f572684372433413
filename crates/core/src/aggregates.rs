//! Built-in aggregates with full delta support.
//!
//! "The standard operators (min, max, sum, average, count) automatically
//! handle insertion, deletion, and replacement deltas" (§3.3). Each built-in
//! here is an [`AggHandler`] with one value rule
//! ([`fold_value`](AggHandler::fold_value)) for all three annotations; the
//! trait's default AGGSTATE adapts a projected delta to it. The rules
//! follow the paper's discussion:
//!
//! * **sum** subtracts on deletion and adjusts by `new − old` on
//!   replacement, so an inserted row can carry an *adjustment* to the sum
//!   (how PageRank's handler join feeds rank changes into it);
//! * **min/max** keep a count-annotated ordered multiset so that deleting
//!   the current extremum finds the next-best value in O(log n);
//! * **avg** is split into a composable sum+count pre-aggregate and a final
//!   division, mirroring the MapReduce combiner discussion.
//!
//! Every rule skips NULL inputs on `+()`, `-()` and `→(t')` alike, as SQL
//! does; `count(*)` counts rows. A group with no non-NULL input returns
//! NULL (0 for `count`).
//!
//! [`agg_split`] is the one place that pairs a composable aggregate with
//! the partial that folds rows where they are and the final that merges
//! the partials: distributed lowering combines before every exchange with
//! it.

use crate::delta::{Annotation, Delta};
use crate::error::{Result, RexError};
use crate::handlers::{AggHandler, AggState, TupleSet, ValueDelta};
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

fn scalar_result(v: Value) -> Vec<Delta> {
    vec![Delta::insert(Tuple::new(vec![v]))]
}

fn bad_state(name: &str) -> RexError {
    RexError::Exec(format!("{name}: bad state shape"))
}

/// A value an aggregate reads; `None` for NULL, which it skips.
fn present(v: Option<&Value>) -> Option<&Value> {
    v.filter(|v| !v.is_null())
}

/// Sum/avg shared value rule: `+()` adds the value and one value to the
/// count, `-()` takes them away, and a replacement adjusts the sum by
/// `new − old`. A `sum` group starts [`AggState::Empty`], is the NULL
/// value while it has folded only NULLs, and becomes a running
/// `(sum, count)` at its first non-NULL value, for good.
fn fold_sum_count(state: &mut AggState, d: ValueDelta<'_>, name: &str) -> Result<bool> {
    let (old, new) = (present(d.old), present(d.new));
    if old.is_none() && new.is_none() {
        if matches!(state, AggState::Empty) {
            *state = AggState::Value(Value::Null);
        }
        return Ok(true);
    }
    if matches!(state, AggState::Empty | AggState::Value(Value::Null)) {
        *state = AggState::SumCount(0.0, 0);
    }
    let AggState::SumCount(sum, n) = state else {
        return Err(bad_state(name));
    };
    match (old, new) {
        (Some(o), Some(v)) => *sum += numeric(v)? - numeric(o)?,
        (Some(o), None) => {
            *sum -= numeric(o)?;
            *n -= 1;
        }
        (None, Some(v)) => {
            *sum += numeric(v)?;
            *n += 1;
        }
        (None, None) => {}
    }
    Ok(true)
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
        AggState::Empty
    }

    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        fold_sum_count(state, d, "sum")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            // No row yet (a group always holds one; a bare handler may not).
            AggState::Empty => Ok(scalar_result(Value::Double(0.0))),
            AggState::Value(Value::Null) => Ok(scalar_result(Value::Null)),
            AggState::SumCount(s, n) => {
                if *n == 0 && *s == 0.0 {
                    Ok(scalar_result(Value::Double(0.0)))
                } else {
                    Ok(scalar_result(Value::Double(*s)))
                }
            }
            _ => Err(bad_state("sum")),
        }
    }

    fn composable(&self) -> bool {
        true
    }

    fn pre_aggregate(&self) -> Option<(String, String)> {
        // Partial sums are summed.
        Some(("sum".into(), "sum".into()))
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

    /// Counts the non-NULL values (every row, for `count(*)`), so a
    /// replacement moves the count only when it turns a NULL into a value
    /// or back.
    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        let AggState::Int(n) = state else {
            return Err(bad_state("count"));
        };
        let counted = |v| i64::from(present(v).is_some());
        *n += counted(d.new) - counted(d.old);
        Ok(true)
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            AggState::Int(n) => Ok(scalar_result(Value::Int(*n))),
            _ => Err(bad_state("count")),
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

    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        let AggState::Int(n) = state else {
            return Err(bad_state("count_final"));
        };
        let count = |v| present(v).map_or(Ok(0), partial_count);
        *n += count(d.new)? - count(d.old)?;
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

/// Extremum value rule: count the new value into the multiset and the old
/// one out. A replacement upserts, like `TupleSet::replace`: an old value
/// the group never held leaves only the insertion.
fn fold_extremum(state: &mut AggState, d: ValueDelta<'_>, name: &str) -> Result<bool> {
    let AggState::Multiset(m) = state else {
        return Err(bad_state(name));
    };
    if let Some(o) = present(d.old) {
        if d.new.is_none() || m.contains_key(o) {
            remove_one(m, o, name)?;
        }
    }
    if let Some(v) = present(d.new) {
        *m.entry(v.clone()).or_insert(0) += 1;
    }
    Ok(true)
}

/// The multiset's first (`min`) or last (`max`) value; `NULL` when empty.
fn extremum_result(state: &AggState, name: &str, min: bool) -> Result<Vec<Delta>> {
    match state {
        AggState::Multiset(m) => {
            let v = if min { m.keys().next() } else { m.keys().next_back() };
            Ok(scalar_result(v.cloned().unwrap_or(Value::Null)))
        }
        _ => Err(bad_state(name)),
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

    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        fold_extremum(state, d, "min")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        extremum_result(state, "min", true)
    }

    fn return_type(&self) -> DataType {
        DataType::Any
    }

    // min is composable for insert-only streams (min of mins) but the
    // buffered deletion path is not; REX treats it as non-composable so it
    // is never split around an exchange.
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

    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        fold_extremum(state, d, "max")
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

    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        fold_sum_count(state, d, "avg")
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
            _ => Err(bad_state("avg")),
        }
    }

    fn composable(&self) -> bool {
        true
    }

    fn pre_aggregate(&self) -> Option<(String, String)> {
        Some(("avg_partial".into(), "avg_final".into()))
    }
}

/// The avg pre-aggregate: produces `(sum, count)` list values that
/// `avg_final` folds. Used when an avg is split around an exchange.
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

    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        fold_sum_count(state, d, "avg_partial")
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        match state {
            AggState::SumCount(s, n) => {
                Ok(scalar_result(Value::list(vec![Value::Double(*s), Value::Int(*n)])))
            }
            _ => Err(bad_state("avg_partial")),
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

/// A partial average's `(sum, count)`.
fn partial_avg(v: &Value) -> Result<(f64, i64)> {
    let l =
        v.as_list().ok_or_else(|| RexError::Type("avg_final expects (sum,count) lists".into()))?;
    Ok((
        l.first().and_then(Value::as_double).unwrap_or(0.0),
        l.get(1).and_then(Value::as_int).unwrap_or(0),
    ))
}

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

    fn fold_value(&self, state: &mut AggState, d: ValueDelta<'_>) -> Result<bool> {
        let AggState::SumCount(sum, n) = state else {
            return Err(bad_state("avg_final"));
        };
        match (present(d.old), present(d.new)) {
            (Some(o), Some(v)) => {
                let ((os, on), (ds, dn)) = (partial_avg(o)?, partial_avg(v)?);
                *sum += ds - os;
                *n += dn - on;
            }
            (Some(o), None) => {
                let (os, on) = partial_avg(o)?;
                *sum -= os;
                *n -= on;
            }
            (None, Some(v)) => {
                let (ds, dn) = partial_avg(v)?;
                *sum += ds;
                *n += dn;
            }
            (None, None) => {}
        }
        Ok(true)
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        AvgAgg.agg_result(state)
    }
}

/// ARGMIN(id, value): "a general-purpose aggregate returning the identifier
/// with minimum value" (appendix, used by the shortest-path query).
///
/// Input tuples are `(id, value)` pairs; buffered so deletions can recover.
/// It reads two columns, so its rule is AGGSTATE on the projected delta.
pub struct ArgMinAgg;

impl AggHandler for ArgMinAgg {
    fn is_builtin(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "argmin"
    }

    fn init(&self) -> AggState {
        AggState::Tuples(TupleSet::new())
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<()> {
        let AggState::Tuples(set) = state else {
            return Err(bad_state("argmin"));
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
        Ok(())
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
            _ => Err(bad_state("argmin")),
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
    fn composable_uda_pushes_through_any_join() {
        let reg = Registry::with_builtins();
        let s = agg_split(&reg, "count").unwrap().expect("count is composable");
        assert_eq!((s.partial.name(), s.merge.name()), ("count", "count_final"));
    }

    #[test]
    fn non_composable_uda_is_never_pushed() {
        let reg = Registry::with_builtins();
        // MIN keeps a buffered bag and advertises no pre-aggregate: never
        // split.
        assert!(agg_split(&reg, "min").unwrap().is_none());
        assert!(agg_split(&reg, "max").unwrap().is_none());
    }

    #[test]
    fn avg_splits_into_partial_and_final() {
        let reg = Registry::with_builtins();
        let s = agg_split(&reg, "avg").unwrap().expect("avg is composable via sum+count");
        assert_eq!((s.partial.name(), s.merge.name()), ("avg_partial", "avg_final"));
    }

    /// A sum is NULL until it folds a non-NULL value, and from then on a
    /// number: a replacement-only group reports its running adjustment.
    #[test]
    fn sum_is_null_until_it_folds_a_value() {
        let (null, three, five) = (Value::Null, Value::Int(3), Value::Int(5));
        let h = SumAgg;
        let mut s = h.init();
        h.fold_value(&mut s, ValueDelta { old: None, new: Some(&null) }).unwrap();
        assert_eq!(result_value(&h, &s), Value::Null);
        h.fold_value(&mut s, ValueDelta { old: Some(&three), new: Some(&five) }).unwrap();
        assert_eq!(result_value(&h, &s), Value::Double(2.0));
        h.fold_value(&mut s, ValueDelta { old: Some(&five), new: Some(&three) }).unwrap();
        assert_eq!(result_value(&h, &s), Value::Double(0.0));
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
