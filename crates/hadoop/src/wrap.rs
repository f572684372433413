//! Executing Hadoop code in REX (§4.4): `MapWrap` / `ReduceWrap`.
//!
//! "REX allows direct use of compiled code for Hadoop by utilizing
//! specially designed table-valued 'wrapper' functions. [...] A driver
//! program for a single MapReduce job involving a map and a reduce class
//! can be expressed with the following query:
//!
//! ```sql
//! SELECT ReduceWrap('ReduceClass',
//!        MapWrap('MapClass', k, v).{k, v}).{k, v}
//! FROM InputTable GROUP BY MapWrap('MapClass', k, v).k
//! ```
//!
//! The adapters here turn a [`Mapper`] into a REX
//! [`DeltaMapper`] and a [`Reducer`] into
//! a REX [`AggHandler`], charging the text (de)serialization overhead the
//! paper attributes to the wrappers ("responsible for formatting the input
//! and output data as strings"). For recursive queries the formatting cost
//! is incurred "only once in the beginning and in the end of the query"
//! (§6.3) — [`MapWrap`] therefore only charges it when `boundary` is set.

use crate::api::{Mapper, Record, Reducer};
use rex_core::delta::Delta;
use rex_core::error::{Result, RexError};
use rex_core::handlers::{AggHandler, AggOutputKind, AggState, TupleSet};
use rex_core::operators::DeltaMapper;
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use rex_core::value::{DataType, Value};
use std::sync::Arc;

/// Convert a `(key, value)` record into a 2-ary engine tuple.
pub fn record_to_tuple(r: &Record) -> Tuple {
    Tuple::new(vec![r.0.clone(), r.1.clone()])
}

/// Convert a 2-ary engine tuple into a `(key, value)` record.
pub fn tuple_to_record(t: &Tuple) -> Result<Record> {
    if t.arity() != 2 {
        return Err(RexError::Exec(format!(
            "wrap expects (key, value) tuples, got arity {}",
            t.arity()
        )));
    }
    Ok((t.get(0).clone(), t.get(1).clone()))
}

/// The per-tuple string round-trip a wrapper performs. Modelled as a cost
/// (the value content is unchanged — Hadoop text format is lossless for our
/// value types), surfaced so tests can see that formatting "happened".
fn format_round_trip(v: &Value) -> Value {
    // Simulate serialize+parse for the scalar types Hadoop text I/O uses.
    match v {
        Value::Int(i) => Value::Int(i.to_string().parse().expect("roundtrip")),
        Value::Str(s) => Value::str(s.to_string()),
        other => other.clone(),
    }
}

/// `MapWrap('MapClass', k, v)`: runs a Hadoop [`Mapper`] as a REX
/// apply-function mapper over `(k, v)` tuples.
pub struct MapWrap {
    mapper: Arc<dyn Mapper>,
    name: String,
    /// Whether this wrapper sits at a query boundary and must pay the text
    /// formatting cost per tuple.
    boundary: bool,
}

impl MapWrap {
    /// Wrap `mapper`; `boundary` charges per-tuple formatting.
    pub fn new(mapper: Arc<dyn Mapper>, boundary: bool) -> MapWrap {
        let name = format!("MapWrap({})", mapper.name());
        MapWrap { mapper, name, boundary }
    }
}

impl DeltaMapper for MapWrap {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, d: &Delta, _reg: &Registry) -> Result<Vec<Delta>> {
        let (k, v) = tuple_to_record(&d.tuple)?;
        let (k, v) =
            if self.boundary { (format_round_trip(&k), format_round_trip(&v)) } else { (k, v) };
        let mut out = Vec::new();
        self.mapper.map(&k, &v, &mut |ok, ov| {
            out.push(d.with_tuple(Tuple::new(vec![ok, ov])));
        });
        Ok(out)
    }

    fn wrap_boundary(&self) -> bool {
        self.boundary
    }
}

/// `ReduceWrap('ReduceClass', ...)`: runs a Hadoop [`Reducer`] as a REX
/// table-valued UDA. Values buffer per grouping key; at stratum end the
/// reducer runs over the buffered bag and its records are emitted as insert
/// deltas.
///
/// Group-by prefixes table-valued results with the grouping key, so the
/// operator downstream of the group-by sees `(group_key, out_key,
/// out_value)`; wrap plans append a projection onto columns `1, 2` to
/// recover the Hadoop record shape (see
/// [`reduce_output_projection`]).
pub struct ReduceWrap {
    reducer: Arc<dyn Reducer>,
    name: String,
    boundary: bool,
}

impl ReduceWrap {
    /// Wrap `reducer`; `boundary` charges per-record formatting on output.
    pub fn new(reducer: Arc<dyn Reducer>, boundary: bool) -> ReduceWrap {
        let name = format!("ReduceWrap({})", reducer.name());
        ReduceWrap { reducer, name, boundary }
    }
}

impl AggHandler for ReduceWrap {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&self) -> AggState {
        AggState::Tuples(TupleSet::new())
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        let AggState::Tuples(set) = state else {
            return Err(RexError::Exec("ReduceWrap state must be a tuple bag".into()));
        };
        match &d.ann {
            rex_core::delta::Annotation::Insert => {
                set.insert(d.tuple.clone());
            }
            rex_core::delta::Annotation::Delete => {
                set.remove(&d.tuple);
            }
            rex_core::delta::Annotation::Replace(old) => {
                set.replace(old, d.tuple.clone());
            }
        }
        Ok(Vec::new())
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        let AggState::Tuples(set) = state else {
            return Err(RexError::Exec("ReduceWrap state must be a tuple bag".into()));
        };
        if set.is_empty() {
            return Ok(Vec::new());
        }
        // All buffered tuples share the grouping key (group-by routed them
        // here); the reducer sees the key of the first tuple and the bag of
        // values.
        let tuples = set.tuples();
        let key = tuples[0].get(0).clone();
        let values: Vec<Value> = tuples.iter().map(|t| t.get(1).clone()).collect();
        let mut out = Vec::new();
        self.reducer.reduce(&key, &values, &mut |ok, ov| {
            let (ok, ov) = if self.boundary {
                (format_round_trip(&ok), format_round_trip(&ov))
            } else {
                (ok, ov)
            };
            out.push(Delta::insert(Tuple::new(vec![ok, ov])));
        });
        Ok(out)
    }

    fn output_kind(&self) -> AggOutputKind {
        AggOutputKind::TableValued
    }

    fn return_type(&self) -> DataType {
        DataType::Any
    }
}

/// The projection that strips the group-by key prefix off `ReduceWrap`
/// output, restoring the `(key, value)` record shape.
pub fn reduce_output_projection() -> rex_core::operators::ProjectOp {
    use rex_core::expr::Expr;
    rex_core::operators::ProjectOp::new(vec![Expr::col(1), Expr::col(2)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FnMapper, FnReducer};
    use rex_core::exec::{LocalRuntime, PlanGraph};
    use rex_core::operators::{AggSpec, ApplyFunctionOp, GroupByOp, ScanOp, SinkOp};

    fn tokenizer() -> Arc<dyn Mapper> {
        FnMapper::new("tok", |_k, v, out| {
            for w in v.as_str().unwrap_or("").split_whitespace() {
                out(Value::str(w), Value::Int(1));
            }
        })
    }

    fn summer() -> Arc<dyn Reducer> {
        FnReducer::new("sum", |k, vs, out| {
            out(k.clone(), Value::Int(vs.iter().filter_map(Value::as_int).sum()));
        })
    }

    #[test]
    fn record_tuple_round_trip() {
        let r = (Value::str("a"), Value::Int(3));
        let t = record_to_tuple(&r);
        assert_eq!(tuple_to_record(&t).unwrap(), r);
        assert!(tuple_to_record(&Tuple::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn map_wrap_runs_hadoop_mapper_over_deltas() {
        let w = MapWrap::new(tokenizer(), true);
        let d = Delta::insert(Tuple::new(vec![Value::Int(0), Value::str("x y x")]));
        let out = w.map(&d, &Registry::new()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].tuple.get(0), &Value::str("x"));
        assert_eq!(out[0].tuple.get(1), &Value::Int(1));
    }

    #[test]
    fn reduce_wrap_buffers_then_reduces() {
        let w = ReduceWrap::new(summer(), false);
        let mut st = w.init();
        for v in [1i64, 2, 3] {
            let d = Delta::insert(Tuple::new(vec![Value::str("k"), Value::Int(v)]));
            assert!(w.agg_state(&mut st, &d).unwrap().is_empty());
        }
        let out = w.agg_result(&st).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple.get(1), &Value::Int(6));
        assert_eq!(w.output_kind(), AggOutputKind::TableValued);
    }

    #[test]
    fn reduce_wrap_handles_deletion_deltas() {
        let w = ReduceWrap::new(summer(), false);
        let mut st = w.init();
        let t1 = Tuple::new(vec![Value::str("k"), Value::Int(5)]);
        let t2 = Tuple::new(vec![Value::str("k"), Value::Int(7)]);
        w.agg_state(&mut st, &Delta::insert(t1.clone())).unwrap();
        w.agg_state(&mut st, &Delta::insert(t2)).unwrap();
        w.agg_state(&mut st, &Delta::delete(t1)).unwrap();
        let out = w.agg_result(&st).unwrap();
        assert_eq!(out[0].tuple.get(1), &Value::Int(7));
    }

    /// End-to-end "wrap" pipeline: the Hadoop wordcount classes run inside
    /// a REX plan — scan → MapWrap → group-by(ReduceWrap) → sink.
    #[test]
    fn wordcount_runs_inside_rex_plan() {
        let mut g = PlanGraph::new();
        let scan = g.add(Box::new(ScanOp::new(
            "input",
            vec![
                Tuple::new(vec![Value::Int(0), Value::str("a b a")]),
                Tuple::new(vec![Value::Int(1), Value::str("b c")]),
            ],
        )));
        let map = g.add(Box::new(ApplyFunctionOp::new(Arc::new(MapWrap::new(tokenizer(), true)))));
        let gb = g.add(Box::new(GroupByOp::new(
            vec![0],
            vec![AggSpec::new(Arc::new(ReduceWrap::new(summer(), true)), vec![0, 1])],
        )));
        let strip = g.add(Box::new(reduce_output_projection()));
        let sink = g.add(Box::new(SinkOp::new()));
        g.pipe(scan, map);
        g.pipe(map, gb);
        g.pipe(gb, strip);
        g.pipe(strip, sink);

        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        assert_eq!(
            results,
            vec![
                Tuple::new(vec![Value::str("a"), Value::Int(2)]),
                Tuple::new(vec![Value::str("b"), Value::Int(2)]),
                Tuple::new(vec![Value::str("c"), Value::Int(1)]),
            ]
        );
    }
}
