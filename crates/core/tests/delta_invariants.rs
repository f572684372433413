//! Randomized tests on the engine's delta invariants: incremental
//! (delta-at-a-time) evaluation must agree with batch re-evaluation for
//! every stateful operator, under arbitrary interleavings of insertions
//! and deletions. Operation streams are drawn from a seeded generator so
//! every run exercises the same case set deterministically.

use rex_core::aggregates::{CountAgg, MaxAgg, MinAgg, SumAgg};
use rex_core::delta::{Delta, ZSet};
use rex_core::handlers::AggHandler;
use rex_core::tuple::Tuple;
use rex_core::value::Value;
use std::collections::HashMap;

/// SplitMix64 — the test's deterministic case generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random operation stream: key, value, insert-or-delete.
fn ops(seed: u64) -> Vec<(i64, i64, bool)> {
    let mut s = seed;
    let len = (splitmix(&mut s) % 60) as usize;
    (0..len)
        .map(|_| {
            let k = (splitmix(&mut s) % 5) as i64;
            let v = (splitmix(&mut s) % 100) as i64 - 50;
            let insert = splitmix(&mut s) & 1 == 0;
            (k, v, insert)
        })
        .collect()
}

/// Replay an op stream against an aggregate handler, deleting only values
/// currently present (the engine never sees deletions of absent tuples
/// from its upstream state-preserving operators).
fn replay(handler: &dyn AggHandler, ops: &[(i64, i64, bool)]) -> HashMap<i64, Option<Value>> {
    let mut states: HashMap<i64, rex_core::handlers::AggState> = HashMap::new();
    let mut bags: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(k, v, insert) in ops {
        let bag = bags.entry(k).or_default();
        let st = states.entry(k).or_insert_with(|| handler.init());
        let t = Tuple::new(vec![Value::Int(v)]);
        if insert {
            bag.push(v);
            handler.agg_state(st, &Delta::insert(t)).unwrap();
        } else if let Some(pos) = bag.iter().position(|&x| x == v) {
            bag.remove(pos);
            handler.agg_state(st, &Delta::delete(t)).unwrap();
        }
    }
    states
        .into_iter()
        .map(|(k, st)| {
            let out = handler.agg_result(&st).unwrap();
            (k, out.into_iter().next().map(|d| d.tuple.get(0).clone()))
        })
        .collect()
}

/// Ground truth from the final multiset.
fn final_bags(ops: &[(i64, i64, bool)]) -> HashMap<i64, Vec<i64>> {
    let mut bags: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(k, v, insert) in ops {
        let bag = bags.entry(k).or_default();
        if insert {
            bag.push(v);
        } else if let Some(pos) = bag.iter().position(|&x| x == v) {
            bag.remove(pos);
        }
    }
    bags
}

/// SUM under arbitrary insert/delete interleavings equals the sum of
/// the surviving multiset.
#[test]
fn sum_is_incremental() {
    for case in 0..64u64 {
        let ops = ops(case * 31 + 1);
        let got = replay(&SumAgg, &ops);
        for (k, bag) in final_bags(&ops) {
            let want: i64 = bag.iter().sum();
            let v = got[&k].clone().unwrap();
            assert!(
                (v.as_double().unwrap() - want as f64).abs() < 1e-9,
                "case {case} key {k}: {v:?} != {want}"
            );
        }
    }
}

/// COUNT tracks multiset cardinality.
#[test]
fn count_is_incremental() {
    for case in 0..64u64 {
        let ops = ops(case * 57 + 2);
        let got = replay(&CountAgg, &ops);
        for (k, bag) in final_bags(&ops) {
            assert_eq!(got[&k].clone().unwrap(), Value::Int(bag.len() as i64), "case {case}");
        }
    }
}

/// MIN/MAX survive deletions of the current extremum via their buffered
/// state (§3.3's "next-smallest value" discussion).
#[test]
fn min_max_survive_extremum_deletion() {
    for case in 0..64u64 {
        let ops = ops(case * 97 + 3);
        let got_min = replay(&MinAgg, &ops);
        let got_max = replay(&MaxAgg, &ops);
        for (k, bag) in final_bags(&ops) {
            let want_min = bag.iter().min().copied();
            let want_max = bag.iter().max().copied();
            match want_min {
                Some(m) => {
                    assert_eq!(got_min[&k].clone().unwrap(), Value::Int(m), "case {case}")
                }
                None => assert!(got_min[&k].is_none() || got_min[&k] == Some(Value::Null)),
            }
            match want_max {
                Some(m) => {
                    assert_eq!(got_max[&k].clone().unwrap(), Value::Int(m), "case {case}")
                }
                None => assert!(got_max[&k].is_none() || got_max[&k] == Some(Value::Null)),
            }
        }
    }
}

mod join_props {
    use super::*;
    use rex_core::metrics::{CostModel, ExecMetrics};
    use rex_core::operators::{Event, HashJoinOp, OpCtx, Operator};
    use rex_core::udf::Registry;

    fn drive(op: &mut HashJoinOp, port: usize, deltas: Vec<Delta>) -> Vec<Delta> {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_deltas(port, deltas, &mut ctx).unwrap();
        ctx.take_output()
            .into_iter()
            .flat_map(|(_, e)| match e {
                Event::Data(d) => d,
                _ => vec![],
            })
            .collect()
    }

    fn pairs(seed: u64, max_len: u64) -> Vec<(i64, i64)> {
        let mut s = seed;
        let len = (splitmix(&mut s) % max_len) as usize;
        (0..len).map(|_| ((splitmix(&mut s) % 4) as i64, (splitmix(&mut s) % 6) as i64)).collect()
    }

    /// The pipelined join's *net* output (insert multiplicity minus
    /// delete multiplicity) equals the batch join of the surviving
    /// inputs, regardless of arrival interleaving.
    #[test]
    fn join_net_output_matches_batch() {
        for case in 0..48u64 {
            let left = pairs(case * 11 + 5, 25);
            let right = pairs(case * 13 + 7, 25);
            let interleave = splitmix(&mut (case + 17).clone());
            let mut op = HashJoinOp::new(vec![0], vec![0]);
            let mut out = Vec::new();
            let mut l = left.iter();
            let mut r = right.iter();
            let mut bits = interleave;
            loop {
                let from_left = bits & 1 == 0;
                bits = bits.rotate_right(1);
                let next =
                    if from_left { l.next().map(|x| (x, 0)) } else { r.next().map(|x| (x, 1)) };
                let Some((&(k, v), port)) = next else {
                    // Drain whichever side remains.
                    for (port, rest) in [(0, l.by_ref()), (1, r.by_ref())] {
                        for &(k, v) in rest {
                            let t = Tuple::new(vec![Value::Int(k), Value::Int(v)]);
                            out.extend(drive(&mut op, port, vec![Delta::insert(t)]));
                        }
                    }
                    break;
                };
                let t = Tuple::new(vec![Value::Int(k), Value::Int(v)]);
                out.extend(drive(&mut op, port, vec![Delta::insert(t)]));
            }
            // Batch join ground truth.
            let mut want = ZSet::new();
            for &(lk, lv) in &left {
                for &(rk, rv) in &right {
                    if lk == rk {
                        let t = Tuple::new(vec![
                            Value::Int(lk),
                            Value::Int(lv),
                            Value::Int(rk),
                            Value::Int(rv),
                        ]);
                        want.add(t, 1);
                    }
                }
            }
            assert_eq!(ZSet::from_deltas(&out), want, "case {case}");
        }
    }
}
