//! Hot-path equivalence sweeps: the allocation-free keyed state
//! ([`KeyedTable`]-backed join and group-by), the insert-only sink lane,
//! and the prefix/radix row sort must be *output-invisible* — byte-for-
//! byte the results the straightforward owned-key / comparison-sort
//! implementations produce — across random batches with duplicates,
//! deletions, and replacements.

use rex_core::col::ColumnBatch;
use rex_core::delta::{Annotation, Delta, Punctuation, ZSet};
use rex_core::expr::{BinOp, CompiledExpr, Expr};
use rex_core::hash::FxHashMap;
use rex_core::metrics::{CostModel, ExecMetrics};
use rex_core::operators::{
    AggSpec, Event, FilterOp, GroupByOp, HashJoinOp, OpCtx, Operator, ProjectOp, SinkOp,
};
use rex_core::tuple::{sort_rows, Tuple};
use rex_core::udf::Registry;
use rex_core::value::Value;
use rex_core::{aggregates::CountAgg, aggregates::SumAgg, tuple};
use std::sync::Arc;

/// SplitMix64 — deterministic seed sweeps without external dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Drive an operator with one delta batch, collecting everything it emits
/// (fast-lane row batches unified back into insert deltas).
fn drive(op: &mut dyn Operator, port: usize, deltas: Vec<Delta>) -> Vec<Delta> {
    let reg = Registry::new();
    let cost = CostModel::default();
    let mut m = ExecMetrics::default();
    let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
    op.on_deltas(port, deltas, &mut ctx).unwrap();
    ctx.take_output().into_iter().flat_map(|(_, e)| event_deltas(e)).collect()
}

/// Unify any event lane back into insert deltas (bare rows and columnar
/// batches are implicit insertions by construction).
fn event_deltas(e: Event) -> Vec<Delta> {
    match e {
        Event::Data(d) => d,
        Event::Rows(rows) => rows.into_iter().map(Delta::insert).collect(),
        Event::Cols(batch) => batch.to_rows().into_iter().map(Delta::insert).collect(),
        Event::Punct(_) => vec![],
    }
}

/// Drive an operator with one fast-lane row batch, collecting everything
/// it emits unified back into deltas.
fn drive_rows(op: &mut dyn Operator, port: usize, rows: Vec<Tuple>) -> Vec<Delta> {
    let reg = Registry::new();
    let cost = CostModel::default();
    let mut m = ExecMetrics::default();
    let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
    op.on_rows(port, rows, &mut ctx).unwrap();
    ctx.take_output().into_iter().flat_map(|(_, e)| event_deltas(e)).collect()
}

/// Drive an operator with one columnar batch, collecting everything it
/// emits unified back into deltas.
fn drive_cols(op: &mut dyn Operator, port: usize, batch: ColumnBatch) -> Vec<Delta> {
    let reg = Registry::new();
    let cost = CostModel::default();
    let mut m = ExecMetrics::default();
    let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
    op.on_cols(port, batch, &mut ctx).unwrap();
    ctx.take_output().into_iter().flat_map(|(_, e)| event_deltas(e)).collect()
}

fn punct(op: &mut dyn Operator) -> Vec<Delta> {
    let reg = Registry::new();
    let cost = CostModel::default();
    let mut m = ExecMetrics::default();
    let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
    op.on_punct(0, Punctuation::EndOfStratum(0), &mut ctx).unwrap();
    ctx.take_output()
        .into_iter()
        .flat_map(|(_, e)| match e {
            Event::Data(d) => d,
            _ => vec![],
        })
        .collect()
}

/// Emitted deltas as a Z-set, which must hold no negative weight.
fn net(deltas: &[Delta]) -> ZSet {
    let z = ZSet::from_deltas(deltas);
    assert!(z.iter().all(|(_, n)| n >= 0), "negative net multiplicity in {z:?}");
    z
}

/// A random delta against `bag` (the oracle's copy of one join side):
/// inserts duplicate heavily; deletes and replacements pick stored rows.
fn random_delta(rng: &mut Rng, bag: &mut Vec<Tuple>) -> Delta {
    let fresh = tuple![rng.range(8) as i64, rng.range(5) as i64];
    match rng.range(10) {
        0..=5 => {
            bag.push(fresh.clone());
            Delta::insert(fresh)
        }
        6..=7 if !bag.is_empty() => {
            let old = bag.swap_remove(rng.range(bag.len() as u64) as usize);
            Delta::delete(old)
        }
        8 if !bag.is_empty() => {
            let old = bag.swap_remove(rng.range(bag.len() as u64) as usize);
            bag.push(fresh.clone());
            Delta::replace(old, fresh)
        }
        _ => {
            // Deleting a row that is (probably) absent must be a no-op on
            // both the operator and the oracle.
            let ghost = tuple![99i64, rng.range(5) as i64];
            if let Some(pos) = bag.iter().position(|t| *t == ghost) {
                bag.swap_remove(pos);
            }
            Delta::delete(ghost)
        }
    }
}

/// The borrowed-key hash join's net output must equal the brute-force
/// join of the final left/right bags, under any interleaving of inserts
/// (with duplicates), deletes (including of absent rows), and
/// replacements.
#[test]
fn keyed_join_matches_bruteforce_oracle_under_random_deltas() {
    for seed in [1u64, 42, 0xfeed, 77777] {
        let mut rng = Rng(seed);
        let mut join = HashJoinOp::new(vec![0], vec![0]);
        let (mut left, mut right): (Vec<Tuple>, Vec<Tuple>) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        for _ in 0..60 {
            let from_left = rng.range(2) == 0;
            let bag = if from_left { &mut left } else { &mut right };
            let batch: Vec<Delta> =
                (0..rng.range(6) + 1).map(|_| random_delta(&mut rng, bag)).collect();
            out.extend(drive(&mut join, usize::from(!from_left), batch));
        }
        // Brute-force join of the final bags.
        let mut expected: Vec<Tuple> = Vec::new();
        for l in &left {
            for r in &right {
                if l.get(0) == r.get(0) {
                    expected.push(l.concat(r));
                }
            }
        }
        assert_eq!(net(&out), ZSet::from_rows(expected), "seed {seed}");
    }
}

/// The keyed group-by's emitted stream (inserts then replacements) must
/// converge to exactly the per-group aggregates of the full input
/// history, for every group ever touched.
#[test]
fn keyed_group_by_matches_running_oracle_under_random_deltas() {
    for seed in [3u64, 99, 0xabcdef] {
        let mut rng = Rng(seed);
        let mut gb = GroupByOp::new(
            vec![0],
            vec![
                AggSpec::new(Arc::new(SumAgg), vec![1]),
                AggSpec::new(Arc::new(CountAgg), vec![1]),
            ],
        );
        // Oracle: per-group running (sum, count) under the same deltas.
        let mut oracle: FxHashMap<i64, (f64, i64)> = FxHashMap::default();
        let mut bag: Vec<Tuple> = Vec::new();
        let mut emitted = Vec::new();
        for _ in 0..40 {
            let batch: Vec<Delta> = (0..rng.range(5) + 1)
                .map(|_| {
                    // Inserts and deletes of stored rows only, so no group
                    // ever goes negative.
                    if rng.range(3) == 0 && !bag.is_empty() {
                        Delta::delete(bag.swap_remove(rng.range(bag.len() as u64) as usize))
                    } else {
                        let t = tuple![rng.range(4) as i64, rng.range(6) as i64];
                        bag.push(t.clone());
                        Delta::insert(t)
                    }
                })
                .collect();
            for d in &batch {
                let k = d.tuple.get(0).as_int().unwrap();
                let v = d.tuple.get(1).as_int().unwrap() as f64;
                let e = oracle.entry(k).or_insert((0.0, 0));
                match d.ann {
                    Annotation::Insert => {
                        e.0 += v;
                        e.1 += 1;
                    }
                    Annotation::Delete => {
                        e.0 -= v;
                        e.1 -= 1;
                    }
                    _ => unreachable!(),
                }
            }
            emitted.extend(drive(&mut gb, 0, batch));
            emitted.extend(punct(&mut gb));
        }
        let expected = oracle.iter().map(|(&k, &(sum, count))| tuple![k, sum, count]);
        assert_eq!(net(&emitted), ZSet::from_rows(expected), "seed {seed}");
    }
}

/// The sink's append path must produce byte-identical results to its
/// counted path on insert-only streams — whichever way the inserts arrive
/// (wrapped deltas or bare row batches).
#[test]
fn sink_lanes_agree_on_insert_only_streams() {
    for seed in [5u64, 2024] {
        let mut rng = Rng(seed);
        let mut fast = SinkOp::new();
        // Deleting an absent row changes nothing but the representation:
        // this sink counts from the start.
        let mut slow = SinkOp::new();
        drive(&mut slow, 0, vec![Delta::delete(tuple![99i64, 99i64])]);
        let mut via_rows = SinkOp::new();
        let reg = Registry::new();
        let cost = CostModel::default();
        for _ in 0..20 {
            let rows: Vec<Tuple> = (0..rng.range(40) + 1)
                .map(|_| tuple![rng.range(9) as i64, rng.range(3) as i64])
                .collect();
            let deltas: Vec<Delta> = rows.iter().cloned().map(Delta::insert).collect();
            let mut m = ExecMetrics::default();
            let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
            fast.on_deltas(0, deltas.clone(), &mut ctx).unwrap();
            slow.on_deltas(0, deltas, &mut ctx).unwrap();
            via_rows.on_rows(0, rows, &mut ctx).unwrap();
        }
        let f = fast.take_results();
        assert_eq!(f, slow.take_results(), "seed {seed}: append vs counted");
        assert_eq!(f, via_rows.take_results(), "seed {seed}: delta vs row batches");
    }
}

/// The prefix/radix sort must order exactly like the comparison sort, on
/// mixed-type first columns (nulls, bools, cross-type numerics, strings
/// sharing prefixes) and on both sides of the radix size threshold.
#[test]
fn sort_rows_matches_comparison_sort_on_mixed_types() {
    for seed in [9u64, 31337, 424242] {
        for n in [0usize, 1, 57, 800, 5000, 9000] {
            let mut rng = Rng(seed);
            let rows: Vec<Tuple> = (0..n)
                .map(|_| {
                    let first = match rng.range(6) {
                        0 => Value::Null,
                        1 => Value::Bool(rng.range(2) == 0),
                        2 => Value::Int(rng.range(50) as i64 - 25),
                        3 => Value::Double(rng.range(500) as f64 * 0.1 - 25.0),
                        4 => Value::str(format!("s{}", rng.range(30))),
                        _ => Value::str("s1x"), // shares a prefix with s1*
                    };
                    Tuple::new(vec![first, Value::Int(rng.range(7) as i64)])
                })
                .collect();
            let mut fast = rows.clone();
            sort_rows(&mut fast);
            let mut slow = rows;
            slow.sort_unstable();
            assert_eq!(fast, slow, "seed {seed}, n {n}");
        }
    }
}

/// The three physical lanes through the stateless operators — wrapped
/// deltas, bare row batches, and columnar batches — must be *output
/// identical* (same rows, same order) on insert-only streams: the lane a
/// plan picks is an execution detail, never an answer change.
#[test]
fn filter_project_lanes_are_output_identical() {
    for seed in [11u64, 29, 47, 0xc01d] {
        let mut rng = Rng(seed);
        let pred = Expr::col(1).bin(BinOp::Gt, Expr::lit(Value::Int(2)));
        let exprs = vec![Expr::col(1), Expr::col(0).bin(BinOp::Mul, Expr::col(1)), Expr::col(2)];
        let mut f = (FilterOp::new(pred.clone()), FilterOp::new(pred.clone()), FilterOp::new(pred));
        let mut p =
            (ProjectOp::new(exprs.clone()), ProjectOp::new(exprs.clone()), ProjectOp::new(exprs));
        for round in 0..30 {
            let rows: Vec<Tuple> = (0..rng.range(20) + 1)
                .map(|_| {
                    tuple![rng.range(8) as i64, rng.range(6) as i64, rng.range(40) as f64 * 0.25]
                })
                .collect();
            let batch = ColumnBatch::try_from_rows(rows.clone()).expect("uniform arity");
            let deltas: Vec<Delta> = rows.iter().cloned().map(Delta::insert).collect();

            let via_data = drive(&mut f.0, 0, deltas.clone());
            assert_eq!(via_data, drive_rows(&mut f.1, 0, rows.clone()), "seed {seed} r{round}");
            assert_eq!(via_data, drive_cols(&mut f.2, 0, batch.clone()), "seed {seed} r{round}");

            let via_data = drive(&mut p.0, 0, deltas);
            assert_eq!(via_data, drive_rows(&mut p.1, 0, rows), "seed {seed} r{round}");
            assert_eq!(via_data, drive_cols(&mut p.2, 0, batch), "seed {seed} r{round}");
        }
    }
}

/// The join's batched row-lane probe loop (hash-all-first + prefetch) and
/// the group-by's row-lane fold must converge to the same net output as
/// the general delta path, with batch sizes straddling the batching
/// threshold so both the scalar and the batched inner loops run.
#[test]
fn join_group_row_lane_matches_delta_lane_across_batch_sizes() {
    for seed in [17u64, 83, 0xbeef] {
        let mut rng = Rng(seed);
        let mut jd = HashJoinOp::new(vec![0], vec![0]);
        let mut jr = HashJoinOp::new(vec![0], vec![0]);
        let specs = || {
            vec![AggSpec::new(Arc::new(SumAgg), vec![1]), AggSpec::new(Arc::new(CountAgg), vec![1])]
        };
        let mut gd = GroupByOp::new(vec![0], specs());
        let mut gr = GroupByOp::new(vec![0], specs());
        let (mut net_d, mut net_r, mut grp_d, mut grp_r) = (vec![], vec![], vec![], vec![]);
        for _ in 0..40 {
            // 1..=16 rows: below and above the join's batch threshold.
            let rows: Vec<Tuple> = (0..rng.range(16) + 1)
                .map(|_| tuple![rng.range(5) as i64, rng.range(7) as i64])
                .collect();
            let deltas: Vec<Delta> = rows.iter().cloned().map(Delta::insert).collect();
            let port = rng.range(2) as usize;
            net_d.extend(drive(&mut jd, port, deltas.clone()));
            net_r.extend(drive_rows(&mut jr, port, rows.clone()));
            grp_d.extend(drive(&mut gd, 0, deltas));
            grp_r.extend(drive_rows(&mut gr, 0, rows));
        }
        assert_eq!(net(&net_d), net(&net_r), "seed {seed}: join lanes diverge");
        grp_d.extend(punct(&mut gd));
        grp_r.extend(punct(&mut gr));
        assert_eq!(net(&grp_d), net(&grp_r), "seed {seed}: group lanes diverge");
    }
}

/// Int/Double keys that compare equal must land in the same keyed-state
/// bucket whichever spelling arrives first (the cross-type hashing
/// guarantee the borrowed-key probes inherit from `Value`).
#[test]
fn cross_type_numeric_join_keys_meet_in_one_bucket() {
    let mut join = HashJoinOp::new(vec![0], vec![0]);
    drive(&mut join, 0, vec![Delta::insert(tuple![2i64, "l"])]);
    let out = drive(&mut join, 1, vec![Delta::insert(tuple![2.0f64, "r"])]);
    assert_eq!(out, vec![Delta::insert(tuple![2i64, "l", 2.0f64, "r"])]);
}

/// One random 5-column row for the column-lane sweeps. Column 0 is the
/// varying key: Int with NULLs (`shape` 0), or Int and Double values that
/// compare equal mixed in one column (`shape` 1, a `Generic` column).
/// Column 1 is an Int with NULLs, column 2 a dyadic Double, column 3 a
/// short string, column 4 a NULL-free Int.
fn lane_row(rng: &mut Rng, shape: u64) -> Tuple {
    let key = match (shape, rng.range(6)) {
        (0, 0) => Value::Null,
        (0, r) => Value::Int(r as i64 % 4),
        (_, r) if r % 2 == 0 => Value::Double((r % 4) as f64),
        (_, r) => Value::Int((r % 4) as i64),
    };
    let int_or_null =
        if rng.range(4) == 0 { Value::Null } else { Value::Int(rng.range(9) as i64 - 4) };
    Tuple::new(vec![
        key,
        int_or_null,
        Value::Double(rng.range(64) as f64 * 0.25),
        Value::str(["x", "y", "zz"][rng.range(3) as usize]),
        Value::Int(rng.range(5) as i64),
    ])
}

/// One insert batch in all three forms: the selection of the column batch
/// keeps the rows whose column 4 is below `keep_below` (5 keeps all, 0
/// none), and the rows and deltas are exactly the selected rows.
fn three_forms(rows: &[Tuple], keep_below: i64) -> (Vec<Delta>, Vec<Tuple>, ColumnBatch) {
    let reg = Registry::new();
    let pred = CompiledExpr::compile(&Expr::col(4).bin(BinOp::Lt, Expr::lit(keep_below)));
    let mut batch = ColumnBatch::try_from_rows(rows.to_vec()).expect("uniform arity");
    batch.filter(&pred, &reg).unwrap();
    let kept: Vec<Tuple> =
        rows.iter().filter(|t| pred.eval_predicate(t, &reg).unwrap()).cloned().collect();
    (kept.iter().cloned().map(Delta::insert).collect(), kept, batch)
}

/// Deliver end-of-stream on `port`.
fn eos(op: &mut dyn Operator, port: usize) {
    let reg = Registry::new();
    let cost = CostModel::default();
    let mut m = ExecMetrics::default();
    let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
    op.on_punct(port, Punctuation::EndOfStream, &mut ctx).unwrap();
}

/// The join emits exactly the same rows, in the same order, whether an
/// insert batch arrives as deltas, bare rows or columns: on a probe-only
/// side (insert-only inputs, opposite side ended) and on sides it stores,
/// over NULL keys, Int/Double keys meeting in one `Generic` column,
/// string keys and two-column keys, with full, partial and empty
/// selections, probing from either port.
#[test]
fn join_lanes_emit_identically_for_data_rows_and_cols() {
    // (probe key columns, stored key columns): an Int-or-NULL / mixed
    // numeric key, a string key, and both at once.
    let keys: [(Vec<usize>, Vec<usize>); 3] =
        [(vec![0], vec![0]), (vec![3], vec![1]), (vec![0, 3], vec![0, 1])];
    for seed in [7u64, 61, 0x5eed] {
        for (probe_key, stored_key) in &keys {
            for probe_port in [0usize, 1] {
                for probe_only in [true, false] {
                    let mut rng = Rng(seed);
                    let shape = rng.range(2);
                    let (lk, rk) = if probe_port == 0 {
                        (probe_key.clone(), stored_key.clone())
                    } else {
                        (stored_key.clone(), probe_key.clone())
                    };
                    let mut ops: Vec<HashJoinOp> = (0..3)
                        .map(|_| HashJoinOp::new(lk.clone(), rk.clone()).with_insert_only_inputs())
                        .collect();
                    // The stored side: (key, string, payload) rows keyed
                    // like the probe side's values, duplicates included.
                    let stored: Vec<Tuple> = (0..24)
                        .map(|i| {
                            let probe = lane_row(&mut rng, shape);
                            Tuple::new(vec![
                                probe.get(0).clone(),
                                probe.get(3).clone(),
                                Value::Int(i),
                            ])
                        })
                        .collect();
                    let stored_port = 1 - probe_port;
                    for op in &mut ops {
                        drive_rows(op, stored_port, stored.clone());
                        if probe_only {
                            eos(op, stored_port);
                        }
                    }
                    let mut emitted = 0;
                    for round in 0..12 {
                        let rows: Vec<Tuple> =
                            (0..rng.range(20) + 1).map(|_| lane_row(&mut rng, shape)).collect();
                        let (deltas, kept, batch) = three_forms(&rows, [5, 3, 0][round % 3]);
                        let via_data = drive(&mut ops[0], probe_port, deltas);
                        let ctx = format!(
                            "seed {seed} key {probe_key:?} port {probe_port} probe-only {probe_only} r{round}"
                        );
                        assert_eq!(via_data, drive_rows(&mut ops[1], probe_port, kept), "{ctx}");
                        assert_eq!(via_data, drive_cols(&mut ops[2], probe_port, batch), "{ctx}");
                        emitted += via_data.len();
                    }
                    assert!(emitted > 0, "vacuous join sweep: seed {seed} key {probe_key:?}");
                }
            }
        }
    }
}

/// The group-by emits exactly the same deltas, stratum after stratum,
/// whether its inserts arrive as deltas, bare rows or columns — for the
/// whole aggregate and for a split's partial part, over NULL, mixed
/// numeric, string and two-column keys, with `count(*)`, `count(col)`
/// over NULLs, `sum`, `min`/`max` over NULLs and `avg`, under full,
/// partial and empty selections.
#[test]
fn group_by_lanes_emit_identically_for_data_rows_and_cols() {
    use rex_core::aggregates::{agg_split, AvgAgg, MaxAgg, MinAgg};
    let reg = Registry::with_builtins();
    let whole = || {
        vec![
            AggSpec::new(Arc::new(CountAgg), vec![]),
            AggSpec::new(Arc::new(CountAgg), vec![1]),
            AggSpec::new(Arc::new(SumAgg), vec![2]),
            AggSpec::new(Arc::new(MinAgg), vec![1]),
            AggSpec::new(Arc::new(MaxAgg), vec![1]),
            AggSpec::new(Arc::new(AvgAgg), vec![2]),
        ]
    };
    let partial = || {
        [("count", vec![]), ("count", vec![1]), ("sum", vec![2]), ("avg", vec![2])]
            .into_iter()
            .map(|(f, cols)| AggSpec::new(agg_split(&reg, f).unwrap().unwrap().partial, cols))
            .collect::<Vec<_>>()
    };
    for seed in [13u64, 101, 0xface] {
        for key in [vec![0], vec![3], vec![0, 3]] {
            for split in [false, true] {
                let mut rng = Rng(seed);
                let shape = rng.range(2);
                let mut ops: Vec<GroupByOp> = (0..3)
                    .map(|_| {
                        if split {
                            GroupByOp::partial(key.clone(), partial())
                        } else {
                            GroupByOp::new(key.clone(), whole())
                        }
                    })
                    .collect();
                let mut emitted = 0;
                for stratum in 0..10 {
                    let rows: Vec<Tuple> =
                        (0..rng.range(24) + 1).map(|_| lane_row(&mut rng, shape)).collect();
                    let (deltas, kept, batch) = three_forms(&rows, [5, 2, 0][stratum % 3]);
                    let ctx = format!("seed {seed} key {key:?} split {split} s{stratum}");
                    let mut via_data = drive(&mut ops[0], 0, deltas);
                    let mut via_rows = drive_rows(&mut ops[1], 0, kept);
                    let mut via_cols = drive_cols(&mut ops[2], 0, batch);
                    via_data.extend(punct(&mut ops[0]));
                    via_rows.extend(punct(&mut ops[1]));
                    via_cols.extend(punct(&mut ops[2]));
                    assert_eq!(via_data, via_rows, "{ctx}");
                    assert_eq!(via_data, via_cols, "{ctx}");
                    emitted += via_data.len();
                }
                assert!(emitted > 0, "vacuous group-by sweep: seed {seed} key {key:?}");
            }
        }
    }
}
