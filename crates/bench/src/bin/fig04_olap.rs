//! Figure 4: simple aggregation over TPC-H lineitem — the UDF/UDA overhead
//! experiment.
//!
//! `SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1`
//!
//! Four configurations, as in the paper:
//! * **REX built-in** — built-in comparison predicate and aggregates;
//! * **REX UDF** — the same computation through registered user code
//!   (a scalar UDF predicate plus delegating UDAs), paying the
//!   batch-amortized dispatch overhead;
//! * **REX wrap** — the native Hadoop classes run inside REX through
//!   `MapWrap`/`ReduceWrap`, including text formatting at the boundaries;
//! * **Hadoop** — the same job on the MapReduce simulator (startup +
//!   sort-merge shuffle + DFS output).

use rex_bench::workloads;
use rex_core::delta::Delta;
use rex_core::error::Result;
use rex_core::exec::LocalRuntime;
use rex_core::handlers::{AggHandler, AggState};
use rex_core::udf::{ClosureUdf, Registry};
use rex_core::value::{DataType, Value};
use rex_data::lineitem::reference_fig4_answer;
use rex_hadoop::api::{FnMapper, FnReducer};
use rex_hadoop::job::{HadoopCluster, JobInput, MapReduceJob};
use rex_hadoop::wrap::{reduce_output_projection, MapWrap, ReduceWrap};
use rex_rql::lower::{lower, MemTables};
use rex_rql::plan_rql;
use rex_rql::SchemaCatalog;
use std::sync::Arc;

/// A user-defined SUM that delegates to the built-in logic but is *not*
/// marked builtin, so it pays the dispatch overhead (the paper's "2 UDAs").
struct UdaSum;
impl AggHandler for UdaSum {
    fn name(&self) -> &str {
        "usum"
    }
    fn init(&self) -> AggState {
        rex_core::aggregates::SumAgg.init()
    }
    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        rex_core::aggregates::SumAgg.agg_state(state, d)
    }
    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        rex_core::aggregates::SumAgg.agg_result(state)
    }
    fn return_type(&self) -> DataType {
        DataType::Double
    }
}

/// A user-defined COUNT (the second UDA).
struct UdaCount;
impl AggHandler for UdaCount {
    fn name(&self) -> &str {
        "ucount"
    }
    fn init(&self) -> AggState {
        rex_core::aggregates::CountAgg.init()
    }
    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        rex_core::aggregates::CountAgg.agg_state(state, d)
    }
    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        rex_core::aggregates::CountAgg.agg_result(state)
    }
    fn return_type(&self) -> DataType {
        DataType::Int
    }
}

fn main() {
    let n_rows = (60_000.0 * rex_bench::scale()) as usize;
    let rows = workloads::lineitem_rows(n_rows);
    let (want_sum, want_count) = reference_fig4_answer(&rows);
    println!(
        "Figure 4 — SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1 ({n_rows} rows)"
    );
    println!("reference answer: sum = {want_sum:.2}, count = {want_count}\n");

    let mut catalog = SchemaCatalog::new();
    catalog.register("lineitem", rex_data::lineitem::schema());
    let mut tables = MemTables::new();
    tables.insert("lineitem", workloads::lineitem_tuples(&rows));

    let check = |label: &str, sum: f64, count: i64| {
        assert!((sum - want_sum).abs() < 1e-6, "{label}: sum {sum} != {want_sum}");
        assert_eq!(count, want_count, "{label}: count");
    };

    // ---- REX built-in ----------------------------------------------------
    let reg = Registry::with_builtins();
    let plan = lower(
        &plan_rql("SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1", &catalog, &reg)
            .unwrap(),
        &tables,
        &reg,
    )
    .expect("builtin plan");
    let rt = LocalRuntime::new();
    let (res, rep) = rt.run(plan).expect("builtin run");
    check("built-in", res[0].get(0).as_double().unwrap(), res[0].get(1).as_int().unwrap());
    let t_builtin = rep.simulated_time;

    // ---- REX UDF ----------------------------------------------------------
    let reg = Registry::with_builtins();
    reg.register_scalar(Arc::new(ClosureUdf::new(
        "gt_one",
        vec![DataType::Int],
        DataType::Bool,
        |args| Ok(Value::Bool(args[0].as_int().unwrap_or(0) > 1)),
    )));
    reg.register_agg("usum", Arc::new(UdaSum));
    reg.register_agg("ucount", Arc::new(UdaCount));
    let plan = lower(
        &plan_rql(
            "SELECT usum(tax), ucount(tax) FROM lineitem WHERE gt_one(linenumber)",
            &catalog,
            &reg,
        )
        .unwrap(),
        &tables,
        &reg,
    )
    .expect("udf plan");
    let (res, rep) = LocalRuntime::with_registry(reg).run(plan).expect("udf run");
    check("UDF", res[0].get(0).as_double().unwrap(), res[0].get(1).as_int().unwrap());
    let t_udf = rep.simulated_time;

    // ---- the native Hadoop classes ----------------------------------------
    let mapper = FnMapper::new("Fig4Map", |_k, v, out| {
        // v is the whole row serialized as a list [linenumber, tax].
        if let Some(l) = v.as_list() {
            if l[0].as_int().unwrap_or(0) > 1 {
                out(Value::Int(0), l[1].clone());
            }
        }
    });
    let reducer = FnReducer::new("Fig4Reduce", |_k, vs, out| {
        let sum: f64 = vs.iter().filter_map(Value::as_double).sum();
        out(
            Value::str("result"),
            Value::list(vec![Value::Double(sum), Value::Int(vs.len() as i64)]),
        );
    });
    let combiner = FnReducer::new("Fig4Combine", |k, vs, out| {
        for v in vs {
            out(k.clone(), v.clone());
        }
    });

    // ---- REX wrap ----------------------------------------------------------
    {
        use rex_core::exec::PlanGraph;
        use rex_core::operators::{AggSpec, ApplyFunctionOp, GroupByOp, ScanOp, SinkOp};
        let mut g = PlanGraph::new();
        let kv_rows: Vec<rex_core::tuple::Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                rex_core::tuple::Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::list(vec![Value::Int(r.linenumber), Value::Double(r.tax)]),
                ])
            })
            .collect();
        let scan = g.add(Box::new(ScanOp::new("lineitem_kv", kv_rows)));
        let map =
            g.add(Box::new(ApplyFunctionOp::new(Arc::new(MapWrap::new(mapper.clone(), true)))));
        let gb = g.add(Box::new(GroupByOp::new(
            vec![0],
            vec![AggSpec::new(Arc::new(ReduceWrap::new(reducer.clone(), true)), vec![0, 1])],
        )));
        let strip = g.add(Box::new(reduce_output_projection()));
        let sink = g.add(Box::new(SinkOp::new()));
        g.pipe(scan, map);
        g.pipe(map, gb);
        g.pipe(gb, strip);
        g.pipe(strip, sink);
        let (res, rep) = LocalRuntime::new().run(g).expect("wrap run");
        let out = res[0].get(1).as_list().unwrap().to_vec();
        check("wrap", out[0].as_double().unwrap(), out[1].as_int().unwrap());
        let t_wrap = rep.simulated_time;

        // ---- Hadoop ---------------------------------------------------------
        let job = MapReduceJob::new("fig4", mapper, reducer).with_combiner(combiner);
        let input = JobInput::mutable(
            rows.iter()
                .enumerate()
                .map(|(i, r)| {
                    (
                        Value::Int(i as i64),
                        Value::list(vec![Value::Int(r.linenumber), Value::Double(r.tax)]),
                    )
                })
                .collect(),
        );
        let (out, m) = HadoopCluster::new(1).run_job(&job, &[input], 0);
        let l = out[0].1.as_list().unwrap();
        check("Hadoop", l[0].as_double().unwrap(), l[1].as_int().unwrap());
        let t_hadoop = m.sim_time;

        // ---- report ---------------------------------------------------------
        println!("{:<14} {:>14}  {:>10}", "configuration", "sim time", "vs built-in");
        for (label, t) in [
            ("REX built-in", t_builtin),
            ("REX UDF", t_udf),
            ("REX wrap", t_wrap),
            ("Hadoop", t_hadoop),
        ] {
            println!("{label:<14} {t:>14.1}  {:>9.2}x", t / t_builtin);
        }
        println!(
            "\nUDF overhead vs built-in: {:+.1}% (paper: ≤ 10%)",
            100.0 * (t_udf / t_builtin - 1.0)
        );
        println!("built-in speedup over Hadoop: {:.1}x (paper: > 3x)", t_hadoop / t_builtin);
        println!(
            "wrap overhead vs Hadoop-equivalent work: wrap = {:.1}, hadoop = {:.1}",
            t_wrap, t_hadoop
        );
    }
}
