//! §6.1 claims as assertions: UDF/UDA overhead vs built-ins on the Figure
//! 4 aggregation query, and REX's advantage over the Hadoop pipeline.

use rex::core::delta::Delta;
use rex::core::error::Result;
use rex::core::exec::LocalRuntime;
use rex::core::handlers::{AggHandler, AggState};
use rex::core::udf::{ClosureUdf, Registry};
use rex::core::value::{DataType, Value};
use rex::data::lineitem::{generate_lineitem, lineitem_tuples, reference_fig4_answer};
use rex::hadoop::api::{FnMapper, FnReducer};
use rex::hadoop::job::{HadoopCluster, JobInput, MapReduceJob};
use rex::rql::lower::{lower, MemTables};
use rex::rql::plan_rql;
use rex::rql::SchemaCatalog;
use std::sync::Arc;

struct UdaSum;
impl AggHandler for UdaSum {
    fn name(&self) -> &str {
        "usum"
    }
    fn init(&self) -> AggState {
        rex::core::aggregates::SumAgg.init()
    }
    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        rex::core::aggregates::SumAgg.agg_state(state, d)
    }
    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        rex::core::aggregates::SumAgg.agg_result(state)
    }
}

fn setup(n: usize) -> (SchemaCatalog, MemTables, Vec<rex::data::LineItem>) {
    let rows = generate_lineitem(n, 5);
    let mut catalog = SchemaCatalog::new();
    catalog.register("lineitem", rex::data::lineitem::schema());
    let mut tables = MemTables::new();
    tables.insert("lineitem", lineitem_tuples(&rows));
    (catalog, tables, rows)
}

#[test]
fn builtin_query_is_exact() {
    let (catalog, tables, rows) = setup(5_000);
    let (want_sum, want_count) = reference_fig4_answer(&rows);
    let reg = Registry::with_builtins();
    let plan = lower(
        &plan_rql("SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1", &catalog, &reg)
            .unwrap(),
        &tables,
        &reg,
    )
    .unwrap();
    let (res, _) = LocalRuntime::new().run(plan).unwrap();
    assert!((res[0].get(0).as_double().unwrap() - want_sum).abs() < 1e-9);
    assert_eq!(res[0].get(1).as_int().unwrap(), want_count);
}

/// "Both REX and REX-wrap are no more than 10% slower than their native
/// execution counterparts" — the UDF form of the query must cost at most
/// 10% more than the built-in form.
#[test]
fn udf_overhead_is_within_ten_percent() {
    let (catalog, tables, rows) = setup(10_000);
    let (want_sum, _) = reference_fig4_answer(&rows);

    let reg = Registry::with_builtins();
    let plan = lower(
        &plan_rql("SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1", &catalog, &reg)
            .unwrap(),
        &tables,
        &reg,
    )
    .unwrap();
    let (_, rep_builtin) = LocalRuntime::new().run(plan).unwrap();

    let reg = Registry::with_builtins();
    reg.register_scalar(Arc::new(ClosureUdf::new(
        "gt_one",
        vec![DataType::Int],
        DataType::Bool,
        |args| Ok(Value::Bool(args[0].as_int().unwrap_or(0) > 1)),
    )));
    reg.register_agg("usum", Arc::new(UdaSum));
    let plan = lower(
        &plan_rql(
            "SELECT usum(tax), count(*) FROM lineitem WHERE gt_one(linenumber)",
            &catalog,
            &reg,
        )
        .unwrap(),
        &tables,
        &reg,
    )
    .unwrap();
    let (res, rep_udf) = LocalRuntime::with_registry(reg).run(plan).unwrap();
    assert!((res[0].get(0).as_double().unwrap() - want_sum).abs() < 1e-9);

    let overhead = rep_udf.simulated_time / rep_builtin.simulated_time - 1.0;
    assert!(overhead >= 0.0, "UDF dispatch cannot be free: {overhead}");
    assert!(overhead <= 0.10, "UDF overhead {overhead:.3} exceeds the paper's 10% bound");
}

/// "Built-in and REX are faster than Hadoop by more than a factor of 3."
#[test]
fn rex_beats_hadoop_by_3x_on_the_olap_query() {
    let (catalog, tables, rows) = setup(20_000);
    let reg = Registry::with_builtins();
    let plan = lower(
        &plan_rql("SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1", &catalog, &reg)
            .unwrap(),
        &tables,
        &reg,
    )
    .unwrap();
    let (_, rep) = LocalRuntime::new().run(plan).unwrap();

    let mapper = FnMapper::new("m", |_k, v, out| {
        if let Some(l) = v.as_list() {
            if l[0].as_int().unwrap_or(0) > 1 {
                out(Value::Int(0), l[1].clone());
            }
        }
    });
    let reducer = FnReducer::new("r", |k, vs, out| {
        out(
            k.clone(),
            Value::list(vec![
                Value::Double(vs.iter().filter_map(Value::as_double).sum()),
                Value::Int(vs.len() as i64),
            ]),
        );
    });
    let job = MapReduceJob::new("fig4", mapper, reducer);
    let records = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                Value::Int(i as i64),
                Value::list(vec![Value::Int(r.linenumber), Value::Double(r.tax)]),
            )
        })
        .collect();
    let (out, m) = HadoopCluster::new(1).run_job(&job, &[JobInput::mutable(records)], 0);
    let (want_sum, want_count) = reference_fig4_answer(&rows);
    let l = out[0].1.as_list().unwrap();
    assert!((l[0].as_double().unwrap() - want_sum).abs() < 1e-9);
    assert_eq!(l[1].as_int().unwrap(), want_count);

    let speedup = m.sim_time / rep.simulated_time;
    assert!(speedup > 2.5, "REX should beat Hadoop by ~3x, got {speedup:.2}x");
}
