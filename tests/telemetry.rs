//! End-to-end telemetry: per-operator traces, EXPLAIN ANALYZE, the
//! slow-query log, and the guarantee that turning telemetry on never
//! changes a query's answer — on both engines.

use rex::core::tuple::Tuple;
use rex::core::value::Value;
use rex::data::rng::StdRng;
use rex::Session;
use std::time::Duration;

/// Local + cluster sessions over the same random `sales` table; small
/// value domains so joins, duplicates, and group-by collisions occur.
fn sales_sessions(seed: u64) -> Vec<Session> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Tuple> = (0..60)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.gen_range(0..=5i64)),
                Value::Double(rng.gen_range(1..=4i64) as f64),
                Value::Int(rng.gen_range(1..=3i64)),
            ])
        })
        .collect();
    [Session::local(), Session::cluster(3)]
        .into_iter()
        .map(|mut s| {
            s.query("CREATE TABLE sales (item int, price double, qty int)").unwrap();
            s.insert("sales", rows.clone()).unwrap();
            s
        })
        .collect()
}

/// The query sweep traced by the tests below: scans, filters, joins,
/// aggregates, ORDER BY/LIMIT, DISTINCT.
const SWEEP: &[&str] = &[
    "SELECT item, price FROM sales WHERE qty > 1",
    "SELECT item, count(*), sum(qty) FROM sales GROUP BY item",
    "SELECT DISTINCT item FROM sales",
    "SELECT a.item, b.qty FROM sales a, sales b WHERE a.item = b.item AND a.qty < b.qty",
    "SELECT item, price * qty FROM sales ORDER BY price * qty DESC, item LIMIT 5",
];

#[test]
fn sink_rows_match_result_cardinality_on_both_engines() {
    for seed in [7u64, 99, 4096] {
        for mut s in sales_sessions(seed) {
            s.set_telemetry(true);
            for sql in SWEEP {
                let r = s.query(sql).unwrap();
                let trace = r.trace.as_ref().unwrap_or_else(|| {
                    panic!("telemetry on but no trace for {sql} on {}", r.engine)
                });
                assert_eq!(
                    trace.sink_rows() as usize,
                    r.rows.len(),
                    "seed {seed}, {sql} on {}: sink rows vs result cardinality",
                    r.engine
                );
                assert!(!trace.ops.is_empty(), "{sql}: trace has operators");
            }
        }
    }
}

#[test]
fn telemetry_toggle_is_output_invisible() {
    for seed in [13u64, 31337] {
        let mut with = sales_sessions(seed);
        let mut without = sales_sessions(seed);
        for s in with.iter_mut() {
            s.set_telemetry(true);
        }
        for sql in SWEEP {
            for (on, off) in with.iter_mut().zip(without.iter_mut()) {
                let r_on = on.query(sql).unwrap();
                let r_off = off.query(sql).unwrap();
                assert_eq!(
                    r_on.rows, r_off.rows,
                    "seed {seed}, {sql} on {}: telemetry changed the answer",
                    r_on.engine
                );
                assert!(r_on.trace.is_some(), "{sql}: telemetry on yields a trace");
                assert!(r_off.trace.is_none(), "{sql}: telemetry off yields no trace");
            }
        }
    }
}

#[test]
fn fixpoint_trace_iterations_match_query_report() {
    let recursive = "WITH reach (id) AS (SELECT src FROM edges WHERE src = 0)
        UNION UNTIL FIXPOINT BY id (
          SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id)";
    for mut s in [Session::local(), Session::cluster(3)] {
        s.set_telemetry(true);
        s.query("CREATE TABLE edges (src INT, dst INT)").unwrap();
        let chain: Vec<Tuple> =
            (0..12i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i + 1)])).collect();
        s.insert("edges", chain).unwrap();
        let r = s.query(recursive).unwrap();
        assert_eq!(r.rows.len(), 13);
        let trace = r.trace.as_ref().expect("trace for recursive query");
        assert_eq!(
            trace.iteration_deltas.len(),
            r.report.iterations(),
            "{}: trace strata vs report iterations",
            r.engine
        );
        let from_report: Vec<u64> = r.report.strata.iter().map(|st| st.delta_set_size).collect();
        assert_eq!(trace.iteration_deltas, from_report, "{}: per-stratum deltas", r.engine);
        assert_eq!(*trace.iteration_deltas.last().unwrap(), 0, "closing stratum is empty");
    }
}

#[test]
fn explain_analyze_executes_and_renders_actuals() {
    for mut s in sales_sessions(5) {
        // EXPLAIN ANALYZE forces a trace even with session telemetry off.
        let r = s.query("EXPLAIN ANALYZE SELECT item, count(*) FROM sales GROUP BY item").unwrap();
        let text: String =
            r.rows.iter().map(|t| t.get(0).as_str().unwrap().to_string() + "\n").collect();
        assert!(text.contains("== explain analyze"), "{text}");
        assert!(text.contains("actual"), "{text}");
        assert!(text.contains("rows_out="), "{text}");
        // The sink is one operator with one name; whether it stayed on
        // its append path is a counter. A one-shot group-by emits each
        // group once, at end of stream, as an insertion: no sink on
        // either engine degrades.
        assert!(!text.contains("Sink["), "{text}");
        let trace = r.trace.as_ref().expect("trace");
        let sink = trace.ops.iter().find(|o| o.name == "Sink").expect("sink in plan");
        assert_eq!(detail(sink, "degraded"), Some(0), "{text}");
        assert!(text.contains("degraded=0"), "{text}");
        // Plain EXPLAIN never executes: no trace, estimate only.
        let r = s.query("EXPLAIN SELECT item FROM sales").unwrap();
        let text: String =
            r.rows.iter().map(|t| t.get(0).as_str().unwrap().to_string() + "\n").collect();
        assert!(text.contains("== estimate =="), "{text}");
        assert!(r.trace.is_none());
    }
}

/// Look up one operator-specific detail counter by name.
fn detail(op: &rex::core::telemetry::OpStats, key: &str) -> Option<u64> {
    op.detail.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

#[test]
fn batched_lane_detail_counters_surface_in_traces() {
    // Filter batch counters on a stateless chain, on both engines:
    // `batch_rows` counts every row the filter saw in Rows/Cols batches,
    // `selectivity` the percent it kept.
    for mut s in sales_sessions(21) {
        s.set_telemetry(true);
        let r = s.query("SELECT item, price FROM sales WHERE qty > 1").unwrap();
        let engine = r.engine.clone();
        let trace = r.trace.as_ref().expect("trace");
        let filter =
            trace.ops.iter().find(|o| o.name.starts_with("Filter")).expect("filter in plan");
        assert_eq!(
            detail(filter, "batch_rows"),
            Some(60),
            "{engine}: every scanned row reaches the filter in batches"
        );
        let sel = detail(filter, "selectivity").expect("selectivity counter");
        // Cluster traces sum the per-worker percentages; each worker's
        // share stays within 0..=100.
        assert!(sel <= 100 * filter.threads, "{engine}: selectivity {sel} out of range");
    }

    // Bare rows keep going past the stateless prefix: on the shape the
    // ad hoc OLAP traffic runs most (scan → filter → group-by → having →
    // top-k) the filter and the group-by both consume row batches, not
    // deltas — no plan-level proof selects this, the scan's batches are
    // simply bare.
    let mut s = sales_sessions(21).remove(0);
    s.set_telemetry(true);
    let r = s
        .query(
            "SELECT item, count(*), sum(qty) FROM sales WHERE qty >= 1 GROUP BY item \
             HAVING count(*) > 2 ORDER BY 2 DESC LIMIT 3",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    let trace = r.trace.as_ref().expect("trace");
    for prefix in ["Filter", "GroupBy"] {
        // The first match is the scan-side operator (HAVING's filter sits
        // above the group-by and sees its deltas).
        let op = trace.ops.iter().find(|o| o.name.starts_with(prefix)).expect(prefix);
        assert!(op.lane_hits > 0, "{prefix} consumed bare batches: {}", trace.render());
        // Built-in aggregates over a scan ride the column lane: the
        // group-by folds from typed columns, and `cols` says so.
        assert!(op.cols > 0, "{prefix} consumed column batches: {}", trace.render());
    }
    let topk = trace.ops.iter().find(|o| o.name.starts_with("TopK")).expect("top-k in plan");
    assert_eq!(topk.cols, 0, "top-k sits above the group-by's deltas: {}", trace.render());

    // The batched join probe loop (hash-all-first + software prefetch)
    // runs on bare rows too, and — both inputs being scans, insert-only
    // for ever — the join stores only its build side: the side that
    // streams in after the build side's end-of-stream probes and is gone.
    let r = s
        .query("SELECT a.item, b.qty FROM sales a, sales b WHERE a.item = b.item AND a.qty < b.qty")
        .unwrap();
    let trace = r.trace.as_ref().expect("trace");
    let join = trace.ops.iter().find(|o| o.name.starts_with("HashJoin")).expect("join in plan");
    // The probe-only side arrives as columns; the stored side as rows,
    // whose tuples the build table shares.
    assert!(join.cols > 0 && join.cols < join.lane_hits, "{}", trace.render());
    let prefetches = detail(join, "prefetch_probes").expect("prefetch_probes counter");
    assert!(prefetches > 0, "batched probe loop ran: {prefetches}");
    let probes = detail(join, "hash_probes").expect("hash_probes counter");
    assert!(prefetches <= probes, "one prefetch per batched key run, at most one per probe");
    assert_eq!(detail(join, "state_rows"), Some(60), "build side only, not both inputs");
}

#[test]
fn slow_query_log_captures_over_threshold_queries() {
    let mut s = sales_sessions(8).remove(0);
    s.set_slow_query_threshold(Duration::from_secs(3600));
    s.query(SWEEP[0]).unwrap();
    assert_eq!(s.slow_queries().count(), 0, "nothing crosses an hour threshold");
    s.set_slow_query_threshold(Duration::ZERO);
    s.query(SWEEP[1]).unwrap();
    let slow: Vec<_> = s.slow_queries().collect();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].rql, SWEEP[1]);
    assert_eq!(slow[0].engine, "local");
    assert!(slow[0].rows > 0);
}
