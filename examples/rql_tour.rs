//! A guided tour of the complete RQL query surface — every clause from
//! `docs/RQL.md`, executed end-to-end on BOTH engines, asserting that
//! the single-node and cluster answers agree exactly.
//!
//! ```sh
//! cargo run --example rql_tour
//! ```
//!
//! Covered: `CREATE TABLE` DDL • expression-argument aggregates
//! (`SUM(price * (1 - discount) * qty)`) • `GROUP BY` + `HAVING` •
//! `SELECT DISTINCT` • `ORDER BY … LIMIT/OFFSET` (deterministic ties,
//! distributed top-k) • `CREATE MATERIALIZED VIEW` with incremental
//! DISTINCT/HAVING maintenance • a three-table FROM keyed on every join •
//! `EXPLAIN ANALYZE` showing column batches reach a join and a group-by •
//! `EXPLAIN`.

use rex::core::tuple::Tuple;
use rex::core::value::Value;
use rex::Session;

/// Build a session on the given engine with a small `sales` table,
/// created through plain RQL DDL — the same statement a script or a
/// server front-end would send.
fn open(engine: &str) -> Session {
    let mut s = if engine == "cluster" { Session::cluster(4) } else { Session::local() };
    // CREATE TABLE routes to Session::create_table: an empty stored
    // table, partitioned on its first column.
    s.query("CREATE TABLE sales (item string, price double, discount double, qty int)")
        .expect("create table");
    let row = |i: &str, p: f64, d: f64, q: i64| {
        Tuple::new(vec![Value::str(i), Value::Double(p), Value::Double(d), Value::Int(q)])
    };
    s.insert(
        "sales",
        vec![
            row("apple", 1.0, 0.00, 3),
            row("apple", 2.0, 0.50, 1),
            row("pear", 4.0, 0.25, 2),
            row("pear", 4.0, 0.25, 2),
            row("plum", 8.0, 0.00, 1),
            row("fig", 1.0, 0.00, 9),
        ],
    )
    .expect("insert");
    s
}

/// Run `sql` on both engines; panic unless the rows agree exactly
/// (including order — ORDER BY ties resolve identically everywhere).
fn both(sessions: &mut [Session], sql: &str) -> Vec<Tuple> {
    let mut out: Option<Vec<Tuple>> = None;
    for s in sessions.iter_mut() {
        let r = s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        if let Some(prev) = &out {
            assert_eq!(prev, &r.rows, "local and cluster must agree on {sql}");
        }
        out = Some(r.rows);
    }
    out.unwrap()
}

fn main() {
    let mut sessions = vec![open("local"), open("cluster")];

    // ---- Aggregates over arbitrary expressions, HAVING, top-k -----------
    // Revenue per item = Σ price·(1−discount)·qty; only items with more
    // than one sale; biggest earners first; top 2. The optimizer fuses
    // ORDER BY + LIMIT into a top-k (per-worker partial sorts gathered at
    // one node on the cluster).
    let sql = "SELECT item, sum(price * (1 - discount) * qty) AS revenue \
               FROM sales GROUP BY item \
               HAVING count(*) > 1 \
               ORDER BY revenue DESC LIMIT 2";
    println!("top revenue (multi-sale items):");
    for r in both(&mut sessions, sql) {
        println!("  {:<6} {}", r.get(0), r.get(1));
    }

    // ---- DISTINCT: a counted projection ----------------------------------
    let d = both(&mut sessions, "SELECT DISTINCT item, price FROM sales ORDER BY item, price");
    println!("\ndistinct (item, price) pairs: {}", d.len());

    // ---- LIMIT/OFFSET paging — deterministic even without ORDER BY -------
    let page1 = both(&mut sessions, "SELECT item, qty FROM sales ORDER BY qty DESC, item LIMIT 2");
    let page2 =
        both(&mut sessions, "SELECT item, qty FROM sales ORDER BY qty DESC, item LIMIT 2 OFFSET 2");
    println!("\npaged by qty: page1={page1:?}\n              page2={page2:?}");
    assert!(page1.iter().all(|r| !page2.contains(r)), "pages are disjoint");

    // ---- Materialized views: DISTINCT and HAVING maintain incrementally --
    for s in sessions.iter_mut() {
        s.query("CREATE MATERIALIZED VIEW items AS SELECT DISTINCT item FROM sales")
            .expect("distinct view");
        s.query(
            "CREATE MATERIALIZED VIEW hot AS \
             SELECT item, count(*) FROM sales GROUP BY item HAVING count(*) > 1",
        )
        .expect("having view");
        assert!(s.view_strategy("items").unwrap().contains("incremental"));
        assert!(s.view_strategy("hot").unwrap().contains("incremental"));
    }
    // A new sale updates both views by delta propagation, not recompute.
    for s in sessions.iter_mut() {
        s.insert(
            "sales",
            vec![Tuple::new(vec![
                Value::str("plum"),
                Value::Double(8.0),
                Value::Double(0.5),
                Value::Int(2),
            ])],
        )
        .expect("maintained insert");
    }
    let hot = both(&mut sessions, "SELECT * FROM hot");
    println!("\nhot items after one more plum sale: {hot:?}");

    // ---- ORDER BY/LIMIT are query-only: views refuse them ----------------
    let err = sessions[0]
        .query("CREATE MATERIALIZED VIEW top2 AS SELECT item FROM sales ORDER BY item LIMIT 2")
        .unwrap_err();
    println!("\nordered view refused as designed: {err}");

    // ---- A three-table FROM: every item joins on its key -----------------
    // Each FROM item joins the items before it on the equalities that
    // straddle the two, so no step is a cross join.
    for s in sessions.iter_mut() {
        s.query("CREATE TABLE fruit (item string, color string)").expect("create table");
        s.query("CREATE TABLE color (color string, warm int)").expect("create table");
        let pair = |a: &str, b: &str| Tuple::new(vec![Value::str(a), Value::str(b)]);
        s.insert("fruit", vec![pair("apple", "red"), pair("pear", "green"), pair("plum", "red")])
            .expect("insert");
        let shade = |c: &str, w: i64| Tuple::new(vec![Value::str(c), Value::Int(w)]);
        s.insert("color", vec![shade("red", 1), shade("green", 0)]).expect("insert");
    }
    let three = "SELECT sales.item, sales.qty, color.warm FROM sales, fruit, color \
                 WHERE sales.item = fruit.item AND fruit.color = color.color";
    let joined = both(&mut sessions, three);
    println!("\nsales joined through fruit to color: {joined:?}");
    assert_eq!(joined.len(), 6, "two sales each of apple, pear and plum; fig has no color");
    let plan = sessions[0].explain(three).expect("explain");
    assert!(!plan.contains("Join on []=[]"), "no cross join in\n{plan}");

    // ---- EXPLAIN ANALYZE: the column lane reaches joins and group-bys ----
    // `sales` probes the stored `fruit` rows as column batches, and the
    // group-by folds the joined columns; each operator's `cols=` line
    // counts the column batches it ran on, so a silent fallback to rows
    // fails here.
    let analyzed = sessions[0]
        .query(
            "EXPLAIN ANALYZE SELECT fruit.color, count(*), sum(sales.qty) \
             FROM sales, fruit WHERE sales.item = fruit.item GROUP BY fruit.color",
        )
        .expect("explain analyze");
    let text: Vec<String> = analyzed.rows.iter().map(|r| r.get(0).to_string()).collect();
    let col_batches = |op: &str| -> u64 {
        let at = text.iter().position(|l| l.starts_with('#') && l.contains(op)).expect(op);
        text[at + 1..]
            .iter()
            .take_while(|l| !l.starts_with('#'))
            .find_map(|l| l.trim().strip_prefix("cols="))
            .map_or(0, |n| n.parse().expect("cols count"))
    };
    for op in ["HashJoin", "GroupBy"] {
        assert!(col_batches(op) > 0, "{op} ran on rows, not columns:\n{}", text.join("\n"));
    }
    println!("\ncolumn lane through the join and the group-by:\n{}", text.join("\n"));

    // ---- EXPLAIN: plans, rewrites, estimates, maintenance strategies -----
    let plan = sessions[0]
        .explain(
            "SELECT item, avg(price) FROM sales GROUP BY item \
             HAVING item > 'a' ORDER BY 2 DESC LIMIT 1",
        )
        .expect("explain");
    println!("\n{plan}");
}
