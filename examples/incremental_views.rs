//! Materialized views kept fresh by the delta engine.
//!
//! Creates a join+aggregate view over an orders stream, then inserts and
//! deletes rows and watches the view track the base tables without ever
//! re-running the defining query — the `+()` / `-()` deltas of each batch
//! propagate through the view's long-lived dataflow instead.
//!
//! ```sh
//! cargo run --example incremental_views
//! ```

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::Session;

fn main() {
    let mut session = Session::local();

    // ---- 1. Base tables: an orders stream and a tiny rates dimension ----
    session
        .create_table(
            "orders",
            Schema::of(&[
                ("customer", DataType::Str),
                ("region", DataType::Int),
                ("amount", DataType::Double),
            ]),
        )
        .expect("create orders");
    session
        .create_table("rates", Schema::of(&[("region", DataType::Int), ("rate", DataType::Double)]))
        .expect("create rates");

    let order =
        |c: &str, r: i64, a: f64| Tuple::new(vec![Value::str(c), Value::Int(r), Value::Double(a)]);
    session
        .insert(
            "orders",
            vec![
                order("ada", 1, 120.0),
                order("ada", 2, 80.0),
                order("grace", 1, 200.0),
                order("alan", 2, 50.0),
            ],
        )
        .expect("insert orders");
    session
        .insert(
            "rates",
            vec![
                Tuple::new(vec![Value::Int(1), Value::Double(1.10)]),
                Tuple::new(vec![Value::Int(2), Value::Double(1.25)]),
            ],
        )
        .expect("insert rates");

    // ---- 2. CREATE MATERIALIZED VIEW: join + aggregate -------------------
    // EXPLAIN first: the session reports the maintenance strategy it will
    // pick (incremental here; a recursion whose step aggregates would say
    // "full recompute").
    let ddl = "CREATE MATERIALIZED VIEW spend AS
        SELECT customer, count(*), sum(taxed) FROM
          (SELECT o.customer AS customer, o.amount * r.rate AS taxed
           FROM orders o, rates r WHERE o.region = r.region) t
        GROUP BY customer";
    println!("{}", session.explain(ddl).expect("explain ddl"));
    session.query(ddl).expect("create view");

    let show = |session: &mut Session, when: &str| {
        let rows = session.query("SELECT * FROM spend").expect("scan view").rows;
        println!("spend per customer {when}:");
        for row in &rows {
            println!("  {:<6} orders={} taxed={:.2}", row.get(0), row.get(1), row.get(2));
        }
    };
    show(&mut session, "after creation");

    // ---- 3. Inserts and deletes maintain the view, not recompute it ------
    session
        .insert("orders", vec![order("ada", 1, 300.0), order("turing", 2, 40.0)])
        .expect("insert more");
    show(&mut session, "after two inserts (O(1) running state per touched group)");

    session.delete("orders", vec![order("alan", 2, 50.0)]).expect("delete one");
    show(&mut session, "after deleting alan's only order (group disappears)");

    let n = session.delete_where("orders", "amount > 150.0").expect("delete where");
    show(&mut session, &format!("after delete_where amount > 150.0 ({n} rows)"));

    // ---- 4. Dependency tracking guards the base tables -------------------
    let err = session.drop_table("orders").expect_err("must refuse");
    println!("\ndrop orders while the view reads it -> {err}");
    session.query("DROP VIEW spend").expect("drop view");
    session.drop_table("orders").expect("now droppable");
    println!("after DROP VIEW, the base table drops cleanly");
}
