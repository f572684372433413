//! IVM correctness: after any sequence of random insert/delete batches,
//! a materialized view's contents must equal a full recompute of its
//! defining query — on the single-node engine and on the simulated
//! cluster alike.
//!
//! This is the property the whole `rex-views` subsystem hangs on: the
//! incremental path (delta propagation through select/project/join/
//! group-by) and the oracle (re-running the defining query from scratch)
//! must agree bit-for-bit on integers and to float tolerance on sums.

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex_data::rng::StdRng;
use rex_testkit::{assert_rows_close, edges_session as make_session, random_row, SEEDS};

const VIEW_SQL: &str = "SELECT e.src, count(*), sum(w.weight) \
     FROM edges e, weights w WHERE e.dst = w.node GROUP BY e.src";

/// The seed-sweep property: N random mutation batches, view state checked
/// against full recompute after every batch.
fn seed_sweep(engine: &str, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = make_session(engine);
    // Start from a small random base so the view primes over real data.
    for table in ["edges", "weights"] {
        let rows: Vec<Tuple> = (0..12).map(|_| random_row(&mut rng, table)).collect();
        s.insert(table, rows).unwrap();
    }
    s.create_materialized_view("by_src", VIEW_SQL).unwrap();
    assert!(s.view_strategy("by_src").unwrap().contains("incremental"));

    for step in 0..10 {
        let table = if rng.gen_range(0..=1i64) == 0 { "edges" } else { "weights" };
        let deleting = rng.gen_range(0..=2i64) == 0;
        if deleting {
            // Delete up to 3 random *stored* rows so validation passes.
            let stored = s.store().get(table).unwrap().rows().to_vec();
            if !stored.is_empty() {
                let k = (rng.gen_range(1..=3i64) as usize).min(stored.len());
                let victims: Vec<Tuple> =
                    (0..k).map(|_| stored[rng.gen_range(0..stored.len())].clone()).collect();
                // Duplicate picks can exceed stored multiplicity; skip those.
                if s.delete(table, victims.clone()).is_err() {
                    s.delete(table, victims[..1].to_vec()).unwrap();
                }
            }
        } else {
            let rows: Vec<Tuple> =
                (0..rng.gen_range(1..=4i64)).map(|_| random_row(&mut rng, table)).collect();
            s.insert(table, rows).unwrap();
        }
        // The stored table engines scan is current, and sorted, as soon as
        // the write returns: no read has run in between to refresh it.
        let ctx = format!("{engine} seed {seed} step {step}");
        let stored = s.store().get("by_src").unwrap().rows().to_vec();
        assert!(stored.is_sorted(), "{ctx}: stored view rows are sorted");
        let got = s.query("SELECT * FROM by_src").unwrap().rows;
        let want = s.query(VIEW_SQL).unwrap().rows;
        assert_rows_close(&stored, &want, &format!("{ctx}: stored"));
        assert_rows_close(&got, &want, &ctx);
    }
}

#[test]
fn ivm_matches_recompute_seed_sweep_local() {
    for seed in 0..8 {
        seed_sweep("local", seed);
    }
}

#[test]
fn ivm_matches_recompute_seed_sweep_cluster() {
    for seed in 0..4 {
        seed_sweep("cluster", seed);
    }
}

#[test]
fn self_join_view_matches_recompute() {
    let sql = "SELECT a.src, b.dst FROM edges a, edges b WHERE a.dst = b.src";
    let mut rng = StdRng::seed_from_u64(7);
    let mut s = make_session("local");
    s.insert("edges", (0..10).map(|_| random_row(&mut rng, "edges")).collect()).unwrap();
    s.create_materialized_view("two_hop", sql).unwrap();
    for _ in 0..6 {
        s.insert("edges", vec![random_row(&mut rng, "edges")]).unwrap();
        let got = s.query("SELECT * FROM two_hop").unwrap().rows;
        let want = s.query(sql).unwrap().rows;
        assert_eq!(got, want, "self-join view must handle both sides delta-ing at once");
    }
}

/// A full-recompute view at the bottom of a ≥3-level cascade, reading
/// *several* delta sources (the base table directly plus a view two levels
/// up), must re-run its defining query exactly **once** per maintenance
/// pass — and only after every upstream view is final, so the single run
/// sees fully-updated state. The creation-order pass guarantees both; a
/// naive "already ran" flag would either double-run or risk reading
/// not-yet-final upstream state.
#[test]
fn recompute_fallback_runs_once_per_pass_in_deep_cascades() {
    let mut s = make_session("local");
    s.insert(
        "edges",
        vec![
            Tuple::new(vec![Value::Int(0), Value::Int(1)]),
            Tuple::new(vec![Value::Int(0), Value::Int(2)]),
            Tuple::new(vec![Value::Int(1), Value::Int(2)]),
            Tuple::new(vec![Value::Int(2), Value::Int(3)]),
        ],
    )
    .unwrap();
    // Depth 1 and 2: incremental views.
    s.create_materialized_view("fanout", "SELECT src, count(*) FROM edges GROUP BY src").unwrap();
    s.create_materialized_view("hot", "SELECT src FROM fanout WHERE count > 1").unwrap();
    // Depth 3: recursive with an aggregating (DISTINCT) step, so a full
    // recompute, reading BOTH `edges` (depth 0 source) and `hot` (depth 2
    // source).
    let best_sql = "WITH R (id) AS (SELECT src FROM hot) \
                    UNION UNTIL FIXPOINT BY id ( \
                      SELECT DISTINCT edges.dst FROM edges, R WHERE edges.src = R.id)";
    s.create_materialized_view("best", best_sql).unwrap();
    assert!(s.view_strategy("best").unwrap().contains("full recompute"));
    assert_eq!(s.views().get("best").unwrap().recomputes(), 0, "priming is not a recompute pass");
    assert_eq!(s.query("SELECT * FROM best").unwrap().rows.len(), 4); // 0,1,2,3

    // This insert changes edges AND (via the cascade) fanout and hot:
    // three delta sources feed `best` in one pass, yet it recomputes once.
    s.insert("edges", vec![Tuple::new(vec![Value::Int(1), Value::Int(4)])]).unwrap();
    assert_eq!(s.views().get("best").unwrap().recomputes(), 1, "one recompute per pass");
    // And that one run saw final upstream state: src 1 is hot now, so its
    // reachability (4) must be in the view.
    let got = s.query("SELECT * FROM best").unwrap().rows;
    let want = s.query(best_sql).unwrap().rows;
    assert_eq!(got, want);
    assert!(got.contains(&Tuple::new(vec![Value::Int(4)])), "upstream `hot` was final");

    // An insert that leaves `hot` unchanged still reaches `best` through
    // the direct edges dependency — again exactly one recompute.
    s.insert("edges", vec![Tuple::new(vec![Value::Int(7), Value::Int(6)])]).unwrap();
    assert_eq!(s.views().get("best").unwrap().recomputes(), 2);
    assert_eq!(s.query("SELECT * FROM best").unwrap().rows, s.query(best_sql).unwrap().rows);
}

/// Reachability through an aggregating (DISTINCT) step: a recursion the
/// insert-only continuation does not cover, so it recomputes.
const REACH_SQL: &str = "WITH R (id) AS (SELECT src FROM edges WHERE src < 2) \
     UNION UNTIL FIXPOINT BY id (SELECT DISTINCT edges.dst FROM edges, R WHERE edges.src = R.id)";
const REACH_WEIGHT_SQL: &str = "SELECT w.node, count(*), sum(w.weight) \
     FROM r, weights w WHERE r.id = w.node GROUP BY w.node";

/// An *incremental* view downstream of a *recompute* view: the recursive
/// (aggregating-step) `r`'s output delta must cascade into the
/// join+group-by over
/// `r ⋈ weights`, which keeps maintaining by deltas while `r` re-runs once
/// per pass that changes `edges`.
fn recompute_feeds_incremental_sweep(engine: &str, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = make_session(engine);
    for table in ["edges", "weights"] {
        let rows: Vec<Tuple> = (0..12).map(|_| random_row(&mut rng, table)).collect();
        s.insert(table, rows).unwrap();
    }
    s.create_materialized_view("r", REACH_SQL).unwrap();
    s.create_materialized_view("rw", REACH_WEIGHT_SQL).unwrap();
    assert!(s.view_strategy("r").unwrap().contains("full recompute"));
    assert!(s.view_strategy("rw").unwrap().contains("incremental"));

    let mut edge_passes = 0;
    for step in 0..12 {
        let table = if rng.gen_range(0..=1i64) == 0 { "edges" } else { "weights" };
        let stored = s.store().get(table).unwrap().rows().to_vec();
        if rng.gen_range(0..=2i64) == 0 && !stored.is_empty() {
            let victim = stored[rng.gen_range(0..stored.len())].clone();
            s.delete(table, vec![victim]).unwrap();
        } else {
            let rows: Vec<Tuple> =
                (0..rng.gen_range(1..=3i64)).map(|_| random_row(&mut rng, table)).collect();
            s.insert(table, rows).unwrap();
        }
        edge_passes += usize::from(table == "edges");
        let ctx = format!("{engine} seed {seed} step {step} ({table})");
        let got = s.query("SELECT * FROM r").unwrap().rows;
        assert_eq!(got, s.query(REACH_SQL).unwrap().rows, "{ctx}: r");
        let got = s.query("SELECT * FROM rw").unwrap().rows;
        let want = s.query(REACH_WEIGHT_SQL).unwrap().rows;
        assert_rows_close(&got, &want, &format!("{ctx}: rw"));
        assert_eq!(s.views().get("r").unwrap().recomputes(), edge_passes, "{ctx}: one per pass");
        assert_eq!(s.views().get("rw").unwrap().recomputes(), 0, "{ctx}: rw stays incremental");
    }
}

#[test]
fn incremental_view_over_recompute_view_matches_recompute() {
    for seed in 0..4 {
        recompute_feeds_incremental_sweep("local", seed);
    }
    for seed in 0..2 {
        recompute_feeds_incremental_sweep("cluster", seed);
    }
}

#[test]
fn view_on_view_cascade_matches_recompute() {
    let mut s = make_session("local");
    let mut rng = StdRng::seed_from_u64(11);
    s.insert("edges", (0..20).map(|_| random_row(&mut rng, "edges")).collect()).unwrap();
    s.create_materialized_view("fanout", "SELECT src, count(*) FROM edges GROUP BY src").unwrap();
    s.create_materialized_view("hot", "SELECT src FROM fanout WHERE count > 2").unwrap();
    for _ in 0..8 {
        s.insert("edges", vec![random_row(&mut rng, "edges")]).unwrap();
        let got = s.query("SELECT * FROM hot").unwrap().rows;
        let want = s
            .query(
                "SELECT src FROM (SELECT src, count(*) AS c FROM edges GROUP BY src) t WHERE c > 2",
            )
            .unwrap()
            .rows;
        assert_eq!(got, want, "cascaded view must track the base tables");
    }
}

/// Seed-sweep a view definition against its full-recompute oracle on both
/// engines, asserting the view maintains *incrementally* (never by the
/// recompute fallback) through random insert/delete batches on `edges`.
fn clause_view_sweep(engine: &str, seed: u64, view_sql: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = make_session(engine);
    s.insert("edges", (0..14).map(|_| random_row(&mut rng, "edges")).collect()).unwrap();
    s.create_materialized_view("v", view_sql).unwrap();
    let strategy = s.view_strategy("v").unwrap();
    assert!(strategy.contains("incremental"), "{view_sql}: {strategy}");
    let probe = s.explain(&format!("CREATE MATERIALIZED VIEW probe AS {view_sql}")).unwrap();
    assert!(
        probe.contains("probe: incremental delta propagation\n"),
        "explain should show the strategy line:\n{probe}"
    );

    for step in 0..10 {
        if rng.gen_range(0..=2i64) == 0 {
            let stored = s.store().get("edges").unwrap().rows().to_vec();
            if !stored.is_empty() {
                let victim = stored[rng.gen_range(0..stored.len())].clone();
                s.delete("edges", vec![victim]).unwrap();
            }
        } else {
            let rows: Vec<Tuple> =
                (0..rng.gen_range(1..=4i64)).map(|_| random_row(&mut rng, "edges")).collect();
            s.insert("edges", rows).unwrap();
        }
        let got = s.query("SELECT * FROM v").unwrap().rows;
        let want = s.query(view_sql).unwrap().rows;
        assert_rows_close(&got, &want, &format!("{engine} {view_sql} seed {seed} step {step}"));
    }
    assert_eq!(s.views().get("v").unwrap().recomputes(), 0, "{view_sql}: must stay incremental");
}

#[test]
fn distinct_view_matches_recompute_oracle() {
    for engine in ["local", "cluster"] {
        for seed in [3u64, 17] {
            clause_view_sweep(engine, seed, "SELECT DISTINCT dst FROM edges");
            clause_view_sweep(engine, seed, "SELECT DISTINCT src, dst FROM edges");
        }
    }
}

#[test]
fn having_view_matches_recompute_oracle() {
    for engine in ["local", "cluster"] {
        for seed in [5u64, 23] {
            clause_view_sweep(
                engine,
                seed,
                "SELECT src, count(*) FROM edges GROUP BY src HAVING count(*) > 2",
            );
            clause_view_sweep(
                engine,
                seed,
                "SELECT src, sum(dst), count(*) FROM edges GROUP BY src HAVING sum(dst) > 6",
            );
        }
    }
}

#[test]
fn expression_aggregate_view_matches_recompute_oracle() {
    for engine in ["local", "cluster"] {
        clause_view_sweep(engine, 9, "SELECT src, sum(dst * dst) FROM edges GROUP BY src");
    }
}

#[test]
fn ordered_view_definition_is_rejected_not_degraded() {
    let mut s = make_session("local");
    s.insert("edges", vec![Tuple::new(vec![Value::Int(0), Value::Int(1)])]).unwrap();
    let err = s.query("CREATE MATERIALIZED VIEW top AS SELECT src FROM edges ORDER BY src LIMIT 1");
    assert!(err.is_err(), "ORDER BY/LIMIT views must be refused");
    assert!(err.unwrap_err().to_string().contains("not view-definable"));
    assert!(s.view_names().is_empty(), "nothing was created");
    // Ordering belongs in queries over the (unordered) view.
    s.create_materialized_view("fanout", "SELECT src, count(*) FROM edges GROUP BY src").unwrap();
    let rows = s.query("SELECT src, count FROM fanout ORDER BY count DESC LIMIT 1").unwrap().rows;
    assert_eq!(rows.len(), 1);
}

// ---- recursive views -----------------------------------------------------

/// Reachability from the `weights` nodes along `edges`: the base case
/// reads one table and the step another, with set semantics — a view the
/// converged fixpoint maintains under inserts.
const REACH_VIEW_SQL: &str = "WITH R (id) AS (SELECT node FROM weights) \
     UNION UNTIL FIXPOINT BY id (SELECT edges.dst FROM edges, R WHERE edges.src = R.id)";

/// Reachability from the nodes of the incremental view `heavy`.
const HEAVY_REACH_SQL: &str = "WITH R (id) AS (SELECT node FROM heavy) \
     UNION UNTIL FIXPOINT BY id (SELECT edges.dst FROM edges, R WHERE edges.src = R.id)";

/// A row over a wider key range than [`random_row`], so reachability runs
/// several strata deep and keeps growing across batches.
fn wide_row(rng: &mut StdRng, table: &str) -> Tuple {
    let mut node = || Value::Int(rng.gen_range(0..=24i64));
    match table {
        "edges" => Tuple::new(vec![node(), node()]),
        _ => Tuple::new(vec![node(), Value::Double(rng.gen_range(1..=19i64) as f64 * 0.25)]),
    }
}

/// Insert batches into both the base-case table (`weights`) and the step
/// table (`edges`): after every batch the view equals its defining query,
/// and no pass recomputes.
fn recursive_insert_sweep(engine: &str, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = make_session(engine);
    s.insert("edges", (0..12).map(|_| wide_row(&mut rng, "edges")).collect()).unwrap();
    s.insert("weights", vec![wide_row(&mut rng, "weights")]).unwrap();
    s.create_materialized_view("reach", REACH_VIEW_SQL).unwrap();
    let strategy = s.view_strategy("reach").unwrap();
    assert!(strategy.contains("incremental"), "{strategy}");
    for step in 0..12 {
        let table = if rng.gen_range(0..=2i64) == 0 { "weights" } else { "edges" };
        let rows: Vec<Tuple> =
            (0..rng.gen_range(1..=4i64)).map(|_| wide_row(&mut rng, table)).collect();
        s.insert(table, rows).unwrap();
        let ctx = format!("{engine} seed {seed} step {step} ({table})");
        let got = s.query("SELECT * FROM reach").unwrap().rows;
        assert_eq!(got, s.query(REACH_VIEW_SQL).unwrap().rows, "{ctx}");
        assert_eq!(s.views().get("reach").unwrap().recomputes(), 0, "{ctx}: inserts recompute");
    }
}

#[test]
fn recursive_view_maintains_inserts_without_recompute() {
    for seed in SEEDS {
        recursive_insert_sweep("local", seed);
        recursive_insert_sweep("cluster", seed);
    }
}

/// Mixed insert/delete batches. Each pass that deletes from a recursive
/// view's sources rebuilds it exactly once — also when the delete reaches
/// it only through an upstream view (`heavy`, whose stored copy the
/// rebuild must read synced) — and the views always equal their queries.
fn recursive_mixed_sweep(engine: &str, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = make_session(engine);
    s.insert("edges", (0..14).map(|_| wide_row(&mut rng, "edges")).collect()).unwrap();
    s.insert("weights", (0..4).map(|_| wide_row(&mut rng, "weights")).collect()).unwrap();
    s.create_materialized_view("reach", REACH_VIEW_SQL).unwrap();
    s.create_materialized_view("heavy", "SELECT node FROM weights WHERE weight > 2.0").unwrap();
    s.create_materialized_view("heavy_reach", HEAVY_REACH_SQL).unwrap();
    let (mut reach_rebuilds, mut heavy_rebuilds) = (0, 0);
    for step in 0..14 {
        let table = if rng.gen_range(0..=1i64) == 0 { "edges" } else { "weights" };
        let stored = s.store().get(table).unwrap().rows().to_vec();
        if rng.gen_range(0..=2i64) == 0 && !stored.is_empty() {
            let victim = stored[rng.gen_range(0..stored.len())].clone();
            // `heavy` changes, and so passes the delete on, only when the
            // victim passes its filter.
            let via_heavy = table == "weights" && victim.get(1).as_double() > Some(2.0);
            s.delete(table, vec![victim]).unwrap();
            reach_rebuilds += 1;
            heavy_rebuilds += usize::from(table == "edges" || via_heavy);
        } else {
            let rows: Vec<Tuple> =
                (0..rng.gen_range(1..=3i64)).map(|_| wide_row(&mut rng, table)).collect();
            s.insert(table, rows).unwrap();
        }
        let ctx = format!("{engine} seed {seed} step {step} ({table})");
        for (view, sql, rebuilds) in [
            ("reach", REACH_VIEW_SQL, reach_rebuilds),
            ("heavy_reach", HEAVY_REACH_SQL, heavy_rebuilds),
        ] {
            let got = s.query(&format!("SELECT * FROM {view}")).unwrap().rows;
            assert_eq!(got, s.query(sql).unwrap().rows, "{ctx}: {view}");
            let v = s.views().get(view).unwrap();
            assert_eq!(v.recomputes(), rebuilds, "{ctx}: {view} rebuilds once per deleting pass");
        }
    }
}

#[test]
fn recursive_view_rebuilds_once_per_deleting_pass() {
    for seed in SEEDS {
        recursive_mixed_sweep("local", seed);
        recursive_mixed_sweep("cluster", seed);
    }
}

/// Under a sharded session a recursive view keeps one shard on the session
/// node, says so, and still maintains its inserts without recomputing.
#[test]
fn recursive_view_is_maintained_on_the_session_node_of_a_cluster() {
    let mut s = rex::Session::cluster(4);
    s.create_table("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)])).unwrap();
    s.create_table("weights", Schema::of(&[("node", DataType::Int), ("weight", DataType::Double)]))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(SEEDS[0]);
    s.insert("edges", (0..10).map(|_| wide_row(&mut rng, "edges")).collect()).unwrap();
    s.insert("weights", vec![wide_row(&mut rng, "weights")]).unwrap();
    s.create_materialized_view("reach", REACH_VIEW_SQL).unwrap();
    for _ in 0..4 {
        s.insert("edges", (0..3).map(|_| wide_row(&mut rng, "edges")).collect()).unwrap();
    }
    assert_eq!(s.query("SELECT * FROM reach").unwrap().rows, s.query(REACH_VIEW_SQL).unwrap().rows);
    let v = s.views().get("reach").unwrap();
    assert_eq!(v.shards(), 1);
    assert_eq!(
        v.shard_fallback(),
        Some(
            "recursive view is maintained on the session node: \
             a fixpoint's strata would need an exchange between shards"
        )
    );
    assert_eq!(v.recomputes(), 0);
}
