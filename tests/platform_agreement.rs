//! Cross-platform agreement: every implementation of every algorithm —
//! REX delta, REX no-delta, REX wrap, the MapReduce simulator, DBMS X, and
//! the sequential reference — must produce the same answers on the same
//! inputs. This pins the evaluation to apples-to-apples comparisons.

use rex::algos::common::{max_abs_diff, per_vertex_doubles};
use rex::algos::kmeans::KmAgg;
use rex::algos::pagerank::{self, PageRankConfig, PrAgg, Strategy};
use rex::algos::sssp::SpAgg;
use rex::algos::{kmeans, kmeans_mr, pagerank_mr, reference, sssp, sssp_mr};
use rex::cluster::runtime::{ClusterConfig, ClusterRuntime};
use rex::core::exec::LocalRuntime;
use rex::core::handlers::FlippedJoin;
use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::data::graph::{generate_graph, Graph, GraphSpec};
use rex::data::points::{generate_points, PointSpec};
use rex::data::rng::StdRng;
use rex::dbms::engine::DbmsConfig;
use rex::hadoop::cost::EmulationMode;
use rex::hadoop::job::HadoopCluster;
use rex::storage::catalog::Catalog;
use rex::storage::table::StoredTable;
use rex::Session;
use std::sync::Arc;

fn graph() -> Graph {
    generate_graph(GraphSpec {
        n_vertices: 90,
        edges_per_vertex: 4,
        seed: 1234,
        random_edge_fraction: 0.08,
        locality_window: 0,
    })
}

fn graph_catalog(g: &Graph) -> Catalog {
    let cat = Catalog::new();
    let mut t = StoredTable::new("graph", Graph::schema(), vec![0]);
    t.load_unchecked(g.edge_tuples());
    cat.register(t);
    cat
}

#[test]
fn pagerank_agrees_across_all_six_platforms() {
    let g = graph();
    let iters = 10;
    let want = reference::pagerank(&g, iters);

    // REX no-delta (exact power iteration), local.
    let plan = pagerank::plan_local(
        &g,
        PageRankConfig { threshold: 0.0, max_iterations: iters as u64 },
        Strategy::NoDelta,
    );
    let (res, _) = LocalRuntime::new().run(plan).unwrap();
    let rex_nodelta = pagerank::ranks_from_results(&res, g.n_vertices);
    assert!(max_abs_diff(&rex_nodelta, &want) < 1e-9, "REX no-Δ");

    // REX delta with a tiny threshold, distributed.
    let rt = ClusterRuntime::new(ClusterConfig::new(4), graph_catalog(&g));
    let (res, _) = rt
        .run(pagerank::plan_builder(
            PageRankConfig { threshold: 1e-10, max_iterations: 400 },
            Strategy::Delta,
        ))
        .unwrap();
    let rex_delta = pagerank::ranks_from_results(&res, g.n_vertices);
    let (converged, _) = reference::pagerank_converged(&g, 1e-11, 600);
    assert!(max_abs_diff(&rex_delta, &converged) < 1e-6, "REX Δ vs converged reference");

    // MapReduce two-job pipeline.
    let cluster = HadoopCluster::new(4).with_mode(EmulationMode::HadoopLowerBound);
    let (mr, _) = pagerank_mr::run_mr(&g, iters, &cluster);
    assert!(max_abs_diff(&mr, &want) < 1e-9, "MapReduce");

    // Wrap: the Hadoop classes inside REX.
    let (res, _) = LocalRuntime::new().run(pagerank_mr::wrap_plan_local(&g, iters as u64)).unwrap();
    let wrap = pagerank_mr::wrap_ranks(&res, g.n_vertices);
    assert!(max_abs_diff(&wrap, &want) < 1e-9, "wrap");

    // DBMS X recursive SQL.
    let (dbms, _) = rex::dbms::pagerank_recursive_sql(&g, iters, &DbmsConfig::default());
    assert!(max_abs_diff(&dbms, &want) < 1e-9, "DBMS X");
}

#[test]
fn shortest_path_agrees_across_platforms() {
    let g = graph();
    let want: Vec<f64> = reference::shortest_paths(&g, 3)
        .into_iter()
        .map(|d| if d == u32::MAX { f64::INFINITY } else { d as f64 })
        .collect();

    let rt = ClusterRuntime::new(ClusterConfig::new(4), graph_catalog(&g));
    let (res, _) =
        rt.run(sssp::plan_builder(sssp::SsspConfig::from_source(3), Strategy::Delta)).unwrap();
    assert_eq!(sssp::dists_from_results(&res, g.n_vertices), want, "REX Δ");

    let cluster = HadoopCluster::new(3).with_mode(EmulationMode::HaLoopLowerBound);
    let (mr, _) = sssp_mr::run_mr(&g, 3, 200, &cluster);
    assert_eq!(mr, want, "MapReduce frontier");

    let depth = reference::hops_to_reach(&reference::shortest_paths(&g, 3), 1.0) as u64;
    let (res, _) = LocalRuntime::new().run(sssp_mr::wrap_plan_local(&g, 3, depth + 1)).unwrap();
    assert_eq!(sssp_mr::wrap_dists(&res, g.n_vertices), want, "wrap");
}

#[test]
fn kmeans_agrees_across_platforms() {
    let points = generate_points(PointSpec { n_points: 180, n_clusters: 4, stddev: 1.2, seed: 77 });
    let k = 4;
    let init = reference::sample_centroids(&points, k);
    let (want, _, _, _) = reference::kmeans(&points, &init, 200);

    let plan = kmeans::plan_local(&points, kmeans::KMeansConfig { k, max_iterations: 200 });
    let (res, _) = LocalRuntime::new().run(plan).unwrap();
    let rex_c = kmeans::centroids_from_results(&res, k);
    for (a, b) in rex_c.iter().zip(&want) {
        assert!(a.dist(b) < 1e-6, "REX Δ centroid drift: {}", a.dist(b));
    }

    let cluster = HadoopCluster::new(4).with_mode(EmulationMode::HadoopLowerBound);
    let (mr_c, _) = kmeans_mr::run_mr(&points, k, 200, &cluster);
    for (a, b) in mr_c.iter().zip(&want) {
        assert!(a.dist(b) < 1e-9, "MapReduce centroid drift: {}", a.dist(b));
    }
}

// ---------------------------------------------------------------------------
// Session-facade agreement: the paper's Listings 1–3, written in RQL text,
// executed through `Session::query` — parse → resolve → optimize → lower →
// execute — on BOTH the local and the cluster engine, validated against the
// sequential references. One query API, any backend, same answers.
// ---------------------------------------------------------------------------

/// Sessions on both engines with the edge relation loaded (partitioned on
/// srcId, like Figure 1's plan expects).
fn graph_sessions(g: &Graph) -> Vec<Session> {
    [Session::local(), Session::cluster(4)]
        .into_iter()
        .map(|mut s| {
            s.create_table("graph", Graph::schema()).unwrap();
            s.insert("graph", g.edge_tuples()).unwrap();
            s
        })
        .collect()
}

// ---------------------------------------------------------------------------
// RQL-surface agreement: the full query surface — DISTINCT, HAVING,
// ORDER BY (with deliberate ties), LIMIT/OFFSET at every boundary,
// expression-argument aggregates, CREATE TABLE DDL — must return
// *identical* rows (same order where one is requested) on the local and
// cluster engines, across random datasets.
// ---------------------------------------------------------------------------

/// Local + cluster sessions over the same random `sales` table, created
/// through `CREATE TABLE` DDL. Values are drawn from small domains so
/// duplicates and ORDER BY ties occur constantly.
fn sales_sessions(seed: u64) -> Vec<Session> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Tuple> = (0..60)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.gen_range(0..=5i64)),                  // item
                Value::Double(rng.gen_range(1..=4i64) as f64),        // price
                Value::Double(rng.gen_range(0..=3i64) as f64 * 0.25), // discount
                Value::Int(rng.gen_range(1..=3i64)),                  // qty
            ])
        })
        .collect();
    [Session::local(), Session::cluster(4)]
        .into_iter()
        .map(|mut s| {
            s.query("CREATE TABLE sales (item int, price double, discount double, qty int)")
                .unwrap();
            s.insert("sales", rows.clone()).unwrap();
            s
        })
        .collect()
}

/// Run `sql` on both engines and assert the row vectors are identical —
/// including order, which is how ORDER BY determinism (tie-breaks and
/// all) is pinned across topologies.
fn assert_engines_agree(sessions: &mut [Session], sql: &str) -> Vec<Tuple> {
    let mut results = Vec::new();
    for s in sessions.iter_mut() {
        let r = s.query(sql).unwrap_or_else(|e| panic!("{sql} on {}: {e}", s.engine_name()));
        results.push((r.engine, r.rows));
    }
    let (ref e0, ref r0) = results[0];
    for (e, r) in &results[1..] {
        assert_eq!(r0, r, "{sql}: {e0} vs {e} disagree");
    }
    results.swap_remove(0).1
}

#[test]
fn order_by_with_ties_and_limit_boundaries_agree() {
    for seed in [7u64, 99, 4096] {
        let mut ss = sales_sessions(seed);
        let n = ss[0].table_rows("sales").unwrap() as u64;
        // Ties on price are pervasive (4 distinct prices, 60 rows): the
        // full-tuple tie-break must make both engines pick the same rows
        // in the same order at every LIMIT/OFFSET boundary.
        for (fetch, offset) in
            [(0, 0), (1, 0), (5, 3), (n - 1, 0), (n, 0), (n + 7, 2), (3, n), (2, n - 1)]
        {
            let sql = format!(
                "SELECT item, price FROM sales ORDER BY price DESC, item LIMIT {fetch} OFFSET {offset}"
            );
            let rows = assert_engines_agree(&mut ss, &sql);
            let expect = (n.saturating_sub(offset)).min(fetch) as usize;
            assert_eq!(rows.len(), expect, "{sql}: cardinality");
        }
        // ORDER BY an expression, no limit.
        assert_engines_agree(
            &mut ss,
            "SELECT item, price * qty FROM sales ORDER BY price * qty DESC, item",
        );
    }
}

#[test]
fn distinct_and_having_agree() {
    for seed in [11u64, 222] {
        let mut ss = sales_sessions(seed);
        let d = assert_engines_agree(
            &mut ss,
            "SELECT DISTINCT item, qty FROM sales ORDER BY item, qty",
        );
        let mut dedup = d.clone();
        dedup.dedup();
        assert_eq!(d, dedup, "DISTINCT output has no duplicates");
        assert_engines_agree(&mut ss, "SELECT DISTINCT item FROM sales");
        assert_engines_agree(
            &mut ss,
            "SELECT item, count(*), sum(qty) FROM sales GROUP BY item HAVING count(*) > 8",
        );
        assert_engines_agree(
            &mut ss,
            "SELECT item, avg(price) FROM sales GROUP BY item HAVING item > 1 ORDER BY 2 DESC, item LIMIT 3",
        );
    }
}

#[test]
fn expression_aggregates_agree_and_match_oracle() {
    for seed in [5u64, 31337] {
        let mut ss = sales_sessions(seed);
        let rows = assert_engines_agree(
            &mut ss,
            "SELECT item, sum(price * (1 - discount) * qty) FROM sales GROUP BY item ORDER BY item",
        );
        // Oracle: recompute revenue per item from the raw rows.
        let raw = assert_engines_agree(&mut ss, "SELECT item, price, discount, qty FROM sales");
        let mut want = std::collections::BTreeMap::new();
        for t in &raw {
            let item = t.get(0).as_int().unwrap();
            let rev = t.get(1).as_double().unwrap()
                * (1.0 - t.get(2).as_double().unwrap())
                * t.get(3).as_int().unwrap() as f64;
            *want.entry(item).or_insert(0.0) += rev;
        }
        assert_eq!(rows.len(), want.len());
        for t in &rows {
            let got = t.get(1).as_double().unwrap();
            let exp = want[&t.get(0).as_int().unwrap()];
            assert!((got - exp).abs() < 1e-9 * exp.abs().max(1.0), "{got} vs {exp}");
        }
    }
}

#[test]
fn global_aggregate_with_having_agrees() {
    let mut ss = sales_sessions(1);
    // HAVING over a global aggregate: one row or none, same on both.
    assert_engines_agree(&mut ss, "SELECT sum(qty), count(*) FROM sales HAVING count(*) > 1");
    let none = assert_engines_agree(&mut ss, "SELECT sum(qty) FROM sales HAVING count(*) > 999");
    assert!(none.is_empty(), "failed HAVING over a global aggregate yields no rows");
}

#[test]
fn listing1_pagerank_via_session_agrees_on_both_engines() {
    let g = graph();
    let src = "
        WITH PR (srcId, pr) AS (
          SELECT srcId, 1.0 AS pr FROM graph
        ) UNION UNTIL FIXPOINT BY srcId (
          SELECT nbr, 0.15 + 0.85 * sum(prDiff)
          FROM (SELECT PRAgg(srcId, pr).{nbr, prDiff}
                FROM graph, PR
                WHERE graph.srcId = PR.srcId)
          GROUP BY nbr)";
    let (want, _) = reference::pagerank_converged(&g, 1e-10, 500);
    for mut s in graph_sessions(&g) {
        s.register_join("PRAgg", Arc::new(FlippedJoin(Arc::new(PrAgg::delta(1e-9)))));
        let r = s.query(src).unwrap();
        let got = per_vertex_doubles(&r.rows, g.n_vertices, reference::BASE_RANK);
        let diff = max_abs_diff(&got, &want);
        assert!(diff < 1e-6, "{} engine deviates from reference by {diff}", r.engine);
        assert!(r.iterations() > 5, "{} engine should iterate to convergence", r.engine);
        assert_eq!(*r.delta_sizes().last().unwrap(), 0, "{} engine converged", r.engine);
        assert!(r.cost.runtime() > 0.0, "optimizer must cost the recursive plan");
    }
}

#[test]
fn listing2_shortest_path_via_session_agrees_on_both_engines() {
    let g = graph();
    let source = 3i64;
    let src = "
        WITH SP (srcId, dist) AS (
          SELECT srcId, dist FROM start
        ) UNION ALL UNTIL FIXPOINT BY srcId (
          SELECT nbr, min(distOut)
          FROM (SELECT SPAgg(nbrId, dist).{nbr, distOut}
                FROM graph, SP
                WHERE graph.srcId = SP.srcId)
          GROUP BY nbr)";
    let want: Vec<f64> = reference::shortest_paths(&g, source as u32)
        .into_iter()
        .map(|d| if d == u32::MAX { f64::INFINITY } else { d as f64 })
        .collect();
    for mut s in graph_sessions(&g) {
        s.create_table(
            "start",
            Schema::of(&[("srcId", DataType::Int), ("dist", DataType::Double)]),
        )
        .unwrap();
        s.insert("start", vec![Tuple::new(vec![Value::Int(source), Value::Double(0.0)])]).unwrap();
        s.register_join("SPAgg", Arc::new(FlippedJoin(Arc::new(SpAgg { delta_mode: true }))));
        let r = s.query(src).unwrap();
        let got = per_vertex_doubles(&r.rows, g.n_vertices, f64::INFINITY);
        assert_eq!(got, want, "{} engine disagrees with BFS reference", r.engine);
    }
}

#[test]
fn listing3_kmeans_via_session_agrees_on_both_engines() {
    let points = generate_points(PointSpec { n_points: 150, n_clusters: 3, stddev: 1.0, seed: 41 });
    let k = 3;
    let src = "
        WITH KM (cid, x, y) AS (
          SELECT cid, x, y FROM centroids0
        ) UNION ALL UNTIL FIXPOINT BY cid (
          SELECT cid, sum(xDiff) / sum(n), sum(yDiff) / sum(n)
          FROM (SELECT KMAgg(cid, x, y).{cid, xDiff, yDiff, n}
                FROM geodata, KM)
          GROUP BY cid)";
    let init = reference::sample_centroids(&points, k);
    let (want, _, _, _) = reference::kmeans(&points, &init, 200);
    for engine in ["local", "cluster"] {
        let mut s = if engine == "cluster" { Session::cluster(4) } else { Session::local() };
        s.create_table("geodata", rex::data::points::schema()).unwrap();
        s.insert("geodata", rex::data::points::point_tuples(&points)).unwrap();
        s.create_table(
            "centroids0",
            Schema::of(&[("cid", DataType::Int), ("x", DataType::Double), ("y", DataType::Double)]),
        )
        .unwrap();
        s.insert("centroids0", rex::algos::kmeans::centroid_tuples(&points, k)).unwrap();
        s.register_join("KMAgg", Arc::new(FlippedJoin(Arc::new(KmAgg))));
        let r = s.query(src).unwrap();
        let got = rex::algos::kmeans::centroids_from_results(&r.rows, k);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.dist(w) < 1e-6,
                "{engine} centroid {i}: ({}, {}) vs ({}, {})",
                g.x,
                g.y,
                w.x,
                w.y
            );
        }
        assert_eq!(*r.delta_sizes().last().unwrap(), 0, "{engine} converged");
    }
}

// ---------------------------------------------------------------------------
// Lowering agreement: the same logical plan lowered for the local executor
// (`lower`) and for a simulated cluster (`LowerOptions::cluster()`) must
// both return exactly what the naive reference evaluator computes from
// it — whatever batch forms the two physical plans happen to move.
// ---------------------------------------------------------------------------

#[test]
fn local_and_cluster_lowerings_match_the_naive_reference() {
    use rex::rql::lower::{lower, lower_with, LowerOptions};
    use rex::rql::provider::{CatalogProvider, PartitionProvider};
    use rex::rql::SchemaCatalog;

    for seed in [13u64, 4096] {
        let mut rng = StdRng::seed_from_u64(seed);
        // Small domains: duplicate rows, duplicate join keys, ties.
        // Dyadic doubles: sums are exact in any order.
        let t_rows: Vec<Tuple> = (0..80)
            .map(|_| {
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..=9i64)),
                    Value::Int(rng.gen_range(0..=99i64)),
                    Value::Double(rng.gen_range(0..=40i64) as f64 * 0.5),
                ])
            })
            .collect();
        let d_rows: Vec<Tuple> = (0..=9i64)
            .map(|k| Tuple::new(vec![Value::Int(k), Value::Double(k as f64 * 1.5)]))
            .collect();

        let cat = Catalog::new();
        let t_schema =
            Schema::of(&[("k", DataType::Int), ("a", DataType::Int), ("b", DataType::Double)]);
        let d_schema = Schema::of(&[("k", DataType::Int), ("w", DataType::Double)]);
        let mut t = StoredTable::new("t", t_schema.clone(), vec![0]);
        t.load_unchecked(t_rows);
        cat.register(t);
        let mut d = StoredTable::new("d", d_schema.clone(), vec![0]);
        d.load_unchecked(d_rows);
        cat.register(d);
        let mut sc = SchemaCatalog::new();
        sc.register("t", t_schema);
        sc.register("d", d_schema);
        let reg = rex::core::udf::Registry::with_builtins();

        for sql in [
            // Pure stateless chains: scans transpose into Event::Cols.
            "SELECT k, a + 1, b * 2.0 FROM t WHERE a < 40",
            "SELECT k, b FROM t WHERE a >= 60",
            // Insert-only join: bare rows in, bare rows out, the sink
            // never leaves its append path.
            "SELECT t.k, t.b, d.w FROM t, d WHERE t.k = d.k AND t.a < 50",
            // Bare rows folded into groups; deltas from there on.
            "SELECT k, count(*), sum(b) FROM t GROUP BY k",
        ] {
            let plan = rex::rql::plan_rql(sql, &sc, &reg).unwrap();
            let want = rex_testkit::reference::evaluate(&plan, &cat, &reg).unwrap();
            assert!(!want.is_empty(), "{sql}: empty result defeats the sweep");

            let provider = CatalogProvider::new(cat.clone());
            let g = lower(&plan, &provider, &reg).unwrap();
            let (rows, _) = LocalRuntime::new().run(g).unwrap();
            assert_eq!(rows, want, "seed {seed}, {sql}: local lowering vs reference");

            let plan_arc = Arc::new(plan.clone());
            let reg_c = reg.clone();
            let rt = ClusterRuntime::new(ClusterConfig::new(3), cat.clone());
            let (rows, _) = rt
                .run(Arc::new(move |w, snap, c: &Catalog| {
                    let provider = PartitionProvider::new(c.clone(), snap.clone(), w);
                    lower_with(&plan_arc, &provider, &reg_c, LowerOptions::cluster())
                }))
                .unwrap();
            assert_eq!(rows, want, "seed {seed}, {sql}: cluster lowering vs reference");
        }
    }
}
