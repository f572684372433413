//! End-to-end runs of the paper's example queries (Listings 1–3), written
//! in RQL text, compiled through the full front-end, executed on the
//! engine, and validated against the sequential references.
//!
//! Deviations from the listings as printed (documented in DESIGN.md):
//! the inner handler-join block must have the destructured UDA call as its
//! sole projection, and the outer aggregates use scalar built-ins
//! (`sum`, `min`) instead of the paper's sugared `ArgMin`/`avg` forms.

use rex::algos::kmeans::KmAgg;
use rex::algos::pagerank::PrAgg;
use rex::algos::sssp::SpAgg;
use rex::algos::{common, reference};
use rex::core::exec::LocalRuntime;
use rex::core::handlers::FlippedJoin;
use rex::core::tuple::{Schema, Tuple};
use rex::core::udf::Registry;
use rex::core::value::{DataType, Value};
use rex::data::graph::{generate_graph, Graph, GraphSpec};
use rex::data::points::{generate_points, PointSpec};
use rex::rql::lower::{lower, MemTables};
use rex::rql::plan_rql;
use rex::rql::SchemaCatalog;
use std::sync::Arc;

fn graph() -> Graph {
    generate_graph(GraphSpec {
        n_vertices: 50,
        edges_per_vertex: 3,
        seed: 77,
        random_edge_fraction: 0.1,
        locality_window: 0,
    })
}

#[test]
fn listing1_pagerank_via_rql_matches_reference() {
    let g = graph();
    let mut catalog = SchemaCatalog::new();
    catalog.register("graph", Graph::schema());
    let mut tables = MemTables::new();
    tables.insert("graph", g.edge_tuples());
    let reg = Registry::with_builtins();
    // Listing 1's PRAgg, flipped because `FROM graph, PR` puts the rank
    // relation on the right. Tiny threshold → exact convergence.
    reg.register_join("PRAgg", Arc::new(FlippedJoin(Arc::new(PrAgg::delta(1e-9)))));

    let src = "
        WITH PR (srcId, pr) AS (
          SELECT srcId, 1.0 AS pr FROM graph
        ) UNION UNTIL FIXPOINT BY srcId (
          SELECT nbr, 0.15 + 0.85 * sum(prDiff)
          FROM (SELECT PRAgg(srcId, pr).{nbr, prDiff}
                FROM graph, PR
                WHERE graph.srcId = PR.srcId)
          GROUP BY nbr)";
    let plan = lower(&plan_rql(src, &catalog, &reg).unwrap(), &tables, &reg).unwrap();
    let (results, report) = LocalRuntime::new().run(plan).unwrap();

    let got = common::per_vertex_doubles(&results, g.n_vertices, reference::BASE_RANK);
    let (want, _) = reference::pagerank_converged(&g, 1e-10, 500);
    let diff = common::max_abs_diff(&got, &want);
    assert!(diff < 1e-6, "RQL PageRank deviates from reference by {diff}");
    assert!(report.iterations() > 5, "PageRank should iterate to convergence");
    assert_eq!(report.strata.last().unwrap().delta_set_size, 0);
}

#[test]
fn listing1_sum_outer_aggregate_is_incremental() {
    // The Δ set shrinks over strata: the recursive group-by processes
    // fewer deltas late in the computation (Figure 2's behavior), visible
    // through per-stratum delta counts.
    let g = graph();
    let mut catalog = SchemaCatalog::new();
    catalog.register("graph", Graph::schema());
    let mut tables = MemTables::new();
    tables.insert("graph", g.edge_tuples());
    let reg = Registry::with_builtins();
    reg.register_join("PRAgg", Arc::new(FlippedJoin(Arc::new(PrAgg::delta(0.01)))));

    let src = "
        WITH PR (srcId, pr) AS (
          SELECT srcId, 1.0 AS pr FROM graph
        ) UNION UNTIL FIXPOINT BY srcId (
          SELECT nbr, 0.15 + 0.85 * sum(prDiff)
          FROM (SELECT PRAgg(srcId, pr).{nbr, prDiff}
                FROM graph, PR
                WHERE graph.srcId = PR.srcId)
          GROUP BY nbr)";
    let plan = lower(&plan_rql(src, &catalog, &reg).unwrap(), &tables, &reg).unwrap();
    let (_, report) = LocalRuntime::new().run(plan).unwrap();
    let sizes: Vec<u64> = report.strata.iter().map(|s| s.delta_set_size).collect();
    assert!(sizes.len() >= 3);
    assert!(*sizes.last().unwrap() < sizes[0]);
}

#[test]
fn listing2_shortest_path_via_rql_matches_reference() {
    let g = graph();
    let source = 0i64;
    let mut catalog = SchemaCatalog::new();
    catalog.register("graph", Graph::schema());
    catalog.register("start", Schema::of(&[("srcId", DataType::Int), ("dist", DataType::Double)]));
    let mut tables = MemTables::new();
    tables.insert("graph", g.edge_tuples());
    tables.insert("start", vec![Tuple::new(vec![Value::Int(source), Value::Double(0.0)])]);
    let reg = Registry::with_builtins();
    reg.register_join("SPAgg", Arc::new(FlippedJoin(Arc::new(SpAgg { delta_mode: true }))));

    let src = "
        WITH SP (srcId, dist) AS (
          SELECT srcId, dist FROM start
        ) UNION ALL UNTIL FIXPOINT BY srcId (
          SELECT nbr, min(distOut)
          FROM (SELECT SPAgg(nbrId, dist).{nbr, distOut}
                FROM graph, SP
                WHERE graph.srcId = SP.srcId)
          GROUP BY nbr)";
    let plan = lower(&plan_rql(src, &catalog, &reg).unwrap(), &tables, &reg).unwrap();
    let (results, _) = LocalRuntime::new().run(plan).unwrap();

    let got = common::per_vertex_doubles(&results, g.n_vertices, f64::INFINITY);
    let want = reference::shortest_paths(&g, source as u32);
    for v in 0..g.n_vertices {
        let w = if want[v] == u32::MAX { f64::INFINITY } else { want[v] as f64 };
        assert_eq!(got[v], w, "vertex {v}");
    }
}

#[test]
fn listing3_kmeans_via_rql_matches_reference() {
    let points = generate_points(PointSpec { n_points: 150, n_clusters: 3, stddev: 1.0, seed: 41 });
    let k = 3;
    let mut catalog = SchemaCatalog::new();
    catalog.register("geodata", rex::data::points::schema());
    catalog.register(
        "centroids0",
        Schema::of(&[("cid", DataType::Int), ("x", DataType::Double), ("y", DataType::Double)]),
    );
    let mut tables = MemTables::new();
    tables.insert("geodata", rex::data::points::point_tuples(&points));
    tables.insert("centroids0", rex::algos::kmeans::centroid_tuples(&points, k));
    let reg = Registry::with_builtins();
    reg.register_join("KMAgg", Arc::new(FlippedJoin(Arc::new(KmAgg))));

    // Listing 3 with the centroid average expressed as Σdx/Σdn (the
    // retained sums of KMAgg's signed adjustments are exactly the running
    // per-cluster coordinate totals).
    let src = "
        WITH KM (cid, x, y) AS (
          SELECT cid, x, y FROM centroids0
        ) UNION ALL UNTIL FIXPOINT BY cid (
          SELECT cid, sum(xDiff) / sum(n), sum(yDiff) / sum(n)
          FROM (SELECT KMAgg(cid, x, y).{cid, xDiff, yDiff, n}
                FROM geodata, KM)
          GROUP BY cid)";
    let plan = lower(&plan_rql(src, &catalog, &reg).unwrap(), &tables, &reg).unwrap();
    let (results, report) = LocalRuntime::new().run(plan).unwrap();

    let got = rex::algos::kmeans::centroids_from_results(&results, k);
    let init = reference::sample_centroids(&points, k);
    let (want, _, _, _) = reference::kmeans(&points, &init, 200);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(g.dist(w) < 1e-6, "centroid {i}: ({}, {}) vs ({}, {})", g.x, g.y, w.x, w.y);
    }
    assert_eq!(report.strata.last().unwrap().delta_set_size, 0);
}
