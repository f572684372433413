//! Wall-clock benchmarks: one group per paper artifact, each measuring the
//! real execution speed of the platforms on a small fixed workload (the
//! figure binaries report the deterministic cost-model series; these
//! report wall time). Runs with `cargo bench` via a dependency-free
//! manual harness: each case is warmed once, then timed over a fixed
//! iteration count, reporting the mean and the minimum.

use rex_algos::pagerank::{PageRankConfig, Strategy};
use rex_bench::{runners, workloads};
use rex_core::exec::LocalRuntime;
use rex_core::udf::Registry;
use rex_dbms::engine::DbmsConfig;
use rex_hadoop::cost::EmulationMode;
use rex_hadoop::job::{HadoopCluster, JobInput, MapReduceJob};
use rex_rql::lower::{lower, MemTables};
use rex_rql::plan_rql;
use rex_rql::SchemaCatalog;
use std::time::Instant;

const SAMPLES: usize = 10;

/// Time `f` over [`SAMPLES`] runs (after one warm-up) and print a line.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    f(); // warm-up
    let mut times = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("{group}/{name:<24} mean {:>10.3} ms   min {:>10.3} ms", mean * 1e3, min * 1e3);
}

/// Figure 4: the OLAP aggregation on REX (via RQL) vs the Hadoop
/// simulator.
fn fig04_olap() {
    let rows = workloads::lineitem_rows(4_000);
    let mut catalog = SchemaCatalog::new();
    catalog.register("lineitem", rex_data::lineitem::schema());
    let mut tables = MemTables::new();
    tables.insert("lineitem", workloads::lineitem_tuples(&rows));
    let reg = Registry::with_builtins();

    bench("fig04_olap", "rex_builtin_rql", || {
        let plan = lower(
            &plan_rql(
                "SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1",
                &catalog,
                &reg,
            )
            .unwrap(),
            &tables,
            &reg,
        )
        .unwrap();
        LocalRuntime::new().run(plan).unwrap();
    });
    let mapper = rex_hadoop::api::FnMapper::new("m", |_k, v, out| {
        if let Some(l) = v.as_list() {
            if l[0].as_int().unwrap_or(0) > 1 {
                out(rex_core::value::Value::Int(0), l[1].clone());
            }
        }
    });
    let reducer = rex_hadoop::api::FnReducer::new("r", |k, vs, out| {
        let s: f64 = vs.iter().filter_map(rex_core::value::Value::as_double).sum();
        out(k.clone(), rex_core::value::Value::Double(s));
    });
    let job = MapReduceJob::new("fig4", mapper, reducer);
    let records: Vec<rex_hadoop::api::Record> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                rex_core::value::Value::Int(i as i64),
                rex_core::value::Value::list(vec![
                    rex_core::value::Value::Int(r.linenumber),
                    rex_core::value::Value::Double(r.tax),
                ]),
            )
        })
        .collect();
    bench("fig04_olap", "hadoop", || {
        HadoopCluster::new(1).run_job(&job, &[JobInput::mutable(records.clone())], 0);
    });
}

/// Figures 6/8: PageRank — REX Δ vs REX no-Δ vs the MapReduce baselines.
fn fig06_pagerank() {
    let g6 = workloads::dbpedia_graph(0.2);
    bench("fig06_pagerank", "rex_delta", || {
        runners::pagerank_rex(
            &g6,
            PageRankConfig { threshold: 0.01, max_iterations: 20 },
            Strategy::Delta,
            4,
        );
    });
    bench("fig06_pagerank", "rex_no_delta", || {
        runners::pagerank_rex(
            &g6,
            PageRankConfig { threshold: 0.0, max_iterations: 10 },
            Strategy::NoDelta,
            4,
        );
    });
    bench("fig06_pagerank", "hadoop_lb", || {
        runners::pagerank_hadoop(&g6, 10, EmulationMode::HadoopLowerBound, 4);
    });
    bench("fig06_pagerank", "haloop_lb", || {
        runners::pagerank_hadoop(&g6, 10, EmulationMode::HaLoopLowerBound, 4);
    });
}

/// Figure 7/9: shortest path — REX Δ vs the frontier MapReduce baseline.
fn fig07_sssp() {
    let g7 = workloads::dbpedia_graph(0.2);
    bench("fig07_sssp", "rex_delta", || {
        runners::sssp_rex(&g7, 0, Strategy::Delta, 100, 4);
    });
    bench("fig07_sssp", "hadoop_frontier", || {
        runners::sssp_hadoop(&g7, 0, 100, EmulationMode::HadoopLowerBound, 4);
    });
}

/// Figure 5: K-means — REX Δ vs MapReduce, one size point.
fn fig05_kmeans() {
    let pts = workloads::geo_points(400);
    bench("fig05_kmeans", "rex_delta", || {
        runners::kmeans_rex(&pts, 8, 4);
    });
    bench("fig05_kmeans", "hadoop_lb", || {
        runners::kmeans_hadoop(&pts, 8, EmulationMode::HadoopLowerBound, 4);
    });
}

/// Figure 10: the DBMS X accumulate-only evaluator.
fn fig10_dbms() {
    let graph = workloads::dbpedia_graph(0.2);
    bench("fig10_dbms", "dbms_x_pagerank", || {
        rex_dbms::pagerank_recursive_sql(&graph, 10, &DbmsConfig::default());
    });
}

/// Figure 12: recovery strategies under an injected failure.
fn fig12_recovery() {
    let graph = workloads::dbpedia_graph(0.2);
    for (name, strategy) in [
        ("restart", rex_cluster::failure::RecoveryStrategy::Restart),
        ("incremental", rex_cluster::failure::RecoveryStrategy::Incremental),
    ] {
        bench("fig12_recovery", &format!("sssp_failure_at_3/{name}"), || {
            runners::sssp_rex_with_failure(&graph, 0, 4, 1, 3, strategy);
        });
    }
}

fn main() {
    fig04_olap();
    fig05_kmeans();
    fig06_pagerank();
    fig07_sssp();
    fig10_dbms();
    fig12_recovery();
}
