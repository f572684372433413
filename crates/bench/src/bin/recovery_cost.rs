//! Recovery cost, self-gated: on a deep fixpoint, incremental recovery
//! must beat restart by at least 2x in added simulated time (§4.3, Figure
//! 12's claim quantified as a regression gate rather than a plot).
//!
//! The workload is reachability over a pure path graph, whose fixpoint
//! runs exactly one stratum per hop — a 10-stratum recursion with no
//! shortcut edges, so a kill at stratum k forces restart to redo all k
//! strata while incremental replays only the replicated Δ of the last
//! completed one. All times are deterministic cost-model units, so the
//! gates are a property of the code, not the machine. The emitted
//! `BENCH_recovery.json` carries the per-kill-point series plus the
//! averaged ratio. The run exits non-zero when the fixpoint is shallower
//! than 10 strata, the ratio is below 2x, or incremental recovery fails
//! to beat restart at any kill point — which is the whole CI gate.

use rex_cluster::failure::{FailurePlan, RecoveryStrategy};
use rex_cluster::runtime::{ClusterConfig, ClusterRuntime};
use rex_core::tuple::{Schema, Tuple};
use rex_core::udf::Registry;
use rex_core::value::{DataType, Value};
use rex_storage::catalog::Catalog;
use rex_storage::table::StoredTable;

const WORKERS: usize = 4;
const SPINE: i64 = 16; // 0→1→…→15: reachability from 0 runs ~15 strata
/// The fixpoint must be at least this deep for the kill points to mean
/// anything.
const MIN_STRATA: u64 = 10;
/// Restart's added time over incremental's, averaged over kill points.
const RATIO_FLOOR: f64 = 2.0;

fn path_catalog() -> (Catalog, rex_rql::SchemaCatalog) {
    let schema = Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]);
    let mut edges = StoredTable::new("edges", schema.clone(), vec![0]);
    for i in 0..SPINE - 1 {
        edges.insert(Tuple::new(vec![Value::Int(i), Value::Int(i + 1)])).unwrap();
    }
    let seed_schema = Schema::of(&[("id", DataType::Int)]);
    let mut seed = StoredTable::new("seed", seed_schema.clone(), vec![0]);
    seed.insert(Tuple::new(vec![Value::Int(0)])).unwrap();
    let cat = Catalog::new();
    cat.register(edges);
    cat.register(seed);
    let mut sc = rex_rql::SchemaCatalog::new();
    sc.register("edges", schema);
    sc.register("seed", seed_schema);
    (cat, sc)
}

fn main() {
    let reg = Registry::with_builtins();
    let (cat, sc) = path_catalog();
    let plan = rex_rql::plan_rql(
        "WITH reach (id) AS (SELECT id FROM seed) UNION UNTIL FIXPOINT BY id (
           SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id)",
        &sc,
        &reg,
    )
    .expect("plan");

    let rt = ClusterRuntime::new(ClusterConfig::new(WORKERS), cat.clone());
    let (rows, baseline) = rt.run_logical(&plan, &reg).expect("baseline");
    let strata = baseline.query.strata.len() as u64;
    let t0 = baseline.simulated_time();
    let mut misses = Vec::new();
    if strata < MIN_STRATA {
        misses.push(format!("fixpoint too shallow: {strata} strata < {MIN_STRATA}"));
    }
    println!("recovery cost — {SPINE}-node path reachability: {strata} strata, {WORKERS} workers");
    println!("baseline: {t0:.1} units, {} rows\n", rows.len());
    println!("{:>10} {:>12} {:>12} {:>8}", "fail at k", "restart", "incremental", "ratio");

    // Kill late, where the strategies differ most: restart redoes k strata,
    // incremental replays one. Early kills would flatter neither.
    let kill_points: Vec<u64> = (strata / 2..strata.saturating_sub(1)).collect();
    let mut lines = Vec::new();
    let (mut restart_over, mut incr_over) = (0.0f64, 0.0f64);
    for &k in &kill_points {
        let run = |strategy| {
            let cfg =
                ClusterConfig::new(WORKERS).with_failure(FailurePlan::kill_at(1, k), strategy);
            let (got, report) =
                ClusterRuntime::new(cfg, cat.clone()).run_logical(&plan, &reg).expect("killed run");
            assert_eq!(got, rows, "recovered rows diverged at k={k} under {strategy:?}");
            assert_eq!(report.failures.len(), 1, "kill at {k} must fire");
            report.simulated_time()
        };
        let r = run(RecoveryStrategy::Restart) - t0;
        let i = run(RecoveryStrategy::Incremental) - t0;
        restart_over += r;
        incr_over += i;
        println!("{k:>10} {r:>12.1} {i:>12.1} {:>8.2}", r / i);
        if i >= r {
            misses.push(format!("incremental lost at k={k}: {i:.1} >= restart {r:.1}"));
        }
        lines.push(format!(
            "    {{\"k\": {k}, \"restart_overhead\": {r:.3}, \"incremental_overhead\": {i:.3}}}"
        ));
    }
    let n = kill_points.len() as f64;
    let ratio = restart_over / incr_over;
    println!(
        "\navg overhead — restart: {:.1}, incremental: {:.1} (ratio {ratio:.2}x; gate: >= {RATIO_FLOOR}x)",
        restart_over / n,
        incr_over / n
    );

    let json = format!(
        "{{\n  \"workload\": \"path-{SPINE} reachability\",\n  \"workers\": {WORKERS},\n  \
         \"strata\": {strata},\n  \"baseline_time\": {t0:.3},\n  \"kill_points\": [\n{}\n  ],\n  \
         \"avg_restart_overhead\": {:.3},\n  \"avg_incremental_overhead\": {:.3},\n  \
         \"restart_over_incremental\": {ratio:.3}\n}}\n",
        lines.join(",\n"),
        restart_over / n,
        incr_over / n,
    );
    std::fs::write("BENCH_recovery.json", json).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");

    // A NaN ratio (no kill points) is a miss too.
    if ratio.is_nan() || ratio < RATIO_FLOOR {
        misses.push(format!("restart/incremental {ratio:.2}x < {RATIO_FLOOR}x"));
    }
    if !misses.is_empty() {
        eprintln!("recovery_cost gates missed: {}", misses.join("; "));
        std::process::exit(1);
    }
    println!(
        "gates held: {strata} strata >= {MIN_STRATA}, ratio {ratio:.2}x >= {RATIO_FLOOR}x, \
         incremental < restart at {} kill points",
        kill_points.len()
    );
}
