//! Fault-injected recovery, proven deterministically (§4.3, Figure 12):
//! killing any worker at any point, under either `RecoveryStrategy`, must
//! leave query results and materialized-view contents **bit-identical**
//! to a failure-free run.
//!
//! Two layers are swept:
//!
//! * **queries** — [`ChaosSweep`](rex::cluster::ChaosSweep) replays
//!   recursive-fixpoint and aggregate plans with a worker killed at every
//!   stratum boundary (the paper's iteration-`k` case), comparing each
//!   recovered result against the unkilled baseline — which itself must
//!   match the single-node engine on the same data — with the drain on
//!   one thread and on four;
//! * **views** — sharded view maintenance (`rex_views::sharded`) with
//!   workers killed between write batches via `Session::inject_failure`,
//!   across seeds × kill-points × workers × strategies × view shapes
//!   (group-by, co-partitioned join, cascade, and a recursive view kept on
//!   the session node), checking view contents after every batch.
//!
//! Everything is exact arithmetic (integers and dyadic floats), so even
//! restart's re-accumulation reproduces identical float bits — plain
//! `assert_eq!` is the oracle, with no tolerances.

use rex::cluster::{ChaosSweep, RecoveryStrategy};
use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::Session;
use rex_data::rng::StdRng;
use rex_testkit::{canon, edges_session, random_row, SEEDS};

// ---- view-layer chaos ----------------------------------------------------

const VIEWS: [(&str, &str); 3] = [
    // Group-by sharded on the group key.
    ("by_src", "SELECT src, count(*) FROM edges GROUP BY src"),
    // Join + group-by co-partitioned on the join key (dyadic weights).
    (
        "jw",
        "SELECT e.dst, count(*), sum(w.weight) FROM edges e, weights w \
         WHERE e.dst = w.node GROUP BY e.dst",
    ),
    // Cascade: a sharded view reading another sharded view.
    ("hot", "SELECT src FROM by_src WHERE count > 3"),
];

/// A recursive view beside the sharded ones: it keeps one shard on the
/// session node, continues its fixpoint under inserts and rebuilds on
/// deletes, and worker kills must not disturb it.
const RECURSIVE: (&str, &str) = (
    "reach",
    "WITH R (id) AS (SELECT node FROM weights) UNION UNTIL FIXPOINT BY id \
     (SELECT edges.dst FROM edges, R WHERE edges.src = R.id)",
);

/// Run the random mutation stream, optionally killing workers mid-way,
/// and record every view's contents after every batch.
fn view_stream(seed: u64, kills: &[(usize, usize, RecoveryStrategy)]) -> Vec<Vec<Tuple>> {
    let mut s = edges_session("cluster");
    let mut rng = StdRng::seed_from_u64(seed);
    s.insert("edges", (0..16).map(|_| random_row(&mut rng, "edges")).collect()).unwrap();
    s.insert("weights", (0..10).map(|_| random_row(&mut rng, "weights")).collect()).unwrap();
    for (name, sql) in VIEWS {
        s.create_materialized_view(name, sql).unwrap();
        let v = s.views().get(name).unwrap();
        assert_eq!(v.shards(), 3, "{name} must shard (fallback: {:?})", v.shard_fallback());
    }
    s.create_materialized_view(RECURSIVE.0, RECURSIVE.1).unwrap();
    assert_eq!(s.views().get(RECURSIVE.0).unwrap().shards(), 1);
    let mut states = Vec::new();
    for step in 0..6 {
        for &(worker, at, strategy) in kills {
            if at == step {
                assert!(s.inject_failure(worker, strategy).unwrap() > 0, "kill w{worker} lost 0");
            }
        }
        let table = if rng.gen_range(0..=1i64) == 0 { "edges" } else { "weights" };
        if rng.gen_range(0..=2i64) == 0 {
            let stored = s.store().get(table).unwrap().rows().to_vec();
            if !stored.is_empty() {
                let victim = stored[rng.gen_range(0..stored.len())].clone();
                s.delete(table, vec![victim]).unwrap();
            }
        } else {
            let rows: Vec<Tuple> =
                (0..rng.gen_range(1..=4i64)).map(|_| random_row(&mut rng, table)).collect();
            s.insert(table, rows).unwrap();
        }
        for (name, _) in VIEWS.iter().chain([&RECURSIVE]) {
            states.push(s.query(&format!("SELECT * FROM {name}")).unwrap().rows);
        }
        assert_eq!(states.last(), Some(&s.query(RECURSIVE.1).unwrap().rows), "seed {seed}");
    }
    states
}

/// The full matrix: every worker × every kill point × both strategies, on
/// every seed, checked after every batch.
#[test]
fn sharded_view_kill_matrix_is_bit_identical() {
    for seed in SEEDS {
        let want = view_stream(seed, &[]);
        for worker in 0..3 {
            for at in [0, 2, 5] {
                for strategy in [RecoveryStrategy::Incremental, RecoveryStrategy::Restart] {
                    let got = view_stream(seed, &[(worker, at, strategy)]);
                    assert_eq!(
                        got, want,
                        "seed {seed}: kill w{worker} before batch {at} under {strategy:?}"
                    );
                }
            }
        }
    }
}

/// Two workers die at different points — the second takes the first's
/// replicas with it, forcing the incremental path through its
/// replay-from-base fallback. Still bit-identical.
#[test]
fn double_fault_mid_stream_is_bit_identical() {
    for seed in SEEDS {
        let want = view_stream(seed, &[]);
        let got = view_stream(
            seed,
            &[(0, 1, RecoveryStrategy::Incremental), (1, 3, RecoveryStrategy::Incremental)],
        );
        assert_eq!(got, want, "seed {seed}: double fault diverged");
        let restart = view_stream(
            seed,
            &[(2, 2, RecoveryStrategy::Restart), (0, 4, RecoveryStrategy::Restart)],
        );
        assert_eq!(restart, want, "seed {seed}: double restart diverged");
    }
}

/// Recovery telemetry actually moves when shards die.
#[test]
fn view_recovery_shows_up_in_metrics() {
    let before = rex::core::faults::counters();
    let _ = view_stream(SEEDS[0], &[(1, 2, RecoveryStrategy::Incremental)]);
    let after = rex::core::faults::counters();
    assert!(after.events_total > before.events_total, "no failure events recorded");
    assert!(after.incrementals_total > before.incrementals_total);
    let mut s = edges_session("cluster");
    s.insert("edges", vec![Tuple::new(vec![Value::Int(1), Value::Int(2)])]).unwrap();
    s.create_materialized_view("d", "SELECT src, count(*) FROM edges GROUP BY src").unwrap();
    s.inject_failure(0, RecoveryStrategy::Incremental).unwrap();
    let m = s.views().get("d").unwrap().shard_stats();
    assert!(m.recoveries > 0, "view-level recovery counter");
}

// ---- query-layer chaos ---------------------------------------------------

/// A seeded random graph over a spine 0→1→…→n-1 (so reachability from 0
/// runs ~n strata — deep enough for genuinely mid-fixpoint kills).
fn graph_catalog(
    seed: u64,
    n: i64,
) -> (rex_storage::catalog::Catalog, rex_rql::SchemaCatalog, Vec<Tuple>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]);
    let mut rows: Vec<Tuple> =
        (0..n - 1).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i + 1)])).collect();
    for _ in 0..n {
        rows.push(Tuple::new(vec![
            Value::Int(rng.gen_range(0..=n - 1)),
            Value::Int(rng.gen_range(0..=n - 1)),
        ]));
    }
    let mut edges = rex_storage::table::StoredTable::new("edges", schema.clone(), vec![0]);
    for r in &rows {
        edges.insert(r.clone()).unwrap();
    }
    let mut seed_t =
        rex_storage::table::StoredTable::new("seed", Schema::of(&[("id", DataType::Int)]), vec![0]);
    seed_t.insert(Tuple::new(vec![Value::Int(0)])).unwrap();
    let cat = rex_storage::catalog::Catalog::new();
    cat.register(edges);
    cat.register(seed_t);
    let mut sc = rex_rql::SchemaCatalog::new();
    sc.register("edges", schema);
    sc.register("seed", Schema::of(&[("id", DataType::Int)]));
    (cat, sc, rows)
}

/// The same data on the single-node engine: the cross-engine oracle.
fn local_rows(rows: &[Tuple], src: &str) -> Vec<Tuple> {
    let mut s = Session::local();
    s.create_table("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)])).unwrap();
    s.create_table("seed", Schema::of(&[("id", DataType::Int)])).unwrap();
    s.insert("edges", rows.to_vec()).unwrap();
    s.insert("seed", vec![Tuple::new(vec![Value::Int(0)])]).unwrap();
    s.query(src).unwrap().rows
}

const REACH: &str = "
    WITH reach (id) AS (
      SELECT id FROM seed
    ) UNION UNTIL FIXPOINT BY id (
      SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id
    )";

/// Sweep thread ceilings: 1 (the requestor drains every worker itself)
/// and 4 (it leases threads for the other shares, as many as the budget
/// grants). Recovery must be bit-identical under both schedules.
const SWEEP_THREADS: [usize; 2] = [1, 4];

/// The paper's iteration-`k` case: a worker dies mid-fixpoint. Every
/// (worker × stratum boundary × strategy) case must reproduce the
/// baseline bit-for-bit, and the baseline must match the local engine.
#[test]
fn recursive_fixpoint_chaos_sweep_is_bit_identical() {
    let reg = rex::core::udf::Registry::with_builtins();
    for seed in [SEEDS[0], SEEDS[1]] {
        let (cat, sc, rows) = graph_catalog(seed, 10);
        let plan = rex_rql::plan_rql(REACH, &sc, &reg).unwrap();
        let local = canon(local_rows(&rows, REACH));
        for threads in SWEEP_THREADS {
            let report = ChaosSweep::new(3).threads(threads).run(&cat, &plan, &reg).unwrap();
            assert!(report.baseline_strata > 3, "seed {seed}: want a real fixpoint");
            assert!(report.injected() > 0, "seed {seed}: no kill fired");
            report.assert_clean();
            assert_eq!(
                canon(report.baseline.clone()),
                local,
                "seed {seed}, {threads} threads: engines disagree before any fault"
            );
        }
    }
}

/// A recursion whose step is a two-table join (two-hop reachability) —
/// a wider per-stratum dataflow than plain reachability, so each kill
/// discards more in-flight join state. Also pins the boundary of the
/// fault model: non-recursive plans have no stratum boundaries, so a
/// sweep over them injects nothing (§4.3 recovery is about iterative
/// state; one-shot plans are simply re-run by the client).
#[test]
fn joined_recursion_sweeps_clean_and_flat_plans_have_no_kill_points() {
    const HOPS: &str = "
        WITH reach (id) AS (
          SELECT id FROM seed
        ) UNION UNTIL FIXPOINT BY id (
          SELECT b.dst FROM edges a, edges b, reach \
           WHERE a.src = reach.id AND a.dst = b.src
        )";
    let reg = rex::core::udf::Registry::with_builtins();
    let (cat, sc, rows) = graph_catalog(SEEDS[2], 12);
    let plan = rex_rql::plan_rql(HOPS, &sc, &reg).unwrap();
    let flat = "SELECT src, count(*), sum(dst) FROM edges GROUP BY src";
    let flat_plan = rex_rql::plan_rql(flat, &sc, &reg).unwrap();
    for threads in SWEEP_THREADS {
        let report = ChaosSweep::new(4).threads(threads).run(&cat, &plan, &reg).unwrap();
        assert!(report.injected() > 0, "{threads} threads: no kill fired");
        report.assert_clean();
        assert_eq!(
            canon(report.baseline.clone()),
            canon(local_rows(&rows, HOPS)),
            "{threads} threads: engines disagree before any fault"
        );

        let sweep = ChaosSweep::new(4).threads(threads).kill_strata(&[0]);
        let report = sweep.run(&cat, &flat_plan, &reg).unwrap();
        assert_eq!(report.injected(), 0, "flat plans must have no stratum boundaries");
        assert!(report.divergent().is_empty(), "un-killed runs must still match");
        assert_eq!(canon(report.baseline.clone()), canon(local_rows(&rows, flat)));
    }
}
