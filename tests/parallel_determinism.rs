//! Parallel execution is an optimization, never an answer change: at any
//! thread count, on either engine, every query and every maintained view
//! must return results *bit-identical* to the single-threaded run — the
//! same rows, the same order, the same float bits.
//!
//! Three paths are under test (seed-swept random data each):
//!
//! * the morsel/shard-parallel local engine (`lower_parallel` + shared
//!   scan cursors + shard-by-key gates),
//! * the cluster drain scheduler (BSP rounds; the requestor drains one
//!   share of the workers and leased threads drain the rest),
//! * materialized-view maintenance, which runs in one creation-order
//!   pass on the writer's thread whatever the session's thread count —
//!   the thread setting must not reach view state.
//!
//! Floats make this strict: a sum folded in a different order gives
//! different low bits, so plain `assert_eq!` on tuples proves the
//! parallel schedules preserve per-group accumulation order, not just
//! set equality.

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::DataType;
use rex::core::value::Value;
use rex::Session;
use rex_data::rng::StdRng;
use rex_testkit::{fill_tkd, session, D_ROWS, SEEDS, THREADS};

/// Queries covering every parallel-lowering shape: the morsel lane
/// (stateless chains), shard gates (joins, group-bys), fallback paths
/// (global aggregates, top-k), and compound expressions.
const QUERIES: &[&str] = &[
    "SELECT k, a + 1, b * 2.0 FROM t WHERE a < 37",
    "SELECT k FROM t WHERE a >= 38 AND a < 45",
    "SELECT a, count(*), sum(b) FROM t GROUP BY a",
    "SELECT t.a, count(*), sum(d.w) FROM t, d WHERE t.k = d.k GROUP BY t.a",
    "SELECT t.k, t.a, d.w FROM t, d WHERE t.k = d.k AND t.a > 90",
    "SELECT count(*), sum(b) FROM t",
    "SELECT k, b FROM t WHERE a < 50 ORDER BY b, k LIMIT 25",
    "SELECT DISTINCT a FROM t WHERE b > 100.0",
];

/// A recursive query: per-key counters race to a bound through the
/// fixpoint operator (stratum-by-stratum on both engines). Known defect:
/// it returns 0 rows, because a keyed fixpoint drops each key once its
/// step stops producing a row, so the check below compares empty results.
/// [`REACHABLE`] is the recursion whose rows are compared.
const RECURSIVE: &str = "WITH R (k, v) AS (\
     SELECT k, 0 AS v FROM seed\
     ) UNION UNTIL FIXPOINT BY k (\
     SELECT k, v + 1 FROM R WHERE v < 4)";

/// A set-semantics recursion with a join in its step: the keys reachable
/// from three seeds along `t`'s `k → a` rows with `b < 10.0`. Its answer
/// is non-empty on every seed, so the check compares real rows.
const REACHABLE: &str = "WITH R (k) AS (SELECT k FROM seed WHERE k < 3) \
     UNION UNTIL FIXPOINT BY k \
     (SELECT t.a FROM R, t WHERE R.k = t.k AND t.b < 10.0)";

fn make(engine: &str, seed: u64) -> Session {
    let mut s = session(engine);
    fill_tkd(&mut s, seed);
    s
}

fn check_engine(engine: &str) {
    for seed in SEEDS {
        let mut s = make(engine, seed);
        for q in QUERIES.iter().chain(&[RECURSIVE, REACHABLE]) {
            s.set_threads(1);
            let want = s.query(q).unwrap().rows;
            if *q == REACHABLE {
                assert!(!want.is_empty(), "{engine}/seed {seed}: {q} is empty");
            }
            for threads in THREADS {
                s.set_threads(threads);
                let got = s.query(q).unwrap().rows;
                assert_eq!(got, want, "{engine}/seed {seed}/{threads} threads diverges on: {q}");
            }
        }
    }
}

#[test]
fn local_engine_parallel_results_are_bit_identical() {
    check_engine("local");
}

#[test]
fn cluster_engine_threaded_results_are_bit_identical() {
    check_engine("cluster");
}

/// View maintenance: sessions that differ only in thread count must hold
/// bit-identical view contents after every random write batch.
#[test]
fn view_maintenance_is_bit_identical_across_thread_counts() {
    let views = [
        "CREATE MATERIALIZED VIEW by_a AS SELECT a, count(*), sum(b) FROM t GROUP BY a",
        "CREATE MATERIALIZED VIEW joined AS \
         SELECT t.a, sum(d.w) FROM t, d WHERE t.k = d.k GROUP BY t.a",
        "CREATE MATERIALIZED VIEW hot AS SELECT k, b FROM t WHERE b > 250.0",
    ];
    for seed in SEEDS {
        let run = |threads: usize| -> Vec<Vec<Tuple>> {
            let mut s = Session::local();
            s.set_threads(threads);
            fill_tkd(&mut s, seed);
            for v in views {
                s.query(v).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut states = Vec::new();
            for _ in 0..4 {
                let batch: Vec<Tuple> = (0..200)
                    .map(|_| {
                        Tuple::new(vec![
                            Value::Int(rng.gen_range(0..=D_ROWS - 1)),
                            Value::Int(rng.gen_range(0..=99i64)),
                            Value::Double(rng.gen_range(0..=999i64) as f64 * 0.37),
                        ])
                    })
                    .collect();
                s.insert("t", batch).unwrap();
                for view in ["by_a", "joined", "hot"] {
                    states.push(s.query(&format!("SELECT * FROM {view}")).unwrap().rows);
                }
            }
            states
        };
        let want = run(1);
        for threads in THREADS {
            assert_eq!(run(threads), want, "seed {seed}/{threads} threads: view state diverges");
        }
    }
}

/// A stateless scan that returns more than 50k rows, shaped like the
/// served `sfp_half` query: every thread's sink hands back a sorted run,
/// and the runs must merge into exactly the single-threaded order.
#[test]
fn large_scan_results_are_bit_identical() {
    const ROWS: usize = 120_000;
    let mut s = Session::local();
    s.create_table(
        "wide",
        Schema::of(&[("k", DataType::Int), ("a", DataType::Int), ("b", DataType::Double)]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(SEEDS[0]);
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| {
            Tuple::new(vec![
                Value::Int((i % 20_000) as i64),
                Value::Int(rng.gen_range(0..=99i64)),
                Value::Double(rng.gen_range(0..=999i64) as f64 * 0.25),
            ])
        })
        .collect();
    s.insert("wide", rows).unwrap();
    let q = "SELECT k, a + 1, b * 2.0 FROM wide WHERE a < 50 AND k >= 100";
    s.set_threads(1);
    let want = s.query(q).unwrap().rows;
    assert!(want.len() >= 50_000, "{} rows", want.len());
    for threads in [2, 4] {
        s.set_threads(threads);
        assert_eq!(s.query(q).unwrap().rows, want, "{threads} threads diverge on: {q}");
    }
}
