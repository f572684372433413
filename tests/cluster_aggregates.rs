//! Cluster aggregates combine before the exchange: a partial group-by on
//! each worker ships one row per touched group per stratum, and a merging
//! group-by past the `Rehash` (or `Gather`) folds them. The split must be
//! exact under Z-set semantics, so every shape here runs on
//! `Session::cluster(4)` and `Session::local()`, each at 1 and 4 threads,
//! and must return exactly what a naive evaluator returns:
//!
//! * keyed and global `sum`, `count(*)`, `count(col)` and `avg` over
//!   dyadic doubles (exact in any addition order);
//! * recursions whose step aggregates over a join with the recursive
//!   relation under a filter on its value, so the aggregate receives
//!   `→(t')` when a value changes and `-()` when it crosses the filter,
//!   and groups whose last row goes are retracted from the relation.
//!
//! Listing 1 on the cluster must show the partial in front of `Rehash[0]`
//! and ship at most 20k rows through it (205,712 uncombined).

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::Session;
use rex_data::rng::StdRng;
use rex_testkit::{reference, SEEDS};
use std::collections::{BTreeMap, BTreeSet};

const NODES: i64 = 40;
/// Rows of `t(g, x)`, over `GROUPS` groups.
const T_ROWS: usize = 300;
const GROUPS: i64 = 12;

/// Seeded fixture: a weighted DAG `e(src, dst, w)` (every edge climbs, so
/// each recursion converges within `NODES` strata), start values
/// `base(k, v)` and a flat `t(g, x)`, every double a multiple of 0.5.
struct Fixture {
    edges: Vec<(i64, i64, f64)>,
    base: BTreeMap<i64, f64>,
    t: Vec<Tuple>,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dsts = BTreeSet::new();
        for src in 0..NODES - 1 {
            for _ in 0..rng.gen_range(1..=3i64) {
                dsts.insert((src, (src + rng.gen_range(1..=4i64)).min(NODES - 1)));
            }
        }
        let edges =
            dsts.into_iter().map(|(s, d)| (s, d, rng.gen_range(1..=16i64) as f64 * 0.5)).collect();
        let base = (0..NODES).map(|k| (k, rng.gen_range(1..=6i64) as f64 * 0.5)).collect();
        let t = (0..T_ROWS)
            .map(|_| {
                let g = Value::Int(rng.gen_range(0..=GROUPS - 1));
                Tuple::new(vec![g, Value::Double(rng.gen_range(1..=9i64) as f64 * 0.5)])
            })
            .collect();
        Fixture { edges, base, t }
    }

    fn load(&self, s: &mut Session) {
        s.create_table(
            "e",
            Schema::of(&[("src", DataType::Int), ("dst", DataType::Int), ("w", DataType::Double)]),
        )
        .unwrap();
        s.create_table("base", Schema::of(&[("k", DataType::Int), ("v", DataType::Double)]))
            .unwrap();
        s.create_table("t", Schema::of(&[("g", DataType::Int), ("x", DataType::Double)])).unwrap();
        let edges = self
            .edges
            .iter()
            .map(|&(a, b, w)| Tuple::new(vec![Value::Int(a), Value::Int(b), Value::Double(w)]));
        s.insert("e", edges.collect()).unwrap();
        let base =
            self.base.iter().map(|(&k, &v)| Tuple::new(vec![Value::Int(k), Value::Double(v)]));
        s.insert("base", base.collect()).unwrap();
        s.insert("t", self.t.clone()).unwrap();
    }

    /// The rows `(e.dst, R.v, e.w)` a step aggregates over `r`.
    fn step_rows(&self, r: &BTreeMap<i64, f64>, limit: f64) -> Vec<(i64, f64, f64)> {
        let live = |s: &i64| r.get(s).copied().filter(|v| *v < limit);
        self.edges.iter().filter_map(|(s, d, w)| live(s).map(|v| (*d, v, *w))).collect()
    }

    /// The fixpoint the engines reach: each stratum replaces the value of
    /// every key the step produces, deletes every key whose group the step
    /// stopped producing (its last row went), and converges when nothing
    /// changes. Returns the relation and how many keys were retracted.
    fn fixpoint(&self, step: Step) -> (Vec<Tuple>, usize) {
        let mut r = self.base.clone();
        let mut produced: BTreeSet<i64> = BTreeSet::new();
        let mut retracted = 0;
        loop {
            let out = step.apply(&self.step_rows(&r, step.limit()));
            let mut next = r.clone();
            for k in produced.iter().filter(|k| !out.contains_key(k)) {
                next.remove(k);
                retracted += 1;
            }
            next.extend(&out);
            produced = out.into_keys().collect();
            if next == r {
                let rows =
                    r.into_iter().map(|(k, v)| Tuple::new(vec![Value::Int(k), Value::Double(v)]));
                return (rows.collect(), retracted);
            }
            r = next;
        }
    }
}

/// The aggregate a recursion's step computes per `e.dst`.
#[derive(Clone, Copy, Debug)]
enum Step {
    Sum,
    CountStar,
    CountCol,
    Avg,
}

impl Step {
    /// The step keeps a source's row only while its value is below this.
    fn limit(self) -> f64 {
        match self {
            Step::CountStar | Step::CountCol => 3.0,
            Step::Sum | Step::Avg => 6.0,
        }
    }

    fn rql(self) -> String {
        let agg = match self {
            Step::Sum => "sum(R.v)",
            Step::CountStar => "1.0 * count(*)",
            Step::CountCol => "1.0 * count(R.v)",
            // Averages of the stored weights: a quotient of an exact sum,
            // never summed again, so the relation stays exact.
            Step::Avg => "avg(e.w)",
        };
        format!(
            "WITH R (k, v) AS (SELECT k, v FROM base) UNION UNTIL FIXPOINT BY k (\
             SELECT e.dst, {agg} FROM e, R WHERE e.src = R.k AND R.v < {:.1} GROUP BY e.dst)",
            self.limit()
        )
    }

    fn apply(self, rows: &[(i64, f64, f64)]) -> BTreeMap<i64, f64> {
        let mut groups: BTreeMap<i64, (f64, f64, f64)> = BTreeMap::new();
        for &(d, v, w) in rows {
            let g = groups.entry(d).or_default();
            *g = (g.0 + 1.0, g.1 + v, g.2 + w);
        }
        groups
            .into_iter()
            .map(|(d, (n, sum_v, sum_w))| {
                let v = match self {
                    Step::Sum => sum_v,
                    Step::CountStar | Step::CountCol => n,
                    Step::Avg => sum_w / n,
                };
                (d, v)
            })
            .collect()
    }
}

/// Flat shapes: keyed on a column `t` is not partitioned by, keyed on the
/// one it is (no exchange at all), global, and keyed over a join.
const FLAT: &[&str] = &[
    "SELECT x, sum(g), count(*), count(x), avg(g) FROM t GROUP BY x",
    "SELECT g, sum(x), count(*), count(x), avg(x) FROM t GROUP BY g",
    "SELECT sum(x), count(*), count(x), avg(x) FROM t",
    "SELECT e.dst, sum(base.v), count(*), avg(base.v) FROM e, base WHERE e.src = base.k GROUP BY e.dst",
    "SELECT sum(base.v), count(base.v) FROM e, base WHERE e.src = base.k AND base.v > 1.0",
];

/// Both engines at 1 and 4 threads, loaded with `fx`.
fn sessions(fx: &Fixture) -> Vec<(String, Session)> {
    let mut out = Vec::new();
    for threads in [1, 4] {
        for (name, mut s) in [("local", Session::local()), ("cluster", Session::cluster(4))] {
            s.set_threads(threads);
            fx.load(&mut s);
            out.push((format!("{name}@{threads}"), s));
        }
    }
    out
}

/// Names of the operators `q` ran through on `s`.
fn operators(s: &mut Session, q: &str) -> Vec<String> {
    s.set_telemetry(true);
    let r = s.query(q).unwrap();
    s.set_telemetry(false);
    r.trace.expect("trace").ops.into_iter().map(|o| o.name).collect()
}

#[test]
fn flat_cluster_aggregates_match_the_naive_reference() {
    for seed in SEEDS {
        let fx = Fixture::new(seed);
        let mut oracle = Session::local();
        fx.load(&mut oracle);
        for (engine, mut s) in sessions(&fx) {
            for q in FLAT {
                let plan = oracle.plan(q).unwrap();
                let want = reference::evaluate(&plan, oracle.store(), oracle.registry()).unwrap();
                assert_eq!(s.query(q).unwrap().rows, want, "seed {seed} {engine}: {q}");
            }
            if engine.starts_with("cluster") {
                // `t` is stored partitioned on `g`: grouping on it needs no
                // exchange, so nothing is combined either.
                let ops = operators(&mut s, FLAT[1]);
                assert!(!ops.iter().any(|o| o.starts_with("Rehash")), "{ops:?}");
                for q in [FLAT[0], FLAT[2], FLAT[3]] {
                    let ops = operators(&mut s, q);
                    assert!(ops.iter().any(|o| o.ends_with(" partial")), "{q}: {ops:?}");
                }
            }
        }
    }
}

#[test]
fn recursive_aggregates_with_retractions_match_the_naive_fixpoint() {
    for seed in SEEDS {
        let fx = Fixture::new(seed);
        let mut sessions = sessions(&fx);
        for step in [Step::Sum, Step::CountStar, Step::CountCol, Step::Avg] {
            let (want, retracted) = fx.fixpoint(step);
            let q = step.rql();
            assert!(retracted > 0, "seed {seed} {step:?}: the fixture must retract a group");
            for (engine, s) in &mut sessions {
                let r = s.query(&q).unwrap();
                assert_eq!(r.rows, want, "seed {seed} {engine} {step:?}");
                if engine.starts_with("cluster") {
                    let ops = operators(s, &q);
                    assert!(ops.iter().any(|o| o.ends_with(" partial")), "{step:?}: {ops:?}");
                }
            }
        }
    }
}

/// Listing 1 on the cluster, over the `recursive_fixpoint` graph shape:
/// the partial `sum` sits in front of `Rehash[0]`, and its rows into the
/// exchange are one per touched group per stratum, not one per `PRAgg`
/// output (205,712 uncombined).
#[test]
fn listing1_on_the_cluster_combines_before_the_rehash() {
    use rex::algos::pagerank::PrAgg;
    use rex::core::handlers::FlippedJoin;
    use rex::data::graph::{generate_graph, Graph, GraphSpec};
    use std::sync::Arc;
    const LISTING1: &str = "WITH PR (srcId, pr) AS (SELECT srcId, 1.0 AS pr FROM graph) \
         UNION UNTIL FIXPOINT BY srcId (\
         SELECT nbr, 0.15 + 0.85 * sum(prDiff) \
         FROM (SELECT PRAgg(srcId, pr).{nbr, prDiff} FROM graph, PR WHERE graph.srcId = PR.srcId) \
         GROUP BY nbr)";
    let graph = generate_graph(GraphSpec::twitter(2_000, 11));
    let mut s = Session::cluster(4);
    s.create_table("graph", Graph::schema()).unwrap();
    s.insert("graph", graph.edge_tuples()).unwrap();
    s.register_join("PRAgg", Arc::new(FlippedJoin(Arc::new(PrAgg::delta(0.01)))));
    let r = s.query(&format!("EXPLAIN ANALYZE {LISTING1}")).unwrap();
    let trace = r.trace.as_ref().expect("trace");
    let text = trace.render();
    let partial = trace.ops.iter().position(|o| o.name == "GroupBy[sum] partial").expect(&text);
    let exchange = trace.edges[partial]
        .iter()
        .map(|&(_, dst, _)| dst)
        .find(|&d| trace.ops[d].name == "Rehash[0]")
        .expect(&text);
    let shipped = trace.ops[exchange].rows_in;
    assert!(shipped > 0 && shipped <= 20_000, "{shipped} rows into the exchange\n{text}");
    let merge = trace.edges[exchange].iter().map(|&(_, dst, _)| dst).next().expect(&text);
    assert_eq!(trace.ops[merge].name, "GroupBy[sum] merge", "{text}");
}
