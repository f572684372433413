//! A FROM list of any length plans as keyed joins, never as the cross
//! product filtered afterwards. Chains, stars, a cross join kept on
//! purpose and a three-item FROM inside a fixpoint step must answer what
//! the naive reference answers for the same text with every equality
//! written `x + 0 = y` — a form the planner never takes as a join key, so
//! the oracle joins by filtering the full cross product. Each shape runs
//! on both engines at 1 and 4 threads, as a query and as a materialized
//! view maintained through a seeded insert/delete stream.

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::Session;
use rex_data::rng::StdRng;
use rex_testkit::{reference, session, SEEDS};
use std::collections::BTreeSet;

/// `(name, columns)` of the fixture tables. Every column draws from
/// `0..DOMAIN`, so each equality both matches and misses.
const TABLES: [(&str, [&str; 2]); 4] =
    [("r", ["k", "a"]), ("s", ["k", "b"]), ("u", ["a", "c"]), ("w", ["b", "x"])];
const DOMAIN: i64 = 6;
/// Rows per table before the stream starts: small enough for the
/// reference's four-way cross product.
const FILL: usize = 12;
const BATCHES: usize = 8;

/// Each shape with the number of cross joins its plan must keep.
const SHAPES: &[(&str, usize)] = &[
    // Chain of three: each item keys on the item before it.
    ("SELECT r.k, s.b, u.c FROM r, s, u WHERE r.k = s.k AND s.b = u.a", 0),
    // Chain of four, equalities written in neither FROM nor column order.
    ("SELECT r.a, w.x FROM r, s, u, w WHERE w.b = s.b AND u.a = r.a AND s.k = r.k", 0),
    // Star around the first item, one arm on a two-column key, one
    // arm filtered on its own column.
    (
        "SELECT r.k, s.b, u.c, w.x FROM r, s, u, w \
         WHERE r.k = s.k AND r.a = s.b AND r.a = u.a AND r.k = w.b AND u.c < 4",
        0,
    ),
    // No equality straddles r | u, so that step stays a cross join; the
    // next step keys on s.
    ("SELECT r.k, u.c, s.b FROM r, u, s WHERE r.k = s.k AND r.a < u.c", 1),
    // Three items under a group-by.
    ("SELECT r.k, count(*), sum(u.c) FROM r, s, u WHERE r.k = s.k AND s.b = u.a GROUP BY r.k", 0),
];

/// Reachability from keys 0 and 1 along `r.k → r.a → u.c`, with a
/// three-item FROM in the step (set semantics: `FIXPOINT BY` names every
/// column).
const RECURSIVE: &str = "WITH R (k) AS (SELECT k FROM r WHERE k < 2) UNION UNTIL FIXPOINT BY k \
                         (SELECT u.c FROM R, r, u WHERE R.k = r.k AND r.a = u.a)";

/// `q` with every equality written `x + 0 = y`: the planner keys none of
/// them, so every join is a cross join under a filter.
fn unkeyed(q: &str) -> String {
    q.replace(" = ", " + 0 = ")
}

/// One committed write of the stream.
enum Write {
    Insert(&'static str, Vec<Tuple>),
    Delete(&'static str, Vec<Tuple>),
}

impl Write {
    fn apply(&self, s: &mut Session) {
        match self {
            Write::Insert(t, rows) => s.insert(t, rows.clone()).map(drop),
            Write::Delete(t, rows) => s.delete(t, rows.clone()).map(drop),
        }
        .unwrap();
    }
}

fn row(rng: &mut StdRng) -> Tuple {
    Tuple::new(vec![
        Value::Int(rng.gen_range(0..=DOMAIN - 1)),
        Value::Int(rng.gen_range(0..=DOMAIN - 1)),
    ])
}

/// The seeded write stream: a fill of every table, then batches that
/// insert into or delete stored rows from one table each.
fn stream(seed: u64) -> Vec<Write> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Vec<Tuple>> = vec![Vec::new(); TABLES.len()];
    let mut out = Vec::new();
    for (i, (t, _)) in TABLES.iter().enumerate() {
        live[i] = (0..FILL).map(|_| row(&mut rng)).collect();
        out.push(Write::Insert(t, live[i].clone()));
    }
    for _ in 0..BATCHES {
        let i = rng.gen_range(0..TABLES.len());
        let n = rng.gen_range(1..4usize);
        if rng.gen_range(0..3usize) == 0 && live[i].len() > n {
            let table = &mut live[i];
            let gone = (0..n).map(|_| table.swap_remove(rng.gen_range(0..table.len())));
            out.push(Write::Delete(TABLES[i].0, gone.collect()));
        } else {
            let rows: Vec<Tuple> = (0..n).map(|_| row(&mut rng)).collect();
            live[i].extend(rows.iter().cloned());
            out.push(Write::Insert(TABLES[i].0, rows));
        }
    }
    out
}

fn empty_session(engine: &str, threads: usize) -> Session {
    let mut s = session(engine);
    s.set_threads(threads);
    for (t, [c0, c1]) in TABLES {
        s.create_table(t, Schema::of(&[(c0, DataType::Int), (c1, DataType::Int)])).unwrap();
    }
    s
}

/// The reference's answer for every shape, and a hand-computed
/// reachability set for [`RECURSIVE`], over `s`'s tables.
fn oracle(s: &Session) -> (Vec<Vec<Tuple>>, Vec<Tuple>) {
    let shapes = SHAPES
        .iter()
        .map(|(q, _)| {
            let plan = s.plan(&unkeyed(q)).unwrap();
            reference::evaluate(&plan, s.store(), s.registry()).unwrap()
        })
        .collect();
    let rows = |t: &str| -> Vec<(i64, i64)> {
        let table = s.store().get(t).unwrap();
        table
            .rows()
            .iter()
            .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
            .collect()
    };
    let (r, u) = (rows("r"), rows("u"));
    let mut reach: BTreeSet<i64> = r.iter().map(|&(k, _)| k).filter(|&k| k < 2).collect();
    loop {
        let next: BTreeSet<i64> = r
            .iter()
            .filter(|(k, _)| reach.contains(k))
            .flat_map(|&(_, a)| u.iter().filter(move |&&(ua, _)| ua == a).map(|&(_, c)| c))
            .filter(|c| !reach.contains(c))
            .collect();
        if next.is_empty() {
            break;
        }
        reach.extend(next);
    }
    (shapes, reach.into_iter().map(|k| Tuple::new(vec![Value::Int(k)])).collect())
}

/// The optimized plan's lines of `EXPLAIN <q>`.
fn optimized_plan(s: &mut Session, q: &str) -> Vec<String> {
    let text = s.explain(q).unwrap();
    let start = text.find("== optimized ==").unwrap();
    let end = text.find("== estimate ==").unwrap();
    text[start..end].lines().map(str::to_string).collect()
}

#[test]
fn every_from_item_after_the_first_is_keyed_where_an_equality_straddles() {
    let mut s = empty_session("local", 1);
    for &(q, cross) in SHAPES.iter().chain([(RECURSIVE, 0)].iter()) {
        let plan = optimized_plan(&mut s, q);
        let count = |plan: &[String], what: &str| plan.iter().filter(|l| l.contains(what)).count();
        assert_eq!(count(&plan, "Join on []=[]"), cross, "{q}: {plan:#?}");
        // The oracle's text joins the same items, every one a cross join.
        let held = optimized_plan(&mut s, &unkeyed(q));
        assert_eq!(count(&held, "Join on []=[]"), count(&plan, "Join"), "{q}: {held:#?}");
    }
}

#[test]
fn n_way_joins_match_the_naive_reference_as_queries_and_views() {
    for seed in SEEDS {
        let writes = stream(seed);
        // The oracle's answers after the fill and after every batch.
        let mut base = empty_session("local", 1);
        let mut want = Vec::new();
        for (i, w) in writes.iter().enumerate() {
            w.apply(&mut base);
            if i + 1 >= TABLES.len() {
                want.push(oracle(&base));
            }
        }
        let (first, _) = &want[0];
        assert!(first.iter().all(|rows| !rows.is_empty()), "vacuous fill for seed {seed}");
        assert!(want[0].1.len() > 2, "seed {seed}: recursion must reach past its base");

        for engine in ["local", "cluster"] {
            for threads in [1usize, 4] {
                let ctx = format!("{engine}/seed {seed}/{threads} threads");
                let mut s = empty_session(engine, threads);
                for w in &writes[..TABLES.len()] {
                    w.apply(&mut s);
                }
                for (i, (q, _)) in SHAPES.iter().enumerate() {
                    s.create_materialized_view(&format!("v{i}"), q).unwrap();
                }
                s.create_materialized_view("reach", RECURSIVE).unwrap();
                for v in s.view_names() {
                    assert!(s.view_strategy(&v).unwrap().contains("incremental"), "{ctx}: {v}");
                }
                for (step, (shapes, reach)) in want.iter().enumerate() {
                    if step > 0 {
                        writes[TABLES.len() + step - 1].apply(&mut s);
                    }
                    for (i, ((q, _), rows)) in SHAPES.iter().zip(shapes).enumerate() {
                        assert_eq!(&s.query(q).unwrap().rows, rows, "{ctx}/step {step}: {q}");
                        let view = s.store().get(&format!("v{i}")).unwrap().rows().to_vec();
                        assert_eq!(&view, rows, "{ctx}/step {step}: view of {q}");
                    }
                    assert_eq!(&s.query(RECURSIVE).unwrap().rows, reach, "{ctx}/step {step}");
                    let view = s.store().get("reach").unwrap().rows().to_vec();
                    assert_eq!(&view, reach, "{ctx}/step {step}: recursive view");
                }
            }
        }
    }
}
