//! Filter pushdown below joins moves where a predicate runs, never what a
//! query returns. Every engine × thread count must still match the naive
//! reference evaluator, which reads the *unoptimized* plan (filters above
//! the join), for one-sided, two-sided and UDF predicates; a join inside a
//! fixpoint step must reach the same fixpoint with its filters pushed as
//! with them held above the join; and a materialized view maintains the
//! pushed plan, so its join state holds only the rows that pass.

use rex::views::MaterializedView;
use rex::Session;
use rex_testkit::{fill_tkd, reference, session, SEEDS};
use std::collections::BTreeSet;

const QUERIES: &[&str] = &[
    // One-sided, left input.
    "SELECT t.k, t.a, d.w FROM t, d WHERE t.k = d.k AND t.a < 30",
    // One-sided, right input: the predicate's column is renumbered.
    "SELECT t.k, t.b, d.w FROM t, d WHERE t.k = d.k AND d.w > 300.0",
    // One predicate per side, under a group-by (the served join_group shape).
    "SELECT t.a, count(*), sum(d.w) FROM t, d \
     WHERE t.k = d.k AND t.a < 50 AND d.k >= 100 GROUP BY t.a",
    // Two-sided: stays above the join.
    "SELECT t.k, t.b, d.w FROM t, d WHERE t.k = d.k AND t.b > d.w",
    // A UDF predicate stays where rank ordering puts it; its cheap
    // neighbour still moves.
    "SELECT t.k, t.a FROM t, d WHERE t.k = d.k AND sqrt(d.w) > 12.0 AND t.a > 80",
];

#[test]
fn pushed_filters_match_the_naive_reference() {
    for seed in SEEDS {
        let mut base = session("local");
        fill_tkd(&mut base, seed);
        let want: Vec<_> = QUERIES
            .iter()
            .map(|q| {
                reference::evaluate(&base.plan(q).unwrap(), base.store(), base.registry()).unwrap()
            })
            .collect();
        assert!(want.iter().all(|r| !r.is_empty()), "vacuous sweep for seed {seed}");
        for engine in ["local", "cluster"] {
            for threads in [1usize, 4] {
                let mut s = session(engine);
                s.set_threads(threads);
                fill_tkd(&mut s, seed);
                for (q, want) in QUERIES.iter().zip(&want) {
                    let got = s.query(q).unwrap().rows;
                    assert_eq!(&got, want, "{engine}/seed {seed}/{threads} threads: {q}");
                }
            }
        }
    }
}

/// The rendered plan of `EXPLAIN <q>`, one line per operator.
fn explain(s: &mut Session, q: &str) -> Vec<String> {
    let r = s.query(&format!("EXPLAIN {q}")).unwrap();
    r.rows.iter().map(|t| t.get(0).as_str().unwrap().to_string()).collect()
}

#[test]
fn explain_shows_both_one_sided_filters_under_the_join() {
    let mut s = session("local");
    fill_tkd(&mut s, SEEDS[0]);
    let lines = explain(
        &mut s,
        "SELECT t.a, count(*), sum(t.b) FROM t, d WHERE t.k = d.k AND t.a < 90 AND t.k >= 10 \
         GROUP BY t.a",
    );
    let optimized = lines.iter().position(|l| l.contains("== optimized ==")).unwrap();
    let section = &lines[optimized..];
    let join = section.iter().position(|l| l.contains("Join")).expect("join in plan");
    let filters: Vec<usize> =
        (0..section.len()).filter(|&i| section[i].contains("Filter")).collect();
    assert_eq!(filters.len(), 2, "{lines:#?}");
    let depth = |l: &str| l.len() - l.trim_start().len();
    for &f in &filters {
        assert!(f > join && depth(&section[f]) > depth(&section[join]), "{lines:#?}");
    }
    // The unoptimized plan holds them above.
    let logical = &lines[..optimized];
    let join = logical.iter().position(|l| l.contains("Join")).unwrap();
    assert!(logical[..join].iter().filter(|l| l.contains("Filter")).count() == 2, "{lines:#?}");
}

#[test]
fn views_maintain_the_optimized_plan() {
    const VIEW: &str = "SELECT t.k, t.a, d.w FROM t, d WHERE t.k = d.k AND t.a > 90";
    let mut s = session("local");
    fill_tkd(&mut s, SEEDS[0]);
    let lines = explain(&mut s, &format!("CREATE MATERIALIZED VIEW big AS {VIEW}"));
    let optimized = lines.iter().position(|l| l.contains("== optimized ==")).unwrap();
    let section = &lines[optimized..];
    let join = section.iter().position(|l| l.contains("Join")).expect("join in plan");
    let filter = section.iter().position(|l| l.contains("Filter")).expect("filter in plan");
    let depth = |l: &str| l.len() - l.trim_start().len();
    assert!(filter > join && depth(&section[filter]) > depth(&section[join]), "{lines:#?}");

    // The view keeps only the rows that pass the pushed filter in its
    // join state; the same plan defined raw keeps all of `t`.
    s.create_materialized_view("big", VIEW).unwrap();
    let mut raw = MaterializedView::define("raw", VIEW, s.plan(VIEW).unwrap(), s.registry());
    raw.prime(s.store(), s.registry()).unwrap();
    let pushed = s.views().get("big").unwrap().state_bytes();
    assert!(pushed < raw.state_bytes(), "{pushed} vs raw {}", raw.state_bytes());
    let want = reference::evaluate(&s.plan(VIEW).unwrap(), s.store(), s.registry()).unwrap();
    assert!(!want.is_empty());
    assert_eq!(s.store().get("big").unwrap().rows(), &want[..]);
    assert_eq!(s.store().get("raw").unwrap().rows(), &want[..]);
}

/// Reachability from keys 0 and 1 over `t`'s `k → a` edges that pass
/// `a < 30` and `b > 200` and do not leave key 7, computed by hand from
/// the stored rows.
fn reachable(s: &Session) -> BTreeSet<i64> {
    let edges: Vec<(i64, i64)> = s
        .store()
        .get("t")
        .unwrap()
        .rows()
        .iter()
        .filter(|t| t.get(1).as_int().unwrap() < 30 && t.get(2).as_double().unwrap() > 200.0)
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .filter(|&(k, _)| k != 7)
        .collect();
    let mut seen: BTreeSet<i64> = [0, 1].into();
    loop {
        let next: Vec<i64> = edges
            .iter()
            .filter(|(k, a)| seen.contains(k) && !seen.contains(a))
            .map(|&(_, a)| a)
            .collect();
        if next.is_empty() {
            return seen;
        }
        seen.extend(next);
    }
}

#[test]
fn a_join_in_a_fixpoint_step_reaches_the_same_fixpoint() {
    // The first step's predicates are one-sided and sink below the join,
    // `R.k <> 7`'s onto the recursive input; the second spells the same
    // predicates two-sided (`+ 0 * ...`), which holds them above it.
    let pushed = "WITH R (k) AS (SELECT k FROM seed WHERE k < 2) UNION UNTIL FIXPOINT BY k (\
                  SELECT t.a FROM R, t WHERE R.k = t.k AND t.a < 30 AND t.b > 200.0 \
                  AND R.k <> 7)";
    let held = "WITH R (k) AS (SELECT k FROM seed WHERE k < 2) UNION UNTIL FIXPOINT BY k (\
                SELECT t.a FROM R, t WHERE R.k = t.k AND t.a < 30 + 0 * R.k \
                AND t.b > 200.0 + 0 * R.k AND R.k + 0 * t.a <> 7)";
    for seed in SEEDS {
        for engine in ["local", "cluster"] {
            let mut s = session(engine);
            fill_tkd(&mut s, seed);
            let plan = explain(&mut s, pushed);
            let optimized = plan.iter().position(|l| l.contains("== optimized ==")).unwrap();
            assert!(
                plan[optimized..]
                    .windows(2)
                    .any(|w| w[0].contains("Filter Bin(Ne") && w[1].contains("FixpointRef")),
                "{plan:#?}"
            );
            let want = reachable(&s);
            assert!(want.len() > 2, "{engine}/seed {seed}: {want:?}");
            for q in [pushed, held] {
                let got: BTreeSet<i64> =
                    s.query(q).unwrap().rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
                assert_eq!(got, want, "{engine}/seed {seed}: {q}");
            }
        }
    }
}
