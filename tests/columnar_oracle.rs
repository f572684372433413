//! Batch-form oracle: which form a batch travels in — deltas, bare rows,
//! columns — is an execution detail the engine picks per batch, so there
//! is no knob to sweep. Instead every configuration the engine *does*
//! have (engine × thread count × data seed) must return exactly what the
//! naive reference evaluator in `rex_testkit::reference` computes from
//! the same logical plan: same rows, same order, same float bits. The
//! fixture's doubles are dyadic, so sums are exact in any order and the
//! comparison needs no tolerance.

use rex_testkit::{fill_tkd, reference, session, SEEDS};

/// Query shapes across every batch form: pure stateless chains
/// (scan→filter→project), joins with and without downstream aggregation
/// (a probe-only column batch, and through shard gates at 2 and 4
/// threads), grouped and global aggregates (avg/min/max folded from
/// columns), and top-k (rows above a column-fed aggregate).
const QUERIES: &[&str] = &[
    "SELECT k, a, b FROM t WHERE a > 40",
    "SELECT k, a * 2 + 1, b FROM t WHERE b < 200.0",
    "SELECT t.k, t.b, d.w FROM t, d WHERE t.k = d.k AND t.a > 90",
    "SELECT t.k, d.w FROM t, d WHERE t.k = d.k AND t.a < 90 AND t.k >= 37",
    "SELECT a, count(*), sum(b) FROM t GROUP BY a",
    "SELECT t.a, count(*), sum(t.b * d.w) FROM t, d WHERE t.k = d.k GROUP BY t.a",
    "SELECT avg(b), min(a), max(a) FROM t",
    "SELECT k, b FROM t WHERE a < 50 ORDER BY b, k LIMIT 25",
];

#[test]
fn engines_and_thread_counts_match_the_naive_reference() {
    for seed in SEEDS {
        // The reference reads the same stored rows, through the
        // unoptimized plan.
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
            for threads in [1usize, 2, 4] {
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
