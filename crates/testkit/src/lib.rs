//! # rex-testkit
//!
//! Shared fixtures and oracles for REX's integration tests. This crate is
//! a **dev-dependency only**: it exists so the seed-sweep scaffolding that
//! `tests/parallel_determinism.rs`, `tests/incremental_views.rs`,
//! `crates/server/tests/concurrent.rs`, and `tests/fault_recovery.rs` all
//! need lives in one place instead of being copied per test file.
//!
//! What lives here and why:
//!
//! * **sweep constants** — [`SEEDS`]/[`THREADS`], the canonical seed and
//!   thread-count matrices every determinism sweep iterates;
//! * **sessions and fixtures** — [`session`] (engine by name),
//!   [`fill_tkd`] (the `t`/`d`/`seed` random fixture big enough to engage
//!   parallel lowering), [`edges_session`]/[`random_row`] (the
//!   `edges`/`weights` IVM fixture);
//! * **oracles** — [`mod@reference`] (a naive evaluator over logical plans:
//!   nested-loop joins, `BTreeMap` groups, row-at-a-time expressions — the
//!   independent answer engine sweeps compare against, exactly),
//!   [`assert_rows_close`] (bag equality, doubles to relative tolerance),
//!   [`canon`] (canonical row order for queries with no ORDER BY);
//! * **determinism** — [`XorShift`], the tiny seedable RNG used where
//!   per-thread streams must be reproducible without `rex-data`'s heavier
//!   generator.

pub mod reference;

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::Session;
use rex_data::rng::StdRng;

/// The canonical seed matrix for seed-swept properties.
pub const SEEDS: [u64; 3] = [11, 29, 47];

/// The canonical thread-count matrix for parallel determinism sweeps.
pub const THREADS: [usize; 3] = [2, 4, 8];

/// Rows for the base table `t` in [`fill_tkd`]: > PARALLEL_ROWS_MIN so
/// the local engine's parallel lowering actually engages.
pub const T_ROWS: usize = 8192;

/// Distinct join keys in the `t`/`d` fixture.
pub const D_ROWS: i64 = 256;

/// A session for the named engine: `"cluster"` → a 3-worker simulated
/// cluster, anything else → the single-node engine.
pub fn session(engine: &str) -> Session {
    session_n(engine, 3)
}

/// Like [`session`], with an explicit cluster size.
pub fn session_n(engine: &str, workers: usize) -> Session {
    match engine {
        "cluster" => Session::cluster(workers),
        _ => Session::local(),
    }
}

/// Create and fill the `t(k, a, b)` / `d(k, w)` / `seed(k)` fixture with
/// seed-deterministic random data: `t` is big enough to engage parallel
/// lowering, `d` joins on `k`, `seed` feeds recursive queries.
pub fn fill_tkd(s: &mut Session, seed: u64) {
    s.create_table(
        "t",
        Schema::of(&[("k", DataType::Int), ("a", DataType::Int), ("b", DataType::Double)]),
    )
    .unwrap();
    s.create_table("d", Schema::of(&[("k", DataType::Int), ("w", DataType::Double)])).unwrap();
    s.create_table("seed", Schema::of(&[("k", DataType::Int)])).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let t: Vec<Tuple> = (0..T_ROWS).map(|i| tkd_row(&mut rng, i)).collect();
    s.insert("t", t).unwrap();
    let d: Vec<Tuple> = (0..D_ROWS)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Double(k as f64 * 1.5)]))
        .collect();
    s.insert("d", d).unwrap();
    let seeds: Vec<Tuple> = (0..40i64).map(|k| Tuple::new(vec![Value::Int(k)])).collect();
    s.insert("seed", seeds).unwrap();
}

/// One random `t` row for the [`fill_tkd`] fixture; `i` keys it onto one
/// of the `D_ROWS` join keys. Doubles are dyadic (`n * 0.25`, like `d.w`'s
/// `k * 1.5`), so sums and products of them are exact in any order and
/// engines can be compared with the [`mod@reference`] bit for bit.
pub fn tkd_row(rng: &mut StdRng, i: usize) -> Tuple {
    Tuple::new(vec![
        Value::Int((i as i64) % D_ROWS),
        Value::Int(rng.gen_range(0..=99i64)),
        Value::Double(rng.gen_range(0..=999i64) as f64 * 0.25),
    ])
}

/// A session pre-seeded with the IVM fixture tables
/// `edges(src, dst)` / `weights(node, weight)`.
pub fn edges_session(engine: &str) -> Session {
    let mut s = session(engine);
    s.create_table("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)])).unwrap();
    s.create_table("weights", Schema::of(&[("node", DataType::Int), ("weight", DataType::Double)]))
        .unwrap();
    s
}

/// A random row for the `edges` or `weights` table of [`edges_session`].
/// Weights are dyadic (`k * 0.25`) so sums stay exact under reordering.
pub fn random_row(rng: &mut StdRng, table: &str) -> Tuple {
    match table {
        "edges" => Tuple::new(vec![
            Value::Int(rng.gen_range(0..=7i64)),
            Value::Int(rng.gen_range(0..=5i64)),
        ]),
        _ => Tuple::new(vec![
            Value::Int(rng.gen_range(0..=5i64)),
            Value::Double((rng.gen_range(1..=19i64)) as f64 * 0.25),
        ]),
    }
}

/// Compare bags of rows: identical shape, Int/Null exact, doubles to 1e-9
/// relative tolerance (incremental maintenance may sum in another order
/// than a scan-ordered recompute).
pub fn assert_rows_close(got: &[Tuple], want: &[Tuple], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: cardinality\n got: {got:?}\nwant: {want:?}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.arity(), w.arity(), "{ctx}: arity of {g} vs {w}");
        for i in 0..g.arity() {
            match (g.get(i), w.get(i)) {
                (Value::Double(a), Value::Double(b)) => {
                    let scale = b.abs().max(1.0);
                    assert!(
                        (a - b).abs() <= 1e-9 * scale,
                        "{ctx}: col {i}: {a} vs {b} in {g} vs {w}"
                    );
                }
                (a, b) => assert_eq!(a, b, "{ctx}: col {i} of {g} vs {w}"),
            }
        }
    }
}

/// Sort rows into a canonical order for comparison (for queries with no
/// ORDER BY, where presentation order is arbitrary).
pub fn canon(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// Tiny deterministic RNG for tests that need many independent cheap
/// streams (one per reader thread, say) without threading `StdRng` around.
pub struct XorShift(pub u64);

impl XorShift {
    /// Next value of the xorshift64 sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_seed_deterministic() {
        let rows = |seed| {
            let mut s = session("local");
            fill_tkd(&mut s, seed);
            s.query("SELECT * FROM t ORDER BY k, a, b").unwrap().rows
        };
        assert_eq!(rows(11), rows(11));
        assert_ne!(rows(11), rows(29));
    }

    #[test]
    fn canon_orders_and_rows_close_tolerates_low_bits() {
        let a = Tuple::new(vec![Value::Int(1), Value::Double(0.3)]);
        let b = Tuple::new(vec![Value::Int(0), Value::Double(0.1 + 0.2)]);
        let sorted = canon(vec![a.clone(), b.clone()]);
        assert_eq!(sorted[0].get(0), &Value::Int(0));
        assert_rows_close(&[a], &[Tuple::new(vec![Value::Int(1), Value::Double(0.1 + 0.2)])], "t");
    }

    #[test]
    fn xorshift_is_reproducible() {
        let (mut a, mut b) = (XorShift(9), XorShift(9));
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
