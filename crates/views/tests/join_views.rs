//! A view over a join of two base tables keeps both join sides stored
//! across batches, whatever the batches carry.
//!
//! `HashJoinOp` may run probe-without-store once the opposite input has
//! ended, but only when its inputs are promised insert-only. A view's
//! inputs carry deletes and never end, so neither may hold for its
//! dataflow: after priming, insert batches on both sides, then delete
//! batches, then mixed ones must each leave the view equal to the naive
//! reference evaluator (`rex_testkit::reference`) over the base tables.

use rex_core::delta::ZSet;
use rex_core::tuple::{Schema, Tuple};
use rex_core::udf::Registry;
use rex_core::value::{DataType, Value};
use rex_data::rng::StdRng;
use rex_rql::logical::plan_text;
use rex_rql::SchemaCatalog;
use rex_storage::catalog::Catalog;
use rex_storage::table::StoredTable;
use rex_testkit::reference;
use rex_views::{MaintenanceStrategy, MaterializedView};

const SQL: &str = "SELECT a.k, a.x, b.y FROM a, b WHERE a.k = b.k";

fn schema(col: &str) -> Schema {
    Schema::of(&[("k", DataType::Int), (col, DataType::Int)])
}

fn row(k: i64, v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(v)])
}

/// One batch for `table`: `inserts` fresh random rows and `deletes`
/// distinct stored rows.
fn batch(store: &Catalog, table: &str, inserts: i64, deletes: i64, rng: &mut StdRng) -> ZSet {
    let mut b = ZSet::new();
    for _ in 0..inserts {
        b.add(row(rng.gen_range(0..=4i64), rng.gen_range(0..=20i64)), 1);
    }
    let mut stored = store.get(table).unwrap().rows().to_vec();
    for _ in 0..deletes.min(stored.len() as i64) {
        let i = rng.gen_range(0..stored.len());
        b.add(stored.swap_remove(i), -1);
    }
    b
}

fn sweep(seed: u64) {
    let reg = Registry::with_builtins();
    let store = Catalog::new();
    let mut schemas = SchemaCatalog::new();
    for (table, col) in [("a", "x"), ("b", "y")] {
        schemas.register(table, schema(col));
        let mut t = StoredTable::new(table, schema(col), vec![0]);
        // In tuple order, which `Catalog::apply_delta` below keeps.
        t.load_unchecked([(0, 0), (0, 3), (1, 1), (2, 2)].map(|(k, v)| row(k, v)).to_vec());
        store.register(t);
    }
    let plan = plan_text(SQL, &schemas, &reg).unwrap();
    let mut view = MaterializedView::define("ab", SQL, plan.clone(), &reg);
    assert_eq!(*view.strategy(), MaintenanceStrategy::Incremental);
    view.prime(&store, &reg).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    // Eight insert batches, then eight delete batches, then eight mixed
    // ones, alternating between the two sides.
    for step in 0..24 {
        let table = ["a", "b"][step % 2];
        let (inserts, deletes) = match step / 8 {
            0 => (rng.gen_range(1..=4i64), 0),
            1 => (0, rng.gen_range(1..=2i64)),
            _ => (rng.gen_range(1..=3i64), rng.gen_range(1..=2i64)),
        };
        let b = batch(&store, table, inserts, deletes, &mut rng);
        store.apply_delta(table, b.iter().map(|(t, n)| (t.clone(), n))).unwrap();
        view.on_change(&[(table, &b)], &store, &reg).unwrap();
        let want = reference::evaluate(&plan, &store, &reg).unwrap();
        assert_eq!(store.get("ab").unwrap().rows(), want, "seed {seed} step {step} ({table})");
    }
    assert_eq!(view.recomputes(), 0);
}

#[test]
fn join_views_match_the_naive_reference_through_inserts_deletes_and_mixed_batches() {
    for seed in 0..8 {
        sweep(seed);
    }
}
