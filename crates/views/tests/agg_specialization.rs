//! Property tests for group-by view maintenance through rex-core's
//! `GroupByOp` and its aggregate handlers.
//!
//! The invariant: for any sequence of random insert/delete batches, the
//! view contents accumulated from a view dataflow's output deltas equal
//! the naive reference evaluator (`rex_testkit::reference`) run over the
//! accumulated base relation. The values are dyadic, so every sum, and
//! every average of equal sums, is exact and the comparison is exact too.
//! The sweep deliberately includes delete-the-current-minimum (and
//! -maximum) steps so extreme eviction — the case where min/max must
//! recover the next-best value from the multiset — is exercised on every
//! seed.

use rex_core::delta::ZSet;
use rex_core::delta::{Annotation, Delta};
use rex_core::error::Result;
use rex_core::handlers::{AggHandler, AggState};
use rex_core::tuple::{Schema, Tuple};
use rex_core::udf::Registry;
use rex_core::value::{DataType, Value};
use rex_data::rng::StdRng;
use rex_rql::logical::plan_text;
use rex_rql::SchemaCatalog;
use rex_storage::catalog::Catalog;
use rex_storage::table::StoredTable;
use rex_testkit::reference;
use rex_views::{evaluate, MaintenanceStrategy, MaterializedView, ViewFlow};
use std::sync::Arc;

const SQL: &str = "SELECT g, count(*), sum(v), avg(v), min(v), max(v) FROM vals GROUP BY g";

fn schema() -> Schema {
    Schema::of(&[("g", DataType::Int), ("v", DataType::Double)])
}

fn schema_catalog() -> SchemaCatalog {
    let mut c = SchemaCatalog::new();
    c.register("vals", schema());
    c
}

fn empty_store() -> Catalog {
    let store = Catalog::new();
    store.register(StoredTable::new("vals", schema(), vec![0]));
    store
}

fn row(g: i64, v: f64) -> Tuple {
    Tuple::new(vec![Value::Int(g), Value::Double(v)])
}

fn random_row(rng: &mut StdRng) -> Tuple {
    // Few groups and a small value domain: collisions, duplicate values in
    // the min/max multisets, and frequent extreme evictions.
    row(rng.gen_range(0..=3i64), rng.gen_range(0..=15i64) as f64 * 0.5)
}

/// The extreme row (by `v`) currently present for a random group, if any.
fn current_extreme(base: &ZSet, rng: &mut StdRng, smallest: bool) -> Option<Tuple> {
    let g = Value::Int(rng.gen_range(0..=3i64));
    let rows = base.iter_rows().filter(|t| t.get(0) == &g);
    if smallest {
        rows.min_by(|a, b| a.get(1).cmp(b.get(1))).cloned()
    } else {
        rows.max_by(|a, b| a.get(1).cmp(b.get(1))).cloned()
    }
}

/// One random step: a few inserts, a random delete, or a delete of a
/// random group's current minimum or maximum.
fn random_batch(base: &ZSet, rng: &mut StdRng) -> ZSet {
    let mut batch = ZSet::new();
    match rng.gen_range(0..=3i64) {
        0 | 1 => {
            for _ in 0..rng.gen_range(1..=3i64) {
                batch.add(random_row(rng), 1);
            }
        }
        2 => {
            let stored: Vec<&Tuple> = base.iter_rows().collect();
            if !stored.is_empty() {
                batch.add(stored[rng.gen_range(0..stored.len())].clone(), -1);
            }
        }
        _ => {
            let smallest = rng.gen_range(0..=1i64) == 0;
            if let Some(t) = current_extreme(base, rng, smallest) {
                batch.add(t, -1);
            }
        }
    }
    batch
}

fn seed_sweep(seed: u64) {
    let reg = Registry::with_builtins();
    let plan = plan_text(SQL, &schema_catalog(), &reg).unwrap();
    let mut node = ViewFlow::new(&plan, &reg).unwrap();
    let store = empty_store();
    let mut rng = StdRng::seed_from_u64(seed);
    // The accumulated base relation and the flow's accumulated output.
    let mut base = ZSet::new();
    let mut out = ZSet::new();
    for step in 0..24 {
        let batch = random_batch(&base, &mut rng);
        if batch.is_empty() {
            continue;
        }
        base.merge_scaled(&batch, 1);
        store.apply_delta("vals", batch.iter().map(|(t, n)| (t.clone(), n))).unwrap();
        out.merge_scaled(&node.apply("vals", &batch, &reg).unwrap(), 1);
        let want = reference::evaluate(&plan, &store, &reg).unwrap();
        assert_eq!(out.rows(), want, "seed {seed} step {step}");
    }
}

#[test]
fn maintained_groups_match_the_naive_reference_seed_sweep() {
    for seed in 0..12 {
        seed_sweep(seed);
    }
}

#[test]
fn deleting_every_row_of_a_group_retracts_its_output() {
    let reg = Registry::with_builtins();
    let plan = plan_text(SQL, &schema_catalog(), &reg).unwrap();
    let mut node = ViewFlow::new(&plan, &reg).unwrap();
    let mut ins = ZSet::new();
    ins.add(row(1, 2.0), 2); // duplicate values: multiset multiplicity 2
    ins.add(row(1, 5.0), 1);
    node.apply("vals", &ins, &reg).unwrap();
    // Remove one copy of the duplicated minimum: min stays 2.0.
    let mut del = ZSet::new();
    del.add(row(1, 2.0), -1);
    let out = node.apply("vals", &del, &reg).unwrap();
    assert_eq!(out.iter().count(), 2, "old row out, new row in");
    let new_row = &out.rows()[0];
    assert_eq!(new_row.get(4), &Value::Double(2.0), "duplicated min survives one delete");
    // Remove the rest: the group's output row disappears entirely.
    let mut del = ZSet::new();
    del.add(row(1, 2.0), -1);
    del.add(row(1, 5.0), -1);
    let out = node.apply("vals", &del, &reg).unwrap();
    assert!(out.rows().is_empty(), "only a retraction remains");
    assert_eq!(out.iter().count(), 1);
    assert_eq!(node.state_bytes(), 0, "empty groups are pruned");
}

#[test]
fn deleting_a_row_never_inserted_is_an_error() {
    let reg = Registry::with_builtins();
    let plan = plan_text(SQL, &schema_catalog(), &reg).unwrap();
    let mut node = ViewFlow::new(&plan, &reg).unwrap();
    let mut del = ZSet::new();
    del.add(row(3, 1.0), -1);
    let err = node.apply("vals", &del, &reg).unwrap_err();
    assert!(err.to_string().contains("negative"), "{err}");
}

/// A user aggregate with its own delete rule: a sum that subtracts on
/// `-()`, reached only through AGGSTATE (no built-in fast path).
struct UdaSum;

impl AggHandler for UdaSum {
    fn name(&self) -> &str {
        "usum"
    }
    fn init(&self) -> AggState {
        AggState::Double(0.0)
    }
    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<()> {
        let (AggState::Double(s), Some(x)) = (state, d.tuple.get(0).as_double()) else {
            return Ok(());
        };
        match d.ann {
            Annotation::Delete => *s -= x,
            _ => *s += x,
        }
        Ok(())
    }
    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        let AggState::Double(s) = state else { unreachable!("usum state") };
        Ok(vec![Delta::insert(Tuple::new(vec![Value::Double(*s)]))])
    }
}

#[test]
fn user_aggregate_views_receive_deletes_and_stay_incremental() {
    let reg = Registry::with_builtins();
    reg.register_agg("usum", Arc::new(UdaSum));
    let sql = "SELECT g, usum(v), count(*) FROM vals GROUP BY g";
    let plan = plan_text(sql, &schema_catalog(), &reg).unwrap();
    let mut view = MaterializedView::define("u", sql, plan.clone(), &reg);
    assert_eq!(*view.strategy(), MaintenanceStrategy::Incremental);
    let store = empty_store();
    view.prime(&store, &reg).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut base = ZSet::new();
    for step in 0..40 {
        let batch = random_batch(&base, &mut rng);
        if batch.is_empty() {
            continue;
        }
        base.merge_scaled(&batch, 1);
        store.apply_delta("vals", batch.iter().map(|(t, n)| (t.clone(), n))).unwrap();
        view.on_change(&[("vals", &batch)], &store, &reg).unwrap();
        let mut want = evaluate(&plan, &store, &reg).unwrap();
        want.sort_unstable();
        assert_eq!(store.get("u").unwrap().rows(), want, "step {step}");
    }
    assert!(base.iter().any(|(_, n)| n > 0), "the sweep left rows behind");
    assert_eq!(view.recomputes(), 0, "a user aggregate maintains incrementally");
}
