//! The view catalog: dependency tracking and cascading maintenance.
//!
//! A view's rows live in one place: the stored table of the view's name in
//! the session's [`Catalog`], kept in tuple order. Every maintenance pass
//! writes its output delta into that table before it returns, so every
//! engine — single-node or simulated cluster — scans current rows with no
//! special casing, and the optimizer reads view cardinalities for free.
//! This catalog holds the views' definitions and maintenance state only.

use crate::sharded::RecoveryStrategy;
use crate::view::MaterializedView;
use rex_core::delta::{Delta, ZSet};
use rex_core::error::{Result, RexError};
use rex_core::udf::Registry;
use rex_storage::catalog::Catalog;
use std::collections::BTreeMap;

/// One view's maintenance counters, snapshotted by
/// [`ViewCatalog::metrics`]. Everything here is cumulative since the view
/// was created (rebuilds do not reset counters).
#[derive(Debug, Clone)]
pub struct ViewMetrics {
    /// The view's (lowercase) name.
    pub name: String,
    /// Human-readable maintenance strategy.
    pub strategy: String,
    /// Input delta rows received across all maintenance passes.
    pub deltas_in: u64,
    /// Output delta rows emitted across all maintenance passes.
    pub deltas_out: u64,
    /// Passes that propagated deltas incrementally.
    pub incremental_passes: u64,
    /// Passes that re-ran the defining query (recompute fallback).
    pub recomputes: u64,
    /// Wall time spent in maintenance passes, nanoseconds.
    pub maint_ns: u64,
    /// Current cardinality.
    pub rows: usize,
    /// Approximate bytes of maintenance state.
    pub state_bytes: usize,
    /// Shards the maintenance state is partitioned into (1 = session
    /// node).
    pub shards: usize,
    /// Delta rows partitioned across worker shards.
    pub sharded_rows: u64,
    /// State bytes copied into shard replicas.
    pub replicated_bytes: u64,
    /// Shard recoveries performed after worker kills.
    pub recoveries: u64,
}

/// All materialized views of a session, keyed by lowercase name.
#[derive(Default)]
pub struct ViewCatalog {
    views: BTreeMap<String, MaterializedView>,
    /// Creation order — a topological order, which is the order
    /// [`on_base_change`](ViewCatalog::on_base_change) maintains views in.
    order: Vec<String>,
    /// Worker count views defined under this catalog shard across (1 =
    /// single-node maintenance; cluster sessions set their worker count).
    partitions: usize,
    /// Recovery strategy for shard recoveries after a worker kill.
    recovery: RecoveryStrategy,
}

impl ViewCatalog {
    /// An empty catalog.
    pub fn new() -> ViewCatalog {
        ViewCatalog::default()
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no views exist.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Whether `name` is a view (case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        self.views.contains_key(&name.to_ascii_lowercase())
    }

    /// Shard views defined *from now on* across `n` workers (see
    /// [`crate::sharded`]). Existing views keep their layout.
    pub fn set_partitions(&mut self, n: usize) {
        self.partitions = n.max(1);
    }

    /// Worker count new views shard across.
    pub fn partitions(&self) -> usize {
        self.partitions.max(1)
    }

    /// Set the recovery strategy for every sharded view's future
    /// recoveries (and for views defined from now on).
    pub fn set_recovery(&mut self, strategy: RecoveryStrategy) {
        self.recovery = strategy;
        for v in self.views.values_mut() {
            v.set_recovery(strategy);
        }
    }

    /// The configured recovery strategy.
    pub fn recovery(&self) -> RecoveryStrategy {
        self.recovery
    }

    /// Kill worker `w` across every sharded view: its shards and hosted
    /// replicas are dropped, survivors adopt the shard ranges, and each
    /// view recovers immediately — while the store still equals the
    /// applied history, which is what makes a restart rebuild (replay the
    /// store) equivalent to the lost state. Returns the number of shards
    /// that lost their primary dataflow.
    pub fn kill_worker(&mut self, w: usize, store: &Catalog, reg: &Registry) -> Result<usize> {
        let mut lost = 0;
        for v in self.views.values_mut() {
            lost += v.kill_worker(w);
            v.recover(store, reg)?;
        }
        Ok(lost)
    }

    /// Look up a view.
    pub fn get(&self, name: &str) -> Option<&MaterializedView> {
        self.views.get(&name.to_ascii_lowercase())
    }

    /// View names in creation order.
    pub fn names(&self) -> Vec<String> {
        self.order.clone()
    }

    /// Views that read `table` directly, in creation order.
    pub fn dependents(&self, table: &str) -> Vec<String> {
        self.order.iter().filter(|n| self.views[*n].depends_on(table)).cloned().collect()
    }

    /// Whether any view reads `table` directly.
    pub fn reads(&self, table: &str) -> bool {
        self.views.values().any(|v| v.depends_on(table))
    }

    /// Register and prime a view; priming publishes its rows as the stored
    /// table engines scan. Fails if the name is taken.
    pub fn create(
        &mut self,
        mut view: MaterializedView,
        store: &Catalog,
        reg: &Registry,
    ) -> Result<()> {
        let key = view.name().to_ascii_lowercase();
        if store.contains(&key) {
            return Err(RexError::Storage(format!("table or view {} already exists", view.name())));
        }
        view.prime(store, reg)?;
        self.order.push(key.clone());
        self.views.insert(key, view);
        Ok(())
    }

    /// Drop a view, removing its stored copy. Refuses when another view
    /// reads this one.
    pub fn drop_view(&mut self, name: &str, store: &Catalog) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if !self.views.contains_key(&key) {
            return Err(RexError::Storage(format!("unknown view: {name}")));
        }
        let readers = self.dependents(&key);
        if !readers.is_empty() {
            return Err(RexError::Storage(format!(
                "cannot drop view {name}: materialized view(s) {} depend on it",
                readers.join(", ")
            )));
        }
        self.views.remove(&key);
        self.order.retain(|n| *n != key);
        store.drop_table(&key)
    }

    /// Propagate a change to base relation `table` (already applied to the
    /// store) through every dependent view, cascading view-output deltas
    /// to views-on-views. Returns the names of views that changed, in
    /// creation order.
    ///
    /// One pass over the views in creation order. Creation order is a
    /// topological order (a view can only be created over relations that
    /// already exist), so by the time any view runs, every source it reads
    /// is final for this pass. That is what lets a full-recompute view
    /// that reads several changed sources — a base table plus views over
    /// it — re-run its defining query exactly **once** per pass.
    pub fn on_base_change(
        &mut self,
        table: &str,
        deltas: &[Delta],
        store: &Catalog,
        reg: &Registry,
    ) -> Result<Vec<String>> {
        let initial = ZSet::from_deltas(deltas);
        if initial.is_empty() {
            return Ok(Vec::new());
        }
        // Final deltas of this pass, by relation: the base table plus the
        // output of every view that has run and changed.
        let mut changed: BTreeMap<String, ZSet> = BTreeMap::new();
        changed.insert(table.to_ascii_lowercase(), initial);
        let mut touched = Vec::new();
        for name in &self.order {
            let view = self.views.get_mut(name).expect("view exists");
            let batches: Vec<(&str, &ZSet)> = view
                .base_tables()
                .iter()
                .filter_map(|t| changed.get_key_value(t))
                .map(|(t, batch)| (t.as_str(), batch))
                .collect();
            if batches.is_empty() {
                continue;
            }
            let out = view.on_change(&batches, store, reg)?;
            if !out.is_empty() {
                touched.push(name.clone());
                changed.insert(name.clone(), out);
            }
        }
        Ok(touched)
    }

    /// Rebuild every view's state and stored rows from the current store,
    /// in creation order (so views-on-views prime over rebuilt upstream
    /// rows). This is the consistency repair for a maintenance pass that failed
    /// after updating some views: afterwards every view again equals a
    /// full recompute of its defining query.
    pub fn rebuild_all(&mut self, store: &Catalog, reg: &Registry) -> Result<()> {
        for name in &self.order {
            self.views.get_mut(name).expect("view exists").rebuild(store, reg)?;
        }
        Ok(())
    }

    /// A no-op, kept for callers written when stored view copies were
    /// synced lazily: every maintenance pass now writes its output into
    /// the view's stored table before it returns, so there is nothing
    /// left to flush.
    pub fn sync(&self, _store: &Catalog) -> Result<()> {
        Ok(())
    }

    /// Bytes maintenance passes wrote into the stored tables of the
    /// current views (see [`MaterializedView::written_bytes`]).
    pub fn sync_bytes(&self) -> u64 {
        self.views.values().map(MaterializedView::written_bytes).sum()
    }

    /// Per-view maintenance counters, in creation order.
    pub fn metrics(&self) -> Vec<ViewMetrics> {
        self.order
            .iter()
            .map(|name| {
                let v = &self.views[name];
                ViewMetrics {
                    name: name.clone(),
                    strategy: v.strategy().to_string(),
                    deltas_in: v.deltas_in(),
                    deltas_out: v.deltas_out(),
                    incremental_passes: v.incremental_passes(),
                    recomputes: v.recomputes() as u64,
                    maint_ns: v.maint_ns(),
                    rows: v.len(),
                    state_bytes: v.state_bytes(),
                    shards: v.shards(),
                    sharded_rows: v.shard_stats().sharded_rows,
                    replicated_bytes: v.shard_stats().replicated_bytes,
                    recoveries: v.shard_stats().recoveries,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;
    use rex_rql::logical::plan_text;
    use rex_rql::SchemaCatalog;
    use rex_storage::table::StoredTable;

    fn setup() -> (Catalog, SchemaCatalog, Registry) {
        let store = Catalog::new();
        let schema = Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]);
        let mut t = StoredTable::new("edges", schema.clone(), vec![0]);
        t.load(vec![tuple![0i64, 1i64], tuple![1i64, 2i64], tuple![0i64, 2i64]]).unwrap();
        store.register(t);
        let mut schemas = SchemaCatalog::new();
        schemas.register("edges", schema);
        (store, schemas, Registry::with_builtins())
    }

    fn define(name: &str, sql: &str, schemas: &SchemaCatalog, reg: &Registry) -> MaterializedView {
        MaterializedView::define(name, sql, plan_text(sql, schemas, reg).unwrap(), reg)
    }

    #[test]
    fn create_publishes_rows_and_tracks_dependencies() {
        let (store, schemas, reg) = setup();
        let mut views = ViewCatalog::new();
        let v = define("fanout", "SELECT src, count(*) FROM edges GROUP BY src", &schemas, &reg);
        views.create(v, &store, &reg).unwrap();
        assert_eq!(store.get("fanout").unwrap().len(), 2);
        assert_eq!(views.dependents("edges"), vec!["fanout".to_string()]);
        assert!(views.reads("EDGES"));
        // Name collisions with tables are refused.
        let dup = define("edges", "SELECT src FROM edges", &schemas, &reg);
        assert!(views.create(dup, &store, &reg).is_err());
    }

    #[test]
    fn rebuild_all_restores_recompute_equivalence() {
        let (store, schemas, reg) = setup();
        let mut views = ViewCatalog::new();
        let v = define("fanout", "SELECT src, count(*) FROM edges GROUP BY src", &schemas, &reg);
        views.create(v, &store, &reg).unwrap();
        // Simulate divergence: the table changes behind the catalog's back
        // (as after a maintenance pass that died before reaching the view).
        store.append("edges", vec![tuple![5i64, 6i64]]).unwrap();
        assert_eq!(views.get("fanout").unwrap().len(), 2, "view is stale");
        views.rebuild_all(&store, &reg).unwrap();
        assert_eq!(views.get("fanout").unwrap().len(), 3, "rebuilt from current table");
        assert_eq!(store.get("fanout").unwrap().len(), 3, "stored copy refreshed too");
    }

    #[test]
    fn a_diverged_stored_copy_is_refused_then_rebuilt() {
        let (store, schemas, reg) = setup();
        let mut views = ViewCatalog::new();
        let v = define("fanout", "SELECT src, count(*) FROM edges GROUP BY src", &schemas, &reg);
        views.create(v, &store, &reg).unwrap();
        // Corrupt the stored copy behind the catalog's back.
        let corrupt = vec![tuple![99i64, 99i64]];
        store.replace_rows("fanout", corrupt.clone()).unwrap();
        // The next pass retracts (0, 2), which the corrupted copy does not
        // hold: storage refuses the delta and leaves the table untouched.
        store.append("edges", vec![tuple![0i64, 9i64]]).unwrap();
        let err = views
            .on_base_change("edges", &[Delta::insert(tuple![0i64, 9i64])], &store, &reg)
            .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        assert_eq!(store.get("fanout").unwrap().rows(), corrupt);
        // The session's repair restores recompute equivalence.
        views.rebuild_all(&store, &reg).unwrap();
        let want = vec![tuple![0i64, 3i64], tuple![1i64, 1i64]];
        assert_eq!(store.get("fanout").unwrap().rows(), want);
        assert_eq!(views.get("fanout").unwrap().len(), 2);
    }

    #[test]
    fn metrics_track_deltas_and_sync_bytes() {
        let (store, schemas, reg) = setup();
        let mut views = ViewCatalog::new();
        let v = define("fanout", "SELECT src, count(*) FROM edges GROUP BY src", &schemas, &reg);
        views.create(v, &store, &reg).unwrap();
        assert_eq!(views.sync_bytes(), 0, "priming is not a maintenance write");
        store.append("edges", vec![tuple![1i64, 9i64]]).unwrap();
        views.on_base_change("edges", &[Delta::insert(tuple![1i64, 9i64])], &store, &reg).unwrap();
        let delta_bytes = 2 * tuple![1i64, 1i64].byte_size() as u64;
        assert_eq!(views.sync_bytes(), delta_bytes, "the pass wrote its two-row delta");
        let m = &views.metrics()[0];
        assert_eq!(m.name, "fanout");
        assert!(m.strategy.contains("incremental"));
        // Priming replays seed rows through the dataflow directly
        // (not via on_change), so counters reflect only the insert batch.
        assert_eq!(m.deltas_in, 1);
        // The touched group retracts its old row and emits the new one.
        assert_eq!(m.deltas_out, 2);
        assert_eq!(m.incremental_passes, 1);
        assert_eq!(m.recomputes, 0);
        assert!(m.rows == 2 && m.state_bytes > 0);
    }

    #[test]
    fn recompute_view_counts_every_changed_source() {
        // A recursive view whose step aggregates (a recompute fallback)
        // reading `edges` and an incremental view over `edges`: one pass
        // hands it both sources' deltas.
        let (store, mut schemas, reg) = setup();
        let mut views = ViewCatalog::new();
        let v1 = define("fanout", "SELECT src, count(*) FROM edges GROUP BY src", &schemas, &reg);
        views.create(v1, &store, &reg).unwrap();
        schemas.register("fanout", views.get("fanout").unwrap().schema().clone());
        let sql = "WITH R (id) AS (SELECT src FROM fanout) UNION UNTIL FIXPOINT BY id ( \
                   SELECT DISTINCT edges.dst FROM edges, R WHERE edges.src = R.id)";
        views.create(define("reach", sql, &schemas, &reg), &store, &reg).unwrap();
        store.append("edges", vec![tuple![1i64, 9i64]]).unwrap();
        views.on_base_change("edges", &[Delta::insert(tuple![1i64, 9i64])], &store, &reg).unwrap();
        let m = views.metrics();
        let (fanout, reach) = (&m[0], &m[1]);
        assert!(reach.strategy.contains("full recompute"));
        assert_eq!(reach.recomputes, 1);
        // `fanout` retracts (1, 1) and emits (1, 2).
        assert_eq!(fanout.deltas_out, 2);
        assert_eq!(reach.deltas_in, 1 + fanout.deltas_out, "the edge row plus fanout's delta");
    }

    #[test]
    fn maintenance_cascades_through_views_on_views() {
        let (store, mut schemas, reg) = setup();
        let mut views = ViewCatalog::new();
        let v1 = define("fanout", "SELECT src, count(*) FROM edges GROUP BY src", &schemas, &reg);
        views.create(v1, &store, &reg).unwrap();
        schemas.register("fanout", views.get("fanout").unwrap().schema().clone());
        let v2 = define("hot", "SELECT src FROM fanout WHERE count > 1", &schemas, &reg);
        views.create(v2, &store, &reg).unwrap();
        assert_eq!(store.get("hot").unwrap().rows(), &[tuple![0i64]]);
        // A second edge from node 1 pushes it over the threshold — via the
        // cascade, not a recompute of `hot`.
        store.append("edges", vec![tuple![1i64, 9i64]]).unwrap();
        let touched = views
            .on_base_change("edges", &[Delta::insert(tuple![1i64, 9i64])], &store, &reg)
            .unwrap();
        assert_eq!(touched, vec!["fanout".to_string(), "hot".to_string()]);
        // The stored rows are current, and sorted, as soon as the pass
        // returns.
        assert_eq!(store.get("hot").unwrap().rows(), &[tuple![0i64], tuple![1i64]]);
        // Dropping the upstream view is refused while `hot` reads it.
        let err = views.drop_view("fanout", &store).unwrap_err();
        assert!(err.to_string().contains("depend on it"));
        views.drop_view("hot", &store).unwrap();
        views.drop_view("fanout", &store).unwrap();
        assert!(views.is_empty());
        assert!(!store.contains("fanout"));
    }
}
