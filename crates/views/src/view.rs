//! A single materialized view: definition, strategy, and maintained state.
//!
//! A view the delta rules cover is maintained by its [`ViewFlow`]s
//! (through [`ShardedMaint`]); any other re-runs its defining query on
//! every maintenance pass. A recursive view sits in between: its flow
//! continues the converged fixpoint under inserts, and a pass that deletes
//! from its sources resets the flow and primes it from the store again —
//! one recompute, emitting the old→new diff like the fallback does.
//!
//! [`ViewFlow`]: crate::flow::ViewFlow

use crate::sharded::{RecoveryStrategy, ShardStats, ShardedMaint};
use rex_core::delta::ZSet;
use rex_core::error::Result;
use rex_core::exec::LocalRuntime;
use rex_core::tuple::{Schema, Tuple};
use rex_core::udf::Registry;
use rex_rql::logical::LogicalPlan;
use rex_rql::lower::lower;
use rex_rql::provider::CatalogProvider;
use rex_rql::{RqlError, RqlStage};
use rex_storage::catalog::Catalog;
use rex_storage::table::StoredTable;
use std::fmt;
use std::time::Instant;

/// How a view is kept consistent with its base tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// Delta batches propagate through the view's long-lived dataflow;
    /// cost scales with the size of the change, not the size of the data.
    Incremental,
    /// The defining query re-runs on every base-table change. Chosen
    /// automatically when the delta rules do not cover the plan shape.
    FullRecompute {
        /// Why incremental maintenance was not possible.
        reason: String,
    },
}

impl fmt::Display for MaintenanceStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintenanceStrategy::Incremental => f.write_str("incremental delta propagation"),
            MaintenanceStrategy::FullRecompute { reason } => {
                write!(f, "full recompute ({reason})")
            }
        }
    }
}

/// An incrementally maintained materialized view: the resolved defining
/// plan plus whatever state its maintenance strategy needs.
pub struct MaterializedView {
    name: String,
    sql: String,
    plan: LogicalPlan,
    schema: Schema,
    base_tables: Vec<String>,
    strategy: MaintenanceStrategy,
    /// The maintenance dataflows — one shard on the session node, or one
    /// per cluster worker; `None` for recompute fallbacks.
    maint: Option<ShardedMaint>,
    /// Current cardinality of the view's stored table.
    len: usize,
    /// How many times the recompute fallback re-ran the defining query
    /// (diagnostics; incremental views stay at 0).
    recomputes: usize,
    /// Maintenance passes that took the incremental path (one per
    /// [`on_change`](Self::on_change) on a delta-maintained view).
    incremental_passes: u64,
    /// Input delta rows received across all maintenance passes.
    deltas_in: u64,
    /// Output delta rows emitted across all maintenance passes.
    deltas_out: u64,
    /// Wall time spent in maintenance passes, nanoseconds.
    maint_ns: u64,
    /// Bytes maintenance passes wrote into the view's stored table.
    written_bytes: u64,
}

impl MaterializedView {
    /// Define a view over an already-resolved plan. The maintenance
    /// strategy is chosen here: incremental when the delta rules cover the
    /// plan, full recompute otherwise.
    pub fn define(
        name: impl Into<String>,
        sql: impl Into<String>,
        plan: LogicalPlan,
        reg: &Registry,
    ) -> MaterializedView {
        Self::define_partitioned(name, sql, plan, reg, 1, RecoveryStrategy::default())
    }

    /// Define a view whose maintenance state is partitioned across
    /// `partitions` cluster workers (see [`crate::sharded`]). With
    /// `partitions <= 1`, or when the plan is not shardable, maintenance
    /// stays on the session node and the fallback reason is recorded.
    pub fn define_partitioned(
        name: impl Into<String>,
        sql: impl Into<String>,
        plan: LogicalPlan,
        reg: &Registry,
        partitions: usize,
        recovery: RecoveryStrategy,
    ) -> MaterializedView {
        let (maint, strategy) = match ShardedMaint::build(&plan, reg, partitions, recovery) {
            Ok(m) => (Some(m), MaintenanceStrategy::Incremental),
            Err(e) => (None, MaintenanceStrategy::FullRecompute { reason: e.to_string() }),
        };
        MaterializedView {
            name: name.into(),
            sql: sql.into(),
            schema: plan.schema().clone(),
            base_tables: plan.referenced_tables(),
            plan,
            strategy,
            maint,
            len: 0,
            recomputes: 0,
            incremental_passes: 0,
            deltas_in: 0,
            deltas_out: 0,
            maint_ns: 0,
            written_bytes: 0,
        }
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The definition text the view was created from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The view's output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The resolved defining plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The chosen maintenance strategy.
    pub fn strategy(&self) -> &MaintenanceStrategy {
        &self.strategy
    }

    /// The base relations (lowercased, sorted) the view reads.
    pub fn base_tables(&self) -> &[String] {
        &self.base_tables
    }

    /// Whether the view reads `table` (directly).
    pub fn depends_on(&self, table: &str) -> bool {
        self.base_tables.contains(&table.to_ascii_lowercase())
    }

    /// Current cardinality.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate bytes of maintenance state (diagnostics).
    pub fn state_bytes(&self) -> usize {
        self.maint.as_ref().map_or(0, ShardedMaint::state_bytes)
    }

    /// Shard count of the maintenance state: 1 on the session node,
    /// the worker count for sharded views.
    pub fn shards(&self) -> usize {
        self.maint.as_ref().map_or(1, ShardedMaint::shards)
    }

    /// Sharded-maintenance counters (zeroes for single-node views).
    pub fn shard_stats(&self) -> ShardStats {
        self.maint.as_ref().map(|m| *m.stats()).unwrap_or_default()
    }

    /// Why the view stayed on the session node under a cluster session.
    pub fn shard_fallback(&self) -> Option<&str> {
        self.maint.as_ref().and_then(ShardedMaint::fallback)
    }

    /// Kill worker `w`'s shards of this view. The view's published output
    /// is untouched — reads keep serving — but the lost shards' flows must
    /// be recovered (see [`recover`](MaterializedView::recover)) before
    /// the next maintenance round. Returns shards lost (0 single-node).
    pub fn kill_worker(&mut self, w: usize) -> usize {
        self.maint.as_mut().map_or(0, |m| m.kill_worker(w))
    }

    /// Recover any dead shards now, while `store` still equals the
    /// applied history (a restart rebuild replays it verbatim, so waiting
    /// until the next batch — when the store already includes that batch —
    /// would double-count it). No-op for single-node views.
    pub fn recover(&mut self, store: &Catalog, reg: &Registry) -> Result<()> {
        match &mut self.maint {
            Some(m) => m.recover(store, reg),
            None => Ok(()),
        }
    }

    /// Set the recovery strategy for subsequent shard recoveries.
    pub fn set_recovery(&mut self, strategy: RecoveryStrategy) {
        if let Some(m) = &mut self.maint {
            m.set_recovery(strategy);
        }
    }

    /// How many maintenance passes re-read the store
    /// ([`rereads_store`](Self::rereads_store)). Delta-maintained views
    /// stay at 0, except that a recursive one counts each pass that deletes
    /// from its sources; fallback views count one per maintenance pass
    /// that touched the view — the creation-order pass in
    /// [`ViewCatalog::on_base_change`](crate::catalog::ViewCatalog::on_base_change)
    /// hands the view every changed source at once, so it re-runs exactly
    /// once per pass however many of its sources changed.
    pub fn recomputes(&self) -> usize {
        self.recomputes
    }

    /// Maintenance passes that propagated deltas incrementally
    /// (recompute-fallback views stay at 0).
    pub fn incremental_passes(&self) -> u64 {
        self.incremental_passes
    }

    /// Input delta rows received across all maintenance passes.
    pub fn deltas_in(&self) -> u64 {
        self.deltas_in
    }

    /// Output delta rows emitted across all maintenance passes.
    pub fn deltas_out(&self) -> u64 {
        self.deltas_out
    }

    /// Wall time spent in maintenance passes, nanoseconds.
    pub fn maint_ns(&self) -> u64 {
        self.maint_ns
    }

    /// Bytes maintenance passes wrote into the view's stored table: each
    /// incremental pass's output delta, each re-read's whole contents.
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    /// Populate the view from the current store contents and register its
    /// rows, sorted, as the stored table of the view's name: the one copy
    /// every engine scans and every later pass writes its delta into.
    /// Incremental views prime by replaying each base table as insert
    /// batches through the dataflow — the same code path later changes
    /// take — so priming exercises exactly the machinery maintenance
    /// relies on.
    pub fn prime(&mut self, store: &Catalog, reg: &Registry) -> Result<()> {
        let rows = match &mut self.maint {
            Some(m) => replay(m, &self.base_tables, store, reg)?.rows(),
            None => {
                let mut rows = evaluate(&self.plan, store, reg)?;
                rows.sort_unstable();
                rows
            }
        };
        self.len = rows.len();
        let pcols = if self.schema.arity() > 0 { vec![0] } else { Vec::new() };
        let mut table = StoredTable::new(&self.name, self.schema.clone(), pcols);
        table.load_unchecked(rows);
        store.register(table);
        Ok(())
    }

    /// Discard all maintained state and re-populate the view and its
    /// stored table from the current store — the consistency repair a
    /// session runs when a maintenance pass fails partway through.
    pub fn rebuild(&mut self, store: &Catalog, reg: &Registry) -> Result<()> {
        if let Some(m) = &mut self.maint {
            m.reset(reg)?;
        }
        self.prime(store, reg)
    }

    /// Whether a maintenance pass over `changes` re-reads the store
    /// instead of propagating deltas: every pass of a recompute fallback,
    /// and a pass that deletes from a recursive view's sources — its flow
    /// continues a converged fixpoint exactly under inserts only, so a
    /// delete rebuilds it.
    pub fn rereads_store(&self, changes: &[(&str, &ZSet)]) -> bool {
        self.maint.is_none()
            || (self.plan.is_recursive()
                && changes.iter().any(|(_, batch)| batch.iter().any(|(_, n)| n < 0)))
    }

    /// Apply one maintenance pass: a batch of changes to each listed
    /// `(relation, batch)` the view reads. The view's output delta is
    /// written into its stored table before this returns, and returned
    /// too (for cascading to views that read this view). `store` must
    /// already reflect every change. A pass that
    /// [re-reads the store](Self::rereads_store) runs once however many
    /// relations changed — a recompute fallback re-runs its defining
    /// query, a recursive flow is reset and primed again — republishes
    /// the sorted contents and returns the old→new diff. A delta the
    /// stored table cannot absorb (it lost rows the view emitted) is
    /// storage's "diverged" error, and the table is left untouched.
    pub fn on_change(
        &mut self,
        changes: &[(&str, &ZSet)],
        store: &Catalog,
        reg: &Registry,
    ) -> Result<ZSet> {
        let start = Instant::now();
        self.deltas_in += changes.iter().map(|(_, batch)| delta_rows(batch)).sum::<u64>();
        let out = if self.rereads_store(changes) {
            self.recomputes += 1;
            let old = store.get(&self.name)?;
            self.rebuild(store, reg)?;
            let fresh = store.get(&self.name)?;
            self.written_bytes += fresh.byte_size();
            let mut diff = ZSet::from_rows(fresh.rows().iter().cloned());
            for t in old.rows() {
                diff.add(t.clone(), -1);
            }
            diff
        } else {
            let maint = self.maint.as_mut().expect("recompute fallbacks re-read the store");
            let mut out = ZSet::new();
            for (table, batch) in changes {
                out.merge_scaled(&maint.apply(&table.to_ascii_lowercase(), batch, store, reg)?, 1);
            }
            self.incremental_passes += 1;
            let (inserted, removed) =
                store.apply_delta(&self.name, out.iter().map(|(t, n)| (t.clone(), n)))?;
            self.len = self.len + inserted - removed;
            self.written_bytes +=
                out.iter().map(|(t, n)| t.byte_size() as u64 * n.unsigned_abs()).sum::<u64>();
            out
        };
        self.deltas_out += delta_rows(&out);
        self.maint_ns += start.elapsed().as_nanos() as u64;
        Ok(out)
    }
}

/// Total rows a signed delta touches: the sum of absolute multiplicities
/// (an insert and a retraction both count as one row of change).
fn delta_rows(d: &ZSet) -> u64 {
    d.iter().map(|(_, n)| n.unsigned_abs()).sum()
}

/// Rows per insert batch when a view replays its base tables.
const REPLAY_BATCH_ROWS: usize = 8192;

/// Replay every base table's stored rows through `m` as insert batches —
/// the same code path later changes take — and return the output. Bounded
/// batches keep the transient of priming (a join's output, say) to a
/// batch's worth instead of the whole table's; the flow ends in the same
/// state and the summed output is the same.
fn replay(
    m: &mut ShardedMaint,
    tables: &[String],
    store: &Catalog,
    reg: &Registry,
) -> Result<ZSet> {
    let mut out = ZSet::new();
    for table in tables {
        for rows in store.get(table)?.rows().chunks(REPLAY_BATCH_ROWS) {
            let batch = ZSet::from_rows(rows.iter().cloned());
            out.merge_scaled(&m.apply(table, &batch, store, reg)?, 1);
        }
    }
    Ok(out)
}

/// Evaluate a plan against the store on the single-node runtime — the
/// recompute fallback (and the oracle incremental maintenance must match).
pub fn evaluate(plan: &LogicalPlan, store: &Catalog, reg: &Registry) -> Result<Vec<Tuple>> {
    let provider = CatalogProvider::new(store.clone());
    let graph = lower(plan, &provider, reg).map_err(|e| RqlError::at(RqlStage::Lower, e))?;
    let rt = LocalRuntime::with_registry(reg.clone());
    let (rows, _report) = rt.run(graph)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::delta::Delta;
    use rex_core::tuple;
    use rex_core::value::DataType;
    use rex_rql::logical::plan_text;
    use rex_rql::SchemaCatalog;

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

    /// The view's rows as engines scan them: its stored table.
    fn stored(store: &Catalog, view: &str) -> Vec<Tuple> {
        store.get(view).unwrap().rows().to_vec()
    }

    #[test]
    fn incremental_view_primes_and_tracks_changes() {
        let (store, schemas, reg) = setup();
        let sql = "SELECT src, count(*) FROM edges GROUP BY src";
        let plan = plan_text(sql, &schemas, &reg).unwrap();
        let mut v = MaterializedView::define("fanout", sql, plan, &reg);
        assert_eq!(*v.strategy(), MaintenanceStrategy::Incremental);
        assert_eq!(v.base_tables(), &["edges".to_string()]);
        v.prime(&store, &reg).unwrap();
        assert_eq!(stored(&store, "fanout"), vec![tuple![0i64, 2i64], tuple![1i64, 1i64]]);
        // An insert batch shifts only the touched group.
        store.append("edges", vec![tuple![1i64, 3i64]]).unwrap();
        let out = v
            .on_change(&[("edges", &ZSet::from_rows(vec![tuple![1i64, 3i64]]))], &store, &reg)
            .unwrap();
        assert_eq!(out.iter().count(), 2);
        assert_eq!(stored(&store, "fanout"), vec![tuple![0i64, 2i64], tuple![1i64, 2i64]]);
        assert!(v.state_bytes() > 0);
    }

    /// Reachability is maintained, not recomputed: inserts continue the
    /// converged fixpoint, and only a delete rebuilds the flow from the
    /// store, emitting the old→new diff as that pass's delta.
    #[test]
    fn recursive_view_maintains_inserts_and_rebuilds_on_delete() {
        let (store, schemas, reg) = setup();
        let sql = "WITH R (id) AS (SELECT src FROM edges WHERE src = 0)
                   UNION UNTIL FIXPOINT BY id (
                     SELECT edges.dst FROM edges, R WHERE edges.src = R.id)";
        let plan = plan_text(sql, &schemas, &reg).unwrap();
        let mut v = MaterializedView::define("reach", sql, plan, &reg);
        assert_eq!(*v.strategy(), MaintenanceStrategy::Incremental);
        v.prime(&store, &reg).unwrap();
        assert_eq!(stored(&store, "reach"), vec![tuple![0i64], tuple![1i64], tuple![2i64]]);
        assert!(v.state_bytes() > 0);
        // A new edge extends reachability; the emitted delta carries
        // exactly the new row.
        let edge = ZSet::from_rows(vec![tuple![2i64, 7i64]]);
        store.append("edges", vec![tuple![2i64, 7i64]]).unwrap();
        let out = v.on_change(&[("edges", &edge)], &store, &reg).unwrap();
        assert_eq!(out.to_deltas(), vec![Delta::insert(tuple![7i64])]);
        assert_eq!((v.len(), v.recomputes(), v.incremental_passes()), (4, 0, 1));
        // Deleting 1→2 keeps 2 reachable through 0→2; deleting 0→2 then
        // cuts 2 and 7. Each delete is one rebuild.
        let mut del = ZSet::new();
        del.add(tuple![1i64, 2i64], -1);
        assert!(v.rereads_store(&[("edges", &del)]));
        store.remove("edges", &[tuple![1i64, 2i64]]).unwrap();
        assert!(v.on_change(&[("edges", &del)], &store, &reg).unwrap().is_empty());
        let all = vec![tuple![0i64], tuple![1i64], tuple![2i64], tuple![7i64]];
        assert_eq!(stored(&store, "reach"), all, "the rebuild republished the same rows");
        let mut del = ZSet::new();
        del.add(tuple![0i64, 2i64], -1);
        store.remove("edges", &[tuple![0i64, 2i64]]).unwrap();
        let mut out = v.on_change(&[("edges", &del)], &store, &reg).unwrap().to_deltas();
        out.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        assert_eq!(out, vec![Delta::delete(tuple![2i64]), Delta::delete(tuple![7i64])]);
        assert_eq!(stored(&store, "reach"), vec![tuple![0i64], tuple![1i64]]);
        assert_eq!((v.len(), v.recomputes()), (2, 2));
        // The rebuilt flow keeps maintaining inserts.
        let edge = ZSet::from_rows(vec![tuple![1i64, 5i64]]);
        store.append("edges", vec![tuple![1i64, 5i64]]).unwrap();
        let out = v.on_change(&[("edges", &edge)], &store, &reg).unwrap();
        assert_eq!(out.to_deltas(), vec![Delta::insert(tuple![5i64])]);
        assert_eq!(stored(&store, "reach"), vec![tuple![0i64], tuple![1i64], tuple![5i64]]);
        assert_eq!(v.recomputes(), 2);
    }
}
