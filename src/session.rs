//! The session: REX's front door.
//!
//! A [`Session`] owns everything a query needs — a schema catalog for name
//! resolution, a partitioned table store, a UDF/UDA registry, and a
//! cost-based optimizer — and runs RQL text through the full pipeline:
//!
//! ```text
//! parse → resolve/plan → optimize → lower → execute
//! ```
//!
//! on whichever [`Engine`] the session was opened with. The same query
//! text, tables, and handlers produce the same rows on the single-node
//! engine and on a simulated cluster; only the execution report differs.
//!
//! ```
//! use rex::Session;
//! use rex::core::tuple::Schema;
//! use rex::core::value::DataType;
//! use rex::core::tuple;
//!
//! let mut s = Session::local();
//! s.create_table("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]))
//!     .unwrap();
//! s.insert("edges", vec![tuple![0i64, 1i64], tuple![1i64, 2i64]]).unwrap();
//! let result = s.query(
//!     "WITH reach (id) AS (SELECT src FROM edges WHERE src = 0)
//!      UNION UNTIL FIXPOINT BY id (
//!        SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id)",
//! ).unwrap();
//! assert_eq!(result.rows.len(), 3); // 0, 1, 2
//! assert!(result.report.iterations() >= 2);
//! ```

use crate::engine::{ClusterEngine, ClusterStats, Engine, LocalEngine};
use crate::snapshot::{explain_plan, text_rows, Reader, SnapshotView, ViewStat};
use rex_core::delta::Delta;
use rex_core::error::{Result, RexError};
use rex_core::handlers::{AggHandler, JoinHandler};
use rex_core::metrics::QueryReport;
use rex_core::telemetry::ExecTrace;
use rex_core::tuple::{Field, Schema, Tuple};
use rex_core::udf::{Registry, ScalarUdf};
use rex_optimizer::{Optimizer, PlanCost, ResourceVector};
use rex_rql::ast::{Query, Statement};
use rex_rql::logical::LogicalPlan;
use rex_rql::resolve::SchemaCatalog;
use rex_rql::{RqlError, RqlStage};
use rex_storage::catalog::Catalog;
use rex_storage::table::StoredTable;
use rex_views::{MaterializedView, ViewCatalog};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The unified result of [`Session::query`]: rows plus execution
/// accounting from whichever engine ran the plan.
#[derive(Debug)]
pub struct QueryResult {
    /// The materialized result rows, sorted.
    pub rows: Vec<Tuple>,
    /// Per-stratum trace and totals (identical shape on every engine).
    pub report: QueryReport,
    /// Cluster-only accounting when the query ran distributed.
    pub cluster: Option<ClusterStats>,
    /// The optimizer's cost estimate for the executed plan.
    pub cost: PlanCost,
    /// Which engine ran the query ("local", "cluster", ...).
    pub engine: String,
    /// Measured per-operator trace, when the session ran with telemetry
    /// enabled (always present for `EXPLAIN ANALYZE`).
    pub trace: Option<ExecTrace>,
}

impl QueryResult {
    /// Strata executed (1 for non-recursive queries).
    pub fn iterations(&self) -> usize {
        self.report.iterations()
    }

    /// Total simulated time in cost-model units.
    pub fn simulated_time(&self) -> f64 {
        self.report.simulated_time
    }

    /// Δ set sizes per stratum — the convergence trace.
    pub fn delta_sizes(&self) -> Vec<u64> {
        self.report.strata.iter().map(|s| s.delta_set_size).collect()
    }
}

/// One entry of the session's slow-query log: a query whose wall time
/// crossed [`Session::set_slow_query_threshold`].
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query text as submitted.
    pub rql: String,
    /// Measured wall time.
    pub wall: Duration,
    /// The engine that ran it.
    pub engine: String,
    /// Result cardinality.
    pub rows: usize,
}

/// Ring-buffer capacity of the slow-query log: old entries fall off so an
/// unattended session can never grow the log without bound.
const SLOW_LOG_CAPACITY: usize = 32;

/// A REX session: tables + user code + optimizer + engine, behind one
/// query API. See the [module docs](self) for an end-to-end example.
pub struct Session {
    schemas: SchemaCatalog,
    store: Catalog,
    registry: Registry,
    optimizer: Optimizer,
    engine: Arc<dyn Engine>,
    views: ViewCatalog,
    /// Bumped by every committed mutation (insert/delete/DDL) — the
    /// version [`snapshot`](Self::snapshot) publishes at. Two snapshots
    /// with equal versions serve identical contents.
    version: u64,
    /// Collect an [`ExecTrace`] for every query (seeded from the
    /// `REX_TELEMETRY` environment variable; see
    /// [`set_telemetry`](Self::set_telemetry)).
    telemetry: bool,
    /// Per-query thread ceiling (seeded from `REX_THREADS`, defaulting
    /// to the host's available parallelism; see
    /// [`set_threads`](Self::set_threads)).
    threads: usize,
    /// Queries at least this slow land in the ring-buffer log.
    slow_threshold: Duration,
    slow_log: VecDeque<SlowQuery>,
}

impl Session {
    /// A session executing on the single-node engine.
    pub fn local() -> Session {
        Session::with_engine(Box::new(LocalEngine::new()))
    }

    /// A session executing on a simulated cluster of `n` workers. The
    /// optimizer is calibrated for the same cluster size.
    pub fn cluster(n_workers: usize) -> Session {
        let mut s = Session::with_engine(Box::new(ClusterEngine::new(n_workers)));
        s.optimizer = Optimizer::new(n_workers.max(1));
        // Views defined in this session shard their maintenance state
        // across the same workers (when the plan co-partitions; see
        // rex_views::sharded).
        s.views.set_partitions(n_workers.max(1));
        s
    }

    /// A session on any [`Engine`] implementation.
    pub fn with_engine(engine: Box<dyn Engine>) -> Session {
        let n = 1;
        Session {
            schemas: SchemaCatalog::new(),
            store: Catalog::new(),
            registry: Registry::with_builtins(),
            optimizer: Optimizer::new(n),
            engine: Arc::from(engine),
            views: ViewCatalog::new(),
            version: 0,
            telemetry: env_telemetry(),
            threads: env_threads(),
            slow_threshold: Duration::from_millis(100),
            slow_log: VecDeque::new(),
        }
    }

    // ---- telemetry -------------------------------------------------------

    /// Collect a measured per-operator [`ExecTrace`] for every query
    /// (returned in [`QueryResult::trace`]). Off by default; the
    /// `REX_TELEMETRY` environment variable (any value but `0` or empty)
    /// turns it on at construction so unmodified binaries can be measured.
    /// `EXPLAIN ANALYZE` traces its query regardless of this toggle.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Whether per-query telemetry is being collected.
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    // ---- parallelism -----------------------------------------------------

    /// Set the per-query thread ceiling. `1` forces single-threaded
    /// execution (the historical behavior); higher values let eligible
    /// queries run morsel-parallel across that many OS threads, and flow
    /// into every [`SnapshotView`] published afterwards. Engines treat
    /// this as a ceiling: plans that cannot parallelize safely still run
    /// on one thread, and the process-wide
    /// [`thread_budget`](rex_core::thread_budget) (the server's
    /// `--threads` flag) may cap the extra threads actually spawned.
    /// View maintenance is not affected: it runs on the thread that calls
    /// [`insert`](Self::insert) or [`delete`](Self::delete).
    ///
    /// Defaults to the `REX_THREADS` environment variable when set, else
    /// the host's available parallelism.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The current per-query thread ceiling.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fault injection: kill worker `worker`'s view-maintenance shards
    /// and recover them under `strategy` — survivors adopt the dead
    /// worker's shard ranges, from replicated snapshots (`Incremental`)
    /// or by replaying base data (`Restart`); see `rex_views::sharded`
    /// and docs/FAULT.md. Published snapshots and the session's stored
    /// view copies are untouched, so reads keep being served throughout.
    /// Returns the number of shards lost (0 when no view is sharded).
    pub fn inject_failure(
        &mut self,
        worker: usize,
        strategy: rex_cluster::failure::RecoveryStrategy,
    ) -> Result<usize> {
        self.views.set_recovery(strategy);
        self.views.kill_worker(worker, &self.store, &self.registry)
    }

    /// Queries whose wall time reaches `threshold` are recorded in the
    /// slow-query log (default 100ms; `Duration::ZERO` logs everything).
    pub fn set_slow_query_threshold(&mut self, threshold: Duration) {
        self.slow_threshold = threshold;
    }

    /// The slow-query log, oldest first. A ring buffer of the 32 most
    /// recent offenders.
    pub fn slow_queries(&self) -> impl Iterator<Item = &SlowQuery> {
        self.slow_log.iter()
    }

    /// Record a finished query in the slow log if it crossed the line.
    fn note_query(&mut self, rql: &str, wall: Duration, rows: usize) {
        if wall < self.slow_threshold {
            return;
        }
        if self.slow_log.len() == SLOW_LOG_CAPACITY {
            self.slow_log.pop_front();
        }
        self.slow_log.push_back(SlowQuery {
            rql: rql.to_string(),
            wall,
            engine: self.engine.name().to_string(),
            rows,
        });
    }

    /// Swap the execution engine, keeping tables and registered code. The
    /// same queries run unchanged on the new backend.
    pub fn set_engine(&mut self, engine: Box<dyn Engine>) {
        self.engine = Arc::from(engine);
    }

    /// The current mutation version: how many committed mutations
    /// (inserts/deletes/DDL) this session has applied. Monotonic; carried
    /// by every published [`SnapshotView`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Publish an immutable, versioned snapshot of the database — the
    /// concurrent read path (see [`crate::snapshot`]). Optimizer
    /// statistics are frozen at current cardinalities, and the stored
    /// tables — materialized views' rows included — are captured
    /// copy-on-write in O(tables) `Arc` bumps. The returned
    /// `Arc<SnapshotView>` can be queried from any number of threads and
    /// keeps serving this exact version no matter what the session does
    /// next.
    pub fn snapshot(&mut self) -> Result<Arc<SnapshotView>> {
        self.refresh_stats();
        let views = self
            .views
            .names()
            .into_iter()
            .map(|name| {
                let v = self.views.get(&name).expect("view exists");
                ViewStat { strategy: v.strategy().to_string(), name }
            })
            .collect();
        Ok(Arc::new(SnapshotView::assemble(
            self.version,
            self.schemas.clone(),
            self.store.snapshot(),
            self.registry.clone(),
            self.optimizer.clone(),
            Arc::clone(&self.engine),
            views,
            self.telemetry,
            self.threads,
        )))
    }

    /// The active engine's name.
    pub fn engine_name(&self) -> &str {
        self.engine.name()
    }

    // ---- tables ----------------------------------------------------------

    /// Create an empty table partitioned on its first column (the paper's
    /// key-based partitioning; use [`create_table_partitioned`](Self::create_table_partitioned)
    /// to choose the key).
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let cols = if schema.arity() > 0 { vec![0] } else { Vec::new() };
        self.create_table_partitioned(name, schema, cols)
    }

    /// Create an empty table partitioned on the given columns.
    pub fn create_table_partitioned(
        &mut self,
        name: &str,
        schema: Schema,
        partition_cols: Vec<usize>,
    ) -> Result<()> {
        if self.store.contains(name) {
            return Err(RexError::Storage(format!("table {name} already exists")));
        }
        if let Some(&bad) = partition_cols.iter().find(|&&c| c >= schema.arity()) {
            return Err(RexError::Storage(format!(
                "table {name}: partition column {bad} out of range for arity {}",
                schema.arity()
            )));
        }
        self.schemas.register(name, schema.clone());
        self.store.register(StoredTable::new(name, schema, partition_cols));
        self.version += 1;
        Ok(())
    }

    /// Append rows to a table (validated against its schema; a bad batch
    /// leaves the table unchanged). Returns the number of rows inserted.
    /// Materialized views reading the table are maintained incrementally
    /// from the batch's `+()` deltas. If view *maintenance* fails after
    /// the append validated, the rows stay committed — do not retry the
    /// batch — and every view is rebuilt from the current tables before
    /// the error is returned (the message says whether rebuild succeeded).
    pub fn insert(&mut self, table: &str, rows: Vec<Tuple>) -> Result<usize> {
        self.insert_stream(table, std::iter::once(rows))
    }

    /// Batched streaming ingest: append a *stream* of row batches to one
    /// table, then run a **single** view-maintenance pass over the
    /// combined deltas. This is the shared write path for embedded users
    /// and the server's writer loop (which drains a channel of batches
    /// into one call) — per-batch semantics match [`insert`](Self::insert)
    /// exactly (whole-batch validation; a bad batch leaves the table
    /// unchanged), but maintenance cost is paid once per stream, not once
    /// per batch. Returns the total rows inserted.
    ///
    /// If a batch fails validation mid-stream, earlier batches stay
    /// committed (views are maintained for them before the error
    /// surfaces) and the failing batch plus the rest of the stream are
    /// not consumed.
    pub fn insert_stream<I>(&mut self, table: &str, batches: I) -> Result<usize>
    where
        I: IntoIterator<Item = Vec<Tuple>>,
    {
        if self.views.contains(table) {
            return Err(RexError::Storage(format!("cannot insert into materialized view {table}")));
        }
        let track = self.views.reads(table);
        let mut deltas: Vec<Delta> = Vec::new();
        let mut total = 0usize;
        let mut failed: Option<RexError> = None;
        for rows in batches {
            let committed = deltas.len();
            if track {
                deltas.extend(rows.iter().cloned().map(Delta::insert));
            }
            match self.store.append(table, rows) {
                Ok(n) => total += n,
                Err(e) => {
                    // The failing batch never reached the store: its
                    // deltas must not reach the views either.
                    deltas.truncate(committed);
                    failed = Some(e);
                    break;
                }
            }
        }
        if total > 0 {
            self.version += 1;
        }
        let maintained = self.maintain_views(table, &deltas);
        match (failed, maintained) {
            (None, Ok(())) => Ok(total),
            (None, Err(m)) => Err(m),
            (Some(e), Ok(())) => Err(e),
            (Some(e), Err(m)) => Err(RexError::Exec(format!(
                "batch rejected ({e}); maintenance of the committed prefix also failed: {m}"
            ))),
        }
    }

    /// Delete one occurrence of each given row (whole-batch validation,
    /// mirroring [`insert`](Self::insert): a bad batch — wrong schema or a
    /// row not stored with sufficient multiplicity — leaves the table
    /// unchanged). Materialized views reading the table are maintained
    /// from the batch's `-()` deltas. Returns the number of rows deleted.
    /// As with [`insert`](Self::insert), a *maintenance* failure leaves
    /// the deletion committed and rebuilds the views before erroring.
    pub fn delete(&mut self, table: &str, rows: Vec<Tuple>) -> Result<usize> {
        if self.views.contains(table) {
            return Err(RexError::Storage(format!("cannot delete from materialized view {table}")));
        }
        let n = self.store.remove(table, &rows)?;
        self.version += 1;
        let deltas: Vec<Delta> = rows.into_iter().map(Delta::delete).collect();
        self.maintain_views(table, &deltas)?;
        Ok(n)
    }

    /// Delete every row of `table` matching an RQL predicate (the `WHERE`
    /// body, e.g. `"dst > 3 AND src = 0"`). Returns the number deleted.
    pub fn delete_where(&mut self, table: &str, predicate: &str) -> Result<usize> {
        let sql = format!("SELECT * FROM {table} WHERE {predicate}");
        let logical = rex_rql::plan_rql(&sql, &self.schemas, &self.registry)?;
        let matching = rex_views::evaluate(&logical, &self.store, &self.registry)?;
        self.delete(table, matching)
    }

    /// Drop a table. Typed errors distinguish the failure modes: the table
    /// may not exist, may be a view (use [`drop_view`](Self::drop_view)),
    /// or may still be read by materialized views (drop those first).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        if self.views.contains(name) {
            return Err(RexError::Storage(format!("{name} is a materialized view; use DROP VIEW")));
        }
        let readers = self.views.dependents(name);
        if !readers.is_empty() {
            return Err(RexError::Storage(format!(
                "cannot drop {name}: materialized view(s) {} depend on it",
                readers.join(", ")
            )));
        }
        self.store.drop_table(name)?;
        self.schemas.remove(name);
        self.version += 1;
        Ok(())
    }

    /// Number of rows currently stored in `table` (or materialized in a
    /// view of that name).
    pub fn table_rows(&self, table: &str) -> Result<usize> {
        Ok(self.store.get(table)?.len())
    }

    /// Feed a base-table change to every dependent materialized view. The
    /// base-table mutation has already committed; if maintenance fails
    /// partway (some views updated, some not), every view is rebuilt from
    /// the current table contents so view state stays equivalent to a full
    /// recompute, and the error is surfaced with that context.
    fn maintain_views(&mut self, table: &str, deltas: &[Delta]) -> Result<()> {
        if deltas.is_empty() || !self.views.reads(table) {
            return Ok(());
        }
        if let Err(e) = self.views.on_base_change(table, deltas, &self.store, &self.registry) {
            return Err(match self.views.rebuild_all(&self.store, &self.registry) {
                Ok(()) => RexError::Exec(format!(
                    "view maintenance failed (all views rebuilt from current tables): {e}"
                )),
                Err(r) => RexError::Exec(format!(
                    "view maintenance failed ({e}) and the consistency rebuild also failed \
                     ({r}); view contents may diverge from their base tables"
                )),
            });
        }
        Ok(())
    }

    /// The stored-table catalog (shared with the engines).
    pub fn store(&self) -> &Catalog {
        &self.store
    }

    // ---- user code -------------------------------------------------------

    /// Register a scalar UDF.
    pub fn register_scalar(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.registry.register_scalar(udf);
    }

    /// Register a user-defined aggregate (UDA).
    pub fn register_aggregate(&mut self, name: &str, h: Arc<dyn AggHandler>) {
        self.registry.register_agg(name, h);
    }

    /// Register a join delta handler (Listing 1's `PRAgg` and friends).
    pub fn register_join(&mut self, name: &str, h: Arc<dyn JoinHandler>) {
        self.registry.register_join(name, h);
    }

    /// The registry (for advanced registration paths).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    // ---- queries ---------------------------------------------------------

    /// Parse and plan `rql` without executing it: the logical plan as the
    /// optimizer will see it (for `CREATE MATERIALIZED VIEW`, the plan of
    /// the defining query).
    pub fn plan(&self, rql: &str) -> Result<LogicalPlan> {
        Ok(rex_rql::plan_rql(rql, &self.schemas, &self.registry)?)
    }

    /// Run an RQL statement. Queries go through the full pipeline — parse
    /// → resolve → optimize → lower → execute — on the session's engine;
    /// DDL (`CREATE TABLE`, `CREATE MATERIALIZED VIEW`, `DROP VIEW`,
    /// `DROP TABLE`) is executed against the session's catalogs and
    /// returns an empty row set. A query that scans a view name reads its
    /// materialized state — no recomputation of the defining query.
    ///
    /// Result rows come back sorted — unless the query has a top-level
    /// `ORDER BY`, in which case they come back in that order (ties
    /// resolved by full-row comparison, identically on every engine).
    pub fn query(&mut self, rql: &str) -> Result<QueryResult> {
        let stmt = rex_rql::parse(rql).map_err(|e| RqlError::at(RqlStage::Parse, e))?;
        match stmt {
            Statement::Explain { inner, analyze } if inner.is_ddl() => {
                if analyze {
                    return Err(RexError::Plan(
                        "EXPLAIN ANALYZE requires a query (DDL has nothing to execute)".into(),
                    ));
                }
                // Plain EXPLAIN of DDL: the catalog-action rendering
                // `Session::explain` produces, as text rows.
                let text = self.explain_stmt(&inner, rql)?;
                let mut r = self.ddl_result(zero_cost());
                r.rows = text_rows(&text);
                Ok(r)
            }
            Statement::Query(_) | Statement::Explain { .. } => {
                self.refresh_stats();
                let t0 = Instant::now();
                let views = &self.views;
                let r = Reader {
                    schemas: &self.schemas,
                    store: &self.store,
                    registry: &self.registry,
                    optimizer: &self.optimizer,
                    engine: self.engine.as_ref(),
                    is_view: &|t| views.contains(t),
                    telemetry: self.telemetry,
                    threads: self.threads,
                }
                .read(&stmt)?;
                let rows = r.trace.as_ref().map_or(r.rows.len(), |t| t.sink_rows() as usize);
                self.note_query(rql, t0.elapsed(), rows);
                Ok(r)
            }
            Statement::CreateTable { name, columns } => {
                let schema =
                    Schema::new(columns.into_iter().map(|(n, t)| Field::new(n, t)).collect());
                self.create_table(&name, schema)?;
                Ok(self.ddl_result(zero_cost()))
            }
            Statement::CreateView { name, query } => {
                let cost = self.define_view(&name, rql, &query)?;
                Ok(self.ddl_result(cost))
            }
            Statement::DropView { name } => {
                self.drop_view(&name)?;
                Ok(self.ddl_result(zero_cost()))
            }
            Statement::DropTable { name } => {
                self.drop_table(&name)?;
                Ok(self.ddl_result(zero_cost()))
            }
        }
    }

    /// EXPLAIN: the logical plan, the optimizer's rewrite, and its cost
    /// estimate, without executing. For `CREATE MATERIALIZED VIEW`, also
    /// the maintenance strategy the view would be created with; for an
    /// existing view, `explain("SELECT ... FROM <view>")` shows the scan
    /// of materialized state.
    pub fn explain(&mut self, rql: &str) -> Result<String> {
        let stmt = rex_rql::parse(rql).map_err(|e| RqlError::at(RqlStage::Parse, e))?;
        self.explain_stmt(&stmt, rql)
    }

    /// The body of [`explain`](Self::explain), shared with the
    /// `EXPLAIN <ddl>` statement path.
    fn explain_stmt(&mut self, stmt: &Statement, rql: &str) -> Result<String> {
        // Explaining an EXPLAIN explains the wrapped statement.
        if let Statement::Explain { inner, .. } = stmt {
            return self.explain_stmt(inner, rql);
        }
        // Catalog-only DDL has no dataflow plan: explain it as the
        // catalog action it is.
        match &stmt {
            Statement::CreateTable { name, columns } => {
                let cols: Vec<String> = columns.iter().map(|(n, t)| format!("{n} {t}")).collect();
                return Ok(format!(
                    "== ddl ==\nCREATE TABLE {name} ({}): registers an empty stored table \
                     partitioned on its first column\n",
                    cols.join(", ")
                ));
            }
            Statement::DropView { name } => {
                return Ok(format!(
                    "== ddl ==\nDROP VIEW {name}: removes the materialized view and its stored \
                     copy (refused while other views read it)\n"
                ));
            }
            Statement::DropTable { name } => {
                return Ok(format!(
                    "== ddl ==\nDROP TABLE {name}: removes the stored table (refused while \
                     materialized views read it)\n"
                ));
            }
            _ => {}
        }
        let (logical, view) = match &stmt {
            Statement::CreateView { name, query } => (self.plan_view_query(query)?, Some(name)),
            _ => (
                rex_rql::logical::plan(stmt, &self.schemas, &self.registry)
                    .map_err(|e| RqlError::at(RqlStage::Plan, e))?,
                None,
            ),
        };
        self.refresh_stats();
        let (mut text, optimized, _) = explain_plan(logical, &self.optimizer)?;
        if let Some(name) = view {
            let probe = MaterializedView::define(name.as_str(), rql, optimized, &self.registry);
            text.push_str(&format!("== maintenance ==\n{}: {}\n", probe.name(), probe.strategy()));
        }
        text.push_str(&self.render_view_metrics());
        Ok(text)
    }

    /// The `== view metrics ==` section of EXPLAIN output: one line per
    /// materialized view with its cumulative maintenance counters, plus
    /// the bytes maintenance wrote into the views' stored tables. Empty
    /// when no views exist.
    fn render_view_metrics(&self) -> String {
        if self.views.is_empty() {
            return String::new();
        }
        let mut out = String::from("== view metrics ==\n");
        for m in self.views.metrics() {
            out.push_str(&format!(
                "{} [{}]: rows={} deltas_in={} deltas_out={} passes={} recomputes={} \
                 maint_time={} state_bytes={}\n",
                m.name,
                m.strategy,
                m.rows,
                m.deltas_in,
                m.deltas_out,
                m.incremental_passes,
                m.recomputes,
                rex_core::telemetry::fmt_ns(m.maint_ns),
                m.state_bytes,
            ));
        }
        out.push_str(&format!("sync_bytes={}\n", self.views.sync_bytes()));
        out
    }

    /// Per-view maintenance counters, in creation order (what the
    /// `== view metrics ==` EXPLAIN section renders).
    pub fn view_metrics(&self) -> Vec<rex_views::ViewMetrics> {
        self.views.metrics()
    }

    // ---- materialized views ----------------------------------------------

    /// Create a materialized view named `name` over an RQL query —
    /// the programmatic form of `CREATE MATERIALIZED VIEW name AS query`.
    /// The view is populated immediately and maintained on every
    /// [`insert`](Self::insert)/[`delete`](Self::delete) to its base
    /// tables; its maintenance strategy (incremental delta propagation vs
    /// full recompute for shapes the delta rules don't cover) is chosen
    /// automatically. Like a query, the view runs its optimized plan:
    /// filters pushed below joins shrink the join state it maintains.
    pub fn create_materialized_view(&mut self, name: &str, query: &str) -> Result<()> {
        let stmt = rex_rql::parse(query).map_err(|e| RqlError::at(RqlStage::Parse, e))?;
        let Statement::Query(q) = stmt else {
            return Err(RexError::Plan(format!(
                "view {name}: the defining statement must be a query"
            )));
        };
        let sql = format!("CREATE MATERIALIZED VIEW {name} AS {query}");
        self.define_view(name, &sql, &q)?;
        Ok(())
    }

    /// Drop a materialized view (refused while other views read it).
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        self.views.drop_view(name, &self.store)?;
        self.schemas.remove(name);
        self.version += 1;
        Ok(())
    }

    /// Names of all materialized views, in creation order.
    pub fn view_names(&self) -> Vec<String> {
        self.views.names()
    }

    /// A view's maintenance strategy, rendered ("incremental delta
    /// propagation" / "full recompute (reason)").
    pub fn view_strategy(&self, name: &str) -> Result<String> {
        self.views
            .get(name)
            .map(|v| v.strategy().to_string())
            .ok_or_else(|| RexError::Storage(format!("unknown view: {name}")))
    }

    /// The view catalog (dependency and state inspection).
    pub fn views(&self) -> &ViewCatalog {
        &self.views
    }

    /// Plan a view's defining query, rejecting shapes views can't serve.
    /// `ORDER BY`/`LIMIT` are query-only: a materialized view is an
    /// unordered relation maintained by deltas, so an ordered definition
    /// is refused outright rather than silently losing its order (or
    /// silently degrading to recompute-on-every-change).
    fn plan_view_query(&self, query: &Query) -> Result<LogicalPlan> {
        let stmt = Statement::Query(query.clone());
        let plan = rex_rql::logical::plan(&stmt, &self.schemas, &self.registry)
            .map_err(|e| RexError::from(RqlError::at(RqlStage::Plan, e)))?;
        if plan.has_order_or_limit() {
            return Err(RexError::from(RqlError::at(
                RqlStage::Plan,
                RexError::Plan(
                    "ORDER BY/LIMIT are not view-definable: a materialized view is an \
                     unordered relation — apply ordering in queries over the view"
                        .into(),
                ),
            )));
        }
        Ok(plan)
    }

    /// Shared view-creation path for DDL and the programmatic API: the
    /// view maintains — and its recompute fallback evaluates — the
    /// optimized plan, the one a query of the same text would run.
    /// Returns the optimizer's estimate for the initial materialization.
    fn define_view(&mut self, name: &str, sql: &str, query: &Query) -> Result<PlanCost> {
        if self.schemas.contains(name) || self.store.contains(name) {
            return Err(RexError::Storage(format!("table or view {name} already exists")));
        }
        let plan = self.plan_view_query(query)?;
        self.refresh_stats();
        let (plan, cost) = self.optimizer.optimize(plan)?;
        let view = MaterializedView::define_partitioned(
            name,
            sql,
            plan,
            &self.registry,
            self.views.partitions(),
            self.views.recovery(),
        );
        let schema = view.schema().clone();
        self.views.create(view, &self.store, &self.registry)?;
        self.schemas.register(name, schema);
        self.version += 1;
        Ok(cost)
    }

    /// The uniform result shape for DDL statements.
    fn ddl_result(&self, cost: PlanCost) -> QueryResult {
        QueryResult {
            rows: Vec::new(),
            report: QueryReport::default(),
            cluster: None,
            cost,
            engine: self.engine.name().to_string(),
            trace: None,
        }
    }

    /// Feed current table cardinalities to the optimizer so its estimates
    /// track the data the engines will actually scan. Views are stored
    /// tables here too, so view scans are costed from real cardinalities.
    fn refresh_stats(&mut self) {
        for name in self.store.table_names() {
            if let Ok(t) = self.store.get(&name) {
                self.optimizer.stats.set_table_rows(name, t.len() as u64);
            }
        }
    }
}

/// The no-work cost estimate attached to catalog-only DDL results.
fn zero_cost() -> PlanCost {
    PlanCost { rows: 0, resources: ResourceVector::default() }
}

/// The `REX_TELEMETRY` toggle: any value but `0` or empty enables
/// per-query tracing in every session the process constructs.
fn env_telemetry() -> bool {
    std::env::var("REX_TELEMETRY").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// The default per-query thread ceiling: `REX_THREADS` when set to a
/// positive integer, else the host's available parallelism.
fn env_threads() -> usize {
    std::env::var("REX_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple;
    use rex_core::value::DataType;

    fn edge_session(engine: &str) -> Session {
        let mut s = match engine {
            "cluster" => Session::cluster(3),
            _ => Session::local(),
        };
        s.create_table("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]))
            .unwrap();
        s.insert(
            "edges",
            vec![tuple![0i64, 1i64], tuple![1i64, 2i64], tuple![2i64, 3i64], tuple![0i64, 2i64]],
        )
        .unwrap();
        s
    }

    #[test]
    fn select_runs_on_both_engines_with_cost_estimate() {
        for engine in ["local", "cluster"] {
            let mut s = edge_session(engine);
            let r = s.query("SELECT dst FROM edges WHERE src = 0").unwrap();
            assert_eq!(r.rows, vec![tuple![1i64], tuple![2i64]], "{engine}");
            assert_eq!(r.engine, engine);
            assert!(r.cost.runtime() > 0.0, "optimizer must cost the plan");
        }
    }

    #[test]
    fn recursive_query_agrees_across_engines() {
        let run = |engine: &str| {
            let mut s = edge_session(engine);
            s.create_table("seed", Schema::of(&[("id", DataType::Int)])).unwrap();
            s.insert("seed", vec![tuple![0i64]]).unwrap();
            s.query(
                "WITH reach (id) AS (SELECT id FROM seed)
                 UNION UNTIL FIXPOINT BY id (
                   SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id)",
            )
            .unwrap()
        };
        let local = run("local");
        let cluster = run("cluster");
        assert_eq!(local.rows, cluster.rows);
        assert_eq!(local.rows.len(), 4);
        assert!(cluster.cluster.is_some(), "cluster run carries worker stats");
        assert!(local.cluster.is_none());
        assert_eq!(*local.delta_sizes().last().unwrap(), 0, "converged");
    }

    #[test]
    fn diverging_recursion_is_an_error_on_both_engines() {
        // Every step adds one to every counter, so the recursion never
        // converges: it must fail at the runtime's strata cap rather than
        // return the counters as they stood when some lower cap stopped it.
        let diverging = "WITH R (k, v) AS (SELECT src AS k, 0 AS v FROM edges)
             UNION UNTIL FIXPOINT BY k (
               SELECT R.k, R.v + 1 FROM R, edges WHERE R.k = edges.src)";
        for engine in ["local", "cluster"] {
            let mut s = edge_session(engine);
            for threads in [1, 4] {
                s.set_threads(threads);
                match s.query(diverging) {
                    Err(RexError::Exec(m)) => {
                        assert!(m.contains("10000 strata without converging"), "{engine}: {m}")
                    }
                    other => panic!(
                        "{engine}/{threads} threads: expected an error, got {:?}",
                        other.map(|r| r.rows)
                    ),
                }
                // The session answers the next query.
                let r = s.query("SELECT dst FROM edges WHERE src = 0").unwrap();
                assert_eq!(r.rows, vec![tuple![1i64], tuple![2i64]], "{engine}/{threads}");
            }
        }
    }

    #[test]
    fn insert_validates_and_accumulates() {
        let mut s = edge_session("local");
        assert_eq!(s.table_rows("edges").unwrap(), 4);
        s.insert("edges", vec![tuple![3i64, 0i64]]).unwrap();
        assert_eq!(s.table_rows("edges").unwrap(), 5);
        // Wrong arity is rejected and leaves the table unchanged.
        assert!(s.insert("edges", vec![tuple![1i64]]).is_err());
        assert_eq!(s.table_rows("edges").unwrap(), 5);
    }

    #[test]
    fn duplicate_table_is_rejected() {
        let mut s = edge_session("local");
        let err = s.create_table("edges", Schema::of(&[("x", DataType::Int)])).unwrap_err();
        assert!(err.to_string().contains("already exists"));
    }

    #[test]
    fn bad_partition_column_is_rejected() {
        let mut s = Session::local();
        let err = s
            .create_table_partitioned("t", Schema::of(&[("x", DataType::Int)]), vec![3])
            .unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn parse_and_plan_errors_convert_cleanly() {
        let mut s = edge_session("local");
        assert!(matches!(s.query("SELEKT zzz"), Err(RexError::Parse { .. })));
        assert!(matches!(s.query("SELECT x FROM missing"), Err(RexError::Plan(_))));
    }

    #[test]
    fn explain_shows_both_plans_and_estimate() {
        let mut s = edge_session("local");
        let txt = s.explain("SELECT src, count(*) FROM edges WHERE dst > 1 GROUP BY src").unwrap();
        assert!(txt.contains("== logical =="));
        assert!(txt.contains("== optimized =="));
        assert!(txt.contains("Aggregate"));
        assert!(txt.contains("runtime"));
    }

    #[test]
    fn engine_swap_keeps_tables_and_handlers() {
        let mut s = edge_session("local");
        let local_rows = s.query("SELECT src, count(*) FROM edges GROUP BY src").unwrap().rows;
        s.set_engine(Box::new(ClusterEngine::new(4)));
        assert_eq!(s.engine_name(), "cluster");
        let cluster_rows = s.query("SELECT src, count(*) FROM edges GROUP BY src").unwrap().rows;
        assert_eq!(local_rows, cluster_rows);
    }

    #[test]
    fn create_view_query_and_maintain() {
        for engine in ["local", "cluster"] {
            let mut s = edge_session(engine);
            let r = s
                .query("CREATE MATERIALIZED VIEW fanout AS SELECT src, count(*) FROM edges GROUP BY src")
                .unwrap();
            assert!(r.rows.is_empty());
            assert!(r.cost.runtime() > 0.0, "creation is costed as the initial materialization");
            // The view answers scans from materialized state on any engine.
            let rows = s.query("SELECT src FROM fanout WHERE count > 1").unwrap().rows;
            assert_eq!(rows, vec![tuple![0i64]], "{engine}");
            // Inserts maintain the view; deletes retract.
            s.insert("edges", vec![tuple![1i64, 9i64]]).unwrap();
            let rows = s.query("SELECT src FROM fanout WHERE count > 1").unwrap().rows;
            assert_eq!(rows, vec![tuple![0i64], tuple![1i64]], "{engine}");
            s.delete("edges", vec![tuple![1i64, 9i64], tuple![1i64, 2i64]]).unwrap();
            let rows = s.query("SELECT src, count FROM fanout").unwrap().rows;
            assert_eq!(rows, vec![tuple![0i64, 2i64], tuple![2i64, 1i64]], "{engine}");
        }
    }

    #[test]
    fn bare_view_scans_are_served_from_view_state() {
        let mut s = edge_session("local");
        s.create_materialized_view("fanout", "SELECT src, count(*) FROM edges GROUP BY src")
            .unwrap();
        let r = s.query("SELECT * FROM fanout").unwrap();
        assert_eq!(r.engine, "view-state", "bare scans skip the engine");
        assert_eq!(r.rows, vec![tuple![0i64, 2i64], tuple![1i64, 1i64], tuple![2i64, 1i64]]);
        assert_eq!(r.cost.rows as usize, r.rows.len());
        // Maintenance keeps the served rows, the view's sorted stored
        // table, fresh.
        s.insert("edges", vec![tuple![1i64, 9i64], tuple![5i64, 0i64]]).unwrap();
        s.delete("edges", vec![tuple![0i64, 1i64]]).unwrap();
        let fast = s.query("SELECT * FROM fanout").unwrap();
        // Oracle: the same rows through the full engine pipeline.
        let slow = s.query("SELECT src, count FROM fanout WHERE src >= 0").unwrap();
        assert_eq!(slow.engine, "local", "non-bare scans still run on the engine");
        assert_eq!(fast.rows, slow.rows);
        // A bare scan of a *table* is not intercepted.
        let t = s.query("SELECT * FROM edges").unwrap();
        assert_eq!(t.engine, "local");
    }

    #[test]
    fn drop_table_is_typed_and_respects_view_dependencies() {
        let mut s = edge_session("local");
        let err = s.drop_table("missing").unwrap_err();
        assert!(err.to_string().contains("unknown table"));
        s.create_materialized_view("v", "SELECT src FROM edges WHERE dst > 1").unwrap();
        let err = s.drop_table("edges").unwrap_err();
        assert!(err.to_string().contains("depend on it"));
        let err = s.drop_table("v").unwrap_err();
        assert!(err.to_string().contains("use DROP VIEW"));
        assert!(matches!(s.insert("v", vec![tuple![1i64]]), Err(RexError::Storage(_))));
        s.query("DROP VIEW v").unwrap();
        s.query("DROP TABLE edges").unwrap();
        assert!(s.query("SELECT src FROM edges").is_err(), "schema is unregistered too");
    }

    #[test]
    fn explain_shows_maintenance_strategy() {
        let mut s = edge_session("local");
        let txt = s
            .explain("CREATE MATERIALIZED VIEW agg AS SELECT src, sum(dst) FROM edges GROUP BY src")
            .unwrap();
        assert!(txt.contains("== maintenance =="));
        assert!(txt.contains("agg: incremental delta propagation\n"), "{txt}");
        let txt = s
            .explain(
                "CREATE MATERIALIZED VIEW reach AS
                 WITH R (id) AS (SELECT src FROM edges WHERE src = 0)
                 UNION UNTIL FIXPOINT BY id (
                   SELECT edges.dst FROM edges, R WHERE edges.src = R.id)",
            )
            .unwrap();
        assert!(txt.contains("reach: incremental delta propagation\n"), "{txt}");
        let txt = s
            .explain(
                "CREATE MATERIALIZED VIEW reach AS
                 WITH R (id) AS (SELECT src FROM edges WHERE src = 0)
                 UNION UNTIL FIXPOINT BY id (
                   SELECT DISTINCT edges.dst FROM edges, R WHERE edges.src = R.id)",
            )
            .unwrap();
        assert!(txt.contains("full recompute"));
        assert!(txt.contains("recursive fixpoint"));
        assert!(s.view_names().is_empty(), "explain must not create the view");
    }

    #[test]
    fn delete_where_evaluates_predicates() {
        let mut s = edge_session("local");
        assert_eq!(s.delete_where("edges", "src = 0 AND dst > 1").unwrap(), 1);
        assert_eq!(s.table_rows("edges").unwrap(), 3);
        // Whole-batch validation: deleting a missing row is refused.
        let err = s.delete("edges", vec![tuple![42i64, 42i64]]).unwrap_err();
        assert!(err.to_string().contains("only 0 stored"));
        assert_eq!(s.table_rows("edges").unwrap(), 3);
    }

    /// A recursion whose step aggregates (`DISTINCT` is a group-by) is
    /// outside the insert-only continuation and recomputes.
    #[test]
    fn recursive_view_recomputes_on_change() {
        let mut s = edge_session("local");
        s.query(
            "CREATE MATERIALIZED VIEW reach AS
             WITH R (id) AS (SELECT src FROM edges WHERE src = 0)
             UNION UNTIL FIXPOINT BY id (
               SELECT DISTINCT edges.dst FROM edges, R WHERE edges.src = R.id)",
        )
        .unwrap();
        assert!(s.view_strategy("reach").unwrap().contains("full recompute"));
        assert_eq!(s.table_rows("reach").unwrap(), 4);
        s.insert("edges", vec![tuple![3i64, 7i64]]).unwrap();
        let rows = s.query("SELECT id FROM reach").unwrap().rows;
        assert_eq!(
            rows,
            vec![tuple![0i64], tuple![1i64], tuple![2i64], tuple![3i64], tuple![7i64]]
        );
        assert_eq!(s.views().get("reach").unwrap().recomputes(), 1);
    }

    /// Set-semantics reachability is maintained: inserts continue the
    /// converged fixpoint, a delete rebuilds it once.
    #[test]
    fn recursive_view_maintains_incrementally() {
        let mut s = edge_session("local");
        let sql = "WITH R (id) AS (SELECT src FROM edges WHERE src = 0)
                   UNION UNTIL FIXPOINT BY id (
                     SELECT edges.dst FROM edges, R WHERE edges.src = R.id)";
        s.query(&format!("CREATE MATERIALIZED VIEW reach AS {sql}")).unwrap();
        assert!(s.view_strategy("reach").unwrap().contains("incremental"));
        s.insert("edges", vec![tuple![3i64, 7i64], tuple![7i64, 8i64]]).unwrap();
        let rows = s.query("SELECT id FROM reach").unwrap().rows;
        assert_eq!(rows, s.query(sql).unwrap().rows);
        assert_eq!(rows.len(), 6);
        assert_eq!(s.views().get("reach").unwrap().recomputes(), 0);
        s.delete("edges", vec![tuple![3i64, 7i64]]).unwrap();
        assert_eq!(s.query("SELECT id FROM reach").unwrap().rows, s.query(sql).unwrap().rows);
        assert_eq!(s.views().get("reach").unwrap().recomputes(), 1);
    }

    #[test]
    fn mixed_case_views_and_tables_drop_cleanly() {
        let mut s = edge_session("local");
        // Mixed-case view: drop via lowercase DDL, then re-create.
        s.create_materialized_view("Hot", "SELECT src FROM edges WHERE dst > 1").unwrap();
        s.query("DROP VIEW hot").unwrap();
        s.create_materialized_view("Hot", "SELECT src FROM edges WHERE dst > 1")
            .expect("stale schema must not block re-creation");
        s.query("DROP VIEW HOT").unwrap();
        // Mixed-case table: same story.
        s.create_table("Tmp", Schema::of(&[("x", DataType::Int)])).unwrap();
        s.drop_table("tmp").unwrap();
        s.create_table("Tmp", Schema::of(&[("x", DataType::Int)]))
            .expect("stale schema must not block re-creation");
    }

    #[test]
    fn view_scans_are_costed_from_materialized_cardinality() {
        let mut s = edge_session("local");
        s.create_materialized_view("fanout", "SELECT src, count(*) FROM edges GROUP BY src")
            .unwrap();
        let r = s.query("SELECT src FROM fanout").unwrap();
        assert_eq!(r.cost.rows as usize, r.rows.len(), "stats see the view's true row count");
    }

    #[test]
    fn global_aggregate_is_one_row_on_cluster() {
        let mut s = edge_session("cluster");
        let r = s.query("SELECT sum(dst), count(*) FROM edges").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(1).as_int(), Some(4));
    }

    #[test]
    fn create_table_ddl_registers_a_table() {
        for engine in ["local", "cluster"] {
            let mut s = edge_session(engine);
            let r = s.query("CREATE TABLE scores (name string, score double)").unwrap();
            assert!(r.rows.is_empty());
            use rex_core::value::Value;
            s.insert(
                "scores",
                vec![
                    Tuple::new(vec![Value::str("ada"), Value::Double(1.5)]),
                    Tuple::new(vec![Value::str("alan"), Value::Double(0.5)]),
                ],
            )
            .unwrap();
            let rows = s.query("SELECT name FROM scores WHERE score > 1").unwrap().rows;
            assert_eq!(rows.len(), 1, "{engine}");
            // Duplicate creation fails; DDL explain names the action.
            assert!(s.query("CREATE TABLE scores (x int)").is_err());
            let txt = s.explain("CREATE TABLE other (x int, y double)").unwrap();
            assert!(txt.contains("CREATE TABLE other"), "{txt}");
            assert!(s.view_names().is_empty() && !s.store().contains("other"), "explain is dry");
        }
    }

    #[test]
    fn order_by_returns_rows_in_presentation_order() {
        for engine in ["local", "cluster"] {
            let mut s = edge_session(engine);
            let r = s.query("SELECT src, dst FROM edges ORDER BY dst DESC, src LIMIT 3").unwrap();
            assert_eq!(
                r.rows,
                vec![tuple![2i64, 3i64], tuple![0i64, 2i64], tuple![1i64, 2i64]],
                "{engine}: descending dst, ties by src"
            );
            // OFFSET past the end is empty; LIMIT larger than the table
            // returns everything (in order).
            assert!(s
                .query("SELECT src FROM edges ORDER BY src LIMIT 2 OFFSET 9")
                .unwrap()
                .rows
                .is_empty());
            let all = s.query("SELECT dst FROM edges ORDER BY dst DESC LIMIT 99").unwrap().rows;
            assert_eq!(all, vec![tuple![3i64], tuple![2i64], tuple![2i64], tuple![1i64]]);
        }
    }

    #[test]
    fn distinct_having_and_expression_aggregates_run_end_to_end() {
        for engine in ["local", "cluster"] {
            let mut s = edge_session(engine);
            let d = s.query("SELECT DISTINCT src FROM edges").unwrap().rows;
            assert_eq!(d, vec![tuple![0i64], tuple![1i64], tuple![2i64]], "{engine}");
            let h = s
                .query("SELECT src, count(*) FROM edges GROUP BY src HAVING count(*) > 1")
                .unwrap()
                .rows;
            assert_eq!(h, vec![tuple![0i64, 2i64]], "{engine}");
            let e = s.query("SELECT src, sum(dst * dst) FROM edges GROUP BY src").unwrap().rows;
            assert_eq!(
                e,
                vec![tuple![0i64, 5.0f64], tuple![1i64, 4.0f64], tuple![2i64, 9.0f64]],
                "{engine}"
            );
        }
    }

    #[test]
    fn ordered_view_definitions_are_rejected() {
        let mut s = edge_session("local");
        for sql in [
            "CREATE MATERIALIZED VIEW v AS SELECT src FROM edges ORDER BY src",
            "CREATE MATERIALIZED VIEW v AS SELECT src FROM edges LIMIT 3",
        ] {
            let err = s.query(sql).unwrap_err();
            assert!(matches!(err, RexError::Plan(_)), "{sql}: {err:?}");
            assert!(err.to_string().contains("not view-definable"), "{err}");
        }
        assert!(s.view_names().is_empty());
        // The programmatic API refuses identically.
        let err =
            s.create_materialized_view("v", "SELECT src FROM edges ORDER BY src").unwrap_err();
        assert!(err.to_string().contains("not view-definable"));
    }

    #[test]
    fn distinct_and_having_views_maintain_incrementally() {
        let mut s = edge_session("local");
        s.create_materialized_view("targets", "SELECT DISTINCT dst FROM edges").unwrap();
        s.create_materialized_view(
            "fanned",
            "SELECT src, count(*) FROM edges GROUP BY src HAVING count(*) > 1",
        )
        .unwrap();
        assert!(s.view_strategy("targets").unwrap().contains("incremental"));
        assert!(s.view_strategy("fanned").unwrap().contains("incremental"));
        s.insert("edges", vec![tuple![1i64, 3i64], tuple![1i64, 2i64]]).unwrap();
        s.delete("edges", vec![tuple![0i64, 1i64]]).unwrap();
        assert_eq!(
            s.query("SELECT * FROM targets").unwrap().rows,
            vec![tuple![2i64], tuple![3i64]]
        );
        assert_eq!(
            s.query("SELECT * FROM fanned").unwrap().rows,
            vec![tuple![1i64, 3i64]],
            "src=0 dropped to one edge; src=1 rose to three"
        );
        // Incremental means never a recompute pass.
        assert_eq!(s.views().get("targets").unwrap().recomputes(), 0);
        assert_eq!(s.views().get("fanned").unwrap().recomputes(), 0);
    }
}
