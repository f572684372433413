//! Versioned, immutable database snapshots: the concurrent read path.
//!
//! A [`SnapshotView`] is everything [`Session::query`](crate::session::Session::query)
//! needs to answer a *read* — schema catalog, stored tables (base tables
//! and synced materialized-view copies), UDF registry, a
//! statistics-frozen optimizer, and the engine — captured at one version
//! and never mutated again. [`Session::snapshot`](crate::session::Session::snapshot)
//! builds one in O(tables) `Arc` bumps (no row is copied; see
//! [`Catalog::snapshot`]); every later write copy-on-writes the affected
//! table, so a published snapshot keeps serving exactly the rows it
//! captured.
//!
//! This is the MVCC-lite design the server front-end
//! (`rex-server`) is built on: a single writer thread applies
//! inserts/DDL, runs view maintenance through the existing delta path,
//! bumps the version, and publishes a fresh `Arc<SnapshotView>`; any
//! number of reader threads clone the current `Arc` and execute
//! lock-free against a consistent version. Readers never block the
//! writer and the writer never disturbs readers.
//!
//! ```
//! use rex::Session;
//! use rex::core::tuple::Schema;
//! use rex::core::value::DataType;
//! use rex::core::tuple;
//!
//! let mut s = Session::local();
//! s.create_table("t", Schema::of(&[("x", DataType::Int)])).unwrap();
//! s.insert("t", vec![tuple![1i64]]).unwrap();
//! let snap = s.snapshot().unwrap();          // version frozen here
//! s.insert("t", vec![tuple![2i64]]).unwrap(); // invisible to `snap`
//! let r = snap.query("SELECT x FROM t").unwrap();
//! assert_eq!(r.rows, vec![tuple![1i64]]);
//! assert!(s.snapshot().unwrap().version() > snap.version());
//! ```

use crate::engine::{Engine, EngineContext};
use crate::session::QueryResult;
use rex_core::error::{Result, RexError};
use rex_core::metrics::QueryReport;
use rex_core::telemetry::fmt_ns;
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use rex_core::value::Value;
use rex_optimizer::{Optimizer, PlanCost};
use rex_rql::ast::Statement;
use rex_rql::logical::{LogicalPlan, SortKey};
use rex_rql::resolve::SchemaCatalog;
use rex_rql::{RqlError, RqlStage};
use rex_storage::catalog::Catalog;
use std::sync::Arc;

/// A materialized view's identity card inside a snapshot — the same
/// strategy strings `Session::explain` prints, captured at publish time
/// so server `STATS` output cannot drift from the engine's own view of
/// the world.
#[derive(Debug, Clone)]
pub struct ViewStat {
    /// View name (lowercase).
    pub name: String,
    /// Rendered maintenance strategy ("incremental delta propagation",
    /// "full recompute (…)").
    pub strategy: String,
}

/// An immutable, versioned view of the database: the read half of a
/// [`Session`](crate::session::Session), shareable across threads. See
/// the [module docs](self).
pub struct SnapshotView {
    version: u64,
    schemas: SchemaCatalog,
    store: Catalog,
    registry: Registry,
    optimizer: Optimizer,
    engine: Arc<dyn Engine>,
    views: Vec<ViewStat>,
    telemetry: bool,
    threads: usize,
}

impl SnapshotView {
    /// Assembled by [`Session::snapshot`](crate::session::Session::snapshot).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        version: u64,
        schemas: SchemaCatalog,
        store: Catalog,
        registry: Registry,
        optimizer: Optimizer,
        engine: Arc<dyn Engine>,
        views: Vec<ViewStat>,
        telemetry: bool,
        threads: usize,
    ) -> SnapshotView {
        SnapshotView {
            version,
            schemas,
            store,
            registry,
            optimizer,
            engine,
            views,
            telemetry,
            threads,
        }
    }

    /// The version this snapshot was published at. Versions are bumped by
    /// every committed session mutation (insert/delete/DDL), so two
    /// snapshots with the same version serve identical contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The engine queries run on ("local", "cluster", …).
    pub fn engine_name(&self) -> &str {
        self.engine.name()
    }

    /// Run a read-only RQL query against this frozen version. Write
    /// statements (DDL) are refused — they must go through the owning
    /// session (in the server: the writer thread). `EXPLAIN` and
    /// `EXPLAIN ANALYZE` over queries are reads and run here too, their
    /// output returned as single-column text rows.
    ///
    /// `&self`: any number of threads may query one snapshot
    /// concurrently; per-query state lives on the stack.
    pub fn query(&self, rql: &str) -> Result<QueryResult> {
        let stmt = rex_rql::parse(rql).map_err(|e| RqlError::at(RqlStage::Parse, e))?;
        if stmt.is_ddl() {
            return Err(RexError::Plan(
                "snapshot is read-only: DDL must run through the session (server: the write \
                 path — SCRIPT)"
                    .into(),
            ));
        }
        Reader {
            schemas: &self.schemas,
            store: &self.store,
            registry: &self.registry,
            optimizer: &self.optimizer,
            engine: self.engine.as_ref(),
            is_view: &|t| self.views.iter().any(|v| v.name.eq_ignore_ascii_case(t)),
            telemetry: self.telemetry,
            threads: self.threads,
        }
        .read(&stmt)
    }

    /// Table (and synced view-copy) names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.store.table_names()
    }

    /// Rows stored in `table` at this version.
    pub fn table_rows(&self, table: &str) -> Result<usize> {
        Ok(self.store.get(table)?.len())
    }

    /// The materialized views captured in this snapshot, with the same
    /// strategy rendering `Session::explain` uses.
    pub fn views(&self) -> &[ViewStat] {
        &self.views
    }

    /// A human-readable snapshot report: version, engine, per-table row
    /// counts, and each view's maintenance strategy. The server's `STATS`
    /// command serves this text (plus its own traffic counters), so the
    /// numbers are read off the same structures the engine executes
    /// against — they cannot drift.
    pub fn stats_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("snapshot.version {}\n", self.version));
        out.push_str(&format!("engine {}\n", self.engine_name()));
        let view_names: std::collections::BTreeSet<String> =
            self.views.iter().map(|v| v.name.clone()).collect();
        for t in self.table_names() {
            if view_names.contains(&t) {
                continue;
            }
            let rows = self.table_rows(&t).unwrap_or(0);
            out.push_str(&format!("table.{t}.rows {rows}\n"));
        }
        for v in &self.views {
            let rows = self.table_rows(&v.name).unwrap_or(0);
            out.push_str(&format!("view.{}.rows {rows}\n", v.name));
            out.push_str(&format!("view.{}.strategy {}\n", v.name, v.strategy));
        }
        out
    }
}

/// The one read dispatcher, borrowed from whatever holds the data: the
/// live session ([`Session::query`](crate::session::Session::query)) and
/// every published [`SnapshotView`] run reads through it, so embedded and
/// served queries cannot diverge in semantics.
pub(crate) struct Reader<'a> {
    pub schemas: &'a SchemaCatalog,
    pub store: &'a Catalog,
    pub registry: &'a Registry,
    pub optimizer: &'a Optimizer,
    pub engine: &'a dyn Engine,
    /// Whether a relation name is a materialized view.
    pub is_view: &'a dyn Fn(&str) -> bool,
    pub telemetry: bool,
    pub threads: usize,
}

impl Reader<'_> {
    /// Run a query, `EXPLAIN <query>` or `EXPLAIN ANALYZE <query>`:
    /// plan → optimize → execute. A bare scan of a materialized view is
    /// served straight from the view's stored rows, which maintenance
    /// keeps sorted — no optimizer pass, no engine execution. Otherwise
    /// rows come back sorted, or in presentation order under a top-level
    /// `ORDER BY`; EXPLAIN output comes back as single-column text rows.
    pub(crate) fn read(&self, stmt: &Statement) -> Result<QueryResult> {
        let (explain, analyze, stmt) = match stmt {
            Statement::Explain { analyze, inner } => (true, *analyze, inner.as_ref()),
            s => (false, false, s),
        };
        let logical = rex_rql::logical::plan(stmt, self.schemas, self.registry)
            .map_err(|e| RqlError::at(RqlStage::Plan, e))?;
        let engine = self.engine.name().to_string();
        if !explain {
            if let Some(table) = bare_scan_target(&logical).filter(|t| (self.is_view)(t)) {
                let rows = self.store.get(table)?.rows().to_vec();
                return Ok(QueryResult {
                    cost: PlanCost { rows: rows.len() as u64, resources: Default::default() },
                    rows,
                    report: QueryReport::default(),
                    cluster: None,
                    engine: "view-state".to_string(),
                    trace: None,
                });
            }
        }
        if explain && !analyze {
            let (text, _, cost) = explain_plan(logical, self.optimizer)?;
            return Ok(QueryResult {
                rows: text_rows(&text),
                report: QueryReport::default(),
                cluster: None,
                cost,
                engine,
                trace: None,
            });
        }
        let (optimized, cost) = self.optimizer.optimize(logical)?;
        let ctx = EngineContext {
            store: self.store,
            registry: self.registry,
            telemetry: self.telemetry || analyze,
            threads: self.threads,
        };
        let mut out = self.engine.execute(&optimized, &ctx)?;
        if analyze {
            // The measured operator tree next to the optimizer's estimate,
            // so misestimates read directly off the `estimated … actual …`
            // line.
            let trace = out.trace.ok_or_else(|| {
                RexError::Exec("engine returned no trace for EXPLAIN ANALYZE".into())
            })?;
            let mut text = format!("== explain analyze ({engine}) ==\n");
            text.push_str(&format!(
                "estimated {} rows; actual {} rows in {}\n",
                cost.rows,
                out.rows.len(),
                fmt_ns((trace.wall_seconds * 1e9) as u64),
            ));
            text.push_str(&trace.render());
            out.rows = text_rows(&text);
            out.trace = Some(trace);
        } else if let Some(keys) = output_ordering(&optimized) {
            // Engines return rows sorted (their agreement contract); a
            // top-level ORDER BY re-orders the final — already limited —
            // rows into presentation order.
            presentation_sort(&mut out.rows, keys, self.registry)?;
        }
        Ok(QueryResult {
            rows: out.rows,
            report: out.report,
            cluster: out.cluster,
            cost,
            engine,
            trace: out.trace,
        })
    }
}

/// If `plan` is a bare scan of one relation — `SELECT * FROM t`, i.e. a
/// `Scan` or an identity projection over one — the scanned table's name.
/// This is what the view-serving fast path keys on.
fn bare_scan_target(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some(table),
        LogicalPlan::Project { input, exprs, .. } => match input.as_ref() {
            LogicalPlan::Scan { table, schema } if exprs.len() == schema.arity() => {
                let identity = exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, rex_core::expr::Expr::Col(j) if *j == i));
                identity.then_some(table.as_str())
            }
            _ => None,
        },
        _ => None,
    }
}

/// One single-column string tuple per line of `text` — how EXPLAIN output
/// travels as a result set (and so over the server's line protocol
/// unchanged).
pub(crate) fn text_rows(text: &str) -> Vec<Tuple> {
    text.lines().map(|l| Tuple::new(vec![Value::str(l)])).collect()
}

/// The text of `EXPLAIN`, without executing: the logical plan, the
/// optimizer's rewrite, and its estimate. Returns the text with the
/// rewritten plan and its cost.
pub(crate) fn explain_plan(
    logical: LogicalPlan,
    optimizer: &Optimizer,
) -> Result<(String, LogicalPlan, PlanCost)> {
    let before = logical.explain();
    let (optimized, cost) = optimizer.optimize(logical)?;
    let text = format!(
        "== logical ==\n{before}== optimized ==\n{}== estimate ==\nruntime {:.3} units, {} rows\n",
        optimized.explain(),
        cost.runtime(),
        cost.rows,
    );
    Ok((text, optimized, cost))
}

/// The ORDER BY keys governing the final result's presentation order, if
/// the plan's root is a `Sort` (possibly under a `Limit`). The dataflow
/// already applied any LIMIT/OFFSET *selection*; what remains is putting
/// the surviving rows in order.
fn output_ordering(plan: &LogicalPlan) -> Option<&[SortKey]> {
    match plan {
        LogicalPlan::Sort { keys, .. } => Some(keys),
        LogicalPlan::Limit { input, .. } => output_ordering(input),
        _ => None,
    }
}

/// Order rows by the sort keys via the engine-shared
/// [`compare_by_keys`](rex_core::operators::compare_by_keys) total order
/// (keys in sequence, full-row tie-break) — the same order the top-k
/// operator selects by, so selection and presentation can never disagree.
fn presentation_sort(rows: &mut Vec<Tuple>, keys: &[SortKey], reg: &Registry) -> Result<()> {
    use rex_core::operators::{compare_by_keys, SortSpec};
    let specs: Vec<SortSpec> =
        keys.iter().map(|k| SortSpec { expr: k.expr.clone(), desc: k.desc }).collect();
    let mut keyed: Vec<(Vec<rex_core::value::Value>, usize)> = Vec::with_capacity(rows.len());
    for (i, t) in rows.iter().enumerate() {
        let mut kv = Vec::with_capacity(specs.len());
        for s in &specs {
            kv.push(s.expr.eval(t, reg)?);
        }
        keyed.push((kv, i));
    }
    keyed.sort_unstable_by(|a, b| compare_by_keys(&specs, &a.0, &rows[a.1], &b.0, &rows[b.1]));
    // Apply the permutation without cloning any tuple.
    let mut slots: Vec<Option<Tuple>> = std::mem::take(rows).into_iter().map(Some).collect();
    *rows = keyed.into_iter().map(|(_, i)| slots[i].take().expect("unique index")).collect();
    Ok(())
}

#[cfg(test)]
mod tests {
    use rex_core::tuple;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;

    use crate::Session;

    fn seeded(engine: &str) -> Session {
        let mut s = match engine {
            "cluster" => Session::cluster(3),
            _ => Session::local(),
        };
        s.create_table("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]))
            .unwrap();
        s.insert("edges", vec![tuple![0i64, 1i64], tuple![1i64, 2i64], tuple![0i64, 2i64]])
            .unwrap();
        s
    }

    #[test]
    fn snapshots_version_and_isolate_on_both_engines() {
        for engine in ["local", "cluster"] {
            let mut s = seeded(engine);
            let v1 = s.snapshot().unwrap();
            s.insert("edges", vec![tuple![9i64, 9i64]]).unwrap();
            let v2 = s.snapshot().unwrap();
            assert!(v2.version() > v1.version(), "{engine}");
            assert_eq!(v1.query("SELECT * FROM edges").unwrap().rows.len(), 3, "{engine}");
            assert_eq!(v2.query("SELECT * FROM edges").unwrap().rows.len(), 4, "{engine}");
            // Same version ⇒ same contents, even after more writes.
            s.delete("edges", vec![tuple![9i64, 9i64]]).unwrap();
            assert_eq!(v2.query("SELECT * FROM edges").unwrap().rows.len(), 4, "{engine}");
            assert_eq!(v2.engine_name(), engine);
        }
    }

    #[test]
    fn snapshot_serves_view_state_and_stats() {
        let mut s = seeded("local");
        s.create_materialized_view("fanout", "SELECT src, count(*) FROM edges GROUP BY src")
            .unwrap();
        let snap = s.snapshot().unwrap();
        let rows = snap.query("SELECT * FROM fanout").unwrap().rows;
        assert_eq!(rows, vec![tuple![0i64, 2i64], tuple![1i64, 1i64]]);
        // Maintenance after publish is invisible to the snapshot...
        s.insert("edges", vec![tuple![1i64, 7i64]]).unwrap();
        assert_eq!(snap.query("SELECT * FROM fanout").unwrap().rows.len(), 2);
        // ...and visible to the next one.
        let next = s.snapshot().unwrap();
        assert_eq!(
            next.query("SELECT src, count FROM fanout WHERE src = 1").unwrap().rows,
            vec![tuple![1i64, 2i64]]
        );
        let stats = next.stats_text();
        assert!(stats.contains("table.edges.rows 4"), "{stats}");
        assert!(stats.contains("view.fanout.rows 2"), "{stats}");
        assert!(stats.contains("view.fanout.strategy incremental delta propagation\n"), "{stats}");
    }

    #[test]
    fn snapshot_refuses_writes_and_supports_full_query_surface() {
        let mut s = seeded("local");
        let snap = s.snapshot().unwrap();
        let err = snap.query("CREATE TABLE t2 (x int)").unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        let err = snap.query("DROP TABLE edges").unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        // ORDER BY / aggregate / recursion all run on a snapshot.
        let r = snap.query("SELECT src, dst FROM edges ORDER BY dst DESC LIMIT 2").unwrap();
        assert_eq!(r.rows, vec![tuple![0i64, 2i64], tuple![1i64, 2i64]], "ties by full row");
        let agg = snap.query("SELECT src, count(*) FROM edges GROUP BY src").unwrap();
        assert_eq!(agg.rows, vec![tuple![0i64, 2i64], tuple![1i64, 1i64]]);
        let reach = snap
            .query(
                "WITH reach (id) AS (SELECT src FROM edges WHERE src = 0)
                 UNION UNTIL FIXPOINT BY id (
                   SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id)",
            )
            .unwrap();
        assert_eq!(reach.rows.len(), 3);
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let mut s = seeded("local");
        let snap = s.snapshot().unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let snap = std::sync::Arc::clone(&snap);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let r = snap.query("SELECT src, count(*) FROM edges GROUP BY src").unwrap();
                    assert_eq!(r.rows.len(), 2, "reader {i}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
