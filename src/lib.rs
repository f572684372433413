//! # REX — Recursive, Delta-Based Data-Centric Computation
//!
//! A from-scratch Rust reproduction of the REX system (Mihaylov, Ives,
//! Guha; PVLDB 5(11), 2012): a shared-nothing, pipelined parallel query
//! engine where incremental updates (*deltas*) are first-class citizens,
//! recursion executes in strata with user-defined termination, and state is
//! refined — not accumulated — from iteration to iteration.
//!
//! ## Front door: [`Session`]
//!
//! The paper's promise is that a user writes one recursive RQL query and
//! the system handles planning, optimization, distribution, and
//! delta-based iteration. [`Session`] is that promise as an API: create
//! tables, register delta handlers, and call [`Session::query`] — the
//! text runs through parse → resolve → optimize → lower → execute on the
//! engine the session was opened with.
//!
//! ```
//! use rex::Session;
//! use rex::core::tuple::{Schema, Tuple};
//! use rex::core::value::{DataType, Value};
//!
//! // Open a session (swap `local()` for `cluster(8)` to distribute —
//! // queries run unchanged).
//! let mut s = Session::local();
//! s.create_table(
//!     "org",
//!     Schema::of(&[("employee", DataType::Str), ("manager", DataType::Str)]),
//! ).unwrap();
//! s.insert("org", vec![
//!     Tuple::new(vec![Value::str("ada"), Value::str("grace")]),
//!     Tuple::new(vec![Value::str("grace"), Value::str("alan")]),
//! ]).unwrap();
//!
//! // Plain SQL...
//! let r = s.query("SELECT manager, count(*) FROM org GROUP BY manager").unwrap();
//! assert_eq!(r.rows.len(), 2);
//!
//! // ...and recursion to fixpoint, through the same call.
//! s.create_table("roots", Schema::of(&[("name", DataType::Str)])).unwrap();
//! s.insert("roots", vec![Tuple::new(vec![Value::str("alan")])]).unwrap();
//! let tree = s.query(
//!     "WITH reports (name) AS (SELECT name FROM roots)
//!      UNION UNTIL FIXPOINT BY name (
//!        SELECT org.employee FROM org, reports WHERE org.manager = reports.name)",
//! ).unwrap();
//! assert_eq!(tree.rows.len(), 3); // alan, grace, ada
//! assert!(tree.report.iterations() >= 3);
//! ```
//!
//! Execution backends implement the [`Engine`] trait ([`LocalEngine`],
//! [`ClusterEngine`]; see [`engine`] for the contract new backends must
//! satisfy). Results come back as [`QueryResult`]: rows, the per-stratum
//! [`QueryReport`](core::metrics::QueryReport), the optimizer's cost
//! estimate, and — for distributed runs — per-worker cluster stats.
//!
//! ## The RQL language
//!
//! The full SQL-style surface is documented in **`docs/RQL.md`**:
//! `SELECT` with `DISTINCT`, `HAVING`, `ORDER BY … LIMIT/OFFSET`
//! (deterministic ties, distributed top-k), aggregates over arbitrary
//! scalar expressions (`SUM(price * (1 - discount))`), `CREATE TABLE`
//! and `CREATE MATERIALIZED VIEW` / `DROP` DDL, and
//! `WITH … UNTIL FIXPOINT` recursion. `cargo run --example rql_tour`
//! exercises every clause on both engines.
//!
//! ## Materialized views & incremental maintenance
//!
//! Deltas are REX's substrate, and materialized views are the workload
//! where they pay off directly: `CREATE MATERIALIZED VIEW v AS <query>`
//! materializes the query once, and every subsequent
//! [`Session::insert`] / [`Session::delete`] batch propagates through the
//! view's *dataflow* — the defining query lowered once, as a query would
//! be, into rex-core operators that keep their state between batches and
//! are driven by rex-core's `Executor` (the [`views`] crate) — touching
//! state proportional to the change, not the data. Queries and views
//! share one set of aggregate rules: `sum`/`count`/`avg` keep O(1)
//! running scalars, `min`/`max` an O(log n) count-annotated multiset
//! (deleting the current extreme included), a user UDA's AGGSTATE
//! receives `-()` deltas too, and all keyed state lives in hash maps
//! keyed by the deterministic in-tree [`core::hash::FxHasher`]. Set-semantics
//! scan/filter/project/join recursion (`WITH … UNTIL FIXPOINT`) continues
//! from its converged fixpoint under inserts; other recursive definitions
//! fall back to full recomputation automatically; `explain` on the DDL
//! shows which strategy a view gets. A view's rows live in one place, a
//! stored table kept in tuple order that each maintenance pass updates by
//! its output delta before the write returns: composed queries scan it on
//! any engine, and a bare `SELECT * FROM v` is served as a clone of its
//! rows (no engine pass). Views can be defined over other views
//! (deltas cascade in creation order), and `drop_table` refuses
//! while a view still reads the table.
//!
//! ```
//! use rex::Session;
//! use rex::core::tuple::{Schema, Tuple};
//! use rex::core::value::{DataType, Value};
//!
//! let mut s = Session::local();
//! s.create_table("orders", Schema::of(&[("cust", DataType::Str), ("amt", DataType::Double)]))
//!     .unwrap();
//! s.insert("orders", vec![Tuple::new(vec![Value::str("ada"), Value::Double(10.0)])]).unwrap();
//! s.query("CREATE MATERIALIZED VIEW spend AS \
//!          SELECT cust, sum(amt) FROM orders GROUP BY cust").unwrap();
//! // The insert maintains the view incrementally; the scan reads state.
//! s.insert("orders", vec![Tuple::new(vec![Value::str("ada"), Value::Double(5.0)])]).unwrap();
//! let r = s.query("SELECT sum FROM spend").unwrap();
//! assert_eq!(r.rows[0].get(0), &Value::Double(15.0));
//! ```
//!
//! `cargo run --example incremental_views` walks the full lifecycle, and
//! `cargo run --release -p rex-bench --bin ivm_maintenance` measures
//! maintenance against per-batch recomputation (`BENCH_ivm.json`).
//!
//! ## Workspace layout
//!
//! * [`core`] — deltas, operators, the execution engine;
//! * [`storage`] — partitioned replicated tables, snapshots, checkpoints;
//! * [`cluster`] — the distributed runtime with incremental recovery;
//! * [`rql`] — the RQL language (SQL + fixpoint recursion + UDAs + view DDL);
//! * [`views`] — incrementally maintained materialized views;
//! * [`optimizer`] — cost-based top-down optimization;
//! * [`hadoop`] — the MapReduce/HaLoop simulator used as a baseline;
//! * [`dbms`] — the accumulate-only recursive-SQL "DBMS X" baseline;
//! * [`algos`] — delta-oriented PageRank, shortest paths, K-means, and
//!   their MapReduce twins;
//! * [`data`] — synthetic dataset generators.
//!
//! See `README.md` for a tour, `docs/RQL.md` for the language
//! reference, and `ROADMAP.md` for the open items.

pub mod engine;
pub mod session;
pub mod snapshot;

pub use engine::{ClusterEngine, ClusterStats, Engine, EngineContext, EngineOutput, LocalEngine};
pub use session::{QueryResult, Session};
pub use snapshot::{SnapshotView, ViewStat};

pub use rex_algos as algos;
pub use rex_cluster as cluster;
pub use rex_core as core;
pub use rex_data as data;
pub use rex_dbms as dbms;
pub use rex_hadoop as hadoop;
pub use rex_optimizer as optimizer;
pub use rex_rql as rql;
pub use rex_storage as storage;
pub use rex_views as views;
