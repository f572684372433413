//! # rex-views
//!
//! Incrementally maintained materialized views, driven by the same delta
//! machinery (`+()`, `-()`, `→(t')` — Definition 1 of the paper) the REX
//! engine uses for recursive dataflow.
//!
//! `CREATE MATERIALIZED VIEW v AS <query>` resolves the defining query to
//! a [`LogicalPlan`](rex_rql::logical::LogicalPlan) and picks a
//! [`MaintenanceStrategy`]:
//!
//! * **incremental** — the plan is lowered once, by the query engine's
//!   own lowering, into a long-lived [`ViewFlow`]; each base-table
//!   insert/delete batch enters at that table's scans and is driven
//!   through the select/project/join/group-by operators by rex-core's
//!   `Executor`, touching state proportional to the *change*. Set-semantics
//!   recursion over scans, filters, projections and plain joins is
//!   incremental too: inserts re-enter the converged fixpoint, and a
//!   deleting pass rebuilds the flow from the store;
//! * **full recompute** — other recursion (`WITH … UNTIL FIXPOINT` with an
//!   aggregating step or a partial key) and handler-defined shapes (join
//!   handlers, table-valued aggregates) re-run the defining query, diffing
//!   old vs new output so cascades still see deltas.
//!
//! ## The maintenance hot path
//!
//! Three properties keep per-batch cost proportional to the batch:
//!
//! * **One engine** — a view's dataflow is what a query over the same
//!   plan lowers to, minus the table data and the sink: joins and
//!   group-bys *are* rex-core's `HashJoinOp` and `GroupByOp`, filters and
//!   projections its compiled `FilterOp`/`ProjectOp`. Views and queries
//!   share every aggregate handler: `sum`, `count` and `avg` update O(1)
//!   running state per delta tuple, `min`/`max` a count-annotated ordered
//!   multiset (O(log n), deleting the current extreme included), a user
//!   UDA's AGGSTATE sees every `+()` and `-()`, and a group whose last
//!   row is deleted retracts. Operator state persists across batches;
//!   this crate holds no operator state of its own.
//! * **Signed multisets only at the boundary** — rex-core's Z-set,
//!   [`ZSet`](rex_core::delta::ZSet), is what a pass's output delta,
//!   cascades between views and the routing of an input batch to shards
//!   are made of. Inside the dataflow a batch is an executor event; the
//!   root's emissions fold into a `ZSet` once per batch.
//! * **One copy of a view's rows** — the stored table of the view's name,
//!   kept in tuple order. Priming publishes the sorted rows; each pass
//!   writes its output delta into that table through
//!   `Catalog::apply_delta` before it returns, merging inserts in at their
//!   sorted position, so nothing is left to sync. A pass that re-reads
//!   the store (a recompute fallback, a recursive view's rebuild)
//!   republishes the sorted contents.
//!
//! The [`ViewCatalog`] tracks which views read which tables (so dropping
//! a base table can be refused) and cascades deltas through views defined
//! over other views in *creation order*, on the writer's thread — a view
//! can only be created over relations that exist, so every source a view
//! reads is final before the view runs, which also lets a recompute
//! fallback reading several changed sources re-run exactly once per pass.
//! Because the view's rows are a stored table, views compose into larger
//! queries unchanged on every engine and the optimizer sees view
//! cardinalities, while the session serves a *bare* `SELECT * FROM v` as
//! one clone of the already-sorted stored rows, with no engine pass.
//!
//! The session facade (`rex::Session`) wires this crate to RQL DDL and to
//! `insert`/`delete`; see the root crate's "Materialized views" docs for
//! the end-to-end story.

pub mod catalog;
pub mod flow;
pub mod sharded;
pub mod view;

pub use catalog::{ViewCatalog, ViewMetrics};
pub use flow::ViewFlow;
pub use sharded::{RecoveryStrategy, ShardStats, ShardedMaint};
pub use view::{evaluate, MaintenanceStrategy, MaterializedView};
