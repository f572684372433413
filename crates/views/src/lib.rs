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
//! * **incremental** — a [`MaintNode`](maintain::MaintNode) tree mirrors
//!   the plan; each base-table insert/delete batch becomes a
//!   [`DeltaSet`] and propagates through the select/project/join/group-by
//!   delta rules, touching state proportional to the *change*;
//! * **full recompute** — recursive (`WITH … UNTIL FIXPOINT`) and
//!   handler-defined shapes (join handlers, table-valued aggregates)
//!   re-run the defining query, diffing old vs new output so cascades
//!   still see deltas.
//!
//! ## The maintenance hot path
//!
//! Three properties keep per-batch cost proportional to the batch:
//!
//! * **One set of delta rules** — a view's joins and group-bys *are*
//!   rex-core's `HashJoinOp` and `GroupByOp`, built as lowering builds
//!   them, so views and queries share every aggregate handler: `sum`,
//!   `count` and `avg` update O(1) running state per delta tuple,
//!   `min`/`max` a count-annotated ordered multiset (O(log n), deleting
//!   the current extreme included), a user UDA's AGGSTATE sees every
//!   `+()` and `-()`, and a group whose last row is deleted retracts. This
//!   crate holds no aggregate state of its own.
//! * **Hashed keyed state** — join sides, group state and [`DeltaSet`]
//!   counts are hash maps keyed by the deterministic in-tree
//!   [`FxHasher`](rex_core::hash::FxHasher): O(1) probes, reproducible
//!   iteration for a given program, and sorting only at emission
//!   boundaries where output becomes observable.
//! * **Delta-granular sync** — each view retains its output delta since
//!   the last sync; [`ViewCatalog::sync`] applies it to the stored copy
//!   through `Catalog::apply_delta` (insert/remove by signed
//!   multiplicity), so sync costs O(change), not O(view). Recompute
//!   fallbacks keep the full republish.
//!
//! The [`ViewCatalog`] tracks which views read which tables (so dropping
//! a base table can be refused) and cascades deltas through views defined
//! over other views in *dependency-depth order* — every source a view
//! reads is final before the view runs, which also lets a recompute
//! fallback reading several changed sources re-run exactly once per pass.
//! View contents are still published lazily into the session's
//! stored-table catalog — which is how views compose into larger queries
//! unchanged on every engine and how the optimizer sees view
//! cardinalities — while a *bare* `SELECT * FROM v` is served straight
//! from authoritative view state (a merge-maintained sorted cache), with
//! no sync and no engine pass at all.
//!
//! The session facade (`rex::Session`) wires this crate to RQL DDL and to
//! `insert`/`delete`; see the root crate's "Materialized views" docs for
//! the end-to-end story.

pub mod catalog;
pub mod delta_set;
pub mod maintain;
pub mod sharded;
pub mod view;

pub use catalog::{ViewCatalog, ViewMetrics};
pub use delta_set::DeltaSet;
pub use sharded::{RecoveryStrategy, ShardStats, ShardedMaint};
pub use view::{evaluate, MaintenanceStrategy, MaterializedView};
