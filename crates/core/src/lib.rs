//! # rex-core
//!
//! The core engine of REX — *Recursive, delta-based data-centric
//! computation* (Mihaylov, Ives, Guha; PVLDB 5(11), 2012) — reimplemented in
//! Rust.
//!
//! REX is a shared-nothing, pipelined query engine in which **deltas**
//! (annotated tuples: insertions, deletions and replacements) are
//! first-class citizens. Recursive queries execute in strata; stateful
//! operators *refine* their state under deltas instead of accumulating it,
//! so each iteration touches only the Δᵢ set — the tuples that actually
//! changed.
//!
//! This crate provides:
//!
//! * the value/tuple/schema layer ([`value`], [`mod@tuple`]);
//! * deltas, annotations and punctuation ([`delta`]), and the Z-set
//!   ([`delta::ZSet`]): tuples with signed weights, the one counted
//!   multiset that views, the sink and top-k keep;
//! * scalar expressions ([`expr`]) and user-defined code ([`udf`],
//!   [`handlers`], [`aggregates`], [`builtins`]);
//! * the physical operators ([`operators`]): scan, filter, project,
//!   apply-function, pipelined hash join, group-by, rehash, top-k
//!   (`ORDER BY … LIMIT`), while/fixpoint, union, sink — all delta-aware;
//! * the push-based executor and single-node runtime ([`exec`]);
//! * the cost model and metric accounting ([`metrics`]);
//! * measured execution telemetry ([`telemetry`]): per-operator row/time
//!   counters and the [`ExecTrace`](telemetry::ExecTrace) behind
//!   `EXPLAIN ANALYZE` (`docs/OBSERVABILITY.md` at the repository root).
//!
//! Distribution (consistent hashing, routing, recovery) lives in
//! `rex-cluster`; the RQL language in `rex-rql` (full reference:
//! `docs/RQL.md` at the repository root); the optimizer in
//! `rex-optimizer`.
//!
//! ## Materialized views & incremental maintenance
//!
//! The [`delta`] vocabulary this crate defines — `+()`, `-()` and `→(t')`
//! of Definition 1 of the paper — is also the substrate of the
//! `rex-views` crate: `CREATE MATERIALIZED VIEW` (through the `rex`
//! facade's `Session`) lowers the defining query once into a long-lived
//! [`exec::Executor`] whose join and group-by nodes *are* this crate's
//! [`operators::HashJoinOp`] and [`operators::GroupByOp`], holding
//! persistent per-view state. Base-table inserts/deletes enter at the
//! scans as delta batches; maintenance cost scales with the batch, not
//! the table. Views and queries therefore share one set of
//! [`aggregates`] rules — O(1) `sum`/`count`/`avg`, an O(log n) ordered
//! multiset for `min`/`max`, `-()` deltas for user
//! [`handlers::AggHandler`]s — and a group whose last row is deleted
//! retracts its output. Keyed state is hashed with this crate's
//! deterministic [`hash::FxHasher`].
//!
//! ## The hot path
//!
//! The row-at-a-time execution path is engineered to be allocation-free
//! per row (`docs/PERF.md` at the repository root has the full story and
//! the CI-gated benchmark numbers):
//!
//! * keyed operator state lives in [`hash::KeyedTable`]s probed with
//!   *borrowed* keys ([`Tuple::hash_key`](tuple::Tuple::hash_key) /
//!   [`Tuple::key_eq`](tuple::Tuple::key_eq)) — an owned key is
//!   materialized only when a key is first inserted;
//! * the executor drains with one pooled [`operators::OpCtx`] emission
//!   buffer, and fans events out without cloning edge lists;
//! * insertions travel bare: scans emit run-length
//!   [`operators::Event::Rows`] batches, filters retain in place through
//!   pre-compiled predicates ([`expr::CompiledExpr`]), and the sink
//!   ([`operators::SinkOp`]) appends until the first non-insert delta,
//!   then sorts once, by 64-bit order prefixes
//!   ([`tuple::sort_rows`] / [`Value::order_prefix`](value::Value::order_prefix)).
//!
//! ## Quick start
//!
//! Most users should not start here: the `rex` facade crate's `Session`
//! is the front door — it owns tables, user code, and the optimizer, and
//! runs RQL text end-to-end on any engine. This crate is the layer
//! *below* that API: hand-built physical plans on the single-node
//! runtime, which is what `Session`'s pipeline ultimately lowers to.
//!
//! ```
//! use rex_core::exec::{LocalRuntime, PlanGraph};
//! use rex_core::expr::Expr;
//! use rex_core::operators::{FilterOp, ScanOp, SinkOp};
//! use rex_core::tuple;
//!
//! // What `Session::query("SELECT ... WHERE x > 3")` lowers to:
//! let mut g = PlanGraph::new();
//! let scan = g.add(Box::new(ScanOp::new("t", vec![tuple![1i64], tuple![7i64]])));
//! let filter = g.add(Box::new(FilterOp::new(Expr::col(0).gt(Expr::lit(3i64)))));
//! let sink = g.add(Box::new(SinkOp::new()));
//! g.pipe(scan, filter);
//! g.pipe(filter, sink);
//!
//! let (results, _report) = LocalRuntime::new().run(g).unwrap();
//! assert_eq!(results, vec![tuple![7i64]]);
//! ```

pub mod aggregates;
pub mod builtins;
pub mod col;
pub mod delta;
pub mod error;
pub mod exec;
pub mod expr;
pub mod faults;
pub mod handlers;
pub mod hash;
pub mod metrics;
pub mod operators;
pub mod telemetry;
pub mod thread_budget;
pub mod tuple;
pub mod udf;
pub mod value;

pub use delta::{Annotation, Delta, Punctuation};
pub use error::{Result, RexError};
pub use tuple::{Field, Schema, Tuple};
pub use value::{DataType, Value};
